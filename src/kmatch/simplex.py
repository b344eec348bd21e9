"""Exact phase-1 simplex for LP feasibility, fraction-free in integers and
warm-started from a float basis.

Equality constraints Ax = b with x >= 0 only; that is all the
fractional-matching models need. Rows with negative b are negated first, and
phase 1 starts from one artificial per row. Each column is scaled by the lcm
of its own denominators and b by one lcm, which changes no pivot choice.

1. Float guide. The same phase 1 runs in float64 on a dense numpy tableau
   (Dantzig pricing, min-ratio test, at most FLOAT_PIVOTS_PER_ROW pivots per
   row) on the unscaled coefficients. Its only output is a basis: which
   column is basic in which row.
2. Exact install. Each real column of that basis enters by an exact pivot,
   replacing an artificial that the float basis does not keep. The basis is
   kept only if every exact basic value is >= 0; on a float failure, a
   singular column or a negative value the solver restarts cold from the
   all-artificial basis. Install pivots count in `pivots`.
3. Exact finish. Revised simplex with Bland's rule (ascending variable order)
   on an integer basis inverse and basic values over one denominator, the
   basis determinant. A pivot rewrites the rows fraction-free
   (Edmonds-Bareiss); ratios are compared cross-multiplied. From an optimal
   float basis it stops at once with a feasible point, or prices once and
   returns the phase-1 multipliers. Float values never reach an answer.
4. Exact checks. A feasible point is checked (Ax = b, x >= 0), and the
   multipliers of an infeasible model are mapped back to the original row
   signs and checked as a Farkas certificate (y.A_j <= 0 for every column,
   y.b > 0). An inexact division or a failed check is a bug and raises
   ArithmeticError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9
FLOAT_PIVOTS_PER_ROW = 20


@dataclass
class FeasibilityResult:
    feasible: bool
    solution: dict = field(default_factory=dict)   # column index -> value
    certificate: list = None                       # Farkas row multipliers when infeasible
    pivots: int = 0


def _float_basis(cols, rhs):
    """Phase-1 basis found in float64, as a list of variables by row
    (artificials are len(cols)..len(cols)+m-1), or None on a failure.

    Only a guide: nothing it computes is used beyond the basis itself.
    """
    m, ncols = len(rhs), len(cols)
    tab = np.zeros((m, ncols + m))
    for j, col in enumerate(cols):
        for i, a in col:
            tab[i, j] = float(a)
    tab[:, ncols:] = np.eye(m)
    x = np.array([float(v) for v in rhs])
    # reduced phase-1 costs: 1 on artificials minus the column sums
    cost = np.concatenate([-tab[:, :ncols].sum(axis=0), np.zeros(m)])
    basis = list(range(ncols, ncols + m))
    for _ in range(FLOAT_PIVOTS_PER_ROW * m):
        enter = int(np.argmin(cost))
        if cost[enter] >= -FLOAT_TOL:
            return basis
        col = tab[:, enter]
        rows = np.flatnonzero(col > FLOAT_TOL)
        if rows.size == 0:
            return None
        leave = int(rows[np.argmin(x[rows] / col[rows])])
        piv = col[leave]
        tab[leave] /= piv
        x[leave] /= piv
        rows = np.flatnonzero(tab[:, enter])
        rows = rows[rows != leave]
        f = tab[rows, enter]
        tab[rows] -= np.outer(f, tab[leave])
        x[rows] -= f * x[leave]
        cost -= cost[enter] * tab[leave]
        basis[leave] = enter
    return None


def solve_equality_feasibility(columns, b) -> FeasibilityResult:
    """Find x >= 0 with Ax = b, columns given sparsely as [(row, coef), ...]
    with int or Fraction coefficients.

    Returns an exact basic feasible point, or an exactly checked Farkas
    certificate y (y.A_j <= 0 for all j, y.b > 0) when none exists.
    """
    m, ncols = len(b), len(columns)
    # each column is scaled by the lcm c_j of its own denominators and b by
    # one lcm; the phase-1 multipliers and every pivot choice stay the same
    lb, rhs = _scaled(b)
    sign = [-1 if v < 0 else 1 for v in rhs]
    rhs = [abs(v) for v in rhs]
    cols, scale, fcols = [], [], []
    for col in columns:
        c, ints = _scaled([a for _, a in col])
        col = [(i, n * sign[i]) for (i, _), n in zip(col, ints) if n]
        cols.append(col)
        scale.append(c)
        # (c * a) / c rounds exactly as float(a) does
        fcols.append([(i, n / c) for i, n in col])

    # basis[i] is the variable basic in row i; artificials are ncols..ncols+m-1.
    # tab[i] holds row i of D * B^-1 followed by D * x_B[i], over the one
    # denominator D = |det B|.
    basis, tab = [], []
    den, pivots = 1, 0

    def cold_start():
        nonlocal den
        basis[:] = [ncols + i for i in range(m)]
        tab[:] = [[int(t == i) for t in range(m)] + [rhs[i]] for i in range(m)]
        den = 1

    def direction(enter_col):
        # D * B^-1 A_enter
        return [sum(row[i] * a for i, a in enter_col) for row in tab]

    def pivot(enter_var, d, leave):
        nonlocal den, pivots
        den = _pivot_rows(tab, d, leave, den)
        basis[leave] = enter_var
        pivots += 1

    def install(guide):
        # each real column replaces an artificial the guide does not keep;
        # d[t] != 0 keeps the exact basis nonsingular
        kept = set(guide)
        for var in guide:
            if var < ncols:
                d = direction(cols[var])
                leave = next((t for t in range(m)
                              if basis[t] >= ncols and basis[t] not in kept and d[t] != 0), None)
                if leave is None:
                    return False  # singular float basis
                pivot(var, d, leave)
        return all(row[m] >= 0 for row in tab)

    cold_start()
    guide = _float_basis(fcols, [v / lb for v in rhs])
    if guide is not None and not install(guide):
        cold_start()

    while True:
        if all(var < ncols or row[m] == 0 for var, row in zip(basis, tab)):
            break  # objective already zero
        # D * y, y = c_B B^-1 with phase-1 costs (1 on artificial basics),
        # and last D times the phase-1 objective
        y = [sum(v) for v in zip(*(row for var, row in zip(basis, tab) if var >= ncols))]
        # Bland: the first real column with negative reduced cost -y.A_j
        enter = next((j for j, col in enumerate(cols) if sum(y[i] * a for i, a in col) > 0), None)
        if enter is None:
            # no improving real column; artificial i improves if 1 - y_i < 0
            enter = next((ncols + i for i in range(m) if y[i] > den), None)
            if enter is None:
                if y[m] > 0:
                    cert = _farkas(columns, b, [Fraction(yi, den) for yi in y[:m]], sign)
                    return FeasibilityResult(feasible=False, certificate=cert, pivots=pivots)
                break
        d = direction(cols[enter] if enter < ncols else ((enter - ncols, 1),))
        rows = [t for t in range(m) if d[t] > 0]
        if not rows:
            # phase 1 cannot be unbounded below: the tableau is corrupt
            raise ArithmeticError("phase-1 ratio test failed on an improving column")
        leave = rows[0]
        for t in rows[1:]:
            # x_t / d_t against the best ratio so far, cross-multiplied
            mine, best = tab[t][m] * d[leave], tab[leave][m] * d[t]
            if mine < best or (mine == best and basis[t] < basis[leave]):
                leave = t
        pivot(enter, d, leave)

    # the point is checked exactly, as the certificate is: A x = b, x >= 0
    lhs = [0] * m
    for var, row in zip(basis, tab):
        for i, a in cols[var] if var < ncols else ():
            lhs[i] += a * row[m]
    if lhs != [den * v for v in rhs] or any(row[m] < 0 for row in tab):
        raise ArithmeticError("the basic point fails A x = b, x >= 0")
    sol = {var: Fraction(row[m] * scale[var], den * lb)
           for var, row in zip(basis, tab) if var < ncols and row[m] != 0}
    return FeasibilityResult(feasible=True, solution=sol, pivots=pivots)


def _pivot_rows(tab, d, leave, den):
    """Fraction-free (Edmonds-Bareiss) pivot on d[leave] of the rows of tab and
    the entering column d, all over den; returns the new denominator
    |d[leave]|. An inexact division raises ArithmeticError."""
    p, prow = d[leave], tab[leave]
    for t, f in enumerate(d):
        if t == leave or (not f and p == den):
            continue
        new = [p * a - f * q for a, q in zip(tab[t], prow)]
        out = [x // den for x in new]
        # floor remainders lie in [0, den): their sum is 0 only if all are
        if sum(new) != den * sum(out):
            raise ArithmeticError("inexact fraction-free division")
        tab[t] = out
    if p < 0:
        tab[:] = [[-a for a in row] for row in tab]
    return abs(p)


def _scaled(values):
    """The lcm c of the denominators of int or Fraction values, and the
    integers c * v."""
    ratios = [v.as_integer_ratio() for v in values]
    c = math.lcm(*(q for _, q in ratios))
    return c, [n * (c // q) for n, q in ratios]


def _farkas(columns, b, y, sign) -> list:
    """Phase-1 multipliers in the original row signs, checked exactly (on
    integer multiples) as a Farkas certificate: y.A_j <= 0 for all j, y.b > 0."""
    y = [yi * s for yi, s in zip(y, sign)]
    _, z = _scaled(y)
    for j, col in enumerate(columns):
        _, ints = _scaled([a for _, a in col])
        if sum(z[i] * n for (i, _), n in zip(col, ints)) > 0:
            raise ArithmeticError(f"Farkas check failed: y.A_{j} > 0")
    if sum(zi * n for zi, n in zip(z, _scaled(b)[1])) <= 0:
        raise ArithmeticError("Farkas check failed: y.b <= 0")
    return y
