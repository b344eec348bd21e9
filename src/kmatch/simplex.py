"""Exact rational phase-1 simplex for LP feasibility, warm-started from a
float basis.

Equality constraints Ax = b with x >= 0 only; that is all the
fractional-matching models need. Rows with negative b are negated first, and
phase 1 starts from one artificial per row.

1. Float guide. The same phase 1 runs in float64 on a dense numpy tableau
   (Dantzig pricing, min-ratio test, at most FLOAT_PIVOTS_PER_ROW pivots per
   row). Its only output is a basis: which column is basic in which row.
2. Exact install. Each real column of that basis enters by an exact pivot,
   replacing an artificial that the float basis does not keep. The basis is
   kept only if every exact basic value is >= 0; on a float failure, a
   singular column or a negative value the solver restarts cold from the
   all-artificial basis. Install pivots count in `pivots`.
3. Exact finish. Revised simplex over Fractions with an explicit basis
   inverse and Bland's rule (ascending variable order). From an optimal float
   basis it stops at once with a feasible point, or prices once and returns
   the phase-1 multipliers. Float values never reach an answer.
4. Farkas check. The multipliers of an infeasible model are mapped back to
   the original row signs and checked exactly (y.A_j <= 0 for every column,
   y.b > 0) before they are returned as the certificate; a failed check is a
   bug and raises ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)
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
    """Find x >= 0 with Ax = b, columns given sparsely as [(row, coef), ...].

    Returns an exact basic feasible point, or an exactly checked Farkas
    certificate y (y.A_j <= 0 for all j, y.b > 0) when none exists.
    """
    m = len(b)
    ncols = len(columns)
    sign = [ONE] * m
    rhs = []
    for i, bi in enumerate(b):
        bi = Fraction(bi)
        if bi < 0:
            sign[i] = -ONE
            bi = -bi
        rhs.append(bi)
    cols = []
    for col in columns:
        cols.append(tuple((i, Fraction(a) * sign[i]) for i, a in col if a != 0))

    # basis[i] is the variable basic in row i; artificials are ncols..ncols+m-1;
    # artificial[i] says whether basis[i] is one
    basis, binv, xb, artificial = [], [], [], []
    pivots = 0

    def cold_start():
        basis[:] = [ncols + i for i in range(m)]
        binv[:] = [[ONE if t == i else ZERO for t in range(m)] for i in range(m)]
        xb[:] = rhs
        artificial[:] = [True] * m

    def col_of(var):
        if var >= ncols:
            return ((var - ncols, ONE),)
        return cols[var]

    def direction(enter_col):
        # d = B^-1 A_enter
        d = [ZERO] * m
        for i, a in enter_col:
            for t in range(m):
                if binv[t][i] != 0:
                    d[t] += binv[t][i] * a
        return d

    def pivot(enter_var, d, leave):
        nonlocal pivots
        piv = d[leave]
        binv[leave] = [a / piv for a in binv[leave]]
        xb[leave] /= piv
        for t in range(m):
            if t != leave and d[t] != 0:
                f = d[t]
                binv[t] = [a - f * p for a, p in zip(binv[t], binv[leave])]
                xb[t] -= f * xb[leave]
        basis[leave] = enter_var
        artificial[leave] = enter_var >= ncols
        pivots += 1

    def multipliers():
        # y = c_B B^-1 with phase-1 costs (1 on artificial basics)
        y = [ZERO] * m
        for t in range(m):
            if artificial[t]:
                row = binv[t]
                for i in range(m):
                    if row[i] != 0:
                        y[i] += row[i]
        return y

    def install(guide):
        # each real column replaces an artificial the guide does not keep;
        # d[t] != 0 keeps the exact basis nonsingular
        kept = set(guide)
        for var in guide:
            if var < ncols:
                d = direction(cols[var])
                leave = next(
                    (t for t in range(m) if artificial[t] and basis[t] not in kept and d[t] != 0),
                    None,
                )
                if leave is None:
                    return False  # singular float basis
                pivot(var, d, leave)
        return all(v >= 0 for v in xb)

    cold_start()
    guide = _float_basis(cols, rhs)
    if guide is not None and not install(guide):
        cold_start()

    while True:
        if all((not artificial[t]) or xb[t] == 0 for t in range(m)):
            break  # objective already zero
        y = multipliers()
        enter = None
        for j in range(ncols):
            red = -sum(y[i] * a for i, a in cols[j])
            if red < 0:
                enter = j
                break
        if enter is None:
            # no improving real column; artificial columns cannot improve
            # (their reduced cost is 1 - y_i >= 0 at phase-1 optimum over them)
            improving_artificial = None
            for i in range(m):
                if ONE - y[i] < 0:
                    improving_artificial = i
                    break
            if improving_artificial is None:
                obj = sum(xb[t] for t in range(m) if artificial[t])
                if obj > 0:
                    return FeasibilityResult(
                        feasible=False, certificate=_farkas(columns, b, y, sign), pivots=pivots
                    )
                return _extract(basis, xb, ncols, pivots)
            enter = ncols + improving_artificial
        d = direction(col_of(enter))
        leave = None
        best = None
        for t in range(m):
            if d[t] > 0:
                ratio = xb[t] / d[t]
                if best is None or ratio < best or (ratio == best and basis[t] < basis[leave]):
                    best = ratio
                    leave = t
        if leave is None:
            # entering column nonpositive in all rows: phase-1 unbounded below
            # is impossible; treat as numerical-logic error
            raise ArithmeticError("phase-1 ratio test failed on an improving column")
        pivot(enter, d, leave)

    return _extract(basis, xb, ncols, pivots)


def _farkas(columns, b, y, sign) -> list:
    """Phase-1 multipliers in the original row signs, checked exactly as a
    Farkas certificate: y.A_j <= 0 for every column and y.b > 0."""
    y = [yi * s for yi, s in zip(y, sign)]
    for j, col in enumerate(columns):
        if sum((y[i] * Fraction(a) for i, a in col), ZERO) > 0:
            raise ArithmeticError(f"Farkas check failed: y.A_{j} > 0")
    if sum((yi * Fraction(bi) for yi, bi in zip(y, b)), ZERO) <= 0:
        raise ArithmeticError("Farkas check failed: y.b <= 0")
    return y


def _extract(basis, xb, ncols, pivots) -> FeasibilityResult:
    sol = {}
    for var, val in zip(basis, xb):
        if var < ncols and val != 0:
            sol[var] = val
    return FeasibilityResult(feasible=True, solution=sol, pivots=pivots)
