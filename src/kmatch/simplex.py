"""Exact phase-1 simplex for LP feasibility, fraction-free on one integer
numpy tableau and warm-started from a float basis.

Equality constraints Ax = b with x >= 0 only. Rows with negative b are
negated first, and phase 1 starts from one artificial per row. The columns
arrive as integer CSC arrays, each scaled by the lcm of its own denominators,
and b is scaled by one lcm: no pivot choice changes.

1. Float guide. The same phase 1 in float64 on the unscaled coefficients
   (Dantzig pricing, min-ratio test, at most FLOAT_PIVOTS_PER_ROW pivots per
   row) on one dense tableau whose last row is the reduced costs and last
   column the basic values, so that a pivot is one update of the rows it
   changes, in column blocks of _BLOCK. Its only output is a basis.
2. Exact install. Each real column of that basis enters by an exact pivot,
   replacing an artificial that the float basis does not keep. The basis is
   kept only if every exact basic value is >= 0; else the solver restarts
   cold from the all-artificial basis. Install pivots count in `pivots`.
3. Exact finish. Revised simplex with Bland's rule (ascending variable order,
   every y.A_j priced at once) on one (m, m+1) integer tableau, D * B^-1 next
   to D * x_B over D = |det B|, in int64 or Python ints (`_tableau_dtype`).
   A pivot rewrites it fraction-free (Edmonds-Bareiss). From an optimal float
   basis it stops at once with a feasible point, or prices once and returns
   the phase-1 multipliers.
4. Exact checks, in Python ints: a feasible point (Ax = b, x >= 0), or the
   multipliers as a Farkas certificate (y.A_j <= 0 for every column, y.b > 0).
   An inexact division or a failed check is a bug and raises ArithmeticError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9
FLOAT_PIVOTS_PER_ROW = 20
_BLOCK = 4096  # columns per step of the guide's row update, which bounds its temporaries


@dataclass
class FeasibilityResult:
    feasible: bool
    solution: dict = field(default_factory=dict)   # column index -> value
    certificate: list = None                       # Farkas row multipliers when infeasible
    pivots: int = 0


def _float_basis(cols, rhs):
    """Phase-1 basis for the float CSC columns cols = (ptr, rows, vals), as a
    list of variables by row (artificials are ncols..ncols+m-1), or None. Only
    a guide: nothing it computes is used beyond the basis itself."""
    ptr, rows, vals = cols
    m, ncols = len(rhs), len(ptr) - 1
    w = ncols + m
    # B^-1 [A | I] over the reduced costs (1 on artificials minus the column sums)
    tab = np.zeros((m + 1, w + 1))
    tab[rows, np.repeat(np.arange(ncols), np.diff(ptr))] = vals
    tab[np.arange(m), np.arange(ncols, w)] = 1
    tab[:m, w] = rhs
    tab[m, :ncols] = -tab[:m, :ncols].sum(axis=0)
    cost, x, ratio, basis = tab[m, :w], tab[:m, w], np.empty(m), list(range(ncols, w))
    for _ in range(FLOAT_PIVOTS_PER_ROW * m):
        enter = int(np.argmin(cost))
        if cost[enter] >= -FLOAT_TOL:
            return basis
        col = tab[:m, enter]
        pos = col > FLOAT_TOL
        if not pos.any():
            return None
        ratio.fill(np.inf)
        leave = int(np.argmin(np.divide(x, col, out=ratio, where=pos)))
        tab[leave] /= tab[leave, enter]
        t = np.flatnonzero(tab[:, enter])  # the cost row too
        t = t[t != leave]
        f = tab[t, enter][:, None]
        for s in range(0, w + 1, _BLOCK):
            tab[t, s:s + _BLOCK] -= f * tab[leave, s:s + _BLOCK]
        basis[leave] = enter
    return None


def solve_equality_feasibility(csc, b) -> FeasibilityResult:
    """Find x >= 0 with Ax = b, A given as integer CSC arrays
    csc = (ptr, rows, vals, scale): column j holds vals[ptr[j]:ptr[j+1]] /
    scale[j] on rows rows[ptr[j]:ptr[j+1]]; b holds ints or Fractions.

    Returns an exact basic feasible point, or an exactly checked Farkas
    certificate y (y.A_j <= 0 for all j, y.b > 0) when none exists.
    """
    ptr, rows, vals, scale = csc
    m, ncols = len(b), len(ptr) - 1
    lb = math.lcm(*(v.denominator for v in b))
    rhs = [abs(v.numerator) * (lb // v.denominator) for v in b]
    sign = np.array([-1 if v < 0 else 1 for v in b], dtype=np.int64)
    fvals = np.asarray(vals / np.repeat(scale, np.diff(ptr)), dtype=float) * sign[rows]
    vals = (vals * sign[rows]).astype(_tableau_dtype((ptr, rows, vals), rhs))
    a = (ptr, rows, vals)

    # basis[i] is the variable basic in row i; artificials are ncols..ncols+m-1
    tab = np.zeros((m, m + 1), dtype=vals.dtype)
    basis, den, pivots = np.arange(ncols, ncols + m), 1, 0

    def cold_start():
        nonlocal den
        tab[:], basis[:], den = np.eye(m, m + 1, dtype=vals.dtype), np.arange(ncols, ncols + m), 1
        tab[:, m] = rhs

    def direction(var):  # D * B^-1 A_var of a real column
        at = slice(ptr[var], ptr[var + 1])
        return tab[:, rows[at]] @ vals[at]

    def pivot(var, d, leave):
        nonlocal den, pivots
        den = _pivot_rows(tab, d, leave, den)
        basis[leave] = var
        pivots += 1

    def install(guide):
        # a real column replaces an artificial the guide does not keep; d[t] != 0
        # keeps the exact basis nonsingular
        kept = np.zeros(m, dtype=bool)  # the rows whose artificial the guide keeps
        kept[[v - ncols for v in guide if v >= ncols]] = True
        for var in (v for v in guide if v < ncols):
            d = direction(var)
            open_ = np.flatnonzero((basis >= ncols) & ~kept & (d != 0))
            if not open_.size:
                return False  # singular float basis
            pivot(var, d, open_[0])
        return (tab[:, m] >= 0).all()

    cold_start()
    guide = _float_basis((ptr, rows, fvals), [v / lb for v in rhs])
    if guide is not None and not install(guide):
        cold_start()

    while True:
        art = basis >= ncols
        if not tab[art, m].any():
            break  # objective already zero
        # D * y, y = c_B B^-1 with phase-1 costs (1 on artificial basics),
        # and last D times the phase-1 objective
        y = tab[art].sum(axis=0)
        # Bland: the first real column with negative reduced cost -y.A_j,
        # else the first artificial i with 1 - y_i < 0
        enter = np.flatnonzero(np.concatenate([_dots(y, a) > 0, y[:m] > den]))
        if not enter.size:
            if y[m] > 0:
                _farkas(a, rhs, y[:m].tolist())
                cert = [Fraction(yi * s, den) for yi, s in zip(y[:m].tolist(), sign.tolist())]
                return FeasibilityResult(feasible=False, certificate=cert, pivots=pivots)
            break
        d = direction(enter[0]) if enter[0] < ncols else tab[:, enter[0] - ncols].copy()
        ds, xs, order = d.tolist(), tab[:, m].tolist(), basis.tolist()
        rows_in = [t for t in range(m) if ds[t] > 0]
        if not rows_in:
            # phase 1 cannot be unbounded below: the tableau is corrupt
            raise ArithmeticError("phase-1 ratio test failed on an improving column")
        # the least ratio x_t / d_t, ties to the least basic variable
        pivot(enter[0], d, min(rows_in, key=lambda t: (Fraction(xs[t], ds[t]), order[t])))

    # the point is checked exactly, as the certificate is: A x = b, x >= 0
    real, x, lhs = basis < ncols, np.zeros(ncols, dtype=object), np.zeros(m, dtype=object)
    x[basis[real]] = tab[real, m].tolist()
    owner = np.repeat(np.arange(ncols), np.diff(ptr))
    on = np.isin(owner, basis[real])  # the entries of basic columns; x is 0 elsewhere
    np.add.at(lhs, rows[on], vals[on] * x[owner[on]])
    if lhs.tolist() != [den * v for v in rhs] or (tab[:, m] < 0).any():
        raise ArithmeticError("the basic point fails A x = b, x >= 0")
    sol = {var: Fraction(xv * int(scale[var]), den * lb)
           for var, xv in zip(basis.tolist(), tab[:, m].tolist()) if var < ncols and xv != 0}
    return FeasibilityResult(feasible=True, solution=sol, pivots=pivots)


def _tableau_dtype(a, rhs):
    """int64 when 2*m*H^2 < 2^63 for the integer model (a, rhs), else object
    (Python ints). H^2 is the exact product of the m largest squared column
    norms of [A | b | I]; by Hadamard's bound every tableau and direction
    entry (a minor of that matrix) is at most H, a Bareiss p*a - f*q at most
    2*H^2, and a sum of m such entries times entries of A at most m*H^2."""
    m, sq = len(rhs), _dots(None, a)
    top = sorted(np.sort(sq)[::-1][:m].tolist() + [sum(v * v for v in rhs)], reverse=True)
    h2 = math.prod(max(v, 1) for v in top[:m])
    return np.int64 if 2 * m * h2 < 2**63 else object


def _dots(y, a):
    """y.A_j for every column j of the CSC matrix a = (ptr, rows, vals), or
    |A_j|^2 when y is None, in Python ints when a column's could reach 2^63."""
    ptr, rows, vals = a
    if y is None and int(np.abs(vals).max(initial=0)) ** 2 * int(np.diff(ptr).max(initial=0)) >> 63:
        vals = vals.astype(object)
    # reduceat reads one entry, not 0, for an empty column: a trailing 0 keeps
    # that read in range and the mask zeroes it
    terms = np.append(vals * (vals if y is None else y[rows]), 0)
    return np.add.reduceat(terms, ptr[:-1]) * (ptr[:-1] < ptr[1:])


def _pivot_rows(tab, d, leave, den):
    """Fraction-free (Edmonds-Bareiss) pivot on p = d[leave] of the rows of tab
    and the entering column d, all over den, in place: each other row a becomes
    (p * a - d_t * tab[leave]) / den, so a row with d_t == 0 and p == den is
    unchanged. Returns |p|; an inexact division raises ArithmeticError."""
    p, prow = int(d[leave]), tab[leave].copy()
    new = p * tab - d[:, None] * prow
    np.floor_divide(new, den, out=tab)
    if (tab * den != new).any():
        raise ArithmeticError("inexact fraction-free division")
    tab[leave] = prow
    if p < 0:
        tab *= -1
    return abs(p)


def _farkas(a, rhs, y):
    """Check in Python ints that the multipliers y, a list of ints, are a
    Farkas certificate for the integer model A x = rhs, A the CSC matrix
    a = (ptr, rows, vals): y.A_j <= 0 for all j, y.rhs > 0."""
    bad = np.flatnonzero(_dots(np.array(y, dtype=object), a) > 0)
    if bad.size:
        raise ArithmeticError(f"Farkas check failed: y.A_{bad[0]} > 0")
    if sum(v * r for v, r in zip(y, rhs)) <= 0:
        raise ArithmeticError("Farkas check failed: y.b <= 0")
