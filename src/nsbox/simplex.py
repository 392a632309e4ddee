"""Exact two-phase simplex over rationals: full tableau, largest reduced cost
with a Bland's-rule fallback.

The tableau is one 2-D numpy integer array: the m constraint rows, then the
objective row.  Columns are the n structural variables, the m artificial
ones, the right-hand side and, last, the row's denominator: each row is a
list of integer numerators over its own positive denominator, with the gcd
of all of them divided out after every update, so row i stands for the
rationals ``T[i, j] / T[i, -1]``.  A pivot on entry ``p`` of row r turns
every row with a nonzero entry in the pivot column, the objective row
included, into ``p * other - f * row`` over ``p * den_other`` at once,
which is the rational update ``other - (f / p) * row`` with both
denominators cleared.  Since all entries of a row share its denominator,
the entering rule compares objective numerators, and the ratio test
cross-multiplies numerators (the row denominators cancel).  A rational
vector has exactly one such primitive form, so the tableau after each
pivot is the one the plain rational algorithm would hold, and pivots and
answers do not depend on the representation; ``Fraction``s are made only
from the LP input and for the ``LPResult``.

The array is int64 only while a bound proves that a pivot cannot overflow:
with M the largest |entry| of the whole array, every product of a pivot is
at most M² and every difference at most 2·M², so the check 2·M² < 2⁶² runs
before each pivot.  Once it fails, the same values go on as an ``object``
array of Python ints for the rest of the solve; the code path is the same
for both dtypes.  The ratio test and the stall check compare Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .linalg import _int_products, _max_abs, _rational, clear_denominators


@dataclass(frozen=True)
class LPResult:
    """status is one of "optimal", "infeasible", "unbounded".

    For "optimal": x, objective and a dual vector y with y.A >= c
    componentwise on the columns and y.b = objective.  For "infeasible":
    dual is a Farkas certificate, y.A >= 0 and y.b < 0.
    """

    status: str
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    dual: tuple[Fraction, ...] | None = None


def _fits(bound):
    """Whether integers of magnitude at most ``bound`` may be pivoted in
    int64: products are at most bound², differences 2·bound²."""
    return 2 * bound * bound < 2 ** 62


def _value(row, j):
    return Fraction(int(row[j]), int(row[-1]))


def _pivot(T, basis, r, e):
    """Pivot on row r, column e; returns the tableau, as Python ints once
    int64 is no longer proven safe."""
    if T.dtype != object and not _fits(_max_abs(T)):
        T = T.astype(object)
    row = T[r].copy()
    row[-1] = row[e]
    if row[-1] < 0:
        row = -row
    row //= np.gcd.reduce(row)
    T[r] = row
    rows = np.flatnonzero(T[:, e])
    rows = rows[rows != r]
    if len(rows):
        other = T[rows]
        p = row[-1]
        new = p * other - other[:, e, None] * row
        new[:, -1] = other[:, -1] * p
        new //= np.gcd.reduce(new, axis=1)[:, None]
        T[rows] = new
    basis[r] = e
    return T


def _run(T, basis, n):
    """Pivot until optimal or unbounded; entering restricted to the first n
    (structural) columns, the objective row being the last row of T.
    Returns "optimal" or "unbounded" and the final tableau.

    Entering rule: largest reduced cost, the first column on ties, falling
    back to Bland's rule for good once a long degenerate stall is detected
    (termination guarantee).  Leaving rule: least ratio, the least basic
    column on ties."""
    stall = 0
    bland = False
    last = (int(T[-1, -2]), int(T[-1, -1]))
    while True:
        cost = T[-1, :n]
        positive = np.flatnonzero(cost > 0)
        if not len(positive):
            return "optimal", T
        e = int(positive[0] if bland else np.argmax(cost))
        candidates = np.flatnonzero(T[:-1, e] > 0).tolist()
        if not candidates:
            return "unbounded", T
        r = None
        for i, a, b in zip(candidates, T[candidates, e].tolist(),
                           T[candidates, -2].tolist()):
            if r is None:
                r, num, den = i, b, a
                continue
            lhs, rhs = b * den, num * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                r, num, den = i, b, a
        T = _pivot(T, basis, r, e)
        if not bland:
            value = (int(T[-1, -2]), int(T[-1, -1]))
            if value[0] * last[1] == last[0] * value[1]:
                stall += 1
                if stall > 120:
                    bland = True
            else:
                stall = 0
                last = value


def _with_objective(T, basis, cost):
    """T with its last row set to the reduced-cost row of ``cost`` (one
    rational per structural or artificial column): cost less each basic
    row times the cost of its basic column, over one denominator."""
    *c, k = clear_denominators([*cost, 1])
    used = [i for i, b in enumerate(basis) if b < len(c) and c[b]]
    dens = T[used, -1].tolist()
    den = lcm(*dens)
    weights = [c[basis[i]] * (den // d) for i, d in zip(used, dens)]
    obj = np.zeros(T.shape[1], dtype=object)
    obj[:len(c)] = [v * den for v in c]
    if used:
        obj[:-1] -= _int_products([weights], T[used, :-1].T)[0].astype(object)
    obj[-1] = k * den
    obj //= np.gcd.reduce(obj)
    if T.dtype != object and not _fits(_max_abs(obj)):
        T = T.astype(object)
    T[-1] = obj
    return T


def _tableau(a, b, den, dtype):
    """The starting tableau for the lines [a[i] | b[i]] over den[i]: row i
    is [a[i] | den[i]·e_i | b[i] | den[i]], with a[i] and b[i] negated when
    b[i] < 0; the objective row is left zero."""
    m, n = a.shape
    sign = np.array([-1 if v < 0 else 1 for v in b], dtype=dtype)[:, None]
    T = np.zeros((m + 1, n + m + 2), dtype=dtype)
    T[:m, :n] = a * sign
    T[np.arange(m), n + np.arange(m)] = den
    T[:m, -2] = np.array(b, dtype=dtype) * sign[:, 0]
    T[:m, -1] = den
    return T


def _integer_tableau(rows, rhs):
    """The tableau of an integer array of rows: row i is scaled by the
    denominator of rhs[i] only, which leaves the line primitive."""
    rhs = [b if isinstance(b, (int, Fraction)) else _rational(b) for b in rhs]
    num = [b.numerator for b in rhs]
    den = [b.denominator for b in rhs]
    bound = max([0, *den, *map(abs, num)])
    if rows.size:
        bound = max(bound, _max_abs(rows) * max(den))
    dtype = np.int64 if _fits(bound) else object
    scale = np.array(den, dtype=dtype)[:, None]
    return _tableau(rows.astype(dtype) * scale, num, den, dtype)


def _rational_tableau(rows, rhs, n):
    """The tableau of n-wide rows of rationals, each line [row | rhs]
    scaled to coprime integers."""
    lines = [clear_denominators([*row, b, 1]) for row, b in zip(rows, rhs)]
    bound = max((max(max(v), -min(v)) for v in lines), default=0)
    dtype = np.int64 if _fits(bound) else object
    a = np.array([v[:-2] for v in lines], dtype=dtype).reshape(len(lines), n)
    return _tableau(a, [v[-2] for v in lines], [v[-1] for v in lines], dtype)


def maximize(rows, rhs, objective):
    """Maximize objective . x subject to rows . x = rhs, x >= 0.

    ``rows`` is a sequence of rows of rationals (ints, ``Fraction``s or
    anything ``Fraction`` accepts) or a 2-D numpy integer array, which is
    scaled by the right-hand side denominators only; other arrays are read
    as rows of rationals.  ``rhs`` and ``objective`` are rationals."""
    m = len(rows)
    n = len(objective)
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        if rows.shape != (m, n) or len(rhs) != m:
            raise ValueError("inconsistent LP dimensions")
        T = _integer_tableau(rows, rhs)
    else:
        if any(len(r) != n for r in rows) or len(rhs) != m:
            raise ValueError("inconsistent LP dimensions")
        T = _rational_tableau(rows, rhs, n)
    flipped = [Fraction(b) < 0 for b in rhs]
    basis = [n + i for i in range(m)]

    phase1_cost = [0] * n + [-1] * m
    status, T = _run(_with_objective(T, basis, phase1_cost), basis, n)
    if status != "optimal":
        raise AssertionError(f"phase 1 ended {status}, not optimal")
    # every right-hand side is nonnegative here, so the phase-1 value
    # -sum(artificial rhs) is negative iff one of them is positive
    if any(T[i, -2] > 0 for i in range(m) if basis[i] >= n):
        farkas = [-(1 + _value(T[-1], n + i)) for i in range(m)]
        farkas = [-y if f else y for y, f in zip(farkas, flipped)]
        return LPResult("infeasible", dual=tuple(farkas))

    # drive artificials out of the basis where a structural pivot exists;
    # rows that stay artificial-basic are identically zero on structural
    # columns and inert from here on
    for i in range(m):
        if basis[i] >= n:
            nonzero = np.flatnonzero(T[i, :n])
            if len(nonzero):
                T = _pivot(T, basis, i, int(nonzero[0]))

    cost = [Fraction(v) for v in objective]
    status, T = _run(_with_objective(T, basis, cost), basis, n)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    z = Fraction(0)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = _value(T[i], -2)
            z += cost[bi] * x[bi]
    dual = [-_value(T[-1], n + i) for i in range(m)]
    dual = [-y if f else y for y, f in zip(dual, flipped)]
    return LPResult("optimal", x=tuple(x), objective=z, dual=tuple(dual))


def find_nonneg_solution(rows, rhs):
    """Some x >= 0 with rows . x = rhs, or a Farkas certificate.

    ``rows`` is as for ``maximize``.  Returns an LPResult whose status is
    "optimal" (x set) or "infeasible" (dual set)."""
    if isinstance(rows, np.ndarray):
        n = rows.shape[1]
    else:
        n = len(rows[0]) if rows else 0
    return maximize(rows, rhs, [0] * n)
