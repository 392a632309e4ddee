"""Exact two-phase simplex over rationals: full tableau, largest reduced cost
with a Bland's-rule fallback.

The tableau is kept in integers.  Each row is a list of integer numerators
over one positive row denominator (the last list entry), with the gcd of
all of them divided out after every update, so row i stands for the
rationals ``num[j] / den``.  A pivot on entry ``p`` of row r turns every
other row into ``p * other - f * row`` over ``p * den_other``, which is the
rational update ``other - (f / p) * row`` with both denominators cleared.
The objective row is stored the same way.  Since all entries of a row share
its denominator, the entering rule compares objective numerators, and the
ratio test cross-multiplies numerators (the row denominators cancel).  The
rational tableau after each pivot is the one the plain rational algorithm
would hold, so pivots and answers do not depend on the representation;
``Fraction``s are made only from the LP input and for the ``LPResult``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .linalg import clear_denominators


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


def _reduced(row):
    """A numerator list ending in its denominator, sign-normalised so the
    denominator is positive and divided by the gcd of all entries."""
    if row[-1] < 0:
        row = [-v for v in row]
    g = gcd(*row)
    if g > 1:
        row = [v // g for v in row]
    return row


def _value(row, j):
    return Fraction(row[j], row[-1])


def _pivot(tableau, basis, r, e):
    row = tableau[r]
    tableau[r] = row = _reduced(row[:-1] + [row[e]])
    for i, other in enumerate(tableau):
        if i != r:
            tableau[i] = _eliminate(other, row, e)
    basis[r] = e


def _eliminate(other, row, e):
    """``other`` with column e cleared by the pivot row ``row``, whose
    entry e equals its denominator (the rational 1)."""
    f = other[e]
    if not f:
        return other
    p = row[-1]
    new = [p * a - f * b for a, b in zip(other, row)]
    new[-1] = other[-1] * p
    return _reduced(new)


def _run(tableau, basis, cost, n):
    """Pivot until optimal or unbounded; entering restricted to the first n
    (structural) columns.  Returns "optimal" or "unbounded" and the final
    objective row.

    Entering rule: largest reduced cost, falling back to Bland's rule for
    good once a long degenerate stall is detected (termination guarantee)."""
    stall = 0
    bland = False
    last = (cost[-2], cost[-1])
    while True:
        if bland:
            e = next((j for j in range(n) if cost[j] > 0), None)
        else:
            e = None
            best = 0
            for j in range(n):
                if cost[j] > best:
                    e, best = j, cost[j]
        if e is None:
            return "optimal", cost
        r = None
        for i, row in enumerate(tableau):
            a = row[e]
            if a > 0:
                if r is None:
                    r, num, den = i, row[-2], a
                    continue
                lhs, rhs = row[-2] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r, num, den = i, row[-2], a
        if r is None:
            return "unbounded", cost
        _pivot(tableau, basis, r, e)
        cost = _eliminate(cost, tableau[r], e)
        if not bland:
            if cost[-2] * last[1] == last[0] * cost[-1]:
                stall += 1
                if stall > 120:
                    bland = True
            else:
                stall = 0
                last = (cost[-2], cost[-1])


def _objective_row(tableau, basis, cost, width):
    """The reduced-cost row: cost with every basic column cleared by its
    row, as integers over one denominator."""
    obj = clear_denominators([*cost, *[0] * (width - len(cost)), 1])
    for row, e in zip(tableau, basis):
        obj = _eliminate(obj, row, e)
    return obj


def maximize(rows, rhs, objective):
    """Maximize objective . x subject to rows . x = rhs, x >= 0."""
    m = len(rows)
    n = len(objective)
    if any(len(r) != n for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")
    flipped = [Fraction(b) < 0 for b in rhs]
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        line = clear_denominators([*row, *(int(j == i) for j in range(m)), b, 1])
        if flipped[i]:
            # negate the row and its rhs, but not its artificial column
            line = [-v for v in line[:n]] + line[n:n + m] + [-line[-2], line[-1]]
        tableau.append(line)
    basis = [n + i for i in range(m)]
    width = n + m + 1

    phase1_cost = [Fraction(0)] * n + [Fraction(-1)] * m
    status, obj = _run(tableau, basis,
                       _objective_row(tableau, basis, phase1_cost, width), n)
    if status != "optimal":
        raise AssertionError(f"phase 1 ended {status}, not optimal")
    # every right-hand side is nonnegative here, so the phase-1 value
    # -sum(artificial rhs) is negative iff one of them is positive
    if any(tableau[i][-2] > 0 for i in range(m) if basis[i] >= n):
        farkas = [-(1 + _value(obj, n + i)) for i in range(m)]
        farkas = [-y if f else y for y, f in zip(farkas, flipped)]
        return LPResult("infeasible", dual=tuple(farkas))

    # drive artificials out of the basis where a structural pivot exists;
    # rows that stay artificial-basic are identically zero on structural
    # columns and inert from here on
    for i in range(m):
        if basis[i] >= n:
            e = next((j for j in range(n) if tableau[i][j] != 0), None)
            if e is not None:
                _pivot(tableau, basis, i, e)

    cost = [Fraction(v) for v in objective]
    status, obj = _run(tableau, basis,
                       _objective_row(tableau, basis, cost, width), n)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    z = Fraction(0)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = _value(tableau[i], -2)
            z += cost[bi] * x[bi]
    dual = [-_value(obj, n + i) for i in range(m)]
    dual = [-y if f else y for y, f in zip(dual, flipped)]
    return LPResult("optimal", x=tuple(x), objective=z, dual=tuple(dual))


def find_nonneg_solution(rows, rhs):
    """Some x >= 0 with rows . x = rhs, or a Farkas certificate.

    Returns an LPResult whose status is "optimal" (x set) or "infeasible"
    (dual set)."""
    n = len(rows[0]) if rows else 0
    return maximize(rows, rhs, [Fraction(0)] * n)
