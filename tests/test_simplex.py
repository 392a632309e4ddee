import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from nsbox import simplex
from nsbox.linalg import clear_denominators
from nsbox.simplex import LPResult, find_nonneg_solution, maximize


def _column_dot(dual, rows, j):
    return sum(y * row[j] for y, row in zip(dual, rows))


def test_basic_optimum():
    res = maximize([[1, 2]], [4], [1, 1])
    assert res.status == "optimal"
    assert res.objective == 4
    assert res.x == (4, 0)


def test_optimal_dual_certifies_the_bound():
    rows = [[1, 2, 1], [3, 1, 0]]
    rhs = [5, 6]
    obj = [2, 3, 1]
    res = maximize(rows, rhs, obj)
    assert res.status == "optimal"
    assert sum(y * b for y, b in zip(res.dual, rhs)) == res.objective
    for j, c in enumerate(obj):
        assert _column_dot(res.dual, rows, j) >= c


def test_unbounded_direction_is_detected():
    res = maximize([[0, 1]], [1], [1, 0])
    assert res.status == "unbounded"
    assert res.x is None


def test_infeasible_farkas_certificate():
    res = maximize([[1, 1], [1, 1]], [1, 2], [0, 0])
    assert res.status == "infeasible"
    rows = [[1, 1], [1, 1]]
    for j in range(2):
        assert _column_dot(res.dual, rows, j) >= 0
    assert sum(y * b for y, b in zip(res.dual, [1, 2])) < 0


def test_negative_rhs_rows_are_handled():
    res = maximize([[-1, 0], [0, 1]], [-3, 2], [1, 1])
    assert res.status == "optimal"
    assert res.x == (3, 2)
    assert res.objective == 5


def test_dimension_mismatch_is_an_error():
    with pytest.raises(ValueError):
        maximize([[1, 2, 3]], [1], [1, 1])


def test_find_nonneg_solution_feasible():
    res = find_nonneg_solution([[1, 1, 0], [0, 1, 1]], [2, 3])
    assert res.status == "optimal"
    assert all(v >= 0 for v in res.x)
    assert res.x[0] + res.x[1] == 2
    assert res.x[1] + res.x[2] == 3


def test_find_nonneg_solution_infeasible():
    rows = [[1, 0], [1, 0]]
    res = find_nonneg_solution(rows, [1, 2])
    assert res.status == "infeasible"
    for j in range(2):
        assert _column_dot(res.dual, rows, j) >= 0
    assert sum(y * b for y, b in zip(res.dual, [1, 2])) < 0


def test_random_lps_satisfy_duality():
    rng = random.Random(17)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(60):
        m = rng.randint(2, 4)
        n = rng.randint(3, 6)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(m)]
        rhs = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        obj = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        res = maximize(rows, rhs, obj)
        seen[res.status] += 1
        if res.status == "optimal":
            assert all(v >= 0 for v in res.x)
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, res.x)) == b
            assert sum(c * v for c, v in zip(obj, res.x)) == res.objective
            assert sum(y * b for y, b in zip(res.dual, rhs)) == res.objective
            for j, c in enumerate(obj):
                assert _column_dot(res.dual, rows, j) >= c
        elif res.status == "infeasible":
            for j in range(n):
                assert _column_dot(res.dual, rows, j) >= 0
            assert sum(y * b for y, b in zip(res.dual, rhs)) < 0
    assert all(seen.values()), seen


# ------------------------------------------------ differential: Fraction tableau

def _reference_pivot(tableau, basis, r, e):
    row = tableau[r]
    inv = 1 / row[e]
    tableau[r] = row = [v * inv for v in row]
    for i, other in enumerate(tableau):
        if i == r:
            continue
        f = other[e]
        if f:
            tableau[i] = [a - f * b for a, b in zip(other, row)]
    basis[r] = e


def _reference_run(tableau, basis, obj, n):
    """The rational simplex loop; returns (status, whether Bland's rule was
    switched on)."""
    stall = 0
    bland = False
    last = obj[-1]
    while True:
        if bland:
            e = next((j for j in range(n) if obj[j] > 0), None)
        else:
            e = None
            for j in range(n):
                if obj[j] > 0 and (e is None or obj[j] > obj[e]):
                    e = j
        if e is None:
            return "optimal", bland
        r = None
        best = None
        for i, row in enumerate(tableau):
            if row[e] > 0:
                ratio = row[-1] / row[e]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                    best, r = ratio, i
        if r is None:
            return "unbounded", bland
        _reference_pivot(tableau, basis, r, e)
        f = obj[e]
        if f:
            row = tableau[r]
            for j in range(len(obj)):
                obj[j] -= f * row[j]
        if not bland:
            if obj[-1] == last:
                stall += 1
                if stall > 120:
                    bland = True
            else:
                stall = 0
                last = obj[-1]


def _reference_objective_row(tableau, basis, cost, width):
    obj = list(cost) + [Fraction(0)] * (width - len(cost))
    for i, row in enumerate(tableau):
        cb = cost[basis[i]] if basis[i] < len(cost) else Fraction(0)
        if cb:
            for j in range(width):
                obj[j] -= cb * row[j]
    return obj


def _reference_maximize(rows, rhs, objective):
    """The dense Fraction-tableau simplex the integer tableau replaces."""
    m = len(rows)
    n = len(objective)
    flipped = [Fraction(b) < 0 for b in rhs]
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        sign = -1 if flipped[i] else 1
        line = [sign * Fraction(v) for v in row]
        line += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        line.append(sign * Fraction(b))
        tableau.append(line)
    basis = [n + i for i in range(m)]
    width = n + m + 1
    phase1_cost = [Fraction(0)] * n + [Fraction(-1)] * m
    obj = _reference_objective_row(tableau, basis, phase1_cost, width)
    status, _ = _reference_run(tableau, basis, obj, n)
    assert status == "optimal"
    value = -sum(tableau[i][-1] for i in range(m) if basis[i] >= n)
    if value < 0:
        farkas = [-(1 + obj[n + i]) for i in range(m)]
        farkas = [-y if f else y for y, f in zip(farkas, flipped)]
        return LPResult("infeasible", dual=tuple(farkas))
    for i in range(m):
        if basis[i] >= n:
            e = next((j for j in range(n) if tableau[i][j] != 0), None)
            if e is not None:
                _reference_pivot(tableau, basis, i, e)
    cost = [Fraction(v) for v in objective]
    obj = _reference_objective_row(tableau, basis, cost, width)
    status, _ = _reference_run(tableau, basis, obj, n)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    z = Fraction(0)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tableau[i][-1]
            z += cost[bi] * tableau[i][-1]
    dual = [-obj[n + i] for i in range(m)]
    dual = [-y if f else y for y, f in zip(dual, flipped)]
    return LPResult("optimal", x=tuple(x), objective=z, dual=tuple(dual))


def _random_lp(rng, fractional, degenerate):
    m = rng.randint(2, 6)
    n = rng.randint(2, 9)

    def entry(lo, hi):
        v = Fraction(rng.randint(lo, hi))
        if fractional and rng.random() < 0.5:
            v /= rng.randint(2, 7)
        return v
    rows = [[entry(-4, 4) for _ in range(n)] for _ in range(m)]
    if degenerate:
        # repeated rows and mostly zero right-hand sides
        rows[-1] = list(rows[0])
        rhs = [entry(-3, 3) if rng.random() < 0.3 else Fraction(0)
               for _ in range(m)]
        rhs[-1] = rhs[0]
    else:
        rhs = [entry(-5, 5) for _ in range(m)]
    obj = [entry(-3, 3) for _ in range(n)]
    return rows, rhs, obj


def _recording_pivots(monkeypatch):
    """Patch simplex._pivot to log, per pivot, (dtype in, dtype out, whether
    the pivot row was put over a denominator of 1): the branch that keeps
    the other rows' denominators."""
    log = []
    pivot = simplex._pivot

    def recording(T, basis, r, e):
        before = T.dtype
        T = pivot(T, basis, r, e)
        log.append((before, T.dtype, T[r, -1] == 1))
        return T
    monkeypatch.setattr(simplex, "_pivot", recording)
    return log


def _assert_phase1_answers_as_find_nonneg_solution(rows, rhs, n):
    """Phase 1 alone gives find_nonneg_solution's x, or its certificate as
    int numerators that, over the objective row's denominator, are the
    Fraction reference's certificate."""
    lp = simplex._Phase1(rows, rhs, n)
    got = lp.solve()
    want = find_nonneg_solution(rows, rhs)
    if want.status == "optimal":
        assert got == LPResult("optimal", x=want.x)
    else:
        assert got.status == "infeasible" and {type(y) for y in got.dual} == {int}
        rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
        ref = _reference_maximize(rows, rhs, [0] * n)
        den = int(lp.T[-1, -1])
        assert tuple(Fraction(y, den) for y in got.dual) == ref.dual == want.dual


@pytest.mark.parametrize("fractional,degenerate",
                         [(False, False), (True, False), (False, True),
                          (True, True)])
def test_integer_tableau_matches_the_fraction_tableau(monkeypatch, fractional, degenerate):
    log = _recording_pivots(monkeypatch)
    rng = random.Random(f"lp/{fractional}/{degenerate}")
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(150):
        rows, rhs, obj = _random_lp(rng, fractional, degenerate)
        want = _reference_maximize(rows, rhs, obj)
        assert maximize(rows, rhs, obj) == want
        assert find_nonneg_solution(rows, rhs) == _reference_maximize(
            rows, rhs, [0] * len(obj))
        _assert_phase1_answers_as_find_nonneg_solution(rows, rhs, len(obj))
        seen[want.status] += 1
    assert all(seen.values()), seen
    # both pivot branches ran in int64
    assert {unit for _, dtype, unit in log if dtype == np.int64} == {True, False}


def test_integer_tableau_matches_on_the_locality_lps():
    from nsbox.families import pr, uniform
    from nsbox.locality import enumerate_local_strategies
    tables = [s.box().table for s in enumerate_local_strategies(pr().shape)]
    rows = [[t[i] for t in tables] for i in range(len(tables[0]))]
    for box in (pr(), uniform(pr().shape)):
        target = list(box.table)
        assert find_nonneg_solution(rows, target) == _reference_maximize(
            rows, target, [0] * len(tables))


def _beale_tableau():
    """Beale's cycling example on its slack basis: the Fraction tableau
    rows (slacks last, rhs at the end) and the objective row."""
    a = [[Fraction(1, 4), -8, -1, 9], [Fraction(1, 2), -12, Fraction(-1, 2), 3],
         [0, 0, 1, 0]]
    b = [0, 0, 1]
    cost = [Fraction(3, 4), -20, Fraction(1, 2), -6, 0, 0, 0]
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(3)]
            + [Fraction(b[i])] for i, row in enumerate(a)]
    obj = [Fraction(v) for v in cost] + [Fraction(0)]
    return rows, obj


def test_cycling_example_reaches_the_bland_fallback_in_both():
    rows, obj = _beale_tableau()
    tableau = np.array([clear_denominators([*r, 1]) for r in [*rows, obj]])
    basis, int_basis = [4, 5, 6], [4, 5, 6]
    assert _reference_run(rows, basis, obj, 7) == ("optimal", True)
    # without the fallback the integer loop would cycle here for good
    status, tableau = simplex._run(tableau, int_basis, 7)
    assert status == "optimal"
    assert int_basis == basis
    for row, int_row in zip(rows, tableau[:-1]):
        assert [simplex._value(int_row, j) for j in range(len(row))] == row
    assert [simplex._value(tableau[-1], j) for j in range(len(obj))] == obj


def _check_phase1_answer(res, rows, rhs):
    """A Farkas certificate or a solution x >= 0 of rows . x = rhs."""
    if res.status == "infeasible":
        for j in range(len(rows[0])):
            assert _column_dot(res.dual, rows, j) >= 0
        assert sum(y * b for y, b in zip(res.dual, rhs)) < 0
    else:
        assert res.status == "optimal" and all(v >= 0 for v in res.x)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, res.x)) == b


@pytest.mark.parametrize("big", [4, 2 ** 40])
def test_appended_columns_match_a_cold_solve(big):
    """Columns appended in chunks, with a solve after each: every answer
    holds on the columns so far and has the cold solve's status, also with
    negative and fractional right-hand sides and past the int64 guard."""
    rng = random.Random(f"lp/append/{big}")
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(60):
        m, n = rng.randint(2, 6), rng.randint(3, 12)
        rows = np.array([[rng.randint(-big, big) for _ in range(n)] for _ in range(m)])
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)]
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
        first = cuts[0] if cuts else n
        lp = simplex._Phase1(rows[:, :first], rhs, first)
        for lo, hi in zip(cuts, [*cuts[1:], n]):
            res = lp.solve()
            assert res.status == find_nonneg_solution(rows[:, :lo], rhs).status
            _check_phase1_answer(res, rows[:, :lo].tolist(), rhs)
            lp.add_columns(rows[:, lo:hi])
        res = lp.solve()
        assert res.status == find_nonneg_solution(rows, rhs).status
        _check_phase1_answer(res, rows.tolist(), rhs)
        seen[res.status] += 1
    assert all(seen.values()), seen


# ------------------------------------------------ the int64 guard

def _wide_lp(rng):
    """An LP with entries near 2**28: the phase-1 objective row, a sum of
    at most five of them, stays under 2**30.5, so the first pivot fits
    int64, and its products (near 2**57) no longer pass the guard."""
    m = rng.randint(2, 5)
    n = rng.randint(3, 7)
    big = 2 ** 28

    def entry():
        return rng.choice((-1, 1)) * rng.randint(big // 2, big - 1)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    obj = [rng.randint(-3, 3) for _ in range(n)]
    return rows, rhs, obj


def test_guard_switch_keeps_the_rational_answers():
    rng = random.Random("lp/wide")
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(40):
        rows, rhs, obj = _wide_lp(rng)
        want = _reference_maximize(rows, rhs, obj)
        assert maximize(rows, rhs, obj) == want
        assert maximize(np.array(rows), rhs, obj) == want
        _assert_phase1_answers_as_find_nonneg_solution(np.array(rows), rhs, len(obj))
        seen[want.status] += 1
    assert seen["optimal"] and seen["infeasible"], seen


def test_both_pivot_branches_keep_the_rational_answers_past_the_guard(monkeypatch):
    """Entries in -1..2 with right-hand sides up to 2**40: the tableau is
    Python ints from the start, and both pivot branches run on it."""
    log = _recording_pivots(monkeypatch)
    rng = random.Random("lp/big-rhs")
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(40):
        m, n = rng.randint(2, 5), rng.randint(3, 7)
        rows = [[rng.randint(-1, 2) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-2 ** 40, 2 ** 40) for _ in range(m)]
        obj = [rng.randint(-3, 3) for _ in range(n)]
        want = _reference_maximize(rows, rhs, obj)
        assert maximize(np.array(rows), rhs, obj) == want
        _assert_phase1_answers_as_find_nonneg_solution(np.array(rows), rhs, n)
        seen[want.status] += 1
    assert all(seen.values()), seen
    assert {dtype for _, dtype, _ in log} == {np.dtype(object)}
    assert {unit for *_, unit in log} == {True, False}


def test_guard_switches_to_python_ints_part_way(monkeypatch):
    log = _recording_pivots(monkeypatch)
    rng = random.Random("lp/wide")
    switched = 0
    for _ in range(40):
        rows, rhs, obj = _wide_lp(rng)
        log.clear()
        maximize(np.array(rows), rhs, obj)
        if log and log[0][0] == np.int64 and log[-1][1] == object:
            switched += 1
    assert switched >= 10
    # small entries never leave int64
    log.clear()
    maximize(np.array([[1, 2, 1], [3, 1, 0]]), [5, 6], [2, 3, 1])
    assert log and all(d == np.int64 for *dtypes, _ in log for d in dtypes)


def test_both_builds_give_the_same_primitive_lines():
    rng = random.Random("lp/build")
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        big = rng.choice((5, 2 ** 40, 2 ** 70))
        rows = [[rng.randint(-big, big) for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m)]
        via_list, sign = simplex._rational_tableau(rows, rhs, n)
        via_array, array_sign = simplex._integer_tableau(np.array(rows), rhs)
        assert via_list.dtype == via_array.dtype
        assert via_list.tolist() == via_array.tolist()
        assert sign.tolist() == array_sign.tolist() == [-1 if b < 0 else 1 for b in rhs]
        for line in via_list[:-1].tolist():
            assert line[-1] > 0 and gcd(*line) == 1
        assert maximize(np.array(rows), rhs, [1] * n) == _reference_maximize(
            rows, rhs, [1] * n)


def _locality_rounds(monkeypatch, query, box):
    """The column-generation rounds of ``query(box)``: per round, the LP it
    solved on its active columns as (rows, rhs) and the resumed result."""
    rounds = []
    cls = simplex._Phase1
    init, add_columns, solve = cls.__init__, cls.add_columns, cls.solve

    def recording_init(self, rows, rhs, n):
        init(self, rows, rhs, n)
        self.recorded = (rows, list(rhs))

    def recording_add_columns(self, cols):
        add_columns(self, cols)
        rows, rhs = self.recorded
        self.recorded = (np.concatenate([rows, cols], axis=1), rhs)

    def recording_solve(self):
        res = solve(self)
        rounds.append((*self.recorded, res))
        return res
    monkeypatch.setattr(cls, "__init__", recording_init)
    monkeypatch.setattr(cls, "add_columns", recording_add_columns)
    monkeypatch.setattr(cls, "solve", recording_solve)
    query(box)
    monkeypatch.undo()
    return rounds


def _rounds_of(monkeypatch, name):
    """The rounds of is_local(pr()), or of is_two_way_local on a named
    tripartite box."""
    from nsbox import families
    from nsbox.locality import is_local, is_two_way_local
    query = is_local if name == "pr" else is_two_way_local
    return _locality_rounds(monkeypatch, query, getattr(families, name)())


@pytest.mark.parametrize("name", ["pr", "xyplusz", "svetlichny_box"])
def test_integer_array_rows_match_list_rows(monkeypatch, name):
    rounds = _rounds_of(monkeypatch, name)
    assert rounds
    for rows, rhs, _ in rounds:
        assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
        assert find_nonneg_solution(rows, rhs) == find_nonneg_solution(
            rows.tolist(), rhs)


@pytest.mark.parametrize("name", ["pr", "xyplusz", "svetlichny_box"])
def test_resumed_rounds_match_cold_solves(monkeypatch, name):
    """Each round of the one resumed tableau answers as a cold solve of the
    same active columns does, with a Farkas certificate or x that holds on
    those columns."""
    rounds = _rounds_of(monkeypatch, name)
    # one tableau, wider each round
    assert [rows.shape[1] for rows, _, _ in rounds] == sorted(
        {rows.shape[1] for rows, _, _ in rounds})
    if name != "pr":
        assert len(rounds) > 1
    for rows, rhs, res in rounds:
        assert res.status == find_nonneg_solution(rows, rhs).status
        _check_phase1_answer(res, rows.tolist(), rhs)


def test_integer_rows_of_inconsistent_dimensions_are_refused():
    rows = np.array([[1, 2, 3]], dtype=np.int64)
    with pytest.raises(ValueError, match="inconsistent LP dimensions"):
        simplex.maximize(rows, [1], [1, 1])
    with pytest.raises(ValueError, match="inconsistent LP dimensions"):
        simplex.maximize(rows, [1, 2], [1, 1, 1])
