import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from fraction_linalg import clear_denominators_reference, nullspace, rref, solve
from nsbox.linalg import (_eliminate, _int_array, _int_products, _nullspace, _projector, _solve,
                          clear_denominators, int_rank, reduce_content)

F = Fraction


def _nullspace_rows(rows):
    """The integer nullspace basis of a list of integer rows, as lists."""
    return _nullspace(_int_array(rows)).tolist()


def _bareiss_reference(m):
    """The list kernel that `_eliminate` replaced: fraction-free (Bareiss)
    forward elimination of a list of row lists, in place; returns the
    pivot columns."""
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    prev = 1
    for col in range(nc):
        rank = len(pivots)
        piv = next((r for r in range(rank, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank]
        p = lead[col]
        for r in range(rank + 1, nr):
            row = m[r]
            f = row[col]
            for c in range(col + 1, nc):
                row[c] = (p * row[c] - f * lead[c]) // prev
            row[col] = 0
        prev = p
        pivots.append(col)
        if len(pivots) == nr:
            break
    return pivots


def _back_substitute_reference(m, pivots, cols):
    """The list back substitution that `_solve` replaced: (D, ys), one y
    per column c with P·y = D·m[:, c] over the pivot rows."""
    r = len(pivots)
    den = m[r - 1][pivots[-1]] if r else 1
    ys = []
    for c in cols:
        y = [0] * r
        for i in range(r - 1, -1, -1):
            row = m[i]
            y[i] = (den * row[c] - sum(row[pivots[j]] * y[j]
                                       for j in range(i + 1, r))) // row[pivots[i]]
        ys.append(y)
    return den, ys


def _int_inverse_reference(rows):
    """The integer inverse the DD start took before one elimination gave
    it: (D, X) with rows·X = D·I, from the list kernel on [rows | I]."""
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    den, cols = _back_substitute_reference(m, _bareiss_reference(m), range(n, 2 * n))
    return den, [list(r) for r in zip(*cols)]


def _matches_the_reference(rows):
    """Eliminate ``rows`` and solve for every column with the array kernel
    and with the list kernel; check that pivots, echelon form, D and
    solutions agree, and return (echelon, solutions) of the array kernel."""
    m, pivots = _eliminate(_int_array(rows))
    ref = [list(r) for r in rows]
    assert pivots == _bareiss_reference(ref), rows
    assert m.tolist() == ref, rows
    cols = range(len(rows[0]))
    den, y = _solve(m, pivots, cols)
    assert (den, y.T.tolist()) == _back_substitute_reference(ref, pivots, cols), rows
    return m, y


def test_clear_denominators_scales_positively():
    assert clear_denominators([F(1, 2), F(-1, 3), F(0)]) == [3, -2, 0]
    assert clear_denominators([F(4), F(-6)]) == [2, -3]
    assert clear_denominators([F(0), F(0)]) == [0, 0]


def test_clear_denominators_matches_the_fraction_reference():
    rng = random.Random(11)

    def entry():
        kind = rng.randrange(5)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-10 ** 6, 10 ** 6)
        if kind == 2:
            return F(rng.randint(-50, 50), rng.randint(1, 12))
        if kind == 3:
            return F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 25))
        return F(-rng.randint(1, 9), rng.choice([1, 2, 3, 2 ** 70]))

    rows = [[entry() for _ in range(rng.randint(1, 12))] for _ in range(400)]
    rows += [[0] * 5, [F(0)] * 3, [], [F(0), 0, F(-7, 3)], [2, 4, -6],
             [np.int64(-4), 0.5, True, F(3, 8)]]
    for row in rows:
        got = clear_denominators(row)
        assert got == clear_denominators_reference(row), row
        assert all(type(v) is int for v in got)


def test_reduce_content_keeps_direction():
    assert reduce_content([-4, -6]) == [-2, -3]
    assert reduce_content([0, 5, -10]) == [0, 1, -2]


def test_int_rank():
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 0, 1], [0, 1, 1], [1, 1, 2]]) == 2
    assert int_rank([[0, 0]]) == 0


def test_rref_pivots_and_consistency():
    red, pivots = rref([[2, 4, 0], [1, 2, 1]])
    assert pivots == [0, 2]
    assert red[0][:2] == [F(1), F(2)]


def test_nullspace_vectors_annihilate():
    rows = [[1, 2, 3, 0], [0, 1, 1, 1]]
    basis = _nullspace_rows(rows)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_integer_nullspace_matches_the_fraction_nullspace():
    rng = random.Random(13)
    cases = [[[0, 0, 0]], [[3]], [[0]], [[2, -4, 6]], [[1, 2], [2, 4]]]
    for _ in range(300):
        nc = rng.randint(1, 8)
        # rows drawn from a random subspace, often rank-deficient
        gens = [[rng.randint(-4, 4) for _ in range(nc)]
                for _ in range(rng.randint(1, nc))]
        rows = [[sum(rng.choice((0, 0, 1, -1, 2)) * g[j] for g in gens)
                 for j in range(nc)] for _ in range(rng.randint(1, 7))]
        for c in rng.sample(range(nc), rng.randint(0, nc // 2)):
            for row in rows:
                row[c] = 0
        cases.append(rows)
    assert sum(len(rows) == 1 for rows in cases) > 30
    for rows in cases:
        assert _nullspace_rows(rows) == nullspace(rows), rows


def test_solve_exact_and_inconsistent():
    assert solve([[2, 0], [0, 4]], [F(1), F(2)]) == [F(1, 2), F(1, 2)]
    assert solve([[1, 1], [2, 2]], [F(1), F(3)]) is None
    x = solve([[1, 1, 0]], [F(5)])
    assert x is not None and x[0] + x[1] == 5


def _reference_inverse(rows):
    """The Gauss-Jordan inverse over Fractions, an independent reference
    for the integer one."""
    n = len(rows)
    m = [[F(v) for v in r] + [F(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [r[n:] for r in m]


def _inverse(rows):
    """(D, X) with rows·X = D·I: back substitution on the identity block of
    the eliminated [rows | I]."""
    n = len(rows)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    m, pivots = _eliminate(_int_array([r + e for r, e in zip(rows, eye)]))
    return _solve(m, pivots, range(n, 2 * n))


def test_integer_inverse_matches_the_fraction_inverse():
    den, x = _inverse([[2, 1], [1, 1]])
    assert [[F(v, den) for v in r] for r in x.tolist()] == [[1, -1], [-1, 2]]
    rng = random.Random(9)
    tested = 0
    while tested < 60:
        n = rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if int_rank(rows) < n:
            continue
        den, x = _inverse(rows)
        assert [[F(v, den) for v in r] for r in x.tolist()] == _reference_inverse(rows)
        assert (den, x.tolist()) == _int_inverse_reference(rows)
        tested += 1


def project_out_rowspace(vec, rows):
    """The per-vector projection that ``_projector`` replaced: the primitive
    part of d·v - Bᵀ y, with B the first independent rows and y, d from one
    Bareiss solve of the Gram system (B Bᵀ) z = B v."""
    basis = rows[_eliminate(rows.T)[1]] if len(rows) else rows
    if not len(basis):
        return reduce_content(list(vec))
    system = np.concatenate([_int_products(basis, basis),
                             _int_products(basis, _int_array([vec]))], axis=1)
    d, y = _solve(*_eliminate(system), [len(basis)])
    back = _int_products(y.T, basis.T)[0].tolist()
    return reduce_content([d * x - b for x, b in zip(vec, back)])


def _project(vec, rows):
    """An integer vector projected off the rows by their projector."""
    return reduce_content(_int_products(_int_array([vec]), _projector(rows))[0].tolist())


def test_projection_is_orthogonal_and_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        rows = np.array([[rng.randint(-3, 3) for _ in range(6)] for _ in range(3)])
        vec = [rng.randint(-5, 5) for _ in range(6)]
        out = _project(vec, rows)
        assert all(type(v) is int for v in out) and reduce_content(out) == out
        assert (rows @ out == 0).all()
        assert _project(out, rows) == out


def test_projecting_a_row_gives_zero():
    rows = np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int8)
    assert _project([3, 7, 1], rows) == [0] * 3
    with pytest.raises(ValueError):
        _projector(rows)[0, 0] = 1


def test_projector_matches_the_per_vector_solve():
    """Entry for entry, not just parallel: the membership tests' constant
    rows (the H-rep rows for local, the normalization rows for two-way) of
    three shapes, then seeded rows whose Gram system passes the int64
    guard, each against seeded vectors small and past int64."""
    from nsbox.boxes import BoxShape
    from nsbox.polytope import build_hrep, normalization_rows
    rng = random.Random(27)
    cases = []
    for text in ("2,2/2,2", "3,3/3,3", "2,2/2,2/2,2"):
        shape = BoxShape.from_string(text)
        cases += [build_hrep(shape)._int_rows()[:, 1:], normalization_rows(shape)]
    for top in (2 ** 20, 2 ** 40, 2 ** 70):
        n = rng.randint(3, 8)
        cases.append(_int_array([[rng.randint(-top, top) for _ in range(n)]
                                 for _ in range(rng.randint(1, n))]))
    for rows in cases:
        proj = _projector(rows)
        assert (proj == proj.T).all()
        for top in (9, 2 ** 70):
            vec = [rng.randint(-top, top) for _ in range(rows.shape[1])]
            got = reduce_content(_int_products(_int_array([vec]), proj)[0].tolist())
            assert got == project_out_rowspace(vec, rows)


def _reference_projection(vec, rows):
    """The rational projection: rref basis, Fraction Gram system."""
    basis, _ = rref(rows)
    if not basis:
        return [F(v) for v in vec]
    bv = [sum(r[i] * vec[i] for i in range(len(vec))) for r in basis]
    gram = [[sum(a * b for a, b in zip(r1, r2)) for r2 in basis] for r1 in basis]
    z = solve(gram, bv)
    out = [F(v) for v in vec]
    for zi, r in zip(z, basis):
        for i in range(len(out)):
            out[i] -= zi * r[i]
    return out


def test_integer_projection_matches_the_rational_one():
    """The integer projection of the cleared vector off the cleared rows is
    the rational projection up to a positive scale: its primitive form."""
    from nsbox.boxes import BoxShape
    from nsbox.polytope import build_hrep, normalization_rows
    rng = random.Random(11)
    cases = []
    for _ in range(30):
        n = rng.randint(1, 7)
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(0, 5))]
        cases.append((n, rows))
    shape = BoxShape.homogeneous(2, 2, 2)
    size = shape.table_size
    cases.append((size, [list(r) for r, _ in build_hrep(shape).equalities]))
    cases.append((size, normalization_rows(shape).tolist()))
    cases.append((3, [[0, 0, 0], [0, 0, 0]]))
    for n, rows in cases:
        vec = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        ints = np.array([clear_denominators(r) for r in rows], np.int64).reshape(len(rows), n)
        got = _project(clear_denominators(vec), ints)
        assert got == clear_denominators(_reference_projection(vec, rows))


def test_int_rank_matches_rref():
    rng = random.Random(5)
    for _ in range(40):
        rows = [[rng.randint(-2, 2) for _ in range(rng.randint(1, 6))]]
        rows += [[rng.randint(-2, 2) for _ in rows[0]]
                 for _ in range(rng.randint(0, 6))]
        assert int_rank(rows) == len(rref(rows)[1])


def test_int_products_is_exact_past_the_int64_guard():
    import numpy as np

    from nsbox.linalg import _int_products
    small = np.array([[3, -1, 2], [0, 4, -5]])
    cols = np.array([[1, 2, 3], [-2, 0, 7]])
    want = [[sum(a * b for a, b in zip(r, c)) for c in cols.tolist()] for r in small.tolist()]
    assert _int_products(small, cols).tolist() == want
    assert _int_products(small.astype(object), cols).tolist() == want
    assert _int_products(small, cols).dtype == np.int64
    # past the 2**62 guard the products are Python ints; int64 would wrap
    # on the last one, 2**63 + 1
    big = np.array([[2 ** 62, 2 ** 62, 1]], dtype=object)
    zero_one = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]], dtype=np.int64)
    out = _int_products(big, zero_one)
    assert out.tolist() == [[2 ** 62 + 1, 2 ** 62, 2 ** 63 + 1]]
    assert out.dtype == object and all(type(v) is int for v in out[0])
    assert _int_products(np.array([[2 ** 61, 2 ** 61]]), np.array([[1, 1]])).tolist() == [[2 ** 62]]
    assert _int_products(np.zeros((0, 3), dtype=np.int64), cols).tolist() == []
    assert _int_products(small, np.zeros((0, 3), dtype=np.int64)).tolist() == [[], []]
    # a zero factor bounds the products by 0, but the other one may not fit int64
    huge = np.array([[2 ** 70, 1, 1]], dtype=object)
    assert _int_products(huge, np.zeros((2, 3), dtype=np.int64)).tolist() == [[0, 0]]
    assert _int_products(np.zeros((1, 0), dtype=np.int64), np.zeros((2, 0))).tolist() == [[0, 0]]


def _greedy_independent_rows(rows, d):
    """The greedy Fraction elimination the DD start basis used before it
    moved onto Bareiss elimination: indices of the first d independent rows in order,
    None if the rank is below d."""
    basis = []
    chosen = []
    for idx, row in enumerate(rows):
        vec = [Fraction(v) for v in row]
        for bvec in basis:
            lead = next(i for i, v in enumerate(bvec) if v != 0)
            if vec[lead] != 0:
                f = vec[lead]
                vec = [a - f * b for a, b in zip(vec, bvec)]
        lead = next((i for i, v in enumerate(vec) if v != 0), None)
        if lead is None:
            continue
        inv = 1 / vec[lead]
        basis.append([v * inv for v in vec])
        chosen.append(idx)
        if len(chosen) == d:
            return chosen
    return None


def test_bareiss_on_the_transpose_picks_the_greedy_basis():
    rng = random.Random(5)
    deficient = 0
    for _ in range(300):
        d = rng.randint(1, 6)
        n = rng.randint(1, 10)
        # rows drawn from a random subspace of dimension r, often below d
        r = rng.randint(1, d)
        gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(r)]
        rows = [[sum(rng.choice((0, 0, 1, -1, 2)) * g[j] for g in gens)
                 for j in range(d)] for _ in range(n)]
        pivots = _eliminate(_int_array(rows).T)[1]
        greedy = _greedy_independent_rows(rows, d)
        assert (pivots if len(pivots) == d else None) == greedy, rows
        assert len(pivots) == int_rank(rows)
        deficient += greedy is None
    assert 50 < deficient < 250


def _random_matrix(rng, nr, nc, rank, bound):
    """An nr x nc integer matrix of rank at most ``rank``: sums of small
    multiples of ``rank`` random rows with entries up to ``bound`` (zero
    for rank 0)."""
    gens = [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(rank)]
    return [[sum(rng.choice((0, 0, 1, -1, 2)) * g[j] for g in gens) for j in range(nc)]
            for _ in range(nr)]


def test_array_kernel_matches_the_list_kernel_on_seeded_matrices():
    rng = random.Random(29)
    kinds = {"full rank": 0, "rank-deficient": 0, "wide": 0, "tall": 0}
    for _ in range(400):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        rank = max(0, min(nr, nc) - rng.randint(0, 2))
        bound = rng.choice((1, 4, 2 ** 12, 2 ** 40, 2 ** 70))
        rows = _random_matrix(rng, nr, nc, rank, bound)
        _matches_the_reference(rows)
        full = int_rank(rows) == min(nr, nc)
        kinds["full rank"] += full
        kinds["rank-deficient"] += not full
        kinds["wide"] += nr < nc
        kinds["tall"] += nr > nc
    assert min(kinds.values()) > 50, kinds


_entries = st.one_of(st.integers(-3, 3), st.integers(-2 ** 31, 2 ** 31),
                     st.integers(-2 ** 64, 2 ** 64))


@st.composite
def _matrices(draw):
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    # a row that repeats a combination of two others makes the rank drop
    if nr > 2 and draw(st.booleans()):
        k = draw(st.integers(-3, 3))
        rows[-1] = [a + k * b for a, b in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_array_kernel_matches_the_list_kernel_on_drawn_matrices(rows):
    _matches_the_reference(rows)
    assert _nullspace_rows(rows) == nullspace(rows)


def test_forward_elimination_crosses_the_int64_guard_partway():
    # the entries start below 2**31, so the first steps run on int64; the
    # minors pass 2**31 a few steps in and 2**63 later, where int64 would wrap
    rng = random.Random(31)
    for n, bound in ((8, 2 ** 24), (12, 2 ** 12), (10, 2 ** 30)):
        rows = [[rng.randint(-bound, bound) for _ in range(n + 2)] for _ in range(n)]
        m, _ = _matches_the_reference(rows)
        assert max(abs(v) for r in rows for v in r) < 2 ** 31
        assert m.dtype == object
        assert max(abs(v) for r in m.tolist() for v in r) >= 2 ** 63
        assert _nullspace_rows(rows) == nullspace(rows)


def test_back_substitution_crosses_the_int64_guard_alone():
    # an upper bidiagonal system with unit pivots: elimination leaves it as
    # it is, on int64, but the solution of the last column is c, c², c³, c⁴
    c, n = 2 ** 31 - 1, 4
    rows = [[1 if j == i else -c if j == i + 1 else 0 for j in range(n)] + [c * (i == n - 1)]
            for i in range(n)]
    m, y = _matches_the_reference(rows)
    assert m.dtype == np.int64 and y.dtype == object
    assert y[:, n].tolist() == [c ** 4, c ** 3, c ** 2, c]
    assert _nullspace_rows(rows) == nullspace(rows) == [[-c ** 4, -c ** 3, -c ** 2, -c, 1]]


def test_entries_past_int64_from_the_start():
    e = 2 ** 63
    for rows in ([[e, 1, -1], [3, -e - 5, 2 * e]],
                 [[2 ** 70, 2 ** 70], [1, -1], [2 ** 64, 0]],
                 [[-e, 0], [0, 1]]):
        m, _ = _matches_the_reference(rows)
        assert m.dtype == object
        assert _nullspace_rows(rows) == nullspace(rows)
        assert int_rank(rows) == len(rref(rows)[1])
    # 2**31 <= entries < 2**63 are int64 at the start, object from the first step
    rows = [[2 ** 40, 3, 1], [5, -2 ** 50, 7]]
    m, _ = _matches_the_reference(rows)
    assert _int_array(rows).dtype == np.int64 and m.dtype == object
