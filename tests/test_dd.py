import random
import re
import time
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from fraction_linalg import nullspace
from test_linalg import _bareiss_reference, _int_inverse_reference
from nsbox import dd
from nsbox.boxes import BoxShape
from nsbox.dd import EnumerationCapError, extreme_rays
from nsbox.linalg import _int_array, _int_products, _nullspace, int_rank, reduce_content
from nsbox.polytope import HPolytope, _homogenized_cone, build_hrep, enumerate_vertices


def test_orthant_rays_are_unit_vectors():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert extreme_rays(rows) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_square_based_cone():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]
    assert extreme_rays(rows) == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]


_SQUARE_CONE = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]
# the same cone with a scaled row, a duplicate, a scaled duplicate and a
# zero row
_NOISY_SQUARE_CONE = _SQUARE_CONE + [[2, 2, -2], [1, 0, 0], [3, 0, 0], [0, 0, 0]]


def test_duplicate_and_scaled_rows_are_harmless():
    assert extreme_rays(_NOISY_SQUARE_CONE) == extreme_rays(_SQUARE_CONE)


def test_row_order_does_not_matter():
    rng = random.Random(11)
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
            [1, 1, -1, 0], [0, 1, 1, -1], [2, 0, 0, -1]]
    reference = extreme_rays(rows)
    for _ in range(10):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert extreme_rays(shuffled) == reference


def test_cone_reduced_to_origin_has_no_rays():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    assert extreme_rays(rows) == []


def test_lineality_is_rejected():
    # rank below the dimension, with entries past 2**31 and 2**63 too
    for rows in ([[1, 0], [2, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, -1, 0]],
                 [[2 ** 70, 1, 0], [1, 2 ** 40, 0], [3, 5, 0]], [[1, 2, 3], [2, 4, 6]]):
        with pytest.raises(ValueError, match="lineality space"):
            extreme_rays(rows)
    with pytest.raises(ValueError):
        extreme_rays([])


def test_ray_cap_raises_instead_of_truncating():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]
    with pytest.raises(EnumerationCapError):
        extreme_rays(rows, max_rays=2)


def _deterministic_vertex_cone(text):
    """The tangent cone rows of the deterministic vertex with every output 0
    of a shape's no-signalling polytope: the homogenized cone's rows over
    the directions on which their sum is zero, as ``_orbit_rays`` takes
    them, at the vertex's zero rows."""
    shape = BoxShape.from_string(text)
    _, rows = _homogenized_cone(build_hrep(shape))
    edges = _nullspace(_int_array([[sum(c) for c in zip(*rows)]]))
    edge_rows = _int_products(rows, edges).tolist()
    ones = {1 + shape.index((0,) * shape.parties, ins) for ins in shape.joint_inputs}
    return [edge_rows[i] for i in range(1, len(rows)) if i not in ones]


def test_time_budget_is_checked_inside_a_row(monkeypatch):
    # the last rows of this cone take seconds each, so clock reads between
    # rows alone would overshoot a 1 s budget by seconds
    rows = _deterministic_vertex_cone("4,4/4,4")
    reads = []

    def monotonic():
        reads.append(time.monotonic())
        return reads[-1]
    monkeypatch.setattr(dd, "time", SimpleNamespace(monotonic=monotonic))
    with pytest.raises(EnumerationCapError) as err:
        extreme_rays(rows, time_budget=1.0)
    assert reads[-1] - reads[0] < 2.0
    found = re.fullmatch(r"time budget 1.0s exceeded after [\d.]+s with (\d+) "
                         rf"of {len(rows)} rows left and \d+ rays", str(err.value))
    assert found
    # one read at the start and one per row begun past the basis rows; the
    # rest were made inside rows
    begun = len(rows) - len(rows[0]) - int(found[1]) + 1
    assert len(reads) > 1 + begun


def _brute_force_rays(rows, dim):
    """Candidate rays from (dim-1)-subsets of tight constraints."""
    found = set()
    for subset in combinations(rows, dim - 1):
        kernel = nullspace(list(subset)) if subset else []
        if len(kernel) != 1:
            continue
        for sign in (1, -1):
            ray = tuple(reduce_content([sign * v for v in kernel[0]]))
            if all(sum(a * b for a, b in zip(row, ray)) >= 0 for row in rows):
                found.add(ray)
    extreme = set()
    for ray in found:
        tight = [row for row in rows
                 if sum(a * b for a, b in zip(row, ray)) == 0]
        if tight and int_rank(tight) == dim - 1:
            extreme.add(ray)
    return sorted(extreme)


def test_random_cones_match_brute_force():
    rng = random.Random(5)
    for _ in range(15):
        dim = rng.choice((3, 4))
        rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(rng.randint(1, 3)):
            rows.append([rng.randint(-2, 2) for _ in range(dim)])
        got = extreme_rays(rows)
        assert got == _brute_force_rays(rows, dim)
        for ray in got:
            assert all(sum(a * b for a, b in zip(row, ray)) >= 0
                       for row in rows)
            assert tuple(reduce_content(list(ray))) == ray


def _reference_combine_adjacent(rays, masks, vals, d):
    """The dense adjacency test that the near-ray test replaced: every
    candidate pair is tested against every ray.  ``rays`` and ``vals`` are
    int lists and ``masks`` Python ints; returns the fresh rays."""
    pos_i = [i for i, v in enumerate(vals) if v > 0]
    neg_i = [i for i, v in enumerate(vals) if v < 0]
    nwords = max(1, (max(masks).bit_length() + 63) // 64)
    all_words = np.zeros((len(masks), nwords), dtype=np.uint64)
    for i, m in enumerate(masks):
        for w in range(nwords):
            all_words[i, w] = (m >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    pos_words = all_words[np.array(pos_i, dtype=np.intp)]
    cand_pairs = []
    for n in neg_i:
        cnt = np.zeros(len(pos_i), dtype=np.int64)
        for w in range(nwords):
            cnt += np.bitwise_count(all_words[n, w] & pos_words[:, w])
        for b in np.nonzero(cnt >= d - 2)[0].tolist():
            cand_pairs.append((pos_i[b], n))
    fresh = {}
    for p, n in cand_pairs:
        cm = all_words[p] & all_words[n]
        holds = np.ones(len(rays), dtype=bool)
        for w in range(nwords):
            holds &= (all_words[:, w] & cm[w]) == cm[w]
        if holds.sum() != 2:
            continue
        vp, vn = vals[p], vals[n]
        w = [vp * rn - vn * rp for rp, rn in zip(rays[p], rays[n])]
        fresh.setdefault(tuple(reduce_content(w)), None)
    return list(fresh)


def _checked(monkeypatch):
    """Check every row's fresh rays against the reference; returns the
    log of (fresh rays, mask words) per checked row."""
    real = dd._fresh_rays
    log = []

    def checked(rays, masks, vals, d, check_clock):
        got = real(rays, masks, vals, d, check_clock)
        ints = [sum(w << (64 * k) for k, w in enumerate(row)) for row in masks.tolist()]
        want = _reference_combine_adjacent(rays.tolist(), ints, vals.tolist(), d)
        assert sorted(map(tuple, got.tolist())) == sorted(want)
        log.append((len(want), masks.shape[1]))
        return got

    monkeypatch.setattr(dd, "_fresh_rays", checked)
    return log


def _degenerate_cone(rng, dim, extra, entries=(-1, 0, 0, 1)):
    """The positive orthant cut by small rows whose entries sum to at
    least zero, so the all-ones ray stays inside and many rows are tight
    on the same rays."""
    rows = {tuple(int(i == j) for j in range(dim)) for i in range(dim)}
    while len(rows) < dim + extra:
        row = tuple(rng.choice(entries) for _ in range(dim))
        if any(row) and sum(row) >= 0:
            rows.add(row)
    return sorted(rows)


def test_near_ray_adjacency_matches_the_dense_test_on_degenerate_cones(monkeypatch):
    log = _checked(monkeypatch)
    rng = random.Random(17)
    degenerate = 0
    # the last cone has more than 64 rows, so its masks take two words
    for dim, extra, entries in ((6, 10, (-1, 0, 0, 1)), (7, 14, (-1, 0, 0, 1)),
                                (8, 12, (-1, 0, 0, 1)), (9, 10, (-1, 0, 0, 1)),
                                (7, 66, (-1, 0, 1, 1, 2))):
        rows = _degenerate_cone(rng, dim, extra, entries)
        got = extreme_rays(rows)
        for ray in got:
            dots = [sum(a * b for a, b in zip(row, ray)) for row in rows]
            tight = [row for row, v in zip(rows, dots) if v == 0]
            assert min(dots) >= 0
            assert int_rank(tight) == dim - 1
            degenerate += len(tight) > dim - 1
    assert degenerate > 50
    assert sum(fresh for fresh, words in log if words == 2) > 100


def _parabola_cone(m):
    """The homogenized polygon above the tangents y >= 2k·x - k² of y = x²
    for |k| <= m, capped at y <= m² + 1, with one more supporting line
    through each vertex between two tangents: 4m + 3 rows, and each of
    those 2m vertices is tight on three of them."""
    rows = [[0, 0, 1], [0, -1, m * m + 1]]
    rows += [[-2 * k, 1, k * k] for k in range(-m, m + 1)]
    rows += [[-2 * (2 * k + 1), 2, 2 * k * k + 2 * k + 1] for k in range(-m, m)]
    return rows


def test_near_ray_adjacency_matches_the_dense_test_past_one_mask_word(monkeypatch):
    log = _checked(monkeypatch)
    # 203 rows: four mask words, so the near counts are summed in uint16
    rows = _parabola_cone(50)
    random.Random(3).shuffle(rows)
    got = extreme_rays(rows)
    assert len(got) == 102
    assert (-99, 4900, 2) in got
    assert max(words for _, words in log) == 4


@pytest.mark.parametrize("text, count", [("2,2/2,2", 24), ("3,3/3,3", 1161), ("2,2/2,2/3", 72)])
def test_near_ray_adjacency_matches_the_dense_test_on_polytope_cones(monkeypatch, text, count):
    log = _checked(monkeypatch)
    h = build_hrep(BoxShape.from_string(text))
    rows = list(h.equalities)
    random.Random(text).shuffle(rows)
    vrep = enumerate_vertices(HPolytope(h.ambient, tuple(rows), h.shape))
    assert len(vrep.vertices) == count
    assert log


def _past_int64_cone():
    """A cone with entries near 2**51 whose rays have entries past 2**100."""
    e = 2 ** 50
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    return rows + [[-3 * e // 2, 3 * e + 1, -2 * e + 3, 3 * e - 5],
                   [-5 * e // 2 + 7, e + 9, -e - 11, 3 * e + 13],
                   [3 * e - 17, 3 * e + 19, 3 * e + 23, -4 * e + 29]]


def test_entries_past_int64_take_the_python_int_path():
    rows = _past_int64_cone()
    got = extreme_rays(rows)
    assert len(got) == 10
    assert got == _brute_force_rays(rows, 4)
    assert max(abs(v) for ray in got for v in ray) > 2 ** 100


def _recorded_order(monkeypatch):
    """Record the start basis rows and, for each row whose fresh rays are
    made, check that it is the first row left with the fewest candidate
    pairs #pos·#neg, from the products the loop read just before it chose;
    log how many distinct scores the rows left had."""
    real_start, real_products, real_fresh = dd._start, dd._int_products, dd._fresh_rays
    starts, last, log = [], {}, []

    def start(table):
        basis, rays = real_start(table)
        starts.append([tuple(r) for r in table[basis].tolist()])
        return basis, rays

    def products(a, b):
        got = real_products(a, b)
        last.update(rays=b, values=got)
        return got

    def fresh(rays, masks, vals, d, check_clock):
        assert last["rays"] is rays
        values = last["values"]
        scores = (values > 0).sum(axis=1) * (values < 0).sum(axis=1)
        assert np.array_equal(values[int(np.argmin(scores))], vals)
        log.append(len(set(scores.tolist())))
        return real_fresh(rays, masks, vals, d, check_clock)

    monkeypatch.setattr(dd, "_start", start)
    monkeypatch.setattr(dd, "_int_products", products)
    monkeypatch.setattr(dd, "_fresh_rays", fresh)
    return starts, log


@pytest.mark.parametrize("cone", ["degenerate", "3,4/3,4"])
def test_rows_are_added_in_fewest_candidate_pair_order(monkeypatch, cone):
    if cone == "degenerate":
        rows = _degenerate_cone(random.Random(23), 8, 14)
    else:
        rows = _deterministic_vertex_cone(cone)
    reference = extreme_rays(rows)
    starts, log = _recorded_order(monkeypatch)
    assert extreme_rays(rows) == reference
    # the start: the first independent rows once the rows with more zero
    # entries come first
    uniq = dict.fromkeys(tuple(reduce_content(list(r))) for r in rows)
    basis = []
    for r in sorted(uniq, key=lambda r: -r.count(0)):
        if int_rank(basis + [r]) > len(basis):
            basis.append(r)
    assert starts == [basis]
    # most rows were a real choice among rows of different scores
    assert sum(n > 1 for n in log) > len(log) // 2


def test_fewest_pair_order_keeps_the_intermediate_rays_under_the_cone_size():
    # this cone has 2327 rays; adding rows by the most even pos/neg split
    # from the first independent rows peaks at 2436 intermediate rays, so
    # that order stops at this cap
    rows = _deterministic_vertex_cone("3,4/3,4")
    assert (len(rows), len(rows[0])) == (45, 35)
    assert len(extreme_rays(rows, max_rays=2327)) == 2327
    with pytest.raises(EnumerationCapError, match="ray cap 2326 exceeded"):
        extreme_rays(rows, max_rays=2326)


def _old_start(rows):
    """The start that one elimination replaced: the list kernel on the
    transpose of the rows, sparsest first, for the basis, then the integer
    inverse of the basis rows, whose column j is ray j."""
    d = len(rows[0])
    order = sorted(range(len(rows)), key=lambda i: -rows[i].count(0))
    basis = [order[j] for j in _bareiss_reference([list(c) for c in zip(*(rows[i] for i in order))])]
    den, inv = _int_inverse_reference([list(rows[i]) for i in basis])
    sign = 1 if den > 0 else -1
    return basis, [reduce_content([sign * inv[i][j] for i in range(d)]) for j in range(d)]


def test_start_rays_match_the_inverse_of_the_basis_rows():
    rng = random.Random(37)
    cones = [_degenerate_cone(rng, dim, extra) for dim, extra in ((5, 6), (8, 14), (9, 10))]
    cones += [_deterministic_vertex_cone(text) for text in ("2,2,2/2,2,2", "3,4/3,4")]
    cones.append(_parabola_cone(6))
    # dense rows with entries past 2**31 and past 2**63
    for bound in (2 ** 40, 2 ** 70):
        cones.append([[rng.randint(-bound, bound) for _ in range(6)] for _ in range(9)])
    for rows in cones:
        rows = list(dict.fromkeys(tuple(reduce_content(list(r))) for r in rows if any(r)))
        basis, rays = dd._start(_int_array(rows))
        assert (basis, rays.tolist()) == _old_start(rows)


def test_int64_and_object_arrays_and_lists_give_the_same_rays():
    rng = random.Random(41)
    cones = [_NOISY_SQUARE_CONE, _past_int64_cone(), _parabola_cone(6),
             _degenerate_cone(rng, 6, 10), _degenerate_cone(rng, 8, 12),
             _deterministic_vertex_cone("2,2,2/2,2,2")]
    for rows in cones:
        ints, objects = np.array(rows, dtype=np.int64), np.array(rows, dtype=object)
        # the loop fits the object rows to int64, so it runs the same steps
        got = dd._extreme_rays(ints, 10 ** 6, None)
        assert got.tolist() == dd._extreme_rays(objects, 10 ** 6, None).tolist()
        want = extreme_rays(rows)
        assert sorted(map(tuple, got.tolist())) == want
        assert extreme_rays(ints) == want and extreme_rays(objects) == want


@pytest.mark.parametrize("rows, problem", [
    ([[1, 0], [0, 1, 0]], r"one length, got lengths \[2, 3\]"),
    ([[1.5, 0], [0, 1]], "a row entry must be an integer, got 1.5"),
    ([[1, 0], ["0", 1]], "a row entry must be an integer, got '0'"),
    ([[True, 0], [0, 1]], "a row entry must be an integer, got True"),
    (np.eye(2), "a row entry must be an integer, got np.float64"),
    (np.eye(2, dtype=bool), "a row entry must be an integer, got np.True_"),
    ([1, 0], "2-D: a sequence of integer rows"),
    (np.ones(2, dtype=np.int64), "2-D: a sequence of integer rows"),
    (np.zeros((2, 2, 2), dtype=np.int64), "a row entry must be an integer, got array")])
def test_malformed_rows_are_refused_before_any_elimination(monkeypatch, rows, problem):
    def loop(*args):
        raise AssertionError("the DD loop ran")
    monkeypatch.setattr(dd, "_extreme_rays", loop)
    with pytest.raises(ValueError, match=problem):
        extreme_rays(rows)
