import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from nsbox.boxes import Box, BoxShape, ShapeError, mix
from nsbox.dd import EnumerationCapError
from nsbox.families import (dbox, local_deterministic, pr, svetlichny_box,
                            two_way_vertex, uniform, xyplusz, xyz_box)
from nsbox import locality
from nsbox.linalg import clear_denominators
from nsbox.locality import (SeparatingCertificate, chsh, chsh_functional,
                            convex_membership, correlator,
                            enumerate_local_strategies,
                            enumerate_twoway_strategies, evaluate_functional,
                            is_local, is_two_way_local, svetlichny,
                            svetlichny_functional)
from nsbox.polytope import build_hrep, normalization_rows
from nsbox.simplex import find_nonneg_solution, maximize

CHSH_SHAPE = BoxShape.homogeneous(2, 2, 2)


def test_correlator_values():
    assert correlator(pr(), (0, 0)) == 1
    assert correlator(pr(), (1, 1)) == -1
    assert correlator(uniform(CHSH_SHAPE), (0, 1)) == 0
    with pytest.raises(ShapeError):
        correlator(dbox(3), (0, 0))


def test_chsh_on_the_pr_family():
    for alpha, beta, gamma in iproduct(range(2), repeat=3):
        box = pr(alpha, beta, gamma)
        for a2, b2, g2 in iproduct(range(2), repeat=3):
            value = chsh(box, a2, b2, g2)
            if (a2, b2, g2) == (alpha, beta, gamma):
                assert value == 4
            elif (a2, b2) == (alpha, beta):
                assert value == -4
            else:
                assert value == 0


def test_chsh_on_deterministic_points():
    for bits in iproduct(range(2), repeat=4):
        value = chsh(local_deterministic(*bits))
        assert value in (-2, 2)


def test_functional_parameters_must_be_bits():
    with pytest.raises(ShapeError):
        chsh(pr(), -1, 0, 0)
    with pytest.raises(ShapeError):
        chsh_functional(0, 0, 5)
    with pytest.raises(ShapeError):
        svetlichny_functional(0, 2, 0)
    with pytest.raises(ShapeError):
        correlator(pr(), (2, 0))


def test_chsh_functional_matches_chsh():
    rng = random.Random(7)
    for _ in range(10):
        table = _random_box_table(rng)
        box = Box(CHSH_SHAPE, table)
        f = chsh_functional(1, 0, 1)
        assert evaluate_functional(box, f) == chsh(box, 1, 0, 1)
    assert chsh_functional().local_bound == 2
    assert chsh_functional().algebraic_max == 4


def _random_box_table(rng):
    """A valid (generally signalling-free) random table: mix vertices."""
    from nsbox.polytope import build_hrep, enumerate_vertices
    verts = enumerate_vertices(build_hrep(CHSH_SHAPE)).vertices
    picks = rng.sample(range(len(verts)), 3)
    w = [Fraction(rng.randint(1, 5)) for _ in picks]
    s = sum(w)
    table = [Fraction(0)] * CHSH_SHAPE.table_size
    for wi, j in zip(w, picks):
        for i, v in enumerate(verts[j].table):
            table[i] += wi / s * v
    return tuple(table)


def test_pr_box_is_not_local():
    res = is_local(pr())
    assert not res
    assert res.value == 4
    assert res.threshold == 2
    strategies = enumerate_local_strategies(CHSH_SHAPE)
    assert res.verify(pr(), strategies)


def test_local_deterministic_boxes_are_local():
    for bits in iproduct(range(2), repeat=4):
        res = is_local(local_deterministic(*bits))
        assert res
        assert len(res.strategies) == 1
        assert res.weights == (Fraction(1),)


def test_isotropic_mixture_crossover():
    u = uniform(CHSH_SHAPE)
    for w, expect_local in ((Fraction(1, 4), True), (Fraction(1, 2), True),
                            (Fraction(51, 100), False), (Fraction(3, 4), False)):
        box = mix(pr(), u, w)
        res = is_local(box)
        assert bool(res) == expect_local
        if expect_local:
            assert res.verify(box)
        else:
            assert res.value > res.threshold


def test_every_result_is_verified_on_random_boxes():
    rng = random.Random(41)
    strategies = enumerate_local_strategies(CHSH_SHAPE)
    for _ in range(12):
        box = Box(CHSH_SHAPE, _random_box_table(rng))
        res = is_local(box)
        if res:
            assert res.verify(box)
        else:
            assert res.verify(box, strategies)


def test_convex_membership():
    dets = [s.box() for s in enumerate_local_strategies(CHSH_SHAPE)]
    weights = convex_membership(uniform(CHSH_SHAPE), dets)
    assert weights is not None
    assert sum(weights.values()) == 1
    assert convex_membership(pr(), dets) is None
    with pytest.raises(ShapeError):
        convex_membership(dbox(3), dets)


def test_strategy_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_local_strategies(CHSH_SHAPE, cap=10)
    with pytest.raises(EnumerationCapError):
        enumerate_twoway_strategies(BoxShape.homogeneous(3, 2, 2), cap=100)
    with pytest.raises(ShapeError):
        enumerate_twoway_strategies(CHSH_SHAPE)


def test_svetlichny_values():
    assert svetlichny(svetlichny_box()) == 8
    assert svetlichny(xyz_box()) == 6
    assert svetlichny(xyplusz()) == 4
    assert svetlichny(two_way_vertex()) == 4
    with pytest.raises(ShapeError):
        svetlichny(pr())


def test_svetlichny_bound_is_tight_over_bipartition_strategies():
    shape = BoxShape.homogeneous(3, 2, 2)
    f = svetlichny_functional()
    best = max(evaluate_functional(s.box(), f)
               for s in enumerate_twoway_strategies(shape))
    assert best == f.local_bound == 4
    assert f.algebraic_max == 8


def test_two_way_vertex_has_a_bipartition_model():
    res = is_two_way_local(two_way_vertex())
    assert res
    assert res.verify(two_way_vertex())


def test_genuinely_multipartite_boxes_are_caught():
    shape = BoxShape.homogeneous(3, 2, 2)
    strategies = enumerate_twoway_strategies(shape)
    for box in (xyplusz(), svetlichny_box()):
        res = is_two_way_local(box)
        assert not res
        assert res.verify(box, strategies)
        assert res.value > res.threshold


def test_local_implies_two_way_local():
    from nsbox.locality import DeterministicStrategy
    shape = BoxShape.homogeneous(3, 2, 2)
    det = DeterministicStrategy(shape, ((0, 1), (1, 1), (0, 0))).box()
    other = DeterministicStrategy(shape, ((1, 0), (0, 0), (1, 1))).box()
    assert is_local(det)
    assert is_two_way_local(det)
    blend = mix(det, other, Fraction(1, 3))
    assert is_local(blend)
    assert is_two_way_local(blend)


# ------------------------------------------- strategy supports and the 0/1 matrix

TRIPARTITE = BoxShape.homogeneous(3, 2, 2)


def _reference_table(strategy):
    """The strategy's table from its definition, one entry at a time."""
    shape = strategy.shape

    def hit(outs, ins):
        if isinstance(strategy, locality.TwoWayStrategy):
            i, j = strategy.pair
            k = strategy.single
            want = strategy.pair_map[ins[i] * shape.inputs[j] + ins[j]]
            return ((outs[i], outs[j]) == want
                    and outs[k] == strategy.single_map[ins[k]])
        return all(outs[k] == strategy.assignments[k][ins[k]]
                   for k in range(shape.parties))
    return tuple(Fraction(int(hit(outs, ins))) for ins, outs in shape.entries())


def test_supports_match_the_strategy_definitions():
    shapes = (TRIPARTITE, BoxShape.from_string("2,3/3,2"))
    strategies = [s for shape in shapes for s in enumerate_local_strategies(shape)]
    strategies += enumerate_twoway_strategies(TRIPARTITE)
    for s in strategies:
        table = _reference_table(s)
        assert s.box().table == table
        assert s.support() == tuple(i for i, v in enumerate(table) if v)


def test_matrix_scores_match_fraction_dot_products():
    rng = random.Random(23)
    strategies = enumerate_twoway_strategies(TRIPARTITE)
    kept, matrix = locality._dedup_strategies(strategies)
    tables = [s.box().table for s in kept]
    assert len(kept) == len(set(tables)) == len({s.box().table for s in strategies})
    assert matrix.tolist() == [[int(v) for v in t] for t in tables]
    cert = is_two_way_local(xyplusz())
    size = TRIPARTITE.table_size
    vectors = [[int(c) for c in cert.coefficients],
               [rng.randint(-9, 9) for _ in range(size)],
               [rng.randint(-2 ** 70, 2 ** 70) for _ in range(size)]]
    for coeffs in vectors:
        exact = [Fraction(c) for c in coeffs]
        want = [sum(c * p for c, p in zip(exact, t)) for t in tables]
        assert locality._scores(coeffs, matrix) == want


def _correlator_form(signs):
    """Coefficients sign(x, y, z) * (-1)^(a+b+c), joint inputs in table
    order."""
    parity = [1, -1, -1, 1, -1, 1, 1, -1]
    return tuple(Fraction(s * p) for s in signs for p in parity)


def test_tripartite_certificates_are_pinned():
    """The separators found for the two stock boxes, as computed by the
    rational-tableau implementation."""
    want = {"xyplusz": (xyplusz(), (1, 1, 1, 0, 1, -1, -1, 0)),
            "svetlichny": (svetlichny_box(), (1, 1, 1, -1, 1, -1, 0, 0))}
    for name, (box, signs) in want.items():
        cert = is_two_way_local(box)
        assert cert.coefficients == _correlator_form(signs), name
        assert (cert.threshold, cert.value) == (4, 6), name
        assert type(cert.threshold) is Fraction and type(cert.value) is Fraction


def test_certificate_verify_scales_and_rejects():
    strategies = enumerate_local_strategies(CHSH_SHAPE)
    cert = is_local(pr())
    third = SeparatingCertificate(
        cert.shape, tuple(c / 3 for c in cert.coefficients),
        cert.threshold / 3, cert.value / 3)
    assert third.verify(pr(), strategies)
    low = SeparatingCertificate(cert.shape, third.coefficients,
                                third.threshold - Fraction(1, 10**9),
                                third.value)
    assert not low.verify(pr(), strategies)
    with pytest.raises(ShapeError):
        cert.verify(pr(), enumerate_local_strategies(TRIPARTITE))


def test_results_are_verified_before_they_are_returned(monkeypatch):
    monkeypatch.setattr(SeparatingCertificate, "verify",
                        lambda self, box, strategies: False)
    with pytest.raises(AssertionError):
        is_local(pr())
    monkeypatch.setattr(locality.LocalModel, "verify", lambda self, box: False)
    with pytest.raises(AssertionError):
        is_local(uniform(CHSH_SHAPE))


def test_strategy_matrix_is_cached_read_only():
    locality._strategy_matrix.cache_clear()
    boxes = (two_way_vertex(), svetlichny_box())
    first = [is_two_way_local(b) for b in boxes]
    kept, matrix = locality._strategy_matrix(enumerate_twoway_strategies,
                                             TRIPARTITE, 200_000)
    assert locality._strategy_matrix.cache_info().hits >= 1
    assert [is_two_way_local(b) for b in boxes] == first
    assert first[0] and not first[1]
    want_kept, want_matrix = locality._dedup_strategies(
        enumerate_twoway_strategies(TRIPARTITE))
    assert kept == tuple(want_kept)
    assert matrix.tolist() == want_matrix.tolist()
    with pytest.raises(ValueError):
        matrix[0, 0] = 1
    assert is_local(pr()) == is_local(pr())
    with pytest.raises(ValueError):
        locality._strategy_matrix(enumerate_local_strategies, CHSH_SHAPE,
                                  200_000)[1][0, 0] = 1


def test_answers_are_verified_from_the_supports(monkeypatch):
    # a matrix whose first two rows are swapped no longer matches the
    # strategies' supports, which the verification reads
    kept, matrix = locality._strategy_matrix(enumerate_local_strategies,
                                             CHSH_SHAPE, 200_000)
    swapped = matrix.copy()
    swapped[[0, 1]] = matrix[[1, 0]]
    monkeypatch.setattr(locality, "_strategy_matrix",
                        lambda *args: (kept, swapped))
    with pytest.raises(AssertionError):
        is_local(kept[0].box())


# ------------------------------------------- the loop against the earlier solver

def _reference_membership(box, strategies, constant_rows):
    """Membership as solved before one column-generation loop served both
    answers: one feasibility LP over every strategy, then for a
    certificate the visibility LP (600 strategies or fewer) or column
    generation started from the 64 strategies of highest merit."""
    box.require_valid()
    strategies, matrix = locality._dedup_strategies(strategies)
    weights = locality._mixture_weights(box.table, matrix)
    if weights is not None:
        kept = sorted(weights)
        return locality.LocalModel(tuple(strategies[j] for j in kept),
                                   tuple(weights[j] for j in kept))
    if len(strategies) <= 600:
        return _reference_visibility(box, matrix, constant_rows)
    return _reference_colgen(box, matrix, constant_rows)


def _reference_visibility(box, matrix, constant_rows):
    """Separator from the dual of the LP that moves from uniform towards
    the box as far as the strategies' mixtures reach."""
    u = uniform(box.shape).table
    k = len(matrix)
    rows = [col + [ui - p, 0]
            for col, ui, p in zip(matrix.T.tolist(), u, box.table)]
    rows += [[1] * k + [0, 0], [0] * k + [1, 1]]
    res = maximize(rows, list(u) + [1, 1], [0] * k + [1, 0])
    assert res.status == "optimal" and res.objective < 1
    return locality._normalized_separator(
        [-y for y in res.dual[:box.shape.table_size]], box, matrix,
        constant_rows)


def _reference_colgen(box, matrix, constant_rows):
    """Separator from Farkas duals of subset LPs, 64 new columns a round."""
    centred = [p - u for p, u in zip(box.table, uniform(box.shape).table)]
    merit = locality._scores(clear_denominators(centred), matrix)
    active = sorted(range(len(matrix)), key=merit.__getitem__,
                    reverse=True)[:64]
    while True:
        res = find_nonneg_solution(matrix[active].T.tolist(), list(box.table))
        assert res.status == "infeasible"
        cert = locality._normalized_separator([-y for y in res.dual], box,
                                              matrix, constant_rows)
        if cert.value > cert.threshold:
            return cert
        scores = locality._scores([int(c) for c in cert.coefficients], matrix)
        cutoff = max(scores[j] for j in active)
        violators = sorted((j for j in range(len(matrix))
                            if j not in active and scores[j] > cutoff),
                           key=scores.__getitem__, reverse=True)
        assert violators
        active += violators[:64]


def _check_against_reference(box, two_way=False):
    if two_way:
        strategies = enumerate_twoway_strategies(box.shape)
        rows = [list(r) for r in normalization_rows(box.shape)]
        got = is_two_way_local(box)
    else:
        strategies = enumerate_local_strategies(box.shape)
        rows = [list(r) for r, _ in build_hrep(box.shape).equalities]
        got = is_local(box)
    want = _reference_membership(box, strategies, rows)
    assert bool(got) == bool(want)
    for res in (got, want):
        assert res.verify(box) if res else res.verify(box, strategies)
    return got


def test_loop_matches_the_reference_across_visibility_one_half():
    verdicts = {}
    for name, top in (("pr", pr()), ("dbox3", dbox(3)),
                      ("svetlichny", svetlichny_box())):
        for w in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 16),
                  Fraction(3, 4)):
            box = mix(top, uniform(top.shape), w)
            verdicts[name, w] = bool(_check_against_reference(box))
    assert verdicts["pr", Fraction(1, 2)] and not verdicts["pr", Fraction(9, 16)]
    assert not any(verdicts[name, Fraction(3, 4)]
                   for name in ("pr", "dbox3", "svetlichny"))


def _random_tripartite_box(rng):
    """A seeded mixture of deterministic and genuinely tripartite boxes,
    mostly without full support."""
    tops = [xyplusz(), svetlichny_box(), two_way_vertex(), xyz_box()]
    tops += [locality.DeterministicStrategy(
        TRIPARTITE, tuple(tuple(rng.randrange(2) for _ in range(2))
                          for _ in range(3))).box() for _ in range(4)]
    picks = rng.sample(tops, 3)
    weights = [Fraction(rng.randint(1, 6)) for _ in picks]
    box = picks[0]
    total = weights[0]
    for b, w in zip(picks[1:], weights[1:]):
        total += w
        box = mix(b, box, w / total)
    return box


def test_loop_matches_the_reference_on_random_boxes():
    rng = random.Random(97)
    for _ in range(6):
        _check_against_reference(Box(CHSH_SHAPE, _random_box_table(rng)))
    for _ in range(6):
        box = _random_tripartite_box(rng)
        _check_against_reference(box)
        _check_against_reference(box, two_way=True)


def test_loop_matches_the_reference_on_full_support_two_way_boxes():
    u = uniform(TRIPARTITE)
    for top, w in ((svetlichny_box(), Fraction(50, 64)),
                   (svetlichny_box(), Fraction(60, 64)),
                   (mix(xyplusz(), svetlichny_box(), Fraction(1, 2)),
                    Fraction(3, 4))):
        box = mix(top, u, w)
        assert all(box.table)
        assert not _check_against_reference(box, two_way=True)


@pytest.mark.slow
def test_loop_matches_the_reference_on_a_full_support_two_way_model():
    box = mix(svetlichny_box(), uniform(TRIPARTITE), Fraction(31, 64))
    assert _check_against_reference(box, two_way=True)
