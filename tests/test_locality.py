import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace
from itertools import product as iproduct

import numpy as np
import pytest

from nsbox.boxes import Box, BoxShape, ShapeError, _numerators, mix
from nsbox.dd import EnumerationCapError
from nsbox.families import (dbox, local_deterministic, pr, svetlichny_box,
                            two_way_vertex, uniform, xyplusz, xyz_box)
from nsbox import linalg, locality
from nsbox.linalg import _int_array, _int_products, _projector, clear_denominators
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


def _reference_chsh(box, alpha, beta, gamma):
    """CHSH as chsh summed it before it evaluated the coefficient form: the
    signed correlators."""
    signs = {(0, 0): (-1) ** gamma, (0, 1): (-1) ** (beta + gamma),
             (1, 0): (-1) ** (alpha + gamma), (1, 1): (-1) ** (alpha + beta + gamma + 1)}
    return sum(s * correlator(box, ins) for ins, s in signs.items())


@pytest.mark.parametrize("box", [pr(), uniform(CHSH_SHAPE), local_deterministic(1, 0, 1, 1)],
                         ids=["pr", "uniform", "deterministic"])
def test_chsh_is_the_functional_on_every_sign_choice(box):
    for bits in iproduct(range(2), repeat=3):
        got = chsh(box, *bits)
        assert got == _reference_chsh(box, *bits)
        assert type(got) is Fraction


@pytest.mark.parametrize("bad", [1.0, True, np.float64(0), "1"])
def test_bit_parameters_must_be_integers(bad):
    for call in (lambda: chsh(pr(), bad, 0, 0), lambda: chsh_functional(0, bad, 0),
                 lambda: svetlichny_functional(bad), lambda: pr(bad),
                 lambda: local_deterministic(0, 0, 0, bad)):
        with pytest.raises(ShapeError):
            call()


def test_bit_parameters_take_numpy_integers():
    assert chsh(pr(), np.int64(0), 0, 0) == 4
    assert pr(np.int64(1)) == pr(1)
    assert svetlichny_functional(np.int64(1)) == svetlichny_functional(1)


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


def _reference_local_strategies(shape):
    """The deterministic strategies as enumerate_local_strategies listed
    them before the strategy table: an iproduct per party, then over
    parties."""
    per_party = [[tuple(c) for c in iproduct(*[range(d) for d in outs])]
                 for outs in shape.outputs]
    return tuple(locality.DeterministicStrategy(shape, a) for a in iproduct(*per_party))


def _reference_twoway_strategies(shape):
    """The bipartition strategies as enumerate_twoway_strategies listed
    them before the strategy table: per single party, an iproduct over the
    pair's joint outputs at each pair input, then over the single party's
    outputs."""
    out = []
    for single in range(3):
        i, j = [k for k in range(3) if k != single]
        pair_choices = iproduct(*[
            [(ai, aj) for ai in range(shape.outputs[i][xi]) for aj in range(shape.outputs[j][xj])]
            for xi in range(shape.inputs[i]) for xj in range(shape.inputs[j])])
        pair_choices = [tuple(c) for c in pair_choices]
        single_choices = list(iproduct(*[range(d) for d in shape.outputs[single]]))
        out += [locality.TwoWayStrategy(shape, (i, j), single, pm, sm)
                for pm in pair_choices for sm in single_choices]
    return tuple(out)


def _reference_support(strategy):
    """The support as the per-block loops built it: one ``shape.index``
    per joint input."""
    shape = strategy.shape
    out = []
    for ins in shape.joint_inputs:
        if isinstance(strategy, locality.TwoWayStrategy):
            (i, j), k = strategy.pair, strategy.single
            outs = [0] * 3
            outs[i], outs[j] = strategy.pair_map[ins[i] * shape.inputs[j] + ins[j]]
            outs[k] = strategy.single_map[ins[k]]
        else:
            outs = [a[x] for a, x in zip(strategy.assignments, ins)]
        out.append(shape.index(outs, ins))
    return tuple(out)


def _reference_dedup(strategies):
    """The strategies with distinct supports, first of each kept, and their
    0/1 matrix, as the membership tests deduplicated them before the
    strategy table."""
    seen = {}
    for s in strategies:
        seen.setdefault(_reference_support(s), s)
    matrix = np.zeros((len(seen), strategies[0].shape.table_size), dtype=np.int64)
    for row, support in zip(matrix, seen):
        row[list(support)] = 1
    return list(seen.values()), matrix


def test_supports_are_computed_in_bulk_from_the_fields():
    """Mixed kinds and bipartitions in one call, on new objects with
    nothing computed yet."""
    strategies = [*enumerate_twoway_strategies(TRIPARTITE)[::7],
                  *enumerate_local_strategies(TRIPARTITE)]
    random.Random(3).shuffle(strategies)
    fresh = [dataclasses.replace(s) for s in strategies]
    want = [_reference_support(s) for s in strategies]
    assert [tuple(row) for row in locality._supports(fresh).tolist()] == want
    assert [s.support() for s in fresh] == want


def _random_shape(rng, parties):
    """Up to three inputs a party with one to three outputs each, so output
    counts are uneven and some inputs have a single output."""
    return BoxShape(tuple(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
                          for _ in range(parties)))


@pytest.mark.parametrize("kind", ["local", "twoway"])
def test_strategy_table_matches_the_reference_on_seeded_shapes(kind):
    rng = random.Random(f"table/{kind}")
    enumerate_, reference = {
        "local": (enumerate_local_strategies, _reference_local_strategies),
        "twoway": (enumerate_twoway_strategies, _reference_twoway_strategies)}[kind]
    checked = []
    while len(checked) < 12:
        shape = _random_shape(rng, 3 if kind == "twoway" else rng.randint(1, 3))
        try:
            got = enumerate_(shape, cap=3000)
        except EnumerationCapError:
            continue
        want = reference(shape)
        assert got == want
        assert [s.support() for s in got] == [_reference_support(s) for s in want]
        record = locality._strategy_record(kind, shape, 3000)
        want_kept, want_matrix = _reference_dedup(want)
        assert record.strategies == tuple(want_kept)
        assert record.matrix.tolist() == want_matrix.tolist()
        checked.append(shape)
    counts = [set(p) for shape in checked for p in shape.outputs]
    assert any(1 in p for p in counts) and any(len(p) > 1 for p in counts)


def test_strategy_counts_are_refused_before_any_array():
    # 2**40 strategies: 40 binary inputs, plus the exact two-way sum
    shape = BoxShape.from_string("20:2/20:2")
    with pytest.raises(EnumerationCapError, match="1099511627776 local"):
        enumerate_local_strategies(shape)
    with pytest.raises(EnumerationCapError, match="1099511627776 local"):
        is_local(uniform(shape))
    with pytest.raises(EnumerationCapError, match="3072 twoway"):
        enumerate_twoway_strategies(TRIPARTITE, cap=3071)
    assert len(enumerate_twoway_strategies(TRIPARTITE, cap=3072)) == 3072


@pytest.mark.parametrize("cap", [2.5, True, "16"])
def test_strategy_caps_must_be_integers(cap):
    with pytest.raises(ShapeError):
        enumerate_local_strategies(CHSH_SHAPE, cap=cap)
    with pytest.raises(ShapeError):
        is_local(pr(), cap=cap)


def _python_verify(cert, box, supports):
    """SeparatingCertificate.verify as a Python sum per strategy support."""
    *coeffs, bound = clear_denominators([*cert.coefficients, cert.threshold])
    return (cert.evaluate(box) == cert.value and cert.value > cert.threshold
            and all(sum(coeffs[i] for i in support) <= bound for support in supports))


def test_certificate_scores_match_the_python_sum():
    """Seeded forms over the two-way strategies: top times the xyplusz
    separator plus noise, so xyplusz beats every strategy.  max |coefficient|
    times the 8 joint inputs stays below 2**62 for the first two tops (the
    int64 gather, the second near the guard) and passes it for the others
    (Python ints).  Thresholds at, below and above the exact maximum."""
    rng = random.Random(62)
    strategies = enumerate_twoway_strategies(TRIPARTITE)
    supports = [_reference_support(s) for s in strategies]
    box = xyplusz()
    direction = is_two_way_local(box).coefficients
    for top in (2 ** 20, 2 ** 58, 2 ** 59, 2 ** 70):
        for _ in range(2):
            coeffs = tuple(top * d + rng.randint(-top // 16, top // 16) for d in direction)
            best = max(sum(coeffs[i] for i in support) for support in supports)
            value = sum(c * p for c, p in zip(coeffs, box.table))
            assert value > best
            results = []
            for threshold in (best, best - 1, value - 1, Fraction(2 * best - 1, 2)):
                cert = SeparatingCertificate(TRIPARTITE, coeffs, threshold, value)
                results.append(cert.verify(box, strategies))
                assert results[-1] == _python_verify(cert, box, supports)
            assert results == [True, False, True, False]
    cert = is_two_way_local(box)
    assert cert.verify(box, strategies) and cert.verify(box, iter(strategies))
    assert cert.verify(box, ())


def test_mixture_matches_the_fraction_sum():
    """Numerators over a common denominator below 2**62 (int64 scatter)
    and past it (Python ints)."""
    rng = random.Random(5)
    strategies = enumerate_twoway_strategies(TRIPARTITE)
    for top in (9, 2 ** 66):
        picks = rng.sample(strategies, 5)
        nums = [rng.randint(1, top) for _ in picks]
        weights = tuple(Fraction(n, sum(nums)) for n in nums)
        model = locality.LocalModel(tuple(picks), weights)
        table = [Fraction(0)] * TRIPARTITE.table_size
        for w, s in zip(weights, picks):
            for i in _reference_support(s):
                table[i] += w
        assert model.mixture().table == tuple(table)
        assert model.verify(Box(TRIPARTITE, table))


def test_matrix_scores_match_fraction_dot_products():
    rng = random.Random(23)
    strategies = enumerate_twoway_strategies(TRIPARTITE)
    record = locality._strategy_record("twoway", TRIPARTITE, 200_000)
    tables = [s.box().table for s in record.strategies]
    assert len(tables) == len(set(tables)) == len({s.box().table for s in strategies})
    assert record.matrix.tolist() == [[int(v) for v in t] for t in tables]
    cert = is_two_way_local(xyplusz())
    size = TRIPARTITE.table_size
    vectors = [[int(c) for c in cert.coefficients],
               [rng.randint(-9, 9) for _ in range(size)],
               [rng.randint(-2 ** 70, 2 ** 70) for _ in range(size)]]
    for coeffs in vectors:
        exact = [Fraction(c) for c in coeffs]
        want = [sum(c * p for c, p in zip(exact, t)) for t in tables]
        assert locality._scores(coeffs, record).tolist() == want


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
    monkeypatch.setattr(SeparatingCertificate, "_verify",
                        lambda self, box, supports: False)
    with pytest.raises(AssertionError):
        is_local(pr())
    monkeypatch.setattr(locality.LocalModel, "verify", lambda self, box: False)
    with pytest.raises(AssertionError):
        is_local(uniform(CHSH_SHAPE))


def test_strategy_matrix_is_cached_read_only():
    locality._class_record.cache_clear()
    boxes = (two_way_vertex(), svetlichny_box())
    first = [is_two_way_local(b) for b in boxes]
    record = locality._strategy_record("twoway", TRIPARTITE, 200_000)
    assert locality._class_record.cache_info().hits >= 1
    assert [is_two_way_local(b) for b in boxes] == first
    assert first[0] and not first[1]
    want_kept, want_matrix = _reference_dedup(enumerate_twoway_strategies(TRIPARTITE))
    assert record.strategies == tuple(want_kept)
    assert record.matrix.tolist() == want_matrix.tolist()
    assert record.supports.tolist() == [list(_reference_support(s)) for s in want_kept]
    for array in (record.matrix, record.supports, record.projector):
        with pytest.raises(ValueError):
            array[0, 0] = 1
    assert is_local(pr()) == is_local(pr())
    with pytest.raises(ValueError):
        locality._strategy_record("local", CHSH_SHAPE, 200_000).matrix[0, 0] = 1
    # the cap is checked before the lookup and is no part of the key
    misses = locality._class_record.cache_info().misses
    assert locality._strategy_record("twoway", TRIPARTITE, 3072) is record
    with pytest.raises(EnumerationCapError, match="3072 twoway strategies exceed the cap of 3071"):
        locality._strategy_record("twoway", TRIPARTITE, 3071)
    assert is_two_way_local(svetlichny_box(), cap=5000) == first[1]
    assert locality._class_record.cache_info().misses == misses


def test_later_certificates_of_a_class_reuse_its_record(monkeypatch):
    """The supports and the projector are made on a class's first
    certificate; later ones stack no support and eliminate nothing."""
    calls = {"_supports": 0, "_eliminate": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    spy(locality, "_supports")
    spy(linalg, "_eliminate")
    locality._class_record.cache_clear()
    for test, top, other in ((is_local, pr(), pr(1, 0, 1)),
                             (is_two_way_local, xyplusz(), svetlichny_box())):
        assert not test(top) and calls["_supports"] and calls["_eliminate"]
        calls.update(_supports=0, _eliminate=0)
        for box in (top, other, mix(other, uniform(top.shape), Fraction(7, 8))):
            assert not test(box)
        assert calls == {"_supports": 0, "_eliminate": 0}


def test_ranks_match_the_sorted_reference():
    """Merit and violator selection by ``_best_first`` against the stable
    ``sorted(..., reverse=True)`` loops they replaced, on seeded scores drawn
    from a few values (many ties), int64 and past it (Python ints)."""
    rng = random.Random(41)
    joined = 0
    for dtype, top in ((np.int64, 3), (object, 2 ** 70)):
        pool = [rng.randint(-top, top) for _ in range(5)]
        for _ in range(40):
            n = rng.randint(1, 300)
            values = [rng.choice(pool) for _ in range(n)]
            scores = np.array(values, dtype)
            merit = sorted(sorted(range(n), key=values.__getitem__, reverse=True)[:64])
            assert np.sort(locality._best_first(scores, np.arange(n))[:64]).tolist() == merit
            active = rng.sample(sorted(range(n), key=values.__getitem__)[:n // 2 + 1],
                                rng.randint(1, n // 2 + 1))
            cutoff = max(values[j] for j in active)
            want = sorted((j for j in range(n) if j not in active and values[j] > cutoff),
                          key=values.__getitem__, reverse=True)[:len(active)]
            inactive = np.ones(n, bool)
            inactive[active] = False
            over = np.flatnonzero(inactive & (scores > scores[active].max()))
            assert locality._best_first(scores, over)[:len(active)].tolist() == want
            joined += len(want)
    assert joined > 100


def test_answers_are_verified_from_the_supports(monkeypatch):
    # a matrix whose first two rows are swapped no longer matches the
    # strategies' supports, which the verification reads
    record = locality._strategy_record("local", CHSH_SHAPE, 200_000)
    swapped = record.matrix.copy()
    swapped[[0, 1]] = record.matrix[[1, 0]]
    fake = locality._StrategyRecord("local", CHSH_SHAPE, record.strategies, swapped)
    monkeypatch.setattr(locality, "_strategy_record", lambda *args: fake)
    with pytest.raises(AssertionError):
        is_local(record.strategies[0].box())


def test_the_private_check_rejects_what_verify_rejects():
    """``_verify`` on a record's supports, as ``_membership`` calls it,
    against the public ``verify`` on the strategies: the xyplusz separator
    passes both, one threshold below fails both, and so does a form that
    one strategy scores above the threshold (on an entry where the box is
    zero, so its value stays)."""
    box = xyplusz()
    strategies = enumerate_twoway_strategies(TRIPARTITE)
    record = locality._strategy_record("twoway", TRIPARTITE, 200_000)
    cert = is_two_way_local(box)
    assert cert._verify(box, record.supports) and cert.verify(box, strategies)
    below = dataclasses.replace(cert, threshold=cert.threshold - 1)
    coeffs = list(cert.coefficients)
    support = next(s for s in record.supports.tolist() if min(box.table[i] for i in s) == 0)
    coeffs[next(i for i in support if box.table[i] == 0)] += 1 + cert.threshold - sum(
        coeffs[i] for i in support)
    above = dataclasses.replace(cert, coefficients=tuple(coeffs))
    assert above.evaluate(box) == above.value > above.threshold
    for bad in (below, above):
        assert not bad._verify(box, record.supports)
        assert not bad.verify(box, strategies)


# ------------------------------------------- the loop against the earlier solver

def _reference_membership(box, strategies, constant_rows):
    """Membership as solved before one column-generation loop served both
    answers: one feasibility LP over every strategy, then for a
    certificate the visibility LP (600 strategies or fewer) or column
    generation started from the 64 strategies of highest merit."""
    box.require_valid()
    strategies, matrix = _reference_dedup(strategies)
    weights = locality._mixture_weights(box.table, matrix)
    if weights is not None:
        kept = sorted(weights)
        return locality.LocalModel(tuple(strategies[j] for j in kept),
                                   tuple(weights[j] for j in kept))
    if len(strategies) <= 600:
        return _reference_visibility(box, matrix, constant_rows)
    return _reference_colgen(box, matrix, constant_rows)


def _matrix_scores(coeffs, matrix):
    """Integer coefficients dotted with every row of a strategy matrix."""
    return _int_products(_int_array([coeffs]), matrix)[0].tolist()


def _separator(dual, box, matrix, constant_rows):
    """``locality._normalized_separator`` on a Fraction dual vector and rows
    of rationals, each cleared to integers at the call, with the matrix and
    the rows' projector standing in for a record."""
    rows = np.array([clear_denominators(r) for r in constant_rows], np.int64)
    record = SimpleNamespace(shape=box.shape, matrix=matrix, joint=len(box.shape.joint_inputs),
                             projector=_projector(rows))
    return locality._normalized_separator(
        clear_denominators([-y for y in dual]), *_numerators(box.table), record)


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
    return _separator(res.dual[:box.shape.table_size], box, matrix, constant_rows)


def _reference_colgen(box, matrix, constant_rows):
    """Separator from Farkas duals of subset LPs, 64 new columns a round."""
    centred = [p - u for p, u in zip(box.table, uniform(box.shape).table)]
    merit = _matrix_scores(clear_denominators(centred), matrix)
    active = sorted(range(len(matrix)), key=merit.__getitem__,
                    reverse=True)[:64]
    while True:
        res = find_nonneg_solution(matrix[active].T.tolist(), list(box.table))
        assert res.status == "infeasible"
        cert = _separator(res.dual, box, matrix, constant_rows)
        if cert.value > cert.threshold:
            return cert
        scores = _matrix_scores([int(c) for c in cert.coefficients], matrix)
        cutoff = max(scores[j] for j in active)
        violators = sorted((j for j in range(len(matrix))
                            if j not in active and scores[j] > cutoff),
                           key=scores.__getitem__, reverse=True)
        assert violators
        active += violators[:64]


def _check_against_reference(box, two_way=False):
    if two_way:
        strategies = enumerate_twoway_strategies(box.shape)
        rows = normalization_rows(box.shape).tolist()
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
