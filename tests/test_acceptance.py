"""End-to-end gate: one test per shipped guarantee, exact arithmetic only."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iproduct

import pytest

from nsbox.boxes import Box, BoxShape, marginal, mix
from nsbox.comm import min_oneway_comm_with_SR
from nsbox.dd import extreme_rays
from nsbox.extend import all_extensions_factorize
from nsbox.families import (dbox, local_deterministic, pr, svetlichny_box,
                            two_way_vertex, uniform, xyplusz, xyz_box)
from nsbox.fileio import (dumps_box, dumps_functional, dumps_wiring,
                          loads_box, loads_functional, loads_wiring)
from nsbox.locality import (chsh, chsh_functional, convex_membership,
                            enumerate_local_strategies,
                            enumerate_twoway_strategies, is_local,
                            is_two_way_local, svetlichny)
from nsbox.polytope import (build_hrep, classify_vertices, dimension,
                            enumerate_vertices, kbox_census)
from nsbox.relabel import (Relabelling, compose, equivalent_under_relabelling,
                           group, inverse)
from nsbox.wiring import evaluate_wiring, preset, protocol3_error
from wiring_helpers import random_wiring

CHSH_SHAPE = BoxShape.homogeneous(2, 2, 2)
TRI_SHAPE = BoxShape.homogeneous(3, 2, 2)


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    assert time.monotonic() - t0 < seconds


def test_01_chsh_polytope_dimension_and_vertices():
    with budget(1.0):
        assert dimension(CHSH_SHAPE) == 8
        vrep = enumerate_vertices(build_hrep(CHSH_SHAPE))
        assert len(vrep.vertices) == 24
        classes = classify_vertices(vrep)
        assert sorted(c.size for c in classes) == [8, 16]
        nondet = [b for b in vrep.vertices if not b.is_deterministic()]
        assert len(nondet) == 8
        for box in nondet:
            assert set(box.table) <= {Fraction(0), Fraction(1, 2)}


def test_02_vertices_meet_the_chsh_facets():
    with budget(1.0):
        vrep = enumerate_vertices(build_hrep(CHSH_SHAPE))
        for box in vrep.vertices:
            values = [chsh(box, a, b, g)
                      for a, b, g in iproduct(range(2), repeat=3)]
            if box.is_deterministic():
                assert all(-2 <= v <= 2 for v in values)
            else:
                assert sum(1 for v in values if v == 4) == 1
                assert all(v <= 2 for v in values if v != 4)


def test_03_every_three_output_vertex_is_a_kbox():
    with budget(300.0):
        census = kbox_census((3, 3), (3, 3))
        assert census.vertex_count == 1161
        assert len(census.classes) == 3
        assert census.all_nonlocal_matched
        by_k = {c.k: c for c in census.classes}
        assert set(by_k) == {None, 2, 3}
        assert by_k[None].size == 81
        assert by_k[2].size == 648 and by_k[2].lifted
        assert by_k[3].size == 432 and not by_k[3].lifted


def _pair_times_single(shape, pair, single, pair_box, single_map):
    """The box where `pair` jointly plays a bipartite box and the remaining
    party answers deterministically."""
    i, j = pair

    def fn(outs, ins):
        if outs[single] != single_map[ins[single]]:
            return Fraction(0)
        return pair_box.table[pair_box.shape.index((outs[i], outs[j]),
                                                   (ins[i], ins[j]))]
    return Box.from_function(shape, fn)


@pytest.mark.slow
def test_04_tripartite_polytope_classification():
    with budget(1.0):
        assert dimension(TRI_SHAPE) == 26
    with budget(12 * 3600.0):
        vrep = enumerate_vertices(build_hrep(TRI_SHAPE),
                                  time_budget=12 * 3600)
        assert len(vrep.vertices) == 53856
        classes = classify_vertices(vrep)
        assert len(classes) == 46

        # Decompositions witnessing two-way locality: one pair of parties
        # shares an extremal no-signalling box, the third answers alone.
        # (Letting the pair signal internally instead would admit a wider
        # hull that swallows several of the three-way classes below.)
        pair_vertices = enumerate_vertices(build_hrep(CHSH_SHAPE)).vertices
        products = {}
        for single in range(3):
            pair = tuple(k for k in range(3) if k != single)
            for pv in pair_vertices:
                for sm in iproduct(range(2), repeat=2):
                    box = _pair_times_single(TRI_SHAPE, pair, single, pv, sm)
                    products[box.table] = box
        candidates = list(products.values())
        assert len(candidates) == 160

        local_classes = 0
        two_way_classes = 0
        three_way_classes = 0
        for cls in classes:
            rep = cls.representative
            if rep.is_deterministic():
                local_classes += 1
            elif convex_membership(rep, candidates) is not None:
                two_way_classes += 1
                assert equivalent_under_relabelling(
                    rep, two_way_vertex()) is not None
            else:
                three_way_classes += 1
        assert local_classes == 1
        assert two_way_classes == 1
        assert three_way_classes == 44


def test_05_protocol_suite_reproduces_the_named_boxes():
    with budget(1.0):
        assert evaluate_wiring(preset("P1", 2, 2)).table == dbox(4).table
    with budget(1.0):
        eight = evaluate_wiring(preset("P1", 2, 4))
        assert evaluate_wiring(preset("P2", 2, 4),
                               components=[eight]).table == pr().table
    with budget(1.0):
        assert evaluate_wiring(preset("P5")).table == xyplusz().table
    with budget(1.0):
        assert evaluate_wiring(preset("P6")).table == svetlichny_box().table
    with budget(1.0):
        assert evaluate_wiring(preset("P7")).table == xyz_box().table


def test_06_chained_conversion_error_decays():
    with budget(60.0):
        assert protocol3_error(2, 4, 2) == 0
        errors = [protocol3_error(2, 3, n) for n in range(2, 7)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[4] / errors[1] < Fraction(1, 4)


def test_07_one_bit_is_needed_and_enough():
    with budget(10.0):
        assert min_oneway_comm_with_SR(pr(), 2) == 1
        assert min_oneway_comm_with_SR(dbox(3), 2) == 1
        for bits in iproduct(range(2), repeat=4):
            box = local_deterministic(*bits)
            assert min_oneway_comm_with_SR(box, 2) == 0


def test_08_svetlichny_values():
    with budget(1.0):
        assert svetlichny(svetlichny_box()) == 8
        assert svetlichny(xyz_box()) == 6
        assert svetlichny(xyplusz()) <= 4


def test_09_locality_lp_with_verified_answers():
    with budget(1.0):
        res = is_local(pr())
        assert not res
        assert res.value == 4
        assert res.threshold == 2
        assert res.verify(pr(), enumerate_local_strategies(CHSH_SHAPE))

        at_half = mix(pr(), uniform(CHSH_SHAPE), Fraction(1, 2))
        model = is_local(at_half)
        assert model and model.verify(at_half)

        above = mix(pr(), uniform(CHSH_SHAPE), Fraction(51, 100))
        cert = is_local(above)
        assert not cert
        assert cert.value > cert.threshold


def test_10_extremal_boxes_are_monogamous():
    with budget(60.0):
        for base in (pr(), dbox(3)):
            for env_in, env_out in iproduct((1, 2), (2, 3)):
                ok, witness = all_extensions_factorize(base, env_in, env_out)
                assert ok and witness is None
        ok, witness = all_extensions_factorize(uniform(CHSH_SHAPE), 1, 2)
        assert not ok
        witness.require_valid()
        assert marginal(witness, (0, 1)) == uniform(CHSH_SHAPE)


def test_11_property_suites():
    rng = random.Random(2024)
    for _ in range(1000):
        evaluate_wiring(random_wiring(rng)).require_valid()

    members = group(CHSH_SHAPE)
    assert len(members) == 128
    ident = Relabelling.identity(CHSH_SHAPE)
    for r in rng.sample(members, 12):
        assert compose(r, inverse(r)) == ident

    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
            [1, 1, -1, 0], [0, 1, 1, -1], [2, 0, 0, -1]]
    reference = extreme_rays(rows)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert extreme_rays(shuffled) == reference

    for text, loads in ((dumps_box(pr()), loads_box),
                        (dumps_functional(chsh_functional()),
                         loads_functional),
                        (dumps_wiring(preset("P5")), loads_wiring)):
        again = loads(text)
        assert (dumps_box(again) if loads is loads_box else
                dumps_functional(again) if loads is loads_functional else
                dumps_wiring(again)) == text


@pytest.mark.slow
def test_12_every_four_output_vertex_is_a_kbox():
    # the paper's theorem at d = 4: one deterministic orbit and one orbit of
    # relabelled (lifted) k-boxes for each k = 2, 3, 4
    with budget(12 * 3600.0):
        census = kbox_census((4, 4), (4, 4))
        assert census.vertex_count == 204160
        assert census.all_nonlocal_matched
        assert {c.k: (c.size, c.lifted) for c in census.classes} == {
            None: (256, True), 2: (10368, True), 3: (110592, True),
            4: (82944, False)}


def test_13_full_support_two_way_box_within_budget():
    box = mix(xyplusz(), uniform(TRI_SHAPE), Fraction(50, 64))
    with budget(2.0):
        cert = is_two_way_local(box)
    assert not cert
    assert cert.value > cert.threshold
    assert cert.verify(box, enumerate_twoway_strategies(TRI_SHAPE))
