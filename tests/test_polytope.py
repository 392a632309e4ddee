import random
from fractions import Fraction
from itertools import chain, repeat
from itertools import product as iproduct
from types import SimpleNamespace

import numpy as np
import pytest

from fraction_linalg import nullspace
from nsbox import dd, polytope, relabel
from nsbox.boxes import Box, BoxShape, InvalidBoxError, ShapeError, mix
from nsbox.families import dbox, local_deterministic, pr, uniform
from nsbox.dd import EnumerationCapError, extreme_rays
from nsbox.linalg import clear_denominators, int_rank
from nsbox.polytope import (HPolytope, VRep, _homogenized_cone, _symmetry_maps,
                            _VertexSet, build_hrep, classify_vertices,
                            dimension, enumerate_vertices, is_extremal,
                            kbox_census, lift_box, normalization_rows)
from nsbox.relabel import apply_relabelling, group, orbit

CHSH_SHAPE = BoxShape.homogeneous(2, 2, 2)


def test_dimension_table():
    assert dimension(CHSH_SHAPE) == 8
    assert dimension(BoxShape.homogeneous(2, 2, 3)) == 24
    assert dimension(BoxShape(((2, 2), (3, 3)))) == 14
    assert dimension(BoxShape.homogeneous(3, 2, 2)) == 26


@pytest.mark.parametrize("text", ["2,2/2,2", "3,2,4", "2,3/3,2", "2,2/2,2/3",
                                  "1/1", "3,4/3,4", "2,2,2/2,2,2", "1,2/2"])
def test_dimension_matches_the_rank_of_the_hrep(text):
    shape = BoxShape.from_string(text)
    h = build_hrep(shape)
    rows = [clear_denominators(list(row)) for row, _ in h.equalities]
    assert dimension(shape) == shape.table_size - int_rank(rows)
    assert len(h.equalities) == polytope._equality_count(shape)


def test_hrep_size_is_checked_before_the_rows_are_built(monkeypatch):
    def unreachable(shape):
        raise AssertionError("rows built before the size check")
    monkeypatch.setattr(polytope, "_equality_rows", unreachable)
    shape = BoxShape.from_string("65536:2/2")
    with pytest.raises(ShapeError, match="H-representation"):
        build_hrep(shape)
    assert dimension(shape) == 131073


def test_unbounded_sets_are_refused():
    for h in (HPolytope(2, (((1, -1), 0),)),
              HPolytope(3, (((1, -1, 0), 1),)),
              HPolytope(2, (((1, -1), 0),), BoxShape(((2,),)))):
        with pytest.raises(ShapeError, match="unbounded"):
            enumerate_vertices(h)
    # empty, although its recession cone is not
    empty = HPolytope(3, (((1, -1, 0), 0), ((0, 0, 1), -1)))
    assert enumerate_vertices(empty).vertices == ()


def test_normalization_rows_sum_blocks():
    rows = normalization_rows(CHSH_SHAPE)
    assert len(rows) == 4
    for row in rows:
        assert sum(row) == 4
        assert set(row) == {Fraction(0), Fraction(1)}
    box = pr()
    for row in rows:
        assert sum(c * v for c, v in zip(row, box.table)) == 1


def test_hrep_holds_for_known_boxes():
    h = build_hrep(CHSH_SHAPE)
    assert h.contains(pr().table)
    assert h.contains(uniform(CHSH_SHAPE).table)
    signalling = list(uniform(CHSH_SHAPE).table)
    signalling[0] += Fraction(1, 8)
    signalling[1] -= Fraction(1, 8)
    assert not h.contains(signalling)


def _loop_equalities(shape):
    """The equalities as built before validation and the H-rep shared one
    row set: normalization, then one no-signalling loop per party."""
    n = shape.table_size
    equalities = []
    for ins in shape.joint_inputs:
        row = [Fraction(0)] * n
        off, size = shape.block(ins)
        for i in range(off, off + size):
            row[i] = Fraction(1)
        equalities.append((tuple(row), Fraction(1)))
    for k in range(shape.parties):
        others = [j for j in range(shape.parties) if j != k]

        def merged(val, ovals):
            out = [val] * shape.parties
            for j, v in zip(others, ovals):
                out[j] = v
            return tuple(out)
        for x in range(shape.inputs[k] - 1):
            for oins in iproduct(*[range(shape.inputs[j]) for j in others]):
                odims = [shape.outputs[j][xx] for j, xx in zip(others, oins)]
                for oouts in iproduct(*[range(d) for d in odims]):
                    row = [Fraction(0)] * n
                    for a in range(shape.outputs[k][x]):
                        row[shape.index(merged(a, oouts), merged(x, oins))] += 1
                    for a in range(shape.outputs[k][x + 1]):
                        row[shape.index(merged(a, oouts), merged(x + 1, oins))] -= 1
                    equalities.append((tuple(row), Fraction(0)))
    return tuple(equalities)


@pytest.mark.parametrize("text", ["2,2/2,2", "2,3/3,2", "2,2/2,2/3", "3,2,4"])
def test_hrep_matches_the_loop_builder(text):
    shape = BoxShape.from_string(text)
    h = build_hrep(shape)
    assert h.equalities == _loop_equalities(shape)
    assert {type(v) for row, rhs in h.equalities for v in (*row, rhs)} == {Fraction}
    assert normalization_rows(shape) == [
        row for row, _ in h.equalities[:len(shape.joint_inputs)]]


@pytest.mark.parametrize("text", ["3,4/3,4", "2,2,2/2,2,2", "2,2/2,2/3"])
def test_homogenized_cone_matches_the_fraction_nullspace(text, monkeypatch):
    h = build_hrep(BoxShape.from_string(text))
    want = _homogenized_cone(h)
    monkeypatch.setattr(polytope, "nullspace_int", nullspace)
    assert want == _homogenized_cone(h)


def test_chsh_vertex_enumeration():
    vrep = enumerate_vertices(build_hrep(CHSH_SHAPE))
    assert vrep.full
    assert len(vrep.vertices) == 24
    deterministic = [b for b in vrep.vertices if b.is_deterministic()]
    assert len(deterministic) == 16
    rest = [b for b in vrep.vertices if not b.is_deterministic()]
    assert len(rest) == 8
    half = Fraction(1, 2)
    for box in rest:
        assert set(box.table) == {Fraction(0), half}
        for k in range(2):
            m = box.marginal([k])
            assert all(v == half for v in m.table)
    assert pr().table in [b.table for b in rest]


def test_nonlocal_chsh_vertices_are_the_pr_orbit():
    vrep = enumerate_vertices(build_hrep(CHSH_SHAPE))
    rest = {b.table for b in vrep.vertices if not b.is_deterministic()}
    assert rest == {b.table for b in orbit(pr())}


def test_classification_of_chsh_vertices():
    vrep = enumerate_vertices(build_hrep(CHSH_SHAPE))
    classes = classify_vertices(vrep)
    assert sorted(c.size for c in classes) == [8, 16]
    for cls in classes:
        assert len(cls.members) == cls.size
        rep_det = cls.representative.is_deterministic()
        for i in cls.members:
            assert vrep.vertices[i].is_deterministic() == rep_det


def test_classification_ignores_vertex_order():
    vrep = enumerate_vertices(build_hrep(CHSH_SHAPE))
    reference = {(c.representative.table, c.size)
                 for c in classify_vertices(vrep)}
    rng = random.Random(23)
    boxes = list(vrep.vertices)
    rng.shuffle(boxes)
    shuffled = VRep(tuple(boxes), full=True)
    assert {(c.representative.table, c.size)
            for c in classify_vertices(shuffled)} == reference


def test_classification_without_party_swaps():
    vrep = enumerate_vertices(build_hrep(CHSH_SHAPE))
    classes = classify_vertices(vrep, allow_party_permutation=False)
    # both orbits happen to be closed under swapping the parties
    assert sorted(c.size for c in classes) == [8, 16]


def test_classification_past_255_distinct_entries():
    rng = random.Random(31)
    starts = [Box(CHSH_SHAPE, tuple(Fraction(rng.randrange(1, 10**6), 10**6)
                                    for _ in range(CHSH_SHAPE.table_size)))
              for _ in range(20)]
    elements = group(CHSH_SHAPE)
    orbits = [{apply_relabelling(b, r).table for r in elements} for b in starts]
    assert len({v for b in starts for v in b.table}) > 255
    vrep = VRep(tuple(Box(CHSH_SHAPE, t) for o in orbits for t in sorted(o)))
    classes = classify_vertices(vrep)
    assert sorted(c.representative.table for c in classes) == sorted(min(o) for o in orbits)
    assert sorted(c.size for c in classes) == sorted(len(o) for o in orbits)


def test_classify_rejects_partial_lists():
    vrep = enumerate_vertices(build_hrep(CHSH_SHAPE))
    some = VRep(vrep.vertices[:5], full=False)
    with pytest.raises(ShapeError):
        classify_vertices(some)


def _reference_vertices(h):
    """The reconstruction that the integer one replaced: one Fraction per
    entry, then a sort of the Fraction tables."""
    _, keep, coord_rows = _homogenized_cone(h)
    col_of = {c: j for j, c in enumerate(keep)}
    vertices = []
    for ray in extreme_rays(coord_rows):
        z = [sum(c * y for c, y in zip(coord_rows[i], ray)) for i in range(1 + len(keep))]
        point = [Fraction(0)] * h.ambient
        for c in keep:
            point[c] = Fraction(z[1 + col_of[c]], z[0])
        vertices.append(tuple(point))
    vertices.sort()
    return vertices


def test_integer_reconstruction_matches_the_fraction_one():
    h = build_hrep(BoxShape.from_string("3,3/3,3"))
    want = _reference_vertices(h)
    got = [b.table for b in enumerate_vertices(h).vertices]
    assert got == want
    assert {max(v.denominator for v in table) for table in got} == {1, 2, 3}


def test_integer_reconstruction_without_a_shape():
    f = Fraction
    rows = [((1, 2, 3, 5, 1, 0, 7), 6),
            ((f(1, 2), -1, 1, 0, 0, 0, f(2, 3)), f(1, 3)),
            ((0, 0, 0, 0, 1, 2, 0), 0)]
    h = HPolytope(7, tuple((tuple(map(f, row)), f(rhs)) for row, rhs in rows))
    got = enumerate_vertices(h).vertices
    assert list(got) == _reference_vertices(h)
    assert all(type(v) is tuple for v in got)
    assert len(got) > 4
    assert len({max(v.denominator for v in point) for point in got}) > 2
    assert all(point[4] == point[5] == 0 for point in got)


def _takes_orbit_path(h):
    return _symmetry_maps(h, *_homogenized_cone(h)) is not None


def _full_dd(h):
    """The same polytope without its shape, which takes full DD; the
    vertices as tables."""
    return [tuple(v) for v in enumerate_vertices(
        HPolytope(h.ambient, h.equalities)).vertices]


def _shuffled_hrep(text):
    h = build_hrep(BoxShape.from_string(text))
    rows = list(h.equalities)
    random.Random(text).shuffle(rows)
    return HPolytope(h.ambient, tuple(rows), h.shape)


@pytest.mark.parametrize("text", ["2,2/2,2", "3,3/3,3", "2,3/3,2", "3,4/3,4",
                                  "2,2,2/2,2,2", "2,2/2,2/3"])
def test_orbit_path_matches_full_dd(text):
    h = _shuffled_hrep(text)
    assert _takes_orbit_path(h)
    got = enumerate_vertices(h).vertices
    assert [b.table for b in got] == _full_dd(h)
    assert all(b.shape == h.shape for b in got)


def _with_rows(h, extra):
    return HPolytope(h.ambient, h.equalities + tuple(extra), h.shape)


def _uniform_marginal_rows(shape):
    """Each party's outcomes equally likely at each of its inputs, the other
    parties' inputs set to 0: relabelling-invariant given no-signalling."""
    rows = []
    for k in range(shape.parties):
        for x in range(shape.inputs[k]):
            ins = tuple(x if j == k else 0 for j in range(shape.parties))
            d = shape.outputs[k][x]
            for a in range(d):
                row = [Fraction(0)] * shape.table_size
                for outs in iproduct(*map(range, shape.outputs_at(ins))):
                    if outs[k] == a:
                        row[shape.index(outs, ins)] = Fraction(1)
                rows.append((tuple(row), Fraction(1, d)))
    return rows


def _marginal_hrep(text):
    shape = BoxShape.from_string(text)
    return _with_rows(build_hrep(shape), _uniform_marginal_rows(shape))


@pytest.mark.parametrize("text", ["2,2/2,2", "3,3/3,3", "2,3/3,2", "2,2/2,2/2"])
def test_orbit_path_without_deterministic_vertices(text):
    # no deterministic vertex, so the LP start is some other vertex
    h = _marginal_hrep(text)
    assert _takes_orbit_path(h)
    got = enumerate_vertices(h).vertices
    assert [b.table for b in got] == _full_dd(h)
    assert got and not any(b.is_deterministic() for b in got)


@pytest.mark.parametrize("build, text", [
    *((_shuffled_hrep, text) for text in ["2,2/2,2", "3,3/3,3", "2,3/3,2",
                                          "3,4/3,4", "2,2,2/2,2,2", "2,2/2,2/3"]),
    *((_marginal_hrep, text) for text in ["2,2/2,2", "3,3/3,3", "2,3/3,2",
                                          "2,2/2,2/2"])])
def test_orbit_handoff_matches_the_walk(build, text):
    # the orbits the enumeration walked against a fresh walk of its vertices
    h = build(text)
    vrep = enumerate_vertices(h)
    assert vrep._orbits is not None
    fresh = VRep(vrep.vertices)
    assert fresh._orbits is None
    assert vrep == fresh and repr(vrep) == repr(fresh)
    assert classify_vertices(vrep) == classify_vertices(fresh)
    assert (classify_vertices(vrep, allow_party_permutation=False)
            == classify_vertices(fresh, allow_party_permutation=False))


def test_a_pinned_entry_takes_full_dd():
    shape = BoxShape.from_string("3,3/3,3")
    h = build_hrep(shape)
    pin = [Fraction(0)] * shape.table_size
    pin[0] = Fraction(1)
    h = _with_rows(h, [(tuple(pin), Fraction(1, 2))])
    assert not _takes_orbit_path(h)
    vrep = enumerate_vertices(h)
    assert vrep._orbits is None
    got = vrep.vertices
    assert [b.table for b in got] == _full_dd(h)
    assert {b.table[0] for b in got} == {Fraction(1, 2)}


def test_an_empty_invariant_polytope_has_no_vertices():
    # the table sums to the number of joint inputs, never one more
    shape = BoxShape.from_string("2,2/2,2")
    total = (tuple([Fraction(1)] * shape.table_size),
             Fraction(len(shape.joint_inputs) + 1))
    h = _with_rows(build_hrep(shape), [total])
    assert _takes_orbit_path(h)
    assert enumerate_vertices(h) == VRep((), full=True)
    assert _full_dd(h) == []


def test_orbit_path_caps_raise(monkeypatch):
    # 1161 vertices; no vertex cone reaches 1000 rays
    h = build_hrep(BoxShape.from_string("3,3/3,3"))
    with pytest.raises(EnumerationCapError, match="vertex cap 1000"):
        enumerate_vertices(h, max_rays=1000)
    h = build_hrep(BoxShape.from_string("3,4/3,4"))
    with pytest.raises(EnumerationCapError, match="time budget 0s .* 1 orbits left"):
        enumerate_vertices(h, time_budget=0)
    # the orbit loop's clock stands still and the DD row loop's jumps a
    # second after its first reading, so the budget trips inside the first
    # vertex cone whatever the host's speed
    dd_clock = chain([0.0], repeat(1.0))
    monkeypatch.setattr(polytope, "time", SimpleNamespace(monotonic=lambda: 0.0))
    monkeypatch.setattr(dd, "time", SimpleNamespace(monotonic=lambda: next(dd_clock)))
    with pytest.raises(EnumerationCapError, match="time budget .* in a vertex cone"):
        enumerate_vertices(h, time_budget=0.1)


def test_vertex_ids_widen_past_one_byte():
    found = _VertexSet(3, [0, 2])
    first = found.code(np.array([[7, 1, 6]]))
    found.add_orbit(relabel._row_keys(first))
    many = found.code(np.array([[301, v, 301 - v] for v in range(1, 300)]))
    assert found.dtype == np.uint16 and many.dtype == np.uint16
    assert relabel._row_keys(found.code(np.array([[7, 1, 6]]))) == list(found.keys)
    values, rows, _ = found.sorted_rows()
    assert values == sorted({Fraction(0), Fraction(1, 7), Fraction(6, 7)}
                            | {Fraction(v, 301) for v in range(1, 301)})
    assert [values[i] for i in rows[0]] == [Fraction(1, 7), 0, Fraction(6, 7)]


def test_widening_keeps_the_orbit_numbers():
    found = _VertexSet(3, [0, 2])
    for z in ([[5, 1, 4], [5, 4, 1]], [[7, 1, 6]], [[3, 1, 2]]):
        found.add_orbit(relabel._row_keys(found.code(np.array(z))))
    before = {tuple(map(int, np.frombuffer(k, dtype=found.dtype))): n
              for k, n in found.keys.items()}
    found.code(np.array([[301, v, 301 - v] for v in range(1, 300)]))
    assert found.dtype == np.uint16
    after = {tuple(map(int, np.frombuffer(k, dtype=found.dtype))): n
             for k, n in found.keys.items()}
    assert after == before and sorted(after.values()) == [0, 0, 1, 2]
    values, rows, orbits = found.sorted_rows()
    assert [[values[i] for i in row] for row in rows.tolist()] == [
        [Fraction(1, 5), 0, Fraction(4, 5)], [Fraction(4, 5), 0, Fraction(1, 5)],
        [Fraction(1, 7), 0, Fraction(6, 7)], [Fraction(1, 3), 0, Fraction(2, 3)]]
    assert orbits.tolist() == [0, 0, 1, 2]


def test_census_matches_classes_by_canonical_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("the census searched for a relabelling")
    monkeypatch.setattr(relabel, "equivalent_under_relabelling", refuse)
    census = kbox_census((3, 3), (3, 3))
    assert {c.k: c.size for c in census.classes} == {None: 81, 2: 648, 3: 432}


def test_extremality():
    assert is_extremal(pr())
    assert is_extremal(local_deterministic(0, 1, 1, 0))
    assert not is_extremal(uniform(CHSH_SHAPE))
    assert not is_extremal(mix(pr(), uniform(CHSH_SHAPE), Fraction(1, 2)))


def test_extremality_against_explicit_polytope():
    h = build_hrep(CHSH_SHAPE)
    assert is_extremal(pr(), h)
    out = Box.from_function(CHSH_SHAPE,
                            lambda outs, ins: Fraction(outs[0] == 0, 4))
    with pytest.raises(InvalidBoxError):
        is_extremal(out, h)  # signalling box, not a member


def test_lift_box_keeps_probabilities():
    target = BoxShape.homogeneous(2, 2, 3)
    lifted = lift_box(pr(), target)
    lifted.require_valid()
    for ins, outs in pr().shape.entries():
        assert lifted.prob(outs, ins) == pr().prob(outs, ins)
    assert sum(1 for v in lifted.table if v != 0) == sum(
        1 for v in pr().table if v != 0)
    with pytest.raises(ShapeError):
        lift_box(dbox(3), CHSH_SHAPE)  # cannot drop outputs
    with pytest.raises(ShapeError):
        lift_box(pr(), BoxShape(((3, 3, 3), (3, 3))))  # inputs differ


def test_chsh_census():
    census = kbox_census((2, 2), (2, 2))
    assert census.vertex_count == 24
    assert census.ks == (2,)
    assert census.all_nonlocal_matched
    by_size = {c.size: c for c in census.classes}
    assert by_size[16].k is None
    assert by_size[8].k == 2
    assert not by_size[8].lifted
    assert by_size[8].representative.table == min(
        b.table for b in orbit(pr()))


def test_heterogeneous_census():
    census = kbox_census((2, 2), (3, 3))
    assert census.vertex_count == 108
    assert census.ks == (2,)
    assert census.all_nonlocal_matched
    by_size = {c.size: c for c in census.classes}
    assert by_size[36].k is None
    assert by_size[72].k == 2
    assert by_size[72].lifted  # only two of Bob's three outcomes occur


def test_census_rejects_other_arities():
    with pytest.raises(ShapeError):
        kbox_census((2, 2, 2), (2, 2))
