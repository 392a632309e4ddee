import random
from fractions import Fraction
from itertools import chain, repeat
from itertools import product as iproduct
from math import lcm
from types import SimpleNamespace

import numpy as np
import pytest

from fraction_linalg import nullspace
from shape_helpers import distinct_box, random_shape
from nsbox import dd, polytope, relabel
from nsbox.boxes import Box, BoxShape, InvalidBoxError, ShapeError, mix
from nsbox.families import dbox, local_deterministic, pr, uniform
from nsbox.dd import EnumerationCapError, extreme_rays
from nsbox.linalg import _int_array, _nullspace, clear_denominators, int_rank, reduce_content
from nsbox.extend import build_extension_polytope
from nsbox.polytope import (HPolytope, KBoxCensus, KBoxClass, VRep, _edge_ends, _find_row,
                            _homogenized_cone, _merged, _orbit_rays, _presolve_zeros,
                            _scaled, _symmetry_maps, _uses_partial_outputs, build_hrep,
                            classify_vertices,
                            dimension, enumerate_vertices, is_extremal,
                            kbox_census, lift_box, normalization_rows)
from nsbox.relabel import apply_relabelling, canonical_form, group, orbit

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
    def unreachable(*args):
        raise AssertionError("rows built before the size check")
    monkeypatch.setattr(polytope, "_indicator_rows", unreachable)
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


def test_a_polytope_fixed_by_the_presolve_is_its_one_point():
    """When the presolve fixes every coordinate and leaves no equality, the
    live columns are all free: the cone is the t axis."""
    h = HPolytope(2, (((1, 0), 0), ((0, 1), 0)))
    assert _homogenized_cone(h)[1].tolist() == [[1], [0], [0]]
    assert enumerate_vertices(h).vertices == ((0, 0),)
    # the homogenized equalities admit only (t, x) = 0: no ray, no polytope
    for h in (HPolytope(2, (((1, 0), 0), ((0, 1), 0), ((1, 1), 1))),
              HPolytope(1, (((1,), 1), ((1,), 2)))):
        with pytest.raises(ShapeError, match="only the zero solution"):
            enumerate_vertices(h)


def test_normalization_rows_sum_blocks():
    rows = normalization_rows(CHSH_SHAPE)
    assert rows.dtype == np.int8 and len(rows) == 4
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


@pytest.mark.parametrize("text", ["2,2/2,2", "3,4/3,4", "2,2,2/2,2,2", "2,2/2,2/3"])
def test_hrep_integer_rows_are_the_cleared_fraction_rows(text):
    """``build_hrep``'s integer rows are its equalities cleared row by row,
    and the cone read from them is the cone of a copy that clears its
    Fraction rows itself."""
    h = build_hrep(BoxShape.from_string(text))
    assert h._rows.dtype == np.int64
    assert h._rows.tolist() == [clear_denominators([-rhs, *row]) for row, rhs in h.equalities]
    copy = HPolytope(h.ambient, h.equalities, h.shape)
    assert copy == h and hash(copy) == hash(h) and repr(copy) == repr(h)
    for want, got in zip(_homogenized_cone(copy), _homogenized_cone(h)):
        assert want.dtype == got.dtype and want.tolist() == got.tolist()


def _fraction_contains(h, point):
    """``HPolytope.contains`` by Fraction sums over the equalities, as it
    was before the integer rows."""
    if len(point) != h.ambient:
        raise ShapeError("point has wrong dimension")
    if any(v < 0 for v in point):
        return False
    return all(sum(c * v for c, v in zip(row, point)) == rhs for row, rhs in h.equalities)


def test_contains_matches_the_fraction_sums():
    h = build_hrep(CHSH_SHAPE)
    vertices = [v.table for v in enumerate_vertices(h).vertices]
    signalling = list(uniform(CHSH_SHAPE).table)
    signalling[0] += Fraction(1, 8)
    signalling[1] -= Fraction(1, 8)
    negative = list(pr().table)
    negative[0], negative[2] = Fraction(-1, 2), Fraction(1)
    huge = mix(pr(), uniform(CHSH_SHAPE), Fraction(2 ** 70, 2 ** 70 + 3)).table
    # mixed int and Fraction entries: the deterministic vertices' zeros and
    # ones as ints, one of them as Fraction(1)
    mixed = [[int(v) for v in t] for t in vertices if set(t) <= {0, 1}]
    mixed[0][mixed[0].index(1)] = Fraction(1)
    points = (vertices + mixed + [uniform(CHSH_SHAPE).table, huge, signalling, negative,
                                  [Fraction(1, 3)] * 16, [0] * 16, [1] * 16,
                                  tuple(v + Fraction(1, 2 ** 70) for v in huge)])
    plain = HPolytope(h.ambient, h.equalities)
    scaled = HPolytope(h.ambient, tuple((tuple(v / 3 for v in row), rhs / 3)
                                        for row, rhs in h.equalities))
    verdicts = [_fraction_contains(h, p) for p in points]
    assert verdicts.count(True) == len(vertices) + len(mixed) + 2
    for poly in (h, plain, scaled):
        assert [poly.contains(p) for p in points] == verdicts
    with pytest.raises(ShapeError, match="wrong dimension"):
        h.contains(pr().table[:-1])


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
    assert normalization_rows(shape).tolist() == [
        list(row) for row, _ in h.equalities[:len(shape.joint_inputs)]]


@pytest.mark.parametrize("text", ["3,4/3,4", "2,2,2/2,2,2", "2,2/2,2/3"])
def test_homogenized_cone_matches_the_fraction_nullspace(text, monkeypatch):
    h = build_hrep(BoxShape.from_string(text))
    want_eq, want_rows = _homogenized_cone(h)
    assert want_rows.dtype == np.int64
    monkeypatch.setattr(polytope, "_nullspace", lambda a: _int_array(nullspace(a.tolist())))
    eq_int, rows = _homogenized_cone(h)
    assert want_eq.tolist() == eq_int.tolist()
    assert want_rows.tolist() == rows.tolist()


def test_homogenized_cone_drops_repeated_scaled_and_zero_equalities(monkeypatch):
    h = build_hrep(CHSH_SHAPE)
    zero = tuple(Fraction(0) for _ in range(h.ambient))
    doubled = [e for row, rhs in h.equalities
               for e in ((row, rhs), (tuple(2 * v for v in row), 2 * rhs))]
    noisy = HPolytope(h.ambient, tuple(doubled) + ((zero, Fraction(0)),), h.shape)
    for want, got in zip(_homogenized_cone(h), _homogenized_cone(noisy)):
        assert want.tolist() == got.tolist()
    assert enumerate_vertices(noisy) == enumerate_vertices(h)

    # with p(00|00) = 0, the presolve drops that coordinate; then 2·e0 is a
    # zero row and 2·(first row) + 3·e0 repeats the first row at twice its
    # scale, so the rows left are those of the plain H-rep with e0 = 0
    e0 = tuple(Fraction(int(i == 0)) for i in range(h.ambient))
    n0, one = h.equalities[0]
    fixed = HPolytope(h.ambient, h.equalities + ((e0, Fraction(0)),), h.shape)
    extra = ((tuple(2 * v for v in e0), Fraction(0)),
             (tuple(2 * v + 3 * u for v, u in zip(n0, e0)), 2 * one))
    noisy_fixed = HPolytope(h.ambient, noisy.equalities + extra, h.shape)
    seen = []
    monkeypatch.setattr(polytope, "_nullspace",
                        lambda rows: seen.append(rows.tolist()) or _nullspace(rows))
    assert _homogenized_cone(noisy_fixed)[1].tolist() == _homogenized_cone(fixed)[1].tolist()
    assert seen[0] == seen[1]
    assert len(seen[0]) < len(_homogenized_cone(noisy_fixed)[0])
    assert enumerate_vertices(noisy_fixed) == enumerate_vertices(fixed)


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
    rows = _homogenized_cone(h)[1].tolist()
    vertices = []
    for ray in extreme_rays(rows):
        t, *x = (sum(c * y for c, y in zip(row, ray)) for row in rows)
        vertices.append(tuple(Fraction(v, t) for v in x))
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


def _points(rows):
    """Tables of Fractions from integer rows (t, x)."""
    return [[Fraction(x, row[0]) for x in row[1:]] for row in rows]


def test_merged_ids_widen_past_one_byte():
    orbits = [relabel._encode(_points([[7, 1, 0, 6]])),
              relabel._encode(_points([[301, v, 0, 301 - v] for v in range(1, 300)]))]
    assert orbits[0][1].dtype.itemsize == 1 and orbits[1][1].dtype.itemsize == 2
    values, rows, orbit_of = _merged(orbits)
    assert values == sorted({Fraction(0), Fraction(1, 7), Fraction(6, 7)}
                            | {Fraction(v, 301) for v in range(1, 301)})
    assert rows.dtype == np.uint16
    assert [values[i] for i in rows[0]] == [Fraction(1, 7), 0, Fraction(6, 7)]
    assert ([[values[i] for i in row] for row in rows[1:].tolist()]
            == _points([[301, v, 0, 301 - v] for v in range(1, 300)]))
    assert orbit_of.tolist() == [0] + [1] * 299


def test_merge_keeps_the_orbit_numbers():
    tables = ([[5, 1, 0, 4], [5, 4, 0, 1]], [[7, 1, 0, 6]], [[3, 1, 0, 2]],
              [[301, v, 0, 301 - v] for v in range(1, 300)])
    values, rows, orbit_of = _merged([relabel._encode(_points(t)) for t in tables])
    assert rows.dtype == np.uint16
    assert [[values[i] for i in row] for row in rows[:4].tolist()] == [
        [Fraction(1, 5), 0, Fraction(4, 5)], [Fraction(4, 5), 0, Fraction(1, 5)],
        [Fraction(1, 7), 0, Fraction(6, 7)], [Fraction(1, 3), 0, Fraction(2, 3)]]
    assert orbit_of.tolist() == [0, 0, 1, 2] + [3] * 299


def test_each_orbit_is_coded_once(monkeypatch):
    # edge ends are looked up by their zero sets, so each of the three
    # orbits is walked once, from its first vertex's integer slack row;
    # no Fraction table is coded
    calls = []
    walk = relabel._walk
    monkeypatch.setattr(relabel, "_walk", lambda *args: calls.append(1) or walk(*args))
    monkeypatch.setattr(relabel, "_encode", lambda tables: pytest.fail("a table was coded"))
    vrep = enumerate_vertices(build_hrep(BoxShape.from_string("3,3/3,3")))
    assert len(vrep.vertices) == 1161 and len(vrep._orbits) == 3
    assert len(calls) == 3


def test_a_single_vertex_without_zero_entries():
    shape = BoxShape.from_string("2,2/2,2")
    pins = []
    for i in range(shape.table_size):
        row = [Fraction(0)] * shape.table_size
        row[i] = Fraction(1)
        pins.append((tuple(row), Fraction(1, 4)))
    h = _with_rows(build_hrep(shape), pins)
    assert _takes_orbit_path(h)
    vrep = enumerate_vertices(h)
    assert vrep.vertices == (uniform(shape),) and vrep._orbits == ((0,),)
    assert _full_dd(h) == [uniform(shape).table]


def test_uniform_extension_matches_full_dd():
    h = build_extension_polytope(uniform(CHSH_SHAPE), 1, 3).hrep
    assert _takes_orbit_path(h)
    vrep = enumerate_vertices(h)
    assert len(vrep.vertices) == 8859
    assert [b.table for b in vrep.vertices] == _full_dd(h)
    assert len(classify_vertices(vrep)) == 26


def _row_maps(rows, transforms):
    """The gather maps over a cone's rows of linear maps g that permute
    them: the slack rows·(g·y) of a moved ray are the rows·g of y's."""
    index = {tuple(r): i for i, r in enumerate(rows)}
    return np.array([[index[tuple((np.array(r) @ g).tolist())] for r in rows]
                     for g in transforms], dtype=np.intp).reshape(-1, len(rows))


def _slack_rays(rows):
    """The primitive slack rows of the cone's extreme rays, by one DD run."""
    return sorted(tuple(reduce_content([sum(a * b for a, b in zip(r, y)) for r in rows]))
                  for y in extreme_rays(rows))


def _orbit_sizes(rows, transforms, start):
    """The sizes of the orbits ``_orbit_rays`` finds, after checking that
    together they are the cone's extreme rays."""
    orbits = _orbit_rays(np.array(rows), _row_maps(rows, transforms), start, 1000, None)
    found = [tuple(vals[i] for i in row) for vals, codes in orbits for row in codes.tolist()]
    assert sorted(found) == _slack_rays(rows)
    return sorted(len(codes) for _, codes in orbits)


def _signed_permutations():
    """Generators over (t, x1, x2, x3): negate x1, swap x1 and x2, swap x2
    and x3.  The last two alone permute the coordinates."""
    flip = np.diag([1, -1, 1, 1])
    swaps = [np.eye(4, dtype=int)[[0, 2, 1, 3]], np.eye(4, dtype=int)[[0, 1, 3, 2]]]
    return [flip] + swaps, swaps


def test_orbit_rays_of_the_cube_cone():
    # rows t ± x_i: the rays are the cube's vertices (1, ±1, ±1, ±1)
    rows = [[1] + [s * (j == i) for j in range(3)] for i in range(3) for s in (1, -1)]
    start = reduce_content([sum(r) for r in rows])   # the vertex (1, 1, 1, 1)
    everything, coordinates = _signed_permutations()
    assert _orbit_sizes(rows, everything, start) == [8]
    # under coordinate permutations, by the number of minus signs
    assert _orbit_sizes(rows, coordinates, start) == [1, 1, 3, 3]


def test_orbit_rays_of_the_cross_polytope_cone():
    # rows t ± x1 ± x2 ± x3: the rays are (1, ±e_i)
    rows = [[1, *signs] for signs in iproduct((1, -1), repeat=3)]
    start = reduce_content([r[0] + r[1] for r in rows])   # the vertex (1, 1, 0, 0)
    assert _orbit_sizes(rows, _signed_permutations()[0], start) == [6]


def test_orbit_rays_where_the_rows_sum_to_no_row():
    # the rows sum to (2, 2, 0); the rays are (1, 0, 0), (0, 1, 0),
    # (1, 0, 1) and (0, 1, 1)
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]
    swap = np.eye(3, dtype=int)[[1, 0, 2]]
    assert _orbit_sizes(rows, [swap], [1, 0, 0, 1]) == [2, 2]
    assert _orbit_sizes(rows, [], [1, 0, 0, 1]) == [1, 1, 1, 1]


def _reference_edge_ends(z, w):
    """The ratio test and the step in Fractions."""
    ends = []
    for row in w:
        step = min(Fraction(zi, -wi) for zi, wi in zip(z, row) if zi and wi < 0)
        ends.append(clear_denominators([zi + step * wi for zi, wi in zip(z, row)]))
    return ends


@pytest.mark.parametrize("bits, dtype", [(20, np.int64), (40, object)])
def test_edge_ends_match_the_fraction_ratio_test(bits, dtype):
    # entries near 2**40 put |z|·|w| past 2**62, onto Python ints
    rng = random.Random(bits)
    for _ in range(20):
        m = rng.randint(2, 8)
        z = [rng.choice((0, rng.randint(1, 2 ** bits))) for _ in range(m - 1)]
        z.append(rng.randint(2 ** (bits - 1), 2 ** bits))
        w = [[rng.randint(0 if zi == 0 else -2 ** bits, 2 ** bits) for zi in z]
             for _ in range(5)]
        for row in w:
            row[-1] = -rng.randint(1, 2 ** bits)
        got = _edge_ends(np.array(z, dtype=np.int64), np.array(w, dtype=np.int64))
        assert got.dtype == dtype
        assert got.tolist() == _reference_edge_ends(z, w)


@pytest.mark.parametrize("bits, ts, dtype", [
    (10, (1, 2, 3, 4, 6, 12), np.int64),
    (40, (2039, 2053, 3001, 3217, 4091, 4093), object)])
def test_scaled_matches_the_fraction_rescale(bits, ts, dtype):
    # entries near 2**40 and a common denominator near 2**69 put
    # max|z|·max(scale) past 2**63, onto Python ints
    rng = random.Random(bits)
    z = np.array([[t] + [rng.randint(0, 2 ** bits) for _ in range(5)] for t in ts],
                 dtype=np.int64)
    den, scaled = _scaled(z)
    assert den == lcm(*ts) and scaled.dtype == dtype
    assert scaled.tolist() == [[Fraction(x, row[0]) * den for x in row[1:]]
                               for row in z.tolist()]


def _loop_presolve_zeros(eq_int):
    """The presolve as a loop over rows, the reference for the numpy one."""
    ncols = len(eq_int[0]) - 1 if eq_int else 0
    fixed = set()
    changed = True
    while changed:
        changed = False
        for row in eq_int:
            rhs, coeffs = row[0], row[1:]
            if rhs != 0:
                continue
            live = [(i, c) for i, c in enumerate(coeffs) if c != 0 and i not in fixed]
            if not live:
                continue
            if all(c > 0 for _, c in live) or all(c < 0 for _, c in live):
                for i, _ in live:
                    fixed.add(i)
                changed = True
    return fixed


def _presolve_cases():
    for text in ["2,2/2,2", "3,3/3,3", "2,3/3,2", "2,2/2,2/2"]:
        yield _homogenized_cone(build_hrep(BoxShape.from_string(text)))[0]
    for base in (pr(), dbox(3), uniform(CHSH_SHAPE), local_deterministic(0, 1, 1, 0)):
        for env in ((1, 2), (2, 2), (1, 3)):
            yield _homogenized_cone(build_extension_polytope(base, *env).hrep)[0]
    rng = random.Random(11)
    for _ in range(300):
        cols = rng.randint(1, 8)
        yield _int_array([[rng.choice((0, 0, 0, 1, -2)) * rng.randint(1, 3)]
                          + [rng.choice((0, 0, 1, 2, -1, -3)) for _ in range(cols)]
                          for _ in range(rng.randint(1, 6))])


def test_presolve_matches_the_loop_reference():
    cases = list(_presolve_cases())
    assert sum(bool(_loop_presolve_zeros(c.tolist())) for c in cases) > 100
    for eq_int in cases:
        assert _presolve_zeros(eq_int) == _loop_presolve_zeros(eq_int.tolist())


def _reference_census(d_alice, d_bob):
    """``kbox_census`` as it was before the lookup on the vertex rows: the
    classes of the enumerated Boxes, matched to the canonical forms of the
    lifted k-boxes."""
    shape = BoxShape((tuple(d_alice), tuple(d_bob)))
    classes = classify_vertices(enumerate_vertices(build_hrep(shape)))
    kmax = min(min(d_alice), min(d_bob))
    canonical = {k: canonical_form(lift_box(dbox(k), shape)).table
                 for k in range(2, kmax + 1)}
    out = []
    for cls in classes:
        rep = cls.representative
        found = [k for k, table in canonical.items() if rep.table == table]
        assert len(found) == (0 if rep.is_deterministic() else 1)
        out.append(KBoxClass(rep, cls.size, found[0] if found else None,
                             _uses_partial_outputs(rep)))
    return KBoxCensus(shape, tuple(out))


@pytest.mark.parametrize("d_alice, d_bob", [((2, 2), (2, 2)), ((2, 2), (3, 3)),
                                            ((2, 3), (2, 3)), ((3, 3), (3, 3))])
def test_census_matches_the_canonical_form_reference(d_alice, d_bob):
    assert kbox_census(d_alice, d_bob) == _reference_census(d_alice, d_bob)


def test_census_looks_k_boxes_up_without_a_relabelling_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the census searched for a relabelling")
    monkeypatch.setattr(relabel, "equivalent_under_relabelling", refuse)
    monkeypatch.setattr(relabel, "canonical_form", refuse)
    census = kbox_census((3, 3), (3, 3))
    assert {c.k: c.size for c in census.classes} == {None: 81, 2: 648, 3: 432}


def test_census_refuses_a_k_box_that_is_not_a_vertex(monkeypatch):
    # the uniform box has entries, 1/9, that no vertex of 3,3/3,3 has; the
    # even mixture of two deterministic boxes has only vertex entries, 0,
    # 1/2 and 1, but is no vertex
    shape = BoxShape.from_string("3,3/3,3")
    halves = mix(lift_box(local_deterministic(0, 0, 0, 0), shape),
                 lift_box(local_deterministic(1, 1, 1, 1), shape), Fraction(1, 2))
    for box, match in ((uniform(shape), "entry that no vertex has"),
                       (halves, "is not a vertex")):
        monkeypatch.setattr(polytope, "lift_box", lambda b, s, box=box: box)
        with pytest.raises(ShapeError, match=f"lifted 2-box .*{match}"):
            kbox_census((3, 3), (3, 3))


def test_find_row_matches_a_scan():
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 40):
        rows = np.unique(rng.integers(0, 3, size=(n, 4)).astype(np.uint8), axis=0)
        for probe in iproduct(range(4), repeat=4):
            want = [i for i, r in enumerate(rows.tolist()) if r == list(probe)]
            assert _find_row(rows, probe) == (want[0] if want else None)


def test_census_needs_the_orbit_wise_enumeration(monkeypatch):
    monkeypatch.setattr(polytope, "_symmetry_maps", lambda *args: None)
    with pytest.raises(ShapeError, match="needs the relabelling orbits"):
        kbox_census((2, 2), (2, 2))


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


def _reference_lift_box(box, target_shape):
    """``lift_box`` as a per-entry callback, as it was before it became one
    masked gather on the table layout."""
    def fn(outs, ins):
        for k, a in enumerate(outs):
            if a >= box.shape.outputs[k][ins[k]]:
                return Fraction(0)
        return box.prob(outs, ins)

    return Box.from_function(target_shape, fn)


def test_lift_box_matches_the_entrywise_reference():
    rng = random.Random(23)
    for _ in range(60):
        box = distinct_box(random_shape(rng), rng)
        target = BoxShape(tuple(tuple(d + rng.randint(0, 2) for d in per_party)
                                for per_party in box.shape.outputs))
        assert lift_box(box, target) == _reference_lift_box(box, target)


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
