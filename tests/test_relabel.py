import random
from fractions import Fraction

import numpy as np
import pytest
from shape_helpers import random_shape

from nsbox import relabel
from nsbox.boxes import Box, BoxShape, ShapeError
from nsbox.dd import EnumerationCapError
from nsbox.families import dbox, local_deterministic, pr, uniform
from nsbox.relabel import (Relabelling, apply_relabelling, canonical_form,
                           compose, equivalent_under_relabelling, generators,
                           group, inverse, orbit)

SHAPE_2222 = BoxShape.homogeneous(2, 2, 2)
SHAPE_2332 = BoxShape.from_string("2,3/3,2")


def _reference_apply(box, r):
    """Relabel entry by entry, independently of the gather maps."""
    shape = box.shape
    new_shape = r.check_against(shape)
    table = [None] * new_shape.table_size
    n = shape.parties
    for ins, outs in shape.entries():
        ins2 = [0] * n
        outs2 = [0] * n
        for k in range(n):
            j = r.party_perm[k]
            ins2[j] = r.input_perms[k][ins[k]]
            outs2[j] = r.output_perms[k][ins[k]][outs[k]]
        table[new_shape.index(tuple(outs2), tuple(ins2))] = box.prob(outs, ins)
    return Box(new_shape, tuple(table))


def _reference_index_map(r, shape):
    """``index_map`` as a per-entry loop over ``index``, as it was before it
    became one gather on the table layout."""
    new_shape = r.check_against(shape)
    gather = [None] * shape.table_size
    n = shape.parties
    for i, (ins, outs) in enumerate(shape.entries()):
        ins2 = [0] * n
        outs2 = [0] * n
        for k in range(n):
            j = r.party_perm[k]
            ins2[j] = r.input_perms[k][ins[k]]
            outs2[j] = r.output_perms[k][ins[k]][outs[k]]
        gather[new_shape.index(outs2, ins2)] = i
    return new_shape, gather


def _random_box(shape, rng, values):
    """A table of entries drawn from values; not a valid box, which the
    relabelling engine does not need."""
    return Box(shape, tuple(rng.choice(values) for _ in range(shape.table_size)))


def _flip_bob_output():
    ident = Relabelling.identity(SHAPE_2222)
    flips = ((1, 0), (1, 0))
    return Relabelling(ident.party_perm, ident.input_perms,
                       (ident.output_perms[0], flips))


def test_identity_fixes_everything():
    r = Relabelling.identity(SHAPE_2222)
    assert apply_relabelling(pr(), r) == pr()


def test_output_flip_shifts_pr_gamma():
    assert apply_relabelling(pr(), _flip_bob_output()) == pr(gamma=1)


def test_input_swap_shifts_pr_beta():
    ident = Relabelling.identity(SHAPE_2222)
    r = Relabelling(ident.party_perm, ((1, 0), (0, 1)), ident.output_perms)
    assert apply_relabelling(pr(), r) == pr(beta=1)


def test_party_swap_fixes_symmetric_boxes():
    ident = Relabelling.identity(SHAPE_2222)
    r = Relabelling((1, 0), ident.input_perms, ident.output_perms)
    assert apply_relabelling(pr(), r) == pr()
    ident3 = Relabelling.identity(dbox(3).shape)
    r3 = Relabelling((1, 0), ident3.input_perms, ident3.output_perms)
    assert apply_relabelling(dbox(3), r3) != dbox(3)


def test_compose_matches_sequential_application():
    rng = random.Random(7)
    elements = group(SHAPE_2222)
    box = local_deterministic(1, 0, 1, 0)
    for _ in range(25):
        r, s = rng.choice(elements), rng.choice(elements)
        assert (apply_relabelling(apply_relabelling(box, r), s)
                == apply_relabelling(box, compose(r, s)))


def test_inverse_round_trips():
    rng = random.Random(8)
    elements = group(SHAPE_2222)
    for _ in range(25):
        r = rng.choice(elements)
        assert apply_relabelling(apply_relabelling(pr(), r), inverse(r)) == pr()


def test_group_order_2222():
    elements = group(SHAPE_2222)
    assert len(elements) == 128
    assert len({(r.party_perm, r.input_perms, r.output_perms)
                for r in elements}) == 128


def test_group_without_party_swaps_halves():
    assert len(group(SHAPE_2222, allow_party_permutation=False)) == 64


@pytest.mark.parametrize("text", ["2,2/2,2", "2,3/3,2", "2,2/2,2/2", "3,3/3,3",
                                  "2,2,2/2,2", "2,3/2,3", "2,2/2,2/2,2",
                                  "2,2,2/2,2,2", "4,4/2", "2,2/3,3"])
@pytest.mark.parametrize("allow", [True, False])
def test_group_order_formula_counts_the_group(text, allow):
    # the generators span the whole group: three identical parties and
    # three equal inputs take a cycle, d = 4 a 4-cycle, and mixed shapes
    # split into classes of parties and inputs
    shape = BoxShape.from_string(text)
    assert relabel._group_order(shape, allow) == len(group(shape, allow))


@pytest.mark.parametrize("text, count", [("3,3/3,3", 4), ("3,4/3,4", 5),
                                         ("2,2,2/2,2,2", 4), ("2,2/2,2/2,2", 4),
                                         ("4,4/4,4", 4)])
def test_generators_are_few(text, count):
    assert len(generators(BoxShape.from_string(text))) == count


def test_walk_of_an_all_distinct_row_reaches_the_group_order():
    # no relabelling but the identity fixes a row of distinct entries, so
    # its orbit has one row per group element
    shape = BoxShape.from_string("3,4/3,4")
    codes = np.arange(shape.table_size, dtype=np.uint8)[None]
    found = relabel._walk(codes, relabel._generator_maps(shape, True)[1])
    assert len(found) == relabel._group_order(shape) == 41472


def test_group_is_refused_past_the_cap(monkeypatch):
    assert relabel._group_order(BoxShape.from_string("4,4/4,4")) == 2654208
    shape = BoxShape.from_string("5,5/5,5")
    assert relabel._group_order(shape) == 1658880000

    def refuse(*args):
        raise AssertionError("the group was built")
    monkeypatch.setattr(relabel, "generators", refuse)
    with pytest.raises(EnumerationCapError, match="1658880000 elements"):
        group(shape)


def test_party_permutation_respects_shape():
    shape = BoxShape((((2, 2)), (3, 3)))
    assert all(r.party_perm == (0, 1) for r in generators(shape))


def test_orbit_of_pr_is_the_eight_member_family():
    members = orbit(pr())
    assert len(members) == 8
    expected = {pr(a, b, g).table for a in (0, 1) for b in (0, 1) for g in (0, 1)}
    assert {m.table for m in members} == expected


def test_canonical_form_separates_orbits():
    assert canonical_form(pr()) == canonical_form(pr(1, 1, 1))
    assert canonical_form(pr()) != canonical_form(local_deterministic())


def test_equivalence_checks():
    assert equivalent_under_relabelling(pr(), pr(1, 0, 1))
    assert not equivalent_under_relabelling(pr(), uniform(SHAPE_2222))
    deterministic_pairs = [(local_deterministic(a, b, c, d),
                            local_deterministic())
                           for a, b, c, d in ((0, 1, 0, 0), (1, 0, 1, 1))]
    for box, base in deterministic_pairs:
        assert equivalent_under_relabelling(box, base)


def test_malformed_relabelling_is_rejected():
    ident = Relabelling.identity(SHAPE_2222)
    bad = Relabelling((0, 0), ident.input_perms, ident.output_perms)
    with pytest.raises(ShapeError):
        apply_relabelling(pr(), bad)


@pytest.mark.parametrize("where", ["party", "input", "output"])
def test_float_permutations_are_refused(where):
    ident = Relabelling.identity(SHAPE_2222)
    parties, inputs, outputs = ident.party_perm, ident.input_perms, ident.output_perms
    if where == "party":
        parties = (1.0, 0.0)
    elif where == "input":
        inputs = ((1.0, 0.0), inputs[1])
    else:
        outputs = (((1.0, 0.0), (0, 1)), outputs[1])
    bad = Relabelling(parties, inputs, outputs)
    with pytest.raises(ShapeError, match="must be an integer"):
        bad.check_against(SHAPE_2222)
    with pytest.raises(ShapeError, match="must be an integer"):
        apply_relabelling(pr(), bad)


def test_apply_matches_the_entrywise_reference():
    distinct = [Fraction(i + 1, 97) for i in range(SHAPE_2332.table_size)]
    box = Box(SHAPE_2222, tuple(distinct[:SHAPE_2222.table_size]))
    for r in group(SHAPE_2222):
        assert apply_relabelling(box, r) == _reference_apply(box, r)
    rng = random.Random(11)
    box = Box(SHAPE_2332, tuple(distinct))
    for r in rng.sample(group(SHAPE_2332), 40):
        assert apply_relabelling(box, r) == _reference_apply(box, r)


def test_index_map_matches_the_entrywise_reference():
    """Every generator and one random relabelling of random shapes, whose
    party and input permutations may move output counts around."""
    rng = random.Random(19)
    for _ in range(60):
        shape = random_shape(rng)
        n = shape.parties
        full = Relabelling(
            tuple(rng.sample(range(n), n)),
            tuple(tuple(rng.sample(range(m), m)) for m in shape.inputs),
            tuple(tuple(tuple(rng.sample(range(d), d)) for d in per_party)
                  for per_party in shape.outputs))
        for r in generators(shape) + [full]:
            new_shape, gather = r.index_map(shape)
            assert (new_shape, gather.tolist()) == _reference_index_map(r, shape)


@pytest.mark.parametrize("shape", [SHAPE_2222, SHAPE_2332])
@pytest.mark.parametrize("allow", [True, False])
def test_orbit_and_canonical_form_match_brute_force(shape, allow):
    rng = random.Random(f"{shape}/{allow}")
    elements = group(shape, allow)
    values = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(7, 5)]
    for _ in range(6):
        box = _random_box(shape, rng, values[:rng.randint(2, 4)])
        brute = {apply_relabelling(box, r).table for r in elements}
        members = orbit(box, allow)
        assert len(members) == len(brute)
        assert {m.table for m in members} == brute
        assert canonical_form(box, allow).table == min(brute)


def test_orbit_walk_stops_past_the_group_order_cap(monkeypatch):
    shape = BoxShape.from_string("3,3/3,3")
    box = _random_box(shape, random.Random(3), [Fraction(0), Fraction(1, 3), Fraction(1, 2)])
    assert len(orbit(box)) == 10368
    other = _random_box(shape, random.Random(4), [Fraction(0), Fraction(1, 3), Fraction(1, 2)])
    assert equivalent_under_relabelling(box, other) is None
    monkeypatch.setattr(relabel, "_MAX_GROUP_ORDER", 100)
    for walk in (orbit, canonical_form, lambda b: equivalent_under_relabelling(b, other)):
        with pytest.raises(EnumerationCapError, match="passed 100 rows"):
            walk(box)
    # a search that meets its target within the cap still answers
    assert equivalent_under_relabelling(box, box) == Relabelling.identity(shape)
    # the enumeration's walk takes no limit and still runs to the end
    _, codes = relabel._encode([box.table])
    assert len(relabel._walk(codes, relabel._generator_maps(shape, True)[1])) == 10368


def test_equivalence_across_a_party_permutation():
    rng = random.Random(5)
    shape = BoxShape.from_string("2,2/3,3")
    values = [Fraction(0), Fraction(1, 4), Fraction(1, 2)]
    a = _random_box(shape, rng, values)
    swap = Relabelling((1, 0), ((0, 1), (0, 1)),
                       (((0, 1), (0, 1)), ((0, 1, 2), (0, 1, 2))))
    swapped = apply_relabelling(a, swap)
    assert swapped.shape == BoxShape.from_string("3,3/2,2")
    for b in [swapped] + [apply_relabelling(swapped, r)
                          for r in rng.sample(group(swapped.shape), 5)]:
        r = equivalent_under_relabelling(a, b)
        assert r is not None
        assert apply_relabelling(a, r) == b
        assert equivalent_under_relabelling(a, b, allow_party_permutation=False) is None


def test_generator_maps_are_cached_and_read_only():
    gens, maps = relabel._generator_maps(SHAPE_2332, True)
    assert relabel._generator_maps(SHAPE_2332, True)[1] is maps
    assert gens == tuple(generators(SHAPE_2332))
    assert [list(m) for m in maps] == [list(g.index_map(SHAPE_2332)[1]) for g in gens]
    with pytest.raises(ValueError):
        maps[0, 0] = 1
