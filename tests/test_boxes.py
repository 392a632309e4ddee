import random
from fractions import Fraction
from itertools import combinations, product as iproduct

import numpy as np
import pytest
from shape_helpers import distinct_box, random_shape

from nsbox import boxes
from nsbox.boxes import (Box, BoxShape, InvalidBoxError, ShapeError,
                         has_unique_completion, marginal, mix, product,
                         tensor)
from nsbox.families import (dbox, local_deterministic, pr, svetlichny_box,
                             two_way_vertex, uniform, xyplusz, xyz_box)

HALF = Fraction(1, 2)


def test_table_layout_party0_slowest():
    shape = BoxShape.homogeneous(2, 2, 2)
    assert shape.table_size == 16
    assert shape.joint_inputs == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert shape.index((0, 0), (0, 0)) == 0
    assert shape.index((0, 1), (0, 0)) == 1
    assert shape.index((1, 0), (0, 0)) == 2
    assert shape.index((0, 0), (0, 1)) == 4


def test_heterogeneous_blocks():
    shape = BoxShape(((2, 3), (2,)))
    off, size = shape.block((1, 0))
    assert (off, size) == (4, 6)
    assert shape.table_size == 10
    assert shape.outputs_at((1, 0)) == (3, 2)


def test_entries_matches_flat_order():
    """The layout's entry decode, ``entries``, ``index`` and ``flat`` all
    follow the table order: joint inputs, then joint outputs, party 0
    slowest in both."""
    rng = random.Random(13)
    for shape in [BoxShape(((2, 3), (2,)))] + [random_shape(rng) for _ in range(100)]:
        want = [(ins, outs) for ins in iproduct(*map(range, shape.inputs))
                for outs in iproduct(*map(range, shape.outputs_at(ins)))]
        assert list(shape.entries()) == want
        assert [shape.index(outs, ins) for ins, outs in want] == list(range(shape.table_size))
        lay = boxes._layout(shape)
        ins = lay.inputs[lay.joint]
        assert list(zip(map(tuple, ins.tolist()), map(tuple, lay.outs.tolist()))) == want
        assert boxes.flat(shape, ins, lay.outs).tolist() == list(range(shape.table_size))
        assert boxes._layout(shape) is lay
        with pytest.raises(ValueError):
            lay.outs[0, 0] = 1


def test_shape_string_round_trip():
    for text in ("2,2/2,2", "3,3/3,3", "2,2/2,2/2,2", "2,3/2"):
        shape = BoxShape.from_string(text)
        assert BoxShape.from_string(str(shape)) == shape
    assert BoxShape.from_string("2:3/2:3") == BoxShape.homogeneous(2, 2, 3)


def test_shape_rejects_garbage():
    with pytest.raises(ShapeError):
        BoxShape.from_string("2,x/2")
    with pytest.raises(ShapeError):
        BoxShape.from_string("2:3,3,3/2:3")
    with pytest.raises(ShapeError):
        BoxShape(((0, 2),))
    with pytest.raises(ShapeError):
        BoxShape(())


def test_shape_size_is_checked_before_joint_inputs_are_built():
    # 10**10 joint inputs; refused by counting, before any is made
    with pytest.raises(ShapeError, match="joint inputs"):
        BoxShape.from_string("100000:2/100000:2")
    with pytest.raises(ShapeError, match="joint inputs"):
        BoxShape(((2,) * 1000,) * 3)
    with pytest.raises(ShapeError, match="inputs exceed"):
        BoxShape.from_string("10000000000000:2")
    assert BoxShape(((2,) * 64,) * 2).table_size == 64 * 64 * 4


def test_table_size_is_checked_before_any_entry_is_built():
    # 64M entries for dbox(4000); refused when its shape is made
    with pytest.raises(ShapeError, match="table entries exceed"):
        dbox(4000)
    with pytest.raises(ShapeError, match="table entries exceed"):
        BoxShape.from_string("2:2049/2:1024")
    assert BoxShape.from_string("2:2048/2:512").table_size == 2 ** 22


def test_table_size_is_checked_before_the_joint_inputs_are_built(monkeypatch):
    # 2**17 joint inputs pass their cap; 4**17 entries do not
    def refuse(*args):
        raise AssertionError("joint inputs built for a refused shape")
    monkeypatch.setattr(boxes, "iproduct", refuse)
    with pytest.raises(ShapeError, match="17179869184 table entries exceed"):
        BoxShape.from_string("/".join(["2,2"] * 17))


def test_index_range_checks():
    shape = BoxShape.homogeneous(2, 2, 2)
    with pytest.raises(ShapeError):
        shape.index((2, 0), (0, 0))
    with pytest.raises(ShapeError):
        shape.block((0, 5))


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", Fraction(2)])
def test_shape_refuses_non_integer_output_counts(bad):
    with pytest.raises(ShapeError, match="output count must be an integer"):
        BoxShape(((2, bad), (2, 2)))
    assert BoxShape(((np.int64(2), np.uint8(3)),)) == BoxShape(((2, 3),))


def test_box_rejects_wrong_length_and_floats():
    shape = BoxShape.homogeneous(2, 2, 2)
    with pytest.raises(ShapeError):
        Box(shape, (HALF,) * 15)
    with pytest.raises(ShapeError):
        Box(shape, (0.5,) + (HALF,) * 15)


def test_validate_flags_each_failure_mode():
    good = pr()
    assert good.validate().ok

    entries = list(good.table)
    entries[0] = Fraction(-1, 2)
    entries[3] = Fraction(3, 2)
    report = Box(good.shape, tuple(entries)).validate()
    assert any("negative" in p for p in report.problems)

    entries = list(good.table)
    entries[0] = Fraction(1, 4)
    report = Box(good.shape, tuple(entries)).validate()
    assert any("sums to" in p for p in report.problems)


def test_validate_catches_signalling():
    shape = BoxShape.homogeneous(2, 2, 2)
    det = {  # Bob's output tracks Alice's input
        (0, 0): (0, 0), (0, 1): (0, 0),
        (1, 0): (0, 1), (1, 1): (0, 1),
    }

    def fn(outs, ins):
        return Fraction(int(outs == det[ins]))

    report = Box.from_function(shape, fn).validate()
    assert any("signals" in p for p in report.problems)


def _reference_validate(box):
    """The problem list as three loops wrote it before validation read the
    shared equality rows: positivity, normalization, no-signalling."""
    shape = box.shape
    problems = []
    for ins, outs in shape.entries():
        v = box.prob(outs, ins)
        if v < 0:
            problems.append(f"negative entry p{outs}|{ins} = {v}")
    for ins in shape.joint_inputs:
        s = sum(box.block(ins))
        if s != 1:
            problems.append(f"input {ins}: block sums to {s}, not 1")
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
                    lo = sum(box.prob(merged(a, oouts), merged(x, oins))
                             for a in range(shape.outputs[k][x]))
                    hi = sum(box.prob(merged(a, oouts), merged(x + 1, oins))
                             for a in range(shape.outputs[k][x + 1]))
                    if lo != hi:
                        problems.append(
                            f"party {k} signals: marginal of parties {tuple(others)} "
                            f"at output {oouts}|input {oins} is {lo} for "
                            f"input {x} but {hi} for input {x + 1}")
    return tuple(problems)


@pytest.mark.parametrize("text", ["2,2/2,2", "2,3/3,2", "1,2/2", "2,2/2,2/3", "3,2,4"])
def test_validate_matches_the_loop_reference(text):
    rng = random.Random(text)
    base = uniform(BoxShape.from_string(text))
    kinds = set()
    for _ in range(40):
        table = list(base.table)
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(table))
            table[i] += Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        box = Box(base.shape, table)
        problems = box.validate().problems
        assert problems == _reference_validate(box)
        kinds |= {p.split()[0] for p in problems}
    assert kinds == {"negative", "input", "party"}


@pytest.mark.parametrize("text", ["2,2/2,2", "1,2/2", "2,2/2,2/3"])
def test_numerators_past_int64_match_the_loop_references(text):
    # entries over 3**40 put the summed numerators past 2**62, so the sums
    # run on Python ints
    rng = random.Random(text)
    base = uniform(BoxShape.from_string(text))
    tiny = Fraction(1, 3 ** 40)
    for _ in range(10):
        table = list(base.table)
        table[0] += tiny
        for i in rng.sample(range(1, len(table)), rng.randint(0, 3)):
            table[i] += rng.randint(-2, 2) * tiny
        table[-1] *= rng.choice((1, -1))
        box = Box(base.shape, table)
        nums, den = boxes._numerators(box.table)
        assert nums.dtype == object and den % 3 ** 40 == 0
        assert box.validate().problems == _reference_validate(box)
        _check_every_marginal(box)


def test_signalling_is_found_in_a_box_with_65536_inputs():
    shape = BoxShape.from_string("65536:2/2")
    table = list(uniform(shape).table)
    i = shape.index((0, 0), (5, 0))
    table[i] += Fraction(1, 8)
    table[i + 1] -= Fraction(1, 8)
    box = Box(shape, table)
    assert box.validate().problems == tuple(
        f"party 0 signals: marginal of parties (1,) at output ({b},)|input (0,) "
        f"is {lo} for input {x} but {hi} for input {x + 1}"
        for x, pairs in ((4, (("1/2", "5/8"), ("1/2", "3/8"))),
                         (5, (("5/8", "1/2"), ("3/8", "1/2"))))
        for b, (lo, hi) in enumerate(pairs))
    assert uniform(shape).validate().ok
    alice = box.marginal([0])
    assert alice.shape.outputs == ((2,) * 65536,) and set(alice.table) == {HALF}


def test_equal_shapes_hash_equal_and_share_one_layout():
    shapes = [BoxShape(((2, 3), (2,))), BoxShape(((np.int64(2), np.uint8(3)), (np.int32(2),))),
              BoxShape.from_string("2,3/2")]
    assert len(set(map(hash, shapes))) == 1 and len(set(shapes)) == 1
    assert all(boxes._layout(s) is boxes._layout(shapes[0]) for s in shapes)


def test_require_valid_raises_with_report():
    bad = Box(pr().shape, (Fraction(1),) * 16)
    with pytest.raises(InvalidBoxError) as exc:
        bad.require_valid()
    assert exc.value.report.problems


def test_marginals_of_pr_are_uniform():
    for parties in ((0,), (1,)):
        m = marginal(pr(), parties)
        assert set(m.table) == {HALF}


def test_marginal_party_subset_checks():
    box = two_way_vertex()
    assert marginal(box, (1, 0)) == marginal(box, (0, 1))
    with pytest.raises(ShapeError):
        marginal(box, ())
    with pytest.raises(ShapeError):
        marginal(box, (0, 0))
    with pytest.raises(ShapeError):
        marginal(box, (3,))


@pytest.mark.parametrize("bad", [0.7, 0.0, True, "0"])
def test_marginal_refuses_non_integer_parties(bad):
    with pytest.raises(ShapeError, match="party must be an integer"):
        marginal(pr(), [bad])
    assert marginal(two_way_vertex(), [np.int64(2), 0]) == marginal(two_way_vertex(), [0, 2])


def test_ill_defined_marginal_is_refused():
    shape = BoxShape.homogeneous(2, 2, 2)
    det = {
        (0, 0): (0, 0), (0, 1): (0, 0),
        (1, 0): (0, 1), (1, 1): (0, 1),
    }

    def fn(outs, ins):
        return Fraction(int(outs == det[ins]))

    signalling = Box.from_function(shape, fn)
    with pytest.raises(InvalidBoxError):
        signalling.marginal([1])


def _reference_marginal(box, parties):
    """The marginal as a per-entry loop over ``prob`` computed it before
    marginals read ``boxes._marginal_map``."""
    keep = sorted(set(parties))
    drop = [j for j in range(box.shape.parties) if j not in keep]

    def merged(kvals, dvals):
        out = [None] * box.shape.parties
        for j, v in zip(keep + drop, kvals + dvals):
            out[j] = v
        return tuple(out)
    new_shape = BoxShape(tuple(box.shape.outputs[k] for k in keep))
    result = None
    for dins in iproduct(*[range(box.shape.inputs[j]) for j in drop]):
        table = []
        for kins, kouts in new_shape.entries():
            ins = merged(kins, dins)
            ddims = [box.shape.outputs[j][x] for j, x in zip(drop, dins)]
            total = Fraction(0)
            for douts in iproduct(*[range(d) for d in ddims]):
                total += box.prob(merged(kouts, douts), ins)
            table.append(total)
        table = tuple(table)
        if result is None:
            result = table
        elif result != table:
            raise InvalidBoxError(boxes.ValidationReport((
                f"marginal over parties {keep} ill-defined: depends on the "
                f"dropped parties' inputs {tuple(drop)}",)))
    return Box(new_shape, result)


def _check_every_marginal(box):
    """Compare ``marginal`` with the reference on every party subset; the
    number of subsets where both refused."""
    refused = 0
    for r in range(1, box.shape.parties + 1):
        for keep in combinations(range(box.shape.parties), r):
            try:
                want = _reference_marginal(box, keep)
            except InvalidBoxError as exc:
                with pytest.raises(InvalidBoxError) as got:
                    box.marginal(keep)
                assert got.value.report == exc.report
                refused += 1
                continue
            got = box.marginal(keep)
            assert got == want, (box, keep)
            assert {type(v) for v in got.table} == {Fraction}
    return refused


def _strategy_mixture(shape, rng, terms=4):
    """A seeded mixture of deterministic strategies: each party answers
    each of its inputs with one fixed output."""
    table = [Fraction(0)] * shape.table_size
    weights = [rng.randint(1, 5) for _ in range(terms)]
    for w in weights:
        choice = [[rng.randrange(d) for d in per_party] for per_party in shape.outputs]
        for ins in shape.joint_inputs:
            outs = tuple(choice[k][x] for k, x in enumerate(ins))
            table[shape.index(outs, ins)] += Fraction(w, sum(weights))
    return Box(shape, table)


@pytest.mark.parametrize("box", [
    pr(), pr(1, 1, 0), dbox(3), local_deterministic(0, 1, 1, 0), two_way_vertex(),
    xyplusz(), svetlichny_box(), xyz_box(3), uniform(BoxShape.from_string("2,3/3,2/2"))],
    ids=repr)
def test_marginal_matches_the_loop_reference_on_stock_boxes(box):
    assert _check_every_marginal(box) == 0


@pytest.mark.parametrize("text", ["2,3/3,2", "1,2/2", "2,2/2,2/3", "3,2,4"])
def test_marginal_matches_the_loop_reference_on_strategy_mixtures(text):
    rng = random.Random(text)
    shape = BoxShape.from_string(text)
    for _ in range(10):
        box = _strategy_mixture(shape, rng)
        assert box.validate().ok
        assert _check_every_marginal(box) == 0


def test_marginal_matches_the_loop_reference_on_random_shapes():
    rng = random.Random(29)
    for _ in range(40):
        box = _strategy_mixture(random_shape(rng), rng)
        assert _check_every_marginal(box) == 0


@pytest.mark.parametrize("text", ["2,2/2,2", "2,3/3,2", "1,2/2", "2,2/2,2/3", "3,2,4"])
def test_marginal_of_a_signalling_box_is_refused_like_the_reference(text):
    # every party answers the sum of all inputs, so a marginal is refused
    # exactly when a dropped party has more than one input
    shape = BoxShape.from_string(text)
    box = Box.from_function(shape, lambda outs, ins: Fraction(int(all(
        a == sum(ins) % d for a, d in zip(outs, shape.outputs_at(ins))))))
    steered = [keep for r in range(1, shape.parties)
               for keep in combinations(range(shape.parties), r)
               if any(shape.inputs[j] > 1 for j in range(shape.parties) if j not in keep)]
    assert _check_every_marginal(box) == len(steered)


def test_mix_is_entrywise():
    m = mix(pr(), uniform(pr().shape), Fraction(3, 4))
    assert m.prob((0, 0), (0, 0)) == Fraction(3, 4) * HALF + Fraction(1, 4) * Fraction(1, 4)
    with pytest.raises(ShapeError):
        mix(pr(), dbox(3), HALF)


def test_product_digit_convention():
    """In product(a, b) the a-factor is the low digit of inputs and outputs."""
    p = product(pr(), local_deterministic())
    assert p.shape == BoxShape.homogeneous(2, 4, 4)
    for xa, ya, xb, yb in ((0, 0, 1, 1), (1, 0, 0, 1)):
        x, y = 2 * xb + xa, 2 * yb + ya
        for aa, ba in ((0, 0), (1, 1)):
            want = pr().prob((aa, ba), (xa, ya)) * local_deterministic().prob((0, 0), (xb, yb))
            assert p.prob((2 * 0 + aa, 2 * 0 + ba), (x, y)) == want


def test_product_of_valid_boxes_is_valid():
    assert product(pr(), pr()).validate().ok


def test_tensor_juxtaposes_parties():
    t = tensor(pr(), uniform(BoxShape(((2, 2),))))
    assert t.shape.parties == 3
    assert marginal(t, (0, 1)) == pr()
    assert t.prob((0, 1, 0), (0, 1, 1)) == pr().prob((0, 1), (0, 1)) * HALF


def _reference_product(a, b):
    """``product`` as a per-entry callback that decodes each entry's digits
    and reads both factors through ``prob``, as it was before it became two
    gathers on the table layout."""
    n = a.shape.parties
    shape = BoxShape(tuple(
        tuple(a.shape.outputs[k][xa] * b.shape.outputs[k][xb]
              for xb in range(b.shape.inputs[k]) for xa in range(a.shape.inputs[k]))
        for k in range(n)))

    def fn(outs, ins):
        ins_a, ins_b, outs_a, outs_b = [], [], [], []
        for k, (x, o) in enumerate(zip(ins, outs)):
            ma = a.shape.inputs[k]
            xa, xb = x % ma, x // ma
            da = a.shape.outputs[k][xa]
            ins_a.append(xa)
            ins_b.append(xb)
            outs_a.append(o % da)
            outs_b.append(o // da)
        return (a.prob(tuple(outs_a), tuple(ins_a))
                * b.prob(tuple(outs_b), tuple(ins_b)))

    return Box.from_function(shape, fn)


def _reference_tensor(a, b):
    """``tensor`` as a per-entry callback, as it was before it became two
    gathers on the table layout."""
    na = a.shape.parties
    return Box.from_function(
        BoxShape(a.shape.outputs + b.shape.outputs),
        lambda outs, ins: a.prob(outs[:na], ins[:na]) * b.prob(outs[na:], ins[na:]))


def test_product_and_tensor_match_the_entrywise_references():
    rng = random.Random(17)
    for _ in range(60):
        a = distinct_box(random_shape(rng, max_size=40), rng)
        b = distinct_box(random_shape(rng, a.shape.parties, max_size=40), rng)
        assert product(a, b) == _reference_product(a, b)
        assert tensor(a, b) == _reference_tensor(a, b)


def test_unique_completion():
    assert has_unique_completion(pr())
    assert has_unique_completion(dbox(3))
    assert has_unique_completion(local_deterministic())
    assert not has_unique_completion(uniform(pr().shape))
    with pytest.raises(ShapeError):
        has_unique_completion(two_way_vertex())


def test_is_deterministic():
    assert local_deterministic().is_deterministic()
    assert not pr().is_deterministic()
