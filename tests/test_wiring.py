import random
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from nsbox.boxes import Box, BoxShape, InvalidBoxError
from nsbox.families import dbox, pr, svetlichny_box, uniform, xyplusz, xyz_box
from nsbox.wiring import (Component, PartyProgram, Step, Wiring, WiringError,
                          evaluate_wiring, preset, protocol3_error)


def test_two_boxes_multiply_into_one():
    assert evaluate_wiring(preset("P1", 2, 2)).table == dbox(4).table
    assert evaluate_wiring(preset("P1", 2, 3)).table == dbox(6).table


def test_one_box_projects_down():
    assert evaluate_wiring(preset("P2", 2, 4)).table == pr().table
    assert evaluate_wiring(preset("P2", 3, 2)).table == dbox(3).table


def test_tripartite_presets_hit_the_named_families():
    assert evaluate_wiring(preset("P5")).table == xyplusz().table
    assert evaluate_wiring(preset("P6")).table == svetlichny_box().table
    assert evaluate_wiring(preset("P7")).table == xyz_box().table


def test_preset_argument_checking():
    with pytest.raises(WiringError):
        preset("P4")
    with pytest.raises(WiringError):
        preset("P1", 2)
    with pytest.raises(WiringError):
        preset("P1", 1, 2)
    with pytest.raises(WiringError):
        preset("P3", 2, 2, 0)
    with pytest.raises(WiringError):
        preset("P2", "x", 2)
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(WiringError, match="P1 parameter must be an integer"):
            preset("P1", 2, bad)
    assert preset("P1", np.int64(2), 2) == preset("P1", 2, 2)
    with pytest.raises(WiringError, match="joint assignments"):
        preset("P3", 2, 3, 20)   # refused before any step table is built
    with pytest.raises(WiringError, match="joint assignments"):
        preset("P3", 2, 3, 10 ** 12)


def test_chained_conversion_error_table():
    assert protocol3_error(2, 4, 2) == 0
    assert protocol3_error(2, 8, 3) == 0
    expected = {2: Fraction(1, 4), 3: Fraction(1, 6), 4: Fraction(1, 16),
                5: Fraction(1, 24), 6: Fraction(1, 64)}
    for n, err in expected.items():
        assert protocol3_error(2, 3, n) == err


def test_component_override():
    w = preset("P2", 2, 4)
    shape8 = dbox(8).shape
    out = evaluate_wiring(w, components=[uniform(shape8)])
    assert out.table == uniform(pr().shape).table
    with pytest.raises(WiringError):
        evaluate_wiring(w, components=[pr()])  # wrong shape
    with pytest.raises(WiringError):
        evaluate_wiring(w, components=[])


def test_signalling_component_is_rejected():
    w = preset("P2", 2, 2)
    shape = dbox(4).shape
    table = [Fraction(0)] * shape.table_size
    for x, y in shape.joint_inputs:
        table[shape.index((0, x), (x, y))] = Fraction(1)  # Bob sees X
    leaky = Box(shape, tuple(table))
    with pytest.raises(InvalidBoxError):
        evaluate_wiring(w, components=[leaky])


def _identity(n):
    return {(x,): x for x in range(n)}


def _crossed_wiring(flip_order):
    """Two PR boxes between the same two parties; party 1 can walk its
    sides in either order."""
    shape = BoxShape.homogeneous(2, 2, 2)
    comps = (Component(pr(), (0, 1)), Component(pr(), (0, 1)))
    alice = PartyProgram(
        steps=(Step(0, 0, _identity(2)),
               Step(1, 0, {(x, o): x for x in range(2) for o in range(2)})),
        outputs={(x, o1, o2): o1 ^ o2
                 for x in range(2) for o1 in range(2) for o2 in range(2)})
    order = ((1, 1), (0, 1)) if flip_order else ((0, 1), (1, 1))
    bob = PartyProgram(
        steps=(Step(order[0][0], order[0][1], _identity(2)),
               Step(order[1][0], order[1][1],
                    {(y, o): y for y in range(2) for o in range(2)})),
        outputs={(y, o1, o2): o1 ^ o2
                 for y in range(2) for o1 in range(2) for o2 in range(2)})
    return Wiring(shape, comps, (alice, bob))


def test_step_order_across_parties_does_not_matter():
    plain = evaluate_wiring(_crossed_wiring(False))
    crossed = evaluate_wiring(_crossed_wiring(True))
    plain.require_valid()
    assert plain.table == crossed.table


def test_validation_catches_broken_wirings():
    shape = BoxShape.homogeneous(2, 2, 2)
    comp = Component(pr(), (0, 1))
    alice = PartyProgram((Step(0, 0, _identity(2)),),
                         {(x, o): o for x in range(2) for o in range(2)})
    bob = PartyProgram((Step(0, 1, _identity(2)),),
                       {(y, o): o for y in range(2) for o in range(2)})

    with pytest.raises(WiringError, match="one program per"):
        evaluate_wiring(Wiring(shape, (comp,), (alice,)))
    with pytest.raises(WiringError, match="does not exist"):
        evaluate_wiring(Wiring(shape, (comp,), (
            PartyProgram((Step(5, 0, _identity(2)),), alice.outputs), bob)))
    with pytest.raises(WiringError, match="belongs to party"):
        evaluate_wiring(Wiring(shape, (comp,), (
            PartyProgram((Step(0, 1, _identity(2)),), alice.outputs), bob)))
    with pytest.raises(WiringError, match="used twice"):
        both = PartyProgram(
            (Step(0, 0, _identity(2)),
             Step(0, 0, {(x, o): x for x in range(2) for o in range(2)})),
            {(x, o1, o2): o1 for x in range(2)
             for o1 in range(2) for o2 in range(2)})
        evaluate_wiring(Wiring(shape, (Component(pr(), (0, 0)),),
                               (both, PartyProgram((), _identity(2)))))
    with pytest.raises(WiringError, match="unused component sides"):
        evaluate_wiring(Wiring(shape, (comp,), (
            PartyProgram((), _identity(2)), bob)))
    with pytest.raises(WiringError, match="no input for scope"):
        evaluate_wiring(Wiring(shape, (comp,), (
            PartyProgram((Step(0, 0, {(0,): 0}),), alice.outputs), bob)))
    with pytest.raises(WiringError, match="outside the component's input"):
        evaluate_wiring(Wiring(shape, (comp,), (
            PartyProgram((Step(0, 0, {(x,): 7 for x in range(2)}),),
                         alice.outputs), bob)))
    with pytest.raises(WiringError, match="no final output"):
        evaluate_wiring(Wiring(shape, (comp,), (
            PartyProgram((Step(0, 0, _identity(2)),), {(0, 0): 0}), bob)))
    with pytest.raises(WiringError, match="outside the declared output"):
        evaluate_wiring(Wiring(shape, (comp,), (
            PartyProgram((Step(0, 0, _identity(2)),),
                         {(x, o): 3 for x in range(2) for o in range(2)}),
            bob)))


def test_random_wirings_always_yield_valid_boxes():
    from wiring_helpers import random_wiring
    rng = random.Random(99)
    for _ in range(60):
        out = evaluate_wiring(random_wiring(rng))
        out.require_valid()


def _reference_evaluate(wiring, components=None):
    """The product loop evaluate_wiring ran before wirings were lowered to
    communication protocols, kept as an independent oracle (no validation:
    the wirings below are valid)."""
    boxes = ([c.box for c in wiring.components] if components is None
             else list(components))
    shape = wiring.shape
    sides = [(c, s) for c, comp in enumerate(wiring.components)
             for s in range(len(comp.parties))]
    pos = {cs: i for i, cs in enumerate(sides)}
    ranges = [range(max(boxes[c].shape.outputs[s])) for c, s in sides]

    table = [Fraction(0)] * shape.table_size
    for ins in shape.joint_inputs:
        for assign in iproduct(*ranges):
            comp_ins = [[None] * len(comp.parties)
                        for comp in wiring.components]
            outs = []
            for k, prog in enumerate(wiring.programs):
                prev = []
                for st in prog.steps:
                    comp_ins[st.component][st.side] = st.inputs[(ins[k], *prev)]
                    prev.append(assign[pos[(st.component, st.side)]])
                outs.append(prog.outputs[(ins[k], *prev)])
            weight = Fraction(1)
            for c, box in enumerate(boxes):
                cins = tuple(comp_ins[c])
                couts = tuple(assign[pos[(c, s)]]
                              for s in range(box.shape.parties))
                if any(o >= box.shape.outputs[s][x]
                       for s, (o, x) in enumerate(zip(couts, cins))):
                    weight = Fraction(0)
                    break
                weight *= box.prob(couts, cins)
                if not weight:
                    break
            if weight:
                table[shape.index(tuple(outs), ins)] += weight
    return Box(shape, tuple(table))


def test_lowered_evaluation_matches_the_reference_loop():
    from wiring_helpers import random_wiring
    cases = [(preset(name, *dims), None) for name in ("P1", "P2")
             for dims in ((2, 2), (2, 3), (3, 2), (2, 4))]
    cases += [(preset("P3", 2, dp, n), None)
              for dp in (3, 4) for n in range(1, 6)]
    cases += [(preset(name), None) for name in ("P5", "P6", "P7")]
    cases += [(_crossed_wiring(flip), None) for flip in (False, True)]
    cases += [(preset("P2", 2, 4), [uniform(dbox(8).shape)]),
              (preset("P2", 2, 4), [evaluate_wiring(preset("P1", 2, 4))]),
              (preset("P5"), [uniform(pr().shape), pr(1, 1, 0)]),
              (preset("P1", 2, 2), [pr(0, 1, 1), uniform(pr().shape)])]
    rng = random.Random(7)
    cases += [(random_wiring(rng), None) for _ in range(60)]
    for wiring, components in cases:
        assert (evaluate_wiring(wiring, components).table
                == _reference_evaluate(wiring, components).table)
