import time
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from nsbox import extend, polytope
from nsbox.boxes import Box, BoxShape, ShapeError, marginal, mix, tensor
from nsbox.extend import (all_extensions_factorize, build_extension_polytope,
                          product_extension)
from nsbox.families import dbox, local_deterministic, pr, uniform
from nsbox.linalg import clear_denominators
from nsbox.polytope import (HPolytope, _homogenized_cone, build_hrep, enumerate_vertices,
                            is_extremal)
from nsbox.simplex import LPResult, maximize


def test_extremal_bases_admit_only_product_extensions():
    for base in (pr(), dbox(3)):
        for env_in, env_out in iproduct((1, 2), (2, 3)):
            ok, witness = all_extensions_factorize(base, env_in, env_out)
            assert ok, (base.shape, env_in, env_out)
            assert witness is None


def _is_product(point):
    return point == tensor(marginal(point, (0, 1)), marginal(point, (2,)))


def _check_witness(base, env, witness):
    """The checks the library makes before it returns a witness."""
    witness.require_valid()
    assert marginal(witness, (0, 1)) == base
    assert not _is_product(witness)
    assert is_extremal(witness, build_extension_polytope(base, *env).hrep)


def test_interior_base_has_entangled_extensions():
    base = uniform(pr().shape)
    ok, witness = all_extensions_factorize(base, 1, 2)
    assert not ok
    _check_witness(base, (1, 2), witness)
    assert witness != product_extension(base, 1, 2)


def _reference_factorize(base, env_inputs, env_outputs):
    """The answer by enumeration: the first vertex, in sorted order, that
    does not factorize, if any."""
    ext = build_extension_polytope(base, env_inputs, env_outputs)
    for v in enumerate_vertices(ext.hrep).vertices:
        if not _is_product(v):
            return False, v
    return True, None


def _isotropic_pr(visibility):
    return mix(pr(), uniform(pr().shape), visibility)


ENVS = [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)]
CASES = ([(name, env) for name in ("pr", "dbox3", "deterministic") for env in ENVS]
         + [("uniform", (1, 2)), ("uniform", (1, 3)), ("isotropic", (1, 2)),
            ("pr_with_deterministic", (1, 2)), ("pr_with_deterministic", (1, 3))])


def _base(name):
    return {"pr": pr, "dbox3": lambda: dbox(3),
            "deterministic": lambda: local_deterministic(0, 1, 1, 0),
            "uniform": lambda: uniform(pr().shape),
            "isotropic": lambda: _isotropic_pr(Fraction(3, 4)),
            "pr_with_deterministic": lambda: mix(pr(), local_deterministic(0, 0, 0, 0),
                                                 Fraction(1, 2))}[name]()


@pytest.mark.parametrize("name, env", CASES, ids=str)
def test_answer_matches_the_vertex_loop_reference(name, env):
    base = _base(name)
    ok, witness = all_extensions_factorize(base, *env)
    expected, first = _reference_factorize(base, *env)
    assert ok == expected
    if ok:
        assert witness is None
    else:
        _check_witness(base, env, witness)
        _check_witness(base, env, first)


@pytest.mark.parametrize("name, env", [("uniform", (2, 2)), ("isotropic", (1, 3))], ids=str)
def test_large_extension_polytopes_are_decided_in_under_a_second(name, env):
    """Enumerating these polytopes' vertices takes 278 s and 57 s on a
    2-core x86 host."""
    base = _base(name)
    start = time.perf_counter()
    ok, witness = all_extensions_factorize(base, *env)
    assert time.perf_counter() - start < 1
    assert not ok
    _check_witness(base, env, witness)


def test_the_lp_objective_vanishes_on_products_and_not_on_the_witness(monkeypatch):
    """The objective is a row of the map E - B ⊗ E_C: zero on every product
    extension, positive on the vertex the LP returns."""
    seen = []

    def spy(rows, rhs, objective):
        seen.append(objective)
        return maximize(rows, rhs, objective)
    monkeypatch.setattr(extend, "maximize", spy)
    base = _isotropic_pr(Fraction(3, 4))
    ok, witness = all_extensions_factorize(base, 1, 2)
    assert not ok and seen
    env = BoxShape(((2,),))
    for point in (product_extension(base, 1, 2), tensor(base, Box(env, (1, 0))),
                  tensor(base, Box(env, (0, 1)))):
        assert [sum(o * v for o, v in zip(obj, point.table)) for obj in seen] == [0] * len(seen)
    assert sum(o * v for o, v in zip(seen[-1], witness.table)) > 0


def test_a_witness_that_is_not_a_non_product_vertex_is_refused(monkeypatch):
    base = uniform(pr().shape)
    _, vertex = all_extensions_factorize(base, 1, 2)
    product = product_extension(base, 1, 2)
    # a product vertex (the environment always outputs 0), a non-product
    # point that is not a vertex, and a non-product vertex over another base
    product_vertex = tensor(base, Box(BoxShape(((2,),)), (1, 0)))
    assert is_extremal(product_vertex, build_extension_polytope(base, 1, 2).hrep)
    _, other = all_extensions_factorize(_isotropic_pr(Fraction(3, 4)), 1, 2)
    for point in (product_vertex, mix(product, vertex, Fraction(1, 2)), other):
        def fake(rows, rhs, objective, point=point):
            return LPResult("optimal", x=point.table, objective=Fraction(1))
        monkeypatch.setattr(extend, "maximize", fake)
        with pytest.raises(RuntimeError, match="not a non-product vertex"):
            all_extensions_factorize(base, 1, 2)
    # an LP that finds no positive optimum for either sign
    monkeypatch.setattr(extend, "maximize", lambda rows, rhs, objective: LPResult(
        "optimal", x=product.table, objective=Fraction(0)))
    with pytest.raises(RuntimeError, match="moves on the cone"):
        all_extensions_factorize(base, 1, 2)


def test_product_extension_is_always_a_member():
    for base in (pr(), uniform(pr().shape), dbox(3)):
        ext = build_extension_polytope(base, 2, 2)
        point = product_extension(base, 2, 2)
        assert ext.hrep.contains(point.table)
        assert marginal(point, (0, 1)) == base


def test_deterministic_base_extension_vertices_are_env_strategies():
    base = local_deterministic(0, 1, 1, 0)
    ext = build_extension_polytope(base, 2, 3)
    vrep = enumerate_vertices(ext.hrep)
    assert len(vrep.vertices) == 3 ** 2
    for v in vrep.vertices:
        assert v == tensor(marginal(v, (0, 1)), marginal(v, (2,)))
        assert marginal(v, (0, 1)) == base
        assert marginal(v, (2,)).is_deterministic()


def test_extension_guards():
    with pytest.raises(ShapeError):
        build_extension_polytope(product_extension(pr(), 1, 2), 1, 2)
    with pytest.raises(ShapeError):
        build_extension_polytope(pr(), 0, 2)
    with pytest.raises(ShapeError):
        build_extension_polytope(pr(), 1, 0)
    with pytest.raises(ShapeError):
        build_extension_polytope(pr(), 1.5, 2)
    with pytest.raises(ShapeError):
        build_extension_polytope(pr(), True, 2)
    with pytest.raises(ShapeError):
        product_extension(pr(), 1, 2.0)


def test_extensions_take_numpy_integers():
    assert product_extension(pr(), np.int64(1), np.int64(2)) == product_extension(pr(), 1, 2)


def _reference_rows(base, env_inputs, env_outputs):
    """The pinning rows as a per-entry loop built them before the extension
    read ``boxes._marginal_map``: one per joint input and outcome pair."""
    shape = BoxShape(base.shape.outputs + ((env_outputs,) * env_inputs,))
    extra = []
    for ins in shape.joint_inputs:
        x, y, _ = ins
        for a in range(shape.outputs[0][x]):
            for b in range(shape.outputs[1][y]):
                row = [Fraction(0)] * shape.table_size
                for e in range(env_outputs):
                    row[shape.index((a, b, e), ins)] = Fraction(1)
                extra.append((tuple(row), base.prob((a, b), (x, y))))
    return shape, extra


@pytest.mark.parametrize("name", ["pr", "dbox3", "uniform"])
@pytest.mark.parametrize("env", [(1, 2), (2, 2), (2, 3)], ids=str)
def test_extension_rows_match_the_loop_reference(name, env):
    base = {"pr": pr(), "dbox3": dbox(3), "uniform": uniform(pr().shape)}[name]
    ext = build_extension_polytope(base, *env)
    shape, extra = _reference_rows(base, *env)
    plain = build_hrep(shape).equalities
    assert ext.shape == shape
    assert ext.hrep.equalities[:len(plain)] == plain
    assert len(ext.hrep.equalities) == len(plain) + len(extra)
    assert set(ext.hrep.equalities[len(plain):]) == set(extra)
    if env[0] == 1:
        assert ext.hrep.equalities[len(plain):] == tuple(extra)
    # the uniform base's polytope has 8100 vertices at (2, 2) and more than
    # two million at (2, 3)
    if name != "uniform" or env == (1, 2):
        reference = HPolytope(shape.table_size, plain + tuple(extra), shape)
        assert enumerate_vertices(ext.hrep) == enumerate_vertices(reference)


def _huge_denominator_base():
    """The PR box at a visibility whose denominator passes 2**63."""
    return _isotropic_pr(Fraction(2 ** 70, 2 ** 70 + 3))


EXTENSIONS = sorted(set(CASES) | {(name, env) for name in ("pr", "dbox3", "uniform")
                                  for env in ((1, 2), (2, 2), (2, 3))}
                    | {("uniform", (2, 2)), ("isotropic", (1, 3))}
                    | {("huge_denominator", env) for env in ((1, 2), (2, 2))})


@pytest.mark.parametrize("name, env", EXTENSIONS, ids=str)
def test_extension_integer_rows_are_the_cleared_fraction_rows(name, env):
    """The integer rows made from the pins' numerators are the equalities
    cleared row by row, and the cone read from them is the cone of a copy
    that clears its Fraction rows itself."""
    base = _huge_denominator_base() if name == "huge_denominator" else _base(name)
    hrep = build_extension_polytope(base, *env).hrep
    assert hrep._rows.tolist() == [clear_denominators([-rhs, *row])
                                   for row, rhs in hrep.equalities]
    assert hrep._rows.dtype == (object if name == "huge_denominator" else np.int64)
    copy = HPolytope(hrep.ambient, hrep.equalities, hrep.shape)
    assert copy == hrep and hash(copy) == hash(hrep) and repr(copy) == repr(hrep)
    assert copy._rows is None
    for want, got in zip(_homogenized_cone(copy), _homogenized_cone(hrep)):
        assert want.dtype == got.dtype and want.tolist() == got.tolist()
    assert copy._rows.tolist() == hrep._rows.tolist()


def test_a_base_with_huge_denominators_has_entangled_extensions():
    base = _huge_denominator_base()
    for env in ((1, 2), (2, 2)):
        ok, witness = all_extensions_factorize(base, *env)
        assert not ok
        _check_witness(base, env, witness)


@pytest.mark.parametrize("name, env", CASES, ids=str)
def test_the_answer_does_not_depend_on_the_order_of_the_cone_columns(name, env, monkeypatch):
    """Every column of the cone counts: with each column first in turn,
    the answer and the witness stay the same."""
    base = _base(name)
    want = all_extensions_factorize(base, *env)
    count = _homogenized_cone(build_extension_polytope(base, *env).hrep)[1].shape[1]
    for shift in range(count):
        def rotated(h, shift=shift):
            eq_int, rows = _homogenized_cone(h)
            return eq_int, np.roll(rows, -shift, axis=1)
        monkeypatch.setattr(extend, "_homogenized_cone", rotated)
        assert all_extensions_factorize(base, *env) == want, shift


def test_dense_cone_rows_are_capped_before_the_nullspace(monkeypatch):
    """With one environment input and N outputs the cone's rows are about
    (4N)² entries; N = 500 is answered, N = 2000 refused before any basis
    is built, with little memory."""
    base = uniform("1:2/1:2")
    ok, witness = all_extensions_factorize(base, 1, 500)
    assert not ok
    assert marginal(witness, (0, 1)) == base

    def unreachable(*args):
        raise AssertionError("nullspace built past the cap")
    monkeypatch.setattr(polytope, "_nullspace", unreachable)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ShapeError, match="homogenized cone"):
            all_extensions_factorize(base, 1, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 16 * 2 ** 20
