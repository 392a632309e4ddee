"""Extensions of a bipartite box by an environment party, and the exact
check, with no vertex enumerated, that a box only extends as a product;
``build_hrep``'s table cap and the environment caps bound its size."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import (_MAX_JOINT_INPUTS, Box, BoxShape, ShapeError, _as_int,
                    _marginal_map, _numerators, marginal, tensor)
from .families import uniform
from .linalg import _fit, _max_abs
from .polytope import (HPolytope, _fraction_rows, _homogenized_cone, _indicator_rows,
                       build_hrep, is_extremal)
from .simplex import maximize


@dataclass(frozen=True)
class ExtensionPolytope:
    """Tripartite no-signalling boxes whose AB marginal equals the base for
    every environment input."""

    base: Box
    shape: BoxShape
    hrep: HPolytope


def _env_shape(env_inputs, env_outputs):
    if _as_int(env_inputs, "the environment's input count") < 1:
        raise ShapeError("the environment needs at least one input")
    if _as_int(env_outputs, "the environment's output count") < 1:
        raise ShapeError("the environment needs at least one output")
    if env_inputs > _MAX_JOINT_INPUTS:
        raise ShapeError(f"{env_inputs} environment inputs exceed the cap of "
                         f"{_MAX_JOINT_INPUTS} joint inputs")
    return BoxShape(((env_outputs,) * env_inputs,))


def build_extension_polytope(base, env_inputs, env_outputs):
    """No-signalling constraints for parties A, B, E plus one row per
    environment input e and base entry r, in that order, pinning the AB
    marginal's group e·K + r (``_marginal_map`` keeping A and B, K the
    base's table size) to the base.  Always nonempty: the base tensored
    with any environment distribution satisfies every row."""
    base.require_valid()
    if base.shape.parties != 2:
        raise ShapeError("extensions are built over bipartite bases")
    env = _env_shape(env_inputs, env_outputs)
    shape = BoxShape(base.shape.outputs + env.outputs)
    _, gid = _marginal_map(shape, (0, 1))
    pins = _indicator_rows(gid, env.inputs[0] * base.shape.table_size)
    plain = build_hrep(shape)
    # row i as integers: [-num_i | den·pin_i] over their gcd (num_i <= den)
    table = base.table * env.inputs[0]
    nums, den = _numerators(table)
    nums = nums.astype(np.int64 if den < 2 ** 63 else object)
    scaled = np.column_stack([-nums, den * pins.astype(nums.dtype)])
    rows = _fit(np.concatenate([plain._rows, scaled // np.gcd(nums, den)[:, None]]))
    extra = tuple(zip(_fraction_rows(pins), table))
    hrep = HPolytope(shape.table_size, plain.equalities + extra, shape, rows)
    return ExtensionPolytope(base, shape, hrep)


def all_extensions_factorize(base, env_inputs, env_outputs):
    """Whether every extension splits as base times an environment
    distribution; on failure, also a validated counterexample vertex.

    E factorizes iff L(E) = E - B ⊗ E_C is 0 (E_C sums E over A and B at
    each x, y), and all do iff L vanishes on the homogenized cone, whose
    columns span exactly the polytope: E is 0 where B is, B ⊗ uniform > 0
    elsewhere.  Else one sign of a row of L has a positive LP optimum, a
    non-product vertex.  Only the H-rep table cap and env caps bound it."""
    ext = build_extension_polytope(base, env_inputs, env_outputs)
    eq_int, rows = _homogenized_cone(ext.hrep)
    nums, den = _numerators(base.table)
    pin, c = (_marginal_map(ext.shape, keep)[1] for keep in ((0, 1), (2,)))
    b = nums[pin % len(nums)]
    # den·L = den·I - b_i·[c_i = c_j], applied to the rows by C-group sums:
    # a dense product would be cubic in the table size; b_i <= den
    r = rows[1:].astype(np.int64 if den * _max_abs(rows) * len(c) < 2 ** 62 else object,
                        copy=False)
    sums = np.zeros((c[-1] + 1, r.shape[1]), r.dtype)
    np.add.at(sums, c, r)
    moved = np.flatnonzero((den * r != b[:, None] * sums[c]).any(axis=1))
    if not len(moved):
        return True, None
    i = moved[0]
    row = [-int(b[i]) if g == c[i] else 0 for g in c.tolist()]
    row[i] += den
    for objective in (row, [-v for v in row]):
        lp = maximize(eq_int[:, 1:], (-eq_int[:, 0]).tolist(), objective)
        if lp.status == "optimal" and lp.objective > 0:
            witness = Box(ext.shape, lp.x)
            witness.require_valid()
            if (marginal(witness, (0, 1)) != base
                    or witness == tensor(base, marginal(witness, (2,)))
                    or not is_extremal(witness, ext.hrep)):
                raise RuntimeError("the LP optimum is not a non-product vertex")
            return False, witness
    raise RuntimeError("a row of L moves on the cone but not on the polytope")


def product_extension(base, env_inputs, env_outputs):
    """The base tensored with a uniform environment; a member of every
    extension polytope."""
    return tensor(base, uniform(_env_shape(env_inputs, env_outputs)))
