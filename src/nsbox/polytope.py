"""H- and V-representations of no-signalling polytopes, vertex enumeration
and orbit classification."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod

import numpy as np

from . import relabel
from .boxes import (_MAX_TABLE_SIZE, Box, BoxShape, InvalidBoxError, ShapeError,
                    ValidationReport, _layout, _marginal_map, flat)
from .dd import EnumerationCapError, _extreme_rays
from .families import dbox
from .linalg import (_int_array, _int_products, _max_abs, _nullspace, _primitive_rows,
                     clear_denominators, int_rank)
from .simplex import _Phase1


@dataclass(frozen=True)
class HPolytope:
    """Equalities (row, rhs) over the flat table; the only inequalities are
    positivity, one per coordinate.

    ``_rows`` holds the equalities as one integer array [-rhs | row], each
    row primitive and in equality order, int64 when every entry fits and
    Python ints past that.  ``build_hrep`` and ``build_extension_polytope``
    make it from their integer indicator rows; any other HPolytope clears
    its rows on first use and keeps them.  ``contains``, ``is_extremal``
    and ``_homogenized_cone`` read it, so no Fraction row is summed or
    cleared again; it takes no part in equality, hash or repr."""

    ambient: int
    equalities: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    shape: BoxShape | None = None
    _rows: np.ndarray | None = field(default=None, compare=False, repr=False)

    def _int_rows(self):
        if self._rows is None:
            cleared = [clear_denominators([-rhs, *row]) for row, rhs in self.equalities]
            object.__setattr__(self, "_rows", _int_array(cleared).reshape(
                len(cleared), 1 + self.ambient))
        return self._rows

    def contains(self, point):
        if len(point) != self.ambient:
            raise ShapeError("point has wrong dimension")
        if any(v < 0 for v in point):
            return False
        # [-rhs | row]·[den | den·point] = den·(row·point - rhs)
        return not _int_products(self._int_rows(),
                                 _int_array([clear_denominators([1, *point])])).any()


@dataclass(frozen=True)
class VRep:
    """A polytope's vertices: ``Box``es of its shape, or tuples of
    Fractions when the H-rep has no shape; ``enumerate_vertices`` sorts
    them by table.  ``full`` says the list is complete, which
    ``classify_vertices`` needs.  ``_orbits`` holds the relabelling orbits
    that the orbit-wise enumeration walked, one ascending tuple of vertex
    indices each, which ``classify_vertices`` reads instead of walking
    them again; it takes no part in equality or repr."""

    vertices: tuple[Box, ...]
    full: bool = True
    _orbits: tuple[tuple[int, ...], ...] | None = field(
        default=None, compare=False, repr=False)


_UNBOUNDED = "the set is unbounded: the homogenized cone has a ray with t = 0"

# a row entry c in {0, 1, -1} as the Fraction _UNITS[c]
_UNITS = (Fraction(0), Fraction(1), Fraction(-1))


def _indicator_rows(gid, count, step=0):
    """``count`` int8 rows over the entries of a ``_marginal_map`` group-id
    array: row g is +1 where gid == g and, given a step, -1 where
    gid == g + step."""
    rows = np.zeros((count, len(gid)), np.int8)
    cols = np.arange(len(gid))
    on = gid < count
    rows[gid[on], cols[on]] = 1
    if step:
        on = (gid >= step) & (gid < count + step)
        rows[gid[on] - step, cols[on]] = -1
    return rows


def _fraction_rows(rows):
    """Rows of entries in {0, 1, -1} as tuples of Fractions."""
    return [tuple(map(_UNITS.__getitem__, row)) for row in rows.tolist()]


def normalization_rows(shape):
    """One int8 indicator row per joint input: the block must sum to one."""
    return _indicator_rows(_marginal_map(shape, ())[1], prod(shape.inputs))


def _equality_count(shape):
    """How many rows ``build_hrep`` gives: one per joint input, then per
    party k and each of its inputs but the last, one per joint input and
    joint output of the other parties."""
    sums = [sum(p) for p in shape.outputs]
    return len(shape.joint_inputs) + sum(
        (len(shape.outputs[k]) - 1) * prod(sums[:k] + sums[k + 1:])
        for k in range(shape.parties))


def build_hrep(shape):
    """Normalization and no-signalling equalities for a shape, one
    no-signalling family per party k against the joint rest: the rest's
    marginal (``_marginal_map`` dropping k) at each input x of k but the
    last equals that at x + 1.  Refused when the dense rows would hold
    more than the table-size cap of entries."""
    n = shape.table_size
    cells = _equality_count(shape) * n
    if cells > _MAX_TABLE_SIZE:
        raise ShapeError(f"the H-representation of {cells} entries exceeds "
                         f"the cap of {_MAX_TABLE_SIZE}")
    blocks = [_indicator_rows(_marginal_map(shape, ())[1], prod(shape.inputs))]
    for k in range(shape.parties):
        rest, gid = _marginal_map(shape, tuple(j for j in range(shape.parties) if j != k))
        size = rest.table_size if rest else 1
        blocks.append(_indicator_rows(gid, (shape.inputs[k] - 1) * size, size))
    rows = np.concatenate(blocks)
    rhs = np.zeros(len(rows), np.int64)
    rhs[:len(blocks[0])] = 1
    equalities = tuple(zip(_fraction_rows(rows), map(_UNITS.__getitem__, rhs.tolist())))
    return HPolytope(n, equalities, shape, np.column_stack([-rhs, rows]))


def dimension(shape):
    """Affine dimension of the no-signalling polytope of a shape: the
    product over parties of (sum over inputs of (outputs - 1)) + 1, less
    one."""
    return prod(sum(d - 1 for d in p) + 1 for p in shape.outputs) - 1


def _presolve_zeros(eq_int):
    """Coordinates forced to zero by the same-sign rows with rhs 0 of an
    integer array of rows [-rhs | row]: a fixpoint over their sign matrix,
    each round fixing every live coordinate of a row whose live signs agree."""
    signs = np.sign(eq_int[eq_int[:, 0] == 0, 1:]).astype(np.int8)
    fixed = np.zeros(signs.shape[1], dtype=bool)
    while True:
        live = np.where(fixed, 0, signs)
        agree = (live >= 0).all(axis=1) | (live <= 0).all(axis=1)
        grown = fixed | live[agree].any(axis=0)
        if (grown == fixed).all():
            return set(np.flatnonzero(fixed).tolist())
        fixed = grown


def _homogenized_cone(h):
    """(eq_int, rows) for the vertices of {x >= 0, equalities}: the
    equalities as distinct primitive integer rows [-rhs | row], and one
    row per coordinate of (t, x) over a nullspace basis of the equalities,
    all-zero for the coordinates they force to zero; both are integer
    arrays, int64 when every entry fits, else Python ints.  Each
    extreme ray y of the cone {y : rows·y >= 0} with slack row z = rows·y
    and t = z[0] > 0 is one vertex z[1:] / t.  Refused before the
    nullspace when the rows could hold more than the table-size cap of
    entries."""
    eq_int = _primitive_rows(h._int_rows())
    if not len(eq_int):
        raise ShapeError("a polytope needs at least one equality (normalization)")

    fixed = _presolve_zeros(eq_int)
    live = [0] + [1 + c for c in range(h.ambient) if c not in fixed]
    cells = (1 + h.ambient) * len(live)
    if cells > _MAX_TABLE_SIZE:
        raise ShapeError(f"the homogenized cone's rows of up to {cells} entries "
                         f"exceed the cap of {_MAX_TABLE_SIZE}")
    left = _primitive_rows(eq_int[:, live])
    # no row left: every live column is free (a one-point polytope when the
    # presolve fixed every coordinate)
    basis = _nullspace(left) if len(left) else np.eye(len(live), dtype=np.int64)
    if not len(basis):
        raise ShapeError("equalities admit only the zero solution; no polytope")
    rows = np.zeros((1 + h.ambient, len(basis)), dtype=basis.dtype)
    rows[live] = basis.T
    return eq_int, rows


def _symmetry_maps(h, eq_int, rows):
    """The gather maps over the cone's rows of the relabelling generators
    of ``h.shape`` (the t row stays, row 1 + i goes as coordinate i) when
    every one maps the polytope onto itself, else None.

    A relabelling g permutes coordinates, so it keeps x >= 0.  Every point
    (1, x) of the polytope lies in the span of the homogenized basis N
    (``rows``), so g maps the polytope into itself when
    [-rhs | E]·(g·N) = 0, and onto itself since g has finite order."""
    if h.shape is None or h.shape.table_size != h.ambient:
        return None
    _, maps = relabel._generator_maps(h.shape, True)
    maps = np.concatenate([np.zeros((len(maps), 1), dtype=np.intp), 1 + maps], axis=1)
    columns = rows[maps].transpose(0, 2, 1).reshape(-1, 1 + h.ambient)
    if _int_products(eq_int, columns).any():
        return None
    return maps


def _scaled(z):
    """(den, scaled) for integer rows z = (t, x) with every t > 0: den is
    the lcm of the t and row i of scaled is x·den/t, so the point of row i
    is scaled[i] / den.  Scaled rows order exactly as the points do."""
    t = z[:, 0].tolist()
    den = lcm(*t)
    scale = [den // v for v in t]
    if _max_abs(z) * max(scale) >= 2 ** 63:
        z = z.astype(object)
    return den, z[:, 1:] * np.array(scale, dtype=z.dtype)[:, None]


def _edge_ends(z, w):
    """The far end of the edge from the ray with slack row z along each
    slack direction row of w, as primitive integer slack rows; z and w are
    integer arrays.

    The step is the exact ratio test min z[i] / -w[i] over w[i] < 0, kept
    per edge as p / q and compared by cross-multiplying, column by column;
    the end is then q·z + p·w.  Under the guard each term is below 2**62
    in magnitude, so int64 holds the sums; past it the arithmetic is on
    Python ints."""
    if _max_abs(z) * _max_abs(w) >= 2 ** 62:
        w = w.astype(object)
    z = z.astype(w.dtype)
    p = np.zeros(len(w), dtype=w.dtype)
    q = np.zeros(len(w), dtype=w.dtype)
    for i in np.flatnonzero(z).tolist():
        step = -w[:, i]
        take = (step > 0) & ((q == 0) | (z[i] * q < p * step))
        p = np.where(take, z[i], p)
        q = np.where(take, step, q)
    ends = q[:, None] * z + p[:, None] * w
    return ends // np.gcd.reduce(ends, axis=1)[:, None]


def _merged(orbits):
    """(values, rows, orbit_of) for orbits given as (sorted values, id
    rows): the sorted union of their values, their rows stacked and
    recoded by rank in the narrowest unsigned dtype, and each row's orbit."""
    values = sorted(set().union(*(vals for vals, _ in orbits)))
    rank = {v: i for i, v in enumerate(values)}
    dtype = np.min_scalar_type(len(values))
    rows = np.concatenate([np.array([rank[v] for v in vals], dtype)[codes]
                           for vals, codes in orbits])
    return values, rows, np.repeat(np.arange(len(orbits)), [len(c) for _, c in orbits])


def _orbit_rays(rows, maps, start, max_rays, time_budget):
    """The extreme rays of the pointed cone {y : rows·y >= 0}, for an
    integer array ``rows`` whose rows the gather maps permute, by adjacency
    decomposition from the primitive slack row ``start`` = rows·y of one
    extreme ray y.

    Returns one (values, codes) per orbit: the sorted distinct entries of
    the orbit's primitive slack rows, and those rows as ids into them in
    the narrowest unsigned dtype.

    The sum of the rows is positive on every nonzero point of the cone, so
    the rays are the vertices of the cone's section where that sum is
    fixed, and edges run on the hyperplane where it is zero.  For each
    orbit's first ray, with zero set T, the edge directions are the
    extreme rays of {u : (rows·u)_T >= 0} on that hyperplane; each edge's
    far end that lies in no orbit found so far starts a new orbit, walked
    under the maps.  The edge graph is connected and the maps send edges
    to edges, so every orbit is reached.  A ray is the only one of the
    cone, up to scale, that is tight where it is, so rays are keyed by
    their zero sets and only a new orbit's first ray is coded."""
    t0 = time.monotonic()
    # u = B·w over a basis B of the hyperplane; edge_rows·w = rows·u
    edges = _nullspace(rows.sum(axis=0, dtype=object)[None])
    edge_rows = _int_products(rows, edges)

    by_zeros = {}   # zero-set key -> orbit number
    orbits = []     # (values, codes) per orbit
    queue = []

    def add_orbits(ends):
        keys = relabel._row_keys(np.packbits(ends == 0, axis=1))
        for end, key in zip(ends, keys):
            if key in by_zeros:
                continue
            values, ids = np.unique(end, return_inverse=True)
            codes = ids.astype(np.min_scalar_type(len(values)))[None]
            walked = b"".join(relabel._walk(codes, maps))
            codes = np.frombuffer(walked, codes.dtype).reshape(-1, len(end))
            zero = (codes == 0) & (values[0] == 0)
            by_zeros.update(dict.fromkeys(
                relabel._row_keys(np.packbits(zero, axis=1)), len(orbits)))
            orbits.append((values.tolist(), codes))
            queue.append(end)
        if len(by_zeros) > max_rays:
            raise EnumerationCapError(
                f"vertex cap {max_rays} exceeded ({len(by_zeros)} vertices, "
                f"{len(queue)} orbits left to expand)")

    add_orbits(_int_array([start]))
    while queue and len(edges):
        z = queue.pop()
        left = None
        if time_budget is not None:
            elapsed = time.monotonic() - t0
            left = time_budget - elapsed
            if left <= 0:
                raise EnumerationCapError(
                    f"time budget {time_budget}s exceeded after {elapsed:.1f}s "
                    f"with {len(queue) + 1} orbits left to expand and "
                    f"{len(by_zeros)} vertices")
        try:
            rays = _extreme_rays(edge_rows[z == 0], max_rays, left)
        except EnumerationCapError as exc:
            raise EnumerationCapError(
                f"{exc}, in a vertex cone, with {len(by_zeros)} vertices "
                f"found and {len(queue) + 1} orbits left to expand") from exc
        add_orbits(_edge_ends(z, _int_products(rays, edge_rows)))
    return orbits


def _vertex_rows(h, max_rays, time_budget):
    """The vertices of {x >= 0, equalities} as ``(values, ids, orbit_of)``:
    the sorted distinct entries, one row of ids into them per vertex, the
    rows sorted (ids follow value order, so the rows sort as the tables
    do), and each row's relabelling orbit number from the orbit-wise path,
    or None from the full DD run; see ``enumerate_vertices``."""
    eq_int, rows = _homogenized_cone(h)
    maps = _symmetry_maps(h, eq_int, rows)
    if maps is not None:
        lp = _Phase1(eq_int[:, 1:], (-eq_int[:, 0]).tolist(), eq_int.shape[1] - 1).solve()
        if lp.status != "optimal":
            return [], np.zeros((0, h.ambient), dtype=np.intp), None
        orbits = _orbit_rays(rows, maps, clear_denominators([1, *lp.x]),
                             max_rays, time_budget)
        # t is the same on an orbit, since the maps keep the t row
        ts = [values[codes[0, 0]] for values, codes in orbits]
        if not all(ts):
            raise ShapeError(_UNBOUNDED)
        values, ids, orbit_of = _merged([([Fraction(v, t) for v in values], codes[:, 1:])
                                         for (values, codes), t in zip(orbits, ts)])
    else:
        # rays with t = 0 are recession directions, the others vertices
        z = _int_products(_extreme_rays(rows, max_rays, time_budget), rows)
        if not z[:, 0].any():
            return [], np.zeros((0, h.ambient), dtype=np.intp), None
        if not z[:, 0].all():
            raise ShapeError(_UNBOUNDED)
        # vertex i is z[i, 1:] / t[i]; scaled to the common denominator of
        # all t, the integer rows order exactly as the Fraction tables do
        den, scaled = _scaled(z)
        nums, inverse = np.unique(scaled, return_inverse=True)
        values = [Fraction(v, den) for v in nums.tolist()]
        ids = inverse.reshape(scaled.shape)
        orbit_of = None
    # each distinct entry is one Fraction (lexsort's primary key is its last)
    order = np.lexsort(ids.T[::-1])
    return values, ids[order], None if orbit_of is None else orbit_of[order]


def enumerate_vertices(h, max_rays=2_000_000, time_budget=None):
    """All vertices of {x >= 0, equalities}.

    Deterministic: vertices come back sorted by their flat tables.  Raises
    EnumerationCapError (never truncates silently) if caps are hit, and
    ShapeError if the set is unbounded.

    When ``h.shape`` is set and every relabelling generator of the shape
    maps the polytope onto itself (checked exactly on the equalities), the
    vertices are found orbit by orbit from one LP vertex by ``_orbit_rays``
    on the homogenized cone: one vertex cone per orbit, walked along its
    edges (adjacency decomposition).  ``max_rays`` then caps each cone's
    intermediate rays and the vertex count, and ``time_budget`` covers the
    whole call; the VRep keeps the walked orbits, which
    ``classify_vertices`` reads.  Otherwise they are the extreme rays of
    the homogenized cone, by one double description run.
    """
    values, ids, orbit_of = _vertex_rows(h, max_rays, time_budget)
    vertices = [tuple(v) for v in np.array(values, dtype=object)[ids].tolist()]
    if h.shape is None:
        return VRep(tuple(vertices), full=True)
    boxes = tuple(Box(h.shape, v) for v in vertices)
    if orbit_of is None:
        return VRep(boxes, full=True)
    return VRep(boxes, full=True, _orbits=_orbit_members(orbit_of))


def _orbit_members(orbit_of):
    """The vertex indices of each orbit, given each vertex's orbit number:
    one ascending tuple per orbit, ordered by least member."""
    by_orbit = np.argsort(orbit_of, kind="stable")
    groups = np.split(by_orbit, np.cumsum(np.bincount(orbit_of))[:-1])
    return tuple(sorted(tuple(g.tolist()) for g in groups))


def is_extremal(box, polytope=None):
    """Whether a valid box is a vertex: the equalities plus its tight
    positivity constraints pin it uniquely (rank argument, exact)."""
    box.require_valid()
    h = build_hrep(box.shape) if polytope is None else polytope
    if len(box.table) != h.ambient:
        raise ShapeError("box does not live in the polytope's ambient space")
    if not h.contains(box.table):
        raise InvalidBoxError(ValidationReport(("box is not a member of the given polytope",)))
    support = [1 + i for i, v in enumerate(box.table) if v > 0]
    return int_rank(h._int_rows()[:, support]) == len(support)


@dataclass(frozen=True)
class OrbitClass:
    representative: Box
    size: int
    members: tuple[int, ...]


def classify_vertices(vrep, allow_party_permutation=True):
    """Partition a complete vertex list into relabelling orbits.

    Returns OrbitClass tuples sorted by representative table; representatives
    are the lexicographically smallest members.  A VRep from the orbit-wise
    path of ``enumerate_vertices`` carries the orbits its enumeration walked
    under the same generators, with the vertices sorted by table, so with
    party permutations allowed the classes are read from it and nothing is
    walked.  Any other VRep (full DD, built from boxes, or classified
    without party permutations) has its orbits walked over the vertices'
    value-id rows, whose bytes order exactly as the tables do
    lexicographically, so the least row in an orbit is its representative."""
    if not vrep.vertices:
        return ()
    if not vrep.full:
        raise ShapeError("classification needs a complete vertex list")
    if vrep._orbits is not None and allow_party_permutation:
        # members ascend and the vertices are sorted, so members[0] is the
        # least table, and the orbits come ordered by it
        return tuple(OrbitClass(vrep.vertices[m[0]], len(m), m)
                     for m in vrep._orbits)
    shape = vrep.vertices[0].shape
    _, maps = relabel._generator_maps(shape, allow_party_permutation)
    _, codes = relabel._encode([b.table for b in vrep.vertices])
    index_of = {key: i for i, key in enumerate(relabel._row_keys(codes))}
    if len(index_of) != len(codes):
        raise ShapeError("duplicate vertices in VRep")

    unseen = set(range(len(codes)))
    classes = []
    while unseen:
        orbit_keys = relabel._walk(codes[[min(unseen)]], maps)
        if not orbit_keys.keys() <= index_of.keys():
            raise ShapeError(
                "orbit leaves the vertex list; VRep is not a complete "
                "enumeration of a relabelling-closed set")
        members = sorted(index_of[key] for key in orbit_keys)
        rep = vrep.vertices[index_of[min(orbit_keys)]]
        classes.append(OrbitClass(rep, len(members), tuple(members)))
        unseen -= set(members)
    classes.sort(key=lambda c: c.representative.table)
    return tuple(classes)


def lift_box(box, target_shape):
    """Embed a box into a shape with more outputs per input (identity map on
    outcomes, zero probability on the new ones)."""
    if box.shape.inputs != target_shape.inputs:
        raise ShapeError("lifting cannot change input structure")
    counts, lay = _layout(box.shape).counts, _layout(target_shape)
    if (counts > lay.counts).any():
        raise ShapeError("lifting cannot drop outputs")
    ins, outs = lay.inputs[lay.joint], lay.outs
    inside = (outs < counts[np.arange(box.shape.parties), ins]).all(axis=1)
    at = np.where(inside, flat(box.shape, ins, outs), box.shape.table_size)
    table = box.table + (Fraction(0),)
    return Box(target_shape, tuple(table[i] for i in at.tolist()))


@dataclass(frozen=True)
class KBoxClass:
    representative: Box
    size: int
    k: int | None          # None marks the deterministic (local) classes
    lifted: bool

    @property
    def nonlocal_(self):
        return self.k is not None


@dataclass(frozen=True)
class KBoxCensus:
    shape: BoxShape
    classes: tuple[KBoxClass, ...]

    @property
    def all_nonlocal_matched(self):
        return all(c.k is not None for c in self.classes if not c.representative.is_deterministic())

    @property
    def ks(self):
        return tuple(sorted({c.k for c in self.classes if c.k is not None}))

    @property
    def vertex_count(self):
        return sum(c.size for c in self.classes)


def kbox_census(d_alice, d_bob, max_rays=2_000_000, time_budget=None):
    """Enumerate a two-input bipartite polytope and match every non-local
    vertex class to a (possibly lifted) k-box; k runs over
    2..min(output counts).

    The census reads the orbit-wise enumeration's sorted vertex id rows and
    orbit numbers, and builds a Box only for each class's representative,
    its least table.  Each lifted k-box is coded with the same value ids
    and looked up among the rows; its row's orbit is the class it matches.
    A lifted k-box that is not a vertex raises ShapeError."""
    d_alice, d_bob = tuple(d_alice), tuple(d_bob)
    if len(d_alice) != 2 or len(d_bob) != 2:
        raise ShapeError("the census covers two-input bipartite shapes")
    shape = BoxShape((d_alice, d_bob))
    values, ids, orbit_of = _vertex_rows(build_hrep(shape), max_rays, time_budget)
    if orbit_of is None:
        raise ShapeError(f"the census needs the relabelling orbits of {shape}")
    id_of = {v: i for i, v in enumerate(values)}
    ks = {}    # orbit number -> the k of each lifted k-box in it
    for k in range(2, min(min(d_alice), min(d_bob)) + 1):
        table = lift_box(dbox(k), shape).table
        if not id_of.keys() >= set(table):
            raise ShapeError(f"the lifted {k}-box has an entry that no vertex has")
        at = _find_row(ids, [id_of[v] for v in table])
        if at is None:
            raise ShapeError(f"the lifted {k}-box is not a vertex of {shape}")
        ks.setdefault(int(orbit_of[at]), []).append(k)
    # the rows are sorted, so each orbit's first row is its least table,
    # and the classes come ordered by it
    orbit_nums, firsts, sizes = np.unique(orbit_of, return_index=True, return_counts=True)
    out = []
    for i in np.argsort(firsts).tolist():
        rep = Box(shape, tuple(values[j] for j in ids[firsts[i]].tolist()))
        size = int(sizes[i])
        if rep.is_deterministic():
            out.append(KBoxClass(rep, size, None, _uses_partial_outputs(rep)))
            continue
        found = ks.get(int(orbit_nums[i]), [])
        if len(found) != 1:
            raise ShapeError(
                f"non-local vertex class matched k-boxes {found}; expected "
                f"exactly one match")
        out.append(KBoxClass(rep, size, found[0], _uses_partial_outputs(rep)))
    return KBoxCensus(shape, tuple(out))


def _find_row(rows, row):
    """The index of ``row`` among the lexicographically sorted rows of a
    2-D array, or None: a binary search on each column in turn, within
    the rows that agree with ``row`` on the columns before it."""
    lo, hi = 0, len(rows)
    for col, v in enumerate(row):
        column = rows[lo:hi, col]
        lo, hi = lo + np.searchsorted(column, v), lo + np.searchsorted(column, v, "right")
        if lo == hi:
            return None
    return int(lo)


def _uses_partial_outputs(box):
    """Whether some outcome of some (party, input) never occurs."""
    return any(0 in box.marginal([k]).table for k in range(box.shape.parties))
