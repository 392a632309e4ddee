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
                    _equality_rows)
from .dd import EnumerationCapError, extreme_rays
from .families import dbox
from .linalg import _int_products, _max_abs, clear_denominators, int_rank, nullspace_int
from .simplex import find_nonneg_solution


@dataclass(frozen=True)
class HPolytope:
    """Equalities (row, rhs) over the flat table; the only inequalities are
    positivity, one per coordinate."""

    ambient: int
    equalities: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    shape: BoxShape | None = None

    def contains(self, point):
        if len(point) != self.ambient:
            raise ShapeError("point has wrong dimension")
        if any(v < 0 for v in point):
            return False
        return all(sum(c * v for c, v in zip(row, point)) == rhs
                   for row, rhs in self.equalities)


@dataclass(frozen=True)
class VRep:
    vertices: tuple[Box, ...]
    full: bool = True
    # the relabelling orbits, one ascending tuple of vertex indices each,
    # when the enumeration walked them under the shape's generators
    _orbits: tuple[tuple[int, ...], ...] | None = field(
        default=None, compare=False, repr=False)


def _dense_row(n, plus, minus):
    """A Fraction row over a flat table of n entries: +1 at plus, -1 at
    minus."""
    row = [Fraction(0)] * n
    for i in plus:
        row[i] = Fraction(1)
    for i in minus:
        row[i] = Fraction(-1)
    return tuple(row)


def normalization_rows(shape):
    """One indicator row per joint input: the block must sum to one."""
    n = shape.table_size
    return [_dense_row(n, plus, minus) for plus, minus, _, _
            in _equality_rows(shape)[:len(shape.joint_inputs)]]


def _equality_count(shape):
    """How many rows ``_equality_rows`` gives: one per joint input, then per
    party k and each of its inputs but the last, one per joint input and
    joint output of the other parties."""
    sums = [sum(p) for p in shape.outputs]
    return len(shape.joint_inputs) + sum(
        (len(shape.outputs[k]) - 1) * prod(sums[:k] + sums[k + 1:])
        for k in range(shape.parties))


def build_hrep(shape):
    """Normalization and no-signalling equalities for a shape, one
    no-signalling family per party against the joint rest.  Refused when
    the dense rows would hold more than the table-size cap of entries."""
    n = shape.table_size
    cells = _equality_count(shape) * n
    if cells > _MAX_TABLE_SIZE:
        raise ShapeError(f"the H-representation of {cells} entries exceeds "
                         f"the cap of {_MAX_TABLE_SIZE}")
    return HPolytope(n, tuple((_dense_row(n, plus, minus), Fraction(rhs))
                              for plus, minus, rhs, _ in _equality_rows(shape)),
                     shape)


def dimension(shape):
    """Affine dimension of the no-signalling polytope of a shape: the
    product over parties of (sum over inputs of (outputs - 1)) + 1, less
    one."""
    return prod(sum(d - 1 for d in p) + 1 for p in shape.outputs) - 1


def _presolve_zeros(eq_int):
    """Coordinates forced to zero by same-sign rows with rhs 0; fixpoint."""
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


def _homogenized_cone(h):
    """(eq_int, keep, coord_rows) for the vertices of {x >= 0, equalities}:
    the equalities as distinct primitive integer rows [-rhs | row], the
    coordinates not forced to zero, and one integer row per coordinate of
    (t, x_keep) over a nullspace basis of the equalities.  Each extreme ray
    y of the cone {y : coord_rows·y >= 0} is one vertex x_keep / t."""
    eq_int = []
    seen = set()
    for row, rhs in h.equalities:
        cleared = clear_denominators([-rhs] + list(row))
        key = tuple(cleared)
        if key not in seen and any(cleared):
            seen.add(key)
            eq_int.append(cleared)
    if not eq_int:
        raise ShapeError("a polytope needs at least one equality (normalization)")

    fixed = _presolve_zeros(eq_int)
    keep = [i for i in range(h.ambient) if i not in fixed]
    reduced = []
    seen = set()
    for row in eq_int:
        r = [row[0]] + [row[1 + c] for c in keep]
        if any(r):
            key = tuple(r)
            if key not in seen:
                seen.add(key)
                reduced.append(r)

    basis = nullspace_int(reduced)
    if not basis:
        raise ShapeError("equalities admit only the zero solution; no polytope")
    coord_rows = [[vec[i] for vec in basis] for i in range(1 + len(keep))]
    return eq_int, keep, coord_rows


def _symmetry_maps(h, eq_int, keep, coord_rows):
    """The gather maps of the relabelling generators of ``h.shape`` when
    every one maps the polytope onto itself, else None.

    A relabelling g permutes coordinates, so it keeps x >= 0.  Every point
    (1, x) of the polytope lies in the span of the homogenized basis N
    (coord_rows, zero on the fixed coordinates), so g maps the polytope into
    itself when [-rhs | E]·(g·N) = 0, and onto itself since g has finite
    order."""
    if h.shape is None or h.shape.table_size != h.ambient:
        return None
    _, maps = relabel._generator_maps(h.shape, True)
    basis = np.zeros((1 + h.ambient, len(coord_rows[0])), dtype=object)
    basis[[0] + [1 + c for c in keep]] = coord_rows
    # row 1 + i of g·N is row 1 + gather[i] of N; the t row stays
    moved = basis[np.concatenate([np.zeros((len(maps), 1), dtype=np.intp), 1 + maps], axis=1)]
    columns = moved.transpose(0, 2, 1).reshape(-1, 1 + h.ambient)
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
    """The far end of the edge from the vertex z = (t, x) along each
    direction row of w, as primitive integer rows (t', x').

    The step is the exact ratio test min x[i] / -w[i] over w[i] < 0, kept
    per edge as p / q and compared by cross-multiplying, column by column;
    the end is then (q·t, q·x + p·w).  Under the guard each term is below
    2**62 in magnitude, so int64 holds the sums; past it the arithmetic is
    on Python ints."""
    if _max_abs([z]) * _max_abs(w) >= 2 ** 62:
        w = w.astype(object)
    p = np.zeros(len(w), dtype=w.dtype)
    q = np.zeros(len(w), dtype=w.dtype)
    for i, xi in enumerate(z[1:]):
        if xi:
            step = -w[:, i]
            take = (step > 0) & ((q == 0) | (xi * q < p * step))
            p = np.where(take, xi, p)
            q = np.where(take, step, q)
    if not q.all():
        raise ShapeError("the set is unbounded: an edge from a vertex has no "
                         "far end")
    ends = np.concatenate([(q * z[0])[:, None],
                           q[:, None] * np.array(z[1:], dtype=w.dtype) + p[:, None] * w], axis=1)
    return ends // np.gcd.reduce(ends, axis=1)[:, None]


class _VertexSet:
    """Vertices found so far, as value-id rows over the flat table: ids
    number the distinct entries in the order found and are stored in the
    narrowest unsigned dtype that holds them, so a vertex's key is its
    row's bytes.  ``keys`` maps each key, in the order found, to the number
    of the orbit whose walk found it."""

    def __init__(self, ambient, keep):
        self.ambient, self.keep = ambient, keep
        self.ids = {Fraction(0): 0}
        self.dtype = np.dtype(np.uint8)
        self.keys = {}
        self.next_orbit = 0

    def code(self, z):
        """The value-id rows of the points of integer rows z = (t, x_keep)."""
        den, scaled = _scaled(z)
        nums, inverse = np.unique(scaled, return_inverse=True)
        ids = [self.ids.setdefault(Fraction(v, den), len(self.ids))
               for v in nums.tolist()]
        if len(self.ids) > np.iinfo(self.dtype).max + 1:
            old = self.rows()
            self.dtype = np.dtype(next(t for t in (np.uint16, np.uint32, np.uint64)
                                       if len(self.ids) <= np.iinfo(t).max + 1))
            self.keys = dict(zip(relabel._row_keys(old.astype(self.dtype)),
                                 self.keys.values()))
        rows = np.zeros((len(z), self.ambient), dtype=self.dtype)
        rows[:, self.keep] = np.array(ids, dtype=self.dtype)[inverse.reshape(scaled.shape)]
        return rows

    def add_orbit(self, keys):
        """Record the keys of one orbit's walk under the next orbit number."""
        self.keys.update(dict.fromkeys(keys, self.next_orbit))
        self.next_orbit += 1

    def rows(self):
        return np.frombuffer(b"".join(self.keys), dtype=self.dtype).reshape(-1, self.ambient)

    def sorted_rows(self):
        """(values, rows, orbits): the distinct entries in increasing order,
        the vertices as rows of indices into them and each vertex's orbit
        number."""
        values = sorted(self.ids)
        rank = np.empty(len(values), dtype=np.min_scalar_type(len(values)))
        rank[[self.ids[v] for v in values]] = np.arange(len(values))
        return values, rank[self.rows()], np.array(list(self.keys.values()))


def _edge_rows(coord_rows):
    """Rows X over a basis z of the homogenized directions with t = 0: X·z
    is the x part of each direction of the polytope's affine hull, so the
    tangent cone of a vertex v is {z : X[T]·z >= 0}, T its zero
    coordinates.  Empty when the polytope is a single point."""
    if len(coord_rows[0]) < 2:
        return []
    # t = coord_rows[0]·y, so the directions are y = B·z with B a basis of
    # that row's nullspace
    return _int_products(coord_rows[1:], nullspace_int([coord_rows[0]])).tolist()


def _orbit_vertices(h, eq_int, keep, coord_rows, maps, max_rays, time_budget):
    """(values, rows, orbits) as ``_VertexSet.sorted_rows`` for the
    vertices of a polytope that the gather maps keep, by adjacency
    decomposition, or None when the polytope is empty.

    A start vertex comes from one LP.  For each orbit's first vertex v the
    edge directions are the extreme rays of its tangent cone {u : u_T >= 0}
    over the directions u = X·z of the affine hull (``_edge_rows``), where
    T is v's zero coordinates; each edge's far end that lies in no orbit
    found so far starts a new orbit, walked under the maps.  The edge graph
    is connected and the maps send edges to edges, so every orbit is
    reached."""
    t0 = time.monotonic()
    lp = find_nonneg_solution(np.array(eq_int)[:, 1:], [-row[0] for row in eq_int])
    if lp.status != "optimal":
        return None
    start = clear_denominators([1] + [lp.x[c] for c in keep])
    x_rows = _edge_rows(coord_rows)

    found = _VertexSet(h.ambient, keep)
    queue = []

    def add_orbits(ends):
        rows = found.code(ends)
        for end, row, key in zip(ends.tolist(), rows, relabel._row_keys(rows)):
            if key not in found.keys:
                found.add_orbit(relabel._walk(row[None], maps))
                queue.append(end)
        if len(found.keys) > max_rays:
            raise EnumerationCapError(
                f"vertex cap {max_rays} exceeded ({len(found.keys)} vertices, "
                f"{len(queue)} orbits left to expand)")

    add_orbits(np.array([start], dtype=object))
    while queue and x_rows:
        v = queue.pop()
        left = None
        if time_budget is not None:
            elapsed = time.monotonic() - t0
            left = time_budget - elapsed
            if left <= 0:
                raise EnumerationCapError(
                    f"time budget {time_budget}s exceeded after {elapsed:.1f}s "
                    f"with {len(queue) + 1} orbits left to expand and "
                    f"{len(found.keys)} vertices")
        tangent = [x_rows[i] for i, xi in enumerate(v[1:]) if xi == 0]
        try:
            rays = extreme_rays(tangent, max_rays=max_rays, time_budget=left)
        except EnumerationCapError as exc:
            raise EnumerationCapError(
                f"{exc}, in a vertex cone, with {len(found.keys)} vertices "
                f"found and {len(queue) + 1} orbits left to expand") from exc
        add_orbits(_edge_ends(v, _int_products(rays, x_rows)))
    return found.sorted_rows()


def enumerate_vertices(h, max_rays=2_000_000, time_budget=None):
    """All vertices of {x >= 0, equalities}.

    Deterministic: vertices come back sorted by their flat tables.  Raises
    EnumerationCapError (never truncates silently) if caps are hit, and
    ShapeError if the set is unbounded.

    When ``h.shape`` is set and every relabelling generator of the shape
    maps the polytope onto itself (checked exactly on the equalities), the
    vertices are found orbit by orbit: one vertex cone per orbit, walked
    along its edges (adjacency decomposition).  ``max_rays`` then caps each
    cone's intermediate rays and the vertex count, and ``time_budget``
    covers the whole call; the VRep keeps the walked orbits, which
    ``classify_vertices`` reads.  Otherwise they are the extreme rays of
    the homogenized cone, by one double description run.
    """
    eq_int, keep, coord_rows = _homogenized_cone(h)
    maps = _symmetry_maps(h, eq_int, keep, coord_rows)
    if maps is not None:
        found = _orbit_vertices(h, eq_int, keep, coord_rows, maps, max_rays, time_budget)
        if found is None:
            return VRep((), full=True)
        values, rows, orbit_of = found
        columns = slice(None)
    else:
        rays = extreme_rays(coord_rows, max_rays=max_rays, time_budget=time_budget)
        # rays with t = 0 are recession directions, the others vertices
        z = _int_products(rays, coord_rows) if rays else np.zeros((0, 1), np.int64)
        if not z[:, 0].any():
            return VRep((), full=True)
        if not z[:, 0].all():
            raise ShapeError("the set is unbounded: the homogenized cone has "
                             "a ray with t = 0")
        # vertex i is z[i, 1:] / t[i]; scaled to the common denominator of
        # all t, the integer rows order exactly as the Fraction tables do
        den, scaled = _scaled(z)
        nums, inverse = np.unique(scaled, return_inverse=True)
        values = [Fraction(v, den) for v in nums.tolist()]
        rows, columns = inverse.reshape(scaled.shape), keep
        orbit_of = None
    # ids follow value order, so sorting the id rows sorts the tables;
    # each distinct entry is one Fraction (lexsort's primary key is its last)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    table = np.full((len(rows), h.ambient), Fraction(0), dtype=object)
    table[:, columns] = np.array(values, dtype=object)[rows]
    vertices = [tuple(v) for v in table.tolist()]
    if h.shape is None:
        return VRep(tuple(vertices), full=True)
    boxes = tuple(Box(h.shape, v) for v in vertices)
    if orbit_of is None:
        return VRep(boxes, full=True)
    return VRep(boxes, full=True, _orbits=_orbit_members(orbit_of[order]))


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
        raise InvalidBoxError(box.validate() if polytope is None else
                              _not_member_report())
    support = [i for i, v in enumerate(box.table) if v > 0]
    rows = []
    for row, _ in h.equalities:
        rows.append(clear_denominators([row[i] for i in support]))
    return int_rank(rows) == len(support)


def _not_member_report():
    from .boxes import ValidationReport
    return ValidationReport(("box is not a member of the given polytope",))


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
    for k in range(box.shape.parties):
        for x in range(box.shape.inputs[k]):
            if box.shape.outputs[k][x] > target_shape.outputs[k][x]:
                raise ShapeError("lifting cannot drop outputs")

    def fn(outs, ins):
        for k, a in enumerate(outs):
            if a >= box.shape.outputs[k][ins[k]]:
                return Fraction(0)
        return box.prob(outs, ins)

    return Box.from_function(target_shape, fn)


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
    2..min(output counts).  Class representatives are their orbits' least
    tables, so a class matches a k-box iff its representative is the
    lifted k-box's canonical form."""
    d_alice, d_bob = tuple(d_alice), tuple(d_bob)
    if len(d_alice) != 2 or len(d_bob) != 2:
        raise ShapeError("the census covers two-input bipartite shapes")
    shape = BoxShape((d_alice, d_bob))
    vrep = enumerate_vertices(build_hrep(shape), max_rays=max_rays,
                              time_budget=time_budget)
    classes = classify_vertices(vrep)
    kmax = min(min(d_alice), min(d_bob))
    canonical = {k: relabel.canonical_form(lift_box(dbox(k), shape)).table
                 for k in range(2, kmax + 1)}
    out = []
    for cls in classes:
        rep = cls.representative
        if rep.is_deterministic():
            out.append(KBoxClass(rep, cls.size, None, _uses_partial_outputs(rep)))
            continue
        found = [k for k, table in canonical.items() if rep.table == table]
        if len(found) != 1:
            raise ShapeError(
                f"non-local vertex class matched k-boxes {found}; expected "
                f"exactly one match")
        out.append(KBoxClass(rep, cls.size, found[0], _uses_partial_outputs(rep)))
    return KBoxCensus(shape, tuple(out))


def _uses_partial_outputs(box):
    """Whether some outcome of some (party, input) never occurs."""
    for k in range(box.shape.parties):
        m = box.marginal([k])
        for x in range(box.shape.inputs[k]):
            for a in range(box.shape.outputs[k][x]):
                if m.prob((a,), (x,)) == 0:
                    return True
    return False
