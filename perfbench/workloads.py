"""Seeded workloads of exact nsbox queries, each answer with its exact check.

A workload is a list of ``Query`` objects plus a cheap warm-up.  Inputs
(boxes, H-rep row orders, relabellings, wirings, files) are made here from
the seed; the library only ever sees the finished inputs.

Every query looks library functions up on the ``nsbox`` package object at
call time (``ns.enumerate_vertices(...)``, never a reference taken at build
time), so that the traced run's wrappers, which replace those attributes,
see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class WrongAnswer(Exception):
    """A query returned, but its answer is not the exact expected one."""


@dataclass
class Query:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    queries: list
    warm_up: Callable[[], None]


def expect(cond, message):
    if not cond:
        raise WrongAnswer(message)


def digest(tables):
    """Short hash of a sequence of exact tables, written as num/den."""
    h = hashlib.sha256()
    for table in tables:
        h.update(",".join(f"{v.numerator}/{v.denominator}" for v in table).encode())
        h.update(b";")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- inputs

def random_relabelling(ns, shape, rng):
    """A uniformly drawn shape-preserving relabelling: parties, inputs and
    outputs are shuffled only among slots with equal output counts."""
    n = shape.parties
    party_perm = list(range(n))
    for sig in set(shape.outputs):
        slots = [k for k in range(n) if shape.outputs[k] == sig]
        moved = slots[:]
        rng.shuffle(moved)
        for k, j in zip(slots, moved):
            party_perm[k] = j
    input_perms, output_perms = [], []
    for k in range(n):
        outs = shape.outputs[k]
        perm = list(range(len(outs)))
        for d in set(outs):
            slots = [x for x in range(len(outs)) if outs[x] == d]
            moved = slots[:]
            rng.shuffle(moved)
            for x, y in zip(slots, moved):
                perm[x] = y
        input_perms.append(tuple(perm))
        output_perms.append(tuple(tuple(rng.sample(range(d), d)) for d in outs))
    return ns.Relabelling(tuple(party_perm), tuple(input_perms), tuple(output_perms))


def relabel(ns, box, r):
    """The benchmark's own relabelling map, independent of nsbox.relabel:
    used to make inputs and to check returned witnesses."""
    shape = box.shape
    n = shape.parties
    outputs = [None] * n
    for k in range(n):
        per = [None] * len(shape.outputs[k])
        for x, d in enumerate(shape.outputs[k]):
            per[r.input_perms[k][x]] = d
        outputs[r.party_perm[k]] = tuple(per)
    new_shape = ns.BoxShape(tuple(outputs))
    table = [None] * new_shape.table_size
    for ins, outs in shape.entries():
        ins2, outs2 = [0] * n, [0] * n
        for k in range(n):
            j = r.party_perm[k]
            ins2[j] = r.input_perms[k][ins[k]]
            outs2[j] = r.output_perms[k][ins[k]][outs[k]]
        table[new_shape.index(tuple(outs2), tuple(ins2))] = box.prob(outs, ins)
    return ns.Box(new_shape, tuple(table))


def uniform_table(shape):
    table = []
    for ins in shape.joint_inputs:
        size = math.prod(shape.outputs_at(ins))
        table.extend([Fraction(1, size)] * size)
    return table


def with_noise(ns, box, v):
    """v * box + (1 - v) * uniform, computed here rather than by nsbox.mix."""
    u = uniform_table(box.shape)
    return ns.Box(box.shape, tuple(v * p + (1 - v) * q for p, q in zip(box.table, u)))


def kbox_vertex(ns, shape, k):
    """The k-box 1/k on (b - a) mod k = x*y, lifted into a larger bipartite
    two-input shape by giving the extra outcomes probability zero."""
    def fn(outs, ins):
        (a, b), (x, y) = outs, ins
        return Fraction(1, k) if a < k and b < k and (b - a) % k == x * y else Fraction(0)
    return ns.Box.from_function(shape, fn)


def deterministic_vertex(ns, shape, rng):
    picks = [[rng.randrange(d) for d in per] for per in shape.outputs]

    def fn(outs, ins):
        hit = all(a == picks[k][x] for k, (a, x) in enumerate(zip(outs, ins)))
        return Fraction(int(hit))
    return ns.Box.from_function(shape, fn)


def ns_dimension(shape):
    """Affine dimension of a no-signalling polytope: prod_k(sum_x (d_kx - 1) + 1) - 1."""
    return math.prod(sum(d - 1 for d in per) + 1 for per in shape.outputs) - 1


def run_cli(ns, argv):
    """nsbox.cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ns.cli.main(list(argv))
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def spread_around(big, small):
    """The small queries dealt out before, between and after the big ones, so
    the middle of the latency distribution samples the whole pass and not a
    few seconds of it (the host's speed drifts by tens of percent)."""
    parts = len(big) + 1
    out = list(small[0::parts])
    for i, q in enumerate(big, 1):
        out.append(q)
        out.extend(small[i::parts])
    return out


def _verified_local(model, box):
    expect(bool(model), "expected a LocalModel, got a certificate")
    expect(model.verify(box), "LocalModel does not reproduce the box")


def _verified_nonlocal(cert, box, strategies):
    expect(not cert, "expected a SeparatingCertificate, got a LocalModel")
    expect(cert.verify(box, strategies), "SeparatingCertificate does not verify")


# ---------------------------------------------------------------- enum

# shape, queries per pass, vertices, orbit classes, digest of the sorted
# vertex tables, digest of the class representatives.  Each repeat gets its
# own row order.  The six 2,2,2/2,2,2 queries are the middle of the latency
# distribution, so query_p50_s is not decided by one sub-second sample.
ENUM_SHAPES = (
    ("3,4/3,4", 1, 9648, 3, "0d2b25c1dc2219bc", "2a0b35181fbac1a3"),
    ("2,2,2/2,2,2", 6, 1408, 5, "0fc617fa5254d6d5", "86b769ea79515e88"),
    ("2,2/2,2/3", 3, 72, 2, "b5c159c7047c02ac", "21a0dd79056ebfbc"),
)
ENUM_TINY = (("2,2/2,2", 3, 24, 2, "d09ed99848b18699", "c83150f6b26e8188"),)


def _enum_query(ns, text, order_key, nv, nc, v_digest, c_digest):
    shape = ns.BoxShape.from_string(text)

    def run():
        h = ns.build_hrep(shape)
        rows = list(h.equalities)
        random.Random(order_key).shuffle(rows)
        vrep = ns.enumerate_vertices(ns.HPolytope(h.ambient, tuple(rows), h.shape))
        return vrep, ns.classify_vertices(vrep)

    def check(out):
        vrep, classes = out
        expect(len(vrep.vertices) == nv, f"{text}: {len(vrep.vertices)} vertices, want {nv}")
        expect(len(classes) == nc, f"{text}: {len(classes)} classes, want {nc}")
        members = sorted(i for c in classes for i in c.members)
        expect(members == list(range(nv)), f"{text}: classes do not partition the vertices")
        expect(all(c.size == len(c.members) for c in classes), f"{text}: class sizes")
        expect(digest(v.table for v in vrep.vertices) == v_digest, f"{text}: vertex tables differ")
        reps = [c.representative.table + (Fraction(c.size),) for c in classes]
        expect(digest(reps) == c_digest, f"{text}: class representatives or sizes differ")

    return Query(f"enumerate+classify {text}", run, check)


def enum(ns, seed, tiny, workdir):
    shapes = ENUM_TINY if tiny else ENUM_SHAPES
    queries = [[_enum_query(ns, text, f"{seed}/{text}/{i}", *expected) for i in range(repeats)]
               for text, repeats, *expected in shapes]
    queries = spread_around(queries[0], [q for group in queries[1:] for q in group])

    def warm_up():
        ns.classify_vertices(ns.enumerate_vertices(ns.build_hrep(ns.BoxShape.from_string("2,2/2,2"))))

    return Workload(queries, warm_up)


# ---------------------------------------------------------------- census

# class -> digest of its canonical form (lexicographically least table)
CANONICAL = {
    "3,3/3,3": {"det": "01918a973eb86c27", "k2": "9da8d1aac09de198", "k3": "a44bde36ffe698c9"},
    "2,2/2,2": {"det": "da4a369dd16c1eff", "k2": "91c3d24b77776709"},
}


def census(ns, seed, tiny, workdir):
    rng = random.Random(f"census/{seed}")
    d = 2 if tiny else 3
    shape = ns.BoxShape(((d, d), (d, d)))
    text = str(shape)
    reps = {"det": deterministic_vertex(ns, shape, rng)}
    for k in range(2, d + 1):
        reps[f"k{k}"] = kbox_vertex(ns, shape, k)
    sizes = ({None: 16, 2: 8} if tiny else {None: 81, 2: 648, 3: 432})

    def moved(name):
        return relabel(ns, reps[name], random_relabelling(ns, shape, rng))

    def run_census():
        return ns.kbox_census((d, d), (d, d))

    def check_census(c):
        got = {cl.k: cl.size for cl in c.classes}
        expect(got == sizes, f"k-box census sizes {got}, want {sizes}")
        expect(c.all_nonlocal_matched, "a non-local class matched no k-box")
        expect(all(cl.lifted == (cl.k is not None and cl.k < d) for cl in c.classes
                   if cl.k is not None), "lifted flags")

    queries = []

    def equivalence(a, b, hit):
        def run():
            return ns.equivalent_under_relabelling(a, b)

        def check(r):
            if not hit:
                expect(r is None, "a relabelling was found between different classes")
                return
            expect(r is not None, "no relabelling found inside one orbit")
            expect(relabel(ns, a, r).table == b.table, "witness does not map a onto b")
        return run, check

    # The seed picks relabellings only; the mix of queries is fixed.  A hit
    # stops at b, at a seed-dependent depth, so hits stay in the 81-box det
    # orbit and one 432-box k3 orbit.  Misses and canonical forms walk a
    # whole orbit, a fixed amount of work; the five over the k3 orbit form
    # the middle of the latency distribution, so query_p50_s is one of them.
    if tiny:
        hits, misses, canonical = ["det", "k2"], [("k2", "det")], ["det", "k2"]
    else:
        hits = ["det", "det", "k3"]
        misses = [("det", "k3"), ("k3", "k2"), ("k3", "k2")]
        canonical = ["det", "k3", "k3", "k3"]
    for name in hits:
        run, check = equivalence(moved(name), moved(name), True)
        queries.append(Query(f"equivalent hit {name}", run, check))
    for a, b in misses:
        run, check = equivalence(moved(a), moved(b), False)
        queries.append(Query(f"equivalent miss {a}/{b}", run, check))
    for name in canonical:
        box = moved(name)

        def check(c, name=name, box=box):
            expect(c.shape == box.shape, "canonical form changed the shape")
            expect(digest([c.table]) == CANONICAL[text][name], f"canonical form of {name} differs")
        queries.append(Query(f"canonical_form {name}",
                             lambda box=box: ns.canonical_form(box), check))
    queries = spread_around([Query(f"kbox_census {text}", run_census, check_census)], queries)

    def warm_up():
        ns.kbox_census((2, 2), (2, 2))
        ns.canonical_form(ns.pr())

    return Workload(queries, warm_up)


# ---------------------------------------------------------------- locality

VISIBILITY_THRESHOLD = Fraction(1, 2)   # local iff v <= 1/2, for all three families


def locality(ns, seed, tiny, workdir):
    rng = random.Random(f"locality/{seed}")
    strategies = {}

    def all_strategies(kind, shape):
        """Every local or two-way strategy of a shape, made once per run for
        the certificate checks."""
        if (kind, shape) not in strategies:
            strategies[kind, shape] = getattr(ns, f"enumerate_{kind}_strategies")(shape)
        return strategies[kind, shape]

    def two_way_query(name, box, local):
        def check(res):
            if local:
                _verified_local(res, box)
            else:
                _verified_nonlocal(res, box, all_strategies("twoway", box.shape))
        return Query(f"is_two_way_local {name}", lambda: ns.is_two_way_local(box), check)

    # The two large two-way LPs take the stock boxes: over six random
    # relabellings of xyplusz() one call took 9.6 to 21.6 s, since the
    # simplex path depends on the order of the table entries, which would
    # swamp the run-to-run spread.  two_way_vertex() is relabelled, seven
    # times per pass, so the middle of the latency distribution is a group
    # of like 0.6 s LPs spread over the pass, not a millisecond PR LP whose
    # time follows every swing of the host's speed.
    big = [] if tiny else [two_way_query("xyplusz", ns.xyplusz(), False),
                           two_way_query("svetlichny", ns.svetlichny_box(), False)]
    vertex = ns.two_way_vertex()
    small = [two_way_query("two_way_vertex",
                           relabel(ns, vertex, random_relabelling(ns, vertex.shape, rng)), True)
             for _ in range(1 if tiny else 7)]

    # visibility scan, on both sides of the threshold
    scan = [("pr", ns.pr(), 1 if tiny else 2)]
    if not tiny:
        scan += [("dbox3", ns.dbox(3), 1), ("svetlichny", ns.svetlichny_box(), 1)]
    for name, base, per_side in scan:
        for sign in (-1, 1):
            for _ in range(per_side):
                v = VISIBILITY_THRESHOLD + sign * Fraction(rng.randint(4, 16), 64)
                box = with_noise(ns, base, v)

                def check(res, box=box, local=v <= VISIBILITY_THRESHOLD):
                    if local:
                        _verified_local(res, box)
                    else:
                        _verified_nonlocal(res, box, all_strategies("local", box.shape))
                small.append(Query(f"is_local {name} at {v}", lambda box=box: ns.is_local(box), check))
    queries = spread_around(big, small)

    def warm_up():
        ns.is_local(ns.pr())
        ns.is_local(with_noise(ns, ns.pr(), Fraction(1, 4)))

    return Workload(queries, warm_up)


# ---------------------------------------------------------------- protocols

def _wiring_query(name, make, want):
    def check(box):
        expect(box.table == want().table, f"{name} does not reproduce its target box")
    return Query(f"wiring {name}", make, check)


def protocols(ns, seed, tiny, workdir):
    rng = random.Random(f"protocols/{seed}")
    chsh_shape = ns.BoxShape.homogeneous(2, 2, 2)
    q = []

    # stock wirings
    q.append(_wiring_query("P1(2,2)", lambda: ns.evaluate_wiring(ns.preset("P1", 2, 2)),
                           lambda: ns.dbox(4)))
    q.append(_wiring_query("P1(3,2)", lambda: ns.evaluate_wiring(ns.preset("P1", 3, 2)),
                           lambda: ns.dbox(6)))

    def p2_from_p1():
        eight = ns.evaluate_wiring(ns.preset("P1", 2, 4))
        return ns.evaluate_wiring(ns.preset("P2", 2, 4), components=[eight])
    q.append(_wiring_query("P2(2,4) after P1(2,4)", p2_from_p1, ns.pr))
    q.append(_wiring_query("P5", lambda: ns.evaluate_wiring(ns.preset("P5")), ns.xyplusz))
    q.append(_wiring_query("P6", lambda: ns.evaluate_wiring(ns.preset("P6")),
                           ns.svetlichny_box))
    q.append(_wiring_query("P7", lambda: ns.evaluate_wiring(ns.preset("P7")), ns.xyz_box))

    # chained conversion P3(2, d', n): zero exactly when d' divides 2**n,
    # and strictly smaller at each step while it is not
    dp = rng.choice((3, 4, 5, 6, 8))
    chain = {}
    for n in range(1, 4 if tiny else 6):
        def check(err, n=n):
            chain[n] = err
            expect((err == 0) == (2 ** n % dp == 0), f"P3(2,{dp},{n}) error {err}")
            prev = chain.get(n - 1)
            if prev is not None:
                expect(err < prev if prev else err == 0,
                       f"P3(2,{dp},{n}) error {err} after {prev}")
        q.append(Query(f"protocol3_error(2,{dp},{n})",
                       lambda n=n: ns.protocol3_error(2, dp, n), check))

    # one bit plus shared randomness simulates the d-box
    for d in (2, 3, 4):
        def check(out, d=d):
            box, bits = out
            expect(box.table == ns.dbox(d).table and bits == 1, f"protocol4({d})")
        q.append(Query(f"comm protocol4({d})",
                       lambda d=d: ns.evaluate_comm_protocol(ns.protocol4(d)), check))

    # least one-way communication
    prs = [relabel(ns, ns.pr(), random_relabelling(ns, chsh_shape, rng)) for _ in range(2)]
    dets = [deterministic_vertex(ns, chsh_shape, rng) for _ in range(2)]
    for name, box, bits in ([("pr", b, 1) for b in prs] + [("dbox3", ns.dbox(3), 1)]
                            + [("deterministic", b, 0) for b in dets]):
        def check(got, name=name, bits=bits):
            expect(got == bits, f"mincomm {name}: {got} bits, want {bits}")
        q.append(Query(f"mincomm {name}",
                       lambda box=box: ns.min_oneway_comm_with_SR(box, 2), check))

    # extensions: extremal boxes only extend as products, uniform does not
    for name, base, env, factorizes in (
            ("pr", prs[0], (1, 2), True), ("pr", prs[1], (2, 2), True),
            ("dbox3", ns.dbox(3), (1, 2), True),
            ("deterministic", dets[0], (1, 2), True),
            ("uniform", ns.uniform(chsh_shape), (1, 2), False)):
        def check(out, base=base, factorizes=factorizes, name=name):
            ok, witness = out
            expect(ok == factorizes, f"extension of {name}: factorizes={ok}")
            if not factorizes:
                expect(witness.validate().ok, "extension witness is not a valid box")
                expect(ns.marginal(witness, (0, 1)).table == base.table,
                       "extension witness does not reduce to the base box")
        q.append(Query(f"all_extensions_factorize {name} {env}",
                       lambda base=base, env=env: ns.all_extensions_factorize(base, *env), check))

    # file round trips
    box = prs[0]
    functional = ns.chsh_functional(*(rng.randrange(2) for _ in range(3)))
    wiring = ns.preset(rng.choice(("P5", "P6", "P7")))
    fio = ns.fileio
    q.append(Query("fileio box text",
                   lambda: fio.loads_box(fio.dumps_box(box)),
                   lambda got: expect(got == box, "box text round trip")))
    q.append(Query("fileio functional text",
                   lambda: fio.loads_functional(fio.dumps_functional(functional)),
                   lambda got: expect(got == functional, "functional round trip")))
    q.append(Query("fileio wiring json",
                   lambda: fio.loads_wiring(fio.dumps_wiring(wiring)),
                   lambda got: expect(got == wiring, "wiring round trip")))
    box_path, wiring_path = workdir / "roundtrip.box", workdir / "roundtrip.json"

    def box_file():
        ns.save_box(box, box_path)
        return ns.load_box(box_path)

    def wiring_file():
        ns.save_wiring(wiring, wiring_path)
        return ns.load_wiring(wiring_path)
    q.append(Query("fileio box file", box_file, lambda got: expect(got == box, "box file")))
    q.append(Query("fileio wiring file", wiring_file,
                   lambda got: expect(got == wiring, "wiring file")))

    # the command line, in-process
    pr_file = workdir / "pr.box"
    fio.save_box(box, pr_file)
    xyz_file = workdir / "xyplusz.box"
    fio.save_box(ns.xyplusz(), xyz_file)
    p5_file = workdir / "p5.json"
    made = workdir / "made.box"
    alpha, beta, gamma = (rng.randrange(2) for _ in range(3))
    dim_shape = ns.BoxShape.from_string(rng.choice(("2,2/2,2", "3,3/3,3", "2,2,2/2,2,2",
                                                    "2,2/2,2/2,2")))

    def cli(name, argv, code, lines=None):
        def check(out):
            got_code, stdout, stderr = out
            expect(got_code == code, f"cli {name}: exit {got_code}, want {code}")
            if code == 2:
                expect(len(stderr.splitlines()) == 1, f"cli {name}: error is not one line")
            if lines is not None:
                got = stdout.splitlines()
                expect(lines(got) if callable(lines) else got == lines,
                       f"cli {name}: output {got[:4]}")
        q.append(Query(f"cli {name}", lambda: run_cli(ns, argv), check))

    cli("make pr", ["make", "pr", str(alpha), str(beta), str(gamma), "-o", str(made)], 0, [])
    cli("bell chsh", ["bell", str(made), "--chsh", str(alpha), str(beta), str(gamma)], 0,
        ["4/1"])
    cli("validate", ["validate", str(pr_file)], 0, ["VALID"])
    cli("dim", ["dim", str(dim_shape)], 0, [str(ns_dimension(dim_shape))])

    def nonlocal_lines(lines):
        fields = dict(line.split(" ", 1) for line in lines[1:3])
        return (lines[0] == "NONLOCAL"
                and Fraction(fields["value"]) > Fraction(fields["threshold"]))
    cli("local", ["local", str(pr_file)], 0, nonlocal_lines)
    cli("preset P5", ["preset", "P5", "-o", str(p5_file)], 0, [])
    cli("wire --expect", ["wire", str(p5_file), "--expect", str(xyz_file)], 0, ["MATCH"])
    cli("mincomm", ["mincomm", str(pr_file), "--max-bits", "1"], 0, ["1"])
    cli("protocol3-error", ["protocol3-error", "2", "4", "2"], 0, ["0/1"])

    # malformed input must exit 2 with a one-line error (known to raise at
    # the time the benchmark was written; each counts as a failed query)
    doc = json.loads(fio.dumps_wiring(ns.preset("P5")))
    doc["components"][0]["box"]["inline"]["table"] = [0.5, 0, 0, 0.5] * 4
    bad_types = workdir / "bad_types.json"
    bad_types.write_text(json.dumps(doc))
    doc = json.loads(fio.dumps_wiring(ns.preset("P5")))
    del doc["programs"][0]["steps"][0]["component"]
    no_component = workdir / "no_component.json"
    no_component.write_text(json.dumps(doc))
    cli("probe make dbox x", ["make", "dbox", "x", "-o", str(made)], 2)
    cli("probe wire non-string table", ["wire", str(bad_types)], 2)
    cli("probe wire step without component", ["wire", str(no_component)], 2)

    def warm_up():
        ns.dimension(dim_shape)
        ns.evaluate_wiring(ns.preset("P5"))
        run_cli(ns, ["dim", "2,2/2,2"])

    return Workload(q, warm_up)


WORKLOADS = {"enum": enum, "census": census, "locality": locality, "protocols": protocols}
