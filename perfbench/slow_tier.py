"""Slow-tier reference: one traced enumeration and classification of the
three-party 2,2/2,2/2,2 polytope (53856 vertices in 46 orbit classes).

    python3 perfbench/slow_tier.py

It is not one of the gated workloads in BENCHMARK.json: a single pass takes
about seven minutes on a 2-core x86 machine with Python 3.11, almost all of
it in the DD row loop.  It prints the same per-layer split as a traced
``run.py`` run (``dd.s``, ``polytope.enumerate_s``, ``polytope.classify_s``,
...), checks the counts, and writes its spans to perfbench/out/.
"""

from __future__ import annotations

import sys

import run
import tracer as tracing
from workloads import Query, expect

SHAPE, VERTICES, CLASSES = "2,2/2,2/2,2", 53856, 46


def main():
    sys.path.insert(0, str(run.SRC))
    ns = run.import_nsbox()
    shape = ns.BoxShape.from_string(SHAPE)

    def enumerate_and_classify():
        vrep = ns.enumerate_vertices(ns.build_hrep(shape))
        return vrep, ns.classify_vertices(vrep)

    def check(out):
        vrep, classes = out
        expect((len(vrep.vertices), len(classes)) == (VERTICES, CLASSES),
               f"{len(vrep.vertices)} vertices in {len(classes)} classes, "
               f"want {VERTICES} in {CLASSES}")

    query = Query(f"enumerate+classify {SHAPE}", enumerate_and_classify, check)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        m = run.measure([query], 0, tracer)   # one pass
    finally:
        tracer.uninstall()
    for line in m.failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{query.name}: wall_s {m.wall:.6g} s, traced")
    run.print_metrics({k: v for k, v in tracer.layer_metrics(1).items() if v[0]})
    spans_file = run.OUT / "spans-slow-tier.json"
    tracer.write(spans_file, m.queries, {"workload": "slow-tier", "passes": 1})
    print(f"spans written to {spans_file.relative_to(run.ROOT)}")
    return 0 if not m.failures else 1


if __name__ == "__main__":
    sys.exit(main())
