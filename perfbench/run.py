"""The nsbox benchmark: seeded workloads of exact queries, every answer checked.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; nsbox is imported from its ``src/``.  One
caller issues the workload's queries in a closed loop (each query starts when
the previous one has returned; no extra threads or processes), repeating
whole passes over the query list until the next pass would overrun
``--seconds`` (at least one pass always runs).  Answers are checked between
passes, outside the timed region.

With ``--trace 0`` the result line carries the end-to-end metrics.  With
``--trace 1`` the same untraced passes run first, then the library is
wrapped (see tracer.py) and the passes run again; the result line carries
the per-layer metrics, including the tracing overhead.  Spans are written to
``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts wrong
answers and exceptions; ``correct`` is false when any answer was wrong.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is timed five times before the passes and five times after them,
# and the median of the ten is reported: a single set-up lasts a tenth of a
# second, shorter than the host's swings in speed.
SETUP_REPEATS = 5


def import_nsbox():
    """A fresh import of nsbox (and nsbox.cli) from this checkout."""
    for name in [m for m in sys.modules if m == "nsbox" or m.startswith("nsbox.")]:
        del sys.modules[name]
    ns = importlib.import_module("nsbox")
    importlib.import_module("nsbox.cli")
    if Path(ns.__file__).resolve().parent != SRC / "nsbox":
        raise ImportError(f"nsbox was imported from {ns.__file__}, not from {SRC}")
    return ns


def set_up(name, seed, tiny, workdir):
    """Import, input generation and warm-up, SETUP_REPEATS times; (seconds
    of each, the last workload)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ns = import_nsbox()
        workload = workloads.WORKLOADS[name](ns, seed, tiny, workdir)
        workload.warm_up()
        times.append(time.perf_counter() - t0)
    return times, workload


@dataclass
class Measurement:
    walls: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    attempted: int = 0
    exceptions: int = 0
    wrong: int = 0
    failures: list = field(default_factory=list)
    queries: list = field(default_factory=list)

    @property
    def wall(self):
        """Wall time of one pass: the run's total over its passes.  Not their
        median: the host's speed flips between phases lasting seconds to
        minutes, and a median snaps to whichever phase held most passes of a
        run, while the mean weighs each phase by its share of the run (over
        10-run sets of 15 s windows the quartile spread fell from 0.32 to
        0.22 of the median in a noisy stretch)."""
        return sum(self.walls) / len(self.walls)


def measure(queries, seconds, tracer=None):
    """Closed-loop passes over the queries for about ``seconds``; each pass
    is checked after it ends, with the tracer (if any) paused."""
    m = Measurement()
    spent = 0.0
    while True:
        results = []
        start = time.perf_counter()
        for q in queries:
            if tracer is not None:
                tracer.query = len(m.queries)
            m.queries.append(q.name)
            t = time.perf_counter()
            try:
                out, ok = q.run(), True
            except Exception as exc:   # a failed query is counted, the run goes on
                out, ok = exc, False
            m.latencies.append(time.perf_counter() - t)
            results.append((ok, out))
        wall = time.perf_counter() - start
        m.walls.append(wall)
        spent += wall

        if tracer is not None:
            tracer.paused = True
        for q, (ok, out) in zip(queries, results):
            m.attempted += 1
            if not ok:
                m.exceptions += 1
                m.failures.append(f"{q.name}: raised {type(out).__name__}: {out}")
                continue
            try:
                q.check(out)
            except Exception as exc:   # includes malformed answers, not only WrongAnswer
                m.wrong += 1
                m.failures.append(f"{q.name}: wrong answer: {type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.paused = False
        del results
        if spent + m.wall > seconds:
            return m


def tail(latencies):
    """(latency, percentile, samples) at the highest percentile with at least
    ten samples beyond it, or None when that percentile would be below p90."""
    n = len(latencies)
    if n < 100:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(m, setup_s):
    """The metrics of the result line with --trace 0."""
    return {
        "wall_s": (m.wall, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def print_metrics(metrics):
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")


def main(argv=None, tiny=False):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "nsbox" / "__init__.py").is_file():
        print(f"error: no nsbox sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported once, before set-up is timed)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, workload = set_up(args.workload, args.seed, tiny, workdir)
        plain = measure(workload.queries, args.seconds)
        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload.queries, args.seconds, tracer)
            finally:
                tracer.uninstall()
        setup_s = statistics.median(setup_times + set_up(args.workload, args.seed, tiny, workdir)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [plain] + ([traced] if traced else [])
    attempted = sum(m.attempted for m in runs)
    exceptions = sum(m.exceptions for m in runs)
    wrong = sum(m.wrong for m in runs)
    for line in sorted(set(f for m in runs for f in m.failures)):
        print(f"FAIL {args.workload}: {line}", file=sys.stderr)

    e2e = end_to_end(plain, setup_s)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain.walls)}  "
          f"queries {len(plain.latencies)}  (closed loop, one caller)")
    print_metrics(e2e)
    # Printed, not in the result line: a median over a few seconds of one
    # run follows the host's speed swings (25% between runs on enum).
    print(f"query_p50_s  {statistics.median(plain.latencies):.6g} s  "
          f"(median of {len(plain.latencies)} queries)")
    t = tail(plain.latencies)
    if t is None:
        print(f"query_tail_s  omitted: {len(plain.latencies)} queries, fewer than 100")
    else:
        print(f"query_tail_s  {t[0]:.6g} s  (p{t[1]:.1f} of {t[2]} queries, 10 beyond it)")
    print(f"fail_ratio  {(exceptions + wrong) / attempted:.6g} ratio  "
          f"({exceptions} exceptions + {wrong} wrong answers of {attempted} queries)")

    metrics = e2e
    if traced is not None:
        metrics = tracer.layer_metrics(len(traced.walls))
        metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
        print(f"traced: passes {len(traced.walls)}, wall_s {traced.wall:.6g} s "
              f"against {plain.wall:.6g} s untraced")
        print_metrics(metrics)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_file, traced.queries,
                     {"workload": args.workload, "seed": args.seed, "passes": len(traced.walls)})
        print(f"spans written to {spans_file.relative_to(ROOT)}")

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": exceptions + wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
