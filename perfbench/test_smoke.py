"""Smoke test of the benchmark itself, on tiny inputs:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    lines, result = tiny_run(capsys, workload, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) == 3}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    for extra in ("query_p50_s", "query_tail_s", "fail_ratio"):
        assert any(line.startswith(extra + " ") for line in lines)
    assert result["correct"] is True
    assert result["attempted"] >= 1


def test_a_corrupted_answer_raises_fail_ratio(capsys, monkeypatch):
    honest = workloads.WORKLOADS["enum"]

    def corrupted(ns, seed, tiny, workdir):
        workload = honest(ns, seed, tiny, workdir)
        query = workload.queries[0]
        real_run = query.run

        def drop_a_vertex():
            vrep, classes = real_run()
            return ns.VRep(vrep.vertices[1:]), classes
        query.run = drop_a_vertex
        return workload

    _, clean = tiny_run(capsys, "enum", 0)
    assert clean["failed"] == 0
    monkeypatch.setitem(workloads.WORKLOADS, "enum", corrupted)
    lines, result = tiny_run(capsys, "enum", 0)
    assert result["correct"] is False
    assert result["failed"] >= 1
    ratio = float([line for line in lines if line.startswith("fail_ratio")][0].split()[1])
    assert ratio == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)
