"""Self-test of the benchmark: every workload once at reduced size.

    python3 -m pytest -q perfbench

Each run must end with the result object carrying every metric that
BENCHMARK.json names, with its unit (end-to-end metrics untraced,
per-layer metrics traced), and pass every correctness gate. `case_small`
and `case_small_w2` must produce identical labels, and the benchmark must
refuse to run without the package sources next to it.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

from spans import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def _run(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def quick_run(workload, trace):
    """(run record, result object) of one reduced-size run."""
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_and_gates(workload, trace):
    record, result = quick_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in named}
    for unit in record["units"]:
        assert unit["gates"] and all(unit["gates"].values()), unit
    env = record["env"]
    assert env["nproc"] >= 1 and env["numpy"] and env["scipy"]
    assert int(env["OMP_NUM_THREADS"]) <= env["nproc"]


def test_labels_do_not_depend_on_worker_count():
    w1, _ = quick_run("case_small", 0)
    w2, _ = quick_run("case_small_w2", 0)
    digests = {u["digest"] for u in w1["units"] + w2["units"]}
    assert len(digests) == 1


def test_pool_thread_spans_nest_under_the_pipeline():
    quick_run("case_small_w2", 1)
    path = os.path.join(ROOT, ".bench_out",
                        f"spans-case_small_w2-seed{SEED}-trace1.json")
    with open(path) as f:
        doc = json.load(f)
    spans = [dict(zip(doc["fields"], s)) for s in doc["spans"]]
    runs = {s["id"] for s in spans if s["name"] == "pipeline.run"}
    pairs = [s for s in spans if s["name"] == "pipeline.pair"]
    assert len(runs) == 1 and pairs
    assert all(s["parent"] in runs for s in pairs)


def test_self_time_subtracts_the_union_of_children():
    # parent 0..10 with two overlapping children on different threads
    spans = [(1, "p", 0.0, 10.0, 0, 1, 0.0, 0),
             (2, "c", 1.0, 4.0, 1, 1, 0.0, 0),
             (3, "c", 3.0, 6.0, 1, 2, 0.0, 0)]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(3.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
