"""Tests for the benchmark itself, using its smoke mode.

    python3 -m pytest bench/smoke_check.py -q

The file name keeps it out of the package's own test run (it takes about
half a minute); pass the path to pytest to run it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _metric_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}, [w["name"] for w in spec["workloads"]]


def test_smoke_runs_every_workload_traced_and_checked():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    e2e, workloads = _metric_names("end_to_end")
    layers, _ = _metric_names("per_layer")
    assert set(summary["workloads"]) == set(workloads)
    for name in workloads:
        plain = summary["workloads"][name]["trace0"]
        traced = summary["workloads"][name]["trace1"]
        assert set(plain) == e2e
        assert set(traced) == layers
        assert all(v > 0 for v in plain.values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk-eval",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_golden_checker_tolerances():
    sys.path.insert(0, str(BENCH))
    import golden

    recorded = json.loads(golden.GOLDEN_PATH.read_text())["artifacts"]
    model = recorded["greedy.json"]

    def shifted(delta):
        params = dict(model["params"], sigma=[s + delta for s in model["params"]["sigma"]])
        return {"params": params}

    assert golden.matches("greedy.json", shifted(1e-13), model)
    assert not golden.matches("greedy.json", shifted(1e-5), model)
    report = recorded["eval.json"]
    near = {"per_seed": [b + 1e-9 for b in report["per_seed"]]}
    far = {"per_seed": [b + 1e-5 for b in report["per_seed"]]}
    assert golden.matches("eval.json", near, report)
    assert not golden.matches("eval.json", far, report)
    corpus = recorded["corpus.jsonl"]
    assert not golden.matches("corpus.jsonl", {"sha256": "0" * 64}, corpus)


def test_workload_reference_is_checked_at_its_seed_only(tmp_path):
    sys.path.insert(0, str(BENCH))
    import golden

    assert golden.check_workload("desk-eval", golden.WORKLOAD_SEED + 1, tmp_path) == (0, [])
    (tmp_path / "corpus.jsonl").write_text("{}\n")
    attempted, failures = golden.check_workload("desk-eval", golden.WORKLOAD_SEED, tmp_path)
    assert attempted == 5
    assert "golden desk-eval seed 1: corpus.jsonl differs from the reference" in failures
    assert sum("is missing" in f for f in failures) == 4


def test_self_time_subtracts_the_union_of_children():
    sys.path.insert(0, str(BENCH))
    from tracer import Tracer

    t = Tracer("unit")

    def span(i, name, start, end, parent):
        return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                "run": "unit", "thread": 0}

    # two emission calls overlap, as E-step chunks on two threads do
    t.spans = [span(0, "model.fit_em", 0.0, 10.0, None),
               span(1, "estimation.emission_loglik", 1.0, 4.0, 0),
               span(2, "estimation.emission_loglik", 3.0, 5.0, 0),
               span(3, "model.m_step", 6.0, 7.0, 0)]
    self_s = t.self_times()
    assert self_s["model"] == 10.0 - 5.0 + 1.0
    assert self_s["estimation"] == 5.0
    assert t.per_iteration("model.fit_em", "estimation.emission_loglik", 2) == 3.0
