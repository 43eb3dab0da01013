"""Golden outputs: this repo's recorded reference artifacts, and the checks
against them.

Two references live in golden.json, both recorded with `--threads 1`:

- the probe: a small pinned-seed pipeline in the workloads' shapes (N=10
  corpus with separation 1.0 and sigma 0.3, Viterbi and greedy dbn fits,
  gmm, gmm-lda with 10 topics, generate, evaluate, interpret). Every
  benchmark run replays it with `--threads 2`, whatever its seed.
- each workload's own artifacts at `--seed 1` (WORKLOAD_SEED), full size. A
  run with that seed compares the artifacts of its last timed repetition,
  which were written with `--threads 2`.

Tolerances:

- corpora sampled from known parameters (synth corpus, truth model): SHA-256
  must match exactly;
- fitted model parameters: numpy.allclose with rtol=1e-7, atol=1e-10;
- a corpus sampled from a fitted model: sign count exact, feature sum and
  sum of squares within rtol=1e-9 (the draws follow the fitted parameters);
- evaluation report: per-seed BCE within atol=1e-7;
- interpretation report: hold lengths within rtol=1e-7.

Kernel rewrites that move results by rounding only stay inside these bounds.
"""

import json
import math
from pathlib import Path

import numpy as np

from common import run_inprocess, sha256, single_thread

GOLDEN_PATH = Path(__file__).with_name("golden.json")
PROBE_SEED = 2009
WORKLOAD_SEED = 1
PARAM_RTOL, PARAM_ATOL = 1e-7, 1e-10
FEATURE_RTOL = 1e-9
BCE_ATOL = 1e-7
HOLD_RTOL = 1e-7

_MODEL_META = {"format", "version", "kind", "hyper", "config", "N", "D", "T"}


def probe_commands(threads):
    """(argv, outputs) of the probe."""
    fit = ["--corpus", "corpus.jsonl", "--max-iters", "4", "--tol=-1",
           "--threads", str(threads)]
    cmds = [
        (["synth", "--n-states", "10", "--m-signs", "200", "--sigma", "0.3",
          "--separation", "1.0", "--out", "corpus.jsonl", "--truth-out", "truth.json"],
         ("corpus.jsonl", "truth.json")),
        (["train", *fit, "--n-states", "10", "--e-step", "viterbi", "--out", "viterbi.json"],
         ("viterbi.json",)),
        (["train", *fit, "--n-states", "5", "--out", "greedy.json"], ("greedy.json",)),
        (["train", *fit, "--n-states", "10", "--model", "gmm", "--out", "gmm.json"],
         ("gmm.json",)),
        (["train", *fit, "--n-states", "10", "--model", "gmm-lda", "--topics", "10",
          "--out", "gmm-lda.json"], ("gmm-lda.json",)),
        (["generate", "--model", "viterbi.json", "--n", "200", "--out", "generated.jsonl"],
         ("generated.jsonl",)),
        (["evaluate", "--real", "corpus.jsonl", "--model", "greedy.json",
          "--report", "eval.json", "--seeds", "2", "--epochs", "3"], ("eval.json",)),
        (["interpret", "--model", "viterbi.json", "--out", "interpret.json"],
         ("interpret.json",)),
    ]
    return [(argv + ["--seed", str(PROBE_SEED)], outs) for argv, outs in cmds]


def summarize(name, path):
    """The parts of one artifact that the golden check compares."""
    if name in ("corpus.jsonl", "truth.json"):
        return {"sha256": sha256(path)}
    if name == "generated.jsonl":
        lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
        frames = np.concatenate([np.asarray(json.loads(line)["frames"], dtype=float)
                                 for line in lines])
        return {"signs": len(lines), "sum": float(frames.sum()),
                "sumsq": float((frames * frames).sum())}
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if name == "eval.json":
        return {"per_seed": obj["per_seed"]}
    if name == "interpret.json":
        return {"hold_lengths_frames": obj["hold_lengths_frames"]}
    return {"params": {k: v for k, v in obj.items() if k not in _MODEL_META}}


def _close_params(got, want):
    if set(got) != set(want):
        return False
    for key in want:
        a, b = np.asarray(got[key], dtype=float), np.asarray(want[key], dtype=float)
        if a.shape != b.shape or not np.allclose(a, b, rtol=PARAM_RTOL, atol=PARAM_ATOL):
            return False
    return True


def _close_holds(got, want):
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                return False
        elif not math.isclose(a, b, rel_tol=HOLD_RTOL, abs_tol=1e-12):
            return False
    return True


def matches(name, got, want):
    if "sha256" in want:
        return got == want
    if "params" in want:
        return _close_params(got["params"], want["params"])
    if "per_seed" in want:
        return (len(got["per_seed"]) == len(want["per_seed"])
                and all(abs(a - b) <= BCE_ATOL
                        for a, b in zip(got["per_seed"], want["per_seed"])))
    if "hold_lengths_frames" in want:
        return _close_holds(got["hold_lengths_frames"], want["hold_lengths_frames"])
    return (got["signs"] == want["signs"]
            and math.isclose(got["sum"], want["sum"], rel_tol=FEATURE_RTOL, abs_tol=1e-9)
            and math.isclose(got["sumsq"], want["sumsq"], rel_tol=FEATURE_RTOL))


def run_commands(work, cmds):
    """Run (argv, outputs) pairs in this process in `work`. Returns the exit
    code of the command that writes each output."""
    work.mkdir(parents=True, exist_ok=True)
    codes = {}
    for argv, outs in cmds:
        code = run_inprocess(argv, work)
        codes.update(dict.fromkeys(outs, code))
    return codes


def compare(work, want, label, codes=None):
    """Compare the artifacts in `work` with their reference summaries.
    Returns (attempted, failures): one failure per artifact whose command
    exited non-zero, that is missing, or that differs."""
    failures = []
    for name, ref in want.items():
        code = (codes or {}).get(name, 0)
        if code != 0:
            failures.append(f"{label}: the command writing {name} exited {code}")
        elif not (work / name).is_file():
            failures.append(f"{label}: {name} is missing")
        elif not matches(name, summarize(name, work / name), ref):
            failures.append(f"{label}: {name} differs from the reference")
    return len(want), failures


def _golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def check(work):
    """Replay the probe with --threads 2 and compare it with golden.json."""
    codes = run_commands(work, probe_commands(threads=2))
    return compare(work, _golden()["artifacts"], "golden probe", codes)


def check_workload(name, seed, work):
    """Compare a workload's artifacts in `work` with the reference when the
    run's seed is the one the reference was recorded with."""
    if seed != WORKLOAD_SEED:
        return 0, []
    return compare(work, _golden()["workloads"][name], f"golden {name} seed {seed}")


def _record(work, cmds):
    codes = run_commands(work, cmds)
    bad = [name for name, code in codes.items() if code != 0]
    if bad:
        raise RuntimeError(f"commands writing {bad} failed in {work}")
    return {name: summarize(name, work / name) for name in codes}


def record(work, stamp, workloads):
    """Record the probe and, at WORKLOAD_SEED, each workload's artifacts;
    `workloads` maps a name to its (argv, outputs) commands in order."""
    obj = {"probe_seed": PROBE_SEED, "workload_seed": WORKLOAD_SEED, "threads": 1,
           "stamp": stamp,
           "tolerances": {"param_rtol": PARAM_RTOL, "param_atol": PARAM_ATOL,
                          "feature_rtol": FEATURE_RTOL, "bce_atol": BCE_ATOL,
                          "hold_rtol": HOLD_RTOL},
           "artifacts": _record(work / "probe", probe_commands(threads=1)),
           "workloads": {name: _record(work / name, [(single_thread(a), o) for a, o in cmds])
                         for name, cmds in workloads.items()}}
    GOLDEN_PATH.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
