"""mh-phone benchmark: the CLI pipeline end to end, and a traced per-layer run.

    python3 bench/run.py --workload desk-eval --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke            # every path at tiny sizes
    python3 bench/run.py --record-golden    # rewrite golden.json

With --trace 0 each repetition sets up (a fresh directory, one CLI start,
the workload's input files) and then runs the workload's timed CLI commands
as child processes, one after another; the end-to-end metrics are medians
over the repetitions that fit in --seconds, with times scaled by a
calibration job run in this process before each command (calibrate.py).
With --trace 1 the timed commands run in this process through
`mh_phone.cli.main`, once plain and
once with span wrappers on every layer (tracer.py), and the per-layer
metrics come from the spans. Every run checks its outputs: byte-identical
artifacts across repetitions, the dbn fit byte-identical between
--threads 2 and 1, the golden probe, and with --seed 1 the workload's own
reference artifacts (golden.py). The last stdout line is one JSON object.
See README.md in this directory for the workloads and the metric map.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from common import (SRC, THREAD_ENV, WORK, child_env, run_cli, run_inprocess, sha256,
                    single_thread, stamp)

CORPUS, TRUTH, DBN, GMM, LDA = "corpus.jsonl", "truth.json", "dbn.json", "gmm.json", "gmm-lda.json"
GEN, REPORT, INTERP = "generated.jsonl", "eval.json", "interpret.json"

# End-to-end metrics. Single-command times are printed and stored, but only
# metrics that cover a whole repetition carry a bound. RAW_METRICS are the
# run's median raw times of a set-up and a repetition and its mean
# calibration time.
E2E_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
RAW_METRICS = ("calibration_s", "raw_setup_s", "raw_pipeline_s")
COMMAND_METRICS = ("synth_s", "train_dbn_s", "train_gmm_s", "train_gmm_lda_s",
                   "generate_s", "evaluate_s", "interpret_s")

# The calibration job's mean time on the machine the baseline came from
# (README.md, "Machine speed"). Timed metrics are scaled to that machine's
# speed, which removes the slow swings of a shared host from them.
CALIBRATION_S = 0.25

SMOKE_SIGNS, SMOKE_ITERS, SMOKE_EPOCHS = 40, 1, 1


def _signs(n, smoke):
    return str(SMOKE_SIGNS if smoke else n)


def _iters(n, smoke):
    # tol -1 never stops early, so the work is the same on every seed
    return ["--max-iters", str(SMOKE_ITERS if smoke else n), "--tol=-1"]


def desk_eval(smoke):
    fit = ["--corpus", CORPUS, "--n-states", "5", *_iters(10, smoke), "--threads", "2"]
    epochs = str(SMOKE_EPOCHS if smoke else 50)
    return [], [
        ("synth_s", ["synth", "--n-states", "5", "--m-signs", _signs(600, smoke),
                     "--sigma", "0.1", "--out", CORPUS], (CORPUS,)),
        ("train_dbn_s", ["train", *fit, "--out", DBN], (DBN,)),
        ("generate_s", ["generate", "--model", DBN, "--n", _signs(600, smoke), "--out", GEN],
         (GEN,)),
        ("evaluate_s", ["evaluate", "--real", CORPUS, "--model", DBN, "--report", REPORT,
                        "--seeds", "1", "--epochs", epochs, "--hidden", "16"], (REPORT,)),
        ("interpret_s", ["interpret", "--model", DBN, "--out", INTERP], (INTERP,)),
    ]


def fit_ablations(smoke):
    fit = ["--corpus", CORPUS, "--n-states", "10", *_iters(8, smoke)]
    return [
        ("corpus", ["synth", "--n-states", "10", "--m-signs", _signs(1500, smoke),
                    "--sigma", "0.3", "--separation", "1.0", "--out", CORPUS], (CORPUS,)),
    ], [
        ("train_dbn_s", ["train", *fit, "--e-step", "viterbi", "--threads", "2", "--out", DBN],
         (DBN,)),
        ("train_gmm_s", ["train", *fit, "--model", "gmm", "--out", GMM], (GMM,)),
        ("train_gmm_lda_s", ["train", *fit, "--model", "gmm-lda", "--topics", "10",
                             "--out", LDA], (LDA,)),
    ]


def corpus_scale(smoke):
    n = _signs(8000, smoke)
    return [], [
        ("synth_s", ["synth", "--n-states", "5", "--m-signs", n, "--out", CORPUS,
                     "--truth-out", TRUTH], (CORPUS, TRUTH)),
        ("generate_s", ["generate", "--model", TRUTH, "--n", n, "--out", GEN], (GEN,)),
        ("train_dbn_s", ["train", "--corpus", CORPUS, "--n-states", "5", "--out", DBN,
                         *_iters(1, smoke), "--threads", "2"], (DBN,)),
    ]


@dataclass(frozen=True)
class Workload:
    """`commands(smoke)` gives the set-up commands, which build the inputs
    before timing starts, and the timed commands: (metric, argv, outputs)."""

    name: str
    why: str
    commands: Callable


WORKLOADS = {w.name: w for w in (
    Workload("desk-eval",
             "the paper's scoring loop at the ordering test's size: the GRU "
             "discriminator does most of the work, fitting and corpus IO little",
             desk_eval),
    Workload("fit-ablations",
             "the three trainers for 8 fixed iterations on a hard corpus built in set-up: "
             "emission table, E-steps, M-step sigma search and the GMM-LDA tensor",
             fit_ablations),
    Workload("corpus-scale",
             "corpus writes beside reads: synth and generate write 8000 signs, one dbn "
             "iteration reads them back, so JSON IO and per-sign validation dominate",
             corpus_scale),
)}


def chain(w: Workload, seed, smoke=False):
    """(set-up commands, timed commands), each command's --seed set to `seed`."""
    return tuple([(metric, argv + ["--seed", str(seed)], outs) for metric, argv, outs in part]
                 for part in w.commands(smoke))


class Checks:
    """Counts attempted commands and the ones that failed (non-zero exit or
    an output that fails a check); error_rate = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def command(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failures += failures


def _hash_outputs(rep_dir, outs):
    return {name: sha256(rep_dir / name) for name in outs}


def _check_report(rep_dir):
    """The eval report holds one finite, positive test BCE per seed."""
    per_seed = json.loads((rep_dir / REPORT).read_text(encoding="utf-8"))["per_seed"]
    return bool(per_seed) and all(math.isfinite(b) and 0.0 < b < 50.0 for b in per_seed)


def run_checked(metric, argv, outs, rep_dir, env, checks, reference):
    """Run one command as a child process and check it: exit 0, outputs
    byte-identical to the first repetition's (`reference` fills on the first
    call), a plausible eval report."""
    run = run_cli(argv, rep_dir, env)
    if not run.ok:
        checks.command(False, f"{metric}: exit {run.returncode}: {run.stderr.strip()[-300:]}")
        return run
    hashes = _hash_outputs(rep_dir, outs)
    if not all(reference.setdefault(k, v) == v for k, v in hashes.items()):
        checks.command(False, f"{metric}: output differs from the first repetition")
    else:
        checks.command(REPORT not in outs or _check_report(rep_dir),
                       f"{metric}: eval report has an implausible BCE")
    return run


def setup(rep_dir, setup_cmds, env, checks, reference):
    """Fresh work directory, one CLI start (imports, bytecode, file cache)
    and the workload's input files. Returns (set-up time, start time)."""
    t0 = time.perf_counter()
    rep_dir.mkdir(parents=True)
    start = run_cli(["--help"], rep_dir, env)
    if not start.ok:
        raise RuntimeError(f"mh-phone does not start: {start.stderr.strip()}")
    for metric, argv, outs in setup_cmds:
        run_checked(f"set-up {metric}", argv, outs, rep_dir, env, checks, reference)
    return time.perf_counter() - t0, start.wall_s


def run_chain(cmds, rep_dir, env, checks, reference, calibrations):
    """One timed repetition of the workload's commands as child processes,
    each one after a calibration job. `pipeline_s` is the sum of the
    commands' own times, so it leaves the calibration jobs out."""
    from calibrate import calibrate  # numpy loads after main() sets THREAD_ENV

    walls, rss = {}, []
    for metric, argv, outs in cmds:
        calibrations.append(calibrate())
        run = run_checked(metric, argv, outs, rep_dir, env, checks, reference)
        walls[metric] = run.wall_s
        rss.append(run.peak_rss_mb)
    return {"pipeline_s": sum(walls.values()), "peak_rss_mb": max(rss), **walls}


def thread_check(cmds, rep_dir, checks):
    """Refit the dbn of the last repetition with --threads 1; the model file
    must be byte-identical to the --threads 2 one."""
    argv = next(a for m, a, _ in cmds if m == "train_dbn_s")
    timed = rep_dir / (DBN + ".threads2")
    os.replace(rep_dir / DBN, timed)
    code = run_inprocess(single_thread(argv), rep_dir)
    checks.command(code == 0 and sha256(rep_dir / DBN) == sha256(timed),
                   f"thread check: dbn fit differs between --threads 2 and 1 (exit {code})")


def measure(commands, run_dir, env, seconds, smoke, checks):
    """Repetitions of set-up, then the timed commands, each repetition in a
    fresh directory, with a calibration job before the set-up, before every
    timed command and once at the end. Another repetition starts while the
    median one still fits in `seconds`. Only the last repetition's files are
    kept. Returns the repetitions' raw times, the calibration times and the
    last directory."""
    from calibrate import calibrate

    setup_cmds, cmds = commands
    reps, calibrations, durations, reference = [], [], [], {}
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        rep_dir = run_dir / f"rep{len(reps)}"
        calibrations.append(calibrate())
        setup_s = setup(rep_dir, setup_cmds, env, checks, reference)[0]
        raw = run_chain(cmds, rep_dir, env, checks, reference, calibrations)
        reps.append({"setup_s": setup_s, **raw})
        if len(reps) > 1:
            shutil.rmtree(run_dir / f"rep{len(reps) - 2}")
        now = time.perf_counter()
        durations.append(now - rep_start)
        if smoke or now - start + statistics.median(durations) > seconds:
            calibrations.append(calibrate())
            return reps, calibrations, rep_dir


def calibrated(reps, calibrations):
    """Medians over the repetitions, times in calibrated seconds: multiplied
    by CALIBRATION_S / the mean calibration time of the same run. A single
    job is short enough to catch one speed of the host, a command spans
    many; the mean over the run weighs them as the commands meet them."""
    typical = statistics.fmean(calibrations)
    medians = {key: statistics.median(r[key] for r in reps) for key in reps[0]}
    out = {key: value if key == "peak_rss_mb" else value * CALIBRATION_S / typical
           for key, value in medians.items()}
    out.update(calibration_s=typical, raw_setup_s=medians["setup_s"],
               raw_pipeline_s=medians["pipeline_s"])
    return out


# ------------------------------------------------------------ traced run

def replay(metric, argv, outs, rep_dir, checks, tracer=None):
    """Run one command through mh_phone.cli.main in this process. Returns
    its wall time and the hashes of its outputs."""
    t0 = time.perf_counter()
    code = run_inprocess(argv, rep_dir, tracer)
    wall = time.perf_counter() - t0
    ok = checks.command(code == 0, f"replay {metric}: exit {code}")
    return wall, _hash_outputs(rep_dir, outs) if ok else {}


def layer_metrics(t, traced_s, plain, startup_s):
    """Per-layer metrics of one traced repetition: totals in seconds unless
    README.md says per call, per iteration or per epoch. `plain` is the
    untraced replay (wall time, per-command times). Returns (values, units)."""
    c = t.counts
    m, units = {}, {}

    def put(name, value, unit="s"):
        m[name] = float(value)
        units[name] = unit

    for fn in ("synth_corpus", "save_corpus", "load_corpus"):
        put(f"corpus.{fn}_s", t.total(f"corpus.{fn}"))
    put("corpus.signs", c["corpus.signs"], "count")
    put("corpus.bytes_written", c["corpus.bytes_written"], "bytes")
    put("corpus.bytes_read", c["corpus.bytes_read"], "bytes")

    calls = t.calls("estimation.emission_loglik")
    put("estimation.emission_loglik_s", t.total("estimation.emission_loglik") / max(calls, 1))
    put("estimation.emission_loglik_calls", calls, "count")
    put("estimation.emission_cells", c["estimation.emission_cells"], "count")
    put("estimation.emission_bytes_computed",
        t.maxima["estimation.emission_bytes_computed"], "bytes")
    put("estimation.map_sigma_s", t.total("estimation.map_sigma"))
    put("estimation.map_sigma_calls", c["estimation.map_sigma_calls"], "count")
    put("estimation.markov_chain_sample_s", t.total("estimation.markov_chain_sample"))

    iterations = c["model.em_iterations"]
    put("model.init_params_s", t.total("model.init_params"))
    put("model.e_step_s", t.total("model.e_step_greedy") + t.total("model.e_step_viterbi"))
    put("model.e_step_greedy_calls", t.calls("model.e_step_greedy"), "count")
    put("model.e_step_viterbi_calls", t.calls("model.e_step_viterbi"), "count")
    put("model.m_step_s", t.total("model.m_step"))
    put("model.log_joint_s", t.total("model.log_joint"))
    put("model.em_iteration_s", t.per_iteration("model.fit_em", "model.init_params", iterations))
    put("model.em_iterations", iterations, "count")
    put("model.em_useful_iter_frac", c["model.em_useful_iterations"] / max(iterations, 1),
        "ratio")
    put("model.sample_s", t.total("model.sample"))

    put("baselines.fit_gmm_s", t.total("baselines.fit_gmm"))
    put("baselines.gmm_iterations", c["baselines.gmm_iterations"], "count")
    lda_iters = c["baselines.gmm_lda_iterations"]
    put("baselines.fit_gmm_lda_s", t.total("baselines.fit_gmm_lda"))
    put("baselines.gmm_lda_iteration_s",
        t.per_iteration("baselines.fit_gmm_lda", "estimation.emission_loglik", lda_iters))
    put("baselines.gmm_lda_iterations", lda_iters, "count")

    for fn in ("gru_grad", "bce_loss", "evaluate_generator", "generator"):
        put(f"discriminator.{fn}_s", t.total(f"discriminator.{fn}"))
    put("discriminator.train_gru_epoch_s",
        t.per_iteration("discriminator.train_gru", "discriminator.bce_loss",
                        c["discriminator.train_gru_epochs"]))
    put("discriminator.forward_passes", c["discriminator.forward_passes"], "count")

    for fn in ("save_model", "load_model", "validate_artifact"):
        put(f"io.{fn}_s", t.total(f"io.{fn}"))
    put("interpret.summarize_s", t.total("interpret.summarize"))
    put("cli.startup_s", startup_s)
    for metric in COMMAND_METRICS:  # 0 for a command the workload does not run
        put(f"cli.{metric}", plain[1].get(metric, 0.0))

    for layer, value in t.self_times().items():
        put(f"{layer}.self_s", value)
    put("trace.pipeline_s", traced_s)
    put("trace.overhead_s", traced_s - plain[0])
    put("trace.spans", len(t.spans), "count")
    return m, units


def traced(commands, run_dir, env, checks, run_id):
    """Each timed command runs twice in this process: plain, and with every
    layer wrapped, in separate directories set up alike. Pairing them in
    time keeps the machine's speed swings out of the difference, which is
    the tracing overhead; which one goes first alternates from command to
    command, so neither always finds the other's warm caches. Outputs must
    match. Returns the tracer, the traced time, (plain time, plain time per
    command) and the median CLI start time of the set-ups."""
    import mh_phone.cli  # noqa: F401 -- imported before timing, so neither replay pays for it
    from tracer import Tracer

    setup_cmds, cmds = commands
    t = Tracer(run_id)
    plain_dir, traced_dir = run_dir / "plain", run_dir / "traced"
    reference = {}
    startups = [setup(d, setup_cmds, env, checks, reference)[1] for d in (plain_dir, traced_dir)]
    plain_walls, traced_s = {}, 0.0
    for i, (metric, argv, outs) in enumerate(cmds):
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if not tracing:
                plain_walls[metric], plain_hashes = replay(metric, argv, outs, plain_dir, checks)
                continue
            t.install()
            try:
                wall, traced_hashes = replay(metric, argv, outs, traced_dir, checks, t)
            finally:
                t.uninstall()
            traced_s += wall
        for name, digest in traced_hashes.items():
            checks.command(plain_hashes.get(name) == digest,
                           f"traced replay: {name} differs from the plain replay")
    return t, traced_s, (sum(plain_walls.values()), plain_walls), statistics.median(startups)


# ------------------------------------------------------------- one workload run

def _sizes(run_dir):
    sizes = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            sizes[str(path.relative_to(run_dir))] = path.stat().st_size
    return sizes


def run_workload(w, seed, seconds, trace, smoke=False):
    """Returns the result object; raises when the program cannot run at all.
    The golden probe runs on every run but a smoke run (smoke() runs it once)."""
    import golden

    env = child_env()
    run_id = f"{w.name}-seed{seed}-trace{trace}-{os.getpid()}"
    run_dir = WORK / run_id
    checks = Checks()
    commands = chain(w, seed, smoke)
    info = stamp(env)
    try:
        command_medians = {}
        if trace:
            t, traced_s, plain, startup_s = traced(commands, run_dir, env, checks, run_id)
            metrics, units = layer_metrics(t, traced_s, plain, startup_s)
            last = run_dir / "plain"
            spans_path = WORK / "results" / f"{run_id}.spans.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            t.write(spans_path)
            samples = {"repetitions": [{"trace.pipeline_s": traced_s,
                                        "plain_pipeline_s": plain[0]}]}
        else:
            reps, calibrations, last = measure(commands, run_dir, env, seconds, smoke, checks)
            medians = calibrated(reps, calibrations)
            metrics = {key: medians[key] for key in E2E_UNITS}
            units = dict(E2E_UNITS)
            command_medians = {key: medians[key] for key in (*COMMAND_METRICS, *RAW_METRICS)
                               if key in medians}
            samples = {"repetitions": reps, "calibration_s": calibrations}
            spans_path = None

        if not smoke:
            # before the thread check, which replaces the timed dbn fit
            checks.add(*golden.check_workload(w.name, seed, last))
            checks.add(*golden.check(run_dir / "golden"))
        thread_check(commands[1], last, checks)
        info["work_dir"] = str(run_dir.relative_to(WORK.parent))
        info["work_files_bytes"] = _sizes(last)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "stamp": info, "units": units, "metrics": metrics,
        "commands_median_s": command_medians, "samples": samples,
        "attempted": checks.attempted, "failed": len(checks.failures),
        "failures": checks.failures, "error_rate": len(checks.failures) / checks.attempted,
        "spans": str(spans_path.relative_to(WORK.parent)) if spans_path else None,
    }
    out = WORK / "results" / f"{run_id}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    result["results_file"] = str(out.relative_to(WORK.parent))
    return result


def describe(result):
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"trace {result['trace']}  repetitions {len(result['samples']['repetitions'])}"]
    for name, value in result["metrics"].items():
        lines.append(f"  {name:40s} {value:16.6f} {result['units'][name]}")
    for name, value in result["commands_median_s"].items():
        what = ("wall clock, not scaled" if name in RAW_METRICS
                else "one command, spawn to exit; no bound")
        lines.append(f"  {name:40s} {value:16.6f} s  ({what})")
    lines.append(f"  {'error_rate':40s} {result['error_rate']:16.6f} "
                 f"({result['failed']}/{result['attempted']} commands failed)")
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    s = result["stamp"]
    lines.append(f"  stamp: git {s['git_revision']} src {s['src_sha256'][:12]} "
                 f"python {s['python']} numpy {s['numpy']} {s['blas']} {s['blas_version']} "
                 f"nproc {s['nproc']} threads "
                 + " ".join(f"{k}={v}" for k, v in s["thread_env"].items()))
    sizes = ", ".join(f"{k} {v / 1e6:.1f} MB" for k, v in s["work_files_bytes"].items()
                      if v > 1e5)
    lines.append(f"  work dir {s['work_dir']} ({sizes or 'all files < 0.1 MB'}), removed")
    lines.append(f"  results {result['results_file']}")
    return "\n".join(lines)


def contract_line(result):
    metrics = {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def smoke():
    """Every workload, plain and traced, at tiny sizes, and the golden probe."""
    import golden

    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for w in WORKLOADS.values():
        for trace in (0, 1):
            result = run_workload(w, 1, 0, trace, smoke=True)
            print(describe(result))
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["workloads"].setdefault(w.name, {})[f"trace{trace}"] = result["metrics"]
    attempted, failures = golden.check(WORK / "smoke-golden")
    shutil.rmtree(WORK / "smoke-golden", ignore_errors=True)
    for failure in failures:
        print(f"  FAILED {failure}")
    summary["attempted"] += attempted
    summary["failed"] += len(failures)
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; it becomes every command's --seed")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="repetitions start while they fit in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and not args.record_golden and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "mh_phone" / "cli.py").is_file():
        print(f"bench: no mh_phone sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads in this process
    sys.path.insert(0, str(SRC))
    try:
        if args.record_golden:
            import golden
            workloads = {name: [(argv, outs) for part in chain(w, golden.WORKLOAD_SEED)
                                for _, argv, outs in part]
                         for name, w in WORKLOADS.items()}
            golden.record(WORK / "golden-record", stamp(child_env()), workloads)
            shutil.rmtree(WORK / "golden-record", ignore_errors=True)
            print(f"wrote {golden.GOLDEN_PATH}")
            return 0
        if args.smoke:
            return smoke()
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except Exception:  # noqa: BLE001 -- report and exit without a result line
        traceback.print_exc()
        return 2
    print(describe(result))
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
