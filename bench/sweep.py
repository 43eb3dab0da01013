"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py --workloads desk-eval corpus-scale --seeds 1-10
    python3 bench/sweep.py --seeds 1-10 --trace-seed 1 --out first.json
    python3 bench/sweep.py --seeds 11-20 --compare first.json --out second.json

For each workload and end-to-end metric this prints the median over the
seeds, the quartiles, and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json. A spread under a third of the bound is
what the benchmark aims for. --out also stores every run's values, one
traced run per workload, and the stamp of the first run. --compare takes
an earlier --out file and checks that no median got worse by more than
the metric's bound (the exit code is 1 if one did).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, trace):
    argv = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp_line = next((ln for ln in lines if ln.strip().startswith("results ")), "")
    return result, wall, stamp_line.split()[-1] if stamp_line else None


def command_spreads(results_files):
    """Median and spread over runs of each command's own time, from the
    result files (these times are printed but carry no bound)."""
    per_run = [json.loads((ROOT / f).read_text())["commands_median_s"] for f in results_files]
    out = {}
    for name in per_run[0]:
        q1, med, q3, rel = spread([r[name] for r in per_run])
        out[name] = {"unit": "s", "median": med, "q1": q1, "q3": q3, "spread": rel}
    return out


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per workload with this seed")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, help="an earlier --out file")
    args = parser.parse_args()
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    worst_ok = True
    for workload in workloads:
        runs, walls, files = [], [], []
        for seed in args.seeds:
            result, wall, results_file = run_once(bench, workload, seed, 0)
            if not result["correct"]:
                worst_ok = False
            runs.append(result)
            walls.append(wall)
            files.append(results_file)
            print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
        entry = {"run_wall_s": walls, "metrics": {}, "commands": command_spreads(files)}
        print(f"\n{workload}: {len(runs)} runs, wall per run median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s} {'bound/3':>7s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, rel = spread(values)
            flag = "" if rel < bound / 3 else ("  > bound/3" if rel < bound else "  > BOUND")
            if rel >= bound:
                worst_ok = False
            print(f"  {name:16s} {med:10.4f} {q1:10.4f} {q3:10.4f} {rel:7.3f} "
                  f"{bound:6.2f} {bound / 3:7.3f}{flag}")
            entry["metrics"][name] = {"unit": runs[0]["metrics"][name]["unit"],
                                      "median": med, "q1": q1, "q3": q3, "spread": rel,
                                      "values": dict(zip(map(str, args.seeds), values))}
        if workload in earlier:
            entry["compared_to"] = {"file": str(args.compare), "metrics": {}}
            print(f"  against {args.compare}:")
            for name, bound in bounds.items():
                before = earlier[workload]["metrics"][name]["median"]
                change = entry["metrics"][name]["median"] / before - 1.0
                within = change <= bound
                worst_ok = worst_ok and within
                entry["compared_to"]["metrics"][name] = {"change": change, "bound": bound,
                                                         "within": within}
                print(f"  {name:16s} median {change:+7.3f} vs {before:.4f}, bound {bound:.2f}"
                      f"{'' if within else '  WORSE THAN BOUND'}")
        if args.trace_seed is not None:
            traced, wall, _ = run_once(bench, workload, args.trace_seed, 1)
            entry["traced"] = {"seed": args.trace_seed, "wall_s": wall,
                               "correct": traced["correct"], "metrics": {
                                   k: v["value"] for k, v in traced["metrics"].items()}}
        entry["stamp"] = json.loads((ROOT / files[0]).read_text())["stamp"]
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
