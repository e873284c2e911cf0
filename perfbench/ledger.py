#!/usr/bin/env python3
"""Build a ledger: run workloads over several seeds and summarize them.

    python3 perfbench/ledger.py [--workloads a,b] [--runs 10] [--seed-base 1]
                                [--seconds S] [--traced-runs 1] --out FILE

Each workload runs --runs times untraced, each with another seed, through
perfbench/run.py (one process per run). For every end-to-end metric the
ledger records the ten values, their median and quartiles (Python's
statistics.quantiles(n=4)) and the spread (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json. Exact-repeat values (model digests,
model_err_pct, plan counts) must be identical across every run. With
--traced-runs N, N traced runs per workload add per-layer medians. The
ledger carries the machine fingerprint of its first run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def run(workload, seed, trace, seconds, ledger_file):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--ledger", str(ledger_file)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--traced-runs", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    ledger = {"run_seconds": args.seconds or spec["run_seconds"], "runs": args.runs,
              "seeds": [args.seed_base + i for i in range(args.runs)],
              "workloads": {}}
    ok = True
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        for workload in workloads:
            records_file = Path(tmp) / f"{workload}.jsonl"
            for i in range(args.runs):
                ok &= run(workload, args.seed_base + i, 0, args.seconds, records_file)
            for i in range(args.traced_runs):
                ok &= run(workload, args.seed_base + i, 1, args.seconds, records_file)
            records = [json.loads(line) for line in records_file.read_text().splitlines()]
            untraced = [r for r in records if r["trace"] == 0]
            traced = [r for r in records if r["trace"] == 1]
            ledger.setdefault("fingerprint", {k: v for k, v in records[0]["fingerprint"].items()
                                              if k != "seed"})
            entry = {"correct": all(r["correct"] for r in records),
                     "exact": untraced[0]["exact"],
                     "exact_identical": all(r["exact"] == untraced[0]["exact"]
                                            for r in untraced),
                     "metrics": {}, "per_layer": {}}
            for name, metric in bounds.items():
                values = [r["metrics"][name]["value"] for r in untraced]
                summary = summarize(values)
                summary.update(unit=metric["unit"], bound=metric["bound"],
                               within_bound=summary["spread"] <= metric["bound"],
                               within_third=summary["spread"] < metric["bound"] / 3)
                entry["metrics"][name] = summary
            for metric in spec["per_layer"]:
                values = [r["metrics"].get(metric["name"], {}).get("value") for r in traced]
                values = [v for v in values if v is not None]
                if values:
                    entry["per_layer"][metric["name"]] = {
                        "median": statistics.median(values), "unit": metric["unit"]}
            ledger["workloads"][workload] = entry
            ok &= entry["correct"] and entry["exact_identical"]
            print(f"== {workload}: correct={entry['correct']} "
                  f"exact_identical={entry['exact_identical']}")
            for name, s in entry["metrics"].items():
                flag = "ok" if s["within_third"] else (
                    "WIDE" if s["within_bound"] else "OVER BOUND")
                print(f"  {name:20s} median {s['median']:>14.6g} {s['unit']:5s} "
                      f"spread {s['spread']:7.4f} (bound {s['bound']}) {flag}")
            sys.stdout.flush()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
