#!/usr/bin/env python3
"""Run the hdpower layered benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1|both] [--reduced]
                             [--sabotage digest|estimate] [--ledger FILE]

Run from the repository root. The first call configures and builds the
harness (perfbench/CMakeLists.txt) in .bench_build/; later calls rebuild
incrementally. Each workload run is one process. With --trace 0 the result
carries every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer metric (plus trace.overhead_pct and the unattributed residuals).
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench_bin"
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build the harness; raise on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=subprocess.DEVNULL, stderr=sys.stderr)


def source_identity():
    """Git commit when available, and a digest of the library sources."""
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, reduced, sabotage):
    """One workload run in its own process; returns the parsed report."""
    work = BUILD_DIR / "work" / f"{workload}-{os.getpid()}-{seed}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", str(work)]
    if reduced:
        cmd.append("--reduced")
    if sabotage:
        cmd += ["--sabotage", sabotage]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    finally:
        # Never leave the harness running: on a timeout, or when this
        # script is interrupted or terminated.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            shutil.rmtree(work, ignore_errors=True)
    spans = work / "spans.json"
    if spans.exists():
        (BUILD_DIR / "traces").mkdir(exist_ok=True)
        shutil.copy(spans, BUILD_DIR / "traces" / f"{workload}-seed{seed}.json")
    shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: harness exited {proc.returncode} "
                           "without a result")
    return json.loads(lines[-1])


def select_metrics(spec, report, trace):
    """The metric set the contract asks for, with BENCHMARK.json's units.

    A per-layer metric the workload does not exercise reads 0 (its layer
    did no work); a missing end-to-end metric is an error.
    """
    measured = report["metrics"]
    attempted = max(1, report["attempted"])
    measured["ops_failed_frac"] = {"value": report["failed"] / attempted,
                                   "unit": "ratio"}
    selected = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                raise RuntimeError(f"{name}: unit {measured[name]['unit']} "
                                   f"!= {unit}")
            value = measured[name]["value"]
        elif trace:
            value = 0.0
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        selected[name] = {"value": value, "unit": unit}
    return selected


def print_human(report, selected, identity, seed, trace):
    commit, src_digest = identity
    fingerprint = dict(report["fingerprint"], git_commit=commit,
                       src_digest=src_digest, seed=seed)
    print(f"== {report['workload']} (seed {seed}, "
          f"{'traced' if trace else 'untraced'})")
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print("exact: " + json.dumps(report["exact"], sort_keys=True))
    print(f"checks: attempted {report['attempted']}, failed {report['failed']}"
          + "".join(f"\n  FAILED: {f}" for f in report["failures"]))
    for name, metric in selected.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for name in ("ops_failed_frac", "peak_rss_mib"):
        if name not in selected:
            m = report["metrics"][name]
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    return fingerprint


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", default="0", choices=["0", "1", "both"])
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs (the benchmark's own tests)")
    parser.add_argument("--sabotage", choices=["digest", "estimate"],
                        help="corrupt one expected value: the checks must fail")
    parser.add_argument("--ledger", type=Path,
                        help="append every full result to this JSON-lines file")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        parser.error(f"unknown workload {args.workload}; choose from {names} or all")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"error: cannot build the benchmark harness: {error}", file=sys.stderr)
        return 1
    identity = source_identity()

    all_correct = True
    last = None
    for workload in workloads:
        for trace in traces:
            try:
                report = run_binary(workload, args.seed, seconds, trace,
                                    args.reduced, args.sabotage)
                selected = select_metrics(spec, report, trace)
            except (RuntimeError, ValueError, KeyError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            fingerprint = print_human(report, selected, identity, args.seed, trace)
            correct = bool(report["correct"])
            all_correct = all_correct and correct
            if args.ledger:
                with open(args.ledger, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": args.seed,
                                        "trace": trace, "correct": correct,
                                        "attempted": report["attempted"],
                                        "failed": report["failed"],
                                        "metrics": report["metrics"],
                                        "exact": report["exact"],
                                        "fingerprint": fingerprint},
                                       sort_keys=True) + "\n")
            last = {"correct": correct, "attempted": report["attempted"],
                    "failed": report["failed"], "metrics": selected}
            if len(workloads) * len(traces) > 1:
                print(json.dumps(dict(last, workload=workload, trace=trace)))
    print(json.dumps(last))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
