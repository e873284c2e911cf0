#!/usr/bin/env python3
"""Compare two ledgers written by perfbench/ledger.py.

    python3 perfbench/compare.py BASE.json NEW.json

For every workload and end-to-end metric it prints both medians and how
much NEW is worse than BASE as a share of BASE's median, in the metric's
"better" direction. A change worse than the metric's bound in
BENCHMARK.json is a regression; a change inside the bound but wider than
BASE's own quartile spread is reported as a shift. Exact-repeat values
(digests, model_err_pct, plan counts) must match. Differing machine
fingerprints only warn: numbers from two machines are not comparable.
Exit code 1 when any regression or exact-value mismatch is found.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("cpu", "nproc", "simd_tier", "compiler", "build_type")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base = json.loads(Path(argv[1]).read_text())
    new = json.loads(Path(argv[2]).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    for key in MACHINE_KEYS:
        a = base.get("fingerprint", {}).get(key)
        b = new.get("fingerprint", {}).get(key)
        if a != b:
            print(f"warning: fingerprint {key} differs: {a!r} vs {b!r}")
    print(f"base commit {base.get('fingerprint', {}).get('git_commit')}, "
          f"new commit {new.get('fingerprint', {}).get('git_commit')}")

    failed = False
    for workload, entry in new["workloads"].items():
        if workload not in base["workloads"]:
            print(f"== {workload}: not in base ledger")
            continue
        old = base["workloads"][workload]
        print(f"== {workload}")
        if old.get("exact") != entry.get("exact"):
            failed = True
            print(f"  EXACT MISMATCH: {old.get('exact')} vs {entry.get('exact')}")
        for name, metric in metrics.items():
            if name not in old["metrics"] or name not in entry["metrics"]:
                continue
            a = old["metrics"][name]
            b = entry["metrics"][name]
            if a["median"] == 0:
                continue
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if metric["better"] == "lower" else -change
            if worse > metric["bound"]:
                verdict = "REGRESSION"
                failed = True
            elif abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
                verdict = "better" if worse < 0 else "shift (within bound)"
            else:
                verdict = "within spread"
            print(f"  {name:20s} {a['median']:>12.6g} -> {b['median']:>12.6g} "
                  f"{metric['unit']:5s} {100 * change:+7.2f}%  "
                  f"(bound {100 * metric['bound']:.0f}%) {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
