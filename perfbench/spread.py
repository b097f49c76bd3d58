#!/usr/bin/env python3
"""Runs the benchmark for each workload and seed, prints every end-to-end
metric with its unit, and for two or more seeds each metric's median,
quartiles and spread (IQR / median) against its bound.

Run from the repository root:

    python3 perfbench/spread.py --workloads converge churn failover fuzz --seeds 1-10 [--out rows.json]

Each invocation is the command in BENCHMARK.json with
`--workload W --seed N --seconds <run_seconds> --trace 0`, one at a time.
Exits 1 when a run fails (non-zero exit or `correct: false`), and 3 when
a spread other than set-up time's reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", help="write the summary rows as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    rows = []
    failed = unsteady = False
    for wl in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            start = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            ok = p.returncode == 0 and result["correct"]
            failed |= not ok
            print(f"{wl} seed {seed}: exit {p.returncode}, {time.time() - start:.1f} s, "
                  f"correct {result['correct']}, "
                  f"failed {result.get('failed')}/{result.get('attempted')}", flush=True)
            for name, m in result.get("metrics", {}).items():
                print(f"  {name} = {m['value']} {m['unit']}")
                values.setdefault(name, []).append(m["value"])
        if len(args.seeds) < 2:
            continue
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = e2e[name]["bound"]
            flag = ""
            if spread >= bound / 3:
                flag = "  <-- at least a third of the bound"
                unsteady |= name != "setup_s"
            print(f"{wl:<9} {name:<13} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"{e2e[name]['unit']:<4} spread {spread:.4f} (bound {bound}){flag}")
            rows.append({"workload": wl, "metric": name, "unit": e2e[name]["unit"],
                         "median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound, "seeds": args.seeds})
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rows, f, indent=1)
    return 1 if failed else 3 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
