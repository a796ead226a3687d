#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with another seed,
and print each metric's median, quartiles and spread (the distance
between the quartiles as a share of the median) next to its bound.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--trace 0|1]
                                [--first-seed N] [--same-seed] [--per-run]
                                [workload ...]

Run from the root of the repository. With no workload named, every
workload of BENCHMARK.json runs. With --same-seed every run uses the
first seed, which separates the host's noise from the inputs'. Exits
non-zero if a run fails or is not correct.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true", help="every run at the first seed")
    ap.add_argument("--per-run", action="store_true", help="also print every run's value")
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in names:
        values, calib, calib_mem = {}, [], []
        for i in range(a.runs):
            seed = a.first_seed + (0 if a.same_seed else i)
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(a.seconds), "--trace", str(a.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith('{"report"'):
                    report = json.loads(line)["report"]
                    calib.append(report["calibration_s"])
                    calib_mem.append(report["calibration_mem_s"])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: not correct: {lines[-2][:2000]}")
                ok = False
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        seeds = (f"seed {a.first_seed}" if a.same_seed
                 else f"seeds {a.first_seed}..{a.first_seed + a.runs - 1}")
        print(f"\n{w}: {a.runs} runs, {seeds}, "
              f"calibration loops {min(calib, default=0):.3f}..{max(calib, default=0):.3f} s "
              f"(arithmetic), {min(calib_mem, default=0):.3f}..{max(calib_mem, default=0):.3f} s "
              f"(memory)")
        if a.per_run:
            print("  memory loop of each run, s: " + " ".join(f"{v:.3f}" for v in calib_mem))
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(k)
            flag = "" if b is None or spread <= b / 3 else "  <-- above a third of the bound"
            print(f"  {k:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if b is None else b:>6}{flag}")
            if a.per_run:
                print("      runs: " + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
