#!/usr/bin/env python3
"""Self-test of the benchmark itself.

1. At one seed, two runs give exactly the same deterministic numbers:
   wal_bytes_per_doc_byte and heap_live_mb (untraced) and every
   per-layer count (traced). probe and scan run with timed slices, as the
   benchmark runs them. ingest_wire's timed transactions replace orders,
   so its byte ratio and heap depend on the number of rounds; it runs
   with --rounds, a fixed number of rounds per slice.
2. A held-out seed changes the inputs and still passes every check.

    python3 perfbench/selftest.py [workload ...]

Run from the root of the repository. Exits non-zero on any failure.
"""
import json
import subprocess
import sys

SEED, HELD_OUT, SECONDS = 7, 1009, 4
# workloads whose deterministic numbers depend on the number of rounds
FIXED_ROUNDS = {"ingest_wire": 2}

# Per-layer metrics that are counts or byte sizes: no clock is involved.
COUNTS = [
    "plan_cache.hit_ratio", "planner.probe_precision", "xmlindex.index_probes",
    "xmlindex.entries_scanned", "btree.page_reads", "xquery.eval_steps",
    "xquery.nodes_materialized", "storage.docs_scanned",
    "storage.docs_scanned_per_row", "structindex.struct_probes",
    "structindex.struct_entries", "btree.splits", "storage.undo_entries",
    "wal.bytes_per_commit", "durable.redo_records",
    "eligibility.pairs_probe_lt_scan", "eligibility.eligible_docs",
    "eligibility.ineligible_docs",
]
UNTRACED = ["wal_bytes_per_doc_byte", "heap_live_mb"]


def run(workload, seed, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    if workload in FIXED_ROUNDS:
        cmd += ["--rounds", str(FIXED_ROUNDS[workload])]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return res, {k: v["value"] for k, v in res["metrics"].items()}


def main():
    workloads = sys.argv[1:] or [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
    failures = []
    for w in workloads:
        for trace, names in ((0, UNTRACED), (1, COUNTS)):
            runs = [run(w, SEED, trace) for _ in range(2)]
            for res, _ in runs:
                if not res["correct"] or res["failed"]:
                    failures.append(f"{w} seed {SEED} trace {trace}: not correct")
            a, b = runs[0][1], runs[1][1]
            for k in names:
                same = a[k] == b[k]
                print(f"{w:12} trace {trace} {k:34} {a[k]!r:>24} {b[k]!r:>24} "
                      f"{'same' if same else 'DIFFERENT'}")
                if not same:
                    failures.append(f"{w}: {k} differs between two runs at seed {SEED}")
            if trace == 0:
                held, hm = run(w, HELD_OUT, 0)
                changed = any(hm[k] != a[k] for k in names)
                print(f"{w:12} held-out seed {HELD_OUT}: correct={held['correct']} "
                      f"failed={held['failed']} inputs changed={changed}")
                if not held["correct"] or held["failed"] or not changed:
                    failures.append(f"{w}: held-out seed {HELD_OUT} failed or changed nothing")
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
