"""Run-to-run spread of the benchmark, and the baseline record.

    python3 perfbench/spread.py --workloads parse-random,verify-family --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --sets 2 --traced-seed 1 --out .bench_results/spread.json

Runs ``run.py`` once per workload and seed, one run at a time, and reports
for each end-to-end metric the median of the runs and the spread: the
distance between the first and third quartile (``statistics.quantiles`` with
``n=4``) as a share of the median.  A spread below a third of the metric's
bound in ``BENCHMARK.json`` is marked steady; ``setup_s`` is exempt from
that, as it is a median of many imports per run.  With ``--sets 2`` a second set
of runs on fresh seeds follows the first, and the second set's median may be
worse than the first's by no more than the bound.  ``--traced-seed`` adds one
traced run per workload and the tracing overhead, ``trace.op_ms`` minus the
untraced median ``op_p50_ms``.  ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops\n{proc.stdout}")
    return result


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs; set k shifts the seeds by k times their count")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workloads.split(",")
    base = seeds(args.seeds)
    labels = [f"set_{chr(ord('A') + k)}" for k in range(args.sets)]
    report: dict = {"seconds": args.seconds, "workloads": {wl: {"end_to_end": {}} for wl in names}}
    results: dict = {}
    # All workloads of one set run before the next set starts, so the sets lie minutes apart.
    for k, label in enumerate(labels):
        report[f"{label}_seeds"] = [s + k * len(base) for s in base]
        for wl in names:
            results[wl, label] = [run(wl, seed, args.seconds, 0) for seed in report[f"{label}_seeds"]]
            report["workloads"][wl][f"ops_per_run_{label[-1]}"] = [r["attempted"] for r in results[wl, label]]
    steady = True
    for wl in names:
        entry = report["workloads"][wl]
        for name, m in metrics.items():
            row = {label: stats([r["metrics"][name]["value"] for r in results[wl, label]]) for label in labels}
            row["bound"] = m["bound"]
            for label in labels:
                # Set-up time is run several times per run; only its median shift is bounded.
                ok = name == "setup_s" or row[label]["spread"] < m["bound"] / 3
                steady = steady and ok
                print(
                    f"{wl:17s} {name:14s} {label} median {row[label]['median']:12.6g}  "
                    f"spread {row[label]['spread']:7.2%}  bound {m['bound']:.2f}  {'steady' if ok else 'NOT STEADY'}",
                    flush=True,
                )
            if len(labels) > 1:
                a, b = row[labels[0]]["median"], row[labels[-1]]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                row[f"worse_{labels[-1][-1]}_vs_{labels[0][-1]}"] = worse
                steady = steady and worse <= m["bound"]
                print(f"{wl:17s} {name:14s} {labels[-1]} worse than {labels[0]} by {worse:7.2%}", flush=True)
            entry["end_to_end"][name] = row
        if args.traced_seed is not None:
            traced = run(wl, args.traced_seed, args.seconds, 1)
            layers = {name: m["value"] for name, m in traced["metrics"].items()}
            record = json.loads((ROOT / ".bench_results" / f"{wl}-seed{args.traced_seed}-trace1.json").read_text())
            for key in ("machine", "commit", "source_sha256"):
                report[key] = record[key]
            entry[f"per_layer_traced_seed{args.traced_seed}"] = layers
            untraced = entry["end_to_end"]["op_p50_ms"][labels[0]]["median"]
            entry["tracing_overhead_ms"] = layers["trace.op_ms"] - untraced
            print(f"{wl:17s} tracing overhead {entry['tracing_overhead_ms']:.3f} ms per op", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
