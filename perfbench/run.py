"""Benchmark runner for lynlz.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads and metrics are listed in ``BENCHMARK.json``.  One run imports the
package from ``src/`` in a fresh process, times ``import lynlz`` in separate
fresh interpreters (``setup_s``), builds its inputs from the seed, runs two
warm-up ops, then runs ops back to back (a closed loop with one caller) for
``S`` seconds.  Every output is checked; a failed check or an exception
counts the op as failed.

Every time the benchmark reports is scaled to reference speed: the fixed
loop in ``refloop.py`` is timed three times before each op, after the last
op, and before and after each import.  An op's measured time is multiplied
by the loop's nominal time over the median loop time around the op and the
``SCALE_WINDOW`` ops on each side of it; an import's, over the median of the
six loops around it.  This cancels the drift of a shared host's speed, which
moves every time by tens of percent over minutes, while the window keeps the
loop's own noise (one loop takes 7 to 10 ms at one host speed) out of the
factor.  The measured times and the scale factors are printed and kept in
the result file.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it records one span per public call the benchmark makes into
the package and reports per-layer metrics; layers that a workload's op never
calls read 0.  Tracing overhead is ``trace.op_ms`` minus the untraced
``op_p50_ms`` of the same workload.  ``--workload all`` makes both runs of
every workload.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record of each run (machine, Python, commit, seed, samples and spans) is
written to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
IMPORT_SAMPLES = 11
WARMUP_OPS = 2
SCALE_WINDOW = 2

if not (SRC / "lynlz" / "__init__.py").is_file():
    sys.exit(f"error: no lynlz package under {SRC}")
sys.path.insert(0, str(SRC))

from refloop import scale, time_loops  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer metric -> span names whose self time it sums (ms per op).
LAYER_SPANS = {
    "lyndon.factorize_ms": ("lyndon.factorize",),
    "lz.factorize_ms": ("lz.factorize",),
    "domains.table_ms": ("domains.table",),
    "domains.tandems_ms": ("domains.tandems",),
    "domains.groups_ms": ("domains.groups",),
    "domains.canonical_ms": ("domains.canonical", "domains.budget"),
    "domains.verify_ms": ("domains.verify",),
    "bounds.theorem_ms": ("bounds.theorem",),
    "bounds.partition_ms": ("bounds.partition",),
    "cli.main_ms": ("cli.main",),
}
# Library calls `lynlz verify` makes, timed separately on the same input.
CLI_CALLS = ("domains.verify", "bounds.theorem")


class Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        stack = tracer.stack
        self.rec = [name, tracer.op, len(tracer.spans), stack[-1] if stack else None, 0.0, 0.0]

    def __enter__(self) -> None:
        tr, rec = self.tracer, self.rec
        tr.spans.append(rec)
        tr.stack.append(rec[2])
        rec[4] = time.perf_counter()

    def __exit__(self, *exc: object) -> bool:
        self.rec[5] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Spans kept in memory as ``[name, op, id, parent, start, end]``."""

    FIELDS = ("name", "op", "id", "parent", "start", "end")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def span(self, name: str) -> Span:
        return Span(self, name)

    def self_ms(self) -> list[dict[str, float]]:
        """Per op: span name -> summed self time (duration minus children), in ms."""
        child: dict[int, float] = {}
        for name, op, sid, parent, start, end in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        per_op: list[dict[str, float]] = [dict() for _ in range(self.op + 1)]
        for name, op, sid, parent, start, end in self.spans:
            ms = (end - start - child.get(sid, 0.0)) * 1e3
            per_op[op][name] = per_op[op].get(name, 0.0) + ms
            if name == "op":
                per_op[op]["op.total"] = (end - start) * 1e3
        return per_op


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    _NULL = contextlib.nullcontext()
    op = -1

    def span(self, name: str) -> contextlib.nullcontext:
        return self._NULL


def time_imports() -> tuple[float, float]:
    """Median time of ``import lynlz`` in fresh interpreters (seconds).

    Returns the median at reference speed and the median as measured.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; from refloop import scale, time_loops; "
        "before = time_loops(); t = time.perf_counter(); import lynlz; "
        "dt = time.perf_counter() - t; print(dt, scale(before + time_loops()))"
    )
    scaled, measured = [], []
    for k in range(IMPORT_SAMPLES + 1):  # the first import may write bytecode caches
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import lynlz failed: {proc.stderr.strip()}")
        if k:
            dt, factor = map(float, proc.stdout.split())
            scaled.append(dt * factor)
            measured.append(dt)
    return statistics.median(scaled), statistics.median(measured)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    kb = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def op_scales(loops: list[list[float]]) -> list[float]:
    """Per op: the scale factor from the loops between ops ``i - SCALE_WINDOW`` and ``i + SCALE_WINDOW``."""
    w = SCALE_WINDOW
    return [scale([t for b in loops[max(0, i - w):i + w + 2] for t in b]) for i in range(len(loops) - 1)]


def measure(wl, seconds: float, tracer) -> dict:
    """Closed loop: run ops for ``seconds``, each between two pairs of reference loops."""
    traced = isinstance(tracer, Tracer)
    latencies: list[float] = []
    cpu: list[float] = []
    loops = []  # loops[i]: reference loop times right before op i
    counts: list[dict[str, float]] = []
    reasons: list[str] = []
    failed = 0
    # Two warm-up ops grow the heap to its steady size: each op runs while
    # the previous op's output is still alive, the warm-up's included.
    for _ in range(WARMUP_OPS):
        try:
            out = wl.run(wl.make_input(), NullTracer())
        except Exception:  # the timed ops that follow count the failure
            out = None
    loops.append(time_loops())
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        x = wl.make_input()
        tracer.op += 1
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            with tracer.span("op"):
                out = wl.run(x, tracer)
            reason = None
        except Exception as exc:  # a failing op is counted, the run goes on
            out, reason = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        loops.append(time_loops())
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
        if traced:
            op_counts: Counter = Counter()
            counts.append(op_counts)
            try:
                if reason is None:
                    with tracer.span("probe"):
                        reason = wl.probe(x, out, tracer, op_counts)
            except Exception as exc:
                reason = f"probe {type(exc).__name__}: {exc}"
        if reason is None:
            reason = wl.check(x, out)
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(reason)
    return {
        "latencies": latencies,
        "cpu": cpu,
        "scales": op_scales(loops),
        "loops": loops,
        "counts": counts,
        "failed": failed,
        "reasons": reasons,
        "peak_rss_mb": peak_rss_mb(),
    }


def end_to_end(res: dict, setup: tuple[float, float]) -> tuple[dict[str, float], list[str]]:
    raw = res["latencies"]
    lat = [t * f for t, f in zip(raw, res["scales"])]
    n = len(lat)
    tail_s, tail_pct = tail(lat)
    values = {
        "setup_s": setup[0],
        "ops_per_s": n / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "cpu_ms_per_op": sum(c * f for c, f in zip(res["cpu"], res["scales"])) / n * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"op_p50_ms: median of {n} ops",
        f"op_tail_ms: p{tail_pct:.1f} of {n} ops ({10 if n >= 11 else 0} beyond it)",
        f"setup_s: median of {IMPORT_SAMPLES} imports in fresh interpreters",
        f"fail_ratio {res['failed'] / n:.6g} ratio ({res['failed']} of {n} ops)",
        f"times above are at reference speed; scale factor median {statistics.median(res['scales']):.4g}",
        f"as measured: op_p50_ms {statistics.median(raw) * 1e3:.6g} ms, ops_per_s {n / sum(raw):.6g} 1/s, "
        f"setup_s {setup[1]:.6g} s",
    ]
    return values, notes


def per_layer(res: dict, tracer: Tracer, names: list[str]) -> dict[str, float]:
    rows = []
    for spans, counts, f in zip(tracer.self_ms(), res["counts"], res["scales"]):
        row = {metric: f * sum(spans.get(s, 0.0) for s in parts) for metric, parts in LAYER_SPANS.items()}
        row["trace.op_ms"] = f * spans.get("op.total", 0.0)
        if "cli.main" in spans:
            row["cli.self_ms"] = f * (spans["cli.main"] - sum(spans.get(s, 0.0) for s in CLI_CALLS))
        if counts.get("lz.phrases"):
            row["lz.bytes_per_phrase"] = counts["text.bytes"] / counts["lz.phrases"]
        if counts.get("domains.table_entries"):
            row["domains.nonempty_ratio"] = counts["domains.nonempty"] / counts["domains.table_entries"]
        for name in names:
            row.setdefault(name, counts.get(name, 0.0))
        rows.append(row)
    if not rows:
        return {name: 0.0 for name in names}
    return {name: statistics.median(row[name] for row in rows) for name in names}


def commit() -> str | None:
    """HEAD of the checkout's own git repository; None when it is not one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lynlz").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_one(args: argparse.Namespace, spec: dict) -> int:
    setup = None if args.trace else time_imports()
    wl = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    res = measure(wl, args.seconds, tracer)

    attempted = len(res["latencies"])
    if args.trace:
        section = spec["per_layer"]
        values = per_layer(res, tracer, [m["name"] for m in section])
        notes = [f"per-layer values: median over {attempted} traced ops; times at reference speed"]
    else:
        section = spec["end_to_end"]
        values, notes = end_to_end(res, setup)
    units = {m["name"]: m["unit"] for m in section}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    for reason in res["reasons"]:
        print(f"{args.workload} FAILED: {reason}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "metrics": metrics,
        "notes": notes,
        "failures": res["reasons"],
        "latencies_ms": [x * 1e3 for x in res["latencies"]],
        "scales": res["scales"],
        "reference_loops_ms": [[t * 1e3 for t in b] for b in res["loops"]],
    }
    if args.trace:
        record["spans"] = {"fields": Tracer.FIELDS, "rows": tracer.spans}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(f"{args.workload} result file {out.relative_to(ROOT)}")

    result = {"correct": res["failed"] == 0, "attempted": attempted, "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload untraced, then traced, each run in its own fresh process.

    Metrics are keyed ``workload/metric``; ``--trace`` is not used.
    """
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace, wl in [(t, w) for t in (0, 1) for w in spec["workloads"]]:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {wl['name']} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        total["correct"] = total["correct"] and part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for name, m in part["metrics"].items():
            total["metrics"][f"{wl['name']}/{name}"] = m
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
