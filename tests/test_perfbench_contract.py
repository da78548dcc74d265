"""The names and record fields that the benchmark in ``perfbench/`` relies on.

The benchmark imports the library by name, reads its records' fields and
reports' keys, and corrupts its records with ``dataclasses.replace`` to test
its own checks, so a library change that renames any of them would otherwise
surface only when the benchmark runs.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from lynlz import LyndonFactorization, LZFactorization, Span, lyndon_factorize, lz_factorize
from lynlz.domains import CHECK_NAMES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCHMARK = PERFBENCH.parent / "BENCHMARK.json"


def test_imported_names_exist():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lynlz":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported
    missing = [
        entry for entry in imported if not hasattr(importlib.import_module(entry[1]), entry[2])
    ]
    assert missing == []


def test_check_metrics_name_every_check():
    # The benchmark reads a missing count as 0, so a renamed check would
    # silently zero its per-layer metric instead of failing.
    spec = json.loads(BENCHMARK.read_text())
    names = {m["name"] for m in spec["per_layer"] if m["name"].startswith("domains.check.")}
    assert names == {f"domains.check.{n}.instances" for n in CHECK_NAMES}


def test_replace_accepts_selftest_fields():
    source = (PERFBENCH / "selftest.py").read_text()
    passed = {
        kw.arg
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "dataclasses.replace"
        for kw in node.keywords
    }
    s = b"bab"
    lz = lz_factorize(s)
    assert dataclasses.replace(lz, phrases=lz.phrases[:-1]).phrases == lz.phrases[:-1]
    lf = lyndon_factorize(s)
    merged = (Span(1, 3),)
    shorter = dataclasses.replace(lf, runs=merged, factors=lf.factors[:1])
    assert (shorter.runs, shorter.factors) == (merged, lf.factors[:1])
    records = (LZFactorization, LyndonFactorization)
    fields = {f.name for cls in records for f in dataclasses.fields(cls)}
    assert passed and passed <= fields


def test_one_op_of_each_workload_passes():
    # Each workload makes its input, runs one op and checks it, then probes it
    # with the traced runner's Tracer.  A failure reason names a record field
    # or report key the benchmark reads that the library no longer provides.
    reasons = _run_in_benchmark(
        "from collections import Counter\n"
        "reasons = {}\n"
        "for name, workload in workloads.WORKLOADS.items():\n"
        "    wl = workload(1)\n"
        "    x = wl.make_input()\n"
        "    out = wl.run(x, run.NullTracer())\n"
        "    tracer = run.Tracer()\n"
        "    tracer.op = 0\n"
        "    reasons[name] = wl.check(x, out) or wl.probe(x, out, tracer, Counter())\n"
        "print(json.dumps(reasons))\n"
    )
    assert sorted(reasons) == ["parse-random", "parse-repetitive", "verify-family"]
    assert reasons == dict.fromkeys(reasons)


def test_every_per_layer_metric_has_a_source():
    # per_layer reads a declared name with no source as 0, so a renamed span
    # or counter would zero its metric instead of failing.  After one traced
    # verify-family op each name must be a LAYER_SPANS metric whose spans all
    # ran, a counter the op recorded, or a name per_layer derives itself.
    seen = _run_in_benchmark(
        "tracer = run.Tracer()\n"
        "res = run.measure(workloads.VerifyFamily(1), 0.01, tracer)\n"
        "spans = {rec[0] for rec in tracer.spans}\n"
        "print(json.dumps({\n"
        "    'failed': res['failed'],\n"
        "    'spans': [m for m, parts in run.LAYER_SPANS.items() if spans.issuperset(parts)],\n"
        "    'counts': sorted({name for op in res['counts'] for name in op}),\n"
        "}))\n"
    )
    assert seen["failed"] == 0
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (per_layer,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "per_layer"
    ]
    derived = {
        target.slice.value
        for node in ast.walk(per_layer)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Subscript) and ast.unparse(target.value) == "row"
    }
    assert derived
    sources = {*seen["spans"], *seen["counts"], *derived}
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    assert [name for name in declared if name not in sources] == []


def _run_in_benchmark(code: str):
    """JSON printed by ``code`` run after ``import json, run, workloads``.

    The code runs in a fresh interpreter set up as the benchmark sets itself
    up; -B keeps perfbench/ free of __pycache__.
    """
    src = PERFBENCH.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(PERFBENCH)))}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import json, run, workloads\n" + code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
