"""The names and record fields that the benchmark in ``perfbench/`` relies on.

The benchmark imports the library by name and corrupts its records with
``dataclasses.replace`` to test its own checks, so a library change that
renames either would otherwise surface only when the benchmark runs.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

from lynlz import LyndonFactorization, LZFactorization, Span, lyndon_factorize, lz_factorize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
