"""Every row of tests/extremal.json, re-verified; every exact row, re-derived."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lynlz import exhaustive_search, lyndon_factorize, lz_factorize, verify_lemmas
from lynlz.lyndon import ORACLE_LIMIT as LYNDON_ORACLE_LIMIT
from lynlz.lyndon import oracle_lyndon_dp
from lynlz.lz import ORACLE_LIMIT as LZ_ORACLE_LIMIT
from lynlz.lz import oracle_lz_naive

ROWS = json.loads((Path(__file__).parent / "extremal.json").read_text())["rows"]
CLASSES = {"all": lambda s: True, "no bb": lambda s: b"bb" not in s}


@pytest.mark.parametrize("row", ROWS, ids=[f"{r['status']}-n{r['n']}" for r in ROWS])
def test_row_holds(row):
    s = row["witness"].encode()
    assert row["status"] in ("exact", "witness")
    assert len(s) == row["n"] <= min(LYNDON_ORACLE_LIMIT, LZ_ORACLE_LIMIT)
    assert max(s) < ord("a") + row["sigma"] and CLASSES[row["class"]](s)
    lf, lz = lyndon_factorize(s), lz_factorize(s)
    assert (lf.m, lz.z) == (row["m"], row["z"])
    assert oracle_lyndon_dp(s) == lf and oracle_lz_naive(s) == lz
    report = verify_lemmas(s)
    assert report.passed and report.t == row["t"]


def test_exact_rows_are_rederived():
    # Only the full binary sweep is re-derived, so only its rows may be exact.
    exact = [r for r in ROWS if r["status"] == "exact"]
    assert all((r["sigma"], r["class"]) == (2, "all") for r in exact)
    assert sorted(r["n"] for r in exact) == list(range(1, len(exact) + 1))
    sweep = exhaustive_search(2, len(exact), jobs=1)
    assert [(r["m"] - r["z"], r["witness"].encode()) for r in sorted(exact, key=lambda r: r["n"])] == [
        (ls.max_diff, ls.max_diff_string) for ls in sweep
    ]
    assert [ls.max_diff for ls in sweep] == [0, 0, -1, 0, -1, -1, 0, -1, -1, -1, 0, 0, -1, 0]
