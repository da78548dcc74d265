from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMMANDS, FIGURE_STRING, GROUP_BOTTOM_STRING, strings
from test_cli_digests import FILE_BYTES, digest_texts
from lynlz import (
    Domain,
    DomainLayer,
    IntegrityError,
    LemmaCheck,
    LemmaReport,
    Span,
    all_domains,
    exhaustive_search,
    find_p_groups,
    find_tandem_domains,
    generate_family,
    lyndon_factorize,
    lz_factorize,
)
from lynlz.bounds import _measure
from lynlz.domains import CHECK_NAMES
from lynlz.cli import (
    _domain_dict,
    _group_dict,
    build_parser,
    main,
    render_bytes,
)
from lynlz.lz import ORACLE_LIMIT

FIG_TEXT = FIGURE_STRING.decode()
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("path", sorted((SRC / "lynlz").glob("*.py")), ids=lambda path: path.name)
def test_modules_import_no_private_names(path):
    # Each module reads the rest of the package through its public names only.
    tree = ast.parse(path.read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "lynlz")
        for alias in node.names
    ]
    if path.name == "cli.py":  # the command line reads the library through these imports
        assert imported
    assert [name for name in imported if name.startswith("_")] == []


class TestLyndonCommand:
    def test_json_report(self, capsys):
        code, out = run(capsys, "lyndon", "--text", FIG_TEXT, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["input_len"] == 25 and report["m"] == 5
        assert report["runs"][0] == {
            "index": 1,
            "span": {"start": 1, "end": 6},
            "factor": "abb",
            "exponent": 2,
        }

    def test_empty_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"")))
        code, out = run(capsys, "lyndon", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["m"] == 0 and report["runs"] == []

    def test_stdin_strips_one_newline(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"ba\n")))
        code, out = run(capsys, "lyndon", "--format", "json")
        assert json.loads(out)["input_len"] == 2

    def test_no_strip_keeps_newline(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"ba\n")))
        code, out = run(capsys, "lyndon", "--format", "json", "--no-strip-newline")
        assert json.loads(out)["input_len"] == 3

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "input.bin"
        path.write_bytes(bytes([0, 255]) + b"ab")
        code, out = run(capsys, "lyndon", "--file", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["input_len"] == 4

    @pytest.mark.parametrize(
        "source, data, flags, input_len",
        [
            ("stdin", b"ba\r\n", (), 2),
            ("stdin", b"ba\r\n", ("--no-strip-newline",), 4),
            ("file", b"ba\r\n", (), 4),
            ("file", b"ba\r\n", ("--strip-newline",), 2),
            ("file", b"ba\n\n", ("--strip-newline",), 3),
            ("text", b"ba\r\n", (), 4),
            ("text", b"ba\r\n", ("--strip-newline",), 2),
        ],
    )
    def test_strip_newline(self, capsys, monkeypatch, tmp_path, source, data, flags, input_len):
        # One line terminator, \r\n or \n, goes by default from stdin only.
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            argv: list[str] = []
        elif source == "file":
            path = tmp_path / "input.bin"
            path.write_bytes(data)
            argv = ["--file", str(path)]
        else:
            argv = ["--text", data.decode("latin-1")]
        code, out = run(capsys, "lyndon", *argv, *flags, "--format", "json")
        assert code == 0
        assert json.loads(out)["input_len"] == input_len

    def test_tsv(self, capsys):
        code, out = run(capsys, "lyndon", "--text", "banana", "--format", "tsv")
        assert out.splitlines() == ["1\t1\t1\tb\t1", "2\t2\t5\tan\t2", "3\t6\t6\ta\t1"]

    def test_oracle_check(self, capsys):
        code, _ = run(capsys, "lyndon", "--text", "banana", "--oracle-check", "--format", "json")
        assert code == 0

    def test_oracle_disagreement_is_defect(self, capsys, monkeypatch):
        # The whole record is compared: another text, or the same text with other runs.
        ba = lyndon_factorize(b"ba")
        for other in (ba, dataclasses.replace(ba, text=b"abab")):
            monkeypatch.setattr("lynlz.cli.oracle_lyndon_dp", lambda s: other)
            code = main(["lyndon", "--oracle-check", "--text", "abab"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert captured.err == "defect: factorization disagrees with the oracle on abab\n"

    def test_oracle_check_refuses_long_input(self, capsys):
        # The backtracking oracle's search is exponential in principle, so
        # past 512 bytes (lyndon.ORACLE_LIMIT) the check is a usage error, not
        # a failed check and not a traceback, and nothing goes to stdout.
        code, _ = run(capsys, "lyndon", "--oracle-check", "--text", "a" * 512)
        assert code == 0
        code = main(["lyndon", "--oracle-check", "--text", "a" * 513])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: oracle limited to 512 symbols, got 513\n"


class TestLzCommand:
    def test_json_boundaries(self, capsys):
        code, out = run(capsys, "lz", "--text", "babaababaaba", "--format", "json")
        report = json.loads(out)
        assert report["z"] == 5
        assert report["boundaries"] == [1, 2, 3, 5, 8]
        assert [p["text"] for p in report["phrases"]] == ["b", "a", "ba", "aba", "baaba"]

    def test_hex_escaping(self, capsys, tmp_path):
        path = tmp_path / "raw.bin"
        path.write_bytes(b"\x00\xffab")
        code, out = run(capsys, "lz", "--file", str(path), "--format", "json")
        texts = [p["text"] for p in json.loads(out)["phrases"]]
        assert texts[0] == "\\x00" and texts[1] == "\\xff"

    def test_oracle_check(self, capsys):
        code, _ = run(capsys, "lz", "--text", FIG_TEXT, "--oracle-check")
        assert code == 0

    def test_oracle_disagreement_is_defect(self, capsys, monkeypatch):
        # The whole record is compared: another text, or the same text with other phrases.
        ba = lz_factorize(b"ba")
        for other in (ba, dataclasses.replace(ba, text=b"abab")):
            monkeypatch.setattr("lynlz.cli.oracle_lz_naive", lambda s: other)
            code = main(["lz", "--oracle-check", "--text", "abab"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert captured.err == "defect: parse disagrees with the oracle on abab\n"

    def test_oracle_check_refuses_long_input(self, capsys):
        # The naive oracle is quadratic; past lz.ORACLE_LIMIT the check is a
        # usage error, and nothing goes to stdout.
        limit = ORACLE_LIMIT
        code = main(["lz", "--oracle-check", "--text", "a" * (limit + 1)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: oracle limited to {limit} symbols, got {limit + 1}\n"
        code, _ = run(capsys, "lz", "--oracle-check", "--text", "ab" * (limit // 2))
        assert code == 0


@pytest.mark.parametrize(
    "command, n, err",
    [
        ("lyndon", 513, "error: oracle limited to 512 symbols, got 513\n"),
        ("lz", 10_001, "error: oracle limited to 10000 symbols, got 10001\n"),
    ],
    ids=["lyndon", "lz"],
)
def test_oracle_refuses_before_parsing(capsys, monkeypatch, command, n, err):
    # Past its bound the oracle refuses before the fast parse runs, so the
    # usage error costs no parse of the input.
    def parse(s):
        pytest.fail(f"parsed {len(s)} bytes that the oracle refuses")

    monkeypatch.setattr("lynlz.cli.lyndon_factorize", parse)
    monkeypatch.setattr("lynlz.cli.lz_factorize", parse)
    code = main([command, "--oracle-check", "--text", "a" * n])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)


def _domains_report(fmt: str, text: bytes) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["domains", "--format", fmt, "--text", text.decode("latin-1")]) == 0
    return out.getvalue()


def _dense_listing(lf, listed: list[Domain]) -> list[Domain]:
    """Every (i, d) domain, rebuilt from a report's non-empty ones and the runs.

    Run i's listed orders must be exactly 1 .. e_i - 1.  Each order d >= e_i
    is the empty domain anchored at F_i, with window [F_i.start ..
    F_{i+d-1}.end].
    """
    runs, m = lf.runs, lf.m
    dense: list[Domain] = []
    for i in range(1, m + 1):
        row = [dom for dom in listed if dom.i == i]
        assert [dom.d for dom in row] == list(range(1, len(row) + 1))
        dense += row
        start = runs[i - 1].start
        dense += [
            Domain(i=i, d=d, j=i, span=Span.empty(start), associated=Span(start, runs[i + d - 2].end))
            for d in range(len(row) + 1, m - i + 2)
        ]
    assert sum(1 for dom in dense if not dom.is_empty) == len(listed)
    return dense


class TestDomainsCommand:
    def test_json_counts(self, capsys):
        code, out = run(capsys, "domains", "--text", FIG_TEXT, "--format", "json")
        report = json.loads(out)
        # Only the 6 non-empty domains of the 15 (i, d) are listed.
        assert len(report["domains"]) == 6
        assert len(report["tandems"]) == 4
        assert len(report["groups"]) == 3
        assert not any(d["empty"] for d in report["domains"])
        assert {(d["i"], d["d"]) for d in report["domains"]} == {
            (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1),
        }
        assert all(d["span"]["start"] <= d["span"]["end"] for d in report["domains"])

    @pytest.mark.parametrize(
        "text, tandems",
        [(generate_family(12), 1), (b"ab", 0), (b"", 0)],
        ids=["family-12", "no-tandems-or-groups", "empty"],
    )
    def test_json_is_whole_document(self, capsys, text, tandems):
        # The report's bytes are those of the whole document dumped at once,
        # empty lists included.
        lf = lyndon_factorize(text)
        doc = {
            "input_len": len(text),
            "m": lf.m,
            "domains": [_domain_dict(dom) for dom in all_domains(lf) if not dom.is_empty],
            "tandems": [_group_dict(td) for td in find_tandem_domains(lf)],
            "groups": [_group_dict(g) for g in find_p_groups(lf)],
        }
        assert (len(doc["tandems"]), len(doc["groups"])) == (tandems, tandems)
        code, out = run(capsys, "domains", "--text", text.decode(), "--format", "json")
        assert code == 0
        assert out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("text", [FIGURE_STRING, GROUP_BOTTOM_STRING], ids=["figure", "group-bottom"])
    def test_tandems_render_as_groups(self, text):
        # A tandem is the p = 2 case of a group, and every format lays it out as one.
        layer = DomainLayer(lyndon_factorize(text))
        report = json.loads(_domains_report("json", text))
        group_keys = set(report["groups"][0])
        assert len(report["tandems"]) == len(layer.tandems) > 0
        for rec, td in zip(report["tandems"], layer.tandems):
            assert set(rec) == group_keys and rec["p"] == 2
            assert [(m["i"], m["d"]) for m in rec["members"]] == [(dom.i, dom.d) for dom in td.members]
        rows = [line.split("\t") for line in _domains_report("tsv", text).splitlines()]
        grouped = [row for row in rows if row[0] in ("tandem", "group")]
        assert len(grouped) == len(layer.tandems) + len(layer.groups)
        assert all(len(row) == 7 for row in grouped)
        assert [int(row[3]) for row in grouped] == [g.p for g in layer.tandems + layer.groups]
        lines = [line for line in _domains_report("human", text).splitlines() if "domain(" not in line]
        pattern = re.compile(r"  (tandem|group)\(i=\d+, p=\d+, d=\d+\): window \[\d+\.\.\d+\]")
        assert len(lines) == 1 + len(grouped)  # the header line, then one line per row
        assert all(pattern.fullmatch(line) for line in lines[1:])

    def test_reports_rebuild_dense_listing(self):
        # The json and tsv reports list only the non-empty domains; with the
        # runs they determine every (i, d) domain that all_domains lists.
        texts = [*digest_texts().values(), FILE_BYTES, *strings(b"ab", 10)]
        for text in texts:
            lf = lyndon_factorize(text)
            runs = lf.runs
            listed = [
                Domain(
                    i=rec["i"], d=rec["d"], j=rec["j"],
                    span=Span(rec["span"]["start"], rec["span"]["end"]),
                    associated=Span(rec["associated"]["start"], rec["associated"]["end"]),
                )
                for rec in json.loads(_domains_report("json", text))["domains"]
            ]
            assert _dense_listing(lf, listed) == all_domains(lf), text
            listed = []
            for line in _domains_report("tsv", text).splitlines():
                kind, i, d, j, _, start, end = line.split("\t")
                if kind != "domain":
                    continue
                i, d, j, start = int(i), int(d), int(j), int(start)
                # A non-empty domain's window starts at its anchor, its span's start.
                length = runs[i + d - 2].end - runs[i - 1].start
                listed.append(Domain(i, d, j, Span(start, int(end)), Span(start, start + length)))
            assert _dense_listing(lf, listed) == all_domains(lf), text

    def test_json_size_guard(self):
        # Family k=40 has 338,253 (i, d) domains, 41 of them non-empty; the
        # dense listing wrote 113.7 MB of JSON.
        assert len(_domains_report("json", generate_family(40)).encode()) < 100_000

    def test_json_memory_bounded(self):
        # Family k=8 has 741 (i, d) domains, 9 of them non-empty.  The report
        # lists those 9, 1 tandem and 1 group as one document, about 0.05 MB
        # at peak.
        text = generate_family(8).decode()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["domains", "--format", "json", "--text", text]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000


class TestCanonicalCommand:
    def test_budget_json(self, capsys):
        code, out = run(
            capsys, "canonical", "--text", FIG_TEXT, "--run", "5", "--order", "1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["budget"]["total"] == 3
        assert report["budget"]["lower_bound"] == 3
        kinds = [item["kind"] for item in report["sequence"]]
        assert kinds == ["cluster", "loose", "cluster"]

    def test_invalid_root_is_usage_error(self, capsys):
        code, _ = run(capsys, "canonical", "--text", FIG_TEXT, "--run", "9", "--order", "9")
        assert code == 2

    def test_empty_root_is_usage_error(self, capsys):
        code, _ = run(capsys, "canonical", "--text", FIG_TEXT, "--run", "2", "--order", "1")
        assert code == 2

    def test_order_zero_names_its_bound(self, capsys):
        assert main(["canonical", "--text", FIG_TEXT, "--run", "1", "--order", "0"]) == 2
        assert capsys.readouterr().err == "error: run and order must be at least 1: i=1, d=0\n"


class TestVerifyCommand:
    def test_family_string_passes(self, capsys):
        code, out = run(capsys, "verify", "--text", "babaababaaba", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["m"] == 5 and report["z"] == 5
        assert report["all_passed"] is True
        assert report["size_bound"]["passes"] is True
        assert set(report["verdicts"]) >= {"size-bound", "domain-window-boundary"}

    @pytest.mark.parametrize(
        "text, sizes, slack, instances",
        [
            (
                generate_family(6).decode(),
                {"input_len": 164, "m": 23, "z": 19, "t": 2},
                15,
                [253, 7, 34, 253, 447, 276, 1, 1, 0, 1, 1, 1, 0, 2, 7, 7, 7, 276, 1, 1],
            ),
            (
                FIG_TEXT,
                {"input_len": 25, "m": 5, "z": 8, "t": 1},
                11,
                [10, 6, 6, 10, 45, 15, 4, 4, 0, 4, 3, 3, 0, 13, 6, 6, 6, 15, 1, 1],
            ),
        ],
    )
    def test_json_report_pinned(self, capsys, text, sizes, slack, instances):
        code, out = run(capsys, "verify", "--text", text, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert {key: report[key] for key in sizes} == sizes
        assert report["size_bound"] == {"passes": True, "slack": slack}
        assert report["all_passed"] is True
        assert list(report["verdicts"]) == list(CHECK_NAMES)
        assert report["verdicts"] == {
            name: {"instances": count, "failures": 0, "counterexample": None}
            for name, count in zip(CHECK_NAMES, instances)
        }

    def test_human_lines(self, capsys):
        code, out = run(capsys, "verify", "--text", "banana")
        assert code == 0
        assert "PASS size-bound" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = LemmaReport(
            m=1,
            z=1,
            checks=(LemmaCheck(name="size-bound", instances=1, failures=1, counterexample="m=1 z=1"),),
        )
        monkeypatch.setattr("lynlz.domains.verify_lemmas", lambda s: failing)
        code = main(["verify", "--text", "x"])
        captured = capsys.readouterr()
        assert code == 1
        # The witness goes to stdout; only defect: and error: lines use stderr.
        assert "  FAIL size-bound (1 instances)  [m=1 z=1]\n" in captured.out
        assert captured.err == ""


class TestFamilyCommand:
    def test_check_k3(self, capsys):
        code, out = run(capsys, "family", "--k", "3", "--check", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["computed"] == {"m": 8, "z": 7}
        assert report["counts_match"] and report["phrases_match"]
        assert report["phrases"][-1] == "abaabaaaba"

    @pytest.mark.parametrize("fmt", ["human", "json", "tsv"])
    def test_phrase_mismatch_fails_check(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr("lynlz.bounds.expected_lz_phrases", lambda k: [])
        code, out = run(capsys, "family", "--k", "3", "--check", "--format", fmt)
        assert code == 1
        if fmt == "human":
            assert out.splitlines()[-1] == "  MISMATCH against closed forms"
        elif fmt == "json":
            report = json.loads(out)
            assert report["phrases_match"] is False and report["counts_match"] is True
        else:
            assert out.rstrip("\n").split("\t")[3:] == ["8", "7"]

    def test_check_below_formula_domain(self, capsys):
        code, _ = run(capsys, "family", "--k", "1", "--check")
        assert code == 2

    def test_plain_generation(self, capsys):
        code, out = run(capsys, "family", "--k", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["string"] == "ba"

    @pytest.mark.parametrize("k", [271, 100_000])
    def test_refuses_above_byte_limit(self, capsys, k):
        # Refused from the closed-form length, before any byte is generated:
        # k = 100,000 would need about 5 * 10^14 bytes.
        assert main(["family", "--k", str(k)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: family k={k} has ")
        assert captured.err.endswith(" bytes, above the limit of 10000000\n")


class TestSearchCommand:
    def test_tsv_stream(self, capsys):
        code, out = run(capsys, "search", "--sigma", "2", "--max-len", "3", "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2 + 4 + 8
        assert lines[0] == "2\t1\ta\t1\t1\t1"

    def test_tsv_rows_same_for_any_job_count(self, capsys):
        argv = ("search", "--sigma", "3", "--max-len", "6", "--dedupe", "--format", "tsv")
        code1, out1 = run(capsys, *argv, "--jobs", "1")
        code2, out2 = run(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == sum(
            ls.count for ls in exhaustive_search(3, 6, dedupe=True, jobs=1)
        )

    def test_json_deterministic(self, capsys):
        code1, out1 = run(capsys, "search", "--sigma", "2", "--max-len", "6", "--format", "json", "--jobs", "2")
        code2, out2 = run(capsys, "search", "--sigma", "2", "--max-len", "6", "--format", "json", "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["total"] == 126

    def test_check_lemmas_flag(self, capsys):
        code, out = run(capsys, "search", "--sigma", "2", "--max-len", "5", "--check-lemmas", "--jobs", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["lemmas_checked"] is True

    def test_cap_exceeded(self, capsys):
        code, _ = run(capsys, "search", "--sigma", "4", "--max-len", "20", "--limit", "1000")
        assert code == 2

    def test_cap_refuses_huge_max_len(self, capsys):
        # The count of strings up to length 200000 has about 60,000 digits; the
        # cap is checked while summing, before the count gets that large.
        assert main(["search", "--sigma", "2", "--max-len", "200000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: enumerating lengths 1..200000 over 2 letters exceeds the cap of 10000000 strings\n"
        )

    def test_length_bound_refuses_unary_sweep(self, capsys):
        # 10^7 one-letter strings pass the string cap, but not the length bound.
        assert main(["search", "--sigma", "1", "--max-len", "10000000"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: max length must be <= 64\n")

    def test_tsv_rows_same_for_any_job_count_on_split_lengths(self, capsys):
        argv = ("search", "--sigma", "2", "--max-len", "14", "--format", "tsv")
        code1, out1 = run(capsys, *argv, "--jobs", "1")
        code2, out2 = run(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 2**15 - 2

    def test_violation_stops_after_last_whole_task(self, capsys, monkeypatch):
        # Length 13 is split into the tasks 'a…' and 'b…' of 4096 strings each;
        # a violation inside 'b…' prints every row before that task.
        witness = b"b" + b"ab" * 6

        def failing(s, check_lemmas):
            if s == witness:
                raise IntegrityError(f"size bound violated: m=9, z=4, witness {s!r}")
            return _measure(s, check_lemmas)

        monkeypatch.setattr("lynlz.bounds._measure", failing)
        code = main(["search", "--sigma", "2", "--max-len", "13", "--format", "tsv", "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"defect: size bound violated: m=9, z=4, witness {witness!r}\n"
        rows = captured.out.splitlines()
        assert len(rows) == 2**13 - 2 + 4096
        assert rows[-1].split("\t")[2] == "a" + "b" * 12


class TestPartitionCommand:
    def test_figure_json(self, capsys):
        code, out = run(capsys, "partition", "--text", FIG_TEXT, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["t"] == 1
        assert report["partition"] == [{"span": {"start": 1, "end": 25}, "size": 4}]
        assert report["bound_satisfied"] is True


@pytest.mark.parametrize("fmt", ["human", "json", "tsv"])
class TestComputeOnce:
    """Each command parses its input once per factorization and builds at
    most one domain layer, in every output format."""

    def test_verify(self, capsys, call_counts, fmt):
        code, _ = run(capsys, "verify", "--text", generate_family(5).decode(), "--format", fmt)
        assert code == 0
        assert call_counts == {"lyndon_factorize": 1, "lz_factorize": 1, "DomainLayer": 1}

    def test_partition_builds_no_table(self, capsys, call_counts, fmt):
        code, _ = run(capsys, "partition", "--text", FIG_TEXT, "--format", fmt)
        assert code == 0
        assert call_counts == {"lyndon_factorize": 1, "lz_factorize": 1}

    def test_domains(self, capsys, call_counts, fmt):
        code, _ = run(capsys, "domains", "--text", FIG_TEXT, "--format", fmt)
        assert code == 0
        assert call_counts == {"lyndon_factorize": 1, "DomainLayer": 1}

    def test_lyndon_oracle_check(self, capsys, call_counts, fmt):
        code, _ = run(capsys, "lyndon", "--text", FIG_TEXT, "--oracle-check", "--format", fmt)
        assert code == 0
        assert call_counts == {"lyndon_factorize": 1}

    def test_lz_oracle_check(self, capsys, call_counts, fmt):
        code, _ = run(capsys, "lz", "--text", FIG_TEXT, "--oracle-check", "--format", fmt)
        assert code == 0
        assert call_counts == {"lz_factorize": 1}

    def test_canonical(self, capsys, call_counts, fmt):
        code, _ = run(capsys, "canonical", "--text", FIG_TEXT, "--run", "4", "--order", "2", "--format", fmt)
        assert code == 0
        assert call_counts == {"lyndon_factorize": 1}

    def test_family_check(self, capsys, call_counts, fmt):
        code, _ = run(capsys, "family", "--k", "5", "--check", "--format", fmt)
        assert code == 0
        assert call_counts == {"lyndon_factorize": 1, "lz_factorize": 1}


class TestUsage:
    def test_missing_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_conflicting_inputs(self, capsys):
        assert main(["lyndon", "--text", "a", "--file", "b"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "--k", "200"],
            ["search", "--sigma", "2", "--max-len", "16", "--jobs", "2", "--format", "tsv"],
        ],
        ids=["family", "search-tsv"],
    )
    def test_closed_stdout_exits_zero(self, argv):
        # `lynlz ... | head -c 10`: the reader leaves while megabytes are
        # still to be written.  That is no error, and nothing goes to stderr,
        # not even at interpreter shutdown.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "lynlz", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")


# Listed with 3 first, as hypothesis draws early entries more often: run 3 of
# the figure string has non-empty domains, so canonical can succeed.
_NUMBERS = st.sampled_from(["3", "1", "2", "0", "-1", "x"])


@st.composite
def _argv(draw) -> tuple[list[str], bytes]:
    """An argv for ``main`` and the bytes of its input file.

    ``{file}``, ``{missing}`` and ``{dir}`` in the argv stand for a file
    holding those bytes, a missing path and a directory.  A search always
    runs in process and is capped at 10^4 strings, and family k stays at
    most 12, so every example is quick.
    """
    command = draw(st.sampled_from([*COMMANDS, "nosuch"]))
    argv = [command]
    # The figure string, or a short text with bytes the reports escape.
    data = draw(st.one_of(st.just(FIG_TEXT), st.text(alphabet="ab\\\n\x00\xff", max_size=12)))
    if command == "family":
        argv += ["--k", draw(st.sampled_from(["-1", "0", "1", "2", "12", "x"]))]
        argv += draw(st.sampled_from([[], ["--check"]]))
    elif command == "search":
        argv += ["--sigma", draw(_NUMBERS)]
        argv += ["--max-len", draw(st.sampled_from(["-1", "0", "3", "5", "40", "x"]))]
        argv += draw(st.sampled_from([[], ["--dedupe"], ["--check-lemmas"], ["--dedupe", "--check-lemmas"]]))
    elif command != "nosuch":
        sources = [["--text", data], ["--file", "{file}"], ["--file", "{missing}"], ["--file", "{dir}"], []]
        argv += draw(st.sampled_from(sources))
        argv += draw(st.sampled_from([[], ["--strip-newline"], ["--no-strip-newline"]]))
        if command in ("lyndon", "lz"):
            argv += draw(st.sampled_from([[], ["--oracle-check"]]))
        if command == "canonical":
            argv += ["--run", draw(_NUMBERS), "--order", draw(_NUMBERS)]
    if command != "nosuch":
        argv += draw(st.sampled_from([[], *(["--format", fmt] for fmt in ("human", "json", "tsv", "xml"))]))
    if command == "search":
        argv += ["--jobs", "1", "--limit", "10000"]
    return argv, data.encode("latin-1")


class TestExitCodes:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory) -> dict[str, str]:
        root = tmp_path_factory.mktemp("exit-codes")
        return {"file": str(root / "input"), "missing": str(root / "missing"), "dir": str(root)}

    @settings(max_examples=1000, deadline=None)
    @given(example=_argv())
    def test_exit_code_contract(self, paths, example):
        # Exit 0 on success and 2 on a usage or input error, with stderr
        # written exactly on the error; no check fails on a correct library.
        argv, data = example
        Path(paths["file"]).write_bytes(data)
        argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        stdin = io.TextIOWrapper(io.BytesIO(b"ab\n"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stdin", stdin)
            mp.setattr(sys, "stdout", out)
            mp.setattr(sys, "stderr", err)
            code = main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        assert (code == 2) == bool(err.getvalue()), (argv, code, err.getvalue())


@pytest.fixture
def fresh_parser():
    """Start and end the test with no parser built in this process."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


class TestParserBuild:
    """The first ``main`` call in a process builds the whole parser, and later calls build none."""

    @pytest.fixture
    def parsers_built(self, monkeypatch, fresh_parser) -> list:
        built: list = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    @pytest.mark.parametrize(
        "argv", [["lz", "--text", "ab"], ["bogus"], ["-h"]], ids=["command", "unknown", "help"]
    )
    def test_parsers_built(self, capsys, parsers_built, argv):
        main(argv)
        assert len(parsers_built) == 9  # the top level and eight subparsers
        for later in (argv, ["verify", "--text", "ab"], ["bogus"], ["-h"]):
            main(later)
        assert len(parsers_built) == 9

    def test_commands_match_usage(self):
        # The tests' command list is the one the usage line prints, in order.
        usage = build_parser().format_usage()
        assert tuple(usage[usage.index("{") + 1 : usage.index("}")].split(",")) == COMMANDS


class TestParserReuse:
    """Reusing the parser carries nothing from one ``main`` call to the next.

    Each case makes its ``first`` call and then its ``then`` call on the
    same parser, and compares the second with the same call on a parser
    built afresh.  ``None`` calls ``main()``, which reads ``sys.argv[1:]``.
    Standard input holds ``ba`` and a newline for every call.
    """

    @pytest.fixture
    def call(self, capsys, monkeypatch):
        def call(argv: list[str] | None) -> tuple[int, str, str]:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"ba\n")))
            code = main(argv)
            return code, *capsys.readouterr()

        return call

    @pytest.mark.parametrize(
        "first, then, expected",
        [
            (["verify", "--text", FIG_TEXT, "--format", "json"], ["verify", "--text", FIG_TEXT], "all checks passed"),
            (["lz", "--file", "{file}"], ["lz", "--text", "ab"], "z = 2"),
            (["lyndon", "--no-strip-newline", "--format", "json"], ["lyndon", "--format", "json"], '"input_len": 2'),
            (["verify", "--text", "ab", "--bogus"], ["verify", "--text", "ab"], "all checks passed"),
            (["verify", "--text", "ab"], None, "1\t1\t1\ta\n2\t2\t2\tb\n"),
        ],
        ids=["format", "exclusive-group", "strip-newline", "after-usage-error", "sys-argv"],
    )
    def test_second_call_matches_fresh_parser(self, monkeypatch, tmp_path, fresh_parser, call, first, then, expected):
        monkeypatch.setattr(sys, "argv", ["lynlz", "lz", "--text", "ab", "--format", "tsv"])
        path = tmp_path / "input.bin"
        path.write_bytes(b"ab")
        call([arg.format(file=path) for arg in first])
        reused = call(then)
        build_parser.cache_clear()
        assert reused == call(then)
        code, out, err = reused
        assert (code, err) == (0, "")
        assert expected in out


def test_render_bytes():
    assert render_bytes(b"abc") == "abc"
    assert render_bytes(b"\x00\x09\\") == "\\x00\\x09\\x5c"
    assert render_bytes(b"\xff") == "\\xff"


def test_render_bytes_matches_per_byte_definition():
    def per_byte(data: bytes) -> str:
        return "".join(
            chr(b) if 0x20 <= b < 0x7F and b != 0x5C else f"\\x{b:02x}" for b in data
        )

    rng = random.Random(8)
    inputs = [bytes([b]) for b in range(256)] + [bytes(range(256)), bytes(range(255, -1, -1))]
    inputs += [rng.randbytes(rng.randrange(64)) for _ in range(2000)]
    for data in inputs:
        assert render_bytes(data) == per_byte(data), data
