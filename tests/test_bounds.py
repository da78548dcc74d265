from __future__ import annotations

import ast
import copy
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lynlz
from conftest import FIGURE_STRING, strings
from lynlz import (
    Domain,
    IntegrityError,
    LemmaCheck,
    LemmaReport,
    SearchRecord,
    Span,
    all_domains,
    check_theorem,
    exhaustive_search,
    expected_counts,
    expected_lz_phrases,
    extdom_partition,
    extended_domain,
    generate_family,
    iter_search,
    lyndon_factorize,
    lz_factorize,
    verify_lemmas,
)
from lynlz.bounds import (
    FAMILY_LIMIT,
    SEARCH_LIMIT,
    LengthSummary,
    _alphabet,
    _is_canonical,
    _measure,
    _plan,
    _strings,
    family_length,
)
from lynlz.cli import build_parser, main


class TestGenerateFamily:
    def test_smallest_members(self):
        assert generate_family(0) == b"ba"
        assert generate_family(1) == b"baba"

    def test_k3_rendering(self):
        # (b)(ab)(a^2 b a b a^2 b)(a^3 b a b a^3 b a^2 b a^3 b)(a)
        assert generate_family(3) == b"b" + b"ab" + b"aababaab" + b"aaababaaabaabaaab" + b"a"
        assert len(generate_family(3)) == 29

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            generate_family(-1)
        with pytest.raises(ValueError):
            family_length(-1)

    def test_length_closed_form(self):
        assert [family_length(k) for k in range(61)] == [len(generate_family(k)) for k in range(61)]
        # The 10^7-byte bound falls between k = 270 and k = 271.
        assert (family_length(270), family_length(271)) == (9_950_852, 10_061_419)

    def test_byte_limit_edge(self):
        assert FAMILY_LIMIT == 10_000_000
        assert len(generate_family(270)) == 9_950_852
        message = "^family k=271 has 10061419 bytes, above the limit of 10000000$"
        with pytest.raises(ValueError, match=message):
            generate_family(271)


class TestRecords:
    """The immutable records are named tuples that keep the former dataclass observables."""

    @pytest.mark.parametrize(
        "record, text",
        [
            (Span(1, 2), "Span(start=1, end=2)"),
            (
                Domain(i=2, d=1, j=1, span=Span(1, 1), associated=Span(1, 1)),
                "Domain(i=2, d=1, j=1, span=Span(start=1, end=1), associated=Span(start=1, end=1))",
            ),
            (
                SearchRecord(string=b"ab", m=1, z=2),
                "SearchRecord(string=b'ab', m=1, z=2)",
            ),
            (check_theorem(FIGURE_STRING), "TheoremReport(m=5, z=8, t=1, passes=True)"),
            (
                exhaustive_search(2, 2, jobs=1)[1],
                "LengthSummary(n=2, count=4, max_diff=0, max_diff_string=b'ba',"
                " max_ratio=1.0, max_ratio_string=b'ba')",
            ),
        ],
    )
    def test_value_semantics(self, record, text):
        assert repr(record) == text
        fields = tuple(getattr(record, name) for name in record._fields)
        assert record == type(record)(*fields) == fields
        assert hash(record) == hash(fields)
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is type(record) and clone == record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], fields[0])

    def test_merge_returns_merged_summary(self):
        empty = LengthSummary(n=3)
        early = LengthSummary(3, 2, 0, b"aab", 1.0, b"aab")
        tie = LengthSummary(3, 5, 0, b"abb", 1.0, b"abb")
        better = LengthSummary(3, 1, 1, b"bba", 1.5, b"bba")
        mixed = LengthSummary(3, 4, 1, b"bab", 0.5, b"baa")
        operands = [tuple(ls) for ls in (empty, early, tie, better, mixed)]
        assert early.merge(tie) == (3, 7, 0, b"aab", 1.0, b"aab")  # a tie keeps the earlier string
        assert empty.merge(early) == early.merge(empty) == early  # a None side yields the other
        assert empty.merge(empty) == empty
        assert early.merge(better) == (3, 3, 1, b"bba", 1.5, b"bba")
        assert early.merge(mixed) == (3, 6, 1, b"bab", 1.0, b"aab")
        assert type(early.merge(tie)) is LengthSummary
        assert [tuple(ls) for ls in (empty, early, tie, better, mixed)] == operands

    @pytest.mark.parametrize("s", [b"", b"ab", FIGURE_STRING], ids=["empty", "ab", "figure"])
    def test_factorizations_equal_only_their_own_kind(self, s):
        # Every cross-check compares whole factorizations with ==, so a
        # factorization must never equal a plain tuple of its fields or the
        # other kind of factorization, as a named tuple would.
        lf, lz = lyndon_factorize(s), lz_factorize(s)
        assert lf == lyndon_factorize(s) and lz == lz_factorize(s)
        assert lf != (lf.text, lf.factors, lf.runs) and (lf.text, lf.factors, lf.runs) != lf
        assert lz != (lz.text, lz.phrases) and (lz.text, lz.phrases) != lz
        assert lf != lz and lz != lf

    @pytest.mark.parametrize("module", ["bounds", "cli"])
    def test_search_modules_import_no_dataclasses(self, module):
        # The search records are named tuples; the dataclasses left are the
        # verifier's LemmaCheck and the two factorizations.
        tree = ast.parse((Path(lynlz.__file__).parent / f"{module}.py").read_text())
        nodes = list(ast.walk(tree))
        imported = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported


# Runs `code` in a fresh interpreter, with the command line's output
# discarded, and prints the modules it loaded that start with a prefix.
_PROBE = """
import io, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
sys.stdout = io.StringIO()
{code}
loaded = set(sys.modules) - before
print(sorted(m for m in loaded if m.startswith(tuple(sys.argv[2:]))), file=sys.__stdout__)
"""


def loaded_modules(code: str, *prefixes: str) -> list[str]:
    """The modules starting with one of ``prefixes`` that ``code`` loads in a fresh interpreter."""
    src = str(Path(lynlz.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(code=code), src, *prefixes],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return ast.literal_eval(proc.stdout)


class TestImportCost:
    def test_import_loads_no_multiprocessing(self):
        # Only `search --jobs N` with N > 1 opens a pool, only the CLI parses
        # arguments and writes JSON, and `domains` and `bounds` load on the
        # first access to one of their names: the import loads the parses alone.
        loaded = loaded_modules("import lynlz", "lynlz", "multiprocessing", "argparse", "json")
        assert loaded == ["lynlz", "lynlz.errors", "lynlz.lyndon", "lynlz.lz", "lynlz.text"]

    @pytest.mark.parametrize(
        "name, modules",
        [
            ("verify_lemmas", ["lynlz.domains"]),
            ("check_theorem", ["lynlz.domains"]),
            ("domains.CHECK_NAMES", ["lynlz.domains"]),
            ("bounds.SEARCH_LIMIT", ["lynlz.bounds"]),
        ],
    )
    def test_first_access_loads_its_module(self, name, modules):
        code = f"import lynlz; lynlz.{name}"
        assert loaded_modules(code, "lynlz.domains", "lynlz.bounds") == modules

    @pytest.mark.parametrize("command", ["lyndon", "lz"])
    def test_parse_commands_load_neither_domains_nor_bounds(self, command):
        code = f"from lynlz.cli import main; main([{command!r}, '--text', 'abaab'])"
        assert loaded_modules(code, "lynlz.domains", "lynlz.bounds") == []

    def test_verify_loads_domains_only(self):
        code = "from lynlz.cli import main; main(['verify', '--text', 'abaab'])"
        assert loaded_modules(code, "lynlz.domains", "lynlz.bounds", "multiprocessing") == ["lynlz.domains"]

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (["family", "--k", "3", "--check"], ["lynlz.bounds"]),
            (["search", "--sigma", "2", "--max-len", "4", "--jobs", "1"], ["lynlz.bounds"]),
            (
                ["search", "--sigma", "2", "--max-len", "4", "--jobs", "1", "--check-lemmas"],
                ["lynlz.bounds", "lynlz.domains"],
            ),
            (["partition", "--text", "abaab"], ["lynlz.domains"]),
            (["domains", "--text", "abaab"], ["lynlz.domains"]),
            (["canonical", "--text", FIGURE_STRING.decode(), "--run", "4", "--order", "2"], ["lynlz.domains"]),
        ],
        ids=["family", "search", "search-check-lemmas", "partition", "domains", "canonical"],
    )
    def test_command_loads_what_it_uses(self, argv, modules):
        # A plain sweep and the family read no domain; the partition reads no sweep.
        code = f"from lynlz.cli import main; main({argv!r})"
        assert loaded_modules(code, "lynlz.domains", "lynlz.bounds") == modules

    def test_dir_lists_every_public_name(self):
        # dir() lists the names not loaded yet, and loads nothing.
        code = "import lynlz; assert set(lynlz.__all__) <= set(dir(lynlz))"
        assert loaded_modules(code, "lynlz.domains", "lynlz.bounds") == []

    def test_names_are_the_modules_own(self):
        from lynlz import domains

        assert lynlz.verify_lemmas is domains.verify_lemmas
        assert lynlz.check_theorem is domains.check_theorem
        assert {"verify_lemmas", "check_theorem"} <= vars(lynlz).keys()  # bound on first access


class TestExports:
    def test_all_names_resolve(self):
        assert len(set(lynlz.__all__)) == len(lynlz.__all__)
        missing = [name for name in lynlz.__all__ if not hasattr(lynlz, name)]
        assert not missing

    def test_star_import(self):
        namespace: dict = {}
        exec("from lynlz import *", namespace)
        assert set(lynlz.__all__) <= namespace.keys()


class TestExpectedCounts:
    @pytest.mark.parametrize("k, m_k, z_k", [(2, 5, 5), (3, 8, 7), (10, 57, 49)])
    def test_closed_forms(self, k, m_k, z_k):
        counts = expected_counts(k)
        assert (counts.m_k, counts.z_k) == (m_k, z_k)

    @pytest.mark.parametrize("k", [0, 1])
    def test_formula_domain(self, k):
        with pytest.raises(ValueError, match="formula domain"):
            expected_counts(k)


class TestExpectedLzPhrases:
    def test_base_case(self):
        assert expected_lz_phrases(2) == [b"b", b"a", b"ba", b"aba", b"baaba"]

    def test_k3(self):
        assert expected_lz_phrases(3) == [
            b"b", b"a", b"ba", b"aba", b"baaba", b"aababaa", b"abaabaaaba",
        ]

    def test_k4_appends_three(self):
        phrases = expected_lz_phrases(4)
        assert len(phrases) == len(expected_lz_phrases(3)) + 3
        assert phrases[-1] == b"abaaabaaaaba"  # ab a^3 b a^4 ba

    def test_formula_domain(self):
        with pytest.raises(ValueError):
            expected_lz_phrases(1)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_actual_parse(self, k):
        s = generate_family(k)
        assert [p.slice(s) for p in lz_factorize(s).phrases] == expected_lz_phrases(k)
        counts = expected_counts(k)
        assert lyndon_factorize(s).m == counts.m_k
        assert lz_factorize(s).z == counts.z_k


class TestCheckTheorem:
    def test_family_k2(self):
        report = check_theorem(generate_family(2))
        assert (report.m, report.z) == (5, 5)
        assert report.passes and 2 * report.z - report.m == 5

    def test_family_k3(self):
        report = check_theorem(generate_family(3))
        assert (report.m, report.z) == (8, 7)
        assert report.passes

    def test_figure_string(self):
        report = check_theorem(FIGURE_STRING)
        assert (report.m, report.z) == (5, 8)
        assert report.passes and 2 * report.z - report.m == 11

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_theorem(b"")

    def test_partition_bound(self):
        for s in (FIGURE_STRING, generate_family(4), b"mississippi"):
            report = check_theorem(s)
            assert report.z >= (report.m + report.t + 1) // 2


class TestExtdomPartition:
    def test_two_fresh_letters(self):
        part = extdom_partition(b"ba")
        assert tuple(map(extended_domain, part.domains)) == (Span(1, 1), Span(2, 2))
        assert tuple(dom.size for dom in part.domains) == (0, 0)
        assert part.t == 2

    def test_figure_string_single_part(self):
        part = extdom_partition(FIGURE_STRING)
        assert tuple(map(extended_domain, part.domains)) == (Span(1, 25),)
        assert tuple(dom.size for dom in part.domains) == (4,)
        assert part.t == 1

    def test_family_k2(self):
        part = extdom_partition(generate_family(2))
        assert tuple(map(extended_domain, part.domains)) == (Span(1, 1), Span(2, 12))
        assert tuple(dom.size for dom in part.domains) == (0, 3)
        assert lz_factorize(generate_family(2)).z >= (5 + part.t + 1) // 2

    def test_parts_tile_input(self):
        for s in (FIGURE_STRING, generate_family(5), b"banana"):
            part = extdom_partition(s)
            cursor = 1
            for span in map(extended_domain, part.domains):
                assert span.start == cursor
                cursor = span.end + 1
            assert cursor == len(s) + 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extdom_partition(b"")


class TestComputeOnce:
    def test_partition_matches_full_table(self):
        # Reference: walk the order-1 column of the full domain table.
        for s in strings(b"ab", 12, min_len=1):
            lf = lyndon_factorize(s)
            table = {(dom.i, dom.d): dom for dom in all_domains(lf)}
            expected = []
            i = lf.m
            while i >= 1:
                expected.append(table[(i, 1)])
                i = table[(i, 1)].j - 1
            assert extdom_partition(s).domains == tuple(reversed(expected)), s

    def test_verifier_partition_size_matches_theorem(self):
        for s in strings(b"ab", 12, min_len=1):
            assert verify_lemmas(s).t == check_theorem(s).t, s

    def test_empty_report_has_no_partition(self):
        assert verify_lemmas(b"").t is None

    def test_theorem_and_partition_build_no_table(self, call_counts):
        check_theorem(generate_family(6))
        assert call_counts == {"lyndon_factorize": 1, "lz_factorize": 1}
        call_counts.clear()
        extdom_partition(generate_family(6))
        assert call_counts == {"lyndon_factorize": 1}

    @pytest.mark.parametrize("check_lemmas, tables", [(False, 0), (True, 1)])
    def test_measure_factorizes_once(self, call_counts, check_lemmas, tables):
        record = _measure(FIGURE_STRING, check_lemmas)
        assert (record.m, record.z) == (5, 8)
        assert call_counts["lyndon_factorize"] == 1
        assert call_counts["lz_factorize"] == 1
        assert call_counts["DomainLayer"] == tables

    def test_measure_reports_size_bound_before_lemmas(self, monkeypatch):
        failed = LemmaCheck(name="size-bound", instances=1, failures=1, counterexample="m=4 z=2")
        bad = LemmaReport(m=4, z=2, checks=(failed,))
        monkeypatch.setattr("lynlz.domains.verify_lemmas", lambda s: bad)
        with pytest.raises(IntegrityError, match=r"^size bound violated: m=4, z=2, witness b'ab'$"):
            _measure(b"ab", True)

    def test_measure_reports_failed_lemmas(self, monkeypatch):
        failed = LemmaCheck(name="tandem-window-boundary", instances=1, failures=1, counterexample="i=1 d=1")
        bad = LemmaReport(m=1, z=1, checks=(LemmaCheck(name="size-bound", instances=1), failed))
        monkeypatch.setattr("lynlz.domains.verify_lemmas", lambda s: bad)
        with pytest.raises(
            IntegrityError, match=r"^lemma checks failed \(\['tandem-window-boundary'\]\) on witness b'ab'$"
        ):
            _measure(b"ab", True)


class RecordingPool:
    """Stands in for ``multiprocessing.Pool``: records the requested size, runs in-process."""

    def __init__(self, sizes: list[int], processes: int) -> None:
        sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None

    def imap(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


class TestSearch:
    def test_unary_alphabet(self):
        records = list(iter_search(1, 5, jobs=1))
        assert [r.string for r in records] == [b"a" * n for n in range(1, 6)]
        assert all(r.m == 1 for r in records)
        assert [r.z for r in records] == [1, 2, 3, 3, 4]
        assert all(2 * r.z - r.m > 0 for r in records)

    def test_enumeration_order(self):
        strings = [r.string for r in iter_search(2, 2, jobs=1)]
        assert strings == [b"a", b"b", b"aa", b"ab", b"ba", b"bb"]

    def test_summary_counts_and_ratio(self):
        per_length = exhaustive_search(2, 8, jobs=1)
        assert sum(ls.count for ls in per_length) == 2**9 - 2
        assert max(ls.max_ratio for ls in per_length) < 2.0
        assert per_length[0].count == 2

    def test_parallel_matches_serial(self):
        serial = exhaustive_search(2, 9, jobs=1)
        parallel = exhaustive_search(2, 9, jobs=2)
        assert serial == parallel
        # The pool receives each task with the sweep's settings bound once.
        settings = {"dedupe": True, "check_lemmas": True}
        records = list(iter_search(3, 5, jobs=1, **settings))
        assert list(iter_search(3, 5, jobs=2, **settings)) == records
        # Canonical strings use {a}, {a, b} or {a, b, c}: 1 + (2^n - 2) + (3^n - 3 * 2^n + 3).
        assert len(records) == sum(3**n - 2 ** (n + 1) + 2 for n in range(1, 6))

    def test_deterministic(self):
        a = exhaustive_search(3, 5, jobs=2, check_lemmas=True)
        b = exhaustive_search(3, 5, jobs=2, check_lemmas=True)
        assert a == b

    def test_dedupe_counts(self):
        # Binary: only the all-'b' string per length is non-canonical.
        per_length = exhaustive_search(2, 6, dedupe=True, jobs=1)
        assert sum(ls.count for ls in per_length) == sum(2**n - 1 for n in range(1, 7))
        records = list(iter_search(2, 3, dedupe=True, jobs=1))
        assert b"b" not in [r.string for r in records]
        assert b"bb" not in [r.string for r in records]

    def test_sweep_defaults_stated_once(self, capsys):
        # Both sweeps default to the CPU count and to SEARCH_LIMIT.  `search`
        # leaves --jobs and --limit unset unless given, so the sweep's own
        # defaults apply: binary lengths 1..23 hold 2^24 - 2 strings, past
        # the cap, and the refusal names SEARCH_LIMIT.
        def defaults(fn):
            params = inspect.signature(fn).parameters.values()
            return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}

        assert defaults(iter_search) == defaults(exhaustive_search)
        assert defaults(iter_search)["jobs"] is None
        assert defaults(iter_search)["limit"] == SEARCH_LIMIT
        args = build_parser().parse_args(["search", "--sigma", "2", "--max-len", "1"])
        assert (args.jobs, args.limit) == (None, None)
        assert 2**23 - 2 <= SEARCH_LIMIT < 2**24 - 2
        for fmt in ("human", "json", "tsv"):
            assert main(["search", "--sigma", "2", "--max-len", "23", "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: enumerating lengths 1..23 over 2 letters exceeds the cap of {SEARCH_LIMIT} strings\n"
            )

    def test_budget_cap(self):
        with pytest.raises(ValueError, match="cap"):
            exhaustive_search(4, 20, limit=1_000_000)
        with pytest.raises(ValueError):
            list(iter_search(2, 30, limit=100))

    def test_max_diff_zero_attained_by_family(self):
        # At length 12 the best m - z over the binary alphabet is 0 and the
        # family string attains it.
        by_n = {ls.n: ls for ls in exhaustive_search(2, 12, jobs=2)}
        assert by_n[12].max_diff == 0
        assert by_n[12].max_diff_string == generate_family(2)

    def test_worker_count_clamped(self, monkeypatch, capsys):
        sizes: list[int] = []
        monkeypatch.setattr("multiprocessing.Pool", lambda processes: RecordingPool(sizes, processes))
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        serial = exhaustive_search(2, 6, jobs=1)
        assert exhaustive_search(2, 6, jobs=100_000) == serial  # clamped to the CPU count
        assert exhaustive_search(2, 6) == serial
        # sigma 1, lengths 1..2 gives two tasks, one per length.
        exhaustive_search(1, 2, jobs=64)
        assert sizes == [3, 3, 2]
        # `search --format tsv` goes through the same split and pool.
        tsv = ("search", "--sigma", "2", "--max-len", "6", "--format", "tsv")
        assert main([*tsv, "--jobs", "1"]) == 0
        rows = capsys.readouterr().out
        assert sizes == [3, 3, 2]
        assert main([*tsv, "--jobs", "100000"]) == 0
        assert capsys.readouterr().out == rows
        assert main(list(tsv)) == 0  # default: the CPU count
        assert capsys.readouterr().out == rows
        assert sizes == [3, 3, 2, 3, 3]
        assert rows.splitlines() == [
            f"2\t{len(r.string)}\t{r.string.decode()}\t{r.m}\t{r.z}\t{2 * r.z - r.m}"
            for r in iter_search(2, 6, jobs=1)
        ]

    def test_non_positive_jobs_run_in_process(self, monkeypatch, capsys):
        # A job count of 0 or less means one job, in process; None means the
        # CPU count.
        sizes: list[int] = []
        monkeypatch.setattr("multiprocessing.Pool", lambda processes: RecordingPool(sizes, processes))
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        serial = exhaustive_search(2, 6, jobs=1)
        records = list(iter_search(2, 6, jobs=1))
        tsv = ("search", "--sigma", "2", "--max-len", "6", "--format", "tsv")
        assert main([*tsv, "--jobs", "1"]) == 0
        rows = capsys.readouterr().out
        for jobs in (0, -4):
            assert exhaustive_search(2, 6, jobs=jobs) == serial
            assert list(iter_search(2, 6, jobs=jobs)) == records
        assert main([*tsv, "--jobs", "0"]) == 0
        assert capsys.readouterr().out == rows
        assert sizes == []
        # Lengths 1..6 give six tasks, so a pool of 5 is the CPU count.
        assert exhaustive_search(2, 6, jobs=None) == serial
        assert list(iter_search(2, 6, jobs=None)) == records
        assert sizes == [5, 5]

    @pytest.mark.parametrize("sigma, max_len", [(1, 20), (2, 14), (3, 9), (26, 3)])
    def test_plan_tasks_hold_at_most_4096_strings(self, sigma, max_len):
        # Each length is split by the shortest prefix that leaves at most 4096
        # strings per task, whatever the job count.
        tasks, _ = _plan(sigma, max_len, 1, 10**7)
        assert tasks == _plan(sigma, max_len, 2, 10**7)[0]
        for n, prefix in tasks:
            size = sum(1 for _ in _strings(_alphabet(sigma), n, prefix, False))
            assert size == sigma ** (n - len(prefix)) <= 4096
            assert not prefix or sigma * size > 4096  # no shorter prefix would do

    @pytest.mark.parametrize("dedupe", [False, True])
    def test_plan_concatenates_to_full_enumeration(self, dedupe):
        tasks, _ = _plan(3, 9, 1, 10**7)
        assert len(tasks) > 9  # lengths 8 and 9 are split
        planned = [s for n, prefix in tasks for s in _strings(b"abc", n, prefix, dedupe)]
        full = list(strings(b"abc", 9, min_len=1))
        assert planned == [s for s in full if not dedupe or _is_canonical(s)]

    def test_split_lengths_same_for_any_job_count(self):
        # Lengths 13 and 14 are split into several tasks, whose summaries merge.
        assert len(_plan(2, 14, 1, 10**7)[0]) > 14
        assert exhaustive_search(2, 14, jobs=1) == exhaustive_search(2, 14, jobs=2)

    def test_dedupe_keeps_every_extreme(self):
        # A string and its relabeling onto the smallest letters, in the same
        # order, have the same m and z, and the relabeled one sorts first.
        def extremes(per_length):
            return [
                (ls.n, ls.max_diff, ls.max_diff_string, ls.max_ratio, ls.max_ratio_string)
                for ls in per_length
            ]

        full = exhaustive_search(3, 7, jobs=1)
        deduped = exhaustive_search(3, 7, dedupe=True, jobs=1)
        assert sum(ls.count for ls in deduped) < sum(ls.count for ls in full)
        assert extremes(deduped) == extremes(full)

    def test_dedupe_tasks_without_canonical_strings(self):
        # With 26 letters, length 3 is split by its first letter, and no string
        # starting past 'c' uses only the smallest letters.
        wide = exhaustive_search(26, 3, dedupe=True, jobs=1)
        assert wide == exhaustive_search(3, 3, dedupe=True, jobs=1)

    def test_empty_sweep_opens_no_pool(self, monkeypatch, capsys):
        # No lengths means no tasks: the sweep runs in process, whatever the
        # job count, and reports nothing.
        sizes: list[int] = []
        monkeypatch.setattr("multiprocessing.Pool", lambda processes: RecordingPool(sizes, processes))
        assert exhaustive_search(2, 0, jobs=4) == []
        assert list(iter_search(2, 0)) == []
        empty = ("search", "--sigma", "2", "--max-len", "0", "--jobs", "2")
        for fmt in ("human", "json", "tsv"):
            assert main([*empty, "--format", fmt]) == 0
        assert sizes == []
        captured = capsys.readouterr()
        assert captured.out.startswith("searched 0 strings over 2 letters")
        assert captured.err == ""
        with pytest.raises(ValueError, match="max length must be >= 0"):
            exhaustive_search(2, -1, jobs=1)
        for fmt in ("human", "tsv"):
            assert main(["search", "--sigma", "2", "--max-len", "-3", "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: max length must be >= 0\n")
        assert sizes == []

    def test_alphabet_bounds(self):
        with pytest.raises(ValueError):
            exhaustive_search(0, 3)

    def test_length_bound(self):
        # With one letter the string cap lets any length through; the length
        # bound refuses the sweep before its tasks are listed.
        with pytest.raises(ValueError, match="max length must be <= 64"):
            list(iter_search(1, 65))
        per_length = exhaustive_search(1, 64, jobs=1)
        assert [ls.n for ls in per_length] == list(range(1, 65))
        assert sum(ls.count for ls in per_length) == 64

    @pytest.mark.parametrize(
        "sweep, match",
        [
            (lambda: exhaustive_search(2, 65, limit=2**70), "max length must be <= 64"),
            (lambda: list(iter_search(2, 50, limit=10**15)), "exceeds the cap of"),
        ],
        ids=["length", "cap"],
    )
    def test_refused_before_tasks_are_listed(self, monkeypatch, sweep, match):
        # Listing the tasks up to the refused length would build 2^37 (cap) to
        # 2^52 (length) prefixes, so no prefix may be built before the refusal.
        def no_prefixes(*args, **kwargs):
            raise AssertionError("tasks listed before the sweep was refused")

        monkeypatch.setattr("lynlz.bounds.product", no_prefixes)
        with pytest.raises(ValueError, match=match):
            sweep()


class TestAsymptotics:
    def test_difference_grows_linearly(self):
        for k in range(2, 41):
            counts = expected_counts(k)
            assert counts.m_k - counts.z_k == k - 2

    def test_squared_difference_over_z_approaches_two(self):
        ratios = [
            (expected_counts(k).m_k - expected_counts(k).z_k) ** 2 / expected_counts(k).z_k
            for k in range(10, 41)
        ]
        assert all(earlier < later for earlier, later in zip(ratios, ratios[1:]))
        assert 1.6 < ratios[-1] < 2.0
