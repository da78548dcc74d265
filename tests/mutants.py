"""Source mutants that the test suite must kill.

Each mutant replaces one exact text, which occurs once in its file, and
names the tests that must fail on it.  ``tests/run_mutants.py`` applies
each one to a copy of the repository and runs its tests there;
``tests/test_mutants.py`` checks that every text still occurs exactly once,
so the catalogue cannot go stale unnoticed.

Mutants of the speed rules keep every output, so only operation counts
kill them: the bounds of ``TestGallopCalls`` and ``TestReads``, and the
exact counts of ``TestPinnedWork`` and ``test_whole_cap_takes_no_slice``.
Mutants of the canonical scan, the budget rule and the domain constructor
die in the verifier's own reports and in the comparison with
``tests/dense_reference.py``, which builds its own decompositions and
budgets.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    text: str  # occurs exactly once in ``file``
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    timeout: float = 120.0  # seconds; a mutant whose tests run past it is killed (it hangs)


LZ = "src/lynlz/lz.py"
LYNDON = "src/lynlz/lyndon.py"
TEXT = "src/lynlz/text.py"
DOMAINS = "src/lynlz/domains.py"

MUTANTS = (
    # LZ parse.
    Mutant(
        "lz-probe-from-text-start",  # drops Resume: outputs unchanged
        LZ,
        "r = find(s[b : b + mid], q, b)",
        "r = find(s[b : b + mid], 0, b)",
        ("tests/test_lz.py::TestPinnedWork",),
    ),
    Mutant(
        "lz-stop-update-dropped",
        LZ,
        "hi = min(hi, b - q)",
        "hi = hi",
        ("tests/test_lz.py::TestOracle", "tests/test_lz.py::TestPinnedWork"),
    ),
    Mutant(
        "lz-stop-one-short",
        LZ,
        "hi = min(hi, b - q)",
        "hi = min(hi, b - q - 1)",
        ("tests/test_lz.py::TestLzFactorize", "tests/test_lz.py::TestOracle"),
    ),
    Mutant(
        "lz-first-byte-table-unfilled",
        LZ,
        "q = first.setdefault(s[b], b)",
        "q = first.get(s[b], b)",
        ("tests/test_lz.py::TestLzFactorize",),
    ),
    Mutant(
        "lz-extension-unguarded",  # outputs unchanged
        LZ,
        "if s[q + lo] == s[b + lo]:",
        "if True:",
        ("tests/test_lz.py::TestGallopCalls", "tests/test_lz.py::TestPinnedWork"),
    ),
    Mutant(
        "lz-extension-cap-one-long",
        LZ,
        "lo += gallop(s, q + lo, b + lo, hi - lo)",
        "lo += gallop(s, q + lo, b + lo, hi - lo + 1)",
        ("tests/test_lz.py::TestLzFactorize", "tests/test_lz.py::TestOracle"),
    ),
    Mutant(
        "lz-midpoint-rounds-down",  # a successful probe at mid == lo loops forever
        LZ,
        "mid = (lo + hi + 1) // 2",
        "mid = (lo + hi) // 2",
        ("tests/test_lz.py::TestLzFactorize",),
        timeout=15.0,
    ),
    Mutant(
        "lz-rare-end-off",  # probes at the midpoint: outputs unchanged
        LZ,
        "if e >= 0:",
        "if False:",
        ("tests/test_lz.py::TestPinnedWork",),
    ),
    Mutant(
        "lz-rare-end-past-mid",  # a probe at hi + 1 fails and leaves hi: loops forever
        LZ,
        "e = rfind(rare, b + (lo + mid) // 2, b + mid)",
        "e = rfind(rare, b + (lo + mid) // 2, b + mid + 1)",
        ("tests/test_lz.py::TestOracle",),
        timeout=15.0,
    ),
    # Duval's scan.
    Mutant(
        "lyndon-gallop-off",  # outputs unchanged
        LYNDON,
        "if i - k >= _GALLOP:",
        "if False:",
        ("tests/test_lyndon.py::TestPinnedWork",),
    ),
    Mutant(
        "lyndon-gallop-from-j",
        LYNDON,
        "matched = gallop(s, i, j + 1, n - j - 1, _GALLOP)",
        "matched = gallop(s, i, j, n - j, _GALLOP)",
        ("tests/test_lyndon.py::TestGallopAgainstPerByteScan",),
    ),
    Mutant(
        "lyndon-resume-restarts-round",  # outputs unchanged
        LYNDON,
        "i = j - periods[-1]",
        "i, j = k, k + 1",
        ("tests/test_lyndon.py::TestReads", "tests/test_lyndon.py::TestPinnedWork"),
    ),
    Mutant(
        "lyndon-resume-period-one",
        LYNDON,
        "i = j - periods[-1]",
        "i = j - periods[0]",
        ("tests/test_lyndon.py::TestGallopAgainstPerByteScan",),
    ),
    # The shared gallop.
    Mutant(
        "gallop-whole-cap-off",  # outputs unchanged
        TEXT,
        "if limit >= _WHOLE_CAP and s.startswith(",
        "if False and s.startswith(",
        ("tests/test_text.py::TestGallop::test_whole_cap_takes_no_slice",),
    ),
    # The canonical scan and the budget rule.
    Mutant(
        "scan-joins-escaped-anchor",
        DOMAINS,
        "if a == j:",
        "if a <= j:",
        (
            "tests/test_domains.py::TestCanonicalDecomposition",
            "tests/test_domains.py::TestDenseReference::test_bulk_counts_under_injected_faults",
        ),
    ),
    Mutant(
        "scan-escape-unchecked",
        DOMAINS,
        "if a < j:",
        "if False:",
        (
            "tests/test_domains.py::TestCanonicalDecomposition",
            "tests/test_domains.py::TestDenseReference::test_bulk_counts_under_injected_faults",
        ),
    ),
    Mutant(
        "loose-extent-one-run-short",
        DOMAINS,
        "return Span(runs[j - 1].start, runs[i + d - 2].end)",
        "return Span(runs[j - 1].start, runs[i + d - 3].end)",
        ("tests/test_domains.py::TestDenseReference::test_reports_match_dense_reference",),
    ),
    Mutant(
        "cluster-identity-without-d",
        DOMAINS,
        "- t - d - sum(",
        "- t - sum(",
        (
            "tests/test_domains.py::TestBoundaryBudget",
            "tests/test_domains.py::TestDenseReference::test_reports_match_dense_reference",
        ),
    ),
    Mutant(
        "budget-total-without-one",
        DOMAINS,
        "total = 1 + loose_boundaries + s_clusters",
        "total = loose_boundaries + s_clusters",
        (
            "tests/test_domains.py::TestBoundaryBudget",
            "tests/test_domains.py::TestDenseReference::test_reports_match_dense_reference",
        ),
    ),
    # The domain constructor, which the verifier's walk no longer calls.
    Mutant(
        "domain-window-one-byte-short",
        DOMAINS,
        "Span(q, q + (a_end - a_start))",
        "Span(q, q + (a_end - a_start) - 1)",
        (
            "tests/test_domains.py::TestVerifyLemmas::test_exhaustive_small",
            "tests/test_domains.py::TestDenseReference::test_reports_match_dense_reference",
        ),
    ),
    Mutant(
        "domain-span-ends-at-own-run",
        DOMAINS,
        "Span(q, a_start - 1)",
        "Span(q, a_start)",
        (
            "tests/test_domains.py::TestVerifyLemmas::test_exhaustive_small",
            "tests/test_domains.py::TestDenseReference::test_reports_match_dense_reference",
        ),
    ),
    Mutant(
        "empty-domain-window-one-byte-short",
        DOMAINS,
        "window = run if d == 1 else Span(a_start, a_end)",
        "window = run if d == 1 else Span(a_start, a_end - 1)",
        (
            "tests/test_domains.py::TestVerifyLemmas::test_exhaustive_small",
            "tests/test_domains.py::TestDenseReference::test_reports_match_dense_reference",
        ),
    ),
    Mutant(
        "anchor-off-run-start-accepted",
        DOMAINS,
        "if j >= i or runs[j - 1].start != q:",
        "if j >= i:",
        ("tests/test_domains.py::TestDenseReference::test_leftmost_occurrence_off_run_start",),
    ),
)
