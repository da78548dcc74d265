"""Source mutants that the test suite must kill.

Each mutant replaces one exact text, which occurs once in its file, and
names the tests that must fail on it.  ``tests/run_mutants.py`` applies
each one to a copy of the repository and runs its tests there;
``tests/test_mutants.py`` checks that every text still occurs exactly once,
so the catalogue cannot go stale unnoticed.

Mutants of the speed rules keep every output, so only operation counts
kill them: the bounds of ``TestGallopCalls`` and ``TestReads``, and the
exact counts of ``TestPinnedWork`` and ``test_whole_cap_takes_no_slice``.
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
)
