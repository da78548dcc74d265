"""Both parses above the oracles' limits, checked against their definitions.

``perfbench/checks.py`` re-derives what a correct Lyndon factorization and a
correct greedy LZ parse must satisfy from the text alone, without calling
``lynlz``.  Its source is run with ``exec`` rather than imported, so the
checks keep one copy and no ``__pycache__`` is written under ``perfbench/``.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from conftest import fibonacci_prefix, repeated_family_block, thue_morse_prefix
from lynlz import generate_family, lyndon_factorize, lz_factorize
from lynlz.lz import ORACLE_LIMIT

CHECKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
CHECKS: dict = {"__name__": "perfbench_checks"}
exec(compile(CHECKS_PATH.read_text(), str(CHECKS_PATH), "exec"), CHECKS)
check_lyndon, check_lz = CHECKS["check_lyndon"], CHECKS["check_lz"]

N = 10**5
TEXTS = {
    "a^n": lambda: b"a" * N,
    "(ab)^n": lambda: b"ab" * (N // 2),
    "fibonacci": lambda: fibonacci_prefix(N),
    "thue-morse": lambda: thue_morse_prefix(N),
    "family-block": lambda: repeated_family_block(N),
    "family-k40": lambda: generate_family(40),
    # Twice the LZ oracle's limit: at 10^5 the parse alone takes seconds.
    "random": lambda: bytes(random.Random(0).choices(b"ab", k=2 * ORACLE_LIMIT)),
}


def _lyndon_runs(s: bytes) -> list[tuple[int, int, int, int]]:
    lf = lyndon_factorize(s)
    return [(r.start, r.end, f.length, e) for r, (f, e) in zip(lf.runs, lf.factors)]


def _moved(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``spans`` with the boundary after the middle one moved by one byte.

    It moves right when the span after it has a byte to spare, else left.
    """
    k = len(spans) // 2 - 1
    (a, b), (c, d) = spans[k], spans[k + 1]
    shift = 1 if d > c else -1
    return spans[:k] + [(a, b + shift), (c + shift, d)] + spans[k + 2 :]


@pytest.mark.parametrize("make", TEXTS.values(), ids=TEXTS.keys())
def test_parses_meet_their_definitions(make):
    s = make()
    runs = _lyndon_runs(s)
    phrases = [tuple(p) for p in lz_factorize(s).phrases]
    assert check_lyndon(s, runs) is None
    assert check_lz(s, phrases) is None
    if len(runs) >= 2:
        # The two moved runs are each taken as one factor with exponent 1.
        # The Lyndon factorization is unique, so the check must find a
        # factor that is not Lyndon or does not decrease.
        moved = [
            run if run[:2] == span else (*span, span[1] - span[0] + 1, 1)
            for run, span in zip(runs, _moved([run[:2] for run in runs]))
        ]
        assert check_lyndon(s, moved) is not None
    if len(phrases) >= 2:
        assert check_lz(s, _moved(phrases)) is not None
