from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    FIGURE_STRING,
    FindCounting,
    fibonacci_prefix,
    repeated_family_block,
    strings,
)
from lynlz import Span, generate_family, lz_factorize, oracle_lz_naive
from lynlz.lz import ORACLE_LIMIT

REPETITIVE = pytest.mark.parametrize(
    "make",
    [lambda n: b"a" * n, lambda n: b"ab" * (n // 2), fibonacci_prefix, repeated_family_block],
    ids=["a^n", "(ab)^n", "fibonacci", "family-k12"],
)


class TestLzFactorize:
    def test_family_k2(self):
        lz = lz_factorize(generate_family(2))
        assert [p.slice(lz.text) for p in lz.phrases] == [b"b", b"a", b"ba", b"aba", b"baaba"]
        assert lz.z == 5
        assert [p.start for p in lz.phrases] == [1, 2, 3, 5, 8]

    def test_family_k3_extends_k2(self):
        lz = lz_factorize(generate_family(3))
        assert [p.slice(lz.text) for p in lz.phrases] == [b"b", b"a", b"ba", b"aba", b"baaba", b"aababaa", b"abaabaaaba"]
        assert lz.z == 7

    def test_single_letter_repetition(self):
        # Derived with the naive transcription: a, a, aa.
        lz = lz_factorize(b"aaaa")
        assert [p.slice(lz.text) for p in lz.phrases] == [b"a", b"a", b"aa"]
        assert lz.z == 3

    def test_figure_string(self):
        # Frozen from the naive oracle; the final phrase s[17..25] repeats s[6..14].
        lz = lz_factorize(FIGURE_STRING)
        assert lz.z == 8
        assert [p.start for p in lz.phrases] == [1, 2, 3, 4, 7, 9, 14, 17]

    def test_empty(self):
        lz = lz_factorize(b"")
        assert lz.z == 0 and lz.phrases == ()

    def test_fresh_letters(self):
        lz = lz_factorize(b"abcd")
        assert lz.z == 4
        assert all(p.length == 1 for p in lz.phrases)


class TestFindCount:
    """How many substring searches the parse makes, counted on the text."""

    def test_fibonacci_stops_at_the_occurrence(self):
        # Most phrases' occurrences reach their start, so the bound b - q ends
        # their bisection: 15 finds for z = 19 (34 with a find for each first
        # byte, 112 with the bound min(b, n - b) as well).
        s = FindCounting(fibonacci_prefix(10_000))
        lz = lz_factorize(s)
        assert lz.z == 19
        assert s.finds <= lz.z

    def test_unary_makes_no_find(self):
        # Each phrase after the first is the whole parsed prefix: its first
        # byte's position comes from the table, and its extension reaches
        # b - q, so no probe follows.
        s = FindCounting(b"a" * 300_000)
        lz_factorize(s)
        assert s.finds == 0

    def test_family_k18_finds(self):
        # README "LZ parse": the first-byte table saves one find per phrase,
        # 157 in all (1,505 finds with them).
        s = FindCounting(generate_family(18))
        lz_factorize(s)
        assert s.finds == 1_348


class TestGallopCalls:
    """``gallop`` runs only where the next bytes match, so every call matches one or more."""

    def test_family(self, lz_gallops):
        for k in range(2, 25):
            lz_factorize(generate_family(k))
        # 333 of family k=18's 523 calls matched nothing before the guard.
        assert lz_gallops.calls > 0 and lz_gallops.misses == 0

    def test_random_binary(self, lz_gallops):
        lz_factorize(bytes(random.Random(10_000).choices(b"ab", k=10_000)))
        assert lz_gallops.calls > 0 and lz_gallops.misses == 0

    @REPETITIVE
    def test_repetitive(self, make, lz_gallops):
        lz_factorize(make(300_000))
        assert lz_gallops.calls > 0 and lz_gallops.misses == 0


class TestPinnedWork:
    """The parse's exact work: finds, bytes they read and ``gallop`` calls.

    A change to the loop that keeps these counts performs the same
    operations.  Each speed rule shows in them: probing from 0 instead of
    ``q`` (*Resume*) keeps every count but the bytes read, which rise to
    1,782,439 at family k=18 and 35,050,276 on the random text.
    """

    @pytest.mark.parametrize(
        "make, finds, read, calls",
        [
            (lambda: generate_family(18), 1_348, 1_291_836, 190),
            (lambda: bytes(random.Random(10_000).choices(b"ab", k=10_000)), 8_460, 32_304_906, 994),
            (lambda: fibonacci_prefix(10_000), 15, 13_820, 30),
        ],
        ids=["family-k18", "random-binary", "fibonacci"],
    )
    def test_counts(self, make, finds, read, calls, lz_gallops):
        s = FindCounting(make())
        lz_factorize(s)
        assert (s.finds, s.read, lz_gallops.calls) == (finds, read, calls)


class TestOracle:
    def test_two_fresh_letters(self):
        assert oracle_lz_naive(b"ba").z == 2

    def test_family_k2(self):
        assert oracle_lz_naive(generate_family(2)).z == 5

    def test_length_guard(self):
        # Exactly ORACLE_LIMIT bytes is accepted, one more is refused.
        s = b"a" * ORACLE_LIMIT
        assert oracle_lz_naive(s) == lz_factorize(s)
        message = f"^oracle limited to {ORACLE_LIMIT} symbols, got {ORACLE_LIMIT + 1}$"
        with pytest.raises(ValueError, match=message):
            oracle_lz_naive(s + b"a")

    def test_equivalence_exhaustive_binary(self):
        for s in strings(b"ab", 14):
            assert lz_factorize(s) == oracle_lz_naive(s), s

    def test_equivalence_exhaustive_ternary(self):
        for s in strings(b"abc", 9):
            assert lz_factorize(s) == oracle_lz_naive(s), s

    @pytest.mark.parametrize("flip", [None, ORACLE_LIMIT // 2, ORACLE_LIMIT - 2])
    @REPETITIVE
    def test_equivalence_long_repetitive(self, make, flip):
        # Long phrases whose leftmost occurrence reaches up to the phrase
        # start, so the extension stops at its cap b - q (in a^n every phrase
        # after the first is the whole parsed prefix); a flipped byte ends
        # one such phrase early and starts a fresh match after it.
        s = make(ORACLE_LIMIT)
        if flip is not None:
            s = s[:flip] + bytes([s[flip] ^ 3]) + s[flip + 1 :]  # a <-> b
        assert lz_factorize(s) == oracle_lz_naive(s)

    @pytest.mark.parametrize("n", [*range(4095, 4101), 8275, 8276, 8277, 8426, 8427, 8428, 9_999])
    @REPETITIVE
    def test_equivalence_around_the_whole_compare(self, make, n):
        # gallop compares caps of 4096 bytes and more whole.  The Fibonacci
        # prefix's phrase at 4,180 and the family block's at 4,331 (1-based)
        # extend from position 1 up to the end of the text, with the cap
        # n - 4,180 and n - 4,331: n = 8,275..8,277 and 8,426..8,428 put it
        # at 4,095..4,097.
        s = make(n)
        assert lz_factorize(s) == oracle_lz_naive(s)

    @given(st.text(alphabet="abcd", max_size=120).map(str.encode))
    def test_equivalence_random(self, s):
        assert lz_factorize(s) == oracle_lz_naive(s)


class TestParseInvariants:
    def corpus(self):
        strings = [FIGURE_STRING, b"aaaa", b"banana", b"mississippi"]
        strings += [generate_family(k) for k in range(0, 7)]
        return strings

    def test_tiling_and_phrase_kinds(self):
        for s in self.corpus():
            lz = lz_factorize(s)
            pos = 1
            for span in lz.phrases:
                assert span.start == pos
                pos = span.end + 1
            assert pos == len(s) + 1
            assert lz.z >= len(set(s))
            for span in lz.phrases:
                phrase = span.slice(s)
                prefix = s[: span.start - 1]
                if prefix.find(phrase[:1]) < 0:
                    # leftmost occurrence of a fresh letter
                    assert span.length == 1
                else:
                    assert prefix.find(phrase) >= 0
                    extended = s[span.start - 1 : span.end + 1]
                    if span.end < len(s):
                        assert prefix.find(extended) < 0  # maximality

    @given(st.text(alphabet="ab", max_size=60).map(str.encode))
    def test_greedy_dominance_random(self, s):
        # Each phrase length equals the largest probe that still occurs
        # inside the already parsed prefix (or 1 for a fresh letter).
        lz = lz_factorize(s)
        for span in lz.phrases:
            prefix = s[: span.start - 1]
            best = 0
            for length in range(1, len(s) - span.start + 2):
                if prefix.find(s[span.start - 1 : span.start - 1 + length]) >= 0:
                    best = length
                else:
                    break
            assert span.length == max(best, 1)


class TestContainsBoundary:
    def test_window_with_boundary(self):
        lz = lz_factorize(FIGURE_STRING)
        assert lz.boundaries_in(Span(10, 14)) == 1  # phrase start 14

    def test_first_position_always_hits(self):
        for s in (b"a", FIGURE_STRING, generate_family(4)):
            assert lz_factorize(s).boundaries_in(Span(1, 1)) == 1

    def test_family_k2_windows(self):
        lz = lz_factorize(generate_family(2))
        assert lz.boundaries_in(Span(8, 9)) == 1
        assert lz.boundaries_in(Span(9, 12)) == 0

    def test_window_out_of_range(self):
        # Phrases a, b, ab: a window reaching past the text counts only the
        # phrase starts it covers, and an empty window counts none.
        lz = lz_factorize(b"abab")
        assert lz.boundaries_in(Span(2, 5)) == 2
        assert lz.boundaries_in(Span.empty(2)) == 0

    def test_boundary_counting(self):
        lz = lz_factorize(FIGURE_STRING)
        assert lz.boundaries_in(Span(1, 25)) == 8
        assert lz.boundaries_in(Span(5, 6)) == 0
        assert lz.boundaries_in(Span(14, 17)) == 2

    def test_matches_direct_count(self):
        # Every window, empty ones included, against a direct count of phrase starts.
        texts = list(strings(b"ab", 10, min_len=1))
        texts += [generate_family(k) for k in range(0, 6)]
        for s in texts:
            lz = lz_factorize(s)
            starts = [p.start for p in lz.phrases]
            for start in range(1, len(s) + 2):
                for end in range(start - 1, len(s) + 1):
                    expected = sum(start <= b <= end for b in starts)
                    assert lz.boundaries_in(Span(start, end)) == expected, (s, start, end)

    def test_counts_the_phrases_it_holds(self):
        # The phrase starts are read from ``phrases`` alone, so a replaced
        # phrase tuple cannot disagree with a second stored copy.
        lz = lz_factorize(FIGURE_STRING)
        last = lz.phrases[-1]
        assert lz.boundaries_in(last) == 1
        assert dataclasses.replace(lz, phrases=lz.phrases[:-1]).boundaries_in(last) == 0
