from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIGURE_STRING, ByteReadCounting, is_lyndon, strings
from lynlz import Span, oracle_lz_naive
from lynlz.text import gallop


def builtin_order(u: bytes, v: bytes) -> int:
    """-1, 0 or 1 from Python's ``bytes`` operators."""
    return (u > v) - (u < v)


def definition_order(u: bytes, v: bytes) -> int:
    """-1, 0 or 1 by the definition: the first mismatching byte decides,
    otherwise the shorter word (a proper prefix) comes first."""
    for a, b in zip(u, v):
        if a != b:
            return -1 if a < b else 1
    return (len(u) > len(v)) - (len(u) < len(v))


class TestLexCompare:
    """The package compares words with Python's ``bytes`` operators (in the
    Lyndon oracle and the verifier, and so does the tests' ``is_lyndon``);
    these tests pin that those operators give the lexicographic order of the
    definition."""

    @pytest.mark.parametrize(
        "u, v, expected",
        [
            (b"a", b"ab", -1),  # proper prefix
            (b"abb", b"aba", 1),  # mismatch at position 3
            (b"ab", b"ab", 0),
            (b"", b"", 0),
            (b"", b"x", -1),
            (b"ba", b"ab", 1),
        ],
    )
    def test_examples(self, u, v, expected):
        assert builtin_order(u, v) == expected

    def test_total_order_exhaustive(self):
        # All pairs of binary words up to length 6.
        words = list(strings(b"ab", 6))
        for u in words:
            for v in words:
                assert builtin_order(u, v) == definition_order(u, v)

    def test_prefix_extension(self):
        for u in strings(b"ab", 4):
            for x in strings(b"ab", 3, min_len=1):
                assert u < u + x

    @given(st.binary(max_size=30), st.binary(max_size=30))
    def test_agrees_with_builtin_order(self, u, v):
        assert definition_order(u, v) == builtin_order(u, v)


class TestIsLyndon:
    def test_single_letter(self):
        assert is_lyndon(b"a")

    def test_periodic_word_is_not(self):
        assert not is_lyndon(b"aba")  # suffix "a" precedes the word

    def test_long_run_factor(self):
        # Expected value derived by enumerating all ten proper suffixes.
        w = b"ababbababbb"
        expected = all(w[i:] > w for i in range(1, len(w)))
        assert expected is True
        assert is_lyndon(w) is True

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_lyndon(b"")

    def test_no_other_rotation_is_lyndon(self):
        # A Lyndon word is primitive, so every other rotation is distinct
        # and none of them may be Lyndon.
        for w in strings(b"ab", 10, min_len=1):
            if not is_lyndon(w):
                continue
            for r in range(1, len(w)):
                rotation = w[r:] + w[:r]
                assert rotation == w or not is_lyndon(rotation)


def scan(s: bytes, pattern: bytes) -> int | None:
    """Smallest 1-based start of ``pattern`` in ``s`` by a quadratic scan, or None."""
    hits = [i + 1 for i in range(len(s) - len(pattern) + 1) if s[i : i + len(pattern)] == pattern]
    return min(hits) if hits else None


class TestLeftmostOccurrence:
    """``oracle_lz_naive`` asks whether a piece occurs in the parsed prefix
    with ``piece in parsed``; these tests pin that containment test against
    a quadratic scan for the leftmost occurrence."""

    @pytest.mark.parametrize(
        "s, pattern, expected",
        [
            (FIGURE_STRING, b"aba", 7),
            (b"babaababaaba", b"b", 1),
            (FIGURE_STRING, b"ababbaba", 7),
            (b"aaa", b"b", None),
            (b"", b"a", None),
        ],
    )
    def test_examples(self, s, pattern, expected):
        assert scan(s, pattern) == expected
        assert (pattern in s) == (expected is not None)

    def test_empty_pattern_rejected(self):
        # The empty word is in every string, so containment cannot tell a
        # fresh letter; the oracle never probes it.  Its first probe at each
        # phrase start is one byte, and a fresh letter is a phrase of its own.
        assert all(b"" in s for s in strings(b"ab", 4))
        for s in strings(b"ab", 8, min_len=1):
            for phrase in oracle_lz_naive(s).phrases:
                fresh = scan(s, phrase.slice(s)[:1]) == phrase.start
                assert phrase.length >= 1 and (phrase.length == 1 or not fresh)

    def test_matches_quadratic_scan(self):
        for s in strings(b"ab", 6):
            for pattern in strings(b"ab", 3, min_len=1):
                assert (pattern in s) == (scan(s, pattern) is not None)

    @given(st.binary(max_size=50), st.binary(min_size=1, max_size=5))
    def test_random_against_scan(self, s, pattern):
        assert (pattern in s) == (scan(s, pattern) is not None)


class TestSpan:
    def test_length_and_slice(self):
        sp = Span(7, 9)
        assert sp.length == 3
        assert not sp.is_empty
        assert sp.slice(FIGURE_STRING) == b"aba"

    def test_empty_marker(self):
        sp = Span(7, 6)
        assert sp.is_empty
        assert sp.length == 0
        assert sp.slice(FIGURE_STRING) == b""

    @pytest.mark.parametrize("start, end", [(0, 3), (5, 3), (-1, -1), (0, 1)])
    def test_invalid_rejected(self, start, end):
        with pytest.raises(ValueError):
            Span(start, end)

    def test_replace_validates(self):
        assert Span(2, 5)._replace(end=1) == Span(2, 1)
        with pytest.raises(ValueError, match=r"invalid span \[0\.\.5\]"):
            Span(2, 5)._replace(start=0)
        with pytest.raises(AttributeError):
            Span(2, 5).width = 4  # no instance dict

    def test_contains_and_overlaps(self):
        outer, inner, disjoint = Span(2, 10), Span(3, 5), Span(11, 12)
        assert outer.contains(inner) and not inner.contains(outer)
        assert outer.contains(Span(4, 3))
        assert outer.overlaps(inner) and not outer.overlaps(disjoint)
        assert not outer.overlaps(Span(4, 3))


class TestGallop:
    @staticmethod
    def common_prefix(s: bytes, i: int, j: int, limit: int) -> int:
        k = 0
        while k < limit and s[i + k] == s[j + k]:
            k += 1
        return k

    @pytest.mark.parametrize("step", [1, 2, 16])
    def test_matches_byte_loop(self, step):
        # Every pair i < j and every limit that stays inside the word.
        for s in [*strings(b"ab", 9, min_len=2), b"a" * 40, b"ab" * 20, b"aab" * 13]:
            n = len(s)
            for i in range(n):
                for j in range(i + 1, n):
                    for limit in range(n - j + 1):
                        expected = self.common_prefix(s, i, j, limit)
                        assert gallop(s, i, j, limit, step) == expected, (s, i, j, limit)

    def test_whole_cap_takes_no_slice(self):
        # One uncopied compare of the whole cap; doubling and halving would
        # take 50 slices here.
        s = ByteReadCounting(b"a" * 10**6)
        assert gallop(s, 0, 1, 10**6 - 1) == 10**6 - 1
        assert s.slice_reads == 0

    @pytest.mark.parametrize("step", [1, 2, 16])
    @pytest.mark.parametrize("limit", [4095, 4096, 4097, 4100, 5000, 8192, 9999])
    def test_long_caps(self, step, limit):
        # Caps of 4096 bytes and more are first compared whole. s[i:] and
        # s[j:] agree for j - i = len(word) up to one flipped byte: none or
        # the one past the cap (the match reaches the cap), the cap's last
        # byte on the j side, or its first byte on the i side.
        for word in (b"a", b"ab", b"abaab" * 7 + b"b"):
            i, j = 3, 3 + len(word)
            periodic = word * ((j + limit + 2) // len(word) + 1)
            for flip in (None, j + limit, j + limit - 1, i):
                s = periodic
                if flip is not None:
                    s = s[:flip] + bytes([s[flip] ^ 3]) + s[flip + 1 :]
                expected = self.common_prefix(s, i, j, limit)
                assert gallop(s, i, j, limit, step) == expected, (word, limit, flip)
