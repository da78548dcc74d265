from __future__ import annotations

import random
import sys
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    FIGURE_STRING,
    ByteReadCounting,
    fibonacci_prefix,
    is_lyndon,
    repeated_family_block,
    thue_morse_prefix,
)
from lynlz import Span, generate_family, lyndon_factorize, oracle_lyndon_dp
from lynlz.lyndon import ORACLE_LIMIT


def factor_texts(lf):
    return [f.slice(lf.text) for f, _ in lf.factors]


def exponents(lf):
    return [e for _, e in lf.factors]


def duval_per_byte(s: bytes) -> tuple[tuple, tuple]:
    """Slow path: classic Duval, one byte per step, one cut per factor, grouped after.

    Transcribed here rather than imported, so that it shares no code with
    ``lyndon_factorize``'s galloping scan and run-per-round emission.
    """
    n = len(s)
    cuts = []
    k = 0
    while k < n:
        i, j = k, k + 1
        while j < n and s[i] <= s[j]:
            i = k if s[i] < s[j] else i + 1
            j += 1
        while k <= i:
            cuts.append((k, j - i))
            k += j - i
    factors, runs = [], []
    idx = 0
    while idx < len(cuts):
        start, length = cuts[idx]
        count = 1
        while idx + count < len(cuts) and cuts[idx + count][1] == length:
            other = cuts[idx + count][0]
            if s[other : other + length] != s[start : start + length]:
                break
            count += 1
        factors.append((Span(start + 1, start + length), count))
        runs.append(Span(start + 1, start + count * length))
        idx += count
    return tuple(factors), tuple(runs)


def least_suffix_factors(s: bytes) -> list[bytes]:
    """Second oracle: the Lyndon factors of ``s``, one word per factor.

    By Chen, Fox and Lyndon, the last factor of a Lyndon factorization is
    the lexicographically least suffix; strip it and repeat.  Suffixes of
    different lengths are different words, so ``min`` has no ties.  It
    shares no code with Duval's scan or the backtracking oracle.
    """
    factors = []
    end = len(s)
    while end:
        start = min(range(end), key=lambda i: s[i:end])
        factors.append(s[start:end])
        end = start
    return factors[::-1]


def expanded_factors(lf) -> list[bytes]:
    """Each run's Lyndon word, repeated by its exponent."""
    return [word for word, e in zip(factor_texts(lf), exponents(lf)) for _ in range(e)]


@st.composite
def periodic_strings(draw) -> bytes:
    """``u^r`` plus a prefix of ``u`` and maybe one more letter: long periodic stretches."""
    u = draw(st.text(alphabet="abc", min_size=1, max_size=12)).encode()
    reps = draw(st.integers(min_value=1, max_value=200))
    head = u[: draw(st.integers(min_value=0, max_value=len(u)))]
    extra = draw(st.sampled_from([b"", b"a", b"b", b"c"]))
    return u * reps + head + extra


class TestOracle:
    def test_banana(self):
        lf = oracle_lyndon_dp(b"banana")
        assert factor_texts(lf) == [b"b", b"an", b"a"]
        assert exponents(lf) == [1, 2, 1]
        assert lf.m == 3

    def test_single_letter(self):
        lf = oracle_lyndon_dp(b"a")
        assert lf.factors == ((Span(1, 1), 1),)
        assert lf.m == 1

    def test_two_runs(self):
        lf = oracle_lyndon_dp(b"ba")
        assert factor_texts(lf) == [b"b", b"a"]
        assert lf.m == 2

    def test_empty(self):
        assert oracle_lyndon_dp(b"").m == 0

    def test_length_guard(self):
        # Exactly ORACLE_LIMIT bytes is accepted, one more is refused.
        s = b"a" * ORACLE_LIMIT
        assert oracle_lyndon_dp(s).factors == lyndon_factorize(s).factors
        message = f"^oracle limited to {ORACLE_LIMIT} symbols, got {ORACLE_LIMIT + 1}$"
        with pytest.raises(ValueError, match=message):
            oracle_lyndon_dp(s + b"a")

    def test_depth_not_bound_by_recursion_limit(self):
        # b^512 has 512 factors, so a recursive search would nest 512 calls.
        s = b"b" * ORACLE_LIMIT
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            lf = oracle_lyndon_dp(s)
        finally:
            sys.setrecursionlimit(limit)
        assert lf.factors == ((Span(1, 1), ORACLE_LIMIT),)


class TestLyndonFactorize:
    def test_banana_matches_oracle(self):
        lf = lyndon_factorize(b"banana")
        assert factor_texts(lf) == [b"b", b"an", b"a"]
        assert lf.m == 3

    def test_single_letter_repetition(self):
        lf = lyndon_factorize(b"aaaa")
        assert lf.m == 1
        assert lf.factors == ((Span(1, 1), 4),)
        assert lf.runs == (Span(1, 4),)

    def test_figure_string(self):
        lf = lyndon_factorize(FIGURE_STRING)
        assert lf.runs == (Span(1, 6), Span(7, 17), Span(18, 22), Span(23, 24), Span(25, 25))
        assert factor_texts(lf) == [b"abb", b"ababbababbb", b"ababb", b"ab", b"a"]
        assert exponents(lf) == [2, 1, 1, 1, 1]
        assert lf.m == 5

    def test_empty_input(self):
        lf = lyndon_factorize(b"")
        assert lf.m == 0 and lf.factors == () and lf.runs == ()

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_family_block_structure(self, k):
        # Inside block i the factors are a^i b a^1 b, ..., a^i b a^{i-1} b, a^i b,
        # all with exponent one, and no factor straddles a block boundary.
        expected = [b"b"]
        for i in range(1, k + 1):
            head = b"a" * i + b"b"
            expected.extend(head + b"a" * j + b"b" for j in range(1, i))
            expected.append(head)
        expected.append(b"a")
        lf = lyndon_factorize(generate_family(k))
        assert factor_texts(lf) == expected
        assert exponents(lf) == [1] * len(expected)

    def test_family_k3_size(self):
        assert lyndon_factorize(generate_family(3)).m == 8


class TestInvariants:
    def corpus(self):
        strings = [FIGURE_STRING, b"banana", b"aaaa", b"abababab"]
        strings += [generate_family(k) for k in range(0, 7)]
        return strings

    def test_roundtrip_and_structure(self):
        for s in self.corpus():
            lf = lyndon_factorize(s)
            rebuilt = b"".join(lf.runs[i - 1].slice(lf.text) for i in range(1, lf.m + 1))
            assert rebuilt == s
            for i in range(1, lf.m + 1):
                factor_span, e = lf.factors[i - 1]
                factor = factor_span.slice(lf.text)
                assert is_lyndon(factor)
                assert lf.runs[i - 1].slice(lf.text) == factor * e
                assert lf.runs[i - 1].length == e * factor_span.length
            factors = factor_texts(lf)
            for i in range(1, lf.m):
                assert factors[i - 1] > factors[i]

    def test_factor_dominates_later_runs(self):
        for s in self.corpus():
            lf = lyndon_factorize(s)
            factors = factor_texts(lf)
            for j in range(1, lf.m + 1):
                for i in range(j + 1, lf.m + 1):
                    assert factors[j - 1] > lf.runs[i - 1].slice(lf.text)

    @given(st.binary(max_size=300))
    def test_roundtrip_random(self, s):
        lf = lyndon_factorize(s)
        assert b"".join(lf.runs[i - 1].slice(lf.text) for i in range(1, lf.m + 1)) == s

    def test_oracle_equivalence_exhaustive(self):
        # Binary up to length 12 and ternary up to length 8.
        for alphabet, max_len in ((b"ab", 12), (b"abc", 8)):
            for n in range(0, max_len + 1):
                for tup in product(alphabet, repeat=n):
                    s = bytes(tup)
                    fast = lyndon_factorize(s)
                    slow = oracle_lyndon_dp(s)
                    assert (fast.factors, fast.runs) == (slow.factors, slow.runs), s

    @given(st.text(alphabet="abcd", max_size=40).map(str.encode))
    def test_oracle_equivalence_random(self, s):
        fast = lyndon_factorize(s)
        slow = oracle_lyndon_dp(s)
        assert (fast.factors, fast.runs) == (slow.factors, slow.runs)


class TestLeastSuffixOracle:
    """The least-suffix rule against both Duval's scan and the backtracking oracle."""

    def test_hand_cases(self):
        assert least_suffix_factors(b"") == []
        assert least_suffix_factors(b"banana") == [b"b", b"an", b"an", b"a"]
        assert least_suffix_factors(b"aab") == [b"aab"]
        assert least_suffix_factors(b"aaa") == [b"a", b"a", b"a"]

    def test_against_duval_exhaustive(self):
        # Every binary string up to length 12 and ternary string up to length 8.
        for alphabet, max_len in ((b"ab", 12), (b"abc", 8)):
            for n in range(0, max_len + 1):
                for tup in product(alphabet, repeat=n):
                    s = bytes(tup)
                    assert least_suffix_factors(s) == expanded_factors(lyndon_factorize(s)), s

    def test_against_backtracking_oracle(self):
        for n in range(0, 11):
            for tup in product(b"ab", repeat=n):
                s = bytes(tup)
                assert least_suffix_factors(s) == expanded_factors(oracle_lyndon_dp(s)), s


class TestGallopAgainstPerByteScan:
    """``lyndon_factorize`` skips byte steps and the cut list; the per-byte scan skips neither."""

    def test_exhaustive_sweep_ranges(self):
        # The acceptance sweep's binary range, and ternary one step past the oracle test.
        for alphabet, max_len in ((b"ab", 16), (b"abc", 9)):
            for n in range(0, max_len + 1):
                for tup in product(alphabet, repeat=n):
                    s = bytes(tup)
                    lf = lyndon_factorize(s)
                    assert (lf.factors, lf.runs) == duval_per_byte(s), s

    def test_every_stretch_end_near_the_switch(self):
        # A periodic stretch of every length up to 100, cut by every letter:
        # the stretch ends before, at and after the 16-byte switch and at
        # each doubling and halving step after it.
        for n in range(1, 5):
            for tup in product(b"abc", repeat=n):
                u = bytes(tup)
                stretch = u * (100 // n + 1)
                for length in range(1, 101):
                    for last in (b"", b"a", b"b", b"c"):
                        s = stretch[:length] + last
                        lf = lyndon_factorize(s)
                        assert (lf.factors, lf.runs) == duval_per_byte(s), s

    def test_resume_at_every_offset_of_the_period(self):
        # A round that ends with w^e w' c resumes the next round inside w',
        # at every offset |w'| of the period; a trailing w lets it go on.
        words = [
            bytes(tup)
            for n in range(1, 7)
            for tup in product(b"abc", repeat=n)
            if is_lyndon(bytes(tup))
        ]
        for w in words:
            for e in (1, 2, 3):
                for cut in range(len(w)):
                    for c in range(ord("a"), w[cut]):
                        head = w * e + w[:cut] + bytes([c])
                        for s in (head, head + w):
                            lf = lyndon_factorize(s)
                            assert (lf.factors, lf.runs) == duval_per_byte(s), s
                            slow = oracle_lyndon_dp(s)
                            assert (lf.factors, lf.runs) == (slow.factors, slow.runs), s

    @given(periodic_strings())
    def test_periodic_strings(self, s):
        lf = lyndon_factorize(s)
        assert (lf.factors, lf.runs) == duval_per_byte(s)

    @pytest.mark.parametrize("word", [b"a", b"ab"])
    def test_one_run_at_a_million_bytes(self, word):
        n = 10**6
        lf = lyndon_factorize(word * (n // len(word)))
        assert lf.factors == ((Span(1, len(word)), n // len(word)),)
        assert lf.runs == (Span(1, n),)

    @pytest.mark.parametrize(
        "make",
        [fibonacci_prefix, repeated_family_block, thue_morse_prefix],
        ids=["fibonacci", "family-k12", "thue-morse"],
    )
    def test_repetitive_text(self, make):
        s = make(10**5)
        lf = lyndon_factorize(s)
        assert (lf.factors, lf.runs) == duval_per_byte(s)

    @pytest.mark.parametrize("n", [*range(4095, 4117), 9_999])
    @pytest.mark.parametrize(
        "make",
        [lambda n: b"a" * n, lambda n: (b"ab" * n)[:n], fibonacci_prefix, repeated_family_block],
        ids=["a^n", "(ab)^n", "fibonacci", "family-k12"],
    )
    def test_caps_around_the_whole_compare(self, make, n):
        # gallop compares caps of 4096 bytes and more whole.  The scan's cap
        # is the rest of the text: a^n's first gallop has the cap n - 17 and
        # (ab)^n's n - 18, so n = 4112..4116 puts it at 4094..4099.
        s = make(n)
        lf = lyndon_factorize(s)
        assert (lf.factors, lf.runs) == duval_per_byte(s)


class TestReads:
    """Each round resumes where the last one stopped reading, so no byte is read twice."""

    @pytest.mark.parametrize(
        "s",
        [
            fibonacci_prefix(10**5),
            thue_morse_prefix(10**5),
            generate_family(18),
            generate_family(40),
            bytes(random.Random(0).choices(b"ab", k=10**4)),
        ],
        ids=["fibonacci", "thue-morse", "family-k18", "family-k40", "random"],
    )
    def test_reads_at_most_n_minus_1_plus_m(self, s, lyndon_gallops):
        text = ByteReadCounting(s)
        lf = lyndon_factorize(text)
        galloped = lyndon_gallops.galloped
        # A scan that restarts each round at k gallops 152,849 bytes on the
        # Fibonacci prefix and 176,264 on the Thue-Morse prefix.
        assert galloped <= len(s)
        # j moves right at every per-byte step and galloped byte, except at
        # the one compare that ends a round on a smaller byte.
        assert text.byte_reads // 2 + galloped <= len(s) - 1 + lf.m
