from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIGURE_STRING
from lynlz import Span, generate_family, is_lyndon, lyndon_factorize, oracle_lyndon_dp


def factor_texts(lf):
    return [lf.factor_bytes(i) for i in range(1, lf.m + 1)]


def exponents(lf):
    return [lf.exponent(i) for i in range(1, lf.m + 1)]


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
        with pytest.raises(ValueError):
            oracle_lyndon_dp(b"a" * 25)
        oracle_lyndon_dp(b"a" * 25, max_len=30)


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
            rebuilt = b"".join(lf.run_bytes(i) for i in range(1, lf.m + 1))
            assert rebuilt == s
            for i in range(1, lf.m + 1):
                factor_span, e = lf.factors[i - 1]
                factor = lf.factor_bytes(i)
                assert is_lyndon(factor)
                assert lf.run_bytes(i) == factor * e
                assert lf.runs[i - 1].length == e * factor_span.length
            for i in range(1, lf.m):
                assert lf.factor_bytes(i) > lf.factor_bytes(i + 1)

    def test_factor_dominates_later_runs(self):
        for s in self.corpus():
            lf = lyndon_factorize(s)
            for j in range(1, lf.m + 1):
                for i in range(j + 1, lf.m + 1):
                    assert lf.factor_bytes(j) > lf.run_bytes(i)

    @given(st.binary(max_size=300))
    def test_roundtrip_random(self, s):
        lf = lyndon_factorize(s)
        assert b"".join(lf.run_bytes(i) for i in range(1, lf.m + 1)) == s

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
        slow = oracle_lyndon_dp(s, max_len=40)
        assert (fast.factors, fast.runs) == (slow.factors, slow.runs)
