"""Lyndon factorization: Duval's linear scan plus a backtracking oracle.

The factorization of ``s`` is the unique decomposition
``s = f_1^{e_1} ... f_m^{e_m}`` into Lyndon words with ``f_1 > f_2 > ... > f_m``.
``F_i = f_i^{e_i}`` is the i-th *run*; ``m`` counts runs.  Run indices in the
public API are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IntegrityError
from .text import Span, is_lyndon

DEFAULT_ORACLE_LIMIT = 24


@dataclass(frozen=True)
class LyndonFactorization:
    text: bytes
    factors: tuple[tuple[Span, int], ...]  # (first period of run i, exponent e_i)
    runs: tuple[Span, ...]  # span of F_i = f_i^{e_i}

    @property
    def m(self) -> int:
        return len(self.runs)

    def factor_bytes(self, i: int) -> bytes:
        """Bytes of f_i (1-based i)."""
        return self.factors[i - 1][0].slice(self.text)

    def run_bytes(self, i: int) -> bytes:
        """Bytes of F_i (1-based i)."""
        return self.runs[i - 1].slice(self.text)

    def exponent(self, i: int) -> int:
        return self.factors[i - 1][1]


def _assemble(s: bytes, cuts: list[tuple[int, int]]) -> LyndonFactorization:
    """Group consecutive equal factor occurrences (0-based (start, length) cuts) into runs."""
    factors: list[tuple[Span, int]] = []
    runs: list[Span] = []
    idx = 0
    while idx < len(cuts):
        start, length = cuts[idx]
        word = s[start : start + length]
        count = 1
        while idx + count < len(cuts):
            nstart, nlength = cuts[idx + count]
            if nlength != length or s[nstart : nstart + nlength] != word:
                break
            count += 1
        factors.append((Span(start + 1, start + length), count))
        runs.append(Span(start + 1, start + count * length))
        idx += count
    return LyndonFactorization(text=s, factors=tuple(factors), runs=tuple(runs))


def lyndon_factorize(s: bytes) -> LyndonFactorization:
    """Compute the Lyndon factorization of ``s`` (Duval's algorithm, O(n))."""
    n = len(s)
    cuts: list[tuple[int, int]] = []
    k = 0
    while k < n:
        i, j = k, k + 1
        while j < n and s[i] <= s[j]:
            i = k if s[i] < s[j] else i + 1
            j += 1
        period = j - i
        while k <= i:
            cuts.append((k, period))
            k += period
    return _assemble(s, cuts)


def oracle_lyndon_dp(s: bytes, max_len: int = DEFAULT_ORACLE_LIMIT) -> LyndonFactorization:
    """Independent factorization oracle: backtracking over every cut position.

    Enumerates all ways to split ``s`` into a lexicographically non-increasing
    sequence of Lyndon words (equal neighbours merge into runs) and demands
    that exactly one exists.  Exponential in principle, so guarded by
    ``max_len``; raise the bound explicitly for bigger cross-checks.
    """
    n = len(s)
    if n > max_len:
        raise ValueError(f"oracle limited to {max_len} symbols, got {n}")

    solutions: list[list[tuple[int, int]]] = []
    chosen: list[tuple[int, int]] = []

    def extend(pos: int, prev: bytes | None) -> None:
        if pos == n:
            solutions.append(list(chosen))
            return
        for end in range(pos + 1, n + 1):
            piece = s[pos:end]
            if prev is not None and piece > prev:
                continue
            if not is_lyndon(piece):
                continue
            chosen.append((pos, end - pos))
            extend(end, piece)
            chosen.pop()

    extend(0, None)
    if len(solutions) != 1:
        raise IntegrityError(
            f"uniqueness violated: {len(solutions)} factorizations for {s!r}"
        )
    return _assemble(s, solutions[0])
