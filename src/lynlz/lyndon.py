"""Lyndon factorization: Duval's linear scan plus a backtracking oracle.

The factorization of ``s`` is the unique decomposition
``s = f_1^{e_1} ... f_m^{e_m}`` into Lyndon words with ``f_1 > f_2 > ... > f_m``.
``F_i = f_i^{e_i}`` is the i-th *run*; ``m`` counts runs.  Run indices in the
public API are 1-based throughout.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby

from .errors import IntegrityError
from .text import Span, gallop

# Longest input the backtracking oracle accepts: its search is exponential in
# principle, and inputs up to 512 bytes take well under a second.
ORACLE_LIMIT = 512

# Match length into the period at which Duval's scan switches from byte
# steps to slice compares.
_GALLOP = 16


@dataclass(frozen=True)
class LyndonFactorization:
    text: bytes
    factors: tuple[tuple[Span, int], ...]  # (first period of run i, exponent e_i)
    runs: tuple[Span, ...]  # span of F_i = f_i^{e_i}

    @property
    def m(self) -> int:
        return len(self.runs)


def lyndon_factorize(s: bytes) -> LyndonFactorization:
    """Compute the Lyndon factorization of ``s`` (Duval's algorithm, O(n)).

    Each round of Duval's scan starts at ``k`` and moves ``j`` right while
    ``s[k..j)`` stays a prefix of a power of the Lyndon word ``w = s[k..k+p)``,
    with ``p = j - i``.  An equal byte ``s[i] == s[j]`` extends that periodic
    stretch by one; a larger one makes everything read so far the period; a
    smaller one ends the round.

    *Gallop.*  Once the match into the period reaches ``_GALLOP`` bytes,
    the stretch is extended by ``text.gallop``, slice compares of doubling,
    then halving, length: ``s[j:j+step] == s[i:i+step]`` holds exactly when
    the per-byte loop would take the equal branch ``step`` times in a row.
    That costs O(log stretch) Python steps, and a cap of 4096 bytes or more
    is first compared whole: ``a^n`` with ``n = 10^6`` takes one compare.

    *One run per round.*  The round ends with ``s[k..j) = w^e w'``,
    ``e = (j-k) // p`` and ``w'`` a proper prefix of ``w``.  Its factors are
    ``e`` copies of ``w``, and they form one whole run: the next round's
    suffix ``s[k+e*p..]`` is either ``w'`` alone (``j = n``), shorter than
    ``w``, or starts with ``w' c`` where ``c = s[j] < s[i] = w[|w'|]``, which
    is not a prefix of ``w``.  Either way the suffix does not start with
    ``w``, so its first factor is not ``w``.  Each round therefore appends
    one run directly.

    *Resume.*  After a round has read ``L`` bytes from ``k``, the scan's
    state is ``j = k + L`` and ``i = j - P(L)``, and it depends on
    ``s[k..k+L)`` alone.  The period ``P`` changes only in the larger-byte
    branch, which sets it to the number of bytes read; ``periods`` holds 1
    (the period after one byte) and each such number, in increasing order,
    so ``P(L)`` is its largest entry ``<= L``.  The next round starts at
    ``k' = k + e*p``, and its first bytes ``s[k'..j) = w'`` equal
    ``s[k..k+|w'|)``, which this round has read.  Rescanning them would
    rebuild this round's state at ``L = |w'|``, so the next round starts
    at ``j`` with ``i = j - P(|w'|)``, once the entries above ``|w'|`` are
    dropped; the others hold for it, as its prefix is the same.  An empty
    ``w'`` starts afresh at ``i, j = k', k' + 1``.  So ``j`` never moves
    left: each per-byte step and each galloped byte moves it right by one,
    except the one compare that ends a round on a smaller byte, so the
    per-byte steps plus the galloped bytes are at most ``n - 1 + m``.  Each
    entry of ``periods`` is pushed once and dropped at most once.
    """
    n = len(s)
    factors: list[tuple[Span, int]] = []
    runs: list[Span] = []
    # Each entry is a number of bytes the round has read and the period from
    # then on: 1 after its first byte, then one per reset by the a < b branch.
    periods = [1]
    push = periods.append
    k, i, j, before_k = 0, 0, 1, -1
    while k < n:
        while j < n:
            a, b = s[i], s[j]
            if a < b:
                i = k
                push(j - before_k)  # j + 1 - k bytes read, the new period
            elif a == b:
                i += 1
                if i - k >= _GALLOP:
                    j += 1
                    matched = gallop(s, i, j, n - j, _GALLOP)
                    i += matched
                    j += matched
                    continue
            else:
                break
            j += 1
        p = j - i
        e = (j - k) // p
        factors.append((Span(k + 1, k + p), e))
        runs.append(Span(k + 1, k + e * p))
        k += e * p
        before_k = k - 1
        rest = j - k
        if rest:
            del periods[bisect_right(periods, rest) :]
            i = j - periods[-1]
        else:
            del periods[1:]
            i, j = k, k + 1
    return LyndonFactorization(text=s, factors=tuple(factors), runs=tuple(runs))


def oracle_lyndon_dp(s: bytes) -> LyndonFactorization:
    """Independent factorization oracle: backtracking over every cut position.

    Enumerates all ways to split ``s`` into a lexicographically non-increasing
    sequence of Lyndon words (equal neighbours merge into runs) and demands
    that exactly one exists.  Exponential in principle, so guarded by
    ``ORACLE_LIMIT``.
    """
    n = len(s)
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_LIMIT} symbols, got {n}")

    def pieces(pos: int, prev: bytes | None) -> Iterator[bytes]:
        """The Lyndon pieces of ``s`` starting at ``pos`` that are at most ``prev``.

        A piece is Lyndon when none of its proper suffixes is smaller.  Once
        a piece has a smaller proper suffix ``v = piece[i:]`` that is not its
        prefix, ``v`` and ``piece`` first differ at some index ``k < len(v)``
        with ``v[k] < piece[k]``.  Every longer piece ``piece + x`` has the
        suffix ``v + x``, which differs from it first at the same index, so
        it is smaller and the longer piece is not Lyndon either: the scan
        stops there.  A smaller suffix that is a prefix (``a`` in ``aba``)
        does not stop it, since ``abb`` is Lyndon.
        """
        for end in range(pos + 1, n + 1):
            piece = s[pos:end]
            if prev is not None and piece > prev:
                # Every longer piece from pos has this one as a proper prefix,
                # so it is larger still and > prev: no solution is skipped.
                break
            lyndon = True
            for i in range(1, len(piece)):
                v = piece[i:]
                if v < piece:
                    if not piece.startswith(v):
                        return  # no longer piece is Lyndon either
                    lyndon = False
            if lyndon:
                yield piece

    solutions: list[list[tuple[int, bytes]]] = []
    stack = [(0, pieces(0, None))]  # per depth: its position and its untried pieces
    while stack:
        pos, untried = stack[-1]
        if pos == n:  # the positions on the stack cut s into one factorization
            cuts = [cut for cut, _ in stack]
            solutions.append([(a, s[a:b]) for a, b in zip(cuts, cuts[1:])])
        piece = next(untried, None)  # none at pos == n
        if piece is None:
            stack.pop()
        else:
            stack.append((pos + len(piece), pieces(pos + len(piece), piece)))
    if len(solutions) != 1:
        raise IntegrityError(f"uniqueness violated: {len(solutions)} factorizations for {s!r}")
    # Consecutive equal factors form one run; the key is the factor's bytes,
    # so equal-length different factors (``abb``, ``aab``) stay apart.
    factors: list[tuple[Span, int]] = []
    runs: list[Span] = []
    for word, group in groupby(solutions[0], key=lambda cut: cut[1]):
        starts = [pos for pos, _ in group]
        factors.append((Span(starts[0] + 1, starts[0] + len(word)), len(starts)))
        runs.append(Span(starts[0] + 1, starts[-1] + len(word)))
    return LyndonFactorization(text=s, factors=tuple(factors), runs=tuple(runs))
