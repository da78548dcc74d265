"""Non-overlapping Lempel-Ziv factorization ``s = p_1 ... p_z``.

Greedy left-to-right parse: each phrase is either the leftmost occurrence of
a letter, or the longest prefix of the remaining suffix that has a full
occurrence strictly inside the already parsed prefix (the occurrence ends at
or before the phrase start minus one, i.e. inside ``p_1 ... p_{i-1}``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .text import Span, gallop

ORACLE_LIMIT = 10_000


@dataclass(frozen=True)
class LZFactorization:
    text: bytes
    phrases: tuple[Span, ...]

    @property
    def z(self) -> int:
        return len(self.phrases)

    def boundaries_in(self, window: Span) -> int:
        """Number of phrase starts inside ``window`` (none in an empty one)."""
        # Span(x, e) sorts after (x,) and before (x + 1,), so these bisect by start.
        lo = bisect_left(self.phrases, (window.start,))
        return bisect_left(self.phrases, (window.end + 1,), lo) - lo


def lz_factorize(s: bytes) -> LZFactorization:
    """Compute the non-overlapping LZ factorization of ``s``.

    The phrase at ``b`` (0-based) is a fresh letter, or else the longest
    prefix of ``s[b:]`` that occurs in ``s[:b]``.  Its length is found by
    binary search over the monotone predicate "``s[b:b+L]`` occurs in
    ``s[:b]``" (an occurrence of a longer prefix is one of every shorter
    prefix), using C-level substring search, plus three facts that save most
    of the work:

    * **Resume.**  After a successful probe, ``q`` is the leftmost occurrence
      in ``s[:b]`` of ``s[b:b+lo]``, the longest prefix found so far.  Any
      occurrence of a longer prefix at ``r`` is also one of ``s[b:b+lo]``, so
      ``r >= q``: the next probe searches ``s[q:b]`` only.  A probe that
      succeeds at ``r`` makes ``r`` the new ``q`` by the same argument.
    * **Stop.**  The phrase is at most ``b - q`` bytes long: its leftmost
      occurrence ``r`` is also one of ``s[b:b+lo]``, so ``r >= q`` by
      *Resume*, and it fits in ``s[:b]``, so ``L <= b - r <= b - q``.  The
      upper bound ``hi`` starts at ``min(b - q, n - b)`` and drops to
      ``b - q`` whenever a probe moves ``q`` right, so a phrase stops
      probing once its occurrence reaches the phrase start.
    * **Extend.**  The occurrence at ``q`` is extended in place by
      ``text.gallop``, comparing ``s[q+lo:]`` with ``s[b+lo:]`` for at most
      ``hi - lo`` bytes.  Since ``hi <= min(b - q, n - b)``, the cap keeps
      the occurrence inside ``s[:b]`` and the prefix inside ``s``, so every
      extended length still occurs in ``s[:b]`` (at ``q``, which stays its
      leftmost occurrence) and raises ``lo`` without another find.  It is
      called only when the cap is at least 1 and the next bytes
      ``s[q+lo]`` and ``s[b+lo]`` match, so every call matches at least one
      byte: at family k=18 the parse makes 190 calls instead of 523, 333
      of which matched nothing.  The two bytes are compared here, as
      ``gallop`` reads no single byte.

    The bisection stays: the extension only raises the lower bound, and a
    longer prefix may first occur to the right of ``q``, which only a failing
    probe rules out.
    """
    n = len(s)
    find = s.find
    phrases: list[Span] = []
    b = 0  # 0-based phrase start
    while b < n:
        q = find(s[b : b + 1], 0, b)
        if q < 0:
            phrases.append(Span(b + 1, b + 1))  # leftmost occurrence of a fresh letter
            b += 1
            continue
        hi = min(b - q, n - b)
        lo = 1
        if lo < hi and s[q + lo] == s[b + lo]:
            lo += gallop(s, q + lo, b + lo, hi - lo)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            r = find(s[b : b + mid], q, b)
            if r < 0:
                hi = mid - 1
            else:
                q = r
                hi = min(hi, b - q)
                lo = mid
                if lo < hi and s[q + lo] == s[b + lo]:
                    lo += gallop(s, q + lo, b + lo, hi - lo)
        phrases.append(Span(b + 1, b + lo))
        b += lo
    return LZFactorization(text=s, phrases=tuple(phrases))


def oracle_lz_naive(s: bytes) -> LZFactorization:
    """Literal transcription of the greedy rule, one probe length at a time.

    Uses nothing but substring containment (``in``) in the already parsed
    prefix, so it stays an independent cross-check for ``lz_factorize``.
    Quadratic, so guarded by ``ORACLE_LIMIT``.
    """
    n = len(s)
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_LIMIT} symbols, got {n}")
    phrases: list[Span] = []
    b = 0
    while b < n:
        parsed = s[:b]
        if s[b : b + 1] not in parsed:
            phrases.append(Span(b + 1, b + 1))
            b += 1
            continue
        length = 1
        while b + length < n and s[b : b + length + 1] in parsed:
            length += 1
        phrases.append(Span(b + 1, b + length))
        b += length
    return LZFactorization(text=s, phrases=tuple(phrases))

