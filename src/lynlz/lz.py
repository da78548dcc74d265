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
    prefix), with C-level substring search.  The loop keeps one invariant:
    ``q`` is the leftmost occurrence of ``s[b:b+lo]``, and while ``lo < hi``
    the phrase is ``lo`` to ``hi`` bytes long.  Four facts save most of the
    work:

    * **First byte.**  ``q`` starts at ``s[b]``'s leftmost occurrence,
      looked up with no find in a table of first positions that each fresh
      letter adds itself to.  A byte's first occurrence is always a
      fresh-letter phrase, as every other phrase copies earlier text, so the
      table holds a byte's first position whenever a later phrase starts
      with that byte, and a phrase is a fresh letter exactly when the lookup
      returns ``b``.  Then ``hi = b - q = 0``: the phrase is the one byte,
      with no compare and no find.
    * **Resume.**  Any occurrence of a longer prefix at ``r`` is also one of
      ``s[b:b+lo]``, so ``r >= q``: every probe searches ``s[q:b]`` only,
      and one that succeeds at ``r`` makes ``r`` the new ``q``.
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
      leftmost occurrence) and raises ``lo`` without another find.  The
      outer loop's one ``gallop`` call runs first and after each successful
      probe, only when ``s[q+lo] == s[b+lo]``, compared here as ``gallop``
      reads no single byte, so every call matches at least one byte.

    The inner loop is the probe policy: it bisects ``(lo, hi]`` until a
    probe succeeds, which moves ``q`` and goes back to extending, or the
    bounds meet.  The bisection stays: the extension only raises the lower
    bound, and a longer prefix may first occur to the right of ``q``,
    which only a failing probe rules out.
    """
    n = len(s)
    find = s.find
    first: dict[int, int] = {}  # byte -> its first position, for the bytes seen so far
    phrases: list[Span] = []
    b = 0  # 0-based phrase start
    while b < n:
        q = first.setdefault(s[b], b)  # q == b: a fresh letter, so hi == 0
        lo, hi = 1, min(b - q, n - b)
        while lo < hi:
            if s[q + lo] == s[b + lo]:
                lo += gallop(s, q + lo, b + lo, hi - lo)
            while lo < hi:  # the probe policy: bisect until a probe succeeds
                mid = (lo + hi + 1) // 2
                r = find(s[b : b + mid], q, b)
                if r >= 0:
                    q, lo = r, mid
                    hi = min(hi, b - q)
                    break
                hi = mid - 1
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

