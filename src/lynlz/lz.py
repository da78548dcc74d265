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

# Prefix of the text in which the parse counts its letters to choose the
# rarest one.  Measured (2 vCPU, Python 3.11.7): one letter's count takes
# 2-4 us over 4096 bytes, but 0.1-0.15 ms over a whole repetitive text of
# 3*10^5 bytes (1.4 ms over random text), which made the benchmark's
# parse-repetitive op 5.2 -> 5.65 ms.
_COUNTED = 4096


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
    the phrase is ``lo`` to ``hi`` bytes long.  Five facts save most of the
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
    * **Rare end.**  A probe tries the length that ends on the last
      occurrence of the parse's rarest letter in ``((lo + mid) // 2,
      mid]``, found with one ``rfind``, and the midpoint ``mid`` when no
      such byte lies there.  CPython's ``bytes.find`` tests each window's
      last byte first and shifts past it on a mismatch (Horspool), so a
      needle ending on a rare letter is rejected at most windows with one
      compare: a failing find over the first 1,780 bytes of family k=18
      (where ``a`` is 9.5 times as common as ``b``) took 6.5 us with a
      60-byte needle ending on ``a`` and 2.9 us with it cut to end on its
      last ``b`` (2 vCPU, Python 3.11.7).  The rule is exact: the
      predicate is monotone, so any length in ``(lo, hi]`` is a valid
      probe, and ``q`` stays the leftmost occurrence by *Resume*.  It
      keeps the bisection's progress: the length is above
      ``(lo + mid) // 2 >= lo`` and at most ``mid <= hi``, so either
      outcome shrinks ``(lo, hi]``, to at most about three quarters of
      its length.  The letter is chosen once, at the parse's first probe,
      among the letters seen so far, by counting them in the first
      ``_COUNTED`` bytes.  A text whose phrases need no probe counts no
      letter, and a wrong choice costs only speed.

    The inner loop is the probe policy: it bisects ``(lo, hi]`` until a
    probe succeeds, which moves ``q`` and goes back to extending, or the
    bounds meet.  The bisection stays: the extension only raises the lower
    bound, and a longer prefix may first occur to the right of ``q``,
    which only a failing probe rules out.
    """
    n = len(s)
    find, rfind = s.find, s.rfind
    first: dict[int, int] = {}  # byte -> its first position, for the bytes seen so far
    rare = -1  # the byte probes end on, chosen at the first probe
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
                if rare < 0:
                    rare = min(first, key=lambda c: s.count(c, 0, _COUNTED))
                e = rfind(rare, b + (lo + mid) // 2, b + mid)
                if e >= 0:
                    mid = e - b + 1
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

