"""Byte-string primitives: spans and the galloping match.

All positions exposed by this package are 1-based and inclusive, so a
substring of ``s`` is addressed exactly as ``s[i..j]``.  Symbols are single
bytes ordered by their unsigned numeric value, so the lexicographic order of
words is Python's own ``bytes`` order: a proper prefix precedes its
extensions, otherwise the first mismatching byte decides.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

# Cap from which ``gallop`` first compares the whole cap in one call.
_WHOLE_CAP = 4096


class _SpanFields(NamedTuple):
    start: int
    end: int


class Span(_SpanFields):
    """1-based inclusive interval ``[start..end]`` inside a text.

    The empty span anchored at position ``p`` is encoded as ``Span(p, p - 1)``;
    this keeps span arithmetic uniform (length 0, start = anchor).

    A named tuple, so fields are read at C speed; ``__new__`` validates every
    construction, including ``_replace``, ``pickle`` and ``copy``.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> "Span":
        if start < 1 or end < start - 1:
            raise ValueError(f"invalid span [{start}..{end}]")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Span":
        return cls(*iterable)

    @classmethod
    def empty(cls, anchor: int) -> "Span":
        return cls(anchor, anchor - 1)

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def is_empty(self) -> bool:
        return self.end < self.start

    def slice(self, s: bytes) -> bytes:
        """Bytes of this span within ``s``."""
        return s[self.start - 1 : self.end]

    def contains(self, other: "Span") -> bool:
        """True if ``other`` lies inside this span (empty spans always fit)."""
        if other.is_empty:
            return True
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Span") -> bool:
        """True if the two spans share at least one position."""
        if self.is_empty or other.is_empty:
            return False
        return self.start <= other.end and other.start <= self.end


def gallop(s: bytes, i: int, j: int, limit: int, step: int = 1) -> int:
    """Length of the longest common prefix of ``s[i:]`` and ``s[j:]``, capped at ``limit``.

    Slice compares of doubling, then halving, length, with ``step`` a power
    of two as the first length: O(log result) Python steps.  The doubling
    phase ends with the result below ``k + step``: the compare of ``step``
    more bytes failed, or would pass ``limit``.  Each halving keeps that
    bound, so at ``step = 1`` the result is ``k``.  The caller keeps both
    ``i + limit`` and ``j + limit`` within ``len(s)``.

    A cap of ``_WHOLE_CAP`` bytes or more is first compared whole, in one
    ``startswith`` call on a ``memoryview`` of ``s[j:j+limit]``, which copies
    nothing and stops at the first mismatch.  It holds exactly when all
    ``limit`` bytes match, which is when the result is ``limit``, so the
    result is unchanged.  The threshold is measured: at 1024 bytes, the two
    parses of family k=18 (3,404 bytes; Duval's caps are the rest of the
    text) try whole compares that fail and get about 1% slower, while at
    4096 none of its caps reaches the threshold.  The guard reads
    no single byte ``s[x]``: the tests count such reads as per-byte steps
    of Duval's scan, and bound those.
    """
    if limit >= _WHOLE_CAP and s.startswith(memoryview(s)[j : j + limit], i):
        return limit
    k = 0
    while k + step <= limit and s[i + k : i + k + step] == s[j + k : j + k + step]:
        k += step
        step *= 2
    while step > 1:
        step //= 2
        if k + step <= limit and s[i + k : i + k + step] == s[j + k : j + k + step]:
            k += step
    return k
