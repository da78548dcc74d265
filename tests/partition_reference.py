"""The order-1 partition from its definition, sharing no code with ``lynlz.domains``.

The text is stripped right to left: with ``F_i`` the last run not yet in a
part, ``F_i``'s leftmost occurrence, searched from the text's start, is the
start of a run ``F_j`` (``j == i`` when it is the trivial one), and
``F_j .. F_i`` is the next part.  The parts, left to right, are the order-1
extended domains that ``extdom_partition`` and ``verify_lemmas`` build.
"""

from __future__ import annotations

from lynlz import Span, lyndon_factorize


def order1_partition(s: bytes) -> list[Span]:
    """The parts of ``s``'s order-1 partition, left to right, as spans ``F_j .. F_i``."""
    runs = lyndon_factorize(s).runs
    starts = [run.start for run in runs]
    parts = []
    i = len(runs)
    while i >= 1:
        last = runs[i - 1]
        j = starts.index(s.find(last.slice(s)) + 1) + 1  # ValueError if no run starts there
        parts.append(Span(runs[j - 1].start, last.end))
        i = j - 1
    parts.reverse()
    return parts
