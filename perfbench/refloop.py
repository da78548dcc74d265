"""The reference loop that the benchmark's times are scaled by.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, slowing lynlz and this loop by about the same
factor.  The benchmark therefore times this fixed loop between ops and
reports an op's time multiplied by ``REF_LOOP_S`` over the loop's median
time around it: the op's time at the host speed at which the loop takes
``REF_LOOP_S``.  The loop uses no lynlz code and must never change, or times
from before and after the change stop being comparable."""

from __future__ import annotations

import random
import statistics
import time

# Nominal duration of one ``reference_loop()``: about its median on the
# 2 vCPU Xeon with Python 3.11.7 that the baseline was measured on.
REF_LOOP_S = 0.009
# Loops timed at each gap between ops.
LOOPS = 3

_DATA = bytes(range(256)) * 8
_TEXT = random.Random(0).randbytes(4096).translate(bytes(b"ab"[v & 1] for v in range(256)))
_PATTERNS = [_TEXT[i:i + 14] for i in range(0, 4000, 37)]


def reference_loop() -> int:
    """Fixed work in two equal parts, as lynlz's ops mix them.

    Interpreter work (byte indexing, comparisons, dict updates), and C-level
    scans (``bytes.find`` of short patterns in a binary text).  A host's
    speed can change the two by different factors.
    """
    data, d, s = _DATA, {}, 0
    for i in range(20_000):
        b = data[i & 2047]
        d[b] = d.get(b, 0) + i
        if b < 128:
            s += b
    for p in _PATTERNS:
        s += _TEXT.find(p, 1) + _TEXT.rfind(p)
    return s


def time_loops() -> list[float]:
    """Wall times of ``LOOPS`` consecutive reference loops (seconds)."""
    out = []
    for _ in range(LOOPS):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return out


def scale(loops: list[float]) -> float:
    """Factor that turns a time measured among ``loops`` into reference time."""
    return REF_LOOP_S / statistics.median(loops)
