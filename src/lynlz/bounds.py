"""Size bounds beyond m < 2z: the lower-bound string family with its
closed-form counts, and the exhaustive search for extremal differences and
ratios.  The m < 2z check and the order-1 partition behind it are in
``domains``, which a sweep loads only to check the lemmas.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import product
from typing import Callable, Iterator, NamedTuple, TypeVar

from .errors import IntegrityError
from .lyndon import lyndon_factorize
from .lz import lz_factorize

_R = TypeVar("_R")


# Longest family string ``generate_family`` builds: about k^3/2 bytes, so k <= 270.
FAMILY_LIMIT = 10_000_000


def family_length(k: int) -> int:
    """Length of ``generate_family(k)``, k(k+1)(k+2)/2 - k + 2, without building it.

    B_i has i - 1 pieces a^i b a^j b (j = 1 .. i-1) and a^i b, so
    |B_i| = (i-1)(i+2) + i(i-1)/2 + i + 1 = 3i(i+1)/2 - 1; summing over
    i = 1 .. k and adding B_0 and the final 'a' gives the closed form.
    """
    if k < 0:
        raise ValueError("family index must be >= 0")
    return k * (k + 1) * (k + 2) // 2 - k + 2


def generate_family(k: int) -> bytes:
    """String number k of the lower-bound family: blocks B_0 .. B_k plus a final 'a'.

    B_0 = b, and B_i = (a^i b a^1 b)(a^i b a^2 b) ... (a^i b a^{i-1} b) a^i b.
    Its length is ``family_length(k)``, about k^3 / 2; above ``FAMILY_LIMIT``
    bytes (k > 270) it is refused before any byte is built.
    """
    n = family_length(k)  # ValueError below k = 0
    if n > FAMILY_LIMIT:
        raise ValueError(f"family k={k} has {n} bytes, above the limit of {FAMILY_LIMIT}")
    parts = [b"b"]
    for i in range(1, k + 1):
        head = b"a" * i + b"b"
        parts.extend(head + b"a" * j + b"b" for j in range(1, i))
        parts.append(head)
    parts.append(b"a")
    return b"".join(parts)


class FamilyCounts(NamedTuple):
    """Closed-form factorization sizes for family string k (valid for k >= 2)."""

    m_k: int
    z_k: int


def expected_counts(k: int) -> FamilyCounts:
    """m_k = k^2/2 + k/2 + 2 and z_k = k^2/2 - k/2 + 4, for k >= 2."""
    if k < 2:
        raise ValueError("formula domain starts at k = 2")
    return FamilyCounts(m_k=k * (k + 1) // 2 + 2, z_k=k * (k - 1) // 2 + 4)


def expected_lz_phrases(k: int) -> list[bytes]:
    """Full expected LZ phrase list for family string k (k >= 2).

    Base parse b, a, ba, aba, baaba; step j appends j - 1 phrases:
    a^{j-1}bab a^{j-1}, then ab a^r b a^{j-1} for r = 2 .. j-2, and finally
    ab a^{j-1} b a^j ba.
    """
    if k < 2:
        raise ValueError("formula domain starts at k = 2")
    phrases = [b"b", b"a", b"ba", b"aba", b"baaba"]
    for j in range(3, k + 1):
        tail = b"a" * (j - 1)
        phrases.append(tail + b"bab" + tail)
        phrases.extend(b"ab" + b"a" * r + b"b" + tail for r in range(2, j - 1))
        phrases.append(b"ab" + tail + b"b" + b"a" * j + b"ba")
    return phrases


# Most strings a sweep enumerates, unless its caller passes another ``limit``.
SEARCH_LIMIT = 10_000_000


class SearchRecord(NamedTuple):
    """Factorization sizes for one enumerated string."""

    string: bytes
    m: int
    z: int


class LengthSummary(NamedTuple):
    """Per-length extremes of m - z and m / z."""

    n: int
    count: int = 0  # shadows tuple.count, which nothing calls
    max_diff: int | None = None
    max_diff_string: bytes | None = None
    max_ratio: float | None = None
    max_ratio_string: bytes | None = None

    def merge(self, later: LengthSummary) -> LengthSummary:
        """The summary of this and later strings of the same length; a tie keeps the earlier string."""
        diff = ratio = self
        if later.max_diff is not None and (self.max_diff is None or later.max_diff > self.max_diff):
            diff = later
        if later.max_ratio is not None and (self.max_ratio is None or later.max_ratio > self.max_ratio):
            ratio = later
        return LengthSummary(
            self.n,
            self.count + later.count,
            diff.max_diff,
            diff.max_diff_string,
            ratio.max_ratio,
            ratio.max_ratio_string,
        )


def _alphabet(sigma: int) -> bytes:
    if sigma < 1 or sigma > 26:
        raise ValueError("alphabet size must be between 1 and 26")
    return bytes(ord("a") + c for c in range(sigma))


def _is_canonical(s: bytes) -> bool:
    """True when the used symbols, sorted, are already the smallest letters."""
    used = sorted(set(s))
    return used == list(range(ord("a"), ord("a") + len(used)))


def _measure(s: bytes, check_lemmas: bool) -> SearchRecord:
    if check_lemmas:
        from .domains import verify_lemmas  # loaded only here: a plain sweep skips it

        report = verify_lemmas(s)
        m, z = report.m, report.z
    else:
        m = lyndon_factorize(s).m
        z = lz_factorize(s).z
    if m >= 2 * z:
        raise IntegrityError(f"size bound violated: m={m}, z={z}, witness {s!r}")
    if check_lemmas and not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise IntegrityError(f"lemma checks failed ({failed}) on witness {s!r}")
    return SearchRecord(string=s, m=m, z=z)


def iter_search(
    sigma: int,
    max_len: int,
    *,
    dedupe: bool = False,
    check_lemmas: bool = False,
    jobs: int | None = None,
    limit: int = SEARCH_LIMIT,
) -> Iterator[SearchRecord]:
    """Enumerate all strings of length 1..max_len in length-then-lex order.

    Strings are measured a task at a time (see ``_plan``), in up to ``jobs``
    processes (None: the CPU count); records arrive in the same order for
    every job count.  Raises IntegrityError on the first task holding a string
    that violates any verified bound, after the records of the tasks before it.

    ``dedupe`` keeps a string only when its distinct letters are exactly the
    first letters of the alphabet, so one string survives from each class
    under order-preserving renaming: ``ac`` and ``bb`` go, ``ab`` and ``ba``
    both stay.  That drops 1 of the 65,536 binary strings of length 16 and
    2,046 of the 59,049 ternary strings of length 10.
    """
    tasks, jobs = _plan(sigma, max_len, jobs, limit)
    for records in _in_order(partial(_measured, sigma, dedupe, check_lemmas), tasks, jobs):
        yield from records


def _strings(letters: bytes, n: int, prefix: bytes, dedupe: bool) -> Iterator[bytes]:
    """Length-n strings starting with ``prefix``, in lex order (canonical ones if dedupe)."""
    for tup in product(letters, repeat=n - len(prefix)):
        s = prefix + bytes(tup)
        if not dedupe or _is_canonical(s):
            yield s


# Longest length a sweep accepts.  No longer sweep could finish: at sigma >= 2 it
# holds over 2^64 strings, and at sigma = 1 each length's witnesses are whole strings.
_MAX_LEN = 64


# Most strings one task enumerates.  It bounds the records a task returns, and
# so the memory of a worker and of the parent, at every job count.
_TASK_STRINGS = 4096

_Task = tuple[int, bytes]  # n, prefix; the sweep binds sigma, dedupe and check_lemmas


def _measured(sigma: int, dedupe: bool, check_lemmas: bool, task: _Task) -> list[SearchRecord]:
    n, prefix = task
    return [_measure(s, check_lemmas) for s in _strings(_alphabet(sigma), n, prefix, dedupe)]


def _worker(sigma: int, dedupe: bool, check_lemmas: bool, task: _Task) -> LengthSummary:
    n = task[0]
    records = _measured(sigma, dedupe, check_lemmas, task)
    if not records:  # a dedupe task can hold no canonical string
        return LengthSummary(n=n)
    # max() returns the first of equal maxima, so a tie keeps the earliest string.
    by_diff = max(records, key=lambda r: r.m - r.z)
    by_ratio = max(records, key=lambda r: r.m / r.z)
    return LengthSummary(
        n=n,
        count=len(records),
        max_diff=by_diff.m - by_diff.z,
        max_diff_string=by_diff.string,
        max_ratio=by_ratio.m / by_ratio.z,
        max_ratio_string=by_ratio.string,
    )


def _plan(sigma: int, max_len: int, jobs: int | None, limit: int) -> tuple[list[_Task], int]:
    """Tasks in enumeration order, and the worker count.

    Each length n is split by the shortest prefix p with sigma^(n-p) <= _TASK_STRINGS,
    whatever the job count.  The worker count (None: the CPU count) is clamped
    to the CPU count and the number of tasks, and is at least 1, so an empty
    sweep, or a job count of 0 or less, runs in process.  A sweep past ``limit``
    strings or _MAX_LEN is refused before any task is listed.
    """
    if max_len < 0:
        raise ValueError("max length must be >= 0")
    letters = _alphabet(sigma)
    splits = []  # (n, p) per length; prefixes are listed once every length passes
    total = 0
    for n in range(1, max_len + 1):
        total += sigma**n
        if total > limit:  # stop here: the full count can have thousands of digits
            raise ValueError(
                f"enumerating lengths 1..{max_len} over {sigma} letters"
                f" exceeds the cap of {limit} strings"
            )
        if n > _MAX_LEN:  # and here: with one letter the count is only max_len
            raise ValueError(f"max length must be <= {_MAX_LEN}")
        p = 0
        while sigma ** (n - p) > _TASK_STRINGS:
            p += 1
        splits.append((n, p))
    tasks = [(n, bytes(tup)) for n, p in splits for tup in product(letters, repeat=p)]
    cpus = os.cpu_count() or 1
    return tasks, max(1, min(cpus if jobs is None else jobs, cpus, len(tasks)))


def _in_order(fn: Callable[[_Task], _R], tasks: list[_Task], jobs: int) -> Iterator[_R]:
    """``fn`` over the tasks, results in task order; jobs > 1 runs them in a process pool."""
    if jobs == 1:
        yield from map(fn, tasks)
    else:
        from multiprocessing import Pool  # loaded only here: every other command skips it

        with Pool(processes=jobs) as pool:  # __exit__ terminates, aborting on violations
            yield from pool.imap(fn, tasks, chunksize=1)


def exhaustive_search(
    sigma: int,
    max_len: int,
    *,
    dedupe: bool = False,
    check_lemmas: bool = False,
    jobs: int | None = None,
    limit: int = SEARCH_LIMIT,
) -> list[LengthSummary]:
    """Sweep every string up to max_len, verifying bounds; one summary per length 1..max_len.

    Each task (see ``_plan``) is summarized where it runs, and the summaries
    merge in task order, so the result is the same for every job count.  The
    first violation found anywhere aborts the sweep with the witness string.
    ``dedupe`` skips the same strings as in ``iter_search``: those whose
    distinct letters are not the first letters of the alphabet.
    """
    tasks, jobs = _plan(sigma, max_len, jobs, limit)
    per_length = [LengthSummary(n=n) for n in range(1, max_len + 1)]
    for part in _in_order(partial(_worker, sigma, dedupe, check_lemmas), tasks, jobs):
        per_length[part.n - 1] = per_length[part.n - 1].merge(part)
    return per_length
