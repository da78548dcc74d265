"""Shared test constants and builders."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from itertools import product

import pytest

from lynlz import (
    CanonicalDecomposition,
    Domain,
    Span,
    bounds,
    cli,
    domains,
    generate_family,
    lyndon,
    lz,
    text,
)

# The CLI's subcommands, in the order its usage line lists them.
COMMANDS = ("lyndon", "lz", "domains", "canonical", "verify", "family", "search", "partition")

# 25-character worked example: five runs (abb)^2, ababbababbb, ababb, ab, a
FIGURE_STRING = b"abbabbababbababbbababbaba"

# Constructed five-run strings with known group structure (runs u, v, w, x, y
# where each of w, x, y has its product's leftmost occurrence at u's start).
GROUP_TOP_STRING = b"ababbababbb" + b"ababbababbabb" + b"ababb" + b"ab" + b"a"
GROUP_BOTTOM_STRING = (
    b"ababbababbbababbababbbb" + b"ababbababbb" + b"ababb" + b"ab" + b"a"
)


def is_lyndon(w: bytes) -> bool:
    """True if ``w`` is strictly smaller than all of its non-empty proper suffixes."""
    if not w:
        raise ValueError("empty word has no Lyndon status")
    return all(w[i:] > w for i in range(1, len(w)))


def strings(alphabet: bytes, max_len: int, min_len: int = 0) -> Iterator[bytes]:
    """Every string over ``alphabet`` of length ``min_len`` to ``max_len``, shortest first.

    Strings of one length come in ``itertools.product`` order, which is
    lexicographic when ``alphabet`` is sorted.
    """
    for n in range(min_len, max_len + 1):
        for tup in product(alphabet, repeat=n):
            yield bytes(tup)


def fibonacci_prefix(n: int) -> bytes:
    prev, cur = b"b", b"a"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


def thue_morse_prefix(n: int) -> bytes:
    """The first ``n`` letters of the Thue-Morse word over ``a < b``: abbabaab..."""
    word = b"a"
    while len(word) < n:
        word += word.translate(bytes.maketrans(b"ab", b"ba"))
    return word[:n]


class FindCounting(bytes):
    """A text that counts its own substring searches and the bytes they read.

    ``finds``, ``rfinds`` and ``counts`` count its ``find``, ``rfind`` and
    ``count`` calls, and ``read`` sums the bytes that all of them read.
    Slices of it are plain ``bytes``, so only calls on the text itself are
    counted: for ``lz_factorize`` and ``DomainLayer``, every substring
    search they make.  A find reads from its start up to the end of its
    match, or up to its end on a miss; an rfind from its end back to the
    start of its match, or back to its start on a miss; a count reads its
    whole range.
    """

    finds = 0
    rfinds = 0
    counts = 0
    read = 0

    def _range(self, start, end) -> tuple[int, int]:
        return slice(start, end).indices(len(self))[:2]

    def find(self, sub, start=None, end=None) -> int:
        r = super().find(sub, start, end)
        start, end = self._range(start, end)
        self.finds += 1
        self.read += (r + len(sub) if r >= 0 else end) - start
        return r

    def rfind(self, sub, start=None, end=None) -> int:
        r = super().rfind(sub, start, end)
        start, end = self._range(start, end)
        self.rfinds += 1
        self.read += end - (r if r >= 0 else start)
        return r

    def count(self, sub, start=None, end=None) -> int:
        start, end = self._range(start, end)
        self.counts += 1
        self.read += end - start
        return super().count(sub, start, end)


class ByteReadCounting(bytes):
    """A text that counts the single bytes read from it (``s[i]``) in ``byte_reads``
    and the slices taken of it (``s[i:j]``) in ``slice_reads``.

    For ``lyndon_factorize``, ``byte_reads`` is two reads per per-byte step
    of Duval's scan, and none for its galloped bytes.  ``memoryview`` slices
    read the buffer directly and are not counted.
    """

    byte_reads = 0
    slice_reads = 0

    def __getitem__(self, key):
        if isinstance(key, int):
            self.byte_reads += 1
        else:
            self.slice_reads += 1
        return super().__getitem__(key)


class GallopCounting:
    """Stands in for ``text.gallop``: counts its ``calls``, the ``misses`` that
    matched nothing, and sums the lengths it matched in ``galloped``."""

    galloped = 0
    calls = 0
    misses = 0

    def __call__(self, *args) -> int:
        matched = text.gallop(*args)
        self.calls += 1
        self.misses += matched == 0
        self.galloped += matched
        return matched


def _gallop_counter(monkeypatch, *modules) -> GallopCounting:
    """One ``GallopCounting`` standing in for ``gallop`` in every module given."""
    counter = GallopCounting()
    for module in modules:
        monkeypatch.setattr(module, "gallop", counter)
    return counter


@pytest.fixture
def lyndon_gallops(monkeypatch) -> GallopCounting:
    """Count the bytes that ``lyndon_factorize`` reads through ``gallop``."""
    return _gallop_counter(monkeypatch, lyndon)


@pytest.fixture
def lz_gallops(monkeypatch) -> GallopCounting:
    """Count the ``gallop`` calls that ``lz_factorize`` makes."""
    return _gallop_counter(monkeypatch, lz)


@pytest.fixture
def gallops(monkeypatch) -> GallopCounting:
    """Count the ``gallop`` calls of both parses together."""
    return _gallop_counter(monkeypatch, lyndon, lz)


def repeated_family_block(n: int) -> bytes:
    block = generate_family(12)
    return (block * (n // len(block) + 1))[:n]


def unit_run_domain(i: int, d: int, j: int) -> Domain:
    """Domain over a factorization whose runs all have length one."""
    if j < i:
        return Domain(i=i, d=d, j=j, span=Span(j, i - 1), associated=Span(j, j + d - 1))
    return Domain(i=i, d=d, j=i, span=Span(i, i - 1), associated=Span(i, i + d - 1))


def sixteen_run_decomposition() -> CanonicalDecomposition:
    """The worked 16-run decomposition: clusters with p = 3, 1, 2, 3 and three
    loose subdomains of orders 2, 3, 5 with sizes 2, 1, 0."""
    dom = unit_run_domain
    root = dom(15, 2, 1)
    sequence = (
        domains._make_group((dom(1, 3, 1), dom(2, 2, 1), dom(3, 1, 1))),
        dom(6, 2, 4),
        domains._make_group((dom(7, 1, 1),)),
        dom(9, 3, 8),
        domains._make_group((dom(10, 2, 1), dom(11, 1, 1))),
        dom(12, 5, 12),
        domains._make_group((dom(13, 4, 1), dom(14, 3, 1), root)),
    )
    return CanonicalDecomposition(root=root, sequence=sequence)


COUNTED = ("lyndon_factorize", "lz_factorize", "DomainLayer")


def _counting(counts: Counter, name: str, fn):
    """``fn`` wrapped to add one to ``counts[name]`` per call."""

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def call_counts(monkeypatch) -> Counter:
    """Count Lyndon parses, LZ parses and domain-layer builds.

    Each module that calls one of the three names (two functions and the
    ``DomainLayer`` class) gets a counting wrapper, so a call is counted
    whichever module makes it.
    """
    counts: Counter = Counter()
    for module in (domains, bounds, cli):
        for name in COUNTED:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _counting(counts, name, getattr(module, name)))
    return counts


@pytest.fixture
def span_news(monkeypatch) -> Counter:
    """Count validated ``Span`` constructions in ``counts["Span"]``."""
    counts: Counter = Counter()
    monkeypatch.setattr(Span, "__new__", staticmethod(_counting(counts, "Span", Span.__new__)))
    return counts


@pytest.fixture
def domain_work(monkeypatch) -> Counter:
    """Count the domain records that ``lynlz.domains`` builds, keyed by name.

    Calls of ``_domain``, ``_make_group`` and ``compute_domain`` through the
    module, and constructions of ``CanonicalDecomposition`` and
    ``BoundaryBudget``.
    """
    counts: Counter = Counter()
    for name in ("_domain", "_make_group", "compute_domain"):
        monkeypatch.setattr(domains, name, _counting(counts, name, getattr(domains, name)))
    for record in (domains.CanonicalDecomposition, domains.BoundaryBudget):
        new = _counting(counts, record.__name__, record.__new__)
        monkeypatch.setattr(record, "__new__", staticmethod(new))
    return counts


@pytest.fixture
def record_calls(monkeypatch) -> Counter:
    """Count ``LemmaCheck.record`` and ``LemmaCheck.record_many`` calls, keyed by method name."""
    counts: Counter = Counter()
    for name in ("record", "record_many"):
        method = getattr(domains.LemmaCheck, name)
        monkeypatch.setattr(domains.LemmaCheck, name, _counting(counts, name, method))
    return counts
