"""The library's order-1 partition against the independent one in partition_reference.py."""

from __future__ import annotations

import ast
from itertools import chain, islice
from pathlib import Path

import pytest

import partition_reference
from conftest import FIGURE_STRING, strings
from lynlz import Span, domains, extdom_partition, extended_domain, generate_family
from lynlz.domains import _domain
from partition_reference import order1_partition


def _inputs():
    return chain(
        strings(b"ab", 12, min_len=1),
        strings(b"abc", 7, min_len=1),
        map(generate_family, range(2, 25)),
    )


def _disagrees(s: bytes) -> bool:
    # verify_lemmas(s).t is checked against the reference on the same
    # strings in tests/test_domains.py, beside the dense comparison.
    return [extended_domain(dom) for dom in extdom_partition(s).domains] != order1_partition(s)


def test_imports_only_the_lyndon_parse_and_span():
    tree = ast.parse(Path(partition_reference.__file__).read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == {("__future__", "annotations"), ("lynlz", "Span"), ("lynlz", "lyndon_factorize")}
    assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))


def test_figure_partition():
    # Runs (abb)^2, ababbababbb, ababb, ab, a: a occurs first inside (abb)^2,
    # so F_1 .. F_5 is one part.
    assert order1_partition(FIGURE_STRING) == [Span(1, 25)]


def test_matches_library():
    disagreeing = [s for s in _inputs() if _disagrees(s)]
    assert disagreeing == []


def _late(lf, i, d, q):
    """``_domain`` with each non-empty order-1 domain anchored one run to the right."""
    dom = _domain(lf, i, d, q)
    if d == 1 and dom.j + 1 < i:
        return _domain(lf, i, d, lf.runs[dom.j].start)
    return dom


@pytest.mark.parametrize("fault, count", [("first-part-dropped", 2_000), ("anchored-one-run-right", 3_000)])
def test_catches_library_side_faults(monkeypatch, fault, count):
    # Each fault patches the library only, so the reference must see it.
    if fault == "first-part-dropped":
        real = domains._dom1_partition
        monkeypatch.setattr(domains, "_dom1_partition", lambda lf: real(lf)[1:])
    else:
        monkeypatch.setattr(domains, "_domain", _late)
    assert any(map(_disagrees, islice(_inputs(), count)))
