"""Benchmark workloads: seeded inputs, the timed op, and the traced probes.

Each workload defines one op.  ``make_input`` builds the op's input from the
workload's seeded generator outside the timed region; ``run`` is the op
itself; ``check`` judges its output with ``checks``.  In a traced run,
``probe`` also calls each layer's public functions on the same input, one
span per call, so every layer's cost is timed from outside the package.

Inputs whose cost must not depend on the seed (the repetitive texts and the
family string) are relabelled per op by an order-preserving letter pair
drawn from the seed.  Lyndon and LZ factorizations depend only on the order
and equality of letters, so the work is identical while no two ops see the
same bytes.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass

from lynlz import (
    all_domains,
    boundary_budget,
    canonical_decomposition,
    check_theorem,
    extdom_partition,
    find_p_groups,
    find_tandem_domains,
    lyndon_factorize,
    lz_factorize,
    verify_lemmas,
)
from lynlz.cli import main as cli_main

import checks

_BINARY = bytes(b"ab"[v & 1] for v in range(256))


@dataclass(frozen=True)
class Text:
    """A generated text and the letters that stand for ``a < b`` in it."""

    data: bytes
    letters: bytes = b"ab"

    def canonical(self) -> bytes:
        return self.data.translate(bytes.maketrans(self.letters, b"ab"))


def relabel(text: bytes, letters: bytes) -> Text:
    return Text(text.translate(bytes.maketrans(b"ab", letters)), letters)


def letter_pair(rng: random.Random) -> bytes:
    x, y = sorted(rng.sample(range(ord("a"), ord("z") + 1), 2))
    return bytes([x, y])


def fibonacci_prefix(n: int) -> bytes:
    prev, cur = b"b", b"a"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


def capture(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return its exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


class ParseChecker:
    """Checks Lyndon and LZ outputs once per distinct (canonical text, output)."""

    def __init__(self) -> None:
        self.verified: set[tuple[bytes, tuple, tuple]] = set()

    def __call__(self, text: Text, lf, lz) -> str | None:
        runs = tuple(
            (run.start, run.end, span.length, exp) for run, (span, exp) in zip(lf.runs, lf.factors)
        )
        phrases = tuple((p.start, p.end) for p in lz.phrases)
        if len(runs) != lf.m or len(phrases) != lz.z:
            return "reported m or z disagrees with the listed runs or phrases"
        key = (text.canonical(), runs, phrases)
        if key in self.verified:
            return None
        data = text.data
        reason = (
            checks.check_lyndon(data, list(runs))
            or checks.check_lz(data, list(phrases))
            or checks.check_size_bound(lf.m, lz.z)
        )
        if reason is None:
            self.verified.add(key)
        return reason


def probe_library(text: Text, tr, counts: Counter, parse_check: ParseChecker):
    """Call each library layer once on ``text``, one span per public call.

    Returns the check verdict (``None`` when every output is correct) and
    the LZ factorization, for checks particular to the input.
    """
    s = text.data
    # The calls `lynlz verify` makes come first, while little else is alive,
    # so the cyclic collector costs them what it costs inside the CLI.
    with tr.span("domains.verify"):
        report = verify_lemmas(s)
    with tr.span("bounds.theorem"):
        theorem = check_theorem(s)
    with tr.span("bounds.partition"):
        partition = extdom_partition(s)
    with tr.span("lyndon.factorize"):
        lf = lyndon_factorize(s)
    with tr.span("lz.factorize"):
        lz = lz_factorize(s)
    with tr.span("domains.table"):
        domains = all_domains(lf)
    with tr.span("domains.tandems"):
        find_tandem_domains(lf)
    with tr.span("domains.groups"):
        find_p_groups(lf)
    nonempty = [dom for dom in domains if not dom.is_empty]
    for dom in nonempty:
        with tr.span("domains.canonical"):
            cd = canonical_decomposition(lf, dom)
        with tr.span("domains.budget"):
            boundary_budget(cd)

    counts["lyndon.runs"] += lf.m
    counts["lz.phrases"] += lz.z
    counts["text.bytes"] += len(s)
    counts["domains.table_entries"] += len(domains)
    counts["domains.nonempty"] += len(nonempty)
    for c in report.checks:
        counts["domains.check_instances"] += c.instances
        counts["domains.check_failures"] += c.failures
        counts[f"domains.check.{c.name}.instances"] += c.instances

    reason = parse_check(text, lf, lz)
    if reason is None and not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        reason = f"verify_lemmas failed {failed}"
    if reason is None and (theorem.m, theorem.z, theorem.passes) != (lf.m, lz.z, True):
        reason = f"check_theorem reports m={theorem.m}, z={theorem.z}, passes={theorem.passes}"
    if reason is None and partition.t != theorem.t:
        reason = f"extdom_partition has {partition.t} parts, check_theorem {theorem.t}"
    return reason, lz


class ParseWorkload:
    """Op: ``lyndon_factorize`` then ``lz_factorize`` on each text of the input."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.parse_check = ParseChecker()

    def run(self, texts: list[Text], tr) -> list:
        out = []
        for text in texts:
            with tr.span("lyndon.factorize"):
                lf = lyndon_factorize(text.data)
            with tr.span("lz.factorize"):
                lz = lz_factorize(text.data)
            out.append((lf, lz))
        return out

    def check(self, texts: list[Text], out: list) -> str | None:
        for text, (lf, lz) in zip(texts, out, strict=True):
            reason = self.parse_check(text, lf, lz)
            if reason:
                return reason
        return None

    def probe(self, texts: list[Text], out: list, tr, counts: Counter) -> str | None:
        for text, (lf, lz) in zip(texts, out):
            counts["lyndon.runs"] += lf.m
            counts["lz.phrases"] += lz.z
            counts["text.bytes"] += len(text.data)
        return None


class ParseRandom(ParseWorkload):
    """One random binary text of 10^4 bytes per op: many short LZ phrases."""

    name = "parse-random"
    TEXT_LEN = 10_000

    def make_input(self) -> list[Text]:
        return [Text(self.rng.randbytes(self.TEXT_LEN).translate(_BINARY))]


class ParseRepetitive(ParseWorkload):
    """Four highly repetitive texts of 3*10^5 bytes per op: few, long LZ phrases.

    The op takes one text of each pattern (Fibonacci prefix, a^n, (ab)^n and
    the family string for k = 12 repeated), so every op does the same work.
    One text per op would give a latency distribution with four modes whose
    median falls between two of them.
    """

    name = "parse-repetitive"
    TEXT_LEN = 300_000
    FAMILY_K = 12

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        n = self.TEXT_LEN
        block = checks.family_text(self.FAMILY_K)
        self.patterns = [
            fibonacci_prefix(n),
            b"a" * n,
            b"ab" * (n // 2),
            (block * (n // len(block) + 1))[:n],
        ]

    def make_input(self) -> list[Text]:
        return [relabel(p, letter_pair(self.rng)) for p in self.patterns]


class VerifyFamily:
    """Op: ``lynlz verify --format json`` in-process on family string k = 18."""

    name = "verify-family"
    K = 18

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.base = checks.family_text(self.K)
        self.m_k, self.z_k = checks.family_counts(self.K)
        self.phrases = checks.family_phrases(self.K)
        self.parse_check = ParseChecker()

    def make_input(self) -> Text:
        return relabel(self.base, letter_pair(self.rng))

    def run(self, text: Text, tr) -> tuple[int, str]:
        with tr.span("cli.main"):
            return capture(["verify", "--format", "json", "--text", text.data.decode("latin-1")])

    def check(self, text: Text, out: tuple[int, str]) -> str | None:
        code, stdout = out
        return checks.check_verify_output(code, stdout, len(text.data), self.m_k, self.z_k)

    def probe(self, text: Text, out: tuple[int, str], tr, counts: Counter) -> str | None:
        counts["cli.output_bytes"] += len(out[1])
        reason, lz = probe_library(text, tr, counts, self.parse_check)
        if reason is None:
            expected = [p.translate(bytes.maketrans(b"ab", text.letters)) for p in self.phrases]
            reason = checks.check_family_phrases(
                text.data, [(p.start, p.end) for p in lz.phrases], expected
            )
        return reason


WORKLOADS = {w.name: w for w in (ParseRandom, ParseRepetitive, VerifyFamily)}
