"""Acceptance suite: one test per top-level guarantee of this package.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure report).  Run with::

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import math
import os
import random
import time
from itertools import product

from conftest import FIGURE_STRING, sixteen_run_decomposition
from lynlz import (
    Span,
    all_domains,
    boundary_budget,
    compute_domain,
    exhaustive_search,
    expected_counts,
    expected_lz_phrases,
    extended_domain,
    generate_family,
    lyndon_factorize,
    lz_factorize,
    oracle_lyndon_dp,
    oracle_lz_naive,
)

RANDOM_TRIALS = 10_000
RANDOM_MAX_LEN = 200
RANDOM_SEED = 0x1F2D


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_family_exactness():
    t0 = time.perf_counter()
    ok = True
    for k in range(2, 41):
        s = generate_family(k)
        counts = expected_counts(k)
        lf = lyndon_factorize(s)
        lz = lz_factorize(s)
        if lf.m != counts.m_k or lz.z != counts.z_k:
            ok = False
            break
        if [p.slice(s) for p in lz.phrases] != expected_lz_phrases(k):
            ok = False
            break
    # The elapsed time is printed for information only: the criterion is
    # exactness, and parse speed is measured by the benchmark in perfbench/.
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: family sizes and phrase lists exact for k = 2..40",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_worked_fixtures():
    ok = True
    s2 = generate_family(2)
    ok &= [p.slice(s2) for p in lz_factorize(s2).phrases] == [b"b", b"a", b"ba", b"aba", b"baaba"]
    s3 = generate_family(3)
    ok &= [p.slice(s3) for p in lz_factorize(s3).phrases] == [
        b"b", b"a", b"ba", b"aba", b"baaba", b"aababaa", b"abaabaaaba",
    ]
    lf = lyndon_factorize(FIGURE_STRING)
    ok &= lf.runs == (Span(1, 6), Span(7, 17), Span(18, 22), Span(23, 24), Span(25, 25))
    nonempty = {(d.i, d.d) for d in all_domains(lf) if not d.is_empty}
    ok &= nonempty == {(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)}
    ok &= compute_domain(lf, 4, 2).associated == Span(7, 9)
    ok &= extended_domain(compute_domain(lf, 3, 3)) == Span(7, 25)
    report("criterion 2: worked example fixtures bit-exact", ok)


def test_criterion_3_exhaustive_sweep():
    t0 = time.perf_counter()
    jobs = os.cpu_count() or 1
    binary = exhaustive_search(2, 16, check_lemmas=True, jobs=jobs)
    ternary = exhaustive_search(3, 10, check_lemmas=True, jobs=jobs)
    elapsed = time.perf_counter() - t0
    # The elapsed time is printed for information only: the criterion is
    # that every string passes, not how fast the sweep runs.
    counts = (sum(ls.count for ls in binary), sum(ls.count for ls in ternary))
    report(
        "criterion 3: size bound and all structural checks over binary <=16 and ternary <=10",
        counts == (131_070, 88_572),
        f"{counts[0]}+{counts[1]} strings, {elapsed:.0f}s, {jobs} jobs",
    )


def _factorization_parts(lf):
    return (lf.factors, lf.runs)


def test_criterion_4_oracle_equivalence():
    ok = True
    for n in range(0, 13):
        for tup in product(b"ab", repeat=n):
            s = bytes(tup)
            if _factorization_parts(lyndon_factorize(s)) != _factorization_parts(oracle_lyndon_dp(s)):
                ok = False
            if lz_factorize(s).phrases != oracle_lz_naive(s).phrases:
                ok = False
    rng = random.Random(RANDOM_SEED)
    for _ in range(RANDOM_TRIALS):
        sigma = rng.choice((2, 3, 4))
        n = rng.randint(1, RANDOM_MAX_LEN)
        s = bytes(rng.choice(b"abcd"[:sigma]) for _ in range(n))
        if _factorization_parts(lyndon_factorize(s)) != _factorization_parts(oracle_lyndon_dp(s)):
            ok = False
        if lz_factorize(s).phrases != oracle_lz_naive(s).phrases:
            ok = False
    report(
        "criterion 4: oracle equivalence on binary <=12 and 10,000 random strings <=200",
        ok,
    )


def test_criterion_5_sixteen_run_budget():
    budget = boundary_budget(sixteen_run_decomposition())
    ok = (
        budget.cluster_boundaries == 5
        and budget.loose_boundaries == 5
        and budget.total == 11
        and budget.lower_bound == 8
        and budget.total >= budget.lower_bound
        and sum(budget.loose_sizes)
        == budget.k - budget.leftmost_cluster - sum(budget.loose_orders) + budget.d
        and budget.cluster_boundaries
        == budget.leftmost_cluster
        - 1
        + sum(budget.loose_orders)
        - budget.t
        - budget.d
        - sum(1 for dh in budget.loose_orders[:-1] if dh > 1)
    )
    report("criterion 5: 16-run decomposition budget arithmetic", ok)


def test_criterion_6_difference_growth():
    ok = all(expected_counts(k).m_k - expected_counts(k).z_k == k - 2 for k in range(2, 41))
    report("criterion 6a: m_k - z_k = k - 2 for k = 2..40", ok)


def test_criterion_6_ratio_band():
    # Envelope for r_k = (m_k - z_k) / sqrt(z_k), k = 10..40, derived from the
    # closed forms m_k = k(k+1)/2 + 2 and z_k = k(k-1)/2 + 4:
    #   r_k = (k - 2) / sqrt(k(k-1)/2 + 4) = sqrt(2) (k - 2) / sqrt(k^2 - k + 8).
    # - r_k < sqrt(2), because (k - 2)^2 = k^2 - 4k + 4 < k^2 - k + 8 for k >= 1.
    # - r_k increases strictly: d/dk of (k - 2)^2 / (k^2 - k + 8) has numerator
    #   (k - 2) * (3k + 14), which is positive for k > 2.
    # - r_k = sqrt(2) (1 - 2/k) (1 - 1/k + 8/k^2)^(-1/2)
    #       = sqrt(2) (1 - 3/(2k) + O(1/k^2)),
    #   so sqrt(2) - r_k ~ 3 / (sqrt(2) k) = 2.12 / k; k (sqrt(2) - r_k) falls
    #   from 2.714 at k = 10 to 2.283 at k = 40, hence sqrt(2) - r_k <= 3/k.
    # The band [sqrt(2) - 3/k, sqrt(2)) narrows to [1.339, 1.414) at k = 40; a
    # z_k growing twice as fast, or m_k - z_k growing other than as
    # sqrt(z_k), leaves it.
    limit = math.sqrt(2)
    outliers = []
    previous = -math.inf
    for k in range(10, 41):
        counts = expected_counts(k)
        ratio = (counts.m_k - counts.z_k) / math.sqrt(counts.z_k)
        if not (previous < ratio < limit and limit - ratio <= 3 / k):
            outliers.append((k, round(ratio, 4), round(limit - ratio, 4)))
        previous = ratio
    report(
        "criterion 6b: (m_k - z_k)/sqrt(z_k) increasing, below sqrt(2) and within 3/k of it"
        " for k = 10..40",
        not outliers,
        f"outliers (k, ratio, sqrt(2) - ratio): {outliers}" if outliers else "",
    )
