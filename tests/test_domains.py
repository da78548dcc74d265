from __future__ import annotations

import ast
import random
import tracemalloc
from collections import Counter
from itertools import chain, count, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    FIGURE_STRING,
    FindCounting,
    GROUP_BOTTOM_STRING,
    GROUP_TOP_STRING,
    sixteen_run_decomposition,
    strings,
    unit_run_domain,
)
import dense_reference
import lynlz
from dense_reference import (
    dense_budget,
    dense_groups,
    dense_table,
    dense_tandems,
    dense_verify_lemmas,
)
from lynlz import (
    CanonicalDecomposition,
    DomainLayer,
    IntegrityError,
    LyndonFactorization,
    LZFactorization,
    PGroup,
    Span,
    all_domains,
    boundary_budget,
    canonical_decomposition,
    compute_domain,
    extended_domain,
    find_p_groups,
    find_tandem_domains,
    generate_family,
    lyndon_factorize,
    lz_factorize,
    verify_lemmas,
)
from lynlz.domains import (
    CHECK_NAMES,
    LemmaCheck,
    _budget,
    _decompose,
    _domain,
    _empty_window_failures,
    _extent,
    _make_group,
    _tiles,
)
from partition_reference import order1_partition


@pytest.fixture
def fig_lf():
    return lyndon_factorize(FIGURE_STRING)


# Each record type and the one function allowed to call its constructor.
_CONSTRUCTORS = {"Domain": "_domain", "PGroup": "_make_group"}


def _constructor_calls(node: ast.AST, enclosing: str | None = None):
    """(record, innermost enclosing function) for every record constructor call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            callee = child.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name in _CONSTRUCTORS:
                yield name, enclosing
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else enclosing
        yield from _constructor_calls(child, inner)


def test_one_constructor_per_record():
    # Every Domain comes from _domain and every PGroup from _make_group, so
    # a rule for building either one lives in one place.
    calls = [
        (path.name, record, enclosing)
        for path in sorted(Path(lynlz.__file__).parent.glob("*.py"))
        for record, enclosing in _constructor_calls(ast.parse(path.read_text()))
    ]
    assert {record for _, record, _ in calls} == set(_CONSTRUCTORS)
    assert [call for call in calls if call[2] != _CONSTRUCTORS[call[1]]] == []


class TestComputeDomain:
    def test_order_two_of_fourth_run(self, fig_lf):
        dom = compute_domain(fig_lf, 4, 2)
        assert (dom.j, dom.size) == (2, 2)
        assert dom.span == Span(7, 22)
        assert dom.associated == Span(7, 9)

    def test_empty_domain_of_second_run(self, fig_lf):
        dom = compute_domain(fig_lf, 2, 1)
        assert dom.is_empty and dom.j == 2 and dom.size == 0
        assert dom.span == Span.empty(7)
        assert dom.associated == Span(7, 17)

    def test_empty_domain_keeps_higher_orders_empty(self, fig_lf):
        dom = compute_domain(fig_lf, 2, 2)
        assert dom.is_empty
        assert dom.associated == Span(7, 22)

    def test_order_three_of_third_run(self, fig_lf):
        dom = compute_domain(fig_lf, 3, 3)
        assert dom.span == Span(7, 17) and dom.j == 2
        assert dom.associated == Span(7, 14)

    @pytest.mark.parametrize(
        "i, d, message",
        [
            pytest.param(2, 5, "order exceeds factorization: i=2, d=5, m=5", id="2-5"),
            pytest.param(5, 2, "order exceeds factorization: i=5, d=2, m=5", id="5-2"),
            pytest.param(0, 1, "run and order must be at least 1: i=0, d=1", id="0-1"),
            pytest.param(6, 1, "run exceeds factorization: i=6, m=5", id="6-1"),
            pytest.param(1, 0, "run and order must be at least 1: i=1, d=0", id="1-0"),
        ],
    )
    def test_out_of_range(self, fig_lf, i, d, message):
        with pytest.raises(ValueError) as excinfo:
            compute_domain(fig_lf, i, d)
        assert str(excinfo.value) == message


class TestExtendedDomain:
    def test_examples(self, fig_lf):
        assert extended_domain(compute_domain(fig_lf, 3, 3)) == Span(7, 25)
        assert extended_domain(compute_domain(fig_lf, 4, 2)) == Span(7, 25)
        assert extended_domain(compute_domain(fig_lf, 2, 1)) == Span(7, 17)

    def test_matches_definition(self):
        # extdom_d(F_i) = F_j .. F_{i+d-1}, the window itself when j == i.
        for s in chain(strings(b"ab", 12, 1), map(generate_family, range(2, 13))):
            lf = lyndon_factorize(s)
            runs = lf.runs
            for dom in all_domains(lf):
                expected = Span(runs[dom.j - 1].start, runs[dom.i + dom.d - 2].end)
                assert extended_domain(dom) == expected, (s, dom.i, dom.d)


class TestTiles:
    @pytest.mark.parametrize(
        "spans, start, end, expected",
        [
            pytest.param([(3, 5), (6, 6), (7, 10)], 3, 10, True, id="exact-cover"),
            pytest.param([(3, 5), (7, 10)], 3, 10, False, id="gap"),
            pytest.param([(3, 6), (6, 10)], 3, 10, False, id="overlap"),
            pytest.param([(3, 5), (6, 8)], 3, 10, False, id="stops-short"),
            pytest.param([(3, 5), (6, 11)], 3, 10, False, id="overshoots"),
            pytest.param([(4, 5), (6, 10)], 3, 10, False, id="starts-late"),
            pytest.param([], 3, 10, False, id="empty-sequence"),
            pytest.param([], 3, 2, True, id="empty-sequence-empty-range"),
        ],
    )
    def test_cases(self, spans, start, end, expected):
        assert _tiles([Span(*sp) for sp in spans], start, end) is expected


class TestAllDomains:
    def test_figure_nonempty_set(self, fig_lf):
        domains = all_domains(fig_lf)
        assert len(domains) == 15  # every (i, d) with i + d - 1 <= 5
        nonempty = {
            (dom.i, dom.d): (dom.span.start, dom.span.end)
            for dom in domains
            if not dom.is_empty
        }
        assert nonempty == {
            (3, 1): (7, 17),
            (3, 2): (7, 17),
            (3, 3): (7, 17),
            (4, 1): (1, 22),
            (4, 2): (7, 22),
            (5, 1): (1, 24),
        }

    def test_single_run_word(self):
        lf = lyndon_factorize(b"ab")
        domains = all_domains(lf)
        assert len(domains) == 1
        assert domains[0].is_empty and domains[0].associated == Span(1, 2)

    def test_matches_quadratic_rescan(self):
        # Independent reference: locate each run product by a quadratic scan.
        s = generate_family(2)
        lf = lyndon_factorize(s)
        for dom in all_domains(lf):
            alpha = Span(lf.runs[dom.i - 1].start, lf.runs[dom.i + dom.d - 2].end).slice(s)
            first = min(
                i + 1 for i in range(len(s)) if s[i : i + len(alpha)] == alpha
            )
            assert dom.associated.start == first
            if first == lf.runs[dom.i - 1].start:
                assert dom.is_empty
            else:
                assert lf.runs[dom.j - 1].start == first

    def test_table_matches_per_entry_search(self):
        # The layer starts each row at its head's leftmost occurrence, resumes
        # each order's search at the previous order's occurrence and stops at
        # the first empty order e_i; compute_domain searches every entry from
        # the text's start.  all_domains fills in the empty orders and must
        # list exactly the dense reference table, and layer.domain must
        # return every entry, empty orders included.  The family, the
        # single-letter runs and the random bytes give heads whose leftmost
        # occurrence lies well right of the text's start.
        rng = random.Random(37)
        inputs = chain(
            strings(b"ab", 12, min_len=1),
            strings(b"abc", 7, min_len=1),
            (generate_family(k) for k in range(2, 17)),
            (
                bytes(chain.from_iterable([c] * e for c, e in zip(letters, exps)))
                for letters in (b"ab", b"ba", b"aba", b"bab", b"cba", b"abc", b"cab")
                for exps in product(range(1, 6), repeat=len(letters))
            ),
            (bytes(rng.choices(range(256), k=rng.randint(1, 300))) for _ in range(50)),
        )
        for s in inputs:
            lf = lyndon_factorize(s)
            reference = {
                (i, d): compute_domain(lf, i, d)
                for i in range(1, lf.m + 1)
                for d in range(1, lf.m - i + 2)
            }
            layer = DomainLayer(lf)
            for i, row in enumerate(layer.rows, 1):
                e = len(row) + 1  # the first empty order
                assert list(row) == [reference[(i, d)] for d in range(1, e)], s
                assert not any(dom.is_empty for dom in row), s
                assert all(reference[(i, d)].is_empty for d in range(e, lf.m - i + 2)), s
            assert all(layer.domain(i, d) == dom for (i, d), dom in reference.items()), s
            domains = all_domains(lf)
            assert domains == list(reference.values()), s
            assert domains == list(dense_table(lf).values()), s


class TestLayerWork:
    """The layer's finds and the bytes they read, counted on the family's text."""

    @pytest.mark.parametrize(
        "k, finds, max_mb",
        # One find per distinct head (20 at k=18, 42 at k=40) over 190 and 861
        # without the head bound, which read 0.237 and 11.35 MB.
        [(18, 210, 0.05), (40, 903, 1.0)],
    )
    def test_family(self, k, finds, max_mb):
        s = FindCounting(generate_family(k))
        lf = lyndon_factorize(s)
        DomainLayer(lf)
        assert s.finds == finds
        assert s.read <= max_mb * 1e6


class TestTandemDomains:
    def test_figure_list(self, fig_lf):
        tandems = find_tandem_domains(fig_lf)
        assert [(td.i, td.d) for td in tandems] == [(2, 1), (2, 2), (2, 3), (3, 2)]
        by_key = {(td.i, td.d): td for td in tandems}
        assert by_key[(3, 2)].associated == Span(10, 14)  # "bbaba"
        assert by_key[(3, 2)].associated.slice(FIGURE_STRING) == b"bbaba"

    def test_no_tandems_for_single_run(self):
        assert find_tandem_domains(lyndon_factorize(b"ab")) == []

    def test_tandems_are_two_member_groups(self):
        lf = lyndon_factorize(GROUP_BOTTOM_STRING)
        tandems = find_tandem_domains(lf)
        assert len(tandems) == 10 and tandems == DomainLayer(lf).tandems
        assert all(type(td) is PGroup and td.p == len(td.members) == 2 for td in tandems)

    @pytest.mark.parametrize("s", [generate_family(3), GROUP_TOP_STRING, FIGURE_STRING])
    def test_matches_defining_equality(self, s):
        # Brute force: a pair is a tandem exactly when the extended spans agree.
        lf = lyndon_factorize(s)
        found = {(td.i, td.d) for td in find_tandem_domains(lf)}
        expected = set()
        for i in range(1, lf.m):
            for d in range(1, lf.m - i + 1):
                inner = compute_domain(lf, i, d + 1)
                outer = compute_domain(lf, i + 1, d)
                if extended_domain(inner) == extended_domain(outer):
                    expected.add((i, d))
        assert found == expected

    def test_window_length_equals_first_run(self):
        # From the definition, not from the window formula: a p-member
        # window is the suffix of members[0]'s window of length
        # |F_i .. F_{i+p-2}|, which is |F_i| for a tandem (p = 2).
        for s in _reference_inputs():
            lf = lyndon_factorize(s)
            runs = lf.runs
            tandems = find_tandem_domains(lf)
            for td in tandems:
                inner, outer = td.members
                assert td.associated.length == runs[td.i - 1].length, s
                assert inner.i == td.i and outer.i == td.i + 1, s
                assert inner.d == td.d + 1 and outer.d == td.d, s
            for g in (*tandems, *find_p_groups(lf)):
                assert g.associated.end == g.members[0].associated.end, s
                length = runs[g.i + g.p - 3].end - runs[g.i - 1].start + 1
                assert g.associated.length == length, s


class TestPGroups:
    def test_figure_groups(self, fig_lf):
        groups = find_p_groups(fig_lf)
        assert [(g.i, g.p, g.d) for g in groups] == [(2, 2, 1), (2, 2, 2), (2, 3, 2)]
        big = groups[-1]
        assert [(dom.i, dom.d) for dom in big.members] == [(2, 4), (3, 3), (4, 2)]
        assert big.members[0].is_empty  # leftmost domain of a group may be empty
        assert big.associated == Span(10, 25)

    def test_group_window_is_reverse_concat_of_tandems(self, fig_lf):
        tandems = {(td.i, td.d): td for td in find_tandem_domains(fig_lf)}
        big = find_p_groups(fig_lf)[-1]
        first = tandems[(3, 2)].associated  # rightmost pair comes first
        second = tandems[(2, 3)].associated
        assert (first.start, first.end) == (10, 14)
        assert (second.start, second.end) == (15, 25)
        assert big.associated == Span(first.start, second.end)

    def test_maximal_group_with_nonempty_leftmost(self):
        # Five runs u, v, w, x, y where w, x, y anchor at u but v does not:
        # the chain stops at the non-empty domain of w.
        lf = lyndon_factorize(GROUP_TOP_STRING)
        groups = {(g.i, g.p, g.d): g for g in find_p_groups(lf)}
        top = groups[(3, 3, 1)]
        assert [(dom.i, dom.d) for dom in top.members] == [(3, 3), (4, 2), (5, 1)]
        assert not top.members[0].is_empty
        assert top.members[0].size == 2  # anchored two runs back, at u

    def test_long_chain_with_empty_leftmost(self):
        lf = lyndon_factorize(GROUP_BOTTOM_STRING)
        shapes = [(g.i, g.p, g.d) for g in find_p_groups(lf)]
        assert (1, 4, 1) in shapes or (1, 5, 1) in shapes
        for g in find_p_groups(lf):
            if g.p >= 4:
                assert g.members[0].is_empty

    def test_no_groups_for_single_run(self):
        assert find_p_groups(lyndon_factorize(b"aaa")) == []

    def test_members_share_extended_span(self):
        for s in (FIGURE_STRING, GROUP_TOP_STRING, GROUP_BOTTOM_STRING):
            lf = lyndon_factorize(s)
            for g in find_p_groups(lf):
                spans = {extended_domain(dom) for dom in g.members}
                assert len(spans) == 1


class TestCanonicalDecomposition:
    def test_figure_root_with_loose_subdomain(self, fig_lf):
        cd = canonical_decomposition(fig_lf, compute_domain(fig_lf, 5, 1))
        kinds = [
            ("cluster", tuple((d.i, d.d) for d in item.members))
            if isinstance(item, PGroup)
            else ("loose", (item.i, item.d))
            for item in cd.sequence
        ]
        assert kinds == [
            ("cluster", ((1, 1),)),
            ("loose", (4, 2)),
            ("cluster", ((5, 1),)),
        ]
        assert len(cd.loose) == 1
        budget = boundary_budget(cd)
        assert (budget.k, budget.leftmost_cluster, budget.d) == (4, 1, 1)
        assert budget.loose_orders == (2,) and budget.loose_sizes == (2,)
        assert (
            budget.cluster_boundaries,
            budget.loose_boundaries,
            budget.total,
            budget.lower_bound,
        ) == (0, 2, 3, 3)

    def test_figure_root_single_cluster(self, fig_lf):
        # No loose subdomains: the whole decomposition is one (k+1)-group.
        root = compute_domain(fig_lf, 4, 2)
        cd = canonical_decomposition(fig_lf, root)
        assert len(cd.loose) == 0
        (cluster,) = cd.sequence
        assert isinstance(cluster, PGroup)
        assert [(d.i, d.d) for d in cluster.members] == [(2, 4), (3, 3), (4, 2)]
        assert cluster == find_p_groups(fig_lf)[-1]
        budget = boundary_budget(cd)
        assert budget.cluster_boundaries == root.size  # k boundaries from the (k+1)-group
        assert budget.total == 1 + root.size >= budget.lower_bound

    def test_empty_root_rejected(self, fig_lf):
        with pytest.raises(ValueError, match="empty domain"):
            canonical_decomposition(fig_lf, compute_domain(fig_lf, 2, 1))

    def test_scan_escaping_its_anchor_rejected(self):
        # dom_2(F_3) anchors at F_1, left of the root's anchor F_2, so the
        # root's runs cannot hold the decomposition.
        dom = unit_run_domain
        lookup = {(3, 2): dom(3, 2, 1)}
        with pytest.raises(IntegrityError) as excinfo:
            _decompose(dom(4, 1, 2), lambda t, order: lookup[t, order])
        assert str(excinfo.value) == (
            "scan of dom(i=4, d=1) escaped its anchor: dom(i=3, d=2) anchors at 1 < 2"
        )

    def test_one_lookup_per_scan_step_at_family_k18(self, domain_work):
        # The scan reads one anchor per step and the records are built from
        # the domains it looked up: 188 compute_domain calls over family
        # k=18's 19 non-empty domains, as many as steps.
        lf = lyndon_factorize(generate_family(18))
        nonempty = [dom for row in DomainLayer(lf).rows for dom in row]
        domain_work.clear()
        for dom in nonempty:
            boundary_budget(canonical_decomposition(lf, dom))
        assert len(nonempty) == 19
        assert domain_work["compute_domain"] <= 188
        assert domain_work["CanonicalDecomposition"] == domain_work["BoundaryBudget"] == 19

    def test_loose_extdoms_tile_the_root(self):
        for s in (FIGURE_STRING, GROUP_TOP_STRING, generate_family(5)):
            lf = lyndon_factorize(s)
            for dom in all_domains(lf):
                if dom.is_empty:
                    continue
                cd = canonical_decomposition(lf, dom)
                first = cd.sequence[0]
                assert isinstance(first, PGroup)
                assert first.members[0].i == dom.j
                cursor = lf.runs[dom.j + first.p - 2].end + 1
                for sub in cd.loose:
                    ext = extended_domain(sub)
                    assert ext.start == cursor
                    cursor = ext.end + 1
                stop = extended_domain(dom).end if cd.loose else lf.runs[dom.i - 1].end
                assert cursor == stop + 1

    def test_clusters_are_slices_of_maximal_groups(self):
        # A cluster is the PGroup of its members, all anchored at the root's
        # F_j: at p = 1 a lone domain with an empty window, at p >= 2 a run
        # of consecutive members of one maximal group, inside its window.
        shapes = Counter()
        for s in _reference_inputs():
            layer = DomainLayer(lyndon_factorize(s))
            for dom in chain.from_iterable(layer.rows):
                for cluster in _decompose(dom, layer.domain).clusters:
                    assert cluster == _make_group(cluster.members), s
                    assert {member.j for member in cluster.members} == {dom.j}, s
                    shapes[cluster.p >= 2] += 1
                    if cluster.p == 1:
                        assert cluster.associated.is_empty, s
                        continue
                    hosts = [g for g in layer.groups if _is_slice(cluster.members, g.members)]
                    assert len(hosts) == 1, s
                    assert hosts[0].associated.contains(cluster.associated), s
        assert (shapes[False], shapes[True]) == (3051, 4004)


def _is_slice(part: tuple, whole: tuple) -> bool:
    return any(whole[k : k + len(part)] == part for k in range(len(whole) - len(part) + 1))


class TestBoundaryBudget:
    def test_sixteen_run_example(self):
        budget = boundary_budget(sixteen_run_decomposition())
        assert (budget.k, budget.leftmost_cluster, budget.d, budget.t) == (14, 3, 2, 3)
        assert budget.loose_orders == (2, 3, 5)
        assert budget.loose_sizes == (2, 1, 0)
        assert budget.cluster_boundaries == 5
        assert budget.loose_boundaries == 5
        assert budget.total == 11
        assert budget.lower_bound == 8

    def test_identities_hold_exactly(self):
        budget = boundary_budget(sixteen_run_decomposition())
        assert sum(budget.loose_sizes) == (
            budget.k - budget.leftmost_cluster - sum(budget.loose_orders) + budget.d
        )
        assert budget.cluster_boundaries == (
            budget.leftmost_cluster
            - 1
            + sum(budget.loose_orders)
            - budget.t
            - budget.d
            - sum(1 for dh in budget.loose_orders[:-1] if dh > 1)
        )

    def test_inconsistent_decomposition_rejected(self):
        dom = unit_run_domain
        root = dom(15, 2, 1)
        # Same shape as the 16-run example but one loose order is wrong.
        broken = CanonicalDecomposition(
            root=root,
            sequence=(
                _make_group((dom(1, 3, 1), dom(2, 2, 1), dom(3, 1, 1))),
                dom(6, 3, 4),
                _make_group((dom(7, 1, 1),)),
                dom(9, 3, 8),
                _make_group((dom(10, 2, 1), dom(11, 1, 1))),
                dom(12, 5, 12),
                _make_group((dom(13, 4, 1), dom(14, 3, 1), root)),
            ),
        )
        with pytest.raises(IntegrityError, match="budget inconsistency"):
            boundary_budget(broken)

    def test_leading_loose_subdomain_rejected(self):
        cd = sixteen_run_decomposition()
        broken = CanonicalDecomposition(root=cd.root, sequence=cd.sequence[1:])
        with pytest.raises(IntegrityError, match="leftmost item is not a cluster"):
            boundary_budget(broken)

    def test_wrong_cluster_boundary_count_rejected(self):
        dom = unit_run_domain
        cd = sixteen_run_decomposition()
        # The p = 1 cluster at run 7 becomes a p = 2 cluster: the loose sizes
        # still balance, but the clusters hold one boundary too many.
        sequence = list(cd.sequence)
        sequence[2] = _make_group((dom(7, 2, 1), dom(8, 1, 1)))
        broken = CanonicalDecomposition(root=cd.root, sequence=tuple(sequence))
        with pytest.raises(IntegrityError, match="cluster boundary count"):
            boundary_budget(broken)

    def test_total_below_bound_rejected(self):
        # A size-9 root whose only item is a p = 1 cluster: one boundary, not ceil(9/2) + 1.
        root = unit_run_domain(10, 1, 1)
        broken = CanonicalDecomposition(root=root, sequence=(_make_group((root,)),))
        with pytest.raises(IntegrityError, match="total below guaranteed bound"):
            boundary_budget(broken)


class TestVerifyLemmas:
    def test_figure_string_all_pass(self):
        report = verify_lemmas(FIGURE_STRING)
        assert report.passed
        assert report.m == 5 and report.z == 8
        assert {c.name: c for c in report.checks}["domain-window-boundary"].instances == 15
        assert {c.name: c for c in report.checks}["size-bound"].instances == 1
        assert all(c.counterexample is None for c in report.checks)

    def test_empty_and_trivial_inputs(self):
        assert verify_lemmas(b"").passed
        assert verify_lemmas(b"a").passed
        assert verify_lemmas(b"ba").passed

    @pytest.mark.parametrize("k", range(2, 9))
    def test_family_strings(self, k):
        assert verify_lemmas(generate_family(k)).passed

    @pytest.mark.parametrize("s", [GROUP_TOP_STRING, GROUP_BOTTOM_STRING])
    def test_constructed_group_strings(self, s):
        assert verify_lemmas(s).passed

    def test_exhaustive_small(self):
        for s in chain(strings(b"ab", 10, min_len=1), strings(b"abc", 6, min_len=1)):
            report = verify_lemmas(s)
            assert report.passed, (s, [c.name for c in report.checks if not c.passed])

    @given(st.text(alphabet="abc", max_size=30).map(str.encode))
    def test_random_strings(self, s):
        assert verify_lemmas(s).passed

    @pytest.mark.parametrize(
        "make",
        [lambda: generate_family(30), lambda: bytes(random.Random(10_000).choices(b"ab", k=10_000))],
        ids=["family-k30", "random-binary-1e4"],
    )
    def test_memory_bound(self, make):
        # Traced peaks: 0.30 MiB on family k=30 (n = 14,852) and 0.14 MiB on
        # random binary 10^4; the verifier keeps the sparse layer only.
        s = make()
        tracemalloc.start()
        try:
            report = verify_lemmas(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 1 << 20

    def test_domain_laminarity_counted(self, fig_lf):
        report = verify_lemmas(FIGURE_STRING)
        assert {c.name: c for c in report.checks}["domain-laminarity"].instances == 6  # non-empty spans

    def test_check_updates_follow_structures_not_runs(self, record_calls):
        # Passing instances are added in bulk, so one call's LemmaCheck
        # updates grow with the non-empty domains, tandems and groups, not
        # with m: family k=18 has m = 173 and 19 non-empty domains, k=30 has
        # m = 467 and 31.  Adding them one run or one instance at a time
        # took 1,821 and 4,635 calls of the two methods; in bulk it takes 22
        # at both, 20 record_many calls and the two one-instance records.
        calls, structures = {}, {}
        for k in (18, 30):
            s = generate_family(k)
            layer = DomainLayer(lyndon_factorize(s))
            structures[k] = sum(map(len, layer.rows)) + len(layer.tandems) + len(layer.groups)
            record_calls.clear()
            assert verify_lemmas(s).passed
            calls[k] = sum(record_calls.values())
        assert calls[18] <= len(CHECK_NAMES) + structures[18]
        assert calls[30] - calls[18] <= structures[30] - structures[18]

    def test_interpreter_calls_at_family_k18(self, gallops, span_news):
        # The LZ parse gallops only on a matching next byte, a one-period
        # run shares its factor's span, an empty domain reuses its run as
        # its order-1 window and its window as its extended domain, and the
        # decompositions build no domains: 641 gallop calls and 1,364 Spans
        # per call at first, 308 and 727 with the shared spans, 308 and 653 now.
        assert verify_lemmas(generate_family(18)).passed
        assert gallops.calls <= 308
        assert span_news["Span"] <= 653

    def test_walk_builds_no_records_at_family_k18(self, domain_work):
        # The walk reads each scanned domain's anchor off the layer's rows
        # and checks each budget on integers.  Decomposing each root into
        # records took 210 domains, 40 groups and 19 decompositions and
        # budgets per call; now 19 non-empty domains and 18 empty tandem
        # halves are the layer's, 2 domains the partition's, and the 3
        # groups the layer's tandems and groups.
        assert verify_lemmas(generate_family(18)).passed
        assert domain_work == {"_domain": 39, "_make_group": 3, "compute_domain": 2}


class TestLemmaCheck:
    def test_first_failure_keeps_its_witness(self):
        c = LemmaCheck("domain-window-boundary")
        c.record(True, "i={} d={}", 1, 1)
        c.record(False, "i={} d={}", 3, 2)
        c.record(False, "i={} d={}", 4, 1)
        assert (c.instances, c.failures, c.counterexample) == (3, 2, "i=3 d=2")
        assert not c.passed

    def test_witness_texts(self):
        cases = [
            (("dom=({},{}) tandem=({},{})", 5, 1, 3, 2), "dom=(5,1) tandem=(3,2)"),
            (("({},{},{}) ({},{},{})", 1, 2, 3, 6, 2, 1), "(1,2,3) (6,2,1)"),
            (("[{}..{}]", 7, 17), "[7..17]"),
            (("i={} d={} k={} d'={}", 4, 2, 3, 1), "i=4 d=2 k=3 d'=1"),
            (("i={} d={} {}", 3, 1, IntegrityError("budget {inconsistency}")),
             "i=3 d=1 budget {inconsistency}"),
        ]
        for args, text in cases:
            c = LemmaCheck("x")
            c.record(False, *args)
            assert c.counterexample == text

    def test_passing_instances_leave_no_witness(self):
        c = LemmaCheck("x")
        c.record(True)
        c.record(True, "i={} d={}", 1, 2)
        assert (c.instances, c.failures, c.counterexample) == (2, 0, None)

    def test_record_many_keeps_first_failure(self):
        c = LemmaCheck("x")
        c.record_many(5)
        c.record_many(3, 2, "i={} d={}", 2, 4)
        c.record(False, "i={} d={}", 1, 1)
        c.record_many(4, 4, "i={} d={}", 9, 9)
        assert (c.instances, c.failures, c.counterexample) == (13, 7, "i=2 d=4")


# The Zimin word Z_5: four maximal groups tie on (i, d) = (1, 1).
ZIMIN_5 = b"abacabadabacabaeabacabadabacaba"


def _reference_inputs():
    """Every binary string up to length 12, every ternary one up to 7, family k = 2..24.

    Then the inputs with deep groups: a non-empty first member in
    GROUP_TOP_STRING, and groups up to p = 5 in GROUP_BOTTOM_STRING and Z_5.
    """
    yield from strings(b"ab", 12, min_len=1)
    yield from strings(b"abc", 7, min_len=1)
    for k in range(2, 25):
        yield generate_family(k)
    yield from (GROUP_TOP_STRING, GROUP_BOTTOM_STRING, ZIMIN_5)


# Has 2 instances each of the two disjoint-pair checks and 6 of the
# tandem-inside-domain check, so a fault can reach all three failure paths.
DISJOINT_PAIRS_STRING = b"abbabaababaaba"
FAULT_INPUTS = [
    generate_family(6),
    generate_family(12),
    FIGURE_STRING,
    DISJOINT_PAIRS_STRING,
    GROUP_TOP_STRING,
    ZIMIN_5,
]
OVERLAP_CHECKS = (
    "disjoint-tandem-no-overlap",
    "disjoint-group-no-overlap",
    "tandem-inside-domain-no-overlap",
)


def _verdicts(report):
    return (
        report.m,
        report.z,
        report.t,
        [(c.name, c.instances, c.failures, c.counterexample) for c in report.checks],
    )


class TestDenseReference:
    """The sparse layer against the frozen dense implementation in dense_reference.py."""

    def test_reports_match_dense_reference(self):
        # Counted instances of empty domains must add up to the visited ones.
        # The partition size is also checked against partition_reference.py,
        # which shares no code with the library.
        for s in _reference_inputs():
            report = verify_lemmas(s)
            assert report == dense_verify_lemmas(s), s
            assert report.t == len(order1_partition(s)), s

    def test_reference_keeps_its_own_group_window(self):
        # A reference that built groups with the library's _make_group, or
        # decompositions and budgets with its scan and budget rule, could not
        # catch a fault in them.
        nodes = list(ast.walk(ast.parse(Path(dense_reference.__file__).read_text())))
        imported = {
            alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        assert "_domain" in imported and "_dense_group" in used
        shared = {"_make_group", "_decompose", "canonical_decomposition"}
        shared |= {"boundary_budget", "_scan", "_budget"}
        assert shared.isdisjoint(imported | used)

    def test_tandems_and_groups_match_dense_reference(self):
        for s in _reference_inputs():
            lf = lyndon_factorize(s)
            table = dense_table(lf)
            assert find_tandem_domains(lf) == dense_tandems(lf, table), s
            assert find_p_groups(lf) == dense_groups(lf, table), s

    @pytest.mark.parametrize("s", FAULT_INPUTS)
    @pytest.mark.parametrize(
        "fault", ["windows-end-late", "no-boundaries", "contains-only-empty", "spans-overlap"]
    )
    def test_reductions_under_injected_faults(self, monkeypatch, s, fault):
        # Counted instances are exact only if failures are found where they
        # are: break the predicates the reductions rely on and compare the
        # failing reports field by field.
        if fault == "windows-end-late":
            # Windows ending before `cutoff` hold no phrase start, so some
            # empty tails fail for their lowest orders and pass above them.
            real = LZFactorization.boundaries_in
            cutoff = len(s) * 2 // 3

            def boundaries_in(self, window):
                return 0 if window.end < cutoff else real(self, window)

            monkeypatch.setattr(LZFactorization, "boundaries_in", boundaries_in)
            lf = lyndon_factorize(s)
            layer = DomainLayer(lf)
            lz = lz_factorize(s)
            assert any(
                0 < _empty_window_failures(layer, lz, i) < lf.m - i + 1 - len(layer.rows[i - 1])
                for i in range(1, lf.m + 1)
            )
        elif fault == "no-boundaries":
            monkeypatch.setattr(LZFactorization, "boundaries_in", lambda self, window: 0)
        elif fault == "contains-only-empty":
            monkeypatch.setattr(Span, "contains", lambda self, other: other.is_empty)
        else:
            monkeypatch.setattr(Span, "overlaps", lambda self, other: True)
        sparse, dense = verify_lemmas(s), dense_verify_lemmas(s)
        assert not dense.passed
        assert _verdicts(sparse) == _verdicts(dense)
        if fault == "spans-overlap":
            # Every instance of the non-overlap checks fails; of these inputs,
            # only DISJOINT_PAIRS_STRING has disjoint tandems and groups.
            counts = [(c.instances, c.failures) for c in dense.checks if c.name in OVERLAP_CHECKS]
            assert len(counts) == len(OVERLAP_CHECKS)
            assert all(failures == instances for instances, failures in counts)
            if s == DISJOINT_PAIRS_STRING:
                assert all(instances for instances, _ in counts)

    @pytest.mark.parametrize(
        "fault, target",
        [
            ("factors-halved", "runs-between-share-prefix"),
            ("order-1-anchors-late", "higher-order-suffix"),
            ("order-1-anchors-late", "domain-laminarity"),
            ("empty-extdoms-short", "decomposition-tiling"),
        ],
    )
    def test_bulk_counts_under_injected_faults(self, monkeypatch, fault, target):
        # The faults above never reach these four checks, which add their
        # passing instances in bulk.  Each fault here makes some but not all
        # of its target's instances fail on at least one input, and patches
        # the same seam on both sides.
        if fault == "factors-halved":
            # f_t keeps only its first half, so it may no longer start with
            # the runs F_i .. F_{i+d-1} of a domain spanning it.
            def halved(text):
                lf = lyndon_factorize(text)
                factors = tuple(
                    (Span(f.start, f.start + f.length // 2 - 1) if f.length > 1 else f, e)
                    for f, e in lf.factors
                )
                return LyndonFactorization(text=text, factors=factors, runs=lf.runs)

            monkeypatch.setattr("lynlz.domains.lyndon_factorize", halved)
            monkeypatch.setattr(dense_reference, "lyndon_factorize", halved)
        elif fault == "order-1-anchors-late":
            # A non-empty order-1 domain anchors one run right of its leftmost
            # occurrence, so order 2 may anchor left of order 1 and its span
            # may cross the others.  Empty domains, which the dense table
            # builds without _domain, are left alone.
            def late(lf, i, d, q):
                dom = _domain(lf, i, d, q)
                if d == 1 and dom.j + 1 < i:
                    return _domain(lf, i, d, lf.runs[dom.j].start)
                return dom

            monkeypatch.setattr("lynlz.domains._domain", late)
            monkeypatch.setattr(dense_reference, "_domain", late)
        else:
            # An empty loose subdomain's extended domain ends one byte early,
            # so a decomposition holding one no longer tiles its root.  The
            # library's walk reads a loose subdomain's extent off (i, d, j).
            def short(dom):
                ext = extended_domain(dom)
                return Span(ext.start, ext.end - 1) if dom.is_empty else ext

            def short_extent(runs, i, d, j):
                ext = _extent(runs, i, d, j)
                return Span(ext.start, ext.end - 1) if j == i else ext

            monkeypatch.setattr("lynlz.domains.extended_domain", short)
            monkeypatch.setattr("lynlz.domains._extent", short_extent)
            monkeypatch.setattr(dense_reference, "extended_domain", short)
        partial = False
        for s in FAULT_INPUTS:
            sparse, dense = verify_lemmas(s), dense_verify_lemmas(s)
            assert _verdicts(sparse) == _verdicts(dense), s
            check = {c.name: c for c in dense.checks}[target]
            partial |= 0 < check.failures < check.instances
        assert partial

    @pytest.mark.parametrize(
        "s, runs, factors",
        [
            # One run per byte: f_{i-1} > F_i fails at every ascent.
            pytest.param(
                FIGURE_STRING,
                [(p, p) for p in range(1, 26)],
                [(p, p) for p in range(1, 26)],
                id="one-run-per-byte",
            ),
            # Every adjacent f_{i-1} > F_i holds, but F_2 = a does not start with
            # f_2 = d, so f_1 = b > F_3 = cd fails with no adjacent failure.
            pytest.param(
                b"bacd", [(1, 1), (2, 2), (3, 4)], [(1, 1), (4, 4), (3, 3)], id="run-without-its-factor"
            ),
        ],
    )
    def test_factor_order_shortcut_under_broken_order(self, monkeypatch, s, runs, factors):
        # The m - 1 adjacent instances stand for all m(m-1)/2 only while they
        # hold; a broken factorization must get the per-pair counts and witness.
        def broken(text):
            return LyndonFactorization(
                text=text,
                factors=tuple((Span(*f), 1) for f in factors),
                runs=tuple(Span(*r) for r in runs),
            )

        monkeypatch.setattr("lynlz.domains.lyndon_factorize", broken)
        monkeypatch.setattr(dense_reference, "lyndon_factorize", broken)
        sparse, dense = verify_lemmas(s), dense_verify_lemmas(s)
        assert {c.name: c for c in dense.checks}["factor-order-dominates-runs"].failures > 0
        assert _verdicts(sparse) == _verdicts(dense)

    @pytest.mark.parametrize("s", [generate_family(6), FIGURE_STRING, ZIMIN_5])
    def test_budget_defect_on_one_domain(self, monkeypatch, s):
        # A domain whose decomposition fails its budget skips the checks that
        # read the budget, but the per-domain checks that do not must still
        # count it, as the dense reference does.
        rows = DomainLayer(lyndon_factorize(s)).rows
        nonempty = [dom for row in rows for dom in row]
        victim = nonempty[len(nonempty) // 2]
        # The library's walk calls _budget on integers, once per non-empty
        # domain in this order; the reference calls dense_budget on records.
        calls = count()

        def budget(*args):
            if next(calls) == len(nonempty) // 2:
                raise IntegrityError("injected")
            return _budget(*args)

        def reference_budget(root, items):
            if root == victim:
                raise IntegrityError("injected")
            return dense_budget(root, items)

        monkeypatch.setattr("lynlz.domains._budget", budget)
        monkeypatch.setattr(dense_reference, "dense_budget", reference_budget)
        sparse, dense = verify_lemmas(s), dense_verify_lemmas(s)
        failed = {c.name: c.failures for c in dense.checks if c.failures}
        assert failed == {"budget-identities": 1}
        assert _verdicts(sparse) == _verdicts(dense)

    @pytest.mark.parametrize(
        "runs, i",
        [
            # F_3 = b first occurs at 2, inside run 1 = [1..2].
            pytest.param([(1, 2), (3, 3), (4, 4)], 3, id="inside-an-earlier-run"),
            # F_2 = b first occurs at 2, inside run 1 = F_{i-1}, so the first
            # run starting at or after 2 is F_i itself.
            pytest.param([(1, 3), (4, 4)], 2, id="inside-the-previous-run"),
        ],
    )
    def test_leftmost_occurrence_off_run_start(self, monkeypatch, runs, i):
        # A leftmost occurrence that does not start a run before F_i is a
        # defect of the factorization: the domain cannot be anchored.
        def broken(text):
            return LyndonFactorization(
                text=text,
                factors=tuple((Span(*r), 1) for r in runs),
                runs=tuple(Span(*r) for r in runs),
            )

        message = f"leftmost occurrence of runs {i}..{i} (position 2) is not a run start"
        with pytest.raises(IntegrityError) as excinfo:
            compute_domain(broken(b"abab"), i, 1)
        assert str(excinfo.value) == message
        monkeypatch.setattr("lynlz.domains.lyndon_factorize", broken)
        monkeypatch.setattr(dense_reference, "lyndon_factorize", broken)
        sparse, dense = verify_lemmas(b"abab"), dense_verify_lemmas(b"abab")
        assert sparse == dense
        window = {c.name: c for c in sparse.checks}["window-at-anchor-prefix"]
        assert (window.failures, window.counterexample) == (1, message)
