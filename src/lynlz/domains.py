"""Domain structures over a Lyndon factorization, checked against an LZ parse.

For a run F_i and an order d, the d-domain of F_i is the block of runs
F_j .. F_{i-1} starting at the run that carries the leftmost occurrence of
F_i .. F_{i+d-1}; it is empty when that leftmost occurrence is the trivial
one.  On top of domains sit tandem domains (two domains sharing an extended
span), p-groups (chains of such pairs), and the canonical subdomain
decomposition whose boundary budget bounds from below the number of LZ
phrase starts inside an extended domain.  The order-1 extended domains tile
the text in t parts, so z >= ceil((m + t)/2) and m < 2z: ``extdom_partition``
builds that tiling and ``check_theorem`` the verdict.  ``verify_lemmas``
re-checks every one of those guarantees on a concrete input string.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, combinations
from typing import NamedTuple

from .errors import IntegrityError
from .lyndon import LyndonFactorization, lyndon_factorize
from .lz import LZFactorization, lz_factorize
from .text import Span


def _ceil_half(x: int) -> int:
    return (x + 1) // 2


class Domain(NamedTuple):
    """The order-d domain of run F_i, anchored at run F_j (j == i when empty).

    ``span`` covers F_j .. F_{i-1} (empty marker anchored at F_i's start when
    j == i); ``associated`` is the leftmost occurrence of F_i .. F_{i+d-1},
    the window guaranteed to contain an LZ phrase boundary.
    """

    i: int
    d: int
    j: int
    span: Span
    associated: Span

    @property
    def size(self) -> int:
        return self.i - self.j

    @property
    def is_empty(self) -> bool:
        return self.j == self.i


def extended_domain(dom: Domain) -> Span:
    """Span of the domain followed by its own runs F_i .. F_{i+d-1}.

    An empty domain's extended domain is its window F_i .. F_{i+d-1}, the
    span this formula would build, so it is returned as it is.
    """
    if dom.j == dom.i:
        return dom.associated
    return Span(dom.span.start, dom.span.end + dom.associated.length)


def _extent(runs: Sequence[Span], i: int, d: int, j: int) -> Span:
    """F_j .. F_{i+d-1}: the extended domain of the order-d domain of F_i anchored at F_j."""
    return Span(runs[j - 1].start, runs[i + d - 2].end)


def _tiles(spans: Iterable[Span], start: int, end: int) -> bool:
    """True when ``spans``, in order, follow each other with no gap and cover [start..end] exactly."""
    cursor = start
    for span in spans:
        if span.start != cursor:
            return False
        cursor = span.end + 1
    return cursor == end + 1


class PGroup(NamedTuple):
    """p >= 1 consecutive domains of stepwise decreasing order with one shared extended span.

    A tandem domain is the p = 2 case: the pair dom_{d+1}(F_i), dom_d(F_{i+1})
    whose extended spans coincide.  Writing F_i = F_{i+1} .. F_{i+d} x, the
    leftmost occurrence of F_i .. F_{i+d} factors as
    F_{i+1}..F_{i+d} x F_{i+1}..F_{i+d}, and ``associated`` is the suffix
    occurrence of x F_{i+1}..F_{i+d} there, |F_i| long.  A group's window is
    ``members[0]``'s window less the last member's runs F_{i+p-1} ..
    F_{i+p+d-2} at its front: a suffix |F_i .. F_{i+p-2}| long, made of its
    member pairs' tandem windows, rightmost pair first.  At p = 1, a lone
    domain found by the canonical scan, the window is empty.
    """

    i: int
    p: int
    d: int  # order of the last member
    members: tuple[Domain, ...]  # ascending run index, descending order
    associated: Span


class CanonicalDecomposition(NamedTuple):
    """Left-to-right sequence of clusters and loose subdomains of a root domain.

    A cluster is a maximal block of domains anchored at the root's F_j, kept
    as the ``PGroup`` of its members.
    """

    root: Domain
    sequence: tuple[PGroup | Domain, ...]  # bare Domain entries are loose

    @property
    def clusters(self) -> tuple[PGroup, ...]:
        return tuple(item for item in self.sequence if isinstance(item, PGroup))

    @property
    def loose(self) -> tuple[Domain, ...]:
        return tuple(item for item in self.sequence if isinstance(item, Domain))


class BoundaryBudget(NamedTuple):
    """Lower-bound accounting for phrase starts inside an extended domain.

    ``leftmost_cluster`` is the paper's ℓ, the p of the leftmost cluster.
    ``cluster_boundaries``, the paper's S, counts boundaries contributed by
    clusters (p - 1 each), ``loose_boundaries`` the ones guaranteed inside
    loose extended domains, and ``total = 1 + loose_boundaries + S`` must
    reach ``lower_bound = ceil(k/2) + 1``.
    """

    k: int
    leftmost_cluster: int
    d: int
    loose_orders: tuple[int, ...]
    loose_sizes: tuple[int, ...]
    t: int
    cluster_boundaries: int
    loose_boundaries: int
    total: int
    lower_bound: int


def _domain(lf: LyndonFactorization, i: int, d: int, q: int) -> Domain:
    """Order-d domain of run F_i, given the start q of F_i..F_{i+d-1}'s leftmost occurrence.

    Empty when q is F_i's start; otherwise q must start an earlier run F_j,
    the domain's anchor.  An empty domain builds its empty span directly,
    and at order 1 its window is F_i's own span ``runs[i - 1]``: the
    verifier builds one empty domain per run that a decomposition scans.
    """
    runs = lf.runs
    run = runs[i - 1]
    a_start = run.start
    a_end = runs[i + d - 2].end
    # Positional fields (i, d, j, span, associated), for the same reason.
    if q == a_start:
        window = run if d == 1 else Span(a_start, a_end)
        return Domain(i, d, i, Span(a_start, a_start - 1), window)
    j = bisect_left(runs, (q,)) + 1  # Span(q, e) sorts after (q,) and before (q + 1,)
    if j >= i or runs[j - 1].start != q:
        raise IntegrityError(
            f"leftmost occurrence of runs {i}..{i + d - 1} (position {q}) is not a run start"
        )
    return Domain(i, d, j, Span(q, a_start - 1), Span(q, q + (a_end - a_start)))


def compute_domain(lf: LyndonFactorization, i: int, d: int) -> Domain:
    """Order-d domain of run F_i (1-based i); raises ValueError unless i, d >= 1 and i+d-1 <= m."""
    m = lf.m
    if i < 1 or d < 1:
        raise ValueError(f"run and order must be at least 1: i={i}, d={d}")
    if i > m:
        raise ValueError(f"run exceeds factorization: i={i}, m={m}")
    if i + d - 1 > m:
        raise ValueError(f"order exceeds factorization: i={i}, d={d}, m={m}")
    runs, text = lf.runs, lf.text
    q = text.find(text[runs[i - 1].start - 1 : runs[i + d - 2].end]) + 1
    return _domain(lf, i, d, q)


class DomainLayer:
    """The domains of a factorization: every run's non-empty ones, its tandems and its groups.

    ``rows[i - 1]`` holds the non-empty domains of F_i, orders 1 .. e_i - 1,
    where e_i is F_i's first empty order (m - i + 2 when it has none).
    Domain (i, d) is empty exactly when d >= e_i, so the empty ones are
    derived on demand from (i, d) and the runs, and the layer takes
    O(m + non-empty domains) memory.  ``tandems`` lists the tandem pairs,
    each a ``PGroup`` with p = 2, and ``groups`` the maximal p-groups, both
    ascending i then d.  A plain class, not a dataclass: it is built once
    per command and never compared, so it needs no generated ``__eq__``
    (the factorizations do; ROADMAP item 12 writes theirs by hand).
    """

    __slots__ = ("lf", "rows", "tandems", "groups")

    def __init__(self, lf: LyndonFactorization) -> None:
        """Search the rows, one find per non-empty domain, run and distinct head, then link them.

        Each row starts at its run's head: F_i's leading run of equal bytes
        plus the byte after it, or all of F_i when F_i is a power of one
        letter.  Every occurrence of F_i begins with its head, so none starts
        left of the head's leftmost occurrence; this is ``lz_factorize``'s
        *Resume* bound applied to a prefix.  Heads are few and shared.  A
        Lyndon root of two or more letters begins with its longest run of its
        least letter, then a larger letter, so the head is the root's own.
        The roots strictly decrease, and a word that sorts between two words
        with the same head has that head too, so runs with one head are
        consecutive and the last (head, position) pair serves them all; a
        one-letter root c gives the head c^e, which no other run has.  At
        family k=18 the 173 runs have 20 heads.

        For a fixed i the search for order d + 1 resumes at order d's leftmost
        occurrence q: an occurrence of F_i..F_{i+d} is also one of its prefix
        F_i..F_{i+d-1}, so none starts left of q.  The trivial occurrence at
        F_i's start bounds every order from above, so once q reaches it, at
        order e_i, every higher order is empty too and the row stops there.

        On the family the layer makes 210 finds reading 0.038 MB at k=18,
        903 reading 0.83 MB at k=40 and 3,403 reading 12.6 MB at k=80; from
        the text's start, each row's order-1 find made 190, 861 and 3,321
        finds reading 0.237, 11.35 and 345 MB.  A head's own find and a row's
        order-1 find can still scan most of the text, so texts whose runs
        share no heads keep the O(m * n) worst case.  The search stays a
        literal leftmost-occurrence search; ROADMAP item 8 replaces it with
        a text index.
        """
        runs = lf.runs
        text = lf.text
        m = lf.m
        rows: list[tuple[Domain, ...]] = []
        head, head_q = b"", 0
        for i in range(1, m + 1):
            a_start = runs[i - 1].start
            needle = text[a_start - 1 : runs[i - 1].end]  # F_i, the order-1 needle
            run_head = needle[: len(needle) - len(needle.lstrip(needle[:1])) + 1]
            if run_head != head:
                head, head_q = run_head, text.find(run_head) + 1
            row: list[Domain] = []
            q = head_q
            for d in range(1, m - i + 2):
                if d > 1:
                    needle = text[a_start - 1 : runs[i + d - 2].end]
                q = text.find(needle, q - 1) + 1
                if q == a_start:
                    break
                row.append(_domain(lf, i, d, q))
            rows.append(tuple(row))
        self.lf = lf
        self.rows = tuple(rows)
        # Only a non-empty outer half dom_d(F_{i+1}) can link: an empty one
        # anchors at F_{i+1}, and dom_{d+1}(F_i) anchors at or left of F_i.
        tandems = [
            _make_group((inner, outer))
            for i in range(1, m)
            for outer in rows[i]
            if (inner := self.domain(i, outer.d + 1)).j == outer.j
        ]
        # Tandem (i, d) links dom_{d+1}(F_i) to dom_d(F_{i+1}), and tandem
        # (i + 1, d - 1) links dom_d(F_{i+1}) onwards, so a maximal group is
        # a chain walked from its first link, the one with no predecessor
        # (i - 1, d + 1): each link's inner half, then the last link's outer
        # half.
        links = {(td.i, td.d): td for td in tandems}
        groups: list[PGroup] = []
        for first in tandems:
            if (first.i - 1, first.d + 1) in links:
                continue
            link, members = first, [first.members[0]]
            while (link.i + 1, link.d - 1) in links:
                link = links[(link.i + 1, link.d - 1)]
                members.append(link.members[0])
            members.append(link.members[1])
            groups.append(_make_group(tuple(members)))
        groups.sort(key=lambda g: (g.i, g.d))
        self.tandems = tandems
        self.groups = groups

    def domain(self, i: int, d: int) -> Domain:
        """Order-d domain of run F_i, for 1 <= d <= m - i + 1."""
        row = self.rows[i - 1]
        return row[d - 1] if d <= len(row) else _domain(self.lf, i, d, self.lf.runs[i - 1].start)


def _make_group(members: tuple[Domain, ...]) -> PGroup:
    """The group of ``members``: its window is the first member's window less the last one's runs."""
    first, last = members[0].associated, members[-1].associated
    return PGroup(
        i=members[0].i,
        p=len(members),
        d=members[-1].d,
        members=members,
        associated=Span(first.start + last.length, first.end),
    )


def all_domains(lf: LyndonFactorization) -> list[Domain]:
    """Every valid (i, d) domain, ascending i then d, empty ones included."""
    layer = DomainLayer(lf)
    return [layer.domain(i, d) for i in range(1, lf.m + 1) for d in range(1, lf.m - i + 2)]


def find_tandem_domains(lf: LyndonFactorization) -> list[PGroup]:
    """All tandem pairs dom_{d+1}(F_i), dom_d(F_{i+1}) as 2-member groups, ascending i then d."""
    return DomainLayer(lf).tandems


def find_p_groups(lf: LyndonFactorization) -> list[PGroup]:
    """Maximal p-groups (p >= 2): maximal chains of tandem pairs, ascending i then d."""
    return DomainLayer(lf).groups


def canonical_decomposition(lf: LyndonFactorization, dom: Domain) -> CanonicalDecomposition:
    """Greedy right-to-left split of a non-empty domain into clusters and loose subdomains.

    Scanning F_{i-1} down to F_j with a rising order counter: a domain
    anchored at F_j joins the current cluster; any other anchor closes the
    cluster, records the domain as loose, and restarts the scan (order 0)
    just left of the loose domain's span.
    """
    return _decompose(dom, partial(compute_domain, lf))


def _scan(
    anchor_at: Callable[[int, int], int], i: int, d: int, j: int
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The canonical decomposition of the non-empty domain (i, d) anchored at F_j, in integers.

    ``anchor_at(t, order)`` is the anchor of dom_order(F_t).  The scan walks
    t = i - 1 down to j, each step one order above the last: an anchor at
    F_j adds dom_order(F_t) to the current cluster, and one right of F_j
    closes the cluster, keeps (t, order, anchor) as a loose subdomain, and
    restarts at order 1 just left of its span.  Returns, left to right, the
    cluster sizes, one per gap between loose subdomains (0 where two of them
    meet; the last cluster holds the root), and the loose subdomains.
    """
    sizes: list[int] = []
    loose: list[tuple[int, int, int]] = []
    size, order, t = 1, d, i - 1
    while t >= j:
        order += 1
        a = anchor_at(t, order)
        if a == j:
            size += 1
            t -= 1
        else:
            if a < j:
                raise IntegrityError(
                    f"scan of dom(i={i}, d={d}) escaped its anchor: "
                    f"dom(i={t}, d={order}) anchors at {a} < {j}"
                )
            sizes.append(size)
            loose.append((t, order, a))
            size, order, t = 0, 0, a - 1
    sizes.append(size)
    sizes.reverse()
    loose.reverse()
    return sizes, loose


def _decompose(dom: Domain, dom_at: Callable[[int, int], Domain]) -> CanonicalDecomposition:
    """``canonical_decomposition`` with ``dom_at(t, order)`` looking up the scanned domains.

    Each step of the scan looks one domain up, and each step's domain is a
    cluster member or a loose subdomain, so the domains looked up, read left
    to right and followed by the root, are the decomposition's in order.
    """
    if dom.size == 0:
        raise ValueError("decomposition undefined for empty domain")
    scanned = [dom]  # right to left

    def anchor_at(t: int, order: int) -> int:
        sub = dom_at(t, order)
        scanned.append(sub)
        return sub.j

    sizes, loose = _scan(anchor_at, dom.i, dom.d, dom.j)
    scanned.reverse()
    sequence: list[PGroup | Domain] = []
    k = 0
    for g, p in enumerate(sizes):
        if p:
            sequence.append(_make_group(tuple(scanned[k : k + p])))
            k += p
        if g < len(loose):
            sequence.append(scanned[k])
            k += 1
    return CanonicalDecomposition(root=dom, sequence=tuple(sequence))


def _budget(
    k: int, d: int, sizes: Sequence[int], loose_orders: Sequence[int], loose_sizes: Sequence[int]
) -> tuple[int, int, int, int]:
    """The boundary budget of a size-k, order-d root, checked against its identities.

    ``sizes`` are the cluster sizes left to right, the leftmost one first
    (a 0 stands for no cluster); ``loose_orders`` and ``loose_sizes``
    describe the loose subdomains left to right.  Returns the cluster
    boundaries, the loose boundaries, the total and the lower bound.
    """
    ell = sizes[0]
    t = len(loose_orders)
    s_clusters = sum(p - 1 for p in sizes if p)
    loose_boundaries = sum(_ceil_half(kh) + 1 for kh in loose_sizes)
    total = 1 + loose_boundaries + s_clusters
    lower = _ceil_half(k) + 1
    if t >= 1:
        if sum(loose_sizes) != k - ell - sum(loose_orders) + d:
            raise IntegrityError("budget inconsistency: loose sizes do not balance")
        expected_s = ell - 1 + sum(loose_orders) - t - d - sum(
            1 for dh in loose_orders[:-1] if dh > 1
        )
        if s_clusters != expected_s:
            raise IntegrityError("budget inconsistency: cluster boundary count")
    if total < lower:
        raise IntegrityError("budget inconsistency: total below guaranteed bound")
    return s_clusters, loose_boundaries, total, lower


def boundary_budget(cd: CanonicalDecomposition) -> BoundaryBudget:
    """Boundary accounting of a decomposition; re-derives and checks its identities.

    With t >= 1 loose subdomains the clusters' p are pinned by the loose
    orders, giving two exact identities (sizes and cluster boundaries); any
    mismatch means the decomposition was built incorrectly.
    """
    root = cd.root
    first = cd.sequence[0]
    if not isinstance(first, PGroup):
        raise IntegrityError("budget inconsistency: leftmost item is not a cluster")
    loose = cd.loose
    loose_orders = tuple(sub.d for sub in loose)
    loose_sizes = tuple(sub.size for sub in loose)
    s_clusters, loose_boundaries, total, lower = _budget(
        root.size, root.d, [c.p for c in cd.clusters], loose_orders, loose_sizes
    )
    return BoundaryBudget(
        k=root.size,
        leftmost_cluster=first.p,
        d=root.d,
        loose_orders=loose_orders,
        loose_sizes=loose_sizes,
        t=len(loose),
        cluster_boundaries=s_clusters,
        loose_boundaries=loose_boundaries,
        total=total,
        lower_bound=lower,
    )


def _dom1_partition(lf: LyndonFactorization) -> list[Domain]:
    """Right-to-left tiling of the text by order-1 extended domains.

    Only the order-1 domains on the tiling path are computed, so no domain
    table is built.
    """
    parts: list[Domain] = []
    i = lf.m
    while i >= 1:
        dom = compute_domain(lf, i, 1)
        parts.append(dom)
        i = dom.j - 1
    parts.reverse()
    return parts


class TheoremReport(NamedTuple):
    """Verdict of the run-count vs phrase-count bound for one string."""

    m: int
    z: int
    t: int  # parts in the extended-domain partition
    passes: bool  # m < 2z


class ExtdomPartition(NamedTuple):
    """Tiling of the text by order-1 extended domains, stripped right to left."""

    domains: tuple[Domain, ...]

    @property
    def t(self) -> int:
        return len(self.domains)


def extdom_partition(s: bytes) -> ExtdomPartition:
    """Partition ``s`` as extdom_1(F_{i_1}) ... extdom_1(F_{i_t}) with i_t = m."""
    if not s:
        raise ValueError("partition undefined for empty input")
    return ExtdomPartition(domains=tuple(_dom1_partition(lyndon_factorize(s))))


def check_theorem(s: bytes) -> TheoremReport:
    """Compute both factorization sizes and the m < 2z verdict."""
    if not s:
        raise ValueError("theorem check undefined for empty input")
    lf = lyndon_factorize(s)
    m = lf.m
    z = lz_factorize(s).z
    t = len(_dom1_partition(lf))
    return TheoremReport(m=m, z=z, t=t, passes=m < 2 * z)


@dataclass
class LemmaCheck:
    """One verified statement: how many instances were tested, how many failed."""

    name: str
    instances: int = 0
    failures: int = 0
    counterexample: str | None = None

    def record(self, ok: bool, witness: str = "", *values: object) -> None:
        """Count one instance; the first failure keeps ``witness.format(*values)``.

        The witness is formatted only for a failing instance, so passing
        instances cost no string formatting.  ``verify_lemmas`` calls this
        for its two one-instance checks and otherwise for failing instances
        only, in the order it visits them; it adds the passing ones with one
        ``record_many`` per check.
        """
        self.record_many(1, 0 if ok else 1, witness, *values)

    def record_many(
        self, instances: int, failures: int = 0, witness: str = "", *values: object
    ) -> None:
        """Count ``instances`` instances, ``failures`` of them failing.

        ``witness.format(*values)`` must describe the first failing one; it
        is kept only if no earlier instance failed.  With ``failures == 0``
        this adds passing instances in bulk: their order does not matter,
        since only a failure can set the counterexample.
        """
        self.instances += instances
        if failures:
            self.failures += failures
            if self.counterexample is None:
                self.counterexample = witness.format(*values)

    @property
    def passed(self) -> bool:
        return self.failures == 0


CHECK_NAMES = (
    "factor-order-dominates-runs",
    "window-at-anchor-prefix",
    "runs-between-share-prefix",
    "higher-order-suffix",
    "nested-domain-containment",
    "domain-window-boundary",
    "tandem-window-boundary",
    "tandem-window-inside-extdom",
    "disjoint-tandem-no-overlap",
    "group-shared-extdom",
    "group-window-concatenation",
    "group-window-boundaries",
    "disjoint-group-no-overlap",
    "tandem-inside-domain-no-overlap",
    "domain-laminarity",
    "decomposition-tiling",
    "budget-identities",
    "extdom-boundary-count",
    "partition-phrase-bound",
    "size-bound",
)


class LemmaReport(NamedTuple):
    """Outcome of re-checking every structural guarantee on one input string."""

    m: int
    z: int
    checks: tuple[LemmaCheck, ...]
    t: int | None = None  # order-1 partition size; None on empty input or a failed table

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _empty_window_failures(layer: DomainLayer, lz: LZFactorization, i: int) -> int:
    """How many empty domains of F_i have a window holding no phrase start.

    The empty order-d domain's window is F_i .. F_{i+d-1}: a fixed start and
    an end that grows with d, so its number of phrase starts never decreases
    along the orders d >= e_i.  The failing orders are therefore e_i, e_i + 1,
    ... up to the first passing one, where the scan stops.
    """
    runs = layer.lf.runs
    run = runs[i - 1]
    failures = 0
    for d in range(len(layer.rows[i - 1]) + 1, layer.lf.m - i + 2):
        window = run if d == 1 else Span(run.start, runs[i + d - 2].end)
        if lz.boundaries_in(window) >= 1:
            break
        failures += 1
    return failures


def _within(half: Domain, dom: Domain) -> bool:
    """True when a tandem half is ``dom`` itself, or lies in ``dom``'s span and window."""
    if half.i == dom.i and half.d == dom.d:
        return True
    return dom.j <= half.i < dom.i and half.i + half.d <= dom.i + dom.d


def _check_window_rules(
    groups: list[PGroup], lz: LZFactorization, window: LemmaCheck, disjoint: LemmaCheck,
    one: str, pair: str,
) -> None:
    """The window rules of p-groups, whose p = 2 case is a tandem.

    A group's window holds at least p - 1 phrase starts, and two groups that
    share no run have windows that do not overlap.  ``one`` and ``pair``
    format the witness of one group and of two groups.
    """
    for g in groups:
        if lz.boundaries_in(g.associated) < g.p - 1:
            window.record(False, one, g)
    window.record_many(len(groups) - window.failures)
    pairs = 0
    for a, b in combinations(groups, 2):
        if a.i + a.p - 1 < b.i or b.i + b.p - 1 < a.i:  # share no run; p = 2: |a.i - b.i| > 1
            pairs += 1
            if a.associated.overlaps(b.associated):
                disjoint.record(False, pair, a, b)
    disjoint.record_many(pairs - disjoint.failures)


def verify_lemmas(s: bytes) -> LemmaReport:
    """Run the whole battery of structural checks for ``s``.

    Every check is a proven consequence of the two factorizations'
    definitions, so a failure indicates a defect in this library, never a
    property of the input.  The tandem window rules are the p-group rules at
    p = 2 (``_check_window_rules``).

    Each check records its failing instances one at a time, in the order it
    visits them, so the first one recorded is the first counterexample.  It
    then adds its passing instances, its instance count less its failures,
    in one ``record_many`` call: no check makes a call per passing instance.

    The per-run walk decomposes each non-empty domain in integers: ``_scan``
    reads each scanned domain's anchor off the layer, ``rows[t-1][order-1].j``
    or t past the row's first empty order, ``_budget`` checks the budget
    identities from the cluster sizes and the loose orders and sizes, and
    ``_extent`` spans each loose subdomain's extended domain for the tiling
    check.  It builds no ``Domain``, ``PGroup``, ``CanonicalDecomposition``
    or ``BoundaryBudget`` for a root's subdomains; ``canonical_decomposition``
    and ``boundary_budget`` build those records from the same scan and rule.

    The checks read the sparse domain layer.  Where a check ranges over
    empty domains, their instances are counted rather than visited; the
    instance count, the failure count and the first counterexample equal
    those of visiting every instance in order:

    - ``domain-window-boundary`` and the empty branch of
      ``extdom-boundary-count``: along the orders d >= e_i the empty
      domain's window only grows, so the orders are evaluated upward from
      e_i until the first pass and the rest pass too (see
      ``_empty_window_failures``).  Every failing order is evaluated.
    - ``nested-domain-containment``: a sub-domain (k, d') with d' >= e_k is
      empty, and ``Span.contains`` accepts every empty span, so only the
      orders d' < e_k are evaluated and the rest count as passing.  A
      domain anchored at F_j has m - k + 1 sub-domains in each row
      j <= k < i, (i - j)(2m + 3 - i - j)/2 in all.
    - ``higher-order-suffix``: for d > e_i both dom_{d-1}(F_i) and
      dom_d(F_i) are empty and anchor at F_i, so ``cur >= prev`` reads
      ``i >= i``.  Orders up to e_i are evaluated and the rest count as
      passing, m(m - 1)/2 instances in all.
    - ``factor-order-dominates-runs`` (f_j > F_i for all j < i) first
      evaluates the m - 1 adjacent instances f_{i-1} > F_i and the m runs'
      F_k >= f_k.  When all of them hold, every pair holds by the chain
      f_j > F_{j+1} >= f_{j+1} > ... >= f_{i-1} > F_i, so the m(m-1)/2
      instances are counted as passing.  (F_k = f_k^{e_k} starts with f_k,
      so F_k >= f_k holds in every correct factorization; it is evaluated
      rather than assumed, so the shortcut stays exact on a corrupt one.)
      Otherwise every pair is evaluated.
    """
    lf = lyndon_factorize(s)
    lz = lz_factorize(s)
    checks = {name: LemmaCheck(name) for name in CHECK_NAMES}
    m = lf.m
    if m == 0:
        return LemmaReport(m=m, z=lz.z, checks=tuple(checks.values()))
    runs = lf.runs
    run_bytes = [span.slice(s) for span in runs]
    factor_bytes = [f.slice(s) for f, _ in lf.factors]

    c = checks["factor-order-dominates-runs"]
    if not (
        all(map(bytes.__gt__, factor_bytes, run_bytes[1:]))
        and all(map(bytes.__ge__, run_bytes, factor_bytes))
    ):
        for i in range(2, m + 1):
            for j in range(1, i):
                if not factor_bytes[j - 1] > run_bytes[i - 1]:
                    c.record(False, "j={} i={}", j, i)
    c.record_many(m * (m - 1) // 2 - c.failures)

    try:
        layer = DomainLayer(lf)
    except IntegrityError as exc:
        checks["window-at-anchor-prefix"].record(False, "{}", exc)
        return LemmaReport(m=m, z=lz.z, checks=tuple(checks.values()))
    rows = layer.rows
    nonempty = [dom for row in rows for dom in row]

    c = checks["window-at-anchor-prefix"]
    for dom in nonempty:
        if not (
            dom.associated.start == runs[dom.j - 1].start
            and dom.associated.length <= len(factor_bytes[dom.j - 1])
        ):
            c.record(False, "i={} d={}", dom.i, dom.d)
    c.record_many(len(nonempty) - c.failures)

    c = checks["runs-between-share-prefix"]
    between = 0
    for dom in nonempty:
        if dom.j + 1 >= dom.i:
            continue
        between += dom.i - dom.j - 1
        alpha = Span(runs[dom.i - 1].start, runs[dom.i + dom.d - 2].end).slice(s)
        for t, factor in enumerate(factor_bytes[dom.j : dom.i - 1], dom.j + 1):
            if not factor.startswith(alpha):
                c.record(False, "i={} d={} t={}", dom.i, dom.d, t)
    c.record_many(between - c.failures)

    c = checks["nested-domain-containment"]
    before = list(accumulate(map(len, rows), initial=0))  # row k is nonempty[before[k-1]:before[k]]
    nested = 0
    for dom in nonempty:
        i, j = dom.i, dom.j
        nested += (i - j) * (2 * m + 3 - i - j) // 2
        for sub in nonempty[before[j - 1] : before[i - 1]]:
            if not dom.span.contains(sub.span):
                c.record(False, "i={} d={} k={} d'={}", i, dom.d, sub.i, sub.d)
    c.record_many(nested - c.failures)  # the empty sub-domains among them: empty spans fit

    tandems, groups = layer.tandems, layer.groups
    _check_window_rules(
        tandems, lz, checks["tandem-window-boundary"], checks["disjoint-tandem-no-overlap"],
        "i={0.i} d={0.d}", "({0.i},{0.d}) ({1.i},{1.d})",
    )
    _check_window_rules(
        groups, lz, checks["group-window-boundaries"], checks["disjoint-group-no-overlap"],
        "i={0.i} p={0.p} d={0.d}", "({0.i},{0.p},{0.d}) ({1.i},{1.p},{1.d})",
    )

    c = checks["tandem-window-inside-extdom"]
    for td in tandems:
        if not extended_domain(td.members[0]).contains(td.associated):
            c.record(False, "i={} d={}", td.i, td.d)
    c.record_many(len(tandems) - c.failures)

    c = checks["group-shared-extdom"]
    for g in groups:
        shared = extended_domain(g.members[0])
        for member in g.members[1:]:
            if extended_domain(member) != shared:
                c.record(False, "i={} p={} d={}", g.i, g.p, g.d)
    c.record_many(sum(g.p - 1 for g in groups) - c.failures)

    c = checks["group-window-concatenation"]
    for g in groups:
        # the member pairs' tandem windows, rightmost pair first
        windows = (_make_group(g.members[k : k + 2]).associated for k in range(g.p - 2, -1, -1))
        if not _tiles(windows, g.associated.start, g.associated.end):
            c.record(False, "i={} p={} d={}", g.i, g.p, g.d)
    c.record_many(len(groups) - c.failures)

    c = checks["tandem-inside-domain-no-overlap"]
    inside = 0
    for dom in nonempty:
        for td in tandems:
            if _within(td.members[0], dom) and _within(td.members[1], dom):
                inside += 1
                if td.associated.overlaps(dom.associated):
                    c.record(False, "dom=({0.i},{0.d}) tandem=({1.i},{1.d})", dom, td)
    c.record_many(inside - c.failures)

    c = checks["domain-laminarity"]
    stack: list[Span] = []
    for span in sorted((dom.span for dom in nonempty), key=lambda sp: (sp.start, -sp.end)):
        while stack and stack[-1].end < span.start:
            stack.pop()
        if stack and stack[-1].end < span.end:
            c.record(False, "[{}..{}]", span.start, span.end)
        stack.append(span)
    c.record_many(len(nonempty) - c.failures)

    c_suffix = checks["higher-order-suffix"]
    c_window = checks["domain-window-boundary"]
    c_tile = checks["decomposition-tiling"]
    c_budget = checks["budget-identities"]
    c_count = checks["extdom-boundary-count"]
    anchors = [[dom.j for dom in row] for row in rows]  # j of orders 1 .. e_i - 1

    def anchor_at(t: int, order: int) -> int:
        row = anchors[t - 1]
        return row[order - 1] if order <= len(row) else t

    for i, row in enumerate(rows, 1):
        if row:  # orders past e_i, and all of an empty row's, pass: i >= i
            row_anchors = anchors[i - 1] + [i]  # j of orders 1 .. e_i
            for d in range(2, min(len(row_anchors), m - i + 1) + 1):
                if row_anchors[d - 1] < row_anchors[d - 2]:
                    c_suffix.record(False, "i={} d={}", i, d)
        for dom in row:
            # before the decomposition, whose failure skips the rest of the domain
            if lz.boundaries_in(dom.associated) < 1:
                c_window.record(False, "i={} d={}", i, dom.d)
            d, j = dom.d, dom.j
            try:
                sizes, loose = _scan(anchor_at, i, d, j)
                total = _budget(
                    i - j, d, sizes, [o for _, o, _ in loose], [t - a for t, _, a in loose]
                )[2]
            except IntegrityError as exc:
                c_budget.record(False, "i={} d={} {}", i, d, exc)
                continue
            ext = extended_domain(dom)
            ell = sizes[0]
            # the leftmost cluster's first member is dom_ell(F_j)
            ok = (loose[0][2] if loose else i + 1) - ell == j
            if ok:
                # F_j .. F_{j+ell-1}, the leftmost cluster's runs
                head = Span(runs[j - 1].start, runs[j + ell - 2].end)
                # With loose subdomains the last extended domain reaches the root's
                # extended end; a single all-covering cluster stops at F_i itself.
                target = ext.end if loose else runs[i - 1].end
                extents = [_extent(runs, *sub) for sub in loose]
                ok = _tiles([head, *extents], ext.start, target)
            if not ok:
                c_tile.record(False, "i={} d={}", i, d)
            # total >= ceil(k/2) + 1, or _budget would have raised
            if lz.boundaries_in(ext) < total:
                c_count.record(False, "i={} d={}", i, d)
        failures = _empty_window_failures(layer, lz, i)
        if failures:
            e = len(row) + 1  # the first empty order, and the first failing one
            c_window.record_many(failures, failures, "i={} d={}", i, e)
            # An empty domain's extended domain is its window and needs
            # ceil(0/2) + 1 = 1 boundary: the domain-window-boundary predicate.
            c_count.record_many(failures, failures, "i={} d={}", i, e)
    decomposed = len(nonempty) - c_budget.failures
    c_budget.record_many(decomposed)
    c_tile.record_many(decomposed - c_tile.failures)
    c_suffix.record_many(m * (m - 1) // 2 - c_suffix.failures)
    c_window.record_many(m * (m + 1) // 2 - c_window.failures)
    c_count.record_many(m * (m + 1) // 2 - c_budget.failures - c_count.failures)

    c = checks["partition-phrase-bound"]
    parts = _dom1_partition(lf)
    t = len(parts)
    tiles = _tiles(map(extended_domain, parts), 1, len(s))
    c.record(tiles and lz.z >= _ceil_half(m + t), "t={} m={} z={}", t, m, lz.z)

    checks["size-bound"].record(m < 2 * lz.z, "m={} z={}", m, lz.z)
    return LemmaReport(m=m, z=lz.z, checks=tuple(checks.values()), t=t)
