"""Dense reference for the domain layer and the verifier.

This is the whole-table implementation the library used before the sparse
domain layer: ``dense_table`` holds every (i, d) domain, the tandem and
group scans test every pair, and ``dense_verify_lemmas`` visits every
instance of every check one ``LemmaCheck.record`` call at a time.  It is
kept frozen so that the sparse layer's counted instances can be compared,
report against report, with instances that are really visited.  The
canonical decomposition and its boundary budget are written here from their
definitions, over the table's records, so a fault in the library's scan or
budget rule cannot match itself.
"""

from __future__ import annotations

from lynlz.domains import (
    CHECK_NAMES,
    Domain,
    LemmaCheck,
    LemmaReport,
    PGroup,
    _ceil_half,
    _dom1_partition,
    _domain,
    extended_domain,
)
from lynlz.errors import IntegrityError
from lynlz.lyndon import LyndonFactorization, lyndon_factorize
from lynlz.lz import lz_factorize
from lynlz.text import Span


def dense_table(lf: LyndonFactorization) -> dict[tuple[int, int], Domain]:
    """Every (i, d) domain, keyed in ascending i then d; equal to ``compute_domain`` entry by entry.

    For a fixed i the search for order d + 1 resumes at order d's leftmost
    occurrence q: an occurrence of F_i..F_{i+d} is also one of its prefix
    F_i..F_{i+d-1}, so none starts left of q.  The trivial occurrence at F_i's
    start bounds every order from above, so once q reaches it every higher
    order is empty and needs no search.
    """
    runs = lf.runs
    text = lf.text
    m = lf.m
    table: dict[tuple[int, int], Domain] = {}
    for i in range(1, m + 1):
        a_start = runs[i - 1].start
        q = 1
        for d in range(1, m - i + 2):
            a_end = runs[i + d - 2].end
            q = text.find(text[a_start - 1 : a_end], q - 1) + 1
            if q == a_start:
                empty = Span.empty(a_start)
                for e in range(d, m - i + 2):
                    table[(i, e)] = Domain(
                        i=i, d=e, j=i, span=empty, associated=Span(a_start, runs[i + e - 2].end)
                    )
                break
            table[(i, d)] = _domain(lf, i, d, q)
    return table


def _dense_group(lf: LyndonFactorization, members: tuple[Domain, ...]) -> PGroup:
    """The group of ``members``, its window counted from the run spans.

    The window is the suffix of ``members[0]``'s window past its first
    |F_{i+p-1} .. F_{i+p+d-2}| bytes, a length read off the run spans rather
    than off the last member's window.
    """
    i = members[0].i
    p = len(members)
    d = members[-1].d
    runs = lf.runs
    first = members[0].associated
    prefix_len = runs[i + p + d - 3].end - runs[i + p - 2].start + 1
    return PGroup(
        i=i,
        p=p,
        d=d,
        members=members,
        associated=Span(first.start + prefix_len, first.start + first.length - 1),
    )


def dense_tandems(lf: LyndonFactorization, table: dict[tuple[int, int], Domain]) -> list[PGroup]:
    """All tandem pairs dom_{d+1}(F_i), dom_d(F_{i+1}), ascending i then d, tested pair by pair."""
    out: list[PGroup] = []
    m = lf.m
    for i in range(1, m):
        for d in range(1, m - i + 1):
            inner = table[(i, d + 1)]
            outer = table[(i + 1, d)]
            if inner.j == outer.j:
                out.append(_dense_group(lf, (inner, outer)))
    return out


def dense_groups(lf: LyndonFactorization, table: dict[tuple[int, int], Domain]) -> list[PGroup]:
    """Maximal p-groups (p >= 2): maximal chains of tandem pairs.

    Consecutive tandem conditions live on diagonals i + d = const; a maximal
    run of satisfied conditions along a diagonal yields one group that cannot
    be extended on either side.
    """
    m = lf.m
    groups: list[PGroup] = []
    for c in range(2, m + 1):
        run_start: int | None = None
        for i in range(1, c + 1):  # i == c acts as a sentinel that flushes the chain
            linked = False
            if i < c:
                inner = table[(i, c - i + 1)]
                outer = table[(i + 1, c - i)]
                linked = inner.j == outer.j
            if linked and run_start is None:
                run_start = i
            elif not linked and run_start is not None:
                members = tuple(table[(t, c - t + 1)] for t in range(run_start, i + 1))
                groups.append(_dense_group(lf, members))
                run_start = None
    groups.sort(key=lambda g: (g.i, g.d))
    return groups


def dense_decomposition(
    table: dict[tuple[int, int], Domain], root: Domain
) -> list[list[Domain] | Domain]:
    """The canonical decomposition of a non-empty root, left to right.

    Clusters are lists of their members and loose subdomains bare domains.
    The scan reads F_{i-1} down to F_j, each domain one order above the one
    before: a domain anchored at the root's F_j joins the cluster being
    built; one anchored right of F_j is loose, closes that cluster, and the
    scan restarts at order 1 just left of its span; one anchored left of F_j
    escapes the root.
    """
    j = root.j
    found: list[list[Domain] | Domain] = []  # right to left
    cluster = [root]
    t, order = root.i - 1, root.d + 1
    while t >= j:
        sub = table[(t, order)]
        if sub.j < j:
            raise IntegrityError(
                f"scan of dom(i={root.i}, d={root.d}) escaped its anchor: "
                f"dom(i={t}, d={order}) anchors at {sub.j} < {j}"
            )
        if sub.j == j:
            cluster.append(sub)
            t, order = t - 1, order + 1
        else:
            if cluster:
                found.append(cluster[::-1])
            found.append(sub)
            cluster = []
            t, order = sub.j - 1, 1
    found.append(cluster[::-1])
    return found[::-1]


def dense_budget(root: Domain, items: list[list[Domain] | Domain]) -> int:
    """The phrase starts guaranteed in the root's extended domain, after checking the budget.

    One at the root's own window, p - 1 in each cluster of p members and
    ceil(k'/2) + 1 in the extended domain of each loose subdomain of size
    k'; at least ceil(k/2) + 1 for a root of size k.  With loose
    subdomains, the leftmost cluster's ell runs and the loose extended
    domains (size + order runs each) make up the root's k + d runs, and
    the clusters hold ell - 1 + sum(d_h) - t - d - #{h < t: d_h > 1}
    boundaries.
    """
    if not isinstance(items[0], list):
        raise IntegrityError("budget inconsistency: leftmost item is not a cluster")
    ell = len(items[0])
    k, d = root.i - root.j, root.d
    clusters = [item for item in items if isinstance(item, list)]
    loose = [item for item in items if isinstance(item, Domain)]
    boundaries = sum(len(cluster) - 1 for cluster in clusters)
    total = 1 + boundaries + sum(_ceil_half(sub.i - sub.j) + 1 for sub in loose)
    if loose:
        if ell + sum(sub.i - sub.j + sub.d for sub in loose) != k + d:
            raise IntegrityError("budget inconsistency: loose sizes do not balance")
        raised = sum(1 for sub in loose[:-1] if sub.d > 1)
        if boundaries != ell - 1 + sum(sub.d for sub in loose) - len(loose) - d - raised:
            raise IntegrityError("budget inconsistency: cluster boundary count")
    if total < _ceil_half(k) + 1:
        raise IntegrityError("budget inconsistency: total below guaranteed bound")
    return total


def dense_verify_lemmas(s: bytes) -> LemmaReport:
    """Run the whole battery of structural checks for ``s``.

    Every check is a proven consequence of the two factorizations'
    definitions, so a failure indicates a defect in this library, never a
    property of the input.
    """
    lf = lyndon_factorize(s)
    lz = lz_factorize(s)
    checks = {name: LemmaCheck(name) for name in CHECK_NAMES}
    report = LemmaReport(m=lf.m, z=lz.z, checks=tuple(checks.values()))
    m = lf.m
    if m == 0:
        return report
    runs = lf.runs
    run_bytes = [span.slice(s) for span in runs]
    factor_bytes = [f.slice(s) for f, _ in lf.factors]

    c = checks["factor-order-dominates-runs"]
    for i in range(2, m + 1):
        target = run_bytes[i - 1]
        for jj in range(1, i):
            c.record(factor_bytes[jj - 1] > target, "j={} i={}", jj, i)

    try:
        table = dense_table(lf)
    except IntegrityError as exc:
        checks["window-at-anchor-prefix"].record(False, "{}", exc)
        return report
    domains = list(table.values())
    nonempty = [dom for dom in domains if not dom.is_empty]

    c = checks["window-at-anchor-prefix"]
    for dom in nonempty:
        ok = (
            dom.associated.start == runs[dom.j - 1].start
            and dom.associated.length <= len(factor_bytes[dom.j - 1])
        )
        c.record(ok, "i={} d={}", dom.i, dom.d)

    c = checks["runs-between-share-prefix"]
    for dom in nonempty:
        if dom.j + 1 >= dom.i:
            continue
        alpha = Span(runs[dom.i - 1].start, runs[dom.i + dom.d - 2].end).slice(s)
        for t in range(dom.j + 1, dom.i):
            c.record(factor_bytes[t - 1].startswith(alpha), "i={} d={} t={}", dom.i, dom.d, t)

    c = checks["higher-order-suffix"]
    for i in range(1, m + 1):
        prev = table[(i, 1)].j
        for d in range(2, m - i + 2):
            cur = table[(i, d)].j
            c.record(cur >= prev, "i={} d={}", i, d)
            prev = cur

    c = checks["nested-domain-containment"]
    for dom in nonempty:
        for k in range(dom.j, dom.i):
            for dprime in range(1, m - k + 2):
                sub = table[(k, dprime)]
                c.record(
                    dom.span.contains(sub.span), "i={} d={} k={} d'={}", dom.i, dom.d, k, dprime
                )

    c = checks["domain-window-boundary"]
    window_ok = [lz.boundaries_in(dom.associated) >= 1 for dom in domains]
    for dom, ok in zip(domains, window_ok):
        c.record(ok, "i={} d={}", dom.i, dom.d)

    tandems = dense_tandems(lf, table)
    c = checks["tandem-window-boundary"]
    for td in tandems:
        c.record(lz.boundaries_in(td.associated) >= 1, "i={} d={}", td.i, td.d)

    c = checks["tandem-window-inside-extdom"]
    for td in tandems:
        c.record(extended_domain(td.members[0]).contains(td.associated), "i={} d={}", td.i, td.d)

    c = checks["disjoint-tandem-no-overlap"]
    for a in range(len(tandems)):
        ta = tandems[a]
        for b in range(a + 1, len(tandems)):
            tb = tandems[b]
            if abs(tb.i - ta.i) <= 1:
                continue  # sharing a run: not disjoint
            c.record(
                not ta.associated.overlaps(tb.associated), "({},{}) ({},{})", ta.i, ta.d, tb.i, tb.d
            )

    groups = dense_groups(lf, table)
    c = checks["group-shared-extdom"]
    for g in groups:
        shared = extended_domain(g.members[0])
        for member in g.members[1:]:
            c.record(extended_domain(member) == shared, "i={} p={} d={}", g.i, g.p, g.d)

    c = checks["group-window-concatenation"]
    for g in groups:
        cursor = g.associated.start
        ok = True
        for idx in range(g.p - 2, -1, -1):  # reverse order of member tandems
            window = _dense_group(lf, g.members[idx : idx + 2]).associated
            if window.start != cursor:
                ok = False
                break
            cursor = window.end + 1
        ok = ok and cursor == g.associated.end + 1
        c.record(ok, "i={} p={} d={}", g.i, g.p, g.d)

    c = checks["group-window-boundaries"]
    for g in groups:
        c.record(lz.boundaries_in(g.associated) >= g.p - 1, "i={} p={} d={}", g.i, g.p, g.d)

    c = checks["disjoint-group-no-overlap"]
    for a in range(len(groups)):
        ga = groups[a]
        for b in range(a + 1, len(groups)):
            gb = groups[b]
            if ga.i + ga.p - 1 >= gb.i and gb.i + gb.p - 1 >= ga.i:
                continue  # share a run: not disjoint
            c.record(
                not ga.associated.overlaps(gb.associated),
                "({},{},{}) ({},{},{})",
                ga.i, ga.p, ga.d, gb.i, gb.p, gb.d,
            )

    c = checks["tandem-inside-domain-no-overlap"]
    for dom in nonempty:
        reach = dom.i + dom.d
        for td in tandems:
            fits = td.i + td.d + 1 <= reach
            part1 = (td.i == dom.i and td.d + 1 == dom.d) or (
                dom.j <= td.i < dom.i and fits
            )
            part2 = (td.i + 1 == dom.i and td.d == dom.d) or (
                dom.j <= td.i + 1 < dom.i and fits
            )
            if part1 and part2:
                c.record(
                    not td.associated.overlaps(dom.associated),
                    "dom=({},{}) tandem=({},{})",
                    dom.i, dom.d, td.i, td.d,
                )

    c = checks["domain-laminarity"]
    stack: list[Span] = []
    for span in sorted((dom.span for dom in nonempty), key=lambda sp: (sp.start, -sp.end)):
        while stack and stack[-1].end < span.start:
            stack.pop()
        c.record(not stack or stack[-1].end >= span.end, "[{}..{}]", span.start, span.end)
        stack.append(span)

    c_tile = checks["decomposition-tiling"]
    c_budget = checks["budget-identities"]
    c_count = checks["extdom-boundary-count"]
    for dom, window_has_boundary in zip(domains, window_ok):
        if dom.is_empty:
            # An empty domain's extended domain is its window and needs
            # ceil(0/2) + 1 = 1 boundary: the domain-window-boundary predicate.
            c_count.record(window_has_boundary, "i={} d={}", dom.i, dom.d)
            continue
        ext = extended_domain(dom)
        need = _ceil_half(dom.size) + 1
        try:
            items = dense_decomposition(table, dom)
            total = dense_budget(dom, items)
        except IntegrityError as exc:
            c_budget.record(False, "i={} d={} {}", dom.i, dom.d, exc)
            continue
        c_budget.record(True)
        first = items[0]
        loose = [item for item in items if isinstance(item, Domain)]
        ok = isinstance(first, list) and first[0].i == dom.j
        if ok:
            cursor = runs[dom.j + len(first) - 2].end + 1  # after F_j .. F_{j+ell-1}
            if runs[dom.j - 1].start != ext.start:
                ok = False
            for sub in loose:
                sub_ext = extended_domain(sub)
                if sub_ext.start != cursor:
                    ok = False
                    break
                cursor = sub_ext.end + 1
            # With loose subdomains the last extended domain reaches the root's
            # extended end; a single all-covering cluster stops at F_i itself.
            target = ext.end if loose else runs[dom.i - 1].end
            ok = ok and cursor == target + 1
        c_tile.record(ok, "i={} d={}", dom.i, dom.d)
        c_count.record(lz.boundaries_in(ext) >= max(total, need), "i={} d={}", dom.i, dom.d)

    c = checks["partition-phrase-bound"]
    parts = _dom1_partition(lf)
    t = len(parts)
    tiles = True
    cursor = 1
    for dom in parts:
        ext = extended_domain(dom)
        if ext.start != cursor:
            tiles = False
            break
        cursor = ext.end + 1
    tiles = tiles and cursor == len(s) + 1
    c.record(tiles and lz.z >= _ceil_half(m + t), "t={} m={} z={}", t, m, lz.z)

    checks["size-bound"].record(m < 2 * lz.z, "m={} z={}", m, lz.z)
    return report._replace(t=t)
