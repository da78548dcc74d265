"""Command-line front end.

Subcommands map one-to-one onto the library: ``lyndon``, ``lz``, ``domains``,
``canonical``, ``verify``, ``family``, ``search`` and ``partition``.  Exit
codes: 0 success / all checks pass, 1 a check failed (witness on stdout) or a
``defect:`` line on stderr, 2 usage or input error (``error:`` on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator

from .bounds import (
    SEARCH_LIMIT,
    exhaustive_search,
    expected_counts,
    expected_lz_phrases,
    extdom_partition,
    generate_family,
    iter_search,
)
from .domains import (
    Domain,
    DomainLayer,
    PGroup,
    boundary_budget,
    canonical_decomposition,
    compute_domain,
    extended_domain,
    verify_lemmas,
)
from .errors import IntegrityError
from .lyndon import lyndon_factorize, oracle_lyndon_dp
from .lz import lz_factorize, oracle_lz_naive
from .text import Span

# render_bytes' escapes: every byte outside printable ASCII, and the backslash.
_ESCAPES = {b: f"\\x{b:02x}" for b in range(256) if not 0x20 <= b < 0x7F or b == 0x5C}


def render_bytes(data: bytes) -> str:
    """Printable rendering; non-ASCII and control bytes become \\xNN escapes."""
    return data.decode("latin-1").translate(_ESCAPES)


def _span_dict(span: Span) -> dict:
    d: dict = {"start": span.start, "end": span.end}
    if span.is_empty:
        d["empty"] = True
    return d


def _domain_dict(dom: Domain) -> dict:
    return {
        "i": dom.i,
        "d": dom.d,
        "j": dom.j,
        "size": dom.size,
        "empty": dom.is_empty,
        "span": _span_dict(dom.span),
        "associated": _span_dict(dom.associated),
        "extended": _span_dict(extended_domain(dom)),
    }


def _tandem_dict(td: PGroup) -> dict:
    inner, outer = td.members
    return {
        "i": td.i,
        "d": td.d,
        "inner": {"i": inner.i, "d": inner.d},
        "outer": {"i": outer.i, "d": outer.d},
        "associated": _span_dict(td.associated),
    }


def _group_dict(g: PGroup) -> dict:
    return {
        "i": g.i,
        "p": g.p,
        "d": g.d,
        "members": [{"i": dom.i, "d": dom.d} for dom in g.members],
        "associated": _span_dict(g.associated),
    }


_ENCODER = json.JSONEncoder(indent=2)


def _emit_json(obj: dict) -> None:
    """Print ``json.dumps(obj, indent=2)`` for a non-empty ``obj``, one value at a time.

    An iterator value (a generator or ``map``) is printed as a JSON list
    while it is walked, so only one of its items is alive at once.  JSON
    strings never hold a raw newline, so indenting every line of an encoded
    value nests it at its depth.
    """
    write = sys.stdout.write
    encode = _ENCODER.encode
    sep = "{"
    for key, value in obj.items():
        write(f"{sep}\n  {encode(key)}: ")
        sep = ","
        if not isinstance(value, Iterator):
            write(encode(value).replace("\n", "\n  "))
            continue
        item_sep = "["
        for item in value:
            write(item_sep + "\n    " + encode(item).replace("\n", "\n    "))
            item_sep = ","
        write("[]" if item_sep == "[" else "\n  ]")
    write("\n}\n")


def _emit_tsv(rows: Iterable[list[object]]) -> None:
    for row in rows:
        print("\t".join(str(cell) for cell in row))


def _read_input(args: argparse.Namespace) -> bytes:
    strip = args.strip_newline  # None strips standard input only
    if args.text is not None:
        data = args.text.encode("latin-1")
    elif args.file is not None:
        with open(args.file, "rb") as f:
            data = f.read()
    else:
        data = sys.stdin.buffer.read()
        strip = strip is not False  # shell pipelines append a newline
    if strip:
        if data.endswith(b"\r\n"):
            data = data[:-2]
        elif data.endswith(b"\n"):
            data = data[:-1]
    return data


def _cmd_lyndon(args: argparse.Namespace) -> int:
    s = _read_input(args)
    lf = lyndon_factorize(s)
    if args.oracle_check:
        slow = oracle_lyndon_dp(s)  # exponential, so bounded by lyndon.ORACLE_LIMIT
        if (lf.factors, lf.runs) != (slow.factors, slow.runs):
            raise IntegrityError(f"factorization disagrees with the oracle on {render_bytes(s)}")
    if args.format == "json":
        runs = [
            {
                "index": i,
                "span": _span_dict(r),
                "factor": render_bytes(f.slice(s)),
                "exponent": e,
            }
            for i, (r, (f, e)) in enumerate(zip(lf.runs, lf.factors), 1)
        ]
        _emit_json({"input_len": len(s), "m": lf.m, "runs": runs})
    elif args.format == "tsv":
        _emit_tsv(
            [i, r.start, r.end, render_bytes(f.slice(s)), e]
            for i, (r, (f, e)) in enumerate(zip(lf.runs, lf.factors), 1)
        )
    else:
        print(f"input length {len(s)}, m = {lf.m}")
        for i, (r, (f, e)) in enumerate(zip(lf.runs, lf.factors), 1):
            print(f"  run {i}: [{r.start}..{r.end}] = ({render_bytes(f.slice(s))})^{e}")
    return 0


def _cmd_lz(args: argparse.Namespace) -> int:
    s = _read_input(args)
    lz = lz_factorize(s)
    if args.oracle_check:
        slow = oracle_lz_naive(s)  # quadratic, so bounded by lz.ORACLE_LIMIT
        if lz.phrases != slow.phrases:
            raise IntegrityError(f"parse disagrees with the oracle on {render_bytes(s)}")
    if args.format == "json":
        _emit_json(
            {
                "input_len": len(s),
                "z": lz.z,
                "phrases": [
                    {"index": i, "span": _span_dict(p), "text": render_bytes(p.slice(s))}
                    for i, p in enumerate(lz.phrases, 1)
                ],
                "boundaries": [p.start for p in lz.phrases],
            }
        )
    elif args.format == "tsv":
        _emit_tsv([i, p.start, p.end, render_bytes(p.slice(s))] for i, p in enumerate(lz.phrases, 1))
    else:
        print(f"input length {len(s)}, z = {lz.z}")
        for i, p in enumerate(lz.phrases, 1):
            print(f"  phrase {i}: [{p.start}..{p.end}] = {render_bytes(p.slice(s))}")
    return 0


def _cmd_domains(args: argparse.Namespace) -> int:
    s = _read_input(args)
    lf = lyndon_factorize(s)
    layer = DomainLayer(lf)
    domains = layer.domains()  # a generator, walked once by each format
    tandems, groups = layer.tandems, layer.groups
    if args.format == "json":
        _emit_json(
            {
                "input_len": len(s),
                "m": lf.m,
                "domains": map(_domain_dict, domains),
                "tandems": map(_tandem_dict, tandems),
                "groups": map(_group_dict, groups),
            }
        )
    elif args.format == "tsv":
        _emit_tsv(["domain", dom.i, dom.d, dom.j, dom.size, dom.span.start, dom.span.end] for dom in domains)
        _emit_tsv(["tandem", td.i, td.d, "", "", td.associated.start, td.associated.end] for td in tandems)
        _emit_tsv(["group", g.i, g.d, g.p, "", g.associated.start, g.associated.end] for g in groups)
    else:
        print(f"input length {len(s)}, m = {lf.m}")
        for dom in domains:
            body = "empty" if dom.is_empty else f"[{dom.span.start}..{dom.span.end}]"
            print(
                f"  domain(i={dom.i}, d={dom.d}): {body}, window "
                f"[{dom.associated.start}..{dom.associated.end}]"
            )
        for td in tandems:
            print(f"  tandem(i={td.i}, d={td.d}): window [{td.associated.start}..{td.associated.end}]")
        for g in groups:
            print(f"  group(i={g.i}, p={g.p}, d={g.d}): window [{g.associated.start}..{g.associated.end}]")
    return 0


def _cmd_canonical(args: argparse.Namespace) -> int:
    s = _read_input(args)
    lf = lyndon_factorize(s)
    root = compute_domain(lf, args.run, args.order)
    cd = canonical_decomposition(lf, root)
    budget = boundary_budget(cd)
    if args.format == "json":
        sequence = []
        for item in cd.sequence:
            if isinstance(item, PGroup):
                sequence.append({"kind": "cluster", "members": [_domain_dict(d) for d in item.members]})
            else:
                sequence.append({"kind": "loose", "domain": _domain_dict(item)})
        _emit_json(
            {"input_len": len(s), "root": _domain_dict(root), "sequence": sequence, "budget": budget._asdict()}
        )
    elif args.format == "tsv":
        rows: list[list[object]] = []
        for item in cd.sequence:
            if isinstance(item, PGroup):
                rows.append(["cluster", item.p, " ".join(f"({d.i},{d.d})" for d in item.members)])
            else:
                rows.append(["loose", item.size, f"({item.i},{item.d})"])
        _emit_tsv(rows)
    else:
        print(f"decomposition of domain(i={root.i}, d={root.d}), size {root.size}")
        for item in cd.sequence:
            if isinstance(item, PGroup):
                members = ", ".join(f"(i={d.i}, d={d.d})" for d in item.members)
                print(f"  cluster of {item.p}: {members}")
            else:
                print(f"  loose: (i={item.i}, d={item.d}), size {item.size}")
        print(
            f"budget: 1 + {budget.loose_boundaries} + {budget.cluster_boundaries} = {budget.total}"
            f" >= {budget.lower_bound}"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    s = _read_input(args)
    report = verify_lemmas(s)
    m, z = report.m, report.z
    if args.format == "json":
        _emit_json(
            {
                "input_len": len(s),
                "m": m,
                "z": z,
                "t": report.t,
                "size_bound": {"passes": m < 2 * z, "slack": 2 * z - m} if s else None,
                "all_passed": report.passed,
                "verdicts": {
                    c.name: {"instances": c.instances, "failures": c.failures, "counterexample": c.counterexample}
                    for c in report.checks
                },
            }
        )
    elif args.format == "tsv":
        _emit_tsv(
            [[c.name, c.instances, c.failures, c.counterexample or ""] for c in report.checks]
        )
    else:
        print(f"input length {len(s)}, m = {m}, z = {z}")
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.counterexample}]" if c.counterexample else ""
            print(f"  {status} {c.name} ({c.instances} instances){extra}")
        if report.passed:
            print("all checks passed")
        else:
            print("violation found: this indicates a defect in the library, not a property of the input")
    if not report.passed:
        return 1
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    s = generate_family(args.k)  # ValueError below k = 0 or above FAMILY_LIMIT bytes
    counts = expected_counts(args.k) if args.k >= 2 or args.check else None  # ValueError below k = 2
    status = 0
    if args.check:
        lf = lyndon_factorize(s)
        lz = lz_factorize(s)
        phrases = [p.slice(s) for p in lz.phrases]
        phrases_match = phrases == expected_lz_phrases(args.k)
        counts_match = lf.m == counts.m_k and lz.z == counts.z_k
        if not (counts_match and phrases_match):
            status = 1
    if args.format == "json":
        out: dict = {"k": args.k, "length": len(s), "string": render_bytes(s)}
        if counts is not None:
            out["expected"] = {"m": counts.m_k, "z": counts.z_k}
        if args.check:
            out["computed"] = {"m": lf.m, "z": lz.z}
            out["phrases"] = [render_bytes(p) for p in phrases]
            out["counts_match"] = counts_match
            out["phrases_match"] = phrases_match
        _emit_json(out)
    elif args.format == "tsv":
        row = [args.k, len(s), render_bytes(s)]
        if args.check:
            row += [lf.m, lz.z]
        _emit_tsv([row])
    else:
        print(f"family k={args.k}: length {len(s)}")
        print(f"  {render_bytes(s)}")
        if counts is not None:
            print(f"  expected m = {counts.m_k}, z = {counts.z_k}")
        if args.check:
            print(f"  computed m = {lf.m}, z = {lz.z}")
            print(f"  phrases: {' '.join(map(render_bytes, phrases))}")
            print("  check passed" if status == 0 else "  MISMATCH against closed forms")
    return status


def _cmd_partition(args: argparse.Namespace) -> int:
    s = _read_input(args)
    part = extdom_partition(s)
    m = part.domains[-1].i  # the partition ends at run i_t = m
    z = lz_factorize(s).z
    bound = (m + part.t + 1) // 2
    satisfied = z >= bound
    if args.format == "json":
        _emit_json(
            {
                "input_len": len(s),
                "m": m,
                "z": z,
                "t": part.t,
                "partition": [
                    {"span": _span_dict(extended_domain(dom)), "size": dom.size}
                    for dom in part.domains
                ],
                "phrase_bound": bound,
                "bound_satisfied": satisfied,
            }
        )
    elif args.format == "tsv":
        _emit_tsv([[*extended_domain(dom), dom.size] for dom in part.domains])
    else:
        print(f"input length {len(s)}, m = {m}, z = {z}, t = {part.t}")
        for dom in part.domains:
            sp = extended_domain(dom)
            print(f"  part [{sp.start}..{sp.end}], domain size {dom.size}")
        print(f"phrase bound: z = {z} >= ceil((m+t)/2) = {bound}: {'ok' if satisfied else 'VIOLATED'}")
    return 0 if satisfied else 1


def _cmd_search(args: argparse.Namespace) -> int:
    sweep = {key: getattr(args, key) for key in ("dedupe", "check_lemmas", "jobs", "limit")}
    if args.format == "tsv":
        for rec in iter_search(args.sigma, args.max_len, **sweep):
            print(
                f"{args.sigma}\t{len(rec.string)}\t{render_bytes(rec.string)}\t{rec.m}\t{rec.z}\t{2 * rec.z - rec.m}"
            )
        return 0
    summaries = exhaustive_search(args.sigma, args.max_len, **sweep)
    total = sum(ls.count for ls in summaries)
    if args.format == "json":
        per_length = [ls._asdict() for ls in summaries]
        for entry in per_length:
            for key in ("max_diff_string", "max_ratio_string"):
                if entry[key] is not None:
                    entry[key] = render_bytes(entry[key])
        _emit_json(
            {
                "sigma": args.sigma,
                "max_len": args.max_len,
                "dedupe": args.dedupe,
                "lemmas_checked": args.check_lemmas,
                "total": total,
                "per_length": per_length,
            }
        )
    else:
        print(f"searched {total} strings over {args.sigma} letters, lengths 1..{args.max_len}")
        for ls in summaries:
            print(
                f"  n={ls.n}: {ls.count} strings, max m-z = {ls.max_diff}"
                f" ({render_bytes(ls.max_diff_string)}), max m/z = {ls.max_ratio:.4f}"
                f" ({render_bytes(ls.max_ratio_string)})"
            )
    return 0


COMMANDS = ("lyndon", "lz", "domains", "canonical", "verify", "family", "search", "partition")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``lynlz`` parser with every subcommand, or with ``command``'s alone.

    A one-command parser still names all of ``COMMANDS`` in its usage line,
    so the text it prints is the full parser's for that command's arguments.
    """
    parser = argparse.ArgumentParser(
        prog="lynlz",
        description="Lyndon vs non-overlapping LZ factorizations: reports, "
        "structural verification and extremal search.",
    )
    # The full parser lists the commands from its choices.  A metavar there
    # would also rename the action in its "argument command:" errors.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name: str, help: str, handler) -> argparse.ArgumentParser | None:
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def add_io(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group()
        src.add_argument("--text", help="literal input (latin-1 bytes); default reads stdin")
        src.add_argument("--file", help="read input bytes from this file")
        p.add_argument(
            "--strip-newline",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="drop one trailing line terminator (default: only for stdin)",
        )
        p.add_argument("--format", choices=("human", "json", "tsv"), default="human")

    if p := add("lyndon", "Lyndon factorization report", _cmd_lyndon):
        add_io(p)
        p.add_argument("--oracle-check", action="store_true", help="cross-check against the backtracking oracle")

    if p := add("lz", "non-overlapping LZ factorization report", _cmd_lz):
        add_io(p)
        p.add_argument("--oracle-check", action="store_true", help="cross-check against the naive greedy oracle")

    if p := add("domains", "all domains, tandem domains and groups", _cmd_domains):
        add_io(p)

    if p := add("canonical", "canonical subdomain decomposition of one domain", _cmd_canonical):
        add_io(p)
        p.add_argument("--run", type=int, required=True, help="run index i (1-based)")
        p.add_argument("--order", type=int, required=True, help="domain order d")

    if p := add("verify", "re-check every structural guarantee on the input", _cmd_verify):
        add_io(p)

    if p := add("family", "lower-bound family string and its closed-form sizes", _cmd_family):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--check", action="store_true", help="verify sizes and the exact phrase list")
        p.add_argument("--format", choices=("human", "json", "tsv"), default="human")

    if p := add("search", "enumerate all strings up to a length, track extremes", _cmd_search):
        p.add_argument("--sigma", type=int, required=True, help="alphabet size")
        p.add_argument("--max-len", type=int, required=True)
        p.add_argument("--dedupe", action="store_true", help="skip relabel-equivalent strings")
        p.add_argument("--check-lemmas", action="store_true", help="run the full verifier per string")
        p.add_argument("--jobs", type=int, default=None, help="worker processes (default: CPUs)")
        p.add_argument("--limit", type=int, default=SEARCH_LIMIT, help="refuse to enumerate more strings than this")
        p.add_argument("--format", choices=("human", "json", "tsv"), default="human")

    if p := add("partition", "tile the input into order-1 extended domains", _cmd_partition):
        add_io(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Build only the subparser that will run.  Anything else (help, an
    # unknown or abbreviated command, an option first) needs the full parser.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except IntegrityError as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of standard output has gone (``lynlz ... | head``), which
        # is no error.  Point the descriptor at devnull so that the flush at
        # exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
