"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Feeds deliberately corrupted outputs to every check and to the timed loop,
and exits non-zero unless each corruption is counted as a failure.  Correct
outputs must still pass, so the checks are not simply rejecting everything.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys

import checks
import run
import workloads
from lynlz import Span, lyndon_factorize, lz_factorize

failures = 0


def expect(ok: bool, label: str) -> None:
    global failures
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    failures += not ok


def runs_of(lf) -> list[tuple[int, int, int, int]]:
    return [(r.start, r.end, f.length, e) for r, (f, e) in zip(lf.runs, lf.factors)]


def phrases_of(lz) -> list[tuple[int, int]]:
    return [(p.start, p.end) for p in lz.phrases]


def test_parse_checks() -> None:
    rng = random.Random(7)
    text = bytes(rng.choice(b"ab") for _ in range(2000))
    lf, lz = lyndon_factorize(text), lz_factorize(text)
    runs, phrases = runs_of(lf), phrases_of(lz)
    expect(checks.check_lyndon(text, runs) is None, "correct Lyndon runs pass")
    expect(checks.check_lz(text, phrases) is None, "correct LZ phrases pass")

    s, e = phrases[10]
    bad = {
        "last phrase dropped": phrases[:-1],
        "two phrases merged": phrases[:10] + [(s, phrases[11][1])] + phrases[12:],
        "phrase split": phrases[:10] + [(s, s), (s + 1, e)] + phrases[11:] if e > s else None,
        "boundary shifted": phrases[:10] + [(s, e - 1), (e, phrases[11][1])] + phrases[12:],
        "fresh letter glued to next": [(1, 2)] + phrases[2:],
    }
    for label, corrupt in bad.items():
        if corrupt is not None:
            expect(checks.check_lz(text, corrupt) is not None, f"LZ corruption caught: {label}")

    rep = b"ab" * 50 + b"a"  # runs (ab)^50, a
    rep_runs = runs_of(lyndon_factorize(rep))
    expect(checks.check_lyndon(rep, rep_runs) is None, "correct repetitive runs pass")
    bad_runs = {
        "run split into equal factors": [(1, 2, 2, 1), (3, 100, 2, 49), (101, 101, 1, 1)],
        "wrong exponent": [(1, 100, 2, 49), (101, 101, 1, 1)],
        "non-Lyndon factor": [(1, 101, 101, 1)],
        "factors increase": [(1, 1, 1, 1), (2, 101, 100, 1)],
        "last run dropped": rep_runs[:-1],
    }
    for label, corrupt in bad_runs.items():
        expect(checks.check_lyndon(rep, corrupt) is not None, f"Lyndon corruption caught: {label}")
    expect(checks.check_size_bound(10, 5) is not None, "m = 2z caught")


def test_family_and_cli_checks() -> None:
    k = 6
    text = checks.family_text(k)
    m_k, z_k = checks.family_counts(k)
    phrases = phrases_of(lz_factorize(text))
    expected = checks.family_phrases(k)
    expect(lyndon_factorize(text).m == m_k and len(phrases) == z_k, "family closed forms hold")
    expect(checks.check_family_phrases(text, phrases, expected) is None, "family phrase list passes")
    expect(checks.check_family_phrases(text, phrases, expected[:-1]) is not None, "missing phrase caught")
    swapped = phrases[:3] + [phrases[4], phrases[3]] + phrases[5:]
    expect(checks.check_family_phrases(text, swapped, expected) is not None, "reordered phrases caught")

    code, out = workloads.capture(["verify", "--format", "json", "--text", text.decode()])
    expect(checks.check_verify_output(code, out, len(text), m_k, z_k) is None, "verify output passes")
    doc = json.loads(out)
    for label, change in {
        "all_passed false": {"all_passed": False},
        "m off by one": {"m": m_k + 1},
        "failing verdict": {"verdicts": {**doc["verdicts"], "size-bound": {"failures": 1}}},
    }.items():
        corrupt = json.dumps({**doc, **change})
        expect(checks.check_verify_output(0, corrupt, len(text), m_k, z_k) is not None, f"verify corruption caught: {label}")
    expect(checks.check_verify_output(1, out, len(text), m_k, z_k) is not None, "verify exit code 1 caught")
    expect(checks.check_verify_output(0, out[:-5], len(text), m_k, z_k) is not None, "truncated JSON caught")


def measure_with(wl, tracer=None, **patches) -> dict:
    """Run the timed loop for a moment with names in ``workloads`` replaced."""
    saved = {name: getattr(workloads, name) for name in patches}
    try:
        for name, value in patches.items():
            setattr(workloads, name, value)
        return run.measure(wl, 0.5, tracer or run.NullTracer())
    finally:
        for name, value in saved.items():
            setattr(workloads, name, value)


def test_timed_loop() -> None:
    wl = workloads.ParseRandom(1)
    res = run.measure(wl, 0.5, run.NullTracer())
    expect(res["failed"] == 0, "correct parse ops count as passed")

    def short_lz(s: bytes):
        lz = lz_factorize(s)
        return dataclasses.replace(lz, phrases=lz.phrases[:-1])

    res = measure_with(wl, lz_factorize=short_lz)
    expect(res["failed"] == len(res["latencies"]) > 0, "dropped phrase fails every op")

    def merged_runs(s: bytes):
        lf = lyndon_factorize(s)
        first, second = lf.runs[0], lf.runs[1]
        return dataclasses.replace(
            lf, runs=(Span(first.start, second.end),) + lf.runs[2:], factors=lf.factors[1:]
        )

    res = measure_with(wl, lyndon_factorize=merged_runs)
    expect(res["failed"] == len(res["latencies"]) > 0, "merged runs fail every op")

    def broken(s: bytes):
        raise RuntimeError("injected")

    res = measure_with(wl, lz_factorize=broken)
    expect(res["failed"] == len(res["latencies"]) > 0, "raising op counts as failed")

    fam = workloads.VerifyFamily(1)
    real_capture = workloads.capture

    def lying_verify(argv):
        code, out = real_capture(argv)
        return code, out.replace('"all_passed": true', '"all_passed": false')

    res = measure_with(fam, capture=lying_verify)
    expect(res["failed"] == len(res["latencies"]) > 0, "verify reporting a failed check fails the op")


def test_traced_probe() -> None:
    fam = workloads.VerifyFamily(3)
    res = measure_with(fam, run.Tracer())
    expect(res["failed"] == 0 and res["counts"], "traced family op passes its probes")

    def shifted(s: bytes):
        lz = lz_factorize(s)
        p = lz.phrases
        return dataclasses.replace(lz, phrases=(Span(1, 2),) + p[2:])

    res = measure_with(fam, run.Tracer(), lz_factorize=shifted)
    expect(res["failed"] == len(res["latencies"]) > 0, "corrupted probe output fails the traced op")


def main() -> int:
    test_parse_checks()
    test_family_and_cli_checks()
    test_timed_loop()
    test_traced_probe()
    print(f"{failures} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
