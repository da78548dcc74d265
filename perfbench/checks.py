"""Output checks for the benchmark, written from the definitions alone.

Nothing here calls into ``lynlz``: each check re-derives what a correct
output must satisfy from the text it was computed on.  A check returns
``None`` when the output is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import json


def least_rotation(w: bytes) -> int:
    """Start of the lexicographically least rotation of ``w`` (two-pointer scan)."""
    n = len(w)
    ww = w + w
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = ww[i + k], ww[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def is_lyndon_word(w: bytes) -> bool:
    """A word is Lyndon iff it is primitive and strictly least among its rotations."""
    if not w:
        return False
    primitive = (w + w).find(w, 1) == len(w)
    return primitive and least_rotation(w) == 0


def check_lyndon(text: bytes, runs: list[tuple[int, int, int, int]]) -> str | None:
    """``runs`` holds 1-based inclusive ``(start, end, factor_len, exponent)`` per run.

    The runs must tile the text, each run must be its factor repeated, every
    factor must be a Lyndon word and consecutive factors strictly decreasing
    (equal neighbours belong to one run), which together pin down the unique
    Lyndon factorization.
    """
    cursor = 1
    prev: bytes | None = None
    for idx, (start, end, flen, exp) in enumerate(runs, 1):
        if start != cursor:
            return f"run {idx} starts at {start}, expected {cursor}"
        if flen < 1 or exp < 1 or end - start + 1 != flen * exp:
            return f"run {idx} length {end - start + 1} != {flen} x {exp}"
        factor = text[start - 1 : start - 1 + flen]
        if text[start - 1 : end] != factor * exp:
            return f"run {idx} is not its factor repeated {exp} times"
        if prev is not None and not prev > factor:
            return f"factor {idx} does not decrease"
        if not is_lyndon_word(factor):
            return f"factor {idx} is not a Lyndon word"
        prev = factor
        cursor = end + 1
    if cursor != len(text) + 1:
        return f"runs end at {cursor - 1}, text has {len(text)} bytes"
    return None


def check_lz(text: bytes, phrases: list[tuple[int, int]]) -> str | None:
    """``phrases`` holds 1-based inclusive ``(start, end)`` spans.

    Greedy non-overlapping LZ: phrases tile the text; a phrase whose first
    letter is new is that single letter; any other phrase occurs inside the
    parsed prefix and cannot be extended by one letter and still occur there.
    """
    cursor = 1
    n = len(text)
    for idx, (start, end) in enumerate(phrases, 1):
        if start != cursor or end < start:
            return f"phrase {idx} spans [{start}..{end}], expected start {cursor}"
        b, length = start - 1, end - start + 1
        if text.find(text[b : b + 1], 0, b) < 0:
            if length != 1:
                return f"phrase {idx} starts with a fresh letter but has length {length}"
        else:
            if text.find(text[b : b + length], 0, b) < 0:
                return f"phrase {idx} does not occur in the parsed prefix"
            if b + length < n and text.find(text[b : b + length + 1], 0, b) >= 0:
                return f"phrase {idx} is not the longest previous factor"
        cursor = end + 1
    if cursor != n + 1:
        return f"phrases end at {cursor - 1}, text has {n} bytes"
    return None


def check_size_bound(m: int, z: int) -> str | None:
    return None if m < 2 * z else f"m={m} is not below 2z={2 * z}"


def family_text(k: int) -> bytes:
    """Family string k over ``a < b``: b, then blocks B_1..B_k, then a final a.

    B_i = (a^i b a^1 b)(a^i b a^2 b) ... (a^i b a^{i-1} b) a^i b.
    """
    out = bytearray(b"b")
    for i in range(1, k + 1):
        for j in range(1, i):
            out += b"a" * i + b"b" + b"a" * j + b"b"
        out += b"a" * i + b"b"
    out += b"a"
    return bytes(out)


def family_counts(k: int) -> tuple[int, int]:
    """Closed forms ``(m_k, z_k) = (k(k+1)/2 + 2, k(k-1)/2 + 4)`` for k >= 2."""
    return k * (k + 1) // 2 + 2, k * (k - 1) // 2 + 4


def family_phrases(k: int) -> list[bytes]:
    """Closed-form LZ phrase list of family string k over ``a < b`` (k >= 2)."""
    out = [b"b", b"a", b"ba", b"aba", b"baaba"]
    for j in range(3, k + 1):
        a_j1 = b"a" * (j - 1)
        out.append(a_j1 + b"bab" + a_j1)
        for r in range(2, j - 1):
            out.append(b"ab" + b"a" * r + b"b" + a_j1)
        out.append(b"ab" + a_j1 + b"b" + b"a" * j + b"ba")
    return out


def check_family_phrases(text: bytes, phrases: list[tuple[int, int]], expected: list[bytes]) -> str | None:
    got = [text[s - 1 : e] for s, e in phrases]
    if got != expected:
        return f"phrase list differs from the closed form ({len(got)} vs {len(expected)} phrases)"
    return None


def check_verify_output(code: int, stdout: str, n: int, m_k: int, z_k: int) -> str | None:
    """``lynlz verify --format json`` on family string k."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if out.get("all_passed") is not True:
        return "all_passed is not true"
    if (out.get("input_len"), out.get("m"), out.get("z")) != (n, m_k, z_k):
        return f"(n, m, z) = {(out.get('input_len'), out.get('m'), out.get('z'))}, expected {(n, m_k, z_k)}"
    verdicts = out.get("verdicts") or {}
    bad = [name for name, v in verdicts.items() if v.get("failures") != 0]
    if not verdicts or bad:
        return f"failing or missing verdicts: {bad}"
    if (out.get("size_bound") or {}).get("passes") is not True:
        return "size bound not reported as passing"
    return None
