"""Pinned digests of the CLI's default output.

Each case runs ``lynlz.cli.main`` in process and hashes its exit code,
stdout and stderr with SHA-256; ``cli_digests.json`` holds the expected
digest of every case.  A change that alters any byte of any of them fails
here, and the failure names the cases.

Run this file as a script to rewrite the JSON from the current code:

    PYTHONPATH=src python tests/test_cli_digests.py

It prints the names of the cases whose digest changed, and of the cases
added or dropped since the file it rewrites.

Help text wraps at the terminal width, which argparse reads from the
``COLUMNS`` environment variable, so ``digest`` sets it to ``COLUMNS``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path
from unittest import mock

from conftest import (
    COMMANDS,
    FIGURE_STRING,
    GROUP_BOTTOM_STRING,
    GROUP_TOP_STRING,
    fibonacci_prefix,
    thue_morse_prefix,
)
from lynlz import compute_domain, generate_family, lyndon_factorize
from lynlz.cli import main
from lynlz.lyndon import ORACLE_LIMIT as LYNDON_ORACLE_LIMIT
from lynlz.lz import ORACLE_LIMIT as LZ_ORACLE_LIMIT

DIGESTS = Path(__file__).with_name("cli_digests.json")

FORMATS = ("human", "json", "tsv")
COLUMNS = "80"
# Bytes outside printable ASCII, the backslash and a trailing newline, which
# --file keeps.
FILE_BYTES = bytes(range(0, 256, 17)) + b"ab\\ba\x7f\r\n"


def digest_texts() -> dict[str, bytes]:
    texts = {"figure": FIGURE_STRING, "banana": b"banana", "empty": b""}
    # Groups whose leftmost member is non-empty, and groups up to p = 5.
    texts["group-top"] = GROUP_TOP_STRING
    texts["group-bottom"] = GROUP_BOTTOM_STRING
    for k in range(2, 9):
        texts[f"family{k}"] = generate_family(k)
    for seed in range(5):
        rng = random.Random(seed)
        texts[f"random{seed}"] = bytes(rng.choice(b"ab") for _ in range(40))
    return texts


def cases(input_file: str) -> dict[str, list[str]]:
    """Case name -> argv; ``input_file`` is a file holding ``FILE_BYTES``."""
    out: dict[str, list[str]] = {}
    inputs = {name: ["--text", s.decode("latin-1")] for name, s in digest_texts().items()}
    inputs["file"] = ["--file", input_file]
    for command in ("lyndon", "lz", "domains", "verify", "partition"):
        for name, source in inputs.items():
            for fmt in FORMATS:
                out[f"{command}/{name}/{fmt}"] = [command, *source, "--format", fmt]
    # Texts on which Duval's rounds resume past a long unfinished prefix.
    resumed = {"fibonacci1000": fibonacci_prefix(1000), "thue-morse1000": thue_morse_prefix(1000)}
    for name, s in resumed.items():
        for fmt in FORMATS:
            out[f"lyndon/{name}/{fmt}"] = ["lyndon", "--text", s.decode(), "--format", fmt]
    # Texts whose gallops reach caps of 4096 bytes and more.
    long_caps = {"a5000": b"a" * 5000, "ab5000": b"ab" * 2500}
    for command in ("lyndon", "lz"):
        for name, s in long_caps.items():
            for fmt in FORMATS:
                out[f"{command}/{name}/{fmt}"] = [command, "--text", s.decode(), "--format", fmt]
    # --oracle-check passes silently, and past the oracle's bound it is a
    # usage error.
    for command in ("lyndon", "lz"):
        for name in ("figure", "banana", "empty"):
            for fmt in FORMATS:
                out[f"{command}/{name}-oracle-check/{fmt}"] = [
                    command, *inputs[name], "--oracle-check", "--format", fmt
                ]
    for command, limit in (("lyndon", LYNDON_ORACLE_LIMIT), ("lz", LZ_ORACLE_LIMIT)):
        out[f"{command}/oracle-past-limit"] = [command, "--oracle-check", "--text", "a" * (limit + 1)]
    lf = lyndon_factorize(FIGURE_STRING)
    for i in range(1, lf.m + 1):
        for d in range(1, lf.m - i + 2):
            if compute_domain(lf, i, d).is_empty:
                continue
            for fmt in FORMATS:
                out[f"canonical/i{i}d{d}/{fmt}"] = [
                    "canonical", "--text", FIGURE_STRING.decode(),
                    "--run", str(i), "--order", str(d), "--format", fmt,
                ]
    out["canonical/empty-root"] = [
        "canonical", "--text", FIGURE_STRING.decode(), "--run", "2", "--order", "1"
    ]
    out["canonical/run-past-m"] = ["canonical", "--text", "ab", "--run", "3", "--order", "1"]
    for k in range(-1, 13):
        for check in ((), ("--check",)):
            for fmt in FORMATS:
                out[f"family/k{k}{''.join(check)}/{fmt}"] = [
                    "family", "--k", str(k), *check, "--format", fmt
                ]
    sweeps = {
        "sigma2-len8": ["--sigma", "2", "--max-len", "8", "--jobs", "1"],
        "sigma3-len5-dedupe": ["--sigma", "3", "--max-len", "5", "--dedupe", "--jobs", "1"],
        "sigma2-len5-lemmas": ["--sigma", "2", "--max-len", "5", "--check-lemmas", "--jobs", "1"],
        # Length 13 splits into two tasks, so two workers merge summaries
        # and stream tsv rows.
        "sigma2-len13-jobs2": ["--sigma", "2", "--max-len", "13", "--jobs", "2"],
    }
    for name, sweep in sweeps.items():
        for fmt in FORMATS:
            out[f"search/{name}/{fmt}"] = ["search", *sweep, "--format", fmt]
    out["search/sigma27"] = ["search", "--sigma", "27", "--max-len", "2", "--jobs", "1"]
    out["search/max-len-negative"] = ["search", "--sigma", "2", "--max-len", "-1", "--jobs", "1"]
    out["search/past-limit"] = [
        "search", "--sigma", "2", "--max-len", "10", "--limit", "100", "--jobs", "1"
    ]
    out.update(parser_cases(input_file))
    return out


def parser_cases(input_file: str) -> dict[str, list[str]]:
    """Help, usage and error text that argparse writes."""
    out = {"parser/help": ["-h"], "parser/no-arguments": []}
    for command in COMMANDS:
        out[f"parser/help-{command}"] = [command, "-h"]
    out.update({
        "parser/unknown-command": ["bogus"],
        "parser/abbreviated-command": ["verif", "--text", "ab"],
        "parser/option-before-command": ["--format", "json", "verify", "--text", "ab"],
        "parser/unknown-option": ["verify", "--text", "ab", "--bogus"],
        "parser/extra-positional": ["verify", "--text", "ab", "extra"],
        "parser/search-missing-max-len": ["search", "--sigma", "2"],
        "parser/canonical-missing-run": ["canonical", "--text", "ab", "--order", "1"],
        "parser/bad-format": ["lz", "--text", "ab", "--format", "xml"],
        "parser/text-and-file": ["lz", "--text", "ab", "--file", input_file],
        "parser/missing-file": ["lz", "--file", "missing-directory/input.bin"],
    })
    return out


def digest(argv: list[str]) -> str:
    """SHA-256 of the exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.bin"
        path.write_bytes(FILE_BYTES)
        return {name: digest(argv) for name, argv in cases(str(path)).items()}


def test_cli_output_matches_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    current = digests()
    changed = sorted(name for name in pinned.keys() | current.keys() if pinned.get(name) != current.get(name))
    assert not changed, f"{len(changed)} of {len(pinned)} cases differ: {changed}"


if __name__ == "__main__":
    pinned = json.loads(DIGESTS.read_text())
    current = digests()
    DIGESTS.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    for label, names in (
        ("changed", [name for name in current.keys() & pinned.keys() if current[name] != pinned[name]]),
        ("added", current.keys() - pinned.keys()),
        ("dropped", pinned.keys() - current.keys()),
    ):
        print(f"{label}: {len(names)}")
        for name in sorted(names):
            print(f"  {name}")
