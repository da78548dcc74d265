"""Apply each mutant of ``tests/mutants.py`` to a copy of the repository and run its tests.

Usage, from the repository root::

    python tests/run_mutants.py [NAME ...]

With names, only those mutants run.  Their tests first run once on an
unmutated copy, which must pass them.  Each mutant is applied to a fresh copy
of ``src/``, ``tests/`` and ``pyproject.toml`` under a temporary directory,
and its tests run there with ``pytest -x`` under the mutant's timeout.  A
mutant dies when its tests fail or run past the timeout; one whose tests
pass survives.  Prints one line per mutant and exits 1 if any survived.
Exits 2 if the unmutated copy fails.
This is not part of the tier-1 suite: pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.file
    source = path.read_text()
    if source.count(mutant.text) != 1:
        raise ValueError(f"{mutant.name}: text occurs {source.count(mutant.text)} times in {mutant.file}")
    path.write_text(source.replace(mutant.text, mutant.replacement))


def run(mutant: Mutant | None, tests: tuple[str, ...], timeout: float) -> tuple[str, float]:
    """The fate of ``tests`` on a copy with ``mutant`` applied (``killed``,
    ``hung`` or ``survived``) and the seconds they took."""
    with tempfile.TemporaryDirectory(prefix="lynlz-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=IGNORED)
            else:
                shutil.copy2(src, root / name)
        if mutant is not None:
            apply(mutant, root)
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        try:
            result = subprocess.run(command, cwd=root, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "hung", time.perf_counter() - start
        elapsed = time.perf_counter() - start
        # pytest exits 1 when a test failed; any other non-zero code (no tests
        # collected, a usage error) means the catalogue entry is broken.
        if result.returncode not in (0, 1):
            raise RuntimeError(f"pytest exited {result.returncode} on {tests}\n{result.stdout.decode()}")
        return ("survived" if result.returncode == 0 else "killed"), elapsed


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    # A mutant only dies meaningfully if its tests pass on the unmutated copy.
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    fate, elapsed = run(None, tests, sum(m.timeout for m in chosen))
    print(f"{'clean' if fate == 'survived' else fate:8}  {elapsed:6.1f} s  (no mutant)", flush=True)
    if fate != "survived":
        print("the unmutated copy fails the catalogue's tests", file=sys.stderr)
        return 2
    survivors = []
    for mutant in chosen:
        fate, elapsed = run(mutant, mutant.tests, mutant.timeout)
        print(f"{fate:8}  {elapsed:6.1f} s  {mutant.name}", flush=True)
        if fate == "survived":
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants died")
    if survivors:
        print(f"survivors: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
