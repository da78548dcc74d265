"""The package reads no environment variable: every setting is an argument.

A knob read from the environment is a second, hidden source for a value that
already has a flag or a keyword, so it is refused here at the source level.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lynlz"

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_package_reads_no_environment_variable():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in _ENV_NAMES:
                reads.append(f"{path.name}:{node.lineno}: {name}")
    assert reads == []
