"""mpmath is the package's only runtime dependency.

The check reads the source rather than ``sys.modules``: what an
interpreter has loaded depends on its site packages, and a module that
only one command imports would escape a check of the loaded modules.
"""

import ast
import sys
from pathlib import Path

import bitruns

ALLOWED = set(sys.stdlib_module_names) | {"mpmath"}


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib_or_mpmath():
    sources = sorted(Path(bitruns.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        for name in _absolute_imports(path):
            assert name.split(".")[0] in ALLOWED, (path.name, name)
