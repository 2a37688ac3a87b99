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


def _unused_imports(source: str, filename: str = "<source>") -> set:
    """The names a module imports and never references, as a Name or as
    the base of an attribute (annotations included); `from __future__`
    imports are exempt."""
    tree = ast.parse(source, filename)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_import_check_sees_one():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nfrom typing import Any, Sequence as Seq\n"
        "def f(x: Seq) -> int:\n    return os.path.sep + x\n"
    )
    assert _unused_imports(source) == {"sys", "Any"}


def test_every_import_is_used():
    for path in sorted(Path(bitruns.__file__).parent.glob("*.py")):
        assert not _unused_imports(path.read_text(), str(path)), path.name


def _counts_reads(source: str, filename: str = "<source>") -> int:
    """How many times a module reads an attribute named `counts`."""
    tree = ast.parse(source, filename)
    return sum(
        isinstance(node, ast.Attribute) and node.attr == "counts" for node in ast.walk(tree)
    )


def test_only_ensembles_reads_the_tally():
    """JointDistribution.counts is read through oracle_tally everywhere
    else, tests included, so its format is known to one module and to
    test_ensembles.py, which pins it."""
    sources = sorted(Path(bitruns.__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert len(tests) > 10
    reads = {
        path.name: _counts_reads(path.read_text(), str(path)) for path in sources + tests
    }
    assert reads.pop("ensembles.py") > 0  # the check sees the reader's own reads
    assert reads.pop("test_ensembles.py") > 0
    assert {name: k for name, k in reads.items() if k} == {}
