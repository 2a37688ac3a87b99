"""The README's examples run as written: every command of its CLI block
exits 0, and every result given in a comment of its Python blocks is
the repr of the expression beside it."""

import re
import shlex
from pathlib import Path

import pytest

from bitruns.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _cli_lines():
    (block,) = [b for b in _blocks("sh") if "bitruns verify" in b]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


@pytest.mark.parametrize("argv", _cli_lines(), ids=lambda argv: argv[0])
def test_cli_example_exits_0(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_python_examples_give_the_commented_results():
    blocks = _blocks("python")
    assert len(blocks) == 2
    checked = 0
    for block in blocks:
        scope = {}
        exec(block, scope)
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            if comment:
                want = comment.split(":")[0].strip()
                assert repr(eval(code, scope)) == want, line
                checked += 1
    assert checked == 3
