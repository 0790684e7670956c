"""The command-line examples in README.md, run as written."""

import os
import re
import shlex

import pytest

from lefalg.cli import run

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def _examples():
    """(command, expected stdout) for each `$ lefalg` line of a console block.

    The expected output is every line after the command up to the next blank
    line or command.
    """
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    out = []
    for block in re.findall(r"^```console\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"\n(?=\$ )|\n\n", block):
            command, _, output = chunk.strip("\n").partition("\n")
            if command.startswith("$ lefalg "):
                out.append((command[2:], output + "\n"))
    return out


EXAMPLES = _examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("command,expected", EXAMPLES,
                         ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, capsys):
    run(shlex.split(command)[1:])
    assert capsys.readouterr().out == expected
