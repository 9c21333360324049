"""The README's command lines and flag choices agree with the CLI parser.

Only parses: no example is run.
"""

import argparse
import pathlib
import re
import shlex

import pytest

import rankflow.cli as cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_commands():
    """Every ``rankflow ...`` line of README.md, with its ``\\`` continuations joined."""
    joined = re.sub(r"\\\n\s*", " ", README)
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("rankflow ")]


def subcommand_parsers():
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, subparsers.choices


def test_readme_has_examples():
    assert len(readme_commands()) >= 4


@pytest.mark.parametrize("command", readme_commands())
def test_readme_example_parses(command):
    parser, _ = subcommand_parsers()
    try:
        parser.parse_args(shlex.split(command)[1:])
    except SystemExit as exit_:
        pytest.fail(f"README example does not parse (exit {exit_.code}): {command}")


@pytest.mark.parametrize("flag, subcommand", [
    ("--scheme", "simulate"), ("--init", "simulate"), ("--format", "strong"),
])
def test_readme_flag_choices_match_parser(flag, subcommand):
    listed = re.findall(rf"`{flag}\s+\{{([^}}]*)\}}", README)
    assert len(listed) == 1, f"README lists the choices of {flag} {len(listed)} times"
    _, parsers = subcommand_parsers()
    (action,) = [a for a in parsers[subcommand]._actions if flag in a.option_strings]
    assert listed[0].split("|") == list(action.choices)
