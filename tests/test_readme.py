"""The README's command lines, flag choices and library names agree with the code.

Only parses and imports: no example is run.
"""

import argparse
import importlib
import pathlib
import re
import shlex

import pytest

import rankflow
import rankflow.cli as cli
import rankflow.engine as engine
import rankflow.harness as harness
import rankflow.metrics as metrics

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


#: every backticked ``rankflow.<module>.<name>`` of README.md
README_NAMES = sorted(set(re.findall(r"`(rankflow\.\w+\.\w+)", README)))


def test_readme_names_package_code():
    assert README_NAMES


@pytest.mark.parametrize("dotted", README_NAMES)
def test_readme_name_resolves(dotted):
    module, _, name = dotted.rpartition(".")
    assert hasattr(importlib.import_module(module), name), f"README names {dotted}"


def test_package_all_resolves():
    assert [name for name in rankflow.__all__ if not hasattr(rankflow, name)] == []


def test_readme_memory_figures_are_the_harness_constants():
    # the memory check's need, as README states it
    assert re.findall(r"\((\d+) bytes a particle\)", README) == [str(harness._BYTES_PER_PARTICLE)]
    assert re.findall(r"\((\d+) bytes a cell\)", README) == [str(harness._BYTES_PER_CELL)]
    # the block sizes of the grid-free estimator and of the increment draws
    blocks = [2 ** int(e) for e in re.findall(r"`2\*\*(\d+)` values", README)]
    assert blocks == [metrics._BLOCK, engine._DRAW_BLOCK]
