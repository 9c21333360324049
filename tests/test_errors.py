"""The package's error surface: two exceptions, one per CLI exit code."""

import ast
from pathlib import Path

import rankflow
from rankflow import errors

SOURCES = sorted(Path(rankflow.__file__).parent.glob("*.py"))
ERRORS = {"ConfigError", "NumericalError"}


def test_every_raise_names_one_of_the_two_errors():
    # a bare ``raise`` re-raises what a handler caught; any other raise
    # builds a ConfigError (exit 2) or a NumericalError (exit 3) by name
    assert SOURCES
    other = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(raised, ast.Name) and raised.id in ERRORS):
                other.append(f"{path.name}:{node.lineno}: raise {ast.unparse(node.exc)}")
    assert other == []


def test_errors_defines_exactly_the_two_classes():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    assert defined == ERRORS
    assert errors.ConfigError.__bases__ == (ValueError,)
    assert errors.NumericalError.__bases__ == (RuntimeError,)
