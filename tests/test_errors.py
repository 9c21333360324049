"""The package's error surface: two exceptions, one per CLI exit code, and the
one check of each kind of number."""

import ast
import dataclasses
import typing
from pathlib import Path

import numpy as np
import pytest

import rankflow
from rankflow import (BurgersSolution, FluxFunction, Gaussian, SimulationConfig, StudySpec,
                      Uniform, errors)

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


#: valid constructor arguments of each input dataclass
VALID = {
    SimulationConfig: dict(n_particles=4, step=0.5, horizon=1.0, sigma=0.5,
                           flux=FluxFunction.burgers()),
    StudySpec: dict(kind="weak", sweep="n", values=(4,), runs=4, batches=2, grid_k=8),
    BurgersSolution: dict(sigma=0.5),
    Uniform: dict(lower=0.0, upper=1.0),
    Gaussian: dict(mean=0.0, stddev=1.0),
}
VALID[StudySpec]["base"] = SimulationConfig(**VALID[SimulationConfig])

#: every init field annotated int or float, as (class, field name, type)
NUMBER_FIELDS = [(cls, f.name, hints[f.name]) for cls in VALID
                 for hints in [typing.get_type_hints(cls)]
                 for f in dataclasses.fields(cls) if f.init and hints[f.name] in (int, float)]


@pytest.mark.parametrize("cls, name, kind", NUMBER_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in NUMBER_FIELDS])
def test_every_number_field_is_checked_and_stored_as_its_type(cls, name, kind):
    # a count is checked as an integer and a real as a float, by the one helper of
    # each: a string or an int beyond the float range names the field, never
    # raises another error, and a numpy value is stored as the Python type
    for value in ("1", 10**400):
        with pytest.raises(errors.ConfigError, match=rf"^{name} must be an? "):
            cls(**dict(VALID[cls], **{name: value}))
    numpy_value = (np.int64 if kind is int else np.float32)(getattr(cls(**VALID[cls]), name))
    assert type(getattr(cls(**dict(VALID[cls], **{name: numpy_value})), name)) is kind


def test_every_flux_coefficient_is_a_real():
    for value in ("1", 10**400):
        with pytest.raises(errors.ConfigError, match="^coefficient must be a real number"):
            FluxFunction((0.0, value))
    assert [type(c) for c in FluxFunction((np.float32(0.5), 1)).coefficients] == [float] * 2
