"""The package's two exceptions, one per CLI exit code, and its count and real checks.

ConfigError covers anything a caller got wrong: bad parameters, impossible
study setups, an argument outside a function's domain, a flux with no exact
reference.  NumericalError covers runtime failures of the numerics: root
brackets that cannot be established, positions that overflow.  The CLI
maps them to exit codes 2 and 3, and reports a path it cannot write as a
ConfigError.  The package raises these and issues no warnings.
"""

import operator
from contextlib import suppress
from math import inf
from numbers import Real


class ConfigError(ValueError):
    """Invalid parameters or an invalid combination of them."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy target."""


def checked_count(name: str, value, least: int) -> int:
    """``value`` as an int if it is an integer in ``[least, 2**64)``, else a ConfigError."""
    with suppress(TypeError):
        count = operator.index(value)  # no float passes, not even a whole one
        if least <= count < 2**64:
            return count
    raise ConfigError(f"{name} must be an integer in [{least}, 2**64), got {value}")


def checked_real(name: str, value, least: float) -> float:
    """``value`` as a float if it is a real number in ``(least, inf)``, else a ConfigError."""
    with suppress(OverflowError):  # an int beyond the float range
        if isinstance(value, Real) and least < (real := float(value)) < inf:
            return real
    bound = f"{least:g}" if float(f"{least:g}") == least else repr(least)  # reads back
    raise ConfigError(f"{name} must be a real number in ({bound}, inf), got {value}")
