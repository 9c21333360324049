"""Exception hierarchy shared across the package.

ConfigError covers anything a caller got wrong (bad parameters, impossible
study setups); NumericalError covers runtime failures of the numerics
(root brackets that cannot be established, positions that overflow). The
CLI maps them to exit codes 2 and 3, and reports a path it cannot write as
a ConfigError. The package raises these and issues no warnings.
"""


class RankflowError(Exception):
    """Base class for all package errors."""


class ConfigError(RankflowError, ValueError):
    """Invalid parameters or an invalid combination of them."""


class DomainError(ConfigError):
    """Argument outside the mathematical domain of a function."""


class UnsupportedReferenceError(ConfigError):
    """The flux has no exact reference solution: only Burgers has one."""


class NumericalError(RankflowError, RuntimeError):
    """A numerical procedure failed to reach its accuracy target."""


class BracketError(NumericalError):
    """A root bracket could not be established."""
