"""The package's two exceptions, one per CLI exit code.

ConfigError covers anything a caller got wrong: bad parameters, impossible
study setups, an argument outside a function's domain, a flux with no exact
reference.  NumericalError covers runtime failures of the numerics: root
brackets that cannot be established, positions that overflow.  The CLI
maps them to exit codes 2 and 3, and reports a path it cannot write as a
ConfigError.  The package raises these and issues no warnings.
"""


class ConfigError(ValueError):
    """Invalid parameters or an invalid combination of them."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy target."""
