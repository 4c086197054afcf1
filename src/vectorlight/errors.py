"""Package-level exception types.

Math-domain violations (invalid quantum numbers, non-positive widths, ...)
raise plain ValueError; these classes cover configuration-level problems that
the CLI maps to distinct exit codes.
"""


class ConfigurationError(Exception):
    """Invalid run configuration: unknown keys, inconsistent observables,
    unsupported mode types.  CLI exit code 2."""


class NumericalError(Exception):
    """A non-finite value was produced during evaluation.  CLI exit code 3."""
