"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes, so solver code should raise the
most specific class that applies.
"""


class ConfigError(ValueError):
    """A run configuration violates one of its documented bounds."""


class SolverError(RuntimeError):
    """A numerical solve aborted (singular step, mass drift, undershoot)."""


class InvariantViolation(RuntimeError):
    """A produced field failed its mass/positivity contract at emission time."""
