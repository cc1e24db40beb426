"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/shape/usage problems
exit with 2, numerical singularities with 3.
"""


class FunquantError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FunquantError, ValueError):
    """Invalid specification of a basis, model, mixture or scenario."""


class ShapeError(FunquantError, ValueError):
    """Array arguments with incompatible or invalid shapes."""


class UsageError(FunquantError, ValueError):
    """An operation called with arguments outside its contract."""


class InsufficientDataError(FunquantError, ValueError):
    """Fewer samples than the operation requires."""


class DegenerateDirectionError(FunquantError, ValueError):
    """A projection direction with zero variance."""


class SingularityError(FunquantError, RuntimeError):
    """A numerically singular problem: a covariance block that must be
    invertible is not, or the draws have fewer distinct rows than points."""
