"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(ValueError):
    """A vector does not match the model's state space."""


class InsufficientDataError(ValueError):
    """Too few data points to perform a fit."""


class ContourError(ValueError):
    """A quadrature contour is invalid for the given operator."""


class SingularSymbolError(ValueError):
    """A Fourier symbol is singular at a grid node.

    Carries ``node``, the offending frequency.
    """

    def __init__(self, msg, node):
        super().__init__(msg)
        self.node = float(node)


class WindowError(ValueError):
    """A time window is too small for the requested integral/transform."""


class UnsupportedModelError(ValueError):
    """The operation is not defined for this model kind."""


class ConfigError(ValueError):
    """Invalid run configuration.  Carries ``field``, a dotted path."""

    def __init__(self, msg, field):
        super().__init__(msg)
        self.field = str(field)


class EdgeDominatedWarning(UserWarning):
    """A supremum was attained at the edge of a truncated domain.

    The returned value is a lower estimate only; the true supremum may be
    larger (or infinite).
    """


class TruncationWarning(UserWarning):
    """Contour quadrature tails contribute beyond the requested tolerance."""
