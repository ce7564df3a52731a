"""Exception types shared across the package."""


class QfimlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(QfimlabError, ValueError):
    """Operands have incompatible matrix dimensions or qubit counts."""


class NotHermitianError(QfimlabError, ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class TooLargeError(QfimlabError, ValueError):
    """Dense superoperator/Choi materialization requested above the size cap."""


class CapExceededError(QfimlabError, RuntimeError):
    """Lie closure hit its dimension cap before terminating.

    ``partial_dim`` holds the number of independent directions found so far.
    """

    def __init__(self, message: str, partial_dim: int):
        super().__init__(message)
        self.partial_dim = partial_dim


class ConfigError(QfimlabError, ValueError):
    """An experiment configuration failed schema validation."""
