"""Exception types shared across the package.

Everything derives from :class:`QriError` so callers can catch the whole
family at once.  ``SubspaceExhausted`` acts as a control-flow signal
rather than a genuine failure; it is an exception so that the condition
cannot be silently ignored.
"""


class QriError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(QriError):
    """An operation received a vector with zero (or essentially zero) norm."""


class Breakdown(QriError):
    """Orthogonalization left nothing: the candidate vector lies in the
    span of the current basis to working precision."""


class SingularMatrix(QriError):
    """A dense factorization hit an exactly (or effectively) zero pivot."""


class NoConvergence(QriError):
    """The underlying eigenvalue iteration failed to converge."""


class InfiniteEigenvaluePresent(QriError):
    """A check that needs all eigenvalues finite met an infinite one
    (singular leading coefficient)."""


class DegenerateResidual(QriError):
    """The residual has no component along the target left eigenvector,
    so the quantity being computed is undefined."""


class HypothesisViolated(QriError):
    """A precondition of an identity or bound does not hold for the given
    data (for example the target vector already lies in the subspace)."""


class OrthogonalToTarget(QriError):
    """A vector is numerically orthogonal to the reference direction, so
    its tangent with respect to that direction is undefined."""


class Stagnation(QriError):
    """An iteration produced an update too small to change the iterate."""


class BreakdownError(QriError):
    """Every candidate expansion residual broke down in orthogonalization;
    the subspace cannot be extended."""


class SubspaceExhausted(QriError):
    """The outer iteration hit the subspace cap before convergence.

    The partial result is attached as ``.result`` so callers can still
    inspect the history and the best pairs found.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
