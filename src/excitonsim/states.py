"""Coherent-state weights: the Poisson tail that sets a coherent state's
cutoff, and the squared norm of its expansion over the lowest levels.
"""

from math import exp, inf, lgamma, log

from .hilbert import ConvergenceError, DimensionError

DEFAULT_TAIL_TOL = 1e-12

# most levels per mode that the closed-form tables evaluate: the leveled
# concurrence indexes N^4 level quadruples, 26 MB of indices at N = 30
MAX_LEVELS = 30


class TruncationError(ValueError):
    """Cutoff too small for the requested tail tolerance."""

    def __init__(self, message: str, tail: float):
        super().__init__(message)
        self.tail = tail


def coherent_tail(alpha: complex, dim: int) -> float:
    """Probability weight of the coherent state beyond the cutoff.

    This is the Poisson(|alpha|^2) tail P(n >= dim), summed upward from
    n = dim while its terms fall, that is while dim > |alpha|^2.  Otherwise
    the tail is about one half or more, and it is one minus the head
    P(n < dim), summed downward from n = dim - 1, where those terms fall.
    Each sum starts from its largest term, evaluated in logarithms, so
    neither underflows for large |alpha|.
    """
    x = abs(alpha) * abs(alpha)  # inf, not OverflowError, past the double range
    if x == 0.0:
        return 0.0
    upper = dim > x
    n = dim if upper else dim - 1
    term = exp(n * log(x) - x - lgamma(n + 1))
    total = 0.0
    while n >= 0 and total + term > total:
        total += term
        if upper:
            n += 1
            term *= x / n
        else:
            term *= n / x
            n -= 1
    return total if upper else 1.0 - total


def min_coherent_dim(alpha: complex, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest cutoff dimension (>= 2) whose tail mass is within tolerance."""
    dim = 2
    while coherent_tail(alpha, dim) > tail_tol:
        dim += 1
    return dim


def leveled_norm_sq(alpha: complex, n_levels: int) -> float:
    """Squared norm of the unnormalized N-leveled coherent expansion.

    Equals sum_{n<N} |alpha|^{2n}/n!, which approaches exp(|alpha|^2) as the
    level count grows.  The terms rise and then fall in n, so none overflows
    unless the sum does, which raises :class:`ConvergenceError`.
    """
    if n_levels < 1:
        raise DimensionError(f"need at least one level, got {n_levels}")
    x = abs(alpha) * abs(alpha)
    total = term = 1.0
    for n in range(1, n_levels):
        term *= x / n
        total += term
    if not total < inf:
        raise ConvergenceError(f"the {n_levels}-level norm of alpha = {alpha!r} "
                               "overflows")
    return total
