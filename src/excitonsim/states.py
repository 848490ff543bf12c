"""Initial-state constructors: Fock, truncated coherent, leveled coherent
and spin (atomic) coherent states.

All constructors return unit-norm :class:`~excitonsim.hilbert.FockVector`
values on a single mode; combine with :func:`~excitonsim.hilbert.tensor`
for multi-site inputs.
"""

from dataclasses import dataclass
from math import lgamma, log

import numpy as np
from scipy.special import gammainc, gammaln

from .hilbert import DimensionError, FockVector, ModeDims

DEFAULT_TAIL_TOL = 1e-12


class TruncationError(ValueError):
    """Cutoff too small for the requested tail tolerance."""

    def __init__(self, message: str, tail: float):
        super().__init__(message)
        self.tail = tail


def fock(dim: int, n: int) -> FockVector:
    """Number state |n> on a single mode with ``dim`` levels."""
    if dim < 1:
        raise DimensionError(f"fock needs dim >= 1, got {dim}")
    if not 0 <= n < dim:
        raise ValueError(f"level {n} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockVector(ModeDims((dim,)), amps)


def coherent_tail(alpha: complex, dim: int) -> float:
    """Probability weight of the coherent state beyond the cutoff.

    This is the Poisson(|alpha|^2) tail P(n >= dim), which equals the
    regularized lower incomplete gamma function P(dim, |alpha|^2).
    """
    return float(gammainc(dim, abs(alpha) ** 2))


def min_coherent_dim(alpha: complex, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest cutoff dimension (>= 2) whose tail mass is within tolerance."""
    dim = 2
    while coherent_tail(alpha, dim) > tail_tol:
        dim += 1
    return dim


def coherent_truncated(alpha: complex, dim: int | None = None,
                       tail_tol: float = DEFAULT_TAIL_TOL) -> FockVector:
    """Coherent state |alpha> truncated at ``dim`` levels and renormalized.

    Amplitudes are proportional to alpha^n / sqrt(n!).  When ``dim`` is None
    the smallest cutoff meeting ``tail_tol`` is chosen.  An explicit ``dim``
    whose tail mass exceeds ``tail_tol`` raises :class:`TruncationError`
    carrying the actual tail.
    """
    if dim is None:
        dim = min_coherent_dim(alpha, tail_tol)
    if dim < 2:
        raise DimensionError(f"coherent_truncated needs dim >= 2, got {dim}")
    tail = coherent_tail(alpha, dim)
    if tail > tail_tol:
        raise TruncationError(
            f"tail mass {tail:.3e} beyond cutoff {dim} exceeds tolerance {tail_tol:.3e}",
            tail,
        )
    return leveled_coherent(alpha, dim)


def leveled_norm_sq(alpha: complex, n_levels: int) -> float:
    """Squared norm of the unnormalized N-leveled coherent expansion.

    Equals sum_{n<N} |alpha|^{2n}/n!, which approaches exp(|alpha|^2) as the
    level count grows.
    """
    if n_levels < 1:
        raise DimensionError(f"need at least one level, got {n_levels}")
    x = abs(alpha) ** 2
    if x == 0.0:
        return 1.0
    ns = np.arange(n_levels)
    return float(np.sum(np.exp(ns * log(x) - gammaln(ns + 1))))


def leveled_coherent(alpha: complex, n_levels: int) -> FockVector:
    """Coherent state restricted to the lowest ``n_levels`` levels, renormalized.

    Amplitudes proportional to alpha^n / sqrt(n!) for n < n_levels.  For a
    single level this is the vacuum regardless of alpha.
    """
    if n_levels < 1:
        raise DimensionError(f"need at least one level, got {n_levels}")
    amps = np.zeros(n_levels, dtype=complex)
    amps[0] = 1.0
    term = 1.0 + 0.0j
    for n in range(1, n_levels):
        term *= alpha / np.sqrt(n)
        amps[n] = term
    amps /= np.linalg.norm(amps)
    return FockVector(ModeDims((n_levels,)), amps)


@dataclass(frozen=True)
class SpinParam:
    """Spin-coherent direction: spin s (half-integer) and Bloch angles."""

    s: float
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        two_s = 2 * self.s
        if abs(two_s - round(two_s)) > 1e-12 or round(two_s) < 1:
            raise ValueError(f"s must be a positive half-integer, got {self.s}")

    @property
    def n_levels(self) -> int:
        return int(round(2 * self.s)) + 1


def spin_coherent(param: SpinParam) -> FockVector:
    """SU(2) coherent state of a spin-s system in the Dicke ladder basis.

    Level k holds the k-fold excited Dicke state; the lowest-weight state
    maps to the vacuum level, so rotation angle zero gives the vacuum.
    Amplitudes: binom(2s, k)^(1/2) cos(theta/2)^(2s-k) sin(theta/2)^k e^(ik phi).
    """
    n = param.n_levels
    two_s = n - 1
    c, s = np.cos(param.theta / 2.0), np.sin(param.theta / 2.0)
    amps = np.zeros(n, dtype=complex)
    for k in range(n):
        log_binom = lgamma(two_s + 1) - lgamma(k + 1) - lgamma(two_s - k + 1)
        mag = np.exp(0.5 * log_binom) * c ** (two_s - k) * s ** k
        amps[k] = mag * np.exp(1j * k * param.phi)
    amps /= np.linalg.norm(amps)
    return FockVector(ModeDims((n,)), amps)
