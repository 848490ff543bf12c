"""Excitation-number projections and concurrence measures.

Pure-state concurrence is the purity-based expression
C = sqrt(2 (1 - Tr rho_A^2)) for any bipartition; mixed two-qubit states use
the Wootters spectral formula.  The pure-state value is evaluated through the
Schmidt coefficients in a cancellation-free pairwise-product form, which is
algebraically identical to the purity expression but keeps full relative
accuracy for very weakly entangled states.  The peak concurrence of the
exchange-evolved leveled coherent state has a closed form, a sum of
nonnegative squared minors that stays accurate for any amplitude.
"""

import warnings
from dataclasses import dataclass
from math import factorial, pi

import numpy as np

from .dynamics import ConvergenceError, exchange_unitary
from .hilbert import (
    DensityMatrix,
    DimensionError,
    FockVector,
    ModeDims,
    ModeOperator,
    as_mode_dims,
    tensor,
)
from .states import fock, leveled_coherent, leveled_norm_sq


class ZeroWeightError(ValueError):
    """Projection annihilated the state (vanishing projected norm)."""


class PrecisionLossWarning(UserWarning):
    """Numerical extrapolation inputs disagree more than expected."""


@dataclass(frozen=True)
class ExcitationProjector:
    """Projector onto the states whose total excitation number is retained.

    ``sectors`` is the retained set of total excitation numbers, e.g. {1}
    for the single-excitation projector and {0, 1} for ground plus single.
    """

    dims: ModeDims
    sectors: frozenset

    def __post_init__(self):
        object.__setattr__(self, "dims", as_mode_dims(self.dims))
        object.__setattr__(self, "sectors", frozenset(int(s) for s in self.sectors))
        if not self.sectors:
            raise ValueError("at least one excitation sector must be retained")
        if any(s < 0 for s in self.sectors):
            raise ValueError("excitation numbers are nonnegative")

    @classmethod
    def single(cls, dims) -> "ExcitationProjector":
        return cls(as_mode_dims(dims), frozenset({1}))

    @classmethod
    def ground_and_single(cls, dims) -> "ExcitationProjector":
        return cls(as_mode_dims(dims), frozenset({0, 1}))

    @property
    def mask(self) -> np.ndarray:
        return np.isin(self.dims.total_number(), sorted(self.sectors))

    def matrix(self) -> ModeOperator:
        return ModeOperator(self.dims, np.diag(self.mask.astype(complex)),
                            hermitian=True)

    def apply(self, state: FockVector) -> FockVector:
        if state.dims != self.dims:
            raise DimensionError("projector and state dims differ")
        return FockVector(self.dims, np.where(self.mask, state.amps, 0.0),
                          normalized=False)


def project_renormalize(state: FockVector, projector: ExcitationProjector):
    """Project, renormalize, and return (state, squared projection weight).

    Raises :class:`ZeroWeightError` when the projected norm vanishes (e.g.
    the single-excitation projector applied to the vacuum).
    """
    projected = projector.apply(state)
    nrm = projected.norm()
    if nrm <= 1e-14:
        raise ZeroWeightError(
            f"projection onto sectors {sorted(projector.sectors)} has vanishing weight"
        )
    return projected.normalize(), nrm ** 2


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value with the bipartition and evaluation method."""

    value: float
    bipartition: tuple
    method: str


def _schmidt_matrix(state: FockVector, a_modes):
    m = state.dims.n_modes
    a_modes = tuple(sorted(set(int(k) for k in a_modes)))
    if not a_modes or len(a_modes) >= m:
        raise ValueError("bipartition must keep at least one mode on each side")
    if any(not 0 <= k < m for k in a_modes):
        raise DimensionError(f"bipartition modes {a_modes} out of range")
    b_modes = tuple(k for k in range(m) if k not in a_modes)
    tens = state.amps.reshape(state.dims.dims)
    tens = np.transpose(tens, a_modes + b_modes)
    da = int(np.prod([state.dims.dims[k] for k in a_modes]))
    return tens.reshape(da, -1), a_modes, b_modes


def concurrence_pure(state: FockVector, a_modes=(0,)) -> ConcurrenceResult:
    """Purity-based concurrence of a pure state across a mode bipartition.

    Computed from the Schmidt coefficients as
    C = 2 sqrt(sum_{i<j} s_i s_j) with s the squared Schmidt coefficients,
    identical to sqrt(2 (1 - Tr rho_A^2)) but free of cancellation.  The
    value ranges from 0 (product state) to sqrt(2 (d-1)/d).
    """
    if abs(np.linalg.norm(state.amps) - 1.0) > 1e-12:
        raise ValueError("concurrence_pure requires a unit-norm state")
    matrix, a_modes, b_modes = _schmidt_matrix(state, a_modes)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    s = np.sort(sigma ** 2)[::-1]
    suffix = np.cumsum(s[::-1])[::-1]
    pair_sum = float(np.sum(s[:-1] * suffix[1:]))
    return ConcurrenceResult(2.0 * np.sqrt(max(pair_sum, 0.0)),
                             (a_modes, b_modes), "pure-purity")


_SIGMA_YY = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)


def concurrence_wootters(rho: DensityMatrix) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix.

    The decreasing square roots lambda_i of the spectrum of
    rho (sy x sy) rho* (sy x sy) are evaluated as the singular values of
    L^T (sy x sy) L with rho = L L^dag, which avoids the ill-conditioned
    non-Hermitian eigenproblem of the literal formula.
    """
    if rho.dims.dims != (2, 2):
        raise DimensionError(f"Wootters formula needs dims (2, 2), got {rho.dims.dims}")
    evals, evecs = np.linalg.eigh(rho.mat)
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    lam = np.linalg.svd(factor.T @ _SIGMA_YY @ factor, compute_uv=False)
    value = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return ConcurrenceResult(value, ((0,), (1,)), "wootters")


def evolved_leveled_state(alpha: complex, n_levels: int, gt: float) -> FockVector:
    """Exchange-evolved |alpha_N> (x) |0> on the (N, N) two-mode space.

    The initial state populates only total-excitation blocks below the
    cutoff, so the truncated evolution is exact.
    """
    if n_levels < 2:
        raise DimensionError(f"need at least two levels, got {n_levels}")
    psi0 = tensor(leveled_coherent(alpha, n_levels), fock(n_levels, 0))
    evolved = exchange_unitary((n_levels, n_levels), gt).apply(psi0)
    return FockVector(evolved.dims, evolved.amps)


def _leveled_concurrence(alpha: complex, n_levels: int, gts) -> np.ndarray:
    """Concurrence of the evolved leveled state at each phase in ``gts``.

    The evolved amplitudes are c_km = f_k g_m [k+m<N] with
    f_k = (alpha cos gt)^k / sqrt(k!) and g_m = (i alpha sin gt)^m / sqrt(m!),
    so C = 2 sqrt(e2) / w with w = sum |c_km|^2 and, by Cauchy-Binet, e2 the
    sum of the squared 2x2 minors
    |f_i f_j g_p g_q|^2 ([i+p<N][j+q<N] - [i+q<N][j+p<N])^2.
    For i < j and p < q the bracket is nonzero exactly when j+q >= N,
    i+q < N and j+p < N, so e2 is a sum of nonnegative terms without
    cancellation.  Each such term has degree i+j+p+q >= N in |alpha|^2, so
    |alpha|^{2N} is factored out of e2 to keep it from underflowing.
    """
    n = n_levels
    fact = np.array([factorial(k) for k in range(n)], dtype=float)
    i, j, p, q = np.indices((n,) * 4).reshape(4, -1)
    keep = (i < j) & (p < q) & (j + q >= n) & (i + q < n) & (j + p < n)
    i, j, p, q = i[keep], j[keep], p[keep], q[keep]
    k, m = np.indices((n, n)).reshape(2, -1)
    k, m = k[k + m < n], m[k + m < n]

    r = abs(alpha) ** 2
    gts = np.asarray(gts, dtype=float)[:, None]
    c2, s2 = np.cos(gts) ** 2, np.sin(gts) ** 2
    e2_scaled = (c2 ** (i + j) * s2 ** (p + q)) @ (
        r ** (i + j + p + q - n) / (fact[i] * fact[j] * fact[p] * fact[q]))
    w = ((r * c2) ** k * (r * s2) ** m) @ (1.0 / (fact[k] * fact[m]))
    return 2.0 * abs(alpha) ** n * np.sqrt(e2_scaled) / w


def max_concurrence(alpha: complex, n_levels: int, grid_points: int = 65,
                    tol: float = 1e-9) -> float:
    """Largest concurrence of the evolved leveled state over the phase gt.

    Evaluates the quarter-period phase gt = pi/4 and verifies on a grid over
    [0, pi/2] that no larger value occurs (within ``tol``); the maximizer is
    verified rather than assumed, and a larger grid value raises
    :class:`ConvergenceError`.
    """
    if n_levels < 2:
        raise DimensionError(f"need at least two levels, got {n_levels}")
    if abs(alpha) == 0.0:
        raise ValueError("max_concurrence requires |alpha| > 0")
    gts = np.concatenate(([pi / 4], np.linspace(0.0, pi / 2, grid_points)))
    values = _leveled_concurrence(alpha, n_levels, gts)
    peak, worst = values[0], int(np.argmax(values))
    if values[worst] > peak + tol:
        raise ConvergenceError(
            f"concurrence at gt={gts[worst]:.6f} exceeds the quarter-period value "
            f"({values[worst]:.6e} > {peak:.6e} + {tol:.1e})"
        )
    return float(peak)


def leading_coefficient(n_levels: int, alphas=(1e-2, 1e-3),
                        grid_points: int = 65) -> float:
    """Small-amplitude limit of max_concurrence * norm_sq / |alpha|^N.

    Estimated by evaluating at two small amplitudes and extrapolating the
    |alpha|^2 slope away (Richardson style).  If the two evaluations
    disagree by more than 1e-4 relative, a :class:`PrecisionLossWarning`
    is emitted.
    """
    if n_levels < 2:
        raise DimensionError(f"need at least two levels, got {n_levels}")
    a1, a2 = sorted(abs(a) for a in alphas)[::-1]
    g1, g2 = (
        max_concurrence(a, n_levels, grid_points=grid_points)
        * leveled_norm_sq(a, n_levels) / a ** n_levels
        for a in (a1, a2)
    )
    if abs(g1 - g2) > 1e-4 * max(abs(g2), 1e-300):
        warnings.warn(
            f"leading-coefficient evaluations at alpha={a1} and {a2} disagree "
            f"by {abs(g1 - g2) / abs(g2):.2e} relative",
            PrecisionLossWarning,
        )
    x1, x2 = a1 ** 2, a2 ** 2
    return float(g2 + (g2 - g1) * x2 / (x1 - x2))
