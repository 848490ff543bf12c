"""Excitation-number projections and concurrence measures.

Pure-state concurrence is the purity-based expression
C = sqrt(2 (1 - Tr rho_A^2)) for any bipartition; mixed two-qubit states use
the Wootters spectral formula.  The pure-state value is evaluated through the
Schmidt coefficients in a cancellation-free pairwise-product form, which is
algebraically identical to the purity expression but keeps full relative
accuracy for very weakly entangled states.  The peak concurrence of the
exchange-evolved leveled coherent state has a closed form, a sum of
nonnegative squared minors that stays accurate however small the amplitude.
"""

from dataclasses import dataclass
from math import factorial, pi

import numpy as np

from .dynamics import exchange_unitary
from .hilbert import (
    ConvergenceError,
    DensityMatrix,
    DimensionError,
    FockVector,
    ModeDims,
    ModeOperator,
    as_mode_dims,
    tensor,
)
from .states import fock, leveled_coherent, leveled_norm_sq

# phases in [0, pi/2] checked against the quarter-period peak, and the margin
PEAK_GRID_POINTS = 65
PEAK_TOL = 1e-9


class ZeroWeightError(ValueError):
    """Projection annihilated the state (vanishing projected norm)."""


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
    if not abs(np.linalg.norm(state.amps) - 1.0) <= 1e-12:
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


def _scaled_e2(r: float, n_levels: int, gts) -> np.ndarray:
    """e2 / |alpha|^{2N} of the evolved leveled state at each phase in ``gts``
    for r = |alpha|^2; r = 0 keeps the degree-N terms, the small-amplitude limit.

    The evolved amplitudes are c_km = f_k g_m [k+m<N] with
    f_k = (alpha cos gt)^k / sqrt(k!) and g_m = (i alpha sin gt)^m / sqrt(m!).
    By Cauchy-Binet, e2 (the second elementary symmetric polynomial of the
    squared Schmidt coefficients) is the sum of the squared 2x2 minors
    |f_i f_j g_p g_q|^2 ([i+p<N][j+q<N] - [i+q<N][j+p<N])^2.
    For i < j and p < q the bracket is nonzero exactly when j+q >= N,
    i+q < N and j+p < N, so e2 is a sum of nonnegative terms without
    cancellation.  Each such term has degree i+j+p+q >= N in |alpha|^2, so
    |alpha|^{2N} is factored out of e2 to keep it from underflowing.  The
    terms are summed per power of cos^2 gt and sin^2 gt first, so the work
    per phase does not grow with the N^4 quadruples.
    """
    n = n_levels
    fact = np.array([factorial(k) for k in range(n)], dtype=float)
    i, j, p, q = np.indices((n,) * 4).reshape(4, -1)
    keep = (i < j) & (p < q) & (j + q >= n) & (i + q < n) & (j + p < n)
    i, j, p, q = i[keep], j[keep], p[keep], q[keep]
    terms = r ** (i + j + p + q - n) / (fact[i] * fact[j] * fact[p] * fact[q])
    by_power = np.bincount((i + j) * 2 * n + p + q, weights=terms,
                           minlength=4 * n * n).reshape(2 * n, 2 * n)
    powers = np.arange(2 * n)
    gts = np.asarray(gts, dtype=float)[:, None]
    c2, s2 = np.cos(gts) ** 2, np.sin(gts) ** 2
    return np.sum((c2 ** powers) @ by_power * s2 ** powers, axis=1)


def _leveled_concurrence(alpha: complex, n_levels: int, gts) -> np.ndarray:
    """Concurrence of the evolved leveled state at each phase in ``gts``.

    C = 2 sqrt(e2) / w, with w = sum_{k+m<N} |c_km|^2 = sum_{n<N}
    |alpha|^{2n} / n! by the binomial theorem, which is
    :func:`leveled_norm_sq`.  Overflow raises :class:`ConvergenceError`.
    """
    with np.errstate(over="raise"):
        try:
            e2 = _scaled_e2(abs(alpha) ** 2, n_levels, gts)
            return (2.0 * abs(alpha) ** n_levels * np.sqrt(e2)
                    / leveled_norm_sq(alpha, n_levels))
        except (OverflowError, FloatingPointError):
            raise ConvergenceError(f"concurrence overflows at alpha = {alpha!r}") from None


def _quarter_period_peak(concurrence) -> float:
    """``concurrence(gts)`` at gt = pi/4.  The maximizer is verified rather
    than assumed: a value on a grid over [0, pi/2] above it by more than
    ``PEAK_TOL`` raises :class:`ConvergenceError`."""
    gts = np.concatenate(([pi / 4], np.linspace(0.0, pi / 2, PEAK_GRID_POINTS)))
    values = concurrence(gts)
    peak, worst = values[0], int(np.argmax(values))
    if not values[worst] <= peak + PEAK_TOL:
        raise ConvergenceError(
            f"concurrence at gt={gts[worst]:.6f} exceeds the quarter-period value "
            f"({values[worst]:.6e} > {peak:.6e} + {PEAK_TOL:.1e})"
        )
    return float(peak)


def max_concurrence(alpha: complex, n_levels: int) -> float:
    """Largest concurrence of the evolved leveled state over the phase gt,
    reached at gt = pi/4 (see :func:`_quarter_period_peak`)."""
    if n_levels < 2:
        raise DimensionError(f"need at least two levels, got {n_levels}")
    if abs(alpha) == 0.0:
        raise ValueError("max_concurrence requires |alpha| > 0")
    return _quarter_period_peak(lambda gts: _leveled_concurrence(alpha, n_levels, gts))


def leading_coefficient(n_levels: int) -> float:
    """Small-amplitude limit of max_concurrence * norm_sq / |alpha|^N, that is
    of 2 sqrt(e2 / |alpha|^{2N}): exact, from the degree-N terms of e2."""
    if n_levels < 2:
        raise DimensionError(f"need at least two levels, got {n_levels}")
    return _quarter_period_peak(lambda gts: 2 * np.sqrt(_scaled_e2(0.0, n_levels, gts)))
