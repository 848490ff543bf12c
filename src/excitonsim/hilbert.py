"""Finite-dimensional truncated Fock-space linear algebra.

State vectors, density matrices and the exchange unitary on tensor products
of truncated bosonic modes, held as dense complex numpy arrays.  A
propagated state is not: :mod:`excitonsim.dynamics` returns it as one
complex block per class of basis states that its generator keeps apart, and
:func:`check_density` checks it from those diagonal blocks.

Index convention, fixed globally: flat indices are row-major over the mode
occupations with mode 0 (site A) as the slowest index.  This matches
``numpy.reshape`` / ``numpy.kron`` with the first factor on the left.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_TOL = 1e-10
UNITARY_TOL = 1e-10


class DimensionError(ValueError):
    """Raised for invalid or inconsistent mode dimensions."""


class ConvergenceError(RuntimeError):
    """A computed state or value left its tolerances or the double range."""


@dataclass(frozen=True)
class ModeDims:
    """Per-mode truncation dimensions of a tensor-product Fock space.

    ``dims[k]`` is the number of retained levels of mode k (levels
    ``0 .. dims[k]-1``).  Mode 0 is the slowest (leftmost) index in the
    row-major flattening.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) == 0:
            raise DimensionError("at least one mode is required")
        if any(d < 1 for d in self.dims):
            raise DimensionError(f"mode dimensions must be >= 1, got {self.dims}")

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return prod(self.dims)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.flags.writeable = False
    return arr


def as_mode_dims(dims) -> ModeDims:
    if isinstance(dims, ModeDims):
        return dims
    if isinstance(dims, int):
        return ModeDims((dims,))
    return ModeDims(tuple(dims))


@dataclass(frozen=True)
class FockVector:
    """Pure state on a truncated tensor space, flat complex amplitudes.

    Constructed vectors are unit norm to within 1e-12 unless the caller
    explicitly flags a non-normalized intermediate with ``normalized=False``.
    The amplitude array is made read-only; all operations return new values.
    """

    dims: ModeDims
    amps: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        object.__setattr__(self, "dims", as_mode_dims(self.dims))
        amps = _freeze(np.asarray(self.amps).ravel())
        if amps.shape != (self.dims.total,):
            raise DimensionError(
                f"amplitude length {amps.shape[0]} != total dimension {self.dims.total}"
            )
        object.__setattr__(self, "amps", amps)
        if self.normalized:
            nrm = np.linalg.norm(amps)
            if not abs(nrm - 1.0) <= NORM_TOL:  # NaN fails too
                raise ValueError(
                    f"state norm {nrm!r} deviates from 1 by more than {NORM_TOL}; "
                    "pass normalized=False for intermediates"
                )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalize(self) -> "FockVector":
        """Unit-norm copy.  Raises on (numerically) vanishing norm."""
        nrm = self.norm()
        if nrm <= 1e-14:
            raise ValueError("cannot normalize a vector with vanishing norm")
        return FockVector(self.dims, self.amps / nrm)

    def to_density(self) -> "DensityMatrix":
        vec = self if self.normalized else self.normalize()
        return DensityMatrix(vec.dims, np.outer(vec.amps, vec.amps.conj()))


def check_density(blocks, trace_lo, trace_hi, error=ValueError) -> None:
    """Check T Hermitian matrices given by their diagonal blocks, each of
    ``blocks`` a (T, b, b) array: the trace summed over the blocks within
    ``TRACE_TOL`` of [trace_lo, trace_hi] (scalars or one bound per point),
    and no block with an eigenvalue below ``-EIG_TOL``, by a Cholesky
    factorisation of block + EIG_TOL * I, exact to a rounding of about
    b * eps * ||block||.  The first failing point raises ``error``."""
    tr = sum(np.trace(block, axis1=1, axis2=2).real for block in blocks)
    drift = np.atleast_1d(np.maximum(trace_lo - tr, tr - trace_hi))
    bad = ~(drift <= TRACE_TOL)  # NaN fails too
    first = int(np.argmax(bad)) if bad.any() else None
    try:
        for block in blocks:
            valid, step = block[:first], max(1, 2 ** 15 // block[0].size)  # 0.5 MB at a time
            for k in range(0, len(valid), step):
                np.linalg.cholesky(valid[k:k + step] + EIG_TOL * np.eye(len(block[0])))
    except np.linalg.LinAlgError:
        raise error(f"density matrix has an eigenvalue below -{EIG_TOL:.0e}") from None
    if first is not None:
        raise error(f"trace drift {drift[first]:.3e} exceeds {TRACE_TOL:.0e} "
                    f"(trace {np.broadcast_to(tr, drift.shape)[first]:.15g})")


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state on a truncated tensor space.

    Validated on construction: Hermitian to 1e-12, unit trace to 1e-12 and
    eigenvalues >= -1e-10.  ``subnormalized=True`` relaxes the trace check to
    trace <= 1, as for an input projected onto some excitation sectors.
    """

    dims: ModeDims
    mat: np.ndarray
    subnormalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dims", as_mode_dims(self.dims))
        mat = _freeze(np.asarray(self.mat))
        d = self.dims.total
        if mat.shape != (d, d):
            raise DimensionError(f"matrix shape {mat.shape} != ({d}, {d})")
        object.__setattr__(self, "mat", mat)
        if not np.abs(mat - mat.conj().T).max() <= HERM_TOL:  # NaN fails too
            raise ValueError(f"density matrix is not Hermitian to {HERM_TOL:.0e}")
        check_density([mat[None]], 0.0 if self.subnormalized else 1.0, 1.0)

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


@dataclass(frozen=True)
class ModeOperator:
    """Dense operator on a truncated tensor space.

    The ``hermitian`` / ``unitary`` flags are promises verified at
    construction time, not hints.
    """

    dims: ModeDims
    mat: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dims", as_mode_dims(self.dims))
        mat = _freeze(np.asarray(self.mat))
        d = self.dims.total
        if mat.shape != (d, d):
            raise DimensionError(f"matrix shape {mat.shape} != ({d}, {d})")
        object.__setattr__(self, "mat", mat)
        if self.hermitian and not np.max(np.abs(mat - mat.conj().T)) <= HERM_TOL:
            raise ValueError("operator flagged hermitian is not")
        if self.unitary:
            defect = np.max(np.abs(mat.conj().T @ mat - np.eye(d)))
            if not defect <= UNITARY_TOL:
                raise ValueError(f"operator flagged unitary has defect {defect:.3e}")
