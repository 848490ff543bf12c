"""Two-mode excitation exchange, the decohered dimer state and Lindblad
propagation.

Phase convention, fixed and asserted in the test suite: the exchange unitary
transfers amplitude with a factor +i sin(gt), i.e.

    U(gt) a^dag U(gt)^dag = cos(gt) a^dag + i sin(gt) b^dag
    U(gt) a     U(gt)^dag = cos(gt) a     - i sin(gt) b

so a single excitation on A evolves to cos(gt)|10> + i sin(gt)|01>, and a
coherent input |alpha>|0> evolves to the product |alpha cos(gt)>|i alpha
sin(gt)>.  Only the product gt (coupling times time) enters any observable.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .hilbert import (
    TRACE_TOL,
    ConvergenceError,
    DensityMatrix,
    DimensionError,
    ModeDims,
    ModeOperator,
    as_mode_dims,
    check_density,
)


def exchange_unitary(dims, gt: float) -> ModeOperator:
    """Beam-splitter-type exchange unitary on two truncated modes.

    Block diagonal in the total excitation number; each block is the
    exponential of the tridiagonal hopping generator restricted to that
    block (exactly the exponential of the truncated generator).  See the
    module docstring for the sign convention.
    """
    md = as_mode_dims(dims)
    if md.n_modes != 2:
        raise DimensionError(f"exchange_unitary needs exactly 2 modes, got {md.n_modes}")
    da, db = md.dims
    if da < 2 or db < 2:
        raise DimensionError(f"both mode dims must be >= 2, got {md.dims}")
    mat = np.zeros((md.total, md.total), dtype=complex)
    for n in range(da + db - 1):
        a_lo = max(0, n - (db - 1))
        a_hi = min(n, da - 1)
        idx = [na * db + (n - na) for na in range(a_lo, a_hi + 1)]
        size = len(idx)
        if size == 1:
            mat[idx[0], idx[0]] = 1.0
            continue
        # hopping element between occupations (na, nb) and (na+1, nb-1)
        offdiag = np.array([
            np.sqrt((a_lo + j + 1) * (n - a_lo - j)) for j in range(size - 1)
        ])
        evals, evecs = np.linalg.eigh(np.diag(offdiag, 1) + np.diag(offdiag, -1))
        block = (evecs * np.exp(1j * gt * evals)) @ evecs.T
        mat[np.ix_(idx, idx)] = block
    return ModeOperator(md, mat, unitary=True)


def expm_oracle(generator: ModeOperator, scale: float = 1.0) -> ModeOperator:
    """Dense matrix exponential exp(scale * generator), independent oracle.

    Scaling-and-squaring with a degree-20 Taylor evaluation; intended only
    to cross-validate the analytic constructions, not for production paths.
    """
    if not np.all(np.isfinite(generator.mat)):
        raise ValueError("generator contains non-finite entries")
    return ModeOperator(generator.dims, _expm_taylor(scale * generator.mat))


_TAYLOR_ORDER = 20


def _expm_taylor(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    norm = np.linalg.norm(mat, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    small = mat / (2.0 ** squarings)
    result = np.eye(d, dtype=complex)
    for k in range(_TAYLOR_ORDER, 0, -1):
        result = np.eye(d, dtype=complex) + (small / k) @ result
    for _ in range(squarings):
        result = result @ result
    return result


def decohered_dimer_state(alpha: complex, gt: float) -> DensityMatrix:
    """Fully number-decohered and (0,1)-projected dimer state.

    The incoherent mixture of the ground state and the coherently
    propagated single excitation,

        (|00><00| + |alpha|^2 |chi(gt)><chi(gt)|) / (1 + |alpha|^2)

    with |chi(gt)> = cos(gt)|10> + i sin(gt)|01> on two two-level sites.
    """
    asq = abs(alpha) ** 2
    chi = np.zeros(4, dtype=complex)
    chi[2] = np.cos(gt)       # |10>
    chi[1] = 1j * np.sin(gt)  # |01>
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    mat += asq * np.outer(chi, chi.conj())
    return DensityMatrix(ModeDims((2, 2)), mat / (1.0 + asq))


@dataclass(frozen=True)
class LindbladSpec:
    """Generator of a GKSL master equation.

    ``jumps`` are (rate, operator) pairs entering with the full dissipator;
    ``losses`` enter with the anti-commutator part only, removing population
    from the system (monotonically decreasing trace).
    """

    hamiltonian: ModeOperator
    jumps: tuple = ()
    losses: tuple = ()

    def __post_init__(self):
        if not self.hamiltonian.hermitian:
            # the flag is verified on construction, NaN entries failing it
            h = self.hamiltonian
            object.__setattr__(self, "hamiltonian",
                               ModeOperator(h.dims, h.mat, hermitian=True))
        object.__setattr__(self, "jumps", tuple(self.jumps))
        object.__setattr__(self, "losses", tuple(self.losses))
        for rate, _op in self.jumps + self.losses:
            if rate < 0:
                raise ValueError(f"negative rate {rate}")

    @property
    def trace_preserving(self) -> bool:
        return len(self.losses) == 0


@dataclass(frozen=True)
class Trajectory:
    """Time grid and the propagated states on it: ``rho[k]`` is the density
    matrix at ``times[k]``, a read-only (T, d, d) array."""

    times: np.ndarray
    rho: np.ndarray
    subnormalized: bool

    def __len__(self) -> int:
        return len(self.rho)


def _sparse_liouvillian(spec: LindbladSpec) -> scipy.sparse.csr_matrix:
    """Sparse superoperator on row-major vec(rho): by vec(A rho B) = (A kron
    B^T) vec(rho) it is -i(H_eff kron I) + i(I kron H_eff*) + sum of c kron c*
    over jumps, with H_eff = H - (i/2) sum c^dag c over jumps and losses."""
    eye = scipy.sparse.identity(spec.hamiltonian.dims.total, format="csr")

    def kron(a, b):
        return scipy.sparse.kron(a, b, format="csr")

    ops = [scipy.sparse.csr_matrix(np.sqrt(rate) * op.mat)
           for rate, op in spec.jumps + spec.losses]
    h_eff = scipy.sparse.csr_matrix(spec.hamiltonian.mat)
    for c in ops:
        h_eff = h_eff - 0.5j * (c.conj().T @ c)
    liou = -1j * kron(h_eff, eye) + 1j * kron(eye, h_eff.conj())
    for c in ops[:len(spec.jumps)]:
        liou += kron(c, c.conj())
    return liou.tocsr()


def liouvillian_matrix(spec: LindbladSpec) -> np.ndarray:
    """Dense superoperator acting on row-major vec(rho)."""
    return _sparse_liouvillian(spec).toarray()


# theta_55 of table 3.1 in Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
# (2011): the degree-55 Taylor polynomial of h*A meets double-precision
# backward error while h*||A||_1 <= theta_55.
_THETA_55 = 9.9
_TAYLOR_DEGREE = 55

# most Taylor pieces one call may take over its whole grid; the demo config
# and every benchmark config take one piece per interval, 30 to 160 in all
MAX_TAYLOR_PIECES = 10 ** 5


def _taylor_piece(a, y: np.ndarray, h: float) -> np.ndarray:
    """Taylor sum for exp(h*a) @ y on a block of columns, with the early stop
    of algorithm 3.2 judged on the largest entry of the block."""
    total = term = y
    previous = np.abs(term).max()
    for k in range(1, _TAYLOR_DEGREE + 1):
        term = (h / k) * (a @ term)
        current = np.abs(term).max()
        total = total + term
        if previous + current <= 2.0 ** -53 * np.abs(total).max():
            break
        previous = current
    return total


def lindblad_propagate(spec: LindbladSpec, rho0, t_grid, method: str = "exact"):
    """Propagate density matrices over an increasing time grid from 0.

    ``rho0`` is one :class:`DensityMatrix`, giving one :class:`Trajectory`,
    or a sequence of them, giving a tuple of trajectories.  Each grid
    interval applies the exact propagator exp(L dt) by the truncated Taylor
    method of Al-Mohy & Higham (2011) on the sparse Liouvillian, to all
    inputs at once as the columns of one block of vec(rho).  The shift, the
    exact 1-norm and the pieces per interval are fixed once per call, with
    no randomized estimate, so states are deterministic; ``"exact"`` is the
    only ``method``.  Loss terms make the trace fall and states
    subnormalized.  Trace drift beyond ``TRACE_TOL`` (1e-12), a non-Hermitian
    state or an eigenvalue below -1e-10 raises :class:`ConvergenceError`, and
    so does a generator whose 1-norm would take more than
    ``MAX_TAYLOR_PIECES`` Taylor pieces over the grid, or is not finite.
    """
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must increase from 0")
    inputs = (rho0,) if isinstance(rho0, DensityMatrix) else tuple(rho0)
    if not inputs or any(r.dims != spec.hamiltonian.dims for r in inputs):
        raise DimensionError("need initial states on the Hamiltonian's dims")
    d = spec.hamiltonian.dims.total
    liou = _sparse_liouvillian(spec)
    mu = liou.diagonal().sum() / (d * d)
    a = liou - mu * scipy.sparse.identity(d * d, format="csr")
    steps = np.diff(t_grid)
    # a float, so that a huge or non-finite norm fails the bound below
    pieces = np.ceil(steps.max(initial=0.0) * abs(a).sum(axis=0).max() / _THETA_55)
    if not pieces * len(steps) <= MAX_TAYLOR_PIECES:
        raise ConvergenceError(
            f"the generator's 1-norm asks for {pieces:.3g} Taylor pieces on each of "
            f"{len(steps)} intervals, above the limit of {MAX_TAYLOR_PIECES} in all")
    pieces = max(1, int(pieces))

    # column c of the block is vec(rho_c); out[c, k] is rho_c(t_k)
    out = np.empty((len(inputs), len(t_grid), d, d), dtype=complex)
    y = np.stack([r.mat.ravel() for r in inputs], axis=1)
    out[:, 0] = y.T.reshape(-1, d, d)
    for k, dt in enumerate(steps, start=1):
        h = dt / pieces
        for _ in range(pieces):
            y = np.exp(h * mu) * _taylor_piece(a, y, h)
        out[:, k] = y.T.reshape(-1, d, d)
    out.flags.writeable = False

    trajectories = []
    for start, rho in zip(inputs, out):
        # the trace stays at 1, or at a subnormalized input's trace; in loss
        # mode it may only fall, and stays within [0, 1]
        trace0 = start.trace()
        subnormalized = (not spec.trace_preserving) or trace0 < 1.0 - TRACE_TOL
        lo = hi = trace0 if subnormalized else 1.0
        if not spec.trace_preserving:
            traces = np.trace(rho, axis1=1, axis2=2).real
            lo, hi = 0.0, np.minimum(np.append(hi, traces[:-1]), 1.0)
        check_density(rho, lo, hi, error=ConvergenceError)
        trajectories.append(Trajectory(t_grid, rho, subnormalized))
    return trajectories[0] if isinstance(rho0, DensityMatrix) else tuple(trajectories)
