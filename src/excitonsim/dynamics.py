"""Two-mode excitation exchange and Lindblad propagation.

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


def _kron_entries(x: np.ndarray, y: np.ndarray):
    """x kron y from the nonzeros of x and y, x[i, k] y[j, l] at (i*d + j,
    k*d + l): rows, columns and values off the diagonal, and the diagonal as
    a (d, d) array."""
    (xi, xk), (yj, yl), d = np.nonzero(x), np.nonzero(y), len(y)
    off = ~((xi == xk)[:, None] & (yj == yl))
    return ((xi[:, None] * d + yj)[off], (xk[:, None] * d + yl)[off],
            (x[xi, xk][:, None] * y[yj, yl])[off], np.outer(x.diagonal(), y.diagonal()))


def _sparse_liouvillian(spec: LindbladSpec) -> scipy.sparse.csr_matrix:
    """Sparse superoperator on row-major vec(rho), rho[i, j] at i*d + j:
    -i(H_eff kron I) + i(I kron H_eff*) + sum of c kron c* over jumps, with c
    the rate-scaled operators and H_eff = H - (i/2) sum c^dag c over jumps
    and losses.  One COO-to-CSR call takes each x kron y from the nonzeros
    of x and y, x[i, k] y[j, l] at (i*d + j, k*d + l).  The diagonal, where
    the terms meet, is summed densely first in their order, so its rounding
    does not depend on how scipy orders duplicates; exact zeros are dropped.
    A c or H_eff that is not finite raises :class:`ConvergenceError`."""
    d = spec.hamiltonian.dims.total
    with np.errstate(over="ignore", invalid="ignore"):
        ops = [np.sqrt(rate) * op.mat for rate, op in spec.jumps + spec.losses]
        h_eff = spec.hamiltonian.mat.copy()
        for c in ops:
            # einsum on c's nonzero columns: a dense product would wake
            # multi-threaded BLAS, whose threads spin on after it returns
            live = np.flatnonzero(c.any(axis=0))
            part = c[:, live]
            h_eff[np.ix_(live, live)] -= 0.5j * np.einsum("ki,kj->ij", part.conj(), part)
    if not all(np.isfinite(mat).all() for mat in [h_eff, *ops]):
        raise ConvergenceError("the generator is not finite: a rate overflows")
    eye, n = np.eye(d), np.arange(d * d)
    rows, cols, vals, diagonals = zip(
        _kron_entries(-1j * h_eff, eye), _kron_entries(eye, 1j * h_eff.conj()),
        *(_kron_entries(c, c.conj()) for c in ops[:len(spec.jumps)]))
    liou = scipy.sparse.csr_matrix(
        (np.concatenate(vals + (sum(diagonals).ravel(),)),
         (np.concatenate(rows + (n,)), np.concatenate(cols + (n,)))), shape=(d * d, d * d))
    liou.sum_duplicates()
    liou.eliminate_zeros()
    return liou


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
    of algorithm 3.2 judged on the largest entry of the block.  ``bound``,
    the sum of the terms' largest entries widened for rounding, is at least
    the largest entry of ``total``: while the stop fails against it, it fails
    against ``total`` too, so ``total`` is only scanned once it passes."""
    total, term = y.copy(), y
    previous = bound = np.abs(term).max()
    for k in range(1, _TAYLOR_DEGREE + 1):
        term = a @ term
        term *= h / k
        current = np.abs(term).max()
        total += term
        bound += current
        if (previous + current <= 2.0 ** -53 * (1.0 + 1e-9) * bound
                and previous + current <= 2.0 ** -53 * np.abs(total).max()):
            break
        previous = current
    return total


def lindblad_propagate(spec, rho0, t_grid, method: str = "exact"):
    """Propagate density matrices over a finite, increasing time grid from 0.

    ``rho0`` is one :class:`DensityMatrix`, giving one :class:`Trajectory`,
    or a sequence of them, giving a tuple of trajectories.  ``spec`` may also
    be a sequence of specs, with ``rho0`` one sequence of inputs per spec,
    every sequence the same length (``ValueError`` otherwise); that gives one
    tuple of trajectories per spec.  Each grid interval applies the exact
    propagator exp(L dt) by the truncated Taylor method of Al-Mohy & Higham
    (2011) on the sparse Liouvillian, to all inputs at once: input c of every
    spec is column c of one block of vec(rho), and the specs' Liouvillians,
    each shifted by its own mu = tr(L)/d^2, are the diagonal blocks of one
    CSR.  The pieces per interval come from that CSR's exact 1-norm, and the
    early stop is judged on the whole block; both are fixed once per call,
    with no randomized estimate, so states are deterministic.  After each
    piece a spec's rows are scaled by exp(h*mu) in place, the scalar first as
    in ``exp(h*mu) * y``: the other operand order rounds complex products
    differently.  ``"exact"`` is the only ``method``.  Loss terms make the
    trace fall and states subnormalized.  Trace drift beyond ``TRACE_TOL``
    (1e-12), a non-Hermitian state or an eigenvalue below -1e-10 raises
    :class:`ConvergenceError`, and so does a generator whose 1-norm would
    take more than ``MAX_TAYLOR_PIECES`` Taylor pieces over the grid, or is
    not finite.
    """
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if not (t_grid[0] == 0.0 and np.all(np.diff(t_grid) > 0) and np.isfinite(t_grid).all()):
        raise ValueError("t_grid must be finite and increase from 0")
    single = isinstance(spec, LindbladSpec)
    if single:
        specs, groups = (spec,), ((rho0,) if isinstance(rho0, DensityMatrix) else tuple(rho0),)
    else:
        specs, groups = tuple(spec), tuple(map(tuple, rho0))
    if len(groups) != len(specs) or len({len(group) for group in groups}) != 1:
        raise ValueError("need one group of initial states per spec, all of one length")
    for one, group in zip(specs, groups):
        if not group or any(r.dims != one.hamiltonian.dims for r in group):
            raise DimensionError("need initial states on the Hamiltonian's dims")
    # spec g takes rows[g] of the block: its d*d entries of vec(rho)
    dims = [one.hamiltonian.dims.total for one in specs]
    ends = np.cumsum([d * d for d in dims])
    rows = [slice(end - d * d, end) for d, end in zip(dims, ends)]
    mus, blocks = [], []
    for one, d in zip(specs, dims):
        liou = _sparse_liouvillian(one)
        mus.append(liou.diagonal().sum() / (d * d))
        blocks.append(liou - mus[-1] * scipy.sparse.identity(d * d, format="csr"))
    a = scipy.sparse.block_diag(blocks, format="csr")
    steps = np.diff(t_grid)
    # a float, so that a huge or non-finite norm fails the bound below
    pieces = np.ceil(steps.max(initial=0.0) * abs(a).sum(axis=0).max() / _THETA_55)
    if not pieces * len(steps) <= MAX_TAYLOR_PIECES:
        raise ConvergenceError(
            f"the generator's 1-norm asks for {pieces:.3g} Taylor pieces on each of "
            f"{len(steps)} intervals, above the limit of {MAX_TAYLOR_PIECES} in all")
    pieces = max(1, int(pieces))

    # column c of the block is vec(rho_c) of every spec; outs[g][c, k] is
    # rho_c(t_k) of spec g
    outs = [np.empty((len(group), len(t_grid), d, d), dtype=complex)
            for group, d in zip(groups, dims)]
    y = np.concatenate([np.stack([r.mat.ravel() for r in group], axis=1)
                        for group in groups])
    for k in range(len(t_grid)):
        if k:
            h = steps[k - 1] / pieces
            for _ in range(pieces):
                y = _taylor_piece(a, y, h)
                for mu, part in zip(mus, rows):
                    np.multiply(np.exp(h * mu), y[part], out=y[part])
        for out, part, d in zip(outs, rows, dims):
            out[:, k] = y[part].T.reshape(-1, d, d)

    results = []
    for one, group, out in zip(specs, groups, outs):
        out.flags.writeable = False
        trajectories = []
        for start, rho in zip(group, out):
            # the trace stays at 1, or at a subnormalized input's trace; in
            # loss mode it may only fall, and stays within [0, 1]
            trace0 = start.trace()
            subnormalized = (not one.trace_preserving) or trace0 < 1.0 - TRACE_TOL
            lo = hi = trace0 if subnormalized else 1.0
            if not one.trace_preserving:
                traces = np.trace(rho, axis1=1, axis2=2).real
                lo, hi = 0.0, np.minimum(np.append(hi, traces[:-1]), 1.0)
            check_density(rho, lo, hi, error=ConvergenceError)
            trajectories.append(Trajectory(t_grid, rho, subnormalized))
        results.append(tuple(trajectories))
    if not single:
        return tuple(results)
    return results[0][0] if isinstance(rho0, DensityMatrix) else results[0]
