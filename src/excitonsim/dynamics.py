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


def _slots(d: int):
    """The layout of rho's d*d real coordinates: slot s = i*d + j holds
    Re rho[i, j] if i <= j and Im rho[j, i] if i > j.  Returns, per slot,
    whether i <= j and the transposed slot j*d + i."""
    i, j = np.divmod(np.arange(d * d), d)
    return i <= j, j * d + i


def _real_liouvillian(spec: LindbladSpec) -> "scipy.sparse.csr_matrix":
    """The generator's map on Hermitian rho as a real CSR on the d*d real
    coordinates x of rho, laid out as :func:`_slots` says.

    The complex superoperator is -i(H_eff kron I) + i(I kron H_eff*) + sum
    of c kron c* over jumps, with c the rate-scaled operators and H_eff =
    H - (i/2) sum c^dag c over jumps and losses.  Each x kron y comes from
    the nonzeros of x and y, x[i, k] y[j, l] at (i*d + j, k*d + l), and the
    diagonal, where the terms meet, is summed densely first in their order,
    so its rounding does not depend on how scipy orders duplicates.  With
    x_p = Re(f_p rho_p) and rho_q = a_q x_q + b_q x_qT, where qT is
    the transposed slot, f and a are 1 on or above the diagonal and i and
    -i below it, and b is i above it, 1 below it and 0 on it, a complex v at
    (p, q) becomes Re(f_p v a_q) at (p, q) and Re(f_p v b_q) at (p, qT).
    Exact zeros, those from b = 0 among them, are dropped and the rest
    summed in one COO-to-CSR call, which gives a canonical CSR.  A c or
    H_eff that is not finite raises :class:`ConvergenceError`."""
    # imported here and in lindblad_propagate, not with the module, so the
    # commands that build no Liouvillian start without loading scipy
    import scipy.sparse

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
    p, q = np.concatenate(rows + (n,)), np.concatenate(cols + (n,))
    v = np.concatenate(vals + (sum(diagonals).ravel(),))
    upper, transposed = _slots(d)
    f = np.where(upper, 1, 1j)
    a, b = f.conj(), np.where(upper, 1j, 1) * (transposed != n)
    fv = f[p] * v
    rows, cols = np.concatenate([p, p]), np.concatenate([q, transposed[q]])
    vals = np.concatenate([(fv * a[q]).real, (fv * b[q]).real])
    kept = vals != 0
    return scipy.sparse.csr_matrix((vals[kept], (rows[kept], cols[kept])),
                                   shape=(d * d, d * d))


def _pack_hermitian(mat: np.ndarray) -> np.ndarray:
    """The real coordinates of the Hermitian matrix ``mat``, row-major."""
    upper, transposed = _slots(len(mat))
    return np.where(upper, mat.real.ravel(), mat.imag.ravel()[transposed])


# theta_55 of table 3.1 in Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
# (2011): the degree-55 Taylor polynomial of h*A meets double-precision
# backward error while h*||A||_1 <= theta_55.
_THETA_55 = 9.9
_TAYLOR_DEGREE = 55

# most Taylor expansions one call may plan over its whole grid; the demo
# config plans 80 and the benchmark configs 14 to 20, 2 to 5 points each
MAX_TAYLOR_PIECES = 10 ** 5


def _taylor_piece(a, y: np.ndarray, h: float, fractions) -> np.ndarray:
    """exp(f*h*a) @ y on a block of columns, stacked over the f of
    ``fractions`` in (0, 1], the last 1.  The terms v_k = (h*a)^k y / k! are
    formed once, stopped early by algorithm 3.2 at h on the block's largest
    entry; f = 1 takes their running sum, f < 1 sum_k f^k v_k, whose tail the
    stop bounds as f^k <= 1.  ``bound``, the terms' largest entries summed and
    widened for rounding, is at least the largest entry of ``total``: while
    the stop fails against it, it fails against ``total`` too, so ``total``
    is only scanned once it passes."""
    states = np.repeat(y[None], len(fractions), axis=0)
    total, terms, term = states[-1], [y], y
    previous = bound = np.abs(term).max(initial=0.0)
    for k in range(1, _TAYLOR_DEGREE + 1):
        term = a @ term
        term *= h / k
        terms.append(term)
        current = np.abs(term).max(initial=0.0)
        total += term
        bound += current
        if (previous + current <= 2.0 ** -53 * (1.0 + 1e-9) * bound
                and previous + current <= 2.0 ** -53 * np.abs(total).max(initial=0.0)):
            break
        previous = current
    if len(fractions) > 1:  # einsum, not BLAS: a product would wake BLAS threads
        np.einsum("pk,k...->p...", np.vander(fractions[:-1], len(terms), increasing=True),
                  terms, out=states[:-1])
    return states


def lindblad_propagate(spec, rho0, t_grid, method: str = "exact"):
    """Propagate density matrices over a finite, increasing time grid from 0.

    ``rho0`` is one :class:`DensityMatrix`, giving one :class:`Trajectory`, or
    a sequence of them, giving a tuple of trajectories.  ``spec`` may also be a
    sequence of specs, with ``rho0`` one sequence of inputs per spec, every
    sequence the same length (``ValueError`` otherwise); that gives one tuple
    of trajectories per spec.  The exact propagator goes to all inputs at once
    by the truncated Taylor method of Al-Mohy & Higham (2011): one expansion
    spans every grid point within theta_55 / ||A||_1 of its start and is read
    at each, and a longer interval splits into equal pieces.  The generator
    preserves Hermiticity, so the loop runs on the d^2 real coordinates of each
    state (:func:`_slots`) under the real CSR of :func:`_real_liouvillian`:
    input c of every spec is column c of one real block, and the specs' real
    Liouvillians, each shifted by its own real mu = tr/d^2, are the diagonal
    blocks of one CSR.  Only the coordinates the inputs reach propagate: those
    where some input is nonzero, grown to a fixed point by every row that a
    reached column of the CSR feeds.  The others start at 0 and nothing feeds
    them, so they are exactly 0 at every time, for any input.  Every generator
    term keeps n - m of rho's (n, m) excitation-sector block (the weak U(1)
    symmetry of Buca & Prosen, New J. Phys. 14, 073007, 2012), so an input
    without coherences between sectors reaches no such coherence; the closure
    also finds finer conserved differences, such as a sink mode's number.  A
    7-site ``transport`` call of the benchmark (seeds on d = 9 and d = 45)
    keeps 884 of 2 106 coordinates.  The steps come from the exact ||A||_1 of
    the reached rows and columns, and the early stop is judged on the whole
    block at each step's end: no randomized estimate, so states are
    deterministic.  A spec's rows at tau into a step take a factor
    exp(tau*mu).  The reached coordinates of every input at every grid point
    wait in one float array, at most half the size of the complex output, and
    one scatter per spec then writes each trajectory once, as a complex (T, d,
    d) stack that is exactly Hermitian.  ``"exact"`` is the only ``method``.
    Loss terms make the trace fall and states subnormalized.  Trace drift
    beyond ``TRACE_TOL`` (1e-12), a non-Hermitian state or an eigenvalue below
    -1e-10 raises :class:`ConvergenceError`, and so does a generator whose
    1-norm would plan more than ``MAX_TAYLOR_PIECES`` Taylor expansions over
    the grid, or is not finite.
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
    import scipy.sparse

    # spec g takes rows[g] of the block: the d*d real coordinates of rho
    dims = [one.hamiltonian.dims.total for one in specs]
    ends = np.cumsum([d * d for d in dims])
    rows = [slice(end - d * d, end) for d, end in zip(dims, ends)]
    mus, blocks = [], []
    for one, d in zip(specs, dims):
        real = _real_liouvillian(one)
        mus.append(real.diagonal().sum() / (d * d))
        blocks.append(real - mus[-1] * scipy.sparse.identity(d * d, format="csr"))
    a = scipy.sparse.block_diag(blocks, format="csr")
    y = np.concatenate([np.stack([_pack_hermitian(r.mat) for r in group], axis=1)
                        for group in groups])
    # the coordinates the inputs reach: those where some input is nonzero,
    # and then every row that a reached column feeds, to a fixed point.  The
    # rest start at 0 and nothing feeds them, so they stay exactly 0, and
    # only the reached rows and columns of the block propagate: spec g's
    # reached coordinates, at slots kept[g] of its d*d, become rows[g]
    pattern, live = a.astype(bool), y.any(axis=1)
    while not np.array_equal(grown := pattern @ live | live, live):
        live = grown
    kept = [np.flatnonzero(live[part]) for part in rows]
    ends = np.cumsum([len(index) for index in kept])
    rows = [slice(end - len(index), end) for index, end in zip(kept, ends)]
    a, y = a[live][:, live], y[live]
    # Python floats, so a huge or infinite norm fails the bound below silently
    norm = float(np.asarray(abs(a).sum(axis=0)).max(initial=0.0))
    # step k -> j: one expansion read at every grid point that it reaches,
    # (t_j - t_k) * norm <= theta_55, or k -> k + 1 in equal pieces within it
    times, spans, k = t_grid.tolist(), [], 0
    while k + 1 < len(times):
        j = k + 1
        while j + 1 < len(times) and (times[j + 1] - times[k]) * norm <= _THETA_55:
            j += 1
        spans.append((k, j, max(1.0, np.ceil((times[j] - times[k]) * norm / _THETA_55))))
        k = j
    if not (planned := sum(pieces for *_, pieces in spans)) <= MAX_TAYLOR_PIECES:
        raise ConvergenceError(f"the generator's 1-norm asks for {planned:.3g} Taylor pieces "
                               f"over the grid, above the limit of {MAX_TAYLOR_PIECES}")

    # xs[k, :, c]: the reached coordinates of input c of every spec at t_k
    xs = np.empty((len(t_grid), *y.shape))
    xs[0] = y
    for k, j, pieces in spans:
        h = (t_grid[j] - t_grid[k]) / pieces
        fractions = (t_grid[k + 1:j + 1] - t_grid[k]) / h if pieces == 1 else [1.0]
        for _ in range(int(pieces)):
            states = _taylor_piece(a, y, h, fractions)
            for mu, part in zip(mus, rows):
                states[:, part] *= np.exp(np.multiply(fractions, h * mu))[:, None, None]
            y = states[-1]
        xs[k + 1:j + 1] = states

    results = []
    for one, group, d, index, part in zip(specs, groups, dims, kept, rows):
        # out[c, k] = rho_c(t_k), 0 where unreached: slot i <= j sets Re rho
        # at (i, j) and (j, i), slot i > j Im rho[j, i] and -Im at (i, j)
        out = np.zeros((len(group), len(t_grid), d, d), dtype=complex)
        flat, x = out.reshape(len(group), len(t_grid), -1), xs[:, part].transpose(2, 0, 1)
        upper, transposed = (slot[index] for slot in _slots(d))
        flat.real[..., index[upper]] = flat.real[..., transposed[upper]] = x[..., upper]
        flat.imag[..., transposed[~upper]] = x[..., ~upper]
        flat.imag[..., index[~upper]] = -x[..., ~upper]
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
