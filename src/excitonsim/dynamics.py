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

from .hilbert import (HERM_TOL, TRACE_TOL, ConvergenceError, DimensionError, ModeDims,
                      ModeOperator, as_mode_dims, check_density)


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
    """Generator of a GKSL master equation on the space of ``dims``, each
    operator the numpy triplet (rows, columns, values) of its nonzero entries,
    which add up where they meet.  ``jumps`` are (rate, operator) pairs with
    the full dissipator; ``losses`` enter with the anti-commutator part only,
    so the trace falls.  The Hamiltonian must equal its conjugate transpose
    to ``HERM_TOL``, which NaN entries fail."""

    dims: ModeDims
    hamiltonian: tuple
    jumps: tuple = ()
    losses: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "dims", as_mode_dims(self.dims))
        object.__setattr__(self, "jumps", tuple(self.jumps))
        object.__setattr__(self, "losses", tuple(self.losses))
        for rate, _op in self.jumps + self.losses:
            if rate < 0:
                raise ValueError(f"negative rate {rate}")
        rows, cols, vals = self.hamiltonian  # H - H^dag: (r, c) minus conj at (c, r)
        _, defect = _summed(np.r_[rows, cols] * self.dims.total + np.r_[cols, rows],
                            np.r_[vals, -np.conj(vals)])
        if not np.abs(defect).max(initial=0.0) <= HERM_TOL:
            raise ValueError(f"the Hamiltonian is not hermitian to {HERM_TOL:.0e}")

    @property
    def trace_preserving(self) -> bool:
        return len(self.losses) == 0


def _summed(keys: np.ndarray, vals: np.ndarray):
    """The distinct ``keys``, ascending, and the ``vals`` at each, summed in order."""
    keys, place = np.unique(keys, return_inverse=True)
    total = np.zeros(len(keys), dtype=complex)
    np.add.at(total, place, vals)
    return keys, total


def _matched(kx: np.ndarray, ky: np.ndarray):
    """The index pairs (a, b) with kx[a] == ky[b], a ascending, then b."""
    order = np.argsort(ky, kind="stable")
    lo, hi = (np.searchsorted(ky[order], kx, side) for side in ("left", "right"))
    counts = hi - lo
    a = np.repeat(np.arange(len(kx)), counts)
    return a, order[np.arange(len(a)) + np.repeat(lo - np.cumsum(counts) + counts, counts)]


def _classes(spec: "LindbladSpec", mat: np.ndarray) -> list:
    """The classes of basis states that ``mat`` reaches under ``spec``, each
    ascending, by least state: of the finest partition in which H and
    ``mat`` join no two classes and each jump or loss, and its adjoint, maps
    every class into one, those that hold an entry of ``mat`` or that jumps
    carry such a class into.  Every generator term keeps a state
    block-diagonal over them: the weak U(1) symmetry of Buca & Prosen (New
    J. Phys. 14, 073007, 2012), for a network the sink and site numbers."""
    d = spec.dims.total
    ops = [op[:2] for _, op in spec.jumps + spec.losses]
    maps = [(c, r) for r, c in ops] + [(r, c) for r, c in ops]  # (sources, targets)
    sources, targets = (np.concatenate([np.zeros(0, dtype=int)] + [m[k] for m in maps])
                        for k in (0, 1))
    which = np.repeat(np.arange(len(maps)), [len(m[0]) for m in maps])
    rows, cols = np.nonzero(mat)
    pairs = [np.concatenate(part) for part in ((spec.hamiltonian[0], rows),
                                               (spec.hamiltonian[1], cols))]
    labels = np.arange(d)  # each state's least state of its class, once joined
    while True:  # join H's and mat's pairs and the targets of one map from one class
        keys = which * d + labels[sources]
        order = np.argsort(keys, kind="stable")
        same = np.flatnonzero(np.diff(keys[order]) == 0)
        a = np.concatenate((pairs[0], targets[order[same]]))
        b = np.concatenate((pairs[1], targets[order[same + 1]]))
        new = labels.copy()
        np.minimum.at(new, a, labels[b])
        np.minimum.at(new, b, labels[a])
        if np.array_equal(new := new[new], labels):
            break
        labels = new
    jump = which < len(spec.jumps)  # the maps of the jumps themselves
    out, into = labels[sources[jump]], labels[targets[jump]]
    reached = np.zeros(d, dtype=bool)  # by label
    reached[labels[rows]] = True
    while (new := into[reached[out] & ~reached[into]]).size:
        reached[new] = True
    order = np.argsort(labels, kind="stable")
    return [c for c in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
            if reached[c[0]]]


def _real_liouvillian(spec: LindbladSpec, classes) -> tuple:
    """The generator's map on Hermitian rho, block-diagonal over ``classes``,
    as the triplet (rows, columns, values) of a real matrix on their real
    coordinates, class after class as :func:`_pack_hermitian` lays out each
    block; entries at one place add up, zeros are left out.

    The complex superoperator is -i(H_eff kron I) + i(I kron H_eff*) + sum
    of c kron c* over jumps, c the rate-scaled operators and H_eff = H -
    (i/2) sum c^dag c over jumps and losses: c^dag c from pairs of entries
    of c in one row, x kron y from pairs of entries whose columns pair within
    one class.  The diagonal is summed densely first, in term order.  With
    x_p = Re(f_p rho_p) and rho_q = a_q x_q + b_q x_qT, qT the transposed
    slot, f and a 1 on or above the diagonal and i and -i below it, b = i a
    off it and 0 on it, a complex v at (p, q) becomes Re(f_p v a_q) at (p,
    q) and Re(f_p v b_q) at (p, qT).  A c or H_eff that is not finite raises
    :class:`ConvergenceError`."""
    d = spec.dims.total
    keys, terms = [spec.hamiltonian[0] * d + spec.hamiltonian[1]], [spec.hamiltonian[2]]
    with np.errstate(over="ignore", invalid="ignore"):
        ops = [(rows, cols, np.sqrt(rate) * vals)
               for rate, (rows, cols, vals) in spec.jumps + spec.losses]
        # -(i/2) conj(c[k, i]) c[k, j] at (i, j); real at i = j, whatever a
        # fused complex product rounds
        for rows, cols, vals in ops:
            a, b = _matched(rows, rows)
            keys.append(cols[a] * d + cols[b])
            terms.append(-0.5j * np.where(cols[a] == cols[b], (vals[a].conj() * vals[b]).real,
                                          vals[a].conj() * vals[b]))
        keys, h_eff = _summed(np.concatenate(keys), np.concatenate(terms))
    if not (np.isfinite(h_eff).all() and all(np.isfinite(c[2]).all() for c in ops)):
        raise ConvergenceError("the generator is not finite: a rate overflows")

    # per state: its class (-1 outside them), its place there, and the
    # coordinate of (state, least state of its class); per coordinate, the
    # pair (i, j) of rho[i, j], class after class and row-major in each
    states = np.concatenate([np.zeros(0, dtype=int), *classes])
    where, place, base = np.full(d, -1), np.zeros(d, dtype=int), np.zeros(d, dtype=int)
    for k, c in enumerate(classes):
        where[c], place[c] = k, np.arange(len(c))
    i, j = (states[side] for side in _matched(where[states], where[states]))
    base[i] = np.arange(len(i)) - place[j]

    def kron(x, y, kx, ky):  # x[i, k] y[j, l] at coordinates (i, j), (k, l) where kx == ky
        (i, k, xv), (j, l, yv) = x, y
        a, b = _matched(kx, ky)
        return base[i[a]] + place[j[b]], base[k[a]] + place[l[b]], xv[a] * yv[b]

    # H_eff off its diagonal beside the identity, and each jump's c kron c*:
    # off the diagonal as entries, on it summed in order after the H_eff terms
    h_rows, h_cols = np.divmod(keys, d)
    on, eye = h_rows == h_cols, (states, states, np.ones(len(states)))
    h_diagonal = np.zeros(d, dtype=complex)
    h_diagonal[h_rows[on]] = h_eff[on]
    diagonal = (-1j * h_diagonal)[i] + (1j * h_diagonal.conj())[j]
    off, into = (h_rows[~on], h_cols[~on]), where[h_rows[~on]]
    parts = [kron((*off, -1j * h_eff[~on]), eye, into, where[states]),
             kron(eye, (*off, 1j * h_eff[~on].conj()), where[states], into)]
    for c in ops[:len(spec.jumps)]:
        rows, cols, vals = (part[where[c[1]] >= 0] for part in c)
        rows, cols, vals = kron((rows, cols, vals), (rows, cols, vals.conj()), where[cols],
                                where[cols])
        on = rows == cols
        parts.append((rows[~on], cols[~on], vals[~on]))
        np.add.at(diagonal, rows[on], vals[on])
    n = np.arange(len(diagonal))
    p, q, v = map(np.concatenate, zip(*parts, (n, n, diagonal)))
    # f_p v a_q is v for p, q on one side of the diagonal, -i v for p on or
    # above it and q below, i v for p below and q on or above; f_p v b_q is i
    # times it, or 0
    upper, transposed = i <= j, base[j] + place[i]
    qt, same, sign = transposed[q], upper[p] == upper[q], np.where(upper[p], 1.0, -1.0)
    va = np.where(same, v.real, sign * v.imag)
    vb = -np.where(same, v.imag, -sign * v.real) * (qt != q)
    ka, kb = va != 0, vb != 0
    return (np.concatenate((p[ka], p[kb])), np.concatenate((q[ka], qt[kb])),
            np.concatenate((va[ka], vb[kb])))


def _shift(spec: LindbladSpec) -> float:
    """mu, the generator's trace on the whole space over d^2: -1/d times
    the sum of rate ||c - m I||_F^2 over jumps and losses, m = tr c / d for
    a jump and 0 for a loss.  No term is negative, so an overflow gives
    -inf, not NaN."""
    d, rates = spec.dims.total, [rate for rate, _ in spec.jumps + spec.losses]
    ops = [op for _, op in spec.jumps + spec.losses]
    # the entries of all operators, summed where they meet, by (operator, row, column)
    keys = [(k * d + rows) * d + cols for k, (rows, cols, _) in enumerate(ops)]
    keys, entries = _summed(np.concatenate([np.zeros(0, dtype=int), *keys]),
                            np.concatenate([np.zeros(0, dtype=complex)] + [op[2] for op in ops]))
    op, on = keys // (d * d), keys % (d * d) % (d + 1) == 0
    traces = np.zeros(len(ops), dtype=complex)
    np.add.at(traces, op[on], entries[on])
    m = np.where(np.arange(len(ops)) < len(spec.jumps), traces / d, 0.0)
    square = np.abs(np.where(on, entries - m[op], entries)) ** 2
    missing = d - np.bincount(op[on], minlength=len(ops))  # diagonal slots without an entry
    with np.errstate(over="ignore"):
        terms = rates * (np.bincount(op, square, len(ops)) + missing * np.abs(m) ** 2)
        return -terms.sum() / d


def _pack_hermitian(mat: np.ndarray) -> np.ndarray:
    """The real coordinates of the Hermitian matrix ``mat``: slot i*b + j
    holds Re mat[i, j] if i <= j and Im mat[j, i] if i > j."""
    return (np.triu(mat.real) + np.triu(mat.imag, 1).T).ravel()


def _unpack_hermitian(xs: np.ndarray, sizes) -> list:
    """The read-only (T, b, b) Hermitian blocks, b of ``sizes`` in turn,
    whose real coordinates (:func:`_pack_hermitian`) are the columns of
    ``xs``, block after block: Re from slot (min, max) of (i, j), Im from
    slot (max, min) times the sign of j - i, so blocks are exactly Hermitian."""
    sizes = np.asarray(sizes, dtype=int)
    ends = np.cumsum(sizes * sizes)
    b, start = np.repeat(sizes, sizes * sizes), np.repeat(ends - sizes * sizes, sizes * sizes)
    i, j = np.divmod(np.arange(len(b)) - start, b)
    low, high = np.minimum(i, j), np.maximum(i, j)
    out = np.empty(xs.shape, dtype=complex)
    np.take(xs, start + low * b + high, axis=1, out=out.real)
    np.take(xs, start + high * b + low, axis=1, out=out.imag)
    np.multiply(out.imag, np.sign(j - i), out=out.imag)
    out.flags.writeable = False
    return [part.reshape(-1, k, k) for part, k in zip(np.split(out, ends[:-1], axis=1), sizes)]


# theta_55 of table 3.1 in Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
# (2011): the degree-55 Taylor polynomial of h*A meets double-precision
# backward error while h*||A||_1 <= theta_55.
_THETA_55 = 9.9
_TAYLOR_DEGREE = 55

# most Taylor expansions one call may plan over its whole grid; the demo
# config plans 80 and the benchmark configs 14 to 20, 2 to 5 points each
MAX_TAYLOR_PIECES = 10 ** 5


def _taylor_piece(a, y: np.ndarray, h: float, fractions) -> np.ndarray:
    """exp(f*h*a) @ y, stacked over the f of ``fractions`` in (0, 1], the
    last 1.  The terms v_k = (h*a)^k y / k! are formed once, stopped early by
    algorithm 3.2 at h on the largest entry of y; f = 1 takes their running
    sum, f < 1 sum_k f^k v_k, whose tail the stop bounds as f^k <= 1.
    ``bound``, the terms' largest entries summed and widened for rounding, is
    at least the largest entry of ``total``: while the stop fails against
    it, it fails against ``total`` too, so ``total`` is only scanned once it
    passes."""
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


def lindblad_propagate(specs, inputs, t_grid, method: str = "exact") -> tuple:
    """Propagate one :class:`DensityMatrix` per spec of ``specs`` over a
    finite, increasing time grid from 0; a spec may come more than once.

    Mismatched or empty ``specs`` and ``inputs`` raise ``ValueError``, an
    input off its spec's dims :class:`DimensionError`.  A state stays 0
    outside the classes that its input reaches (:func:`_classes`), so each
    input gives one (states, stack) pair per class: its ascending basis
    indices, and a read-only, exactly Hermitian complex (T, b, b) array, [k]
    the block rho(t_k)[states][:, states].  The truncated Taylor method of
    Al-Mohy & Higham (2011) takes all inputs at once, in one vector of their
    classes' real coordinates (:func:`_pack_hermitian`) under one CSR of each
    input's real Liouvillian on its classes (:func:`_real_liouvillian`)
    shifted by its spec's mu (:func:`_shift`), for which its rows take
    exp(tau*mu) at tau into a step.  One expansion is read at every grid
    point within theta_55 / ||A||_1 of its start, and a longer interval
    splits into equal pieces; steps come from the exact ||A||_1 and the
    early stop from the whole vector, so states are deterministic.
    ``"exact"`` is the only ``method``.  A trace, summed over the classes,
    beyond ``TRACE_TOL`` of its bounds (1, or falling under losses), a class
    with an eigenvalue below -1e-10, a generator that is not finite, or a
    shifted 1-norm, infinite where mu overflows, that plans over
    ``MAX_TAYLOR_PIECES`` Taylor expansions raise :class:`ConvergenceError`."""
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if not (t_grid[0] == 0.0 and np.all(np.diff(t_grid) > 0) and np.isfinite(t_grid).all()):
        raise ValueError("t_grid must be finite and increase from 0")
    specs, inputs = tuple(specs), tuple(inputs)
    if not specs or len(inputs) != len(specs):
        raise ValueError(f"need one initial state per spec, got {len(inputs)} "
                         f"for {len(specs)} specs")
    if any(rho.dims != one.dims for one, rho in zip(specs, inputs)):
        raise DimensionError("need each initial state on its spec's dims")
    # imported here, not with the module, so the commands that build no
    # Liouvillian start without loading scipy
    import scipy.sparse

    # input g takes rows[g] of the vector, its classes' coordinates in turn,
    # and its Liouvillian shifted by -mus[g] there
    classes = [_classes(one, rho.mat) for one, rho in zip(specs, inputs)]
    entries, mu, y = [], [np.zeros(0)], [np.zeros(0)]
    for one, rho, found in zip(specs, inputs, classes):
        start, (p, q, v) = sum(map(len, y)), _real_liouvillian(one, found)
        entries.append((p + start, q + start, v))
        y += [_pack_hermitian(rho.mat[np.ix_(c, c)]) for c in found]
        mu.append(np.full(sum(len(c) ** 2 for c in found), _shift(one)))
    y, mu = np.concatenate(y), np.concatenate(mu)
    n = np.arange(len(y))
    p, q, v = map(np.concatenate, zip(*entries, (n, n, -mu)))
    a = scipy.sparse.csr_matrix((v, (p, q)), shape=(len(y), len(y)))
    del entries, p, q, v  # the triplets, several times the CSR, are not read again
    # Python floats, so a huge or infinite norm fails the bound below silently
    norm = float(np.asarray(abs(a).sum(axis=0)).max(initial=0.0))
    # step k -> j: one expansion read at every grid point that it reaches,
    # (t_j - t_k) * norm <= theta_55, or k -> k + 1 in equal pieces within it
    times, spans, k = t_grid.tolist(), [], 0
    while k + 1 < len(times):
        j = k + 1
        while j + 1 < len(times) and (times[j + 1] - times[k]) * norm <= _THETA_55:
            j += 1
        pieces = float(np.ceil((times[j] - times[k]) * norm / _THETA_55))
        spans.append((k, j, max(1.0, pieces)))
        k = j
    if not (planned := sum(pieces for *_, pieces in spans)) <= MAX_TAYLOR_PIECES:
        raise ConvergenceError(f"the generator's 1-norm asks for {planned:.3g} Taylor pieces "
                               f"over the grid, above the limit of {MAX_TAYLOR_PIECES}")

    # xs[k]: the reached coordinates of every input at t_k
    xs = np.empty((len(t_grid), len(y)))
    xs[0] = y
    for k, j, pieces in spans:
        h = (t_grid[j] - t_grid[k]) / pieces
        fractions = (t_grid[k + 1:j + 1] - t_grid[k]) / h if pieces == 1 else [1.0]
        for _ in range(int(pieces)):
            states = _taylor_piece(a, y, h, fractions)
            states *= np.exp(np.multiply.outer(fractions, h * mu))
            y = states[-1]
        xs[k + 1:j + 1] = states

    del a
    blocks = iter(_unpack_hermitian(xs, [len(c) for found in classes for c in found]))
    del xs
    results = tuple(tuple((c, next(blocks)) for c in found) for found in classes)
    for one, start, found in zip(specs, inputs, results):
        # the trace stays at 1, or at a subnormalized input's trace; in loss
        # mode it may only fall, and stays within [0, 1]
        trace0 = start.trace()
        lo = hi = trace0 if not one.trace_preserving or trace0 < 1.0 - TRACE_TOL else 1.0
        if not one.trace_preserving:
            traces = sum((np.einsum("tii->t", b).real for _, b in found), np.zeros(len(t_grid)))
            lo, hi = 0.0, np.minimum(np.append(hi, traces[:-1]), 1.0)
        check_density([block for _, block in found], lo, hi, error=ConvergenceError)
    return results
