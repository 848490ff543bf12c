"""Independent reference constructions that the tests check the package
against, and the Fock-space helpers the tests build states with.  They live
outside ``src/`` so that an oracle never shares code with what it checks.

* Fock-space helpers: basis indexing and excitation numbers of ``ModeDims``,
  overlaps, single-mode ladder and number operators, ``tensor`` and
  ``embed``, Fock and basis states, and the coherent states
  ``coherent_truncated`` (tail-checked) and ``leveled_coherent``.
* Dense operators beside the package's triplets: ``triplet`` reads the
  nonzeros of a dense matrix, ``dense`` writes a triplet as a matrix, and
  ``lindblad_spec`` builds a ``LindbladSpec`` from dense operators.
* The dense routes behind the closed forms: ``evolved_leveled_state``
  applies the dense ``exchange_unitary``, ``ExcitationProjector`` with
  ``project_renormalize`` projects onto excitation sectors before a Schmidt
  or Wootters evaluation, and ``decohered_dimer_state`` is the decohered
  dimer mixture.
* The route that the Fock-sector seeds of ``truncation_robustness``
  replace: each amplitude's leveled coherent input (``initial_state``), or
  its number-dephased form, propagated at the cap beside its projection onto
  at most one excitation at cap 1.
* The Liouvillian summed from ``scipy.sparse.kron`` products of the
  densified operators and its map on the real coordinates of Hermitian
  matrices by sparse products, a Taylor step that scans its running sum
  every term, and a dense Taylor matrix exponential.
* Beside the propagator's conserved classes: ``closure``, the real
  coordinates that a state reaches by a fixed point over the folded
  Liouvillian's pattern; ``class_slots``, the coordinates of classes in the
  full space; ``real_csr``, the package's real Liouvillian on classes as a
  CSR; and ``assembled`` and ``dense_propagate``, which write the
  propagator's (states, stack) pairs back into (T, d, d) stacks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from excitonsim import transport
from excitonsim.dynamics import LindbladSpec, exchange_unitary, lindblad_propagate
from excitonsim.hilbert import (
    DensityMatrix,
    DimensionError,
    FockVector,
    ModeDims,
    ModeOperator,
    as_mode_dims,
)
from excitonsim.states import (
    DEFAULT_TAIL_TOL,
    TruncationError,
    coherent_tail,
    leveled_norm_sq,
    min_coherent_dim,
)


def index(dims: ModeDims, occupations) -> int:
    """Flat index of the basis state with the given occupations."""
    occ = tuple(occupations)
    if len(occ) != dims.n_modes:
        raise DimensionError(f"expected {dims.n_modes} occupations, got {len(occ)}")
    if any(not 0 <= n < d for n, d in zip(occ, dims.dims)):
        raise DimensionError(f"occupations {occ} out of range for dims {dims.dims}")
    return int(np.ravel_multi_index(occ, dims.dims))


def total_number(dims: ModeDims) -> np.ndarray:
    """Total excitation number of every basis state, as an int array."""
    grids = np.indices(dims.dims).reshape(dims.n_modes, -1)
    return grids.sum(axis=0)


def overlap(x: FockVector, y: FockVector) -> complex:
    """Inner product <x|y>."""
    if x.dims != y.dims:
        raise DimensionError("overlap requires matching dims")
    return complex(np.vdot(x.amps, y.amps))


def dag(op: ModeOperator) -> ModeOperator:
    return ModeOperator(op.dims, op.mat.conj().T,
                        hermitian=op.hermitian, unitary=op.unitary)


def apply(op: ModeOperator, state: FockVector) -> FockVector:
    """Apply to a state; the result is flagged non-normalized."""
    if op.dims != state.dims:
        raise DimensionError("operator and state dims differ")
    return FockVector(op.dims, op.mat @ state.amps, normalized=False)


def expectation(op: ModeOperator, state: FockVector) -> complex:
    return complex(np.vdot(state.amps, op.mat @ state.amps))


def annihilation(dim: int) -> ModeOperator:
    """Single-mode lowering operator, <n-1|a|n> = sqrt(n)."""
    if dim < 2:
        raise DimensionError(f"annihilation needs dim >= 2, got {dim}")
    mat = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    mat[ns - 1, ns] = np.sqrt(ns)
    return ModeOperator(ModeDims((dim,)), mat)


def number_operator(dim: int) -> ModeOperator:
    if dim < 1:
        raise DimensionError(f"number operator needs dim >= 1, got {dim}")
    return ModeOperator(ModeDims((dim,)), np.diag(np.arange(dim)).astype(complex),
                        hermitian=True)


def identity(dims) -> ModeOperator:
    md = as_mode_dims(dims)
    return ModeOperator(md, np.eye(md.total, dtype=complex), hermitian=True, unitary=True)


def basis_state(dims, occupations) -> FockVector:
    """Product basis state |n_0 n_1 ...> on the given dims."""
    md = as_mode_dims(dims)
    amps = np.zeros(md.total, dtype=complex)
    amps[index(md, occupations)] = 1.0
    return FockVector(md, amps)


def tensor(x, y):
    """Kronecker product with x as the slower (left) factor.

    Both operands must be FockVector, or both ModeOperator; dims concatenate.
    """
    joined = ModeDims(x.dims.dims + y.dims.dims)
    if isinstance(x, FockVector) and isinstance(y, FockVector):
        return FockVector(joined, np.kron(x.amps, y.amps),
                          normalized=x.normalized and y.normalized)
    if isinstance(x, ModeOperator) and isinstance(y, ModeOperator):
        return ModeOperator(joined, np.kron(x.mat, y.mat),
                            hermitian=x.hermitian and y.hermitian,
                            unitary=x.unitary and y.unitary)
    raise TypeError(f"tensor requires two FockVector or two ModeOperator, "
                    f"got {type(x).__name__} and {type(y).__name__}")


def embed(op: ModeOperator, dims, mode: int) -> ModeOperator:
    """Lift a single-mode operator to the full tensor space at mode index."""
    md = as_mode_dims(dims)
    if op.dims.n_modes != 1:
        raise DimensionError("embed expects a single-mode operator")
    if not 0 <= mode < md.n_modes:
        raise DimensionError(f"mode index {mode} out of range")
    if op.dims.dims[0] != md.dims[mode]:
        raise DimensionError("operator dimension does not match the target mode")
    mat = np.eye(1, dtype=complex)
    for k, d in enumerate(md.dims):
        mat = np.kron(mat, op.mat if k == mode else np.eye(d, dtype=complex))
    return ModeOperator(md, mat, hermitian=op.hermitian, unitary=op.unitary)


def fock(dim: int, n: int) -> FockVector:
    """Number state |n> on a single mode with ``dim`` levels."""
    if dim < 1:
        raise DimensionError(f"fock needs dim >= 1, got {dim}")
    if not 0 <= n < dim:
        raise ValueError(f"level {n} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockVector(ModeDims((dim,)), amps)


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


def leveled_coherent(alpha: complex, n_levels: int) -> FockVector:
    """Coherent state restricted to the lowest ``n_levels`` levels, renormalized.

    Amplitudes proportional to alpha^n / sqrt(n!) for n < n_levels.  For a
    single level this is the vacuum regardless of alpha.  Where the squared
    norm overflows, :func:`leveled_norm_sq` raises ``ConvergenceError``.
    """
    leveled_norm_sq(alpha, n_levels)
    amps = np.zeros(n_levels, dtype=complex)
    amps[0] = 1.0
    term = 1.0 + 0.0j
    for n in range(1, n_levels):
        term *= alpha / np.sqrt(n)
        amps[n] = term
    amps /= np.linalg.norm(amps)
    return FockVector(ModeDims((n_levels,)), amps)


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
        return np.isin(total_number(self.dims), sorted(self.sectors))

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


def evolved_leveled_state(alpha: complex, n_levels: int, gt: float) -> FockVector:
    """Exchange-evolved |alpha_N> (x) |0> on the (N, N) two-mode space.

    The initial state populates only total-excitation blocks below the
    cutoff, so the truncated evolution is exact.
    """
    if n_levels < 2:
        raise DimensionError(f"need at least two levels, got {n_levels}")
    psi0 = tensor(leveled_coherent(alpha, n_levels), fock(n_levels, 0))
    evolved = apply(exchange_unitary((n_levels, n_levels), gt), psi0)
    return FockVector(evolved.dims, evolved.amps)


def initial_state(model, alpha: complex) -> FockVector:
    """Leveled coherent state |alpha_(cap+1)> on the entry site of a
    ``NetworkModel``, every other mode empty."""
    cap = model.basis.cap
    lc = leveled_coherent(alpha, cap + 1)
    amps = np.zeros(model.basis.dimension, dtype=complex)
    entry = model.spec.entry_site
    for n in range(cap + 1):
        occ = tuple(n if k == entry else 0 for k in range(model.n_modes))
        amps[model.basis.index[occ]] = lc.amps[n]
    return FockVector(model.basis.dims, amps)


def capture_growth(stack, model, times) -> float:
    """Growth of the captured population of the (T, d, d) ``stack`` over the
    last tenth of the grid ``times``, which a report's ``converged`` bounds."""
    captured = transport._stack_series(stack, model)[0]
    k = min(int(np.searchsorted(times, 0.9 * times[-1])), len(times) - 2)
    return float(captured[-1] - captured[k])


def two_sector_route(spec, alphas, t_grid, dephased: bool = True) -> list:
    """The propagated fields of ``truncation_robustness``'s reports, by the
    route its seeds replace.  Per amplitude the input is ``initial_state`` at
    ``spec.excitation_cap``, with its coherences between excitation sectors
    zeroed if ``dephased``; beside it, its unrenormalized projection onto at
    most one excitation runs on the cap-1 model, whose run is the restricted
    run.  Both go through one propagation call, and every field is read from
    the two trajectories by the package's observables.  One dict per
    amplitude, of the fields that depend on the propagation."""
    model, model_lo = transport.build_network(spec), transport.build_network(spec, cap=1)
    n = model.basis.total_number
    inputs = []
    for alpha in alphas:
        rho0 = initial_state(model, alpha).to_density().mat
        inputs.append(DensityMatrix(model.basis.dims,
                                    rho0 * (n[:, None] == n) if dephased else rho0))
    keep = [model.basis.index[occ] for occ in model_lo.basis.states]
    restricted = [DensityMatrix(model_lo.basis.dims, rho0.mat[np.ix_(keep, keep)],
                                subnormalized=True) for rho0 in inputs]
    pair = (spec.entry_site, spec.exit_site)
    fields = []
    count = len(inputs)
    stacks = lindblad_propagate([model.lindblad] * count + [model_lo.lindblad] * count,
                                inputs + restricted, t_grid)
    for rho0, full, lo in zip(inputs, stacks, stacks[count:]):
        eff_full, eff_lo = (transport.efficiency_integrated(full, model),
                            transport.efficiency_integrated(lo, model_lo))
        norm_full, norm_lo = (transport.efficiency_integrated(full, model, normalized=True),
                              transport.efficiency_integrated(lo, model_lo, normalized=True))
        growth = max(capture_growth(full, model, t_grid), capture_growth(lo, model_lo, t_grid))
        peak, peak_time = transport.efficiency_peak(full, model, t_grid)
        fields.append({
            "efficiency_full": eff_full, "efficiency_restricted": eff_lo,
            "efficiency_cap1": eff_lo, "normalized_efficiency_full": norm_full,
            "normalized_efficiency_restricted": norm_lo,
            "relative_difference": abs(eff_full - eff_lo) / eff_full if eff_full > 0 else 0.0,
            "residual_bound": 2.0 * float(rho0.mat.diagonal().real[n >= 2].sum()),
            "peak_population": peak, "peak_time": peak_time,
            "converged": growth <= 1e-6,
            "concurrence_p1": transport.pairwise_concurrence(full, model, *pair, {1}),
            "concurrence_p01": transport.pairwise_concurrence(full, model, *pair, {0, 1}),
            "concurrence_p1_restricted": transport.pairwise_concurrence(
                lo, model_lo, *pair, {1}),
        })
    return fields


def triplet(mat) -> tuple:
    """(rows, columns, values) of the nonzero entries of a dense matrix, a
    ``ModeOperator``'s or an array."""
    mat = np.asarray(mat.mat if isinstance(mat, ModeOperator) else mat, dtype=complex)
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def dense(op, d: int) -> np.ndarray:
    """The (d, d) complex matrix of a triplet, entries at one place summed."""
    rows, cols, vals = op
    mat = np.zeros((d, d), dtype=complex)
    np.add.at(mat, (rows, cols), vals)
    return mat


def lindblad_spec(hamiltonian, jumps=(), losses=()) -> LindbladSpec:
    """A ``LindbladSpec`` from dense operators, ``ModeOperator`` values or
    arrays: the Hamiltonian, and (rate, operator) pairs.  The dims are the
    Hamiltonian's, or one mode of its size for an array."""
    dims = hamiltonian.dims if isinstance(hamiltonian, ModeOperator) else (len(hamiltonian),)
    return LindbladSpec(dims, triplet(hamiltonian),
                        tuple((rate, triplet(op)) for rate, op in jumps),
                        tuple((rate, triplet(op)) for rate, op in losses))


def kron_liouvillian(spec) -> scipy.sparse.csr_matrix:
    """Sparse superoperator of a ``LindbladSpec`` on row-major vec(rho),
    summed from ``scipy.sparse.kron`` products: by vec(A rho B) = (A kron
    B^T) vec(rho) it is -i(H_eff kron I) + i(I kron H_eff*) + sum of c kron
    c* over jumps, with H_eff = H - (i/2) sum c^dag c over jumps and
    losses."""
    d = spec.dims.total
    eye = scipy.sparse.identity(d, format="csr")

    def kron(a, b):
        return scipy.sparse.kron(a, b, format="csr")

    ops = [scipy.sparse.csr_matrix(np.sqrt(rate) * dense(op, d))
           for rate, op in spec.jumps + spec.losses]
    h_eff = scipy.sparse.csr_matrix(dense(spec.hamiltonian, d))
    for c in ops:
        h_eff = h_eff - 0.5j * (c.conj().T @ c)
    liou = -1j * kron(h_eff, eye) + 1j * kron(eye, h_eff.conj())
    for c in ops[:len(spec.jumps)]:
        liou += kron(c, c.conj())
    return liou.tocsr()


def folded_liouvillian(spec) -> scipy.sparse.csr_matrix:
    """The map of :func:`kron_liouvillian` on Hermitian rho in its real
    coordinates x, held in the slots of row-major vec(rho): x[k*d + l] is
    Re rho[k, l] for k <= l and Im rho[l, k] for k > l.  It is Re(F L Q),
    by sparse products, with F diagonal and x = Re(F vec(rho)), and vec(rho)
    = Q x: column (k, l) of Q puts 1 at (k, l) and (l, k) for k <= l, and i
    at (l, k) and -i at (k, l) for k > l.  Zeros are not stored."""
    d = spec.dims.total
    k, l = np.divmod(np.arange(d * d), d)
    slot, swapped = k * d + l, l * d + k
    upper, lower = k < l, k > l
    f = scipy.sparse.diags(np.where(lower, 1j, 1.0), format="csr")
    q = scipy.sparse.csr_matrix(
        (np.concatenate([np.where(lower, -1j, 1.0), np.where(lower, 1j, 1.0)[upper | lower]]),
         (np.concatenate([slot, swapped[upper | lower]]),
          np.concatenate([slot, slot[upper | lower]]))), shape=(d * d, d * d))
    folded = scipy.sparse.csr_matrix((f @ kron_liouvillian(spec) @ q).real)
    folded.eliminate_zeros()
    folded.sort_indices()
    return folded


def liouvillian_matrix(spec) -> np.ndarray:
    """Dense superoperator acting on row-major vec(rho)."""
    return kron_liouvillian(spec).toarray()


def scanning_taylor_piece(a, y: np.ndarray, h: float, degree: int = 55) -> np.ndarray:
    """Taylor sum for exp(h*a) @ y with the early stop of algorithm 3.2 of
    Al-Mohy & Higham (2011), judged on the largest entry of the running sum,
    scanned after every term."""
    total = term = y
    previous = np.abs(term).max()
    for k in range(1, degree + 1):
        term = (h / k) * (a @ term)
        current = np.abs(term).max()
        total = total + term
        if previous + current <= 2.0 ** -53 * np.abs(total).max():
            break
        previous = current
    return total


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


def closure(folded, mat) -> np.ndarray:
    """Mask of the d*d real coordinates that the state ``mat`` reaches under
    the real map ``folded`` (as :func:`folded_liouvillian` gives it): those
    where it is nonzero, grown to a fixed point by every row that a reached
    column feeds.  Every other coordinate stays exactly 0."""
    pattern = folded.astype(bool)
    live = (np.triu(mat.real) - np.tril(mat.imag, -1)).ravel() != 0
    while not np.array_equal(grown := pattern @ live | live, live):
        live = grown
    return live


def class_slots(classes, d: int) -> np.ndarray:
    """The full-space slots k*d + l of the classes' real coordinates, class
    after class, each class's pairs (k, l) row-major."""
    return np.concatenate([np.zeros(0, dtype=int)]
                          + [(c[:, None] * d + c).ravel() for c in classes])


def real_csr(spec, classes=None) -> scipy.sparse.csr_matrix:
    """``dynamics._real_liouvillian`` on ``classes``, by default the whole
    space as one class, as a CSR."""
    from excitonsim import dynamics

    classes = [np.arange(spec.dims.total)] if classes is None else classes
    n = sum(len(c) ** 2 for c in classes)
    rows, cols, vals = dynamics._real_liouvillian(spec, classes)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def assembled(blocks, d: int, points: int) -> np.ndarray:
    """The (T, d, d) stack, T = ``points``, of a state series given as
    (states, stack) pairs, 0 outside the classes."""
    out = np.zeros((points, d, d), dtype=complex)
    for states, stack in blocks:
        out[:, states[:, None], states] = stack
    return out


def dense_propagate(specs, inputs, t_grid) -> tuple:
    """``lindblad_propagate``'s states as one (T, d, d) stack per input."""
    return tuple(assembled(blocks, rho.dims.total, len(t_grid)) for blocks, rho
                 in zip(lindblad_propagate(specs, inputs, t_grid), inputs))
