"""Transport-efficiency experiments on small coupled-site networks.

Sites are bosonic modes coupled by pairwise excitation exchange; the state
space is truncated by a total-excitation cap (not per-site), which matches
the subspace structure the dynamics preserves.  The sink is by default an
explicit auxiliary mode fed from the exit site, so the captured population
is a bounded, convergent quantity; a pure-loss variant (monotonically
shrinking system trace) is selectable.

All energies and rates are dimensionless, expressed in units of a reference
coupling; times are in units of the inverse reference coupling.
"""

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .dynamics import LindbladSpec, lindblad_propagate
from .entanglement import _leveled_concurrence
from .hilbert import DensityMatrix, DimensionError, ModeDims
from .states import leveled_norm_sq


class ConfigError(ValueError):
    """Malformed network configuration."""


# largest capped space build_network assembles.  Operators are triplets and
# states are propagated as blocks, but each seed is a dense (d, d) input: a
# transport run at d = 165 (7 sites with an explicit sink at cap 3, 81 time
# points) peaks near 80 MB, and a mistyped cap of 20 on 3 sites (d = 10626)
# would need 1.8 GB for one input state
MAX_DIMENSION = 200

# most complex entries truncation_robustness may hold in trajectories (64 MiB),
# T * sum_n d_n^2 over its seeds whatever the number of amplitudes: the demo
# config takes 40 250, a 7-site cap-3 run with 81 time points about 2.38
# million, and the demo with 20 000 time points would take 5 million
MAX_TRAJECTORY_ENTRIES = 2 ** 22

# most amplitude-time points (len(alphas) * time_points) the reports of one
# run may hold, at about 620 bytes each in memory and JSON; the demo takes 483.
# One amplitude on a grid within MAX_TRAJECTORY_ENTRIES stays below it: the
# smallest seeds, 2 sites in loss mode, take 45 trajectory entries per point
MAX_REPORT_POINTS = 2 ** 18

# keys a network config may hold: the spec's own, then the ones the
# transport command reads (amplitudes and time grid)
_CONFIG_KEYS = frozenset({
    "sites", "energies", "couplings", "dephasing", "exit_site", "sink_rate",
    "entry_site", "excitation_cap", "sink_mode", "relaxation",
    "alphas", "t_final", "time_points",
})


def _is_rate(r) -> bool:
    """Finite and nonnegative; false for NaN."""
    return 0 <= r < math.inf


def _integer(value, name: str) -> int:
    """A config value that must be a JSON integer: a fraction is rejected
    rather than truncated, and so is a bool."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _finite_number(value) -> bool:
    """A JSON number, not a bool, with a finite float value."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _site_numbers(values, name: str, m: int) -> tuple:
    """One finite JSON number per site, as floats."""
    if not (isinstance(values, list) and len(values) == m
            and all(map(_finite_number, values))):
        raise ConfigError(f"{name} must be {m} finite numbers, got {values!r}")
    return tuple(map(float, values))


@dataclass(frozen=True)
class NetworkSpec:
    """Coupled-site network with dephasing and a sink on the exit site.

    ``couplings`` is the Hermitian matrix of pairwise exchange strengths
    g_ij; ``dephasing`` are per-site rates gamma_i under which the 0-1
    coherence of site i decays as exp(-gamma_i t); ``relaxation`` are
    optional per-site loss-to-ground rates.  ``excitation_cap`` bounds the
    total excitation number of the truncated space.
    """

    energies: tuple
    couplings: tuple
    dephasing: tuple
    exit_site: int
    sink_rate: float
    entry_site: int = 0
    excitation_cap: int = 2
    sink_mode: str = "explicit"
    relaxation: tuple | None = None

    def __post_init__(self):
        energies = tuple(float(e) for e in self.energies)
        if not all(map(math.isfinite, energies)):
            raise ConfigError("site energies must be finite")
        object.__setattr__(self, "energies", energies)
        g = np.asarray(self.couplings, dtype=complex)
        m = len(energies)
        if g.shape != (m, m):
            raise ConfigError(f"couplings must be {m}x{m}, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ConfigError("couplings must be finite")
        if np.max(np.abs(g - g.conj().T)) > 1e-12:
            raise ConfigError("couplings must be Hermitian")
        object.__setattr__(self, "couplings", tuple(map(tuple, g)))
        deph = tuple(float(r) for r in self.dephasing)
        if len(deph) != m:
            raise ConfigError(f"need {m} dephasing rates, got {len(deph)}")
        if not all(map(_is_rate, deph)):
            raise ConfigError("dephasing rates must be finite and nonnegative")
        object.__setattr__(self, "dephasing", deph)
        if self.relaxation is not None:
            relax = tuple(float(r) for r in self.relaxation)
            if len(relax) != m or not all(map(_is_rate, relax)):
                raise ConfigError("relaxation rates must be finite and "
                                  "nonnegative, one per site")
            object.__setattr__(self, "relaxation", relax)
        if not 0 <= self.exit_site < m:
            raise ConfigError(f"exit site {self.exit_site} out of range")
        if not 0 <= self.entry_site < m:
            raise ConfigError(f"entry site {self.entry_site} out of range")
        if self.entry_site == self.exit_site:
            raise ConfigError("entry and exit site must differ")
        if not _is_rate(self.sink_rate):
            raise ConfigError("sink rate must be finite and nonnegative")
        if self.excitation_cap < 1:
            raise ConfigError("excitation cap must be >= 1")
        if self.sink_mode not in ("explicit", "loss"):
            raise ConfigError(f"unknown sink mode {self.sink_mode!r}")

    @property
    def n_sites(self) -> int:
        return len(self.energies)

    @property
    def coupling_matrix(self) -> np.ndarray:
        return np.asarray(self.couplings, dtype=complex)

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        """The spec of a JSON config: rates, energies and coupling strengths
        are finite JSON numbers (not strings or bools), ``dephasing`` and
        ``relaxation`` one for all sites or one per site, and each coupling
        joins two different sites once."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        try:
            m = _integer(data["sites"], "sites")
            # more sites than MAX_DIMENSION span more states at any cap
            if not 2 <= m <= MAX_DIMENSION:
                raise ConfigError(f"sites must be from 2 to {MAX_DIMENSION}, got {m}")
            couplings, pairs = np.zeros((m, m)), set()
            for i, j, g in data["couplings"]:
                i, j = (_integer(k, "coupling site index") for k in (i, j))
                if not (0 <= i < m and 0 <= j < m):
                    raise ConfigError(f"coupling site index out of range: {[i, j]}")
                pair = frozenset((i, j))
                if i == j:
                    raise ConfigError(f"coupling {[i, j]} joins site {i} to itself")
                if pair in pairs:
                    raise ConfigError(f"coupling between sites {i} and {j} given twice")
                if not _finite_number(g):
                    raise ConfigError(f"coupling strength must be a finite number, "
                                      f"got {g!r}")
                pairs.add(pair)
                couplings[i, j] = couplings[j, i] = g

            def each(value):
                return value if isinstance(value, list) else [value] * m

            sink_rate = data.get("sink_rate", 0.0)
            if not _finite_number(sink_rate):
                raise ConfigError(f"sink_rate must be a finite number, got {sink_rate!r}")
            relaxation = data.get("relaxation")
            return cls(
                energies=_site_numbers(data.get("energies", [0.0] * m), "energies", m),
                couplings=tuple(map(tuple, couplings)),
                dephasing=_site_numbers(each(data.get("dephasing", 0.0)), "dephasing", m),
                exit_site=_integer(data["exit_site"], "exit_site"),
                sink_rate=float(sink_rate),
                entry_site=_integer(data.get("entry_site", 0), "entry_site"),
                excitation_cap=_integer(data.get("excitation_cap", 2),
                                        "excitation_cap"),
                sink_mode=data.get("sink_mode", "explicit"),
                relaxation=(None if relaxation is None
                            else _site_numbers(each(relaxation), "relaxation", m)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc
        except ConfigError:
            raise
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc


class CappedBasis:
    """Occupation basis of several modes truncated at a total-excitation cap."""

    def __init__(self, n_modes: int, cap: int):
        if n_modes < 1 or cap < 1:
            raise DimensionError("need at least one mode and cap >= 1")
        self.n_modes = n_modes
        self.cap = cap
        # each way to place cap excitations in n_modes + 1 bins, the last
        # unused; sorted, mode 0 varies slowest
        self.states = sorted(tuple(map(bins.count, range(n_modes))) for bins
                             in combinations_with_replacement(range(n_modes + 1), cap))
        self.index = {occ: k for k, occ in enumerate(self.states)}
        self.dimension = len(self.states)
        self.dims = ModeDims((self.dimension,))
        self.occupations = np.array(self.states)
        self.total_number = self.occupations.sum(axis=1)

    def ladder(self, mode: int, raised: int | None = None):
        """a_mode, or a_raised^dag a_mode, as (rows, columns, values) of its
        nonzero entries, one per state with an excitation on ``mode``."""
        cols = np.flatnonzero(self.occupations[:, mode])
        target = self.occupations[cols]
        vals = np.sqrt(target[:, mode])
        target[:, mode] -= 1
        if raised is not None:
            target[:, raised] += 1
            vals = np.sqrt(target[:, raised]) * vals
        rows = np.array([self.index[occ] for occ in map(tuple, target.tolist())], dtype=int)
        return rows, cols, vals + 0j

    def sector_mask(self, sectors) -> np.ndarray:
        return np.isin(self.total_number, sorted(sectors))


@dataclass(frozen=True)
class NetworkModel:
    """Propagation-ready model: the capped basis and the Lindblad generator,
    whose Hamiltonian is ``lindblad.hamiltonian``."""

    spec: NetworkSpec
    basis: CappedBasis
    lindblad: LindbladSpec
    sink_mode_index: int | None

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes


def build_network(spec: NetworkSpec, cap: int | None = None) -> NetworkModel:
    """Assemble Hamiltonian and jump operators on the capped basis, each as
    the triplet of its nonzero entries (see :class:`LindbladSpec`).

    In explicit sink mode an auxiliary mode (the last one) absorbs
    excitations from the exit site at the sink rate; in loss mode the sink
    is an anti-commutator-only decay on the exit site and the system trace
    decreases.
    """
    cap = spec.excitation_cap if cap is None else int(cap)
    if cap < 1:
        raise ConfigError("cap must be >= 1")
    m = spec.n_sites
    explicit_sink = spec.sink_mode == "explicit"
    n_modes = m + 1 if explicit_sink else m
    d = math.comb(n_modes + cap, cap)
    if d > MAX_DIMENSION:
        raise ConfigError(f"{n_modes} modes at excitation cap {cap} span {d} "
                          f"states, above the limit of {MAX_DIMENSION}")
    basis = CappedBasis(n_modes, cap)

    # the energy diagonal, then each hop a_i^dag a_j with its adjoint
    g, every = spec.coupling_matrix, np.arange(basis.dimension)
    h = [(every, every, sum(e * basis.occupations[:, i]
                            for i, e in enumerate(spec.energies)) + 0j)]
    for i, j in zip(*np.nonzero(np.triu(g, 1))):
        rows, cols, vals = basis.ladder(j, raised=i)
        h += [(rows, cols, g[i, j] * vals), (cols, rows, np.conj(g[i, j] * vals))]

    jumps, losses = [], []
    for i in range(m):
        if spec.dephasing[i] > 0:
            # rate 2*gamma with the number operator, the diagonal of site i's
            # occupations, makes the 0-1 coherence decay as exp(-gamma t)
            states = np.flatnonzero(basis.occupations[:, i])
            jumps.append((2.0 * spec.dephasing[i],
                          (states, states, basis.occupations[states, i] + 0j)))
        if spec.relaxation is not None and spec.relaxation[i] > 0:
            jumps.append((spec.relaxation[i], basis.ladder(i)))
    if spec.sink_rate > 0:
        if explicit_sink:
            jumps.append((spec.sink_rate, basis.ladder(spec.exit_site, raised=m)))
        else:
            losses.append((spec.sink_rate, basis.ladder(spec.exit_site)))

    lindblad = LindbladSpec(basis.dims, tuple(map(np.concatenate, zip(*h))), jumps, losses)
    return NetworkModel(spec=spec, basis=basis, lindblad=lindblad,
                        sink_mode_index=m if explicit_sink else None)


def default_time_grid(spec: NetworkSpec, points: int) -> np.ndarray:
    """Grid spanning ten exchange periods of the largest coupling."""
    g_max = float(np.max(np.abs(spec.coupling_matrix)))
    if g_max == 0:
        raise ConfigError("network has no couplings; cannot set a time scale")
    t_final = 10.0 * np.pi / g_max
    if not math.isfinite(t_final):
        raise ConfigError(f"largest coupling {g_max!r} is too small to set a "
                          "finite time scale; give t_final")
    return np.linspace(0.0, t_final, points)


def amplitudes_and_grid(config: dict, spec: NetworkSpec):
    """The checked amplitude list and time grid of a transport config:
    ``alphas`` (default [0.2]) a non-empty list of finite numbers,
    ``time_points`` (default 201) an integer from 2 to
    ``MAX_TRAJECTORY_ENTRIES``, their product at most ``MAX_REPORT_POINTS``,
    and ``t_final`` a finite number > 0.  Without ``t_final`` the grid is the
    default one, with ``time_points`` points.  A grid whose
    points do not strictly increase, as a subnormal ``t_final`` gives, is a
    :class:`ConfigError`."""
    alphas = config.get("alphas", [0.2])
    if not (isinstance(alphas, list) and alphas and all(map(_finite_number, alphas))):
        raise ConfigError(f"alphas must be a non-empty list of finite numbers, "
                          f"got {alphas!r}")
    points = _integer(config.get("time_points", 201), "time_points")
    # each point holds at least one trajectory entry, so no longer grid can run
    if not 2 <= points <= MAX_TRAJECTORY_ENTRIES:
        raise ConfigError(f"time_points must be from 2 to {MAX_TRAJECTORY_ENTRIES}, "
                          f"got {points}")
    if (size := len(alphas) * points) > MAX_REPORT_POINTS:
        raise ConfigError(f"{len(alphas)} alphas at {points} time_points take {size} report "
                          f"points, above the limit of {MAX_REPORT_POINTS}")
    alphas = [float(a) for a in alphas]
    if "t_final" not in config:
        grid = default_time_grid(spec, points)
    else:
        t_final = config["t_final"]
        if not (_finite_number(t_final) and t_final > 0):
            raise ConfigError(f"t_final must be a finite number > 0, got {t_final!r}")
        grid = np.linspace(0.0, float(t_final), points)
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(f"{points} time points up to t_final = {grid[-1]!r} do not "
                          "increase strictly; give a larger t_final")
    return alphas, grid


_CONVERGENCE_TOL = 1e-6


def _stack_series(blocks, model: NetworkModel, pair=None):
    """One pass over the populations of a state series, the (states, stack)
    pairs of :func:`lindblad_propagate`: the captured population (sink
    occupation, or trace loss), the exit-site population, the weights of
    sectors 0 and 1, and rho[e_i, e_j] for ``pair`` = (i, j), by default
    (entry, exit), e_k the single excitation on mode k.  A loss-mode model
    without a loss term (sink rate 0) captures exactly 0: its trace moves
    only by rounding, which is no capture."""
    basis, spec = model.basis, model.spec
    e_i, e_j = (basis.index[tuple(int(k == site) for k in range(basis.n_modes))]
                for site in pair or (spec.entry_site, spec.exit_site))
    pops = np.zeros((len(blocks[0][1]), basis.dimension))  # 0 outside the classes
    coherence = np.zeros(len(pops), dtype=complex)
    for states, stack in blocks:
        pops[:, states] = np.einsum("tii->ti", stack).real
        if e_i in states and e_j in states:
            coherence = stack[:, np.searchsorted(states, e_i), np.searchsorted(states, e_j)]
    if model.sink_mode_index is not None:
        captured = pops @ basis.occupations[:, model.sink_mode_index]
    elif model.lindblad.trace_preserving:
        captured = np.zeros(len(pops))
    else:
        traces = pops.sum(axis=1)
        captured = traces[0] - traces
    return (captured, pops @ basis.occupations[:, spec.exit_site],
            *(pops[:, basis.sector_mask({n})].sum(axis=-1) for n in (0, 1)), coherence)


def efficiency_integrated(blocks, model: NetworkModel, normalized: bool = False) -> float:
    """Captured population at the end of the state series ``blocks``, the
    (states, stack) pairs of :func:`lindblad_propagate`.  ``normalized=True``
    divides by the initial mean excitation on the sites (0 for empty
    sites), making the value input-intensity independent."""
    value = float(_stack_series(blocks, model)[0][-1])
    sites = model.basis.occupations[:, :model.spec.n_sites].sum(1)
    n0 = float(sum(stack[0].diagonal().real @ sites[states] for states, stack in blocks))
    return value if not normalized else value / n0 if n0 > 0 else 0.0


def efficiency_peak(blocks, model: NetworkModel, times):
    """Peak exit-site population of the state series ``blocks`` over the
    grid ``times`` and the time it occurs."""
    exits = _stack_series(blocks, model)[1]
    k = int(np.argmax(exits))
    return float(exits[k]), float(times[k])


def _projected_concurrence(coherence: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """2|coherence| / weight, 0 where the weight is 0 or subnormal."""
    return np.divide(2.0 * np.abs(coherence), weight,
                     out=np.zeros_like(weight), where=weight >= np.finfo(float).tiny)


def pairwise_concurrence(blocks, model: NetworkModel,
                         site_i: int, site_j: int, sectors) -> np.ndarray:
    """Wootters concurrence of a site pair after projecting onto sectors, at
    each point of the state series ``blocks``, the (states, stack) pairs of
    :func:`lindblad_propagate`.  The projection retains the given total
    excitation numbers (all modes, sink included) and renormalizes;
    ``sectors`` must be {1} or {0, 1} and the sites must differ.  The
    projected pair state has no |11> component, so its concurrence is
    2|rho_(e_i, e_j)| over the projected weight, e_k the single excitation
    on mode k, and 0 where that weight is 0 or subnormal."""
    if set(sectors) not in ({1}, {0, 1}) or site_i == site_j:
        raise ValueError(f"pair concurrence needs two sites and sectors {{1}} "
                         f"or {{0, 1}}, got sites {site_i}, {site_j} and "
                         f"sectors {sorted(sectors)}")
    *_, ground, single, coherence = _stack_series(blocks, model, (site_i, site_j))
    return _projected_concurrence(coherence, single if 0 not in sectors else ground + single)


def unitary_state_series(spec: NetworkSpec, times) -> np.ndarray:
    """Entry-site single-excitation amplitudes of the closed network.

    Row k is u(t_k) = exp(-i h t_k) e_entry, where h, the couplings g with
    the site energies on the diagonal, is the single-excitation block of the
    Hamiltonian without dephasing, sink or relaxation.  The closed network
    maps a_entry^dag to sum_j u_j a_j^dag.
    """
    h = spec.coupling_matrix
    np.fill_diagonal(h, spec.energies)
    evals, evecs = np.linalg.eigh(h)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), evals))
    return (phases * evecs[spec.entry_site].conj()) @ evecs.T


@dataclass(frozen=True)
class EfficiencyReport:
    """Transport run summary: efficiencies, their robustness under
    truncation, and the projected entanglement series that is not robust."""

    alpha: float
    caps: tuple
    efficiency_full: float
    efficiency_restricted: float
    efficiency_cap1: float
    normalized_efficiency_full: float
    normalized_efficiency_restricted: float
    relative_difference: float
    residual_bound: float
    peak_population: float
    peak_time: float
    converged: bool
    times: tuple
    concurrence_p1: tuple
    concurrence_p01: tuple
    concurrence_p1_restricted: tuple
    concurrence_pair: tuple
    unitary_full_concurrence_max: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def truncation_robustness(spec: NetworkSpec, alphas,
                          t_grid) -> list[EfficiencyReport]:
    """Compare transport efficiency and projected entanglement across caps.

    One report per amplitude in ``alphas``, for the leveled coherent input
    |alpha_(K+1)> on the entry site at K = ``spec.excitation_cap``.  No
    generator term changes n_k - n_l of an entry rho[k, l] or raises the
    excitation number, and every report reads entries with n_k = n_l only.
    So the input reports as sum_n p_n |n><n|, with |n> the n excitations on
    the entry site and p_n = |alpha|^(2n)/n! / ``leveled_norm_sq(alpha, K+1)``,
    and the seed |n><n| runs on the cap-n model: seeds 1..K are the inputs,
    one per spec, of one :func:`lindblad_propagate` call for all amplitudes,
    and the vacuum is stationary.  One pass over each seed's populations
    reads its capture eta_n, exit population, sector-0 and sector-1 weights
    and rho[e_entry, e_exit]; each field is a p_n-weighted sum of these, then
    a ratio, abs or argmax.  Restricted to at most
    one excitation, the input is p_0 |0><0| + p_1 |1><1|: its capture
    ``efficiency_restricted`` (= ``efficiency_cap1``) is p_1 eta_1, and its
    normalized efficiency and projected concurrence are seed 1's (0 where p_1
    = 0).  ``relative_difference`` is sum_{n>=2} p_n eta_n / sum_n p_n eta_n,
    the capture of the weight that truncation drops: no difference is taken.
    The projected pair concurrence, 2|rho[e_entry, e_exit]| over the
    projected weight, and the closed system's full-state concurrence, which
    stays at the truncation level, are closed forms (see
    :func:`unitary_state_series`).  Raises
    :class:`ConfigError` before propagating when the seeds' trajectories, T
    d_n^2 complex entries each, would exceed ``MAX_TRAJECTORY_ENTRIES``.
    """
    cap = spec.excitation_cap
    if cap < 2:
        raise ConfigError("transport compares the cap-1 truncation with a "
                          "higher cap; excitation_cap must be at least 2")
    # top cap first: one above MAX_DIMENSION fails before a lower cap is built
    models = [build_network(spec, cap=n) for n in range(cap, 0, -1)]
    t_grid = np.asarray(t_grid, dtype=float)
    entries = len(t_grid) * sum(m.basis.dimension ** 2 for m in models)
    if entries > MAX_TRAJECTORY_ENTRIES:
        raise ConfigError(f"{len(t_grid)} time points at caps 1 to {cap} take {entries} "
                          f"trajectory entries, above the limit of {MAX_TRAJECTORY_ENTRIES}")
    # p_n, n = 0..cap; leveled_norm_sq raises first where the norm overflows
    weights = []
    for alpha in alphas:
        norm, x = leveled_norm_sq(alpha, cap + 1), abs(alpha) * abs(alpha)
        weights.append(np.cumprod([1.0] + [x / n for n in range(1, cap + 1)]) / norm)
    # seed n puts all n excitations of the cap-n model on the entry site
    seeds = [DensityMatrix(m.basis.dims, np.diag(m.basis.occupations[:, spec.entry_site]
                                                 == m.basis.cap) + 0j) for m in models]
    ascending = list(zip(lindblad_propagate([m.lindblad for m in models], seeds, t_grid),
                         models))[::-1]

    # row n - 1: seed n's capture, exit population, weights w0 and w1 of
    # sectors 0 and 1 and rho[e_entry, e_exit] over time; then its final
    # capture and the capture's growth over the last tenth of the grid
    pair = (spec.entry_site, spec.exit_site)
    captures, exits, w0s, w1s, coherences = map(np.array, zip(*(
        _stack_series(blocks, m) for blocks, m in ascending)))
    k = min(int(np.searchsorted(t_grid, 0.9 * t_grid[-1])), len(t_grid) - 2)
    capture, growth = captures[:, -1], captures[:, -1] - captures[:, k]
    restricted = tuple(map(float, _projected_concurrence(coherences[0], w1s[0])))

    # the evolved input is the two-mode exchange state with cos(gt) = |u_entry|
    u = unitary_state_series(spec, t_grid[:: max(1, len(t_grid) // 32)])
    u_entry = np.abs(u[:, spec.entry_site])
    u_rest = np.linalg.norm(np.delete(u, spec.entry_site, axis=1), axis=1)
    angles = np.arctan2(u_rest, u_entry)

    reports = []
    for alpha, p in zip(alphas, weights):
        def weigh(values, low=1):  # sum_{n >= low} p_n values_n, by einsum, not BLAS
            return np.einsum("n,n...->...", p[low:], values[low - 1:])

        eff_full, eff_lo = float(weigh(capture)), float(p[1] * capture[0])
        n0 = float(weigh(np.arange(1.0, cap + 1)))
        exit_t, w0, w1, coherence = map(weigh, (exits, w0s, w1s, coherences))
        k = int(np.argmax(exit_t))
        reports.append(EfficiencyReport(
            alpha=float(alpha),
            caps=(1, cap),
            efficiency_full=eff_full,
            efficiency_restricted=eff_lo,
            efficiency_cap1=eff_lo,
            normalized_efficiency_full=eff_full / n0 if n0 > 0 else 0.0,
            normalized_efficiency_restricted=float(capture[0]) if p[1] > 0 else 0.0,
            relative_difference=(abs(float(weigh(capture, 2))) / eff_full
                                 if eff_full > 0 else 0.0),
            residual_bound=2.0 * float(p[2:].sum()),
            peak_population=float(exit_t[k]),
            peak_time=float(t_grid[k]),
            converged=max(float(weigh(growth)), float(p[1] * growth[0])) <= _CONVERGENCE_TOL,
            times=tuple(float(t) for t in t_grid),
            concurrence_p1=tuple(map(float, _projected_concurrence(coherence, w1))),
            concurrence_p01=tuple(map(float, _projected_concurrence(coherence, p[0] + w0 + w1))),
            concurrence_p1_restricted=restricted if p[1] > 0 else (0.0,) * len(t_grid),
            concurrence_pair=pair,
            unitary_full_concurrence_max=float(np.max(
                _leveled_concurrence(alpha, cap + 1, angles))),
        ))
    return reports
