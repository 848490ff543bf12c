import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonsim import transport
from excitonsim.dynamics import exchange_unitary, lindblad_propagate
from excitonsim.entanglement import concurrence_pure, concurrence_wootters
from excitonsim.hilbert import EIG_TOL, TRACE_TOL, DensityMatrix, FockVector, ModeDims
from excitonsim.transport import (
    CappedBasis,
    ConfigError,
    NetworkSpec,
    build_network,
    captured_series,
    default_time_grid,
    efficiency_integrated,
    efficiency_peak,
    pairwise_concurrence,
    truncation_robustness,
    unitary_state_series,
)
from reference import (
    ExcitationProjector,
    annihilation,
    apply,
    coherent_truncated,
    dense,
    embed,
    expectation,
    fock,
    index,
    initial_state,
    leveled_coherent,
    number_operator,
    tensor,
    two_sector_route,
)


def dimer_spec(**overrides):
    kwargs = dict(
        energies=(0.0, 0.0),
        couplings=((0.0, 1.0), (1.0, 0.0)),
        dephasing=(0.0, 0.0),
        exit_site=1,
        sink_rate=1.0,
    )
    kwargs.update(overrides)
    return NetworkSpec(**kwargs)


def chain3_spec(**overrides):
    kwargs = dict(
        energies=(0.0, 0.0, 0.0),
        couplings=((0.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
        dephasing=(0.5, 0.5, 0.5),
        exit_site=2,
        sink_rate=1.0,
    )
    kwargs.update(overrides)
    return NetworkSpec(**kwargs)


# --- spec and basis -------------------------------------------------------------

def test_network_spec_validation():
    with pytest.raises(ConfigError):
        NetworkSpec(energies=(0.0, 0.0), couplings=((0, 1), (2, 0)),
                    dephasing=(0, 0), exit_site=1, sink_rate=1.0)
    with pytest.raises(ConfigError):
        dimer_spec(sink_rate=-1.0)
    with pytest.raises(ConfigError):
        dimer_spec(exit_site=5)
    with pytest.raises(ConfigError):
        dimer_spec(sink_mode="bogus")
    with pytest.raises(ConfigError):
        dimer_spec(entry_site=1)
    # NaN fails every comparison, so each check must be one NaN cannot pass
    nan = float("nan")
    for overrides in ({"sink_rate": nan}, {"sink_rate": float("inf")},
                      {"dephasing": (nan, 0.0)}, {"relaxation": (0.0, nan)},
                      {"energies": (nan, 0.0)},
                      {"couplings": ((0.0, nan), (nan, 0.0))}):
        with pytest.raises(ConfigError):
            dimer_spec(**overrides)


def test_network_spec_from_dict():
    spec = NetworkSpec.from_dict({
        "sites": 3,
        "couplings": [[0, 1, 1.0], [1, 2, 1.0]],
        "dephasing": 0.5,
        "exit_site": 2,
        "sink_rate": 1.0,
    })
    assert spec.n_sites == 3
    assert spec.coupling_matrix[0, 1] == 1.0
    assert spec.dephasing == (0.5, 0.5, 0.5)
    with pytest.raises(ConfigError):
        NetworkSpec.from_dict({"sites": 2})
    # a negative index would wrap around to the last site
    for pair in ([-1, 1], [0, 3]):
        with pytest.raises(ConfigError, match="out of range"):
            NetworkSpec.from_dict({"sites": 3, "couplings": [pair + [1.0]],
                                   "exit_site": 2})


def test_capped_basis_counting():
    # 3 sites + sink, single excitation: ground + 3 sites + sink
    basis = CappedBasis(4, 1)
    assert basis.dimension == 5
    model = build_network(chain3_spec(), cap=1)
    assert model.basis.dimension == 5
    # 7 sites, cap 1: ground + 7 + sink
    spec7 = NetworkSpec(
        energies=(0.0,) * 7,
        couplings=tuple(tuple(1.0 if abs(i - j) == 1 else 0.0 for j in range(7))
                        for i in range(7)),
        dephasing=(0.0,) * 7,
        exit_site=6,
        sink_rate=1.0,
    )
    model7 = build_network(spec7, cap=1)
    assert model7.basis.dimension == 9
    single_block = sum(1 for occ in model7.basis.states
                       if sum(occ) == 1 and occ[-1] == 0)
    assert single_block == 7


def test_build_network_bounds_dimension_before_building(monkeypatch):
    # d = 165, 7 sites with an explicit sink at cap 3, is within the bound
    spec7 = NetworkSpec(
        energies=(0.0,) * 7,
        couplings=tuple(tuple(1.0 if abs(i - j) == 1 else 0.0 for j in range(7))
                        for i in range(7)),
        dephasing=(0.0,) * 7,
        exit_site=6,
        sink_rate=1.0,
    )
    assert build_network(spec7, cap=3).basis.dimension == 165

    def never(*args, **kwargs):
        raise AssertionError("the oversized basis must not be built")

    # cap 20 on 3 sites and a sink spans C(24, 4) = 10626 states
    monkeypatch.setattr(transport, "CappedBasis", never)
    with pytest.raises(ConfigError, match="10626"):
        build_network(chain3_spec(excitation_cap=20))


def test_capped_basis_ladder():
    basis = CappedBasis(2, 2)
    a0 = dense(basis.ladder(0), basis.dimension)
    occ = basis.index[(2, 0)]
    target = basis.index[(1, 0)]
    assert a0[target, occ] == pytest.approx(np.sqrt(2))
    # a_i^dag a_j from the index map against the dense product of ladders
    basis = CappedBasis(3, 3)
    for i in range(3):
        for j in range(3):
            lower_i, lower_j = (dense(basis.ladder(k), basis.dimension) for k in (i, j))
            hop = dense(basis.ladder(j, raised=i), basis.dimension)
            assert np.max(np.abs(hop - lower_i.conj().T @ lower_j)) <= 1e-15


def test_capped_basis_matches_filtered_product():
    # the oracle: the full product of occupations filtered by the cap, which
    # keeps mode 0 as the slowest index
    for n_modes, cap in [(1, 1), (2, 3), (3, 1), (4, 4), (5, 2), (8, 3)]:
        oracle = [occ for occ in itertools.product(range(cap + 1), repeat=n_modes)
                  if sum(occ) <= cap]
        assert CappedBasis(n_modes, cap).states == oracle


def test_capped_basis_17_site_cap_2_regression(monkeypatch):
    # a 17-site chain with an explicit sink at cap 2 (18 modes, d = 190) is
    # within every bound, but filtering the 3^18 tuples of the full product
    # never finished; the basis must not visit them
    def never(*args, **kwargs):
        raise AssertionError("the capped basis must not filter the full product")

    monkeypatch.setattr(itertools, "product", never)
    monkeypatch.setattr(transport, "product", never, raising=False)
    config = {"sites": 17, "couplings": [[i, i + 1, 1.0] for i in range(16)],
              "dephasing": 0.5, "exit_site": 16, "sink_rate": 1.0, "excitation_cap": 2}
    basis = build_network(NetworkSpec.from_dict(config)).basis
    assert basis.dimension == 190
    assert basis.states[:3] == [(0,) * 18, (0,) * 17 + (1,), (0,) * 17 + (2,)]
    assert basis.states[-1] == (2,) + (0,) * 17


def test_dimer_reduces_to_exchange_model():
    # gamma = sink = 0: populations follow the closed two-mode exchange
    spec = dimer_spec(sink_rate=0.0)
    model = build_network(spec, cap=2)
    psi0 = initial_state(model, 0.3)
    t_grid = np.linspace(0.0, 3.0, 7)
    traj = lindblad_propagate(model.lindblad, psi0.to_density(), t_grid)

    dim = 3
    ref0 = tensor(coherent_truncated(0.3, dim, tail_tol=1.0), fock(dim, 0))
    n_b = embed(number_operator(dim), (dim, dim), 1)
    for t, state in zip(traj.times, traj.rho):
        n_exit = np.diag(model.basis.occupations[:, 1])
        measured = np.trace(n_exit @ state).real
        ref = expectation(
            n_b, apply(exchange_unitary((dim, dim), t), ref0).normalize()).real
        assert measured == pytest.approx(ref, abs=1e-7)


# --- efficiencies ----------------------------------------------------------------

def test_efficiency_zero_sink_rate():
    model = build_network(dimer_spec(sink_rate=0.0), cap=1)
    traj = lindblad_propagate(model.lindblad, initial_state(model, 0.3).to_density(),
                              np.linspace(0.0, 5.0, 11))
    assert efficiency_integrated(traj, model) == pytest.approx(0.0, abs=1e-12)


def test_efficiency_dimer_long_time_unity():
    model = build_network(dimer_spec(), cap=1)
    amps = np.zeros(model.basis.dimension, dtype=complex)
    amps[model.basis.index[(1, 0, 0)]] = 1.0
    rho0 = FockVector(model.basis.dims, amps).to_density()
    traj = lindblad_propagate(model.lindblad, rho0, np.linspace(0.0, 300.0, 61))
    eff = efficiency_integrated(traj, model)
    assert eff == pytest.approx(1.0, abs=1e-6)


def test_efficiency_convergence_flag():
    model = build_network(dimer_spec(), cap=1)
    amps = np.zeros(model.basis.dimension, dtype=complex)
    amps[model.basis.index[(1, 0, 0)]] = 1.0
    rho0 = FockVector(model.basis.dims, amps).to_density()
    short = lindblad_propagate(model.lindblad, rho0, np.linspace(0.0, 5.0, 11))
    # the capture still grows over the last tenth of the grid: not converged
    assert transport._efficiencies(short, model)[2] > transport._CONVERGENCE_TOL


def test_relaxation_strictly_decreases_efficiency():
    base = chain3_spec()
    lossy = chain3_spec(relaxation=(0.1, 0.1, 0.1))
    t_grid = np.linspace(0.0, 60.0, 61)
    effs = []
    for spec in (base, lossy):
        model = build_network(spec, cap=1)
        rho0 = initial_state(model, 0.2).to_density()
        traj = lindblad_propagate(model.lindblad, rho0, t_grid)
        # capture has levelled off over the last tenth of the grid
        assert transport._efficiencies(traj, model)[2] <= transport._CONVERGENCE_TOL
        effs.append(efficiency_integrated(traj, model))
    assert effs[1] < effs[0] - 1e-3


def test_peak_unitary_dimer():
    model = build_network(dimer_spec(sink_rate=0.0), cap=1)
    amps = np.zeros(model.basis.dimension, dtype=complex)
    amps[model.basis.index[(1, 0, 0)]] = 1.0
    t_grid = np.linspace(0.0, np.pi, 65)
    rho0 = FockVector(model.basis.dims, amps).to_density()
    traj = lindblad_propagate(model.lindblad, rho0, t_grid)
    peak, t_at = efficiency_peak(traj, model)
    assert peak == pytest.approx(1.0, abs=1e-6)
    assert t_at == pytest.approx(np.pi / 2, abs=np.pi / 64 + 1e-9)
    assert peak <= 1.0 + 1e-9


def test_peak_vacuum_input_zero():
    model = build_network(dimer_spec(sink_rate=0.0), cap=1)
    vac = np.zeros(model.basis.dimension, dtype=complex)
    vac[model.basis.index[(0, 0, 0)]] = 1.0
    rho0 = FockVector(model.basis.dims, vac).to_density()
    traj = lindblad_propagate(model.lindblad, rho0, np.linspace(0.0, 2.0, 9))
    peak, _ = efficiency_peak(traj, model)
    assert peak == pytest.approx(0.0, abs=1e-12)


def test_loss_mode_sink():
    spec = dimer_spec(sink_mode="loss")
    model = build_network(spec, cap=1)
    assert model.sink_mode_index is None
    psi0 = initial_state(model, 0.3)
    traj = lindblad_propagate(model.lindblad, psi0.to_density(),
                              np.linspace(0.0, 200.0, 41))
    captured = captured_series(traj, model)
    assert np.all(np.diff(captured) >= -1e-9)
    # all excited weight is eventually absorbed; the vacuum weight remains
    excited_weight = 1 - abs(psi0.amps[model.basis.index[(0, 0)]]) ** 2
    assert captured[-1] == pytest.approx(excited_weight, abs=1e-6)


# --- number-sector structure ------------------------------------------------------

def test_single_excitation_block_independent_of_higher_sector():
    # same single-excitation component, with and without a two-excitation
    # component on top: identical single-sector dynamics under dephasing
    spec = chain3_spec(sink_rate=0.0)
    model = build_network(spec, cap=2)
    t_grid = np.linspace(0.0, 6.0, 13)

    occ1 = tuple(1 if k == 0 else 0 for k in range(model.n_modes))
    occ2 = tuple(2 if k == 0 else 0 for k in range(model.n_modes))
    idx1, idx2 = model.basis.index[occ1], model.basis.index[occ2]

    amps_a = np.zeros(model.basis.dimension, dtype=complex)
    amps_a[idx1] = 1.0
    amps_b = np.zeros(model.basis.dimension, dtype=complex)
    amps_b[model.basis.index[(0,) * model.n_modes]] = 0.6
    amps_b[idx1] = 0.6
    amps_b[idx2] = np.sqrt(1 - 2 * 0.36)

    mask = model.basis.sector_mask({1})
    runs = []
    for amps in (amps_a, amps_b):
        psi = FockVector(model.basis.dims, amps)
        traj = lindblad_propagate(model.lindblad, psi.to_density(), t_grid)
        weight = abs(amps[idx1]) ** 2
        block = [st[np.ix_(mask, mask)] / weight for st in traj.rho]
        runs.append(block)
    for block_a, block_b in zip(*runs):
        assert np.max(np.abs(block_a - block_b)) <= 1e-8


def test_restricted_expectation_residual_is_two_excitation_weight():
    spec = chain3_spec()
    alpha = 0.2
    t_grid = np.linspace(0.0, 20 * np.pi, 81)
    report, = truncation_robustness(spec, [alpha], t_grid=t_grid)
    diff = abs(report.efficiency_full - report.efficiency_restricted)
    # the difference saturates at the bound when every quantum is captured
    assert diff <= report.residual_bound + 1e-6
    # the bound itself is O(alpha^4)
    assert report.residual_bound <= 2.1 * alpha ** 4


def two_excitation_bound(alpha, cap):
    """2 sum_{n >= 2} |c_n|^2 of the leveled coherent input."""
    return 2.0 * float(np.sum(np.abs(leveled_coherent(alpha, cap + 1).amps[2:]) ** 2))


@pytest.mark.parametrize("cap", [2, 3])
def test_residual_bound_is_the_two_excitation_weight_for_any_alpha(cap):
    # 2 * (1 - the restricted trace) cancels: -4.4e-16 at alpha = 1e-7 and
    # 0.0 below it, 1.00009e-12 against 9.99999e-13 at alpha = 1e-3
    alphas = (1e-9, 1e-7, 1e-3, 0.1)
    reports = truncation_robustness(chain3_spec(excitation_cap=cap), alphas,
                                    np.linspace(0.0, 6.0, 7))
    for alpha, report in zip(alphas, reports):
        exact = two_excitation_bound(alpha, cap)
        assert report.residual_bound >= 0.0
        assert abs(report.residual_bound - exact) <= 1e-12 * exact, alpha


def test_projection_dynamics_exchange_identity():
    # unitary dimer: <psi(t)|P1 T P1|psi(t)> equals T evaluated on the
    # propagated projected state
    dim = 4
    psi0 = tensor(coherent_truncated(0.35, dim, tail_tol=1.0), fock(dim, 0))
    t_op = embed(number_operator(dim), (dim, dim), 1).mat
    p1 = ExcitationProjector.single(psi0.dims).matrix().mat
    for gt in np.linspace(0.0, 2 * np.pi, 16):
        u = exchange_unitary((dim, dim), gt).mat
        evolved = u @ psi0.amps
        lhs = np.vdot(evolved, p1 @ t_op @ p1 @ evolved)
        projected_then_evolved = u @ (p1 @ psi0.amps)
        rhs = np.vdot(projected_then_evolved, t_op @ projected_then_evolved)
        assert abs(lhs - rhs) <= 1e-10


def test_efficiency_invariant_concurrence_not():
    # global phase and vacuum weight leave the normalized efficiency alone
    # but rescale the projected concurrence
    spec = chain3_spec()
    model = build_network(spec, cap=2)
    t_grid = np.linspace(0.0, 8.0, 33)

    psi = initial_state(model, 0.3)
    extra_vacuum = psi.amps.copy()
    extra_vacuum[model.basis.index[(0,) * model.n_modes]] *= 2.0
    extra_vacuum /= np.linalg.norm(extra_vacuum)
    variants = [
        psi,
        FockVector(model.basis.dims, np.exp(1j * 0.7) * psi.amps),
        FockVector(model.basis.dims, extra_vacuum),
    ]
    effs, concs = [], []
    for state in variants:
        traj = lindblad_propagate(model.lindblad, state.to_density(), t_grid)
        effs.append(efficiency_integrated(traj, model, normalized=True))
        concs.append(pairwise_concurrence(traj.rho, model.basis, 0, 2, {0, 1}).max())
    assert effs[1] == pytest.approx(effs[0], abs=1e-10)
    assert effs[2] == pytest.approx(effs[0], abs=1e-10)
    assert concs[1] == pytest.approx(concs[0], abs=1e-10)
    assert concs[2] < 0.6 * concs[0]


# --- the robustness experiment ----------------------------------------------------

@pytest.fixture(scope="module")
def robustness_reports():
    spec = chain3_spec()
    t_grid = np.linspace(0.0, 20 * np.pi, 161)
    alphas = (0.1, 0.2, 0.4)
    return dict(zip(alphas, truncation_robustness(spec, alphas, t_grid=t_grid)))


def test_robustness_alpha_sq_scaling(robustness_reports):
    ratios = [rep.relative_difference / alpha ** 2
              for alpha, rep in robustness_reports.items()]
    assert max(ratios) <= 2.0 * min(ratios)


def test_robustness_prefactor(robustness_reports):
    for alpha, rep in robustness_reports.items():
        ratio = max(rep.concurrence_p01) / max(rep.concurrence_p1)
        assert ratio == pytest.approx(alpha ** 2 / (1 + alpha ** 2), rel=1e-6)


def test_robustness_p1_series_insensitive_to_restriction(robustness_reports):
    # the single-excitation sector evolves independently, so the projected
    # series of the restricted run reproduces the full one
    for rep in robustness_reports.values():
        diffs = [abs(a - b) for a, b in
                 zip(rep.concurrence_p1, rep.concurrence_p1_restricted)]
        assert max(diffs) <= 1e-7


def test_robustness_zero_alpha():
    spec = chain3_spec()
    rep, = truncation_robustness(spec, [0.0], t_grid=np.linspace(0.0, 5.0, 11))
    assert rep.efficiency_full == pytest.approx(0.0, abs=1e-12)
    assert rep.efficiency_restricted == pytest.approx(0.0, abs=1e-12)
    assert rep.relative_difference == 0.0
    assert max(rep.concurrence_p1) == 0.0


def test_robustness_rejects_cap_one():
    with pytest.raises(ConfigError, match="excitation_cap"):
        truncation_robustness(chain3_spec(excitation_cap=1), [0.2],
                              np.linspace(0.0, 5.0, 11))


def test_robustness_bounds_trajectory_entries(monkeypatch):
    # the seeds at 5 time points on 5 (cap 1) and 15 (cap 2) states hold
    # 5 * (5^2 + 15^2) = 1250 complex trajectory entries, for any number of
    # amplitudes
    t_grid = np.linspace(0.0, 1.0, 5)
    monkeypatch.setattr(transport, "MAX_TRAJECTORY_ENTRIES", 1250)
    assert len(truncation_robustness(chain3_spec(), [0.1, 0.2], t_grid=t_grid)) == 2
    alphas = np.linspace(0.05, 1.0, 20)
    assert len(truncation_robustness(chain3_spec(), alphas, t_grid=t_grid)) == 20
    monkeypatch.setattr(transport, "MAX_TRAJECTORY_ENTRIES", 1249)
    with pytest.raises(ConfigError, match="1250 trajectory entries"):
        truncation_robustness(chain3_spec(), [0.1, 0.2], t_grid=t_grid)


@pytest.mark.parametrize("spec", [
    chain3_spec(),
    chain3_spec(sink_mode="loss", relaxation=(0.05, 0.1, 0.02)),
], ids=["explicit-sink", "loss-relaxing"])
def test_restricted_fields_are_the_same_bits_for_every_amplitude(spec):
    # the restricted input is p_0 |0><0| + p_1 |1><1|: its normalized
    # efficiency is seed 1's capture and its projected concurrence seed 1's
    # series, whatever the amplitude
    reports = truncation_robustness(spec, (1e-9, 0.1, 0.4, 1.0), np.linspace(0.0, 8.0, 17))
    first = reports[0]
    assert first.normalized_efficiency_restricted > 0.01
    assert max(first.concurrence_p1_restricted) > 0.01
    for report in reports[1:]:
        assert report.normalized_efficiency_restricted == first.normalized_efficiency_restricted
        assert report.concurrence_p1_restricted == first.concurrence_p1_restricted


@pytest.mark.parametrize("spec", [
    chain3_spec(),
    chain3_spec(sink_mode="loss", relaxation=(0.05, 0.1, 0.02)),
], ids=["explicit-sink", "loss-relaxing"])
def test_robustness_batches_amplitudes(spec, monkeypatch):
    # any number of amplitudes costs one cap-hi and one cap-1 build, one
    # propagation of both, and gives the reports of one-amplitude calls
    t_grid = np.linspace(0.0, 8.0, 17)
    alphas = (0.1, 0.25, 0.4)
    singles = [truncation_robustness(spec, [a], t_grid=t_grid)[0] for a in alphas]
    calls = []
    for name in ("build_network", "lindblad_propagate"):
        def spy(*args, _name=name, _original=getattr(transport, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(transport, name, spy)
    batched = truncation_robustness(spec, alphas, t_grid=t_grid)
    assert sorted(calls) == ["build_network"] * 2 + ["lindblad_propagate"]
    assert len(batched) == 3
    for one, many in zip(singles, batched):
        for key, value in one.to_dict().items():
            np.testing.assert_allclose(np.asarray(many.to_dict()[key], dtype=float),
                                       np.asarray(value, dtype=float),
                                       rtol=0, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("spec", [
    chain3_spec(),
    chain3_spec(sink_mode="loss", relaxation=(0.05, 0.1, 0.02)),
], ids=["explicit-sink", "loss-relaxing"])
def test_robustness_trajectories_exactly_hermitian(spec, monkeypatch):
    # the propagation runs on real Hermitian coordinates, so every state of
    # both caps is its own conjugate transpose to the last bit
    results = []

    def spy(*args, **kwargs):
        results.append(lindblad_propagate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(transport, "lindblad_propagate", spy)
    truncation_robustness(spec, [0.1, 0.3], t_grid=np.linspace(0.0, 8.0, 17))
    (full, restricted), = results
    for traj in full + restricted:
        assert np.array_equal(traj.rho, traj.rho.conj().swapaxes(-1, -2))


def test_robustness_report_fields(robustness_reports):
    rep = robustness_reports[0.2]
    assert 0.0 <= rep.efficiency_full <= 1.0
    assert 0.0 <= rep.efficiency_restricted <= 1.0
    assert 0.0 <= rep.normalized_efficiency_full <= 1.0 + 1e-9
    assert rep.efficiency_cap1 == pytest.approx(rep.efficiency_restricted, abs=1e-6)
    # closed-system full-state concurrence stays at the truncation level,
    # far below the projected series
    assert rep.unitary_full_concurrence_max <= 2 * 0.2 ** 3
    assert rep.unitary_full_concurrence_max <= 0.1 * max(rep.concurrence_p1)
    payload = rep.to_dict()
    assert payload["alpha"] == 0.2
    assert len(payload["times"]) == len(payload["concurrence_p1"])


def test_default_time_grid_scale():
    grid = default_time_grid(chain3_spec(), 201)
    assert len(grid) == 201
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(10 * np.pi)
    with pytest.raises(ConfigError):
        default_time_grid(NetworkSpec(
            energies=(0.0, 0.0), couplings=((0.0, 0.0), (0.0, 0.0)),
            dephasing=(0.0, 0.0), exit_site=1, sink_rate=0.0), 201)


def test_default_time_grid_rejects_infinite_end():
    with pytest.raises(ConfigError, match="t_final"):
        default_time_grid(dimer_spec(couplings=((0.0, 1e-320), (1e-320, 0.0))), 201)


# --- closed forms against the general-purpose routes ------------------------------

def pair_reduction_oracle(rho, basis, site_i, site_j, sectors):
    """Project onto the sectors, reduce to the site pair by summing over equal
    occupations of every other mode, renormalize, then apply Wootters."""
    mask = basis.sector_mask(sectors)
    mat = rho * np.outer(mask, mask)
    if np.trace(mat).real < np.finfo(float).tiny:
        return 0.0
    rest = [k for k in range(basis.n_modes) if k not in (site_i, site_j)]
    pair = np.zeros((4, 4), dtype=complex)
    for a, occ_a in enumerate(basis.states):
        for b, occ_b in enumerate(basis.states):
            if (max(occ_a[site_i], occ_a[site_j], occ_b[site_i], occ_b[site_j]) <= 1
                    and all(occ_a[k] == occ_b[k] for k in rest)):
                pair[2 * occ_a[site_i] + occ_a[site_j],
                     2 * occ_b[site_i] + occ_b[site_j]] += mat[a, b]
    pair = DensityMatrix(ModeDims((2, 2)), pair / np.trace(pair).real)
    return concurrence_wootters(pair).value


def full_concurrence_oracle(closed, alpha, entry, times):
    """Largest entry-vs-rest concurrence of expm(-iHt) applied to the input in
    the capped closed model, embedded into the (cap+1)^n tensor space."""
    psi0 = initial_state(closed, alpha).amps
    dims = ModeDims((closed.basis.cap + 1,) * closed.n_modes)
    best, h = 0.0, dense(closed.lindblad.hamiltonian, closed.basis.dimension)
    for t in times:
        amps = scipy.linalg.expm(-1j * h * t) @ psi0
        full = np.zeros(dims.total, dtype=complex)
        for k, occ in enumerate(closed.basis.states):
            full[index(dims, occ)] = amps[k]
        best = max(best, concurrence_pure(FockVector(dims, full), a_modes=(entry,)).value)
    return best


@st.composite
def networks(draw):
    """2-4 sites: a chain with complex couplings plus weak real long-range
    ones, nonzero energies, explicit or loss sink, relaxation on or off.
    The diagonal of g, which the network Hamiltonian ignores, is nonzero."""
    m = draw(st.integers(2, 4))
    rate = lambda hi: st.floats(0.0, hi)
    g = np.diag([draw(st.floats(-0.5, 0.5)) for _ in range(m)]).astype(complex)
    for i in range(m - 1):
        g[i, i + 1] = draw(st.floats(0.3, 1.5)) * np.exp(1j * draw(rate(2 * np.pi)))
        for j in range(i + 2, m):
            g[i, j] = draw(st.floats(-0.3, 0.3))
    entry, exit_site = draw(st.permutations(range(m)))[:2]
    relaxation = draw(st.none() | st.tuples(*[rate(0.3)] * m))
    return NetworkSpec(
        energies=tuple(draw(st.floats(-1.0, 1.0)) for _ in range(m)),
        couplings=tuple(map(tuple, g + g.conj().T)),
        dephasing=tuple(draw(rate(1.0)) for _ in range(m)),
        exit_site=exit_site,
        sink_rate=draw(rate(1.5)),
        entry_site=entry,
        excitation_cap=draw(st.integers(2, 3)),
        sink_mode=draw(st.sampled_from(["explicit", "loss"])),
        relaxation=relaxation,
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=networks(), alpha=st.floats(0.2, 1.0), t_final=st.floats(1.0, 8.0))
def test_closed_form_concurrences_match_general_routes(spec, alpha, t_final):
    t_grid = np.linspace(0.0, t_final, 9)
    cap = spec.excitation_cap
    report, = truncation_robustness(spec, [alpha], t_grid=t_grid)

    model = build_network(spec)
    rho0 = initial_state(model, alpha).to_density()
    mask01 = model.basis.sector_mask({0, 1})
    rho0_restricted = DensityMatrix(model.basis.dims,
                                    rho0.mat * np.outer(mask01, mask01),
                                    subnormalized=True)
    full = lindblad_propagate(model.lindblad, rho0, t_grid).rho
    restricted = lindblad_propagate(model.lindblad, rho0_restricted, t_grid)
    # the restricted numbers come from the cap-1 run; the masked input
    # propagated at the configured cap is their oracle
    expected_eff = [efficiency_integrated(restricted, model, normalized=flag)
                    for flag in (False, True)]
    np.testing.assert_allclose(
        [report.efficiency_restricted, report.normalized_efficiency_restricted],
        expected_eff, rtol=0, atol=1e-12)
    pair = (spec.entry_site, spec.exit_site)
    for series, states, sectors in ((report.concurrence_p1, full, {1}),
                                    (report.concurrence_p01, full, {0, 1}),
                                    (report.concurrence_p1_restricted, restricted.rho, {1})):
        expected = [pair_reduction_oracle(rho, model.basis, *pair, sectors)
                    for rho in states]
        np.testing.assert_allclose(series, expected, rtol=0, atol=1e-12)

    # the closed-system observables against the capped closed model
    closed = build_network(replace(spec, dephasing=(0.0,) * spec.n_sites,
                                   sink_rate=0.0, relaxation=None), cap=cap)
    singles = [closed.basis.index[tuple(int(k == j) for k in range(closed.n_modes))]
               for j in range(spec.n_sites)]
    entry = np.zeros(closed.basis.dimension, dtype=complex)
    entry[singles[spec.entry_site]] = 1.0
    h = dense(closed.lindblad.hamiltonian, closed.basis.dimension)
    expected_u = [(scipy.linalg.expm(-1j * h * t) @ entry)[singles] for t in t_grid]
    np.testing.assert_allclose(unitary_state_series(spec, t_grid), expected_u,
                               rtol=0, atol=1e-12)

    expected_max = full_concurrence_oracle(closed, alpha, spec.entry_site, t_grid)
    assert report.unitary_full_concurrence_max == pytest.approx(
        expected_max, rel=1e-12, abs=0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=networks(), alpha=st.floats(0.2, 1.0), n=st.integers(0, 3),
       t_final=st.floats(1.0, 8.0))
def test_propagator_properties(spec, alpha, n, t_final):
    # on the returned states: trace, smallest eigenvalue, no weight above the
    # top sector of a Fock input, and batched columns equal to single calls
    t_grid = np.linspace(0.0, t_final, 9)
    model = build_network(spec)
    basis = model.basis
    n = min(n, basis.cap)
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[basis.index[tuple(n * (k == spec.entry_site) for k in range(basis.n_modes))]] = 1.0
    inputs = [initial_state(model, alpha).to_density(),
              FockVector(basis.dims, amps).to_density()]
    batched = lindblad_propagate(model.lindblad, inputs, t_grid)
    for rho0, traj in zip(inputs, batched):
        single = lindblad_propagate(model.lindblad, rho0, t_grid)
        np.testing.assert_allclose(traj.rho, single.rho, rtol=0, atol=1e-13)
        traces = np.trace(traj.rho, axis1=1, axis2=2)
        assert np.abs(traces.imag).max() <= TRACE_TOL
        if spec.sink_mode == "explicit":
            np.testing.assert_allclose(traces.real, 1.0, rtol=0, atol=TRACE_TOL)
        else:
            assert np.all(np.diff(traces.real) <= TRACE_TOL)
            assert 0.0 <= traces.real.min() and traces.real.max() <= 1.0 + TRACE_TOL
        assert np.linalg.eigvalsh(traj.rho).min() >= -EIG_TOL
    above = basis.total_number > n
    fock_rho = batched[1].rho
    assert not fock_rho[:, above, :].any() and not fock_rho[:, :, above].any()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=networks(), alpha=st.floats(0.2, 1.0), t_final=st.floats(1.0, 8.0))
def test_propagated_states_are_exactly_hermitian(spec, alpha, t_final):
    # the scatter writes rho[j, i] as the conjugate of rho[i, j], so outputs
    # need no Hermiticity scan: every stack of a two-spec call equals its
    # conjugate transpose bit for bit
    models = build_network(spec), build_network(spec, cap=1)
    inputs = [[initial_state(model, alpha).to_density()] for model in models]
    for (traj,) in lindblad_propagate([model.lindblad for model in models], inputs,
                                      np.linspace(0.0, t_final, 9)):
        assert np.array_equal(traj.rho, traj.rho.conj().transpose(0, 2, 1))


def full_space_ladder(basis, lowered, raised=None):
    """a_lowered, or a_raised^dag a_lowered, on the full (cap + 1)^n tensor
    space, restricted to the capped basis.  It is built from ``embed`` and
    ``annihilation`` on the tensor space of the modes it touches; every
    other mode takes the identity, so an entry between two capped states is
    the operator's entry between their occupations of those modes where
    their other occupations agree, and 0 where they differ."""
    modes = [lowered] if raised in (None, lowered) else [raised, lowered]
    dims = ModeDims((basis.cap + 1,) * len(modes))
    a = [embed(annihilation(basis.cap + 1), dims, k).mat for k in range(len(modes))]
    operator = a[0] if raised is None else a[0].conj().T @ a[-1]
    sub = np.ravel_multi_index(basis.occupations[:, modes].T, dims.dims)
    rest = np.delete(basis.occupations, modes, axis=1)
    return operator[np.ix_(sub, sub)] * (rest[:, None] == rest).all(axis=2)


def assert_terms_match_full_space(spec):
    # every ladder of the basis, and the model's Hamiltonian, jumps and
    # losses, densified from their triplets, against full-space products
    model = build_network(spec)
    basis, d, m = model.basis, model.basis.dimension, spec.n_sites
    for j, i in itertools.product(range(basis.n_modes), repeat=2):
        raised = None if i == j else i
        np.testing.assert_allclose(dense(basis.ladder(j, raised=raised), d),
                                   full_space_ladder(basis, j, raised), rtol=0, atol=1e-15)
    ladder = functools.partial(full_space_ladder, basis)
    g = spec.coupling_matrix
    h = sum(e * ladder(i, i) for i, e in enumerate(spec.energies))
    for i, j in itertools.combinations(range(m), 2):
        h = h + g[i, j] * ladder(j, i) + np.conj(g[i, j]) * ladder(i, j)
    jumps, losses = [], []
    for i in range(m):
        if spec.dephasing[i] > 0:
            jumps.append((2.0 * spec.dephasing[i], ladder(i, i)))
        if spec.relaxation is not None and spec.relaxation[i] > 0:
            jumps.append((spec.relaxation[i], ladder(i)))
    if spec.sink_rate > 0 and spec.sink_mode == "explicit":
        jumps.append((spec.sink_rate, ladder(spec.exit_site, m)))
    elif spec.sink_rate > 0:
        losses.append((spec.sink_rate, ladder(spec.exit_site)))
    lindblad = model.lindblad
    np.testing.assert_allclose(dense(lindblad.hamiltonian, d), h, rtol=0, atol=1e-14)
    for built, oracle in ((lindblad.jumps, jumps), (lindblad.losses, losses)):
        assert [rate for rate, _ in built] == [rate for rate, _ in oracle]
        for (_, op), (_, want) in zip(built, oracle):
            np.testing.assert_allclose(dense(op, d), want, rtol=0, atol=1e-15)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=networks())
def test_network_terms_match_full_space_products(spec):
    assert_terms_match_full_space(spec)


def test_network_terms_match_full_space_products_at_d190():
    # 17 sites in a chain with an explicit sink at cap 2: 18 modes, 190 states
    spec = NetworkSpec.from_dict({
        "sites": 17, "couplings": [[k, k + 1, 1.0 - 0.02 * k] for k in range(16)],
        "energies": [0.1 * (k % 3) for k in range(17)], "dephasing": 0.4,
        "relaxation": 0.05, "exit_site": 16, "sink_rate": 1.0, "excitation_cap": 2})
    assert build_network(spec).basis.dimension == 190
    assert_terms_match_full_space(spec)


# --- relations between runs ------------------------------------------------------

def assert_same_reports(got, want, **moved):
    """Every field of the reports ``got`` equals the one of ``want``, or the
    value given in ``moved``, floats within 1e-12.  ``relative_difference``
    is |e_full - e_restricted| / e_full, and a tiny sink rate makes e_full
    tiny, so it is compared times e_full: as that difference of captured
    populations."""
    for one, other in zip(got, want, strict=True):
        one, other = one.to_dict(), {**other.to_dict(), **moved}
        assert one.keys() == other.keys()
        for report in one, other:
            report["relative_difference"] *= report["efficiency_full"]
        for key, value in other.items():
            if isinstance(value, float) or key in ("times", "concurrence_p1",
                                                   "concurrence_p01",
                                                   "concurrence_p1_restricted"):
                np.testing.assert_allclose(one[key], value, rtol=0, atol=1e-12,
                                           err_msg=key)
            else:
                assert one[key] == value, key


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=networks(), order=st.permutations(range(4)), alpha=st.floats(0.2, 1.0),
       t_final=st.floats(1.0, 8.0))
def test_site_relabeling_moves_no_report_field(spec, order, alpha, t_final):
    # renaming site k to order[k], entry and exit included, reorders the
    # capped basis and every coordinate of the Liouvillian, and no field
    # moves but the pair's labels
    order = [k for k in order if k < spec.n_sites]
    inverse = np.argsort(order)

    def renamed(values):
        return values and tuple(values[k] for k in inverse)

    relabeled = replace(
        spec, energies=renamed(spec.energies), dephasing=renamed(spec.dephasing),
        relaxation=renamed(spec.relaxation),
        couplings=tuple(map(tuple, spec.coupling_matrix[np.ix_(inverse, inverse)])),
        entry_site=order[spec.entry_site], exit_site=order[spec.exit_site])
    t_grid = np.linspace(0.0, t_final, 9)
    assert_same_reports(truncation_robustness(relabeled, [alpha], t_grid),
                        truncation_robustness(spec, [alpha], t_grid),
                        concurrence_pair=(order[spec.entry_site], order[spec.exit_site]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=networks(), alpha=st.floats(0.2, 1.0), t_final=st.floats(1.0, 8.0))
def test_time_and_rate_rescaling_moves_no_report_field(spec, alpha, t_final):
    # energies, couplings and rates times s on a grid divided by s give the
    # same states at the same grid points; s is not a power of two, so the
    # scaled numbers are not exact copies
    s = 1.7

    def scaled(values):
        return values and tuple(s * v for v in values)

    fast = replace(spec, energies=scaled(spec.energies), dephasing=scaled(spec.dephasing),
                   relaxation=scaled(spec.relaxation), sink_rate=s * spec.sink_rate,
                   couplings=tuple(map(scaled, spec.couplings)))
    t_grid = np.linspace(0.0, t_final, 9)
    report, = truncation_robustness(spec, [alpha], t_grid)
    assert_same_reports(truncation_robustness(fast, [alpha], t_grid / s), [report],
                        times=tuple(t / s for t in report.times),
                        peak_time=report.peak_time / s)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=networks(), energy=st.floats(-1.0, 1.0), alpha=st.floats(0.2, 1.0),
       t_final=st.floats(1.0, 8.0))
def test_detached_site_moves_no_report_field(spec, energy, alpha, t_final):
    # a site with no couplings, no dephasing and no relaxation, appended
    # after the others (before an explicit sink): the capped space grows,
    # but the input never occupies the new site and nothing feeds it
    m = spec.n_sites
    g = np.zeros((m + 1, m + 1), dtype=complex)
    g[:m, :m] = spec.coupling_matrix
    detached = replace(
        spec, energies=spec.energies + (energy,), dephasing=spec.dephasing + (0.0,),
        relaxation=spec.relaxation and spec.relaxation + (0.0,),
        couplings=tuple(map(tuple, g)))
    assert build_network(detached).basis.dimension > build_network(spec).basis.dimension
    t_grid = np.linspace(0.0, t_final, 9)
    assert_same_reports(truncation_robustness(detached, [alpha], t_grid),
                        truncation_robustness(spec, [alpha], t_grid))


@pytest.mark.parametrize("sink_mode,relaxation,cap", itertools.product(
    ("explicit", "loss"), (None, (0.1, 0.05, 0.2)), (2, 3)))
def test_number_dephased_input_transports_alike(sink_mode, relaxation, cap):
    # every generator term maps the coordinates of rho[k, l] with a given
    # n_k - n_l to themselves, so zeroing the input's coherences between
    # excitation sectors leaves the sector-diagonal blocks alone: the same
    # efficiencies and projected concurrences without the coherence.  In one
    # call both inputs are columns of one block, and the rows of those
    # blocks read only their own sector's columns, so the bits are the same
    spec = chain3_spec(sink_mode=sink_mode, relaxation=relaxation, excitation_cap=cap,
                       energies=(0.1, -0.2, 0.05))
    model = build_network(spec)
    rho0 = initial_state(model, 0.6).to_density()
    n = model.basis.total_number
    dephased = DensityMatrix(model.basis.dims, rho0.mat * (n[:, None] == n))
    assert np.abs(rho0.mat[n[:, None] != n]).max() > 0.1
    coherent, mixed = lindblad_propagate(model.lindblad, [rho0, dephased],
                                         np.linspace(0.0, 6.0, 13))
    for efficiency in efficiency_integrated, efficiency_peak:
        assert efficiency(coherent, model) == efficiency(mixed, model)
    assert efficiency_integrated(coherent, model, normalized=True) == \
        efficiency_integrated(mixed, model, normalized=True)
    for sectors in ({1}, {0, 1}):
        series = [pairwise_concurrence(traj.rho, model.basis, 0, 2, sectors)
                  for traj in (coherent, mixed)]
        assert series[0].max() > 0.01
        assert np.array_equal(*series)


def fmo_like_spec():
    """7 sites: a chain with two weak long-range couplings, explicit sink on
    the last site, cap 2 (d = 45), like the benchmark's fmo7 networks."""
    g = np.zeros((7, 7))
    for i, strength in enumerate((1.1, 0.9, 1.0, 1.2, 0.85, 1.05)):
        g[i, i + 1] = g[i + 1, i] = strength
    g[0, 3] = g[3, 0] = 0.1
    g[2, 5] = g[5, 2] = 0.07
    return NetworkSpec(energies=(0.2, -0.1, 0.05, -0.25, 0.15, 0.0, -0.05),
                       couplings=tuple(map(tuple, g)), dephasing=(0.5,) * 7,
                       exit_site=6, sink_rate=1.0)


def as_captures(report: dict, alpha: float, cap: int) -> dict:
    """``report`` with its three ratio fields times the numbers they divide:
    ``normalized_efficiency_full`` times the input's mean excitation,
    ``normalized_efficiency_restricted`` times its one-excitation weight p_1,
    and ``relative_difference`` times ``efficiency_full``."""
    p = np.abs(leveled_coherent(alpha, cap + 1).amps) ** 2
    return {**report,
            "normalized_efficiency_full": report["normalized_efficiency_full"]
            * float(p @ np.arange(cap + 1)),
            "normalized_efficiency_restricted": report["normalized_efficiency_restricted"] * p[1],
            "relative_difference": report["relative_difference"] * report["efficiency_full"]}


def assert_route_fields(reports, routes, cap, atol):
    """Each report's fields equal the two-sector route's, the ratio fields as
    captures, floats within ``atol``."""
    for report, fields in zip(reports, routes, strict=True):
        got = as_captures(report.to_dict(), report.alpha, cap)
        want = as_captures({**report.to_dict(), **fields}, report.alpha, cap)
        for key, value in got.items():
            if key == "converged":
                assert value == want[key]
            else:
                np.testing.assert_allclose(value, want[key], rtol=0, atol=atol, err_msg=key)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=networks(), alpha=st.floats(0.2, 1.0), t_final=st.floats(1.0, 8.0))
def test_seeds_match_the_two_sector_route(spec, alpha, t_final):
    # the seeds' weighted sums against the number-dephased input at the cap
    # and its projection at cap 1, each propagated
    alphas, t_grid = (alpha, alpha / 4), np.linspace(0.0, t_final, 9)
    assert_route_fields(truncation_robustness(spec, alphas, t_grid),
                        two_sector_route(spec, alphas, t_grid), spec.excitation_cap, 1e-12)


@pytest.mark.parametrize("spec", [
    *(chain3_spec(sink_mode=sink_mode, relaxation=relaxation, excitation_cap=cap,
                  energies=(0.1, -0.2, 0.05))
      for sink_mode, relaxation, cap in itertools.product(
          ("explicit", "loss"), (None, (0.1, 0.05, 0.2)), (2, 3))),
    fmo_like_spec(),
])
def test_robustness_reports_the_coherent_inputs(spec):
    # the reports come from Fock-sector seeds; the coherent inputs and their
    # cap-1 restrictions, propagated, give the same fields through the same
    # observables
    alphas, t_grid = (0.3, 0.6), np.linspace(0.0, 6.0, 25)
    model = build_network(spec)
    n = model.basis.total_number
    for alpha in alphas:
        assert np.abs(initial_state(model, alpha).to_density().mat[n[:, None] != n]).max() > 0.01
    assert_route_fields(truncation_robustness(spec, alphas, t_grid),
                        two_sector_route(spec, alphas, t_grid, dephased=False),
                        spec.excitation_cap, 1e-14)


def test_pairwise_concurrence_rejects_other_sectors_and_one_site():
    model = build_network(chain3_spec(), cap=2)
    rho = initial_state(model, 0.3).to_density().mat
    for sectors in ({0}, {2}, {1, 2}, {0, 1, 2}):
        with pytest.raises(ValueError):
            pairwise_concurrence(rho, model.basis, 0, 2, sectors)
    with pytest.raises(ValueError):
        pairwise_concurrence(rho, model.basis, 1, 1, {1})
