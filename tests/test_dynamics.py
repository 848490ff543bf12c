import itertools

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonsim.dynamics import (
    ConvergenceError,
    LindbladSpec,
    exchange_unitary,
    lindblad_propagate,
)
from excitonsim.entanglement import concurrence_pure, concurrence_wootters
from excitonsim.hilbert import DensityMatrix, DimensionError, FockVector, ModeDims, ModeOperator
from reference import (
    annihilation,
    apply,
    basis_state,
    class_slots,
    closure,
    coherent_truncated,
    dag,
    dense,
    dense_propagate,
    decohered_dimer_state,
    expm_oracle,
    fock,
    folded_liouvillian,
    identity,
    initial_state,
    kron_liouvillian,
    leveled_coherent,
    lindblad_spec,
    liouvillian_matrix,
    number_operator,
    overlap,
    real_csr,
    scanning_taylor_piece,
    tensor,
    total_number,
    triplet,
)


def hop_generator(da, db):
    """a b^dag + a^dag b on the truncated (da, db) space."""
    a_full = tensor(annihilation(da), identity(db)).mat
    b_full = tensor(identity(da), annihilation(db)).mat
    return a_full @ b_full.conj().T + a_full.conj().T @ b_full


# --- exchange unitary -------------------------------------------------------

def test_exchange_identity_at_zero():
    u = exchange_unitary((4, 4), 0.0)
    assert np.allclose(u.mat, np.eye(16), atol=1e-14)


def test_exchange_beam_splitter_bell():
    u = exchange_unitary((2, 2), np.pi / 4)
    out = apply(u, basis_state((2, 2), (1, 0)))
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1 / np.sqrt(2)
    expected[1] = 1j / np.sqrt(2)
    assert np.allclose(out.amps, expected, atol=1e-12)


def test_exchange_coherent_stays_product():
    alpha, dim = 0.3, 10
    psi0 = tensor(coherent_truncated(alpha, dim), fock(dim, 0))
    for gt in (0.3, np.pi / 4, 1.9):
        evolved = apply(exchange_unitary((dim, dim), gt), psi0).normalize()
        target = tensor(leveled_coherent(alpha * np.cos(gt), dim),
                        leveled_coherent(1j * alpha * np.sin(gt), dim))
        fidelity = abs(overlap(evolved, target)) ** 2
        assert fidelity >= 1 - 10 * 1e-12


def test_exchange_unitarity():
    for dims, gt in (((2, 2), 0.7), ((5, 3), 2.1), ((6, 6), np.pi / 3)):
        u = exchange_unitary(dims, gt)
        defect = np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(u.dims.total)))
        assert defect <= 1e-10


def test_exchange_conserves_total_number():
    u = exchange_unitary((4, 5), 1.3)
    n_tot = np.diag(total_number(ModeDims((4, 5))))
    comm = u.mat @ n_tot - n_tot @ u.mat
    assert np.max(np.abs(comm)) <= 1e-12


def test_exchange_heisenberg_identity():
    # U a^dag U^dag = cos a^dag + i sin b^dag on the untruncated sectors
    d, gt = 6, 0.8
    u = exchange_unitary((d, d), gt).mat
    a_dag = tensor(annihilation(d), identity(d)).mat.conj().T
    b_dag = tensor(identity(d), annihilation(d)).mat.conj().T
    lhs = u @ a_dag @ u.conj().T
    rhs = np.cos(gt) * a_dag + 1j * np.sin(gt) * b_dag
    mask = total_number(ModeDims((d, d))) <= d - 2
    proj = np.diag(mask.astype(float))
    assert np.max(np.abs(proj @ (lhs - rhs) @ proj)) <= 1e-12


def test_exchange_matches_expm_oracle():
    da, db = 6, 6
    gen = hop_generator(da, db)
    for gt in np.linspace(0, 2 * np.pi, 20):
        u_block = exchange_unitary((da, db), gt).mat
        u_dense = expm_oracle(ModeOperator((da * db,), 1j * gt * gen)).mat
        assert np.max(np.abs(u_block - u_dense)) <= 1e-10


# --- expm oracle ------------------------------------------------------------

def test_expm_zero():
    op = ModeOperator((3,), np.zeros((3, 3)))
    assert np.allclose(expm_oracle(op).mat, np.eye(3), atol=1e-15)


def test_expm_diagonal_phases():
    phases = np.array([0.3, -1.2, 2.7])
    op = ModeOperator((3,), np.diag(1j * phases))
    assert np.allclose(expm_oracle(op).mat, np.diag(np.exp(1j * phases)), atol=1e-14)


def test_expm_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        ours = expm_oracle(ModeOperator((8,), mat), scale=0.7).mat
        ref = scipy.linalg.expm(0.7 * mat)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_expm_rejects_nonfinite():
    mat = np.array([[np.inf, 0], [0, 0]])
    with pytest.raises(ValueError):
        expm_oracle(ModeOperator((2,), mat))


# --- decohered dimer state ---------------------------------------------------

def test_decohered_dimer_vacuum_limit():
    rho = decohered_dimer_state(0.0, 1.1)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho.mat, expected, atol=1e-15)


def test_decohered_dimer_trace_one():
    for alpha in (0.0, 0.3, 0.9):
        for gt in (0.0, 0.7, np.pi):
            assert decohered_dimer_state(alpha, gt).trace() == pytest.approx(1.0, abs=1e-12)


def test_decohered_dimer_wootters_value():
    c = concurrence_wootters(decohered_dimer_state(0.3, np.pi / 4)).value
    assert c == pytest.approx(0.09 / 1.09, abs=1e-12)


# --- Lindblad propagation ----------------------------------------------------

def dimer_exchange_spec(dim=2, g=1.0):
    hop = tensor(dag(annihilation(dim)), annihilation(dim)).mat
    h = g * (hop + hop.conj().T)
    return lindblad_spec(ModeOperator((dim, dim), h, hermitian=True))


def test_lindblad_unitary_dimer_populations():
    spec = dimer_exchange_spec()
    rho0 = basis_state((2, 2), (1, 0)).to_density()
    t_grid = np.linspace(0.0, 3.0, 13)
    (rho,) = dense_propagate([spec], [rho0], t_grid)
    for t, state in zip(t_grid, rho):
        assert state[2, 2].real == pytest.approx(np.cos(t) ** 2, abs=1e-8)
        assert state[1, 1].real == pytest.approx(np.sin(t) ** 2, abs=1e-8)


def test_lindblad_dephasing_coherence_decay():
    gamma = 0.7
    spec = lindblad_spec(
        ModeOperator((2,), np.zeros((2, 2)), hermitian=True),
        jumps=((2 * gamma, number_operator(2)),),
    )
    plus = FockVector((2,), np.array([1, 1]) / np.sqrt(2))
    t_grid = np.linspace(0.0, 2.0, 9)
    (rho,) = dense_propagate([spec], [plus.to_density()], t_grid)
    for t, state in zip(t_grid, rho):
        assert state[0, 1].real == pytest.approx(0.5 * np.exp(-gamma * t), abs=1e-8)
        assert state[0, 0].real == pytest.approx(0.5, abs=1e-9)


def test_lindblad_sink_captures_everything():
    # dimer + explicit sink mode fed from mode B
    from excitonsim.transport import NetworkSpec, build_network

    spec = NetworkSpec(energies=(0.0, 0.0), couplings=((0, 1.0), (1.0, 0)),
                       dephasing=(0.0, 0.0), exit_site=1, sink_rate=1.0,
                       excitation_cap=1)
    model = build_network(spec)
    amps = np.zeros(model.basis.dimension, dtype=complex)
    amps[model.basis.index[(1, 0, 0)]] = 1.0
    rho0 = FockVector(model.basis.dims, amps).to_density()
    (rho,) = dense_propagate([model.lindblad], [rho0], np.linspace(0.0, 300.0, 31))
    n_sink = np.diag(model.basis.occupations[:, 2])
    captured = np.trace(n_sink @ rho[-1]).real
    assert captured == pytest.approx(1.0, abs=1e-6)


def test_lindblad_loss_mode_trace_decreases():
    spec = lindblad_spec(
        ModeOperator((2,), np.zeros((2, 2)), hermitian=True),
        losses=((0.8, annihilation(2)),),
    )
    rho0 = fock(2, 1).to_density()
    (rho,) = dense_propagate([spec], [rho0], np.linspace(0.0, 4.0, 9))
    traces = np.trace(rho, axis1=1, axis2=2).real
    assert all(b <= a + 1e-10 for a, b in zip(traces, traces[1:]))
    assert traces[-1] == pytest.approx(np.exp(-0.8 * 4.0), abs=1e-7)


def gksl_rhs(spec):
    """Right-hand side in commutator/anticommutator form, on flattened rho:
    -i[H, rho] + sum over jumps of c rho c^dag, minus {c^dag c, rho}/2 for
    every jump and loss term."""
    d = spec.dims.total
    h = dense(spec.hamiltonian, d)
    jumps = [np.sqrt(rate) * dense(op, d) for rate, op in spec.jumps]
    losses = [np.sqrt(rate) * dense(op, d) for rate, op in spec.losses]

    def rhs(_t, y):
        rho = y.reshape(d, d)
        drho = -1j * (h @ rho - rho @ h)
        for c in jumps:
            drho += c @ rho @ c.conj().T
        for c in jumps + losses:
            cdc = c.conj().T @ c
            drho -= 0.5 * (cdc @ rho + rho @ cdc)
        return drho.ravel()

    return rhs


def ode_oracle(spec, rho0, t_grid):
    """Reference states from an adaptive ODE integration at tight tolerances."""
    d = rho0.dims.total
    sol = scipy.integrate.solve_ivp(
        gksl_rhs(spec), (t_grid[0], t_grid[-1]), rho0.mat.astype(complex).ravel(),
        t_eval=t_grid, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success
    return [sol.y[:, k].reshape(d, d) for k in range(len(t_grid))]


def mixed(dims):
    """The maximally mixed state on ``dims``."""
    d = dims.total
    return DensityMatrix(dims, np.eye(d) / d)


def oracle_systems():
    """(spec, rho0, t_grid) for a dephased dimer, an explicit-sink trimer and
    a loss-mode trimer with relaxation (block-triangular generator)."""
    from excitonsim.transport import NetworkSpec, build_network

    exchange = dimer_exchange_spec()
    dimer = LindbladSpec(exchange.dims, exchange.hamiltonian,
                         jumps=((0.6, triplet(tensor(number_operator(2), identity(2)))),))
    systems = [(dimer, basis_state((2, 2), (1, 0)).to_density(),
                np.linspace(0.0, 2.0, 5))]
    chain = dict(energies=(0.1, -0.1, 0.0),
                 couplings=((0.0, 1.0, 0.0), (1.0, 0.0, 0.9), (0.0, 0.9, 0.0)),
                 dephasing=(0.5, 0.4, 0.5), exit_site=2, sink_rate=1.0)
    for extra in ({}, {"sink_mode": "loss", "relaxation": (0.1, 0.05, 0.1)}):
        model = build_network(NetworkSpec(**chain, **extra), cap=2)
        systems.append((model.lindblad, initial_state(model, 0.4).to_density(),
                        np.linspace(0.0, 6.0, 13)))
    return systems


def test_lindblad_matches_ode_oracle():
    for spec, rho0, t_grid in oracle_systems():
        (rho,) = dense_propagate([spec], [rho0], t_grid)
        for state, ref in zip(rho, ode_oracle(spec, rho0, t_grid)):
            assert np.max(np.abs(state - ref)) <= 1e-10


def test_lindblad_matches_liouvillian_expm():
    for spec, rho0, t_grid in oracle_systems():
        liou = liouvillian_matrix(spec)
        d = rho0.dims.total
        for t, ref in zip(t_grid, ode_oracle(spec, rho0, t_grid)):
            state = (scipy.linalg.expm(liou * t) @ rho0.mat.ravel()).reshape(d, d)
            assert np.max(np.abs(state - ref)) <= 1e-10


def test_lindblad_long_step_deterministic():
    # one long step split into many Taylor pieces: the propagator uses the
    # exact 1-norm and no randomized estimator, so the state must not depend
    # on the np.random state
    spec, rho0, _ = oracle_systems()[1]
    saved = np.random.get_state()
    try:
        runs = []
        for seed in range(4):
            np.random.seed(seed)
            runs.append(dense_propagate([spec], [rho0], [0.0, 100.0])[0][-1])
    finally:
        np.random.set_state(saved)
    assert all(np.array_equal(runs[0], run) for run in runs[1:])


def test_lindblad_mixed_steps_match_oracles():
    # short intervals that one expansion covers together, next to long ones
    # that it splits into pieces, must stay exact too
    for spec, rho0, _ in oracle_systems():
        grid = [0.0, 0.05, 0.1, 3.0, 3.01, 6.0]
        (rho,) = dense_propagate([spec], [rho0], grid)
        for state, ref in zip(rho, ode_oracle(spec, rho0, grid)):
            assert np.max(np.abs(state - ref)) <= 1e-10
        liou = liouvillian_matrix(spec)
        d = rho0.dims.total
        (rho,) = dense_propagate([spec], [rho0], [0.0, 0.01, 40.0])
        for t, state in zip([0.0, 0.01, 40.0], rho):
            ref = (scipy.linalg.expm(liou * t) @ rho0.mat.ravel()).reshape(d, d)
            assert np.max(np.abs(state - ref)) <= 1e-10
        (single,) = dense_propagate([spec], [rho0], [0.0])
        assert len(single) == 1
        assert np.array_equal(single[0], rho0.mat)


def test_lindblad_spec_twice_matches_ode_oracle():
    # a normalized input and its subnormalized projection onto at most one
    # excitation, each the input of one spec passed twice in one call; each
    # stack is checked on its own against the ODE oracle
    from excitonsim.transport import CappedBasis

    numbers = (total_number(ModeDims((2, 2))), CappedBasis(4, 2).total_number,
               CappedBasis(3, 2).total_number)
    for (spec, rho0, t_grid), number in zip(oracle_systems(), numbers):
        if rho0.dims == ModeDims((2, 2)):
            # |10> has nothing above one excitation to project away
            rho0 = FockVector((2, 2), np.full(4, 0.5)).to_density()
        assert len(number) == rho0.dims.total
        keep = number <= 1
        restricted = DensityMatrix(rho0.dims, rho0.mat * np.outer(keep, keep),
                                   subnormalized=True)
        assert restricted.trace() < 0.99
        stacks = dense_propagate([spec, spec], [rho0, restricted], t_grid)
        assert len(stacks) == 2
        traces = [np.trace(stack, axis1=1, axis2=2).real for stack in stacks]
        assert traces[1].max() <= restricted.trace() + 1e-12
        assert np.allclose(traces[0], 1.0, rtol=0, atol=1e-12) == spec.trace_preserving
        for stack, start in zip(stacks, (rho0, restricted)):
            assert stack.shape == (len(t_grid),) + rho0.mat.shape
            for state, ref in zip(stack, ode_oracle(spec, start, t_grid)):
                assert np.max(np.abs(state - ref)) <= 1e-10


def test_lindblad_spec_twice_gives_each_input_as_alone():
    # one input passed twice gives, in both stacks, its stack alone bit for
    # bit; two inputs agree with their own calls to rounding only, because
    # the steps and the early stop are judged on the whole block
    for spec, rho0, t_grid in oracle_systems():
        (alone,) = dense_propagate([spec], [rho0], t_grid)
        for stack in dense_propagate([spec, spec], [rho0, rho0], t_grid):
            assert np.array_equal(stack, alone)
        other = mixed(rho0.dims)
        (other_alone,) = dense_propagate([spec], [other], t_grid)
        together = dense_propagate([spec, spec], [rho0, other], t_grid)
        for stack, one in zip(together, (alone, other_alone)):
            assert np.max(np.abs(stack - one)) <= 1e-13


def test_lindblad_returns_read_only_stacks():
    # per input, one (states, stack) pair per class: disjoint ascending
    # classes in the order of their least state, each with a read-only
    # complex (T, b, b) stack, and at t = 0 the input's blocks exactly
    (spec, rho0, t_grid), (other, other0, _) = oracle_systems()[1], oracle_systems()[0]
    results = lindblad_propagate((spec, other), (rho0, other0), t_grid)
    assert isinstance(results, tuple) and len(results) == 2
    for blocks, start in zip(results, (rho0, other0)):
        assert isinstance(blocks, tuple) and blocks
        firsts = [states[0] for states, _ in blocks]
        assert firsts == sorted(firsts)
        every = np.concatenate([states for states, _ in blocks])
        assert len(set(every.tolist())) == len(every) <= start.dims.total
        for states, stack in blocks:
            assert np.all(np.diff(states) > 0)
            assert stack.dtype == complex
            assert stack.shape == (len(t_grid), len(states), len(states))
            assert np.array_equal(stack[0], start.mat[np.ix_(states, states)])
            assert not stack.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 0.0


def test_lindblad_several_specs_match_ode_oracle():
    # each system with a second spec of another dimension in one call, every
    # spec twice: one Taylor loop over the block-diagonal Liouvillian, each
    # stack checked on its own against the ODE oracle
    systems = oracle_systems()
    for k, (spec, rho0, t_grid) in enumerate(systems):
        other, other0, _ = systems[(k + 1) % len(systems)]
        assert other0.dims.total != rho0.dims.total
        specs = (spec, spec, other, other)
        inputs = (rho0, mixed(rho0.dims), other0, mixed(other0.dims))
        stacks = dense_propagate(specs, inputs, t_grid)
        assert len(stacks) == 4
        for one, start, stack in zip(specs, inputs, stacks):
            assert stack.shape == (len(t_grid),) + start.mat.shape
            for state, ref in zip(stack, ode_oracle(one, start, t_grid)):
                assert np.max(np.abs(state - ref)) <= 1e-10


def test_lindblad_several_specs_first_group_matches_one_spec():
    # the cap-hi stacks of a cap-hi and cap-1 call are the one-spec results
    from excitonsim.transport import NetworkSpec, build_network

    spec = NetworkSpec(energies=(0.1, -0.1, 0.0),
                       couplings=((0.0, 1.0, 0.0), (1.0, 0.0, 0.9), (0.0, 0.9, 0.0)),
                       dephasing=(0.5, 0.4, 0.5), exit_site=2, sink_rate=1.0)
    model, model_lo = build_network(spec, cap=2), build_network(spec, cap=1)
    inputs = [initial_state(model, a).to_density() for a in (0.2, 0.5)]
    restricted = [initial_state(model_lo, a).to_density() for a in (0.2, 0.5)]
    t_grid = np.linspace(0.0, 12.0, 25)
    hi, lo = [model.lindblad] * 2, [model_lo.lindblad] * 2
    together = dense_propagate(hi + lo, inputs + restricted, t_grid)
    alone = (dense_propagate(hi, inputs, t_grid)
             + dense_propagate(lo, restricted, t_grid))
    for one, other in zip(together, alone):
        assert np.max(np.abs(one - other)) <= 1e-13


def full_support(dims, seed=0):
    """A density matrix on the :class:`ModeDims` ``dims`` whose every entry
    has nonzero real and, off the diagonal, imaginary parts: it starts on
    every real coordinate, and that is exactly Hermitian."""
    d = dims.total
    g = np.random.default_rng(seed).normal(size=(d, d, 2)) @ [1.0, 1j]
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(dims, rho / np.trace(rho).real)


def test_lindblad_trace_drift_in_second_block(monkeypatch):
    # every stack is validated: drift in the second spec's rows alone is
    # caught.  Both inputs have full support, so the block keeps all d*d
    # coordinates of each spec and the second spec's rows start at d1*d1
    from excitonsim import dynamics

    (spec, rho0, t_grid), (other, other0, _) = oracle_systems()[1], oracle_systems()[0]
    rho0, other0 = full_support(rho0.dims), full_support(other0.dims, seed=1)
    specs, inputs = (spec, other), (rho0, other0)
    lindblad_propagate(specs, inputs, t_grid)
    taylor, first_rows, calls = dynamics._taylor_piece, rho0.dims.total ** 2, []

    def drifting(a, y, h, fractions):
        # every coordinate of the one spec, or of both, propagates
        assert a.shape[0] in (first_rows, first_rows + other0.dims.total ** 2)
        calls.append(a.shape[0])
        out = taylor(a, y, h, fractions)
        out[:, first_rows:] *= 1.0 + 1e-11
        return out

    monkeypatch.setattr(dynamics, "_taylor_piece", drifting)
    with pytest.raises(ConvergenceError, match="trace drift"):
        lindblad_propagate(specs, inputs, t_grid)
    lindblad_propagate([spec], [rho0], t_grid)
    assert set(calls) == {first_rows + other0.dims.total ** 2, first_rows}


def reached_entries(spec, rho0):
    """Mask of the entries of rho that the dense complex Liouvillian carries
    the nonzero entries of ``rho0`` to, in any number of steps: every other
    entry stays exactly 0."""
    pattern = liouvillian_matrix(spec) != 0
    reached = rho0.mat.ravel() != 0
    while not np.array_equal(grown := reached | pattern @ reached, reached):
        reached = grown
    return reached.reshape(rho0.mat.shape)


def partial_support_calls():
    """(specs, inputs) of calls whose inputs start on part of rho's entries,
    on the explicit-sink trimer, the loss-mode trimer with relaxation and
    the dephased dimer: a diagonal input in one sector, a block-diagonal
    input over two sectors, a number-dephased input, a two-spec call with
    one full-support input, and a zero input."""
    from excitonsim.transport import CappedBasis

    (dimer, excited, _), (sink, coherent, _), (loss, lossy, _) = oracle_systems()
    n, n_loss = CappedBasis(4, 2).total_number, CappedBasis(3, 2).total_number
    one_sector = DensityMatrix(sink.dims, np.diag((n == 1) / np.sum(n == 1)))
    keep = np.isin(n, (1, 2))
    two_sectors = DensityMatrix(sink.dims,
                                coherent.mat * (n[:, None] == n) * np.outer(keep, keep),
                                subnormalized=True)
    dephased = DensityMatrix(loss.dims,
                             lossy.mat * (n_loss[:, None] == n_loss))
    zero = DensityMatrix(sink.dims, 0 * coherent.mat, subnormalized=True)
    return [((sink, sink), (one_sector, two_sectors)),
            ((loss,), (dephased,)),
            ((loss, sink), (full_support(loss.dims), one_sector)),
            ((sink, dimer), (two_sectors, excited)),
            ((sink,), (zero,))]


@pytest.mark.parametrize("specs,inputs", partial_support_calls(), ids=[
    "one-sector", "dephased-loss", "one-partial-group", "two-partial-groups", "zero"])
def test_lindblad_partial_support_matches_oracles(specs, inputs, monkeypatch):
    # inputs that start on part of rho's entries propagate only their
    # classes, which hold every real coordinate that the coordinate closure
    # reaches: each state matches the DOP853 and dense expm oracles, every
    # entry the dense Liouvillian cannot reach is 0, and the classes give
    # back each input at t = 0 exactly
    from excitonsim import dynamics

    t_grid = np.linspace(0.0, 6.0, 13)
    taylor, rows = dynamics._taylor_piece, []

    def spy(a, y, h, fractions):
        rows.append(a.shape[0])
        return taylor(a, y, h, fractions)

    monkeypatch.setattr(dynamics, "_taylor_piece", spy)
    stacks = dense_propagate(specs, inputs, t_grid)
    assert rows and max(rows) < sum(one.dims.total ** 2 for one in specs)
    for one, start, stack in zip(specs, inputs, stacks):
        slots = class_slots(dynamics._classes(one, start.mat), one.dims.total)
        assert np.isin(np.flatnonzero(closure(folded_liouvillian(one), start.mat)), slots).all()
        liou = liouvillian_matrix(one)
        reached = reached_entries(one, start)
        assert reached.all() == (start.mat != 0).all()
        assert not stack[:, ~reached].any()
        assert np.array_equal(stack[0], start.mat)
        for t, state, ref in zip(t_grid, stack, ode_oracle(one, start, t_grid)):
            assert np.max(np.abs(state - ref)) <= 1e-10
            dense = (scipy.linalg.expm(liou * t) @ start.mat.ravel()).reshape(state.shape)
            assert np.max(np.abs(state - dense)) <= 1e-10


@pytest.mark.parametrize("key", ["jumps", "losses"])
def test_lindblad_classes_join_what_c_dag_c_couples(key):
    # c = |0><1| + |0><2| maps each of {1} and {2} into {0}, but c^dag c, in
    # H_eff, couples 1 and 2: the classes follow c's adjoint too, so |1><1|
    # grows rho[1, 2] as the DOP853 oracle does.  A jump also carries the
    # class into {0}; a loss carries nothing
    from excitonsim import dynamics

    c = np.zeros((3, 3))
    c[0, 1], c[0, 2] = 1.0, 0.7
    spec = lindblad_spec(np.diag([0.0, 0.3, -0.2]), **{key: ((0.8, c),)})
    start = basis_state((3,), (1,)).to_density()
    classes = [cls.tolist() for cls in dynamics._classes(spec, start.mat)]
    assert classes == ([[0], [1, 2]] if key == "jumps" else [[1, 2]])
    t_grid = np.linspace(0.0, 3.0, 7)
    (stack,) = dense_propagate([spec], [start], t_grid)
    assert np.abs(stack[-1, 1, 2]) > 0.01
    for state, ref in zip(stack, ode_oracle(spec, start, t_grid)):
        assert np.max(np.abs(state - ref)) <= 1e-10


MULTI_POINT_GRIDS = {
    # about 10 and 4 for the trimers' and the dimer's 1-norms, so one
    # expansion reaches about 0.95 and 2.4 time units
    "uniform": np.linspace(0.0, 3.0, 31),
    "mixed": np.array([0.0, 0.05, 0.1, 0.3, 0.35, 3.0, 3.1, 3.12, 3.4, 6.0]),
    "last-shorter": np.linspace(0.0, 2.8, 29),
    "two-spec-partial": np.linspace(0.0, 3.0, 31),
}


@pytest.mark.parametrize("case", list(MULTI_POINT_GRIDS))
def test_lindblad_multi_point_steps_match_oracles(case, monkeypatch):
    # one expansion read at every grid point within its reach: each state
    # matches the DOP853 and dense expm oracles, on a uniform grid, on one
    # that mixes such points with intervals split into pieces, on one whose
    # last step is shorter than the rest, and on a two-spec block that
    # propagates part of its coordinates
    from excitonsim import dynamics

    t_grid = MULTI_POINT_GRIDS[case]
    if case == "two-spec-partial":
        calls = [partial_support_calls()[3]]
    else:
        calls = [((spec,), (rho0,)) for spec, rho0, _ in oracle_systems()]
    taylor = dynamics._taylor_piece
    for specs, inputs in calls:
        reads, rows = [], []

        def spy(a, y, h, fractions):
            reads.append(len(fractions))
            rows.append(a.shape[0])
            return taylor(a, y, h, fractions)

        monkeypatch.setattr(dynamics, "_taylor_piece", spy)
        stacks = dense_propagate(specs, inputs, t_grid)
        if case == "mixed":
            # some expansion reads several points, and some interval takes
            # several pieces, each read at its end only
            assert max(reads) >= 2 and sum(reads) > len(t_grid) - 1
        else:
            assert max(reads) >= 4 and sum(reads) == len(t_grid) - 1
        if case == "last-shorter":
            assert reads[-1] < reads[0] == max(reads)
        if case == "two-spec-partial":
            assert max(rows) < sum(one.dims.total ** 2 for one in specs)
        for one, start, stack in zip(specs, inputs, stacks):
            liou = liouvillian_matrix(one)
            for t, state, ref in zip(t_grid, stack, ode_oracle(one, start, t_grid)):
                assert np.max(np.abs(state - ref)) <= 1e-10
                dense = (scipy.linalg.expm(liou * t) @ start.mat.ravel()).reshape(state.shape)
                assert np.max(np.abs(state - dense)) <= 1e-10


def test_lindblad_one_expansion_reads_several_points(monkeypatch):
    # on an 81-point grid like the fmo7 benchmark's (7 sites, cap 2, t up to
    # 12), one expansion reaches about five grid points: a transport call
    # makes fewer than a third as many expansions as there are intervals
    from excitonsim import dynamics
    from excitonsim.transport import NetworkSpec, truncation_robustness

    g = np.diag(np.full(6, 1.0), 1)
    g[0, 3], g[2, 5] = 0.1, 0.12
    spec = NetworkSpec(energies=(0.2, -0.1, 0.0, 0.25, -0.2, 0.05, 0.1), couplings=g + g.T,
                       dephasing=(0.5,) * 7, exit_site=6, sink_rate=1.0)
    t_grid = np.linspace(0.0, 12.0, 81)
    taylor, reads = dynamics._taylor_piece, []

    def spy(a, y, h, fractions):
        reads.append(len(fractions))
        return taylor(a, y, h, fractions)

    monkeypatch.setattr(dynamics, "_taylor_piece", spy)
    truncation_robustness(spec, [0.3], t_grid)
    assert sum(reads) == len(t_grid) - 1
    assert 3 * len(reads) < len(t_grid) - 1


def test_lindblad_rejects_mismatched_specs_and_inputs():
    (spec, rho0, t_grid), (other, other0, _) = oracle_systems()[1], oracle_systems()[0]
    for specs, inputs in (((spec, other), (rho0,)), ((spec,), (rho0, other0)), ((), ()),
                          ((spec,), ())):
        with pytest.raises(ValueError, match="one initial state per spec"):
            lindblad_propagate(specs, inputs, t_grid)
    for inputs in ((other0, other0), (rho0, rho0), (other0, rho0)):
        with pytest.raises(DimensionError):
            lindblad_propagate((spec, other), inputs, t_grid)


def test_taylor_piece_is_the_scanning_rule_bit_for_bit():
    # the running bound only skips scans of the sum that cannot pass the
    # early stop: at fraction 1, whatever fractions come before it, the
    # same products, the same stop and the same bits as the rule that scans
    # the sum after every term
    from excitonsim import dynamics

    class Counted:
        def __init__(self, a):
            self.a, self.calls = a, 0

        def __matmul__(self, y):
            self.calls += 1
            return self.a @ y

    rng = np.random.default_rng(11)
    complex_blocks, real_blocks = [], []
    for spec, _, _ in oracle_systems():
        # the complex Liouvillian and the real map on Hermitian coordinates
        liou, real = kron_liouvillian(spec), real_csr(spec)
        for a, blocks in ((liou, complex_blocks), (real, real_blocks)):
            blocks.append(a - a.diagonal().mean() * scipy.sparse.identity(a.shape[0]))
    for a in complex_blocks + real_blocks + [
            scipy.sparse.block_diag(blocks[1:], format="csr")
            for blocks in (complex_blocks, real_blocks)]:
        norm = abs(a).sum(axis=0).max()
        y = rng.normal(size=(a.shape[0], 3))
        if np.iscomplexobj(a.data):
            y = y + 1j * rng.normal(size=(a.shape[0], 3))
        for scale, fractions in itertools.product((1e-6, 0.01, 0.3, 1.0, 3.0, 9.9),
                                                  ([1.0], [0.2, 0.45, 1.0])):
            fast, slow = Counted(a), Counted(a)
            got = dynamics._taylor_piece(fast, y, scale / norm, fractions)
            assert got.dtype == y.dtype
            assert got.shape == (len(fractions),) + y.shape
            assert np.array_equal(got[-1], scanning_taylor_piece(slow, y, scale / norm))
            assert fast.calls == slow.calls


def test_lindblad_bounds_taylor_pieces(monkeypatch):
    # the Taylor pieces over the whole grid are counted before the first one
    # runs: a call at the bound propagates, one piece more raises, and so
    # does a generator whose 1-norm overflows
    from excitonsim import dynamics

    spec, rho0, t_grid = oracle_systems()[1]
    taylor = dynamics._taylor_piece
    calls = []

    def counting(a, y, h, fractions):
        calls.append(h)
        return taylor(a, y, h, fractions)

    monkeypatch.setattr(dynamics, "_taylor_piece", counting)
    lindblad_propagate([spec], [rho0], [0.0, 50.0, 100.0])
    pieces = len(calls)
    assert pieces > 2
    monkeypatch.setattr(dynamics, "MAX_TAYLOR_PIECES", pieces)
    lindblad_propagate([spec], [rho0], [0.0, 50.0, 100.0])
    monkeypatch.setattr(dynamics, "MAX_TAYLOR_PIECES", pieces - 1)
    del calls[:]
    with pytest.raises(ConvergenceError, match="Taylor pieces"):
        lindblad_propagate([spec], [rho0], [0.0, 50.0, 100.0])
    huge = lindblad_spec(ModeOperator((2,), 1e308 * np.array([[0, 1], [1, 0]]),
                                      hermitian=True))
    with pytest.raises(ConvergenceError, match="inf Taylor pieces"):
        lindblad_propagate([huge], [fock(2, 0).to_density()], [0.0, 1.0])
    # a finite 1-norm whose product with a long span overflows: still the
    # bound's error, with no overflow warning on the way
    large = lindblad_spec(ModeOperator((2,), 1e307 * np.array([[0, 1], [1, 0]]),
                                       hermitian=True))
    with pytest.raises(ConvergenceError, match="Taylor pieces"):
        lindblad_propagate([large], [fock(2, 0).to_density()], [0.0, 1.0, 50.0])
    assert calls == []


def test_lindblad_spec_rejects_nan_hamiltonian():
    with pytest.raises(ValueError, match="hermitian"):
        lindblad_spec(ModeOperator((2,), [[np.nan, 0], [0, 0]]))
    # one entry without its adjoint is not Hermitian either
    with pytest.raises(ValueError, match="hermitian"):
        LindbladSpec((2,), (np.array([0]), np.array([1]), np.array([1.0 + 0j])))


def test_lindblad_rejects_bad_grid():
    spec = dimer_exchange_spec()
    rho0 = basis_state((2, 2), (0, 0)).to_density()
    with pytest.raises(ValueError):
        lindblad_propagate([spec], [rho0], [0.5, 1.0])
    with pytest.raises(ValueError):
        lindblad_propagate([spec], [rho0], [0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        lindblad_propagate([spec], [rho0], [0.0, 1.0], method="fixed")


@pytest.mark.parametrize("t_grid", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]])
def test_lindblad_rejects_non_finite_grid(t_grid):
    rho0 = basis_state((2, 2), (0, 0)).to_density()
    with pytest.raises(ValueError, match="finite"):
        lindblad_propagate([dimer_exchange_spec()], [rho0], t_grid)


# --- Liouvillian assembly -----------------------------------------------------

def network_lindblads():
    """Generators of 24 network models: both sink modes, relaxation on and
    off, caps 1-3 and an undephased site, whose undamped states cancel on
    the Liouvillian's diagonal."""
    from excitonsim.transport import NetworkSpec, build_network

    g = np.array([[0.0, 1.0, 0.2, 0.3], [1.0, 0.0, 0.9j, 0.1],
                  [0.2, -0.9j, 0.0, 1.1], [0.3, 0.1, 1.1, 0.0]])
    for sites, sink_mode, relaxation, cap in itertools.product(
            (3, 4), ("explicit", "loss"), (None, (0.1, 0.0, 0.05, 0.2)), (1, 2, 3)):
        spec = NetworkSpec(energies=(0.1, -0.2, 0.05, 0.3)[:sites],
                           couplings=g[:sites, :sites],
                           dephasing=(0.5, 0.0, 0.4, 0.3)[:sites], exit_site=sites - 1,
                           sink_rate=1.0, excitation_cap=cap, sink_mode=sink_mode,
                           relaxation=relaxation and relaxation[:sites])
        yield build_network(spec).lindblad


def test_liouvillian_is_the_kron_oracle_bit_for_bit():
    # on the network models, the same canonical CSR, entry for entry, as the
    # sum of kron products folded onto real coordinates by sparse products
    from excitonsim import dynamics

    for lindblad in network_lindblads():
        built, oracle = real_csr(lindblad), folded_liouvillian(lindblad)
        assert built.has_canonical_format
        for part in ("indptr", "indices", "data"):
            assert getattr(built, part).dtype == getattr(oracle, part).dtype
            assert np.array_equal(getattr(built, part), getattr(oracle, part))


@st.composite
def lindblad_specs(draw):
    """Generators on 2-6 states: a complex Hermitian H, and complex jump and
    loss operators with several nonzeros per column and some zero entries."""
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def operator():
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return mat * (rng.random((d, d)) < 0.7)

    def terms(count):
        return tuple((draw(st.floats(0.0, 3.0)), ModeOperator((d,), operator()))
                     for _ in range(count))

    h = operator()
    return lindblad_spec(ModeOperator((d,), h + h.conj().T, hermitian=True),
                        jumps=terms(draw(st.integers(0, 3))),
                        losses=terms(draw(st.integers(0, 2))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=lindblad_specs())
def test_liouvillian_matches_kron_oracle_on_random_generators(spec):
    # entries where several terms meet may round in another order, so the
    # values agree to 1e-14 of the largest, the pattern exactly but where
    # terms cancel: there the oracle's sparse products may keep a residue of
    # at most that size (4.4e-16 against an exact 0) that the build does not
    built, oracle = real_csr(spec), folded_liouvillian(spec)
    assert built.has_canonical_format and built.dtype == np.float64
    built, oracle = built.toarray(), oracle.toarray()
    tol = 1e-14 * np.max(np.abs(oracle), initial=0.0)
    residue = (oracle != 0) & (np.abs(oracle) <= tol)
    assert np.array_equal((built != 0)[~residue], (oracle != 0)[~residue])
    assert np.max(np.abs(built - oracle), initial=0.0) <= tol


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=lindblad_specs())
def test_shift_is_the_full_space_trace(spec):
    # mu, from the triplets in closed form, is the trace of the folded
    # oracle on all d^2 coordinates over d^2, without building it
    from excitonsim import dynamics

    oracle, d = folded_liouvillian(spec), spec.dims.total
    scale = np.abs(oracle.diagonal()).max(initial=0.0)
    assert dynamics._shift(spec) == pytest.approx(oracle.diagonal().sum() / d ** 2,
                                                  rel=0, abs=1e-14 * scale)


# 17 sites in a chain with an explicit sink at cap 2: 190 states, the largest
# capped space up to MAX_DIMENSION (200) on a 3-point grid
D190_CONFIG = {
    "sites": 17, "couplings": [[k, k + 1, 1.0 - 0.02 * k] for k in range(16)],
    "energies": [0.1 * (k % 3) for k in range(17)], "dephasing": 0.4,
    "relaxation": 0.05, "exit_site": 16, "sink_rate": 1.0, "excitation_cap": 2,
    "alphas": [0.3], "t_final": 2.0, "time_points": 3,
}


def test_liouvillian_and_transport_at_d190(tmp_path):
    # the real map equals the folded kron oracle, pattern exactly and values
    # to 1e-14 of the largest, and a transport run on the config exits 0
    import json

    from excitonsim import cli, dynamics
    from excitonsim.transport import NetworkSpec, build_network

    lindblad = build_network(NetworkSpec.from_dict(D190_CONFIG)).lindblad
    assert lindblad.dims.total == 190
    built, oracle = real_csr(lindblad), folded_liouvillian(lindblad)
    assert built.has_canonical_format
    assert np.array_equal(built.indptr, oracle.indptr)
    assert np.array_equal(built.indices, oracle.indices)
    assert np.max(np.abs(built.data - oracle.data)) <= 1e-14 * np.max(np.abs(oracle.data))
    config = tmp_path / "d190.json"
    config.write_text(json.dumps(D190_CONFIG))
    assert cli.main(["transport", "--config", str(config), "--out",
                     str(tmp_path / "d190.csv")]) == 0


def hermitian_coordinates(x):
    """Re x[i, j] at i*d + j for i <= j, and Im x[j, i] = -Im x[i, j] there
    for i > j."""
    return (np.triu(x.real) - np.tril(x.imag, -1)).ravel()


def assert_fold_matches(spec, rng):
    # the real map on the coordinates of Hermitian X gives the coordinates
    # of L vec(X), with L the sum of kron products
    from excitonsim import dynamics

    d = spec.dims.total
    liou, real = kron_liouvillian(spec), real_csr(spec)
    assert isinstance(real, scipy.sparse.csr_matrix)
    assert real.dtype == np.float64 and real.shape == (d * d, d * d)
    assert real.has_canonical_format
    for _ in range(3):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = x + x.conj().T
        got = real @ hermitian_coordinates(x)
        want = hermitian_coordinates((liou @ x.ravel()).reshape(d, d))
        scale = np.max(np.abs(liou.data), initial=0.0) * np.max(np.abs(x))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


def test_real_liouvillian_folds_network_models():
    rng = np.random.default_rng(29)
    for lindblad in network_lindblads():
        assert_fold_matches(lindblad, rng)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=lindblad_specs(), seed=st.integers(0, 2 ** 32 - 1))
def test_real_liouvillian_folds_random_generators(spec, seed):
    assert_fold_matches(spec, np.random.default_rng(seed))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_liouvillian_rejects_overflowing_rates():
    # an infinite rate (inf times the operator's zeros is NaN) and a finite
    # one whose c^dag c overflows raise ConvergenceError, with no warning
    from excitonsim import dynamics

    h = ModeOperator((3,), np.zeros((3, 3)), hermitian=True)
    for rate, key in itertools.product((np.inf, 1e308), ("jumps", "losses")):
        spec = lindblad_spec(h, **{key: ((rate, annihilation(3)),)})
        with pytest.raises(ConvergenceError, match="not finite"):
            real_csr(spec)
        with pytest.raises(ConvergenceError, match="not finite"):
            lindblad_propagate([spec], [fock(3, 0).to_density()], [0.0, 1.0])


# --- zero-entanglement behaviour ---------------------------------------------

def test_zero_entanglement_for_coherent_inputs():
    dim = 10
    for alpha in (0.1, 0.2, 0.3):
        psi0 = tensor(coherent_truncated(alpha, dim), fock(dim, 0))
        for gt in np.linspace(0.0, 2 * np.pi, 21):
            evolved = apply(exchange_unitary((dim, dim), gt), psi0).normalize()
            assert concurrence_pure(evolved).value <= 1e-7


def test_single_excitation_block_consistency():
    # propagating the 0+1 block alone agrees with projecting the cap-2 run
    from excitonsim.transport import NetworkSpec, build_network

    spec = NetworkSpec(energies=(0.0, 0.0), couplings=((0, 1.0), (1.0, 0)),
                       dephasing=(0.3, 0.3), exit_site=1, sink_rate=0.0)
    t_grid = np.linspace(0.0, 4.0, 9)
    alpha = 0.4

    model2 = build_network(spec, cap=2)
    psi2 = initial_state(model2, alpha)
    (stack2,) = dense_propagate([model2.lindblad], [psi2.to_density()], t_grid)

    model1 = build_network(spec, cap=1)
    # restrict the same initial state to the 0+1 sectors, unrenormalized
    amps = np.array([psi2.amps[model2.basis.index[occ]]
                     for occ in model1.basis.states])
    rho1 = DensityMatrix(model1.basis.dims,
                         np.outer(amps, amps.conj()), subnormalized=True)
    (stack1,) = dense_propagate([model1.lindblad], [rho1], t_grid)

    mask = model2.basis.sector_mask({0, 1})
    for s2, s1 in zip(stack2, stack1):
        block = s2[np.ix_(mask, mask)]
        # identical sector ordering: capped bases enumerate identically
        assert np.max(np.abs(block - s1)) <= 1e-6
