"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from excitonsim.dynamics import exchange_unitary
from excitonsim.entanglement import (
    concurrence_pure,
    concurrence_wootters,
    leading_coefficient,
    max_concurrence,
)
from excitonsim.hilbert import ModeOperator
from excitonsim.states import leveled_norm_sq
from excitonsim.transport import NetworkSpec, truncation_robustness
from reference import (
    ExcitationProjector,
    annihilation,
    apply,
    basis_state,
    coherent_truncated,
    dag,
    decohered_dimer_state,
    dense_propagate,
    embed,
    evolved_leveled_state,
    expm_oracle,
    fock,
    identity,
    lindblad_spec,
    liouvillian_matrix,
    number_operator,
    project_renormalize,
    tensor,
)

TABLE_REFERENCE = {2: 1.0, 3: 0.7071, 4: 0.3819, 5: 0.1768, 6: 0.0734, 7: 0.0280}


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {detail}", flush=True)
    assert passed, f"criterion {number}: {detail}"


def evolved_coherent(alpha, dim, gt):
    psi0 = tensor(coherent_truncated(alpha, dim), fock(dim, 0))
    return apply(exchange_unitary((dim, dim), gt), psi0).normalize()


def test_criterion_1_table_reproduction():
    t0 = time.time()
    deltas = {n: abs(leading_coefficient(n) - ref)
              for n, ref in TABLE_REFERENCE.items()}
    elapsed = time.time() - t0
    worst = max(deltas.values())
    report(1, worst <= 5e-4 and elapsed < 30.0,
           f"leading coefficients match the reference table, "
           f"max |delta| = {worst:.2e} (tol 5e-4), {elapsed:.1f}s")


def test_criterion_2_closed_form_concurrence():
    gts = np.linspace(0.0, 2 * np.pi, 100)
    worst_p1 = worst_p01 = worst_n3 = 0.0
    for alpha in (0.1, 0.3, 0.5):
        dim = 10
        p1 = None
        for gt in gts:
            state = evolved_coherent(alpha, dim, gt)
            if p1 is None:
                p1 = ExcitationProjector.single(state.dims)
                p01 = ExcitationProjector.ground_and_single(state.dims)
            c_p1 = concurrence_pure(project_renormalize(state, p1)[0]).value
            c_p01 = concurrence_pure(project_renormalize(state, p01)[0]).value
            worst_p1 = max(worst_p1, abs(c_p1 - abs(np.sin(2 * gt))))
            worst_p01 = max(worst_p01, abs(
                c_p01 - alpha ** 2 / (1 + alpha ** 2) * abs(np.sin(2 * gt))))
        norm3 = leveled_norm_sq(alpha, 3)
        for gt in gts:
            c3 = concurrence_pure(evolved_leveled_state(alpha, 3, gt)).value
            formula = (alpha ** 3 * abs(np.sin(2 * gt))
                       * np.sqrt(8 + 0.5 * alpha ** 2 * (13 + 3 * np.cos(4 * gt)))
                       / (4 * norm3))
            worst_n3 = max(worst_n3, abs(c3 - formula))
    passed = worst_p1 <= 1e-9 and worst_p01 <= 1e-9 and worst_n3 <= 1e-9
    report(2, passed,
           f"closed-form concurrence goldens: |dC_p1| = {worst_p1:.1e}, "
           f"|dC_p01| = {worst_p01:.1e}, |dC_n3| = {worst_n3:.1e} (tol 1e-9)")


def test_criterion_3_zero_entanglement_vs_projection():
    dim = 10
    worst_full = 0.0
    from excitonsim.states import coherent_tail

    for alpha in (0.1, 0.2, 0.3):
        assert coherent_tail(alpha, dim) <= 1e-12
        for gt in np.linspace(0.0, 2 * np.pi, 41):
            state = evolved_coherent(alpha, dim, gt)
            worst_full = max(worst_full, concurrence_pure(state).value)
    state = evolved_coherent(0.3, dim, np.pi / 4)
    projected, _ = project_renormalize(
        state, ExcitationProjector.single(state.dims))
    c_projected = concurrence_pure(projected).value
    passed = worst_full <= 1e-7 and abs(c_projected - 1.0) <= 1e-9
    report(3, passed,
           f"full-state concurrence <= {worst_full:.1e} (tol 1e-7) while the "
           f"single-excitation projection reaches {c_projected:.12f} at the "
           f"quarter-period phase")


def test_criterion_4_decoherence_equivalence():
    worst = 0.0
    for alpha in (0.1, 0.3, 0.5):
        p01 = None
        for gt in np.linspace(0.0, 2 * np.pi, 100):
            state = evolved_coherent(alpha, 10, gt)
            if p01 is None:
                p01 = ExcitationProjector.ground_and_single(state.dims)
            c_pure = concurrence_pure(project_renormalize(state, p01)[0]).value
            c_mixed = concurrence_wootters(decohered_dimer_state(alpha, gt)).value
            worst = max(worst, abs(c_pure - c_mixed))
    report(4, worst <= 1e-9,
           f"decohered-state Wootters equals the projected pure value, "
           f"max |delta| = {worst:.1e} (tol 1e-9)")


def test_criterion_5_oracle_equivalence():
    da = db = 6
    a_full = tensor(annihilation(da), identity(db)).mat
    b_full = tensor(identity(da), annihilation(db)).mat
    gen = a_full @ b_full.conj().T + a_full.conj().T @ b_full
    worst_u = 0.0
    for gt in np.linspace(0.0, 2 * np.pi, 20):
        u_block = exchange_unitary((da, db), gt).mat
        u_dense = expm_oracle(ModeOperator((da * db,), 1j * gt * gen)).mat
        worst_u = max(worst_u, np.max(np.abs(u_block - u_dense)))

    hop = tensor(dag(annihilation(2)), annihilation(2)).mat
    spec = lindblad_spec(
        ModeOperator((2, 2), hop + hop.conj().T, hermitian=True),
        jumps=(
            (0.8, embed(number_operator(2), (2, 2), 0)),
            (0.5, tensor(annihilation(2), identity(2))),
        ),
    )
    rho0 = basis_state((2, 2), (1, 0)).to_density()
    t_grid = np.linspace(0.0, 3.0, 7)
    (rho,) = dense_propagate([spec], [rho0], t_grid)
    liou = ModeOperator((16,), liouvillian_matrix(spec))
    worst_l = 0.0
    for t, state in zip(t_grid, rho):
        ref = (expm_oracle(liou, scale=t).mat @ rho0.mat.ravel()).reshape(4, 4)
        worst_l = max(worst_l, np.max(np.abs(state - ref)))
    passed = worst_u <= 1e-10 and worst_l <= 1e-6
    report(5, passed,
           f"analytic blocks vs dense exponential: {worst_u:.1e} (tol 1e-10); "
           f"Lindblad propagation vs exponentiated generator: {worst_l:.1e} "
           f"(tol 1e-6)")


def test_criterion_6_scaling_with_level_count():
    ok_monotone = True
    for alpha in (0.1, 0.3, 0.5, 0.8):
        values = [max_concurrence(alpha, n) for n in range(2, 8)]
        ok_monotone &= all(b < a for a, b in zip(values, values[1:]))

    exact = {2: 1.0, 3: 1 / math.sqrt(2), 4: 0.25 * math.sqrt(7 / 3),
             5: 1 / (4 * math.sqrt(2)), 6: math.sqrt(31 / 10) / 24,
             7: 1 / (16 * math.sqrt(5))}
    alpha = 1e-2
    small = {n: max_concurrence(alpha, n) for n in range(2, 8)}
    worst_rel = 0.0
    for n in range(2, 7):
        ratio = small[n + 1] / small[n]
        predicted = alpha * exact[n + 1] / exact[n]
        worst_rel = max(worst_rel, abs(ratio / predicted - 1.0))
    passed = ok_monotone and worst_rel <= 1e-2
    report(6, passed,
           f"peak concurrence strictly decreases with the level count; "
           f"successive ratios at alpha=1e-2 match the reference within "
           f"{worst_rel:.1e} relative (tol 1e-2)")


def test_criterion_7_transport_robustness():
    t0 = time.time()
    spec = NetworkSpec(
        energies=(0.0, 0.0, 0.0),
        couplings=((0.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
        dephasing=(0.5, 0.5, 0.5),
        exit_site=2,
        sink_rate=1.0,
    )
    t_grid = np.linspace(0.0, 20 * np.pi, 161)
    scaling = []
    prefactor_ok = True
    alphas = (0.1, 0.2, 0.4)
    for alpha, rep in zip(alphas, truncation_robustness(spec, alphas, t_grid=t_grid)):
        scaling.append(rep.relative_difference / alpha ** 2)
        ratio = max(rep.concurrence_p01) / max(rep.concurrence_p1)
        prefactor_ok &= abs(ratio / (alpha ** 2 / (1 + alpha ** 2)) - 1.0) <= 1e-6
    elapsed = time.time() - t0
    scaling_ok = max(scaling) <= 2.0 * min(scaling)
    passed = scaling_ok and prefactor_ok and elapsed < 60.0
    report(7, passed,
           f"efficiency difference scales as alpha^2 (coefficients "
           f"{[f'{s:.3f}' for s in scaling]}, within factor 2) and projected "
           f"concurrence carries the alpha^2/(1+alpha^2) prefactor; "
           f"{elapsed:.1f}s (limit 60s)")


def test_criterion_8_projection_dynamics_exchange():
    dim = 5
    psi0 = tensor(coherent_truncated(0.35, dim, tail_tol=1e-6), fock(dim, 0))
    t_op = embed(number_operator(dim), (dim, dim), 1).mat
    p1 = ExcitationProjector.single(psi0.dims).matrix().mat
    worst = 0.0
    for gt in np.linspace(0.0, 2 * np.pi, 25):
        u = exchange_unitary((dim, dim), gt).mat
        evolved = u @ psi0.amps
        lhs = np.vdot(evolved, p1 @ t_op @ p1 @ evolved)
        projected_then_evolved = u @ (p1 @ psi0.amps)
        rhs = np.vdot(projected_then_evolved, t_op @ projected_then_evolved)
        worst = max(worst, abs(lhs - rhs))
    report(8, worst <= 1e-10,
           f"projection and dynamics interchange on the unitary dimer, "
           f"max |delta| = {worst:.1e} (tol 1e-10)")
