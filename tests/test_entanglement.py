import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from excitonsim import entanglement
from excitonsim.dynamics import ConvergenceError, exchange_unitary
from excitonsim.entanglement import (
    _leveled_concurrence,
    concurrence_pure,
    concurrence_wootters,
    leading_coefficient,
    max_concurrence,
)
from excitonsim.hilbert import DensityMatrix, DimensionError, FockVector, ModeDims
from excitonsim.states import coherent_truncated, leveled_coherent, leveled_norm_sq
from reference import (
    ExcitationProjector,
    ZeroWeightError,
    apply,
    basis_state,
    decohered_dimer_state,
    evolved_leveled_state,
    fock,
    index,
    project_renormalize,
    tensor,
)

FN_REFERENCE = {
    2: 1.0,
    3: 1.0 / math.sqrt(2.0),
    4: 0.25 * math.sqrt(7.0 / 3.0),
    5: 1.0 / (4.0 * math.sqrt(2.0)),
    6: math.sqrt(31.0 / 10.0) / 24.0,
    7: 1.0 / (16.0 * math.sqrt(5.0)),
}


def evolved_coherent(alpha, dim, gt):
    psi0 = tensor(coherent_truncated(alpha, dim), fock(dim, 0))
    return apply(exchange_unitary((dim, dim), gt), psi0).normalize()


# --- projectors ---------------------------------------------------------------

def test_projector_algebra():
    dims = ModeDims((3, 3))
    p1 = ExcitationProjector.single(dims).matrix().mat
    p01 = ExcitationProjector.ground_and_single(dims).matrix().mat
    vac = np.zeros((9, 9))
    vac[0, 0] = 1.0
    assert np.max(np.abs(p1 @ p1 - p1)) <= 1e-14
    assert np.max(np.abs(p01 - (vac + p1))) <= 1e-14
    # monotone in the retained sector set
    prev = np.zeros((9, 9))
    for k in range(4):
        pk = ExcitationProjector(dims, frozenset(range(k + 1))).matrix().mat
        assert np.min(np.linalg.eigvalsh(pk - prev)) >= -1e-14
        prev = pk


def test_project_renormalize_p1_on_evolved_dimer():
    alpha, dim, gt = 0.3, 8, 0.9
    state = evolved_coherent(alpha, dim, gt)
    projected, weight = project_renormalize(
        state, ExcitationProjector.single(state.dims))
    expected = np.zeros(dim * dim, dtype=complex)
    expected[index(state.dims, (1, 0))] = np.cos(gt)
    expected[index(state.dims, (0, 1))] = 1j * np.sin(gt)
    phase = projected.amps[index(state.dims, (1, 0))] / np.cos(gt)
    assert np.allclose(projected.amps, phase * expected, atol=1e-12)
    assert 0 < weight < 1


def test_project_renormalize_p01_initial():
    alpha, dim = 0.25, 8
    psi0 = tensor(coherent_truncated(alpha, dim), fock(dim, 0))
    projected, weight = project_renormalize(
        psi0, ExcitationProjector.ground_and_single(psi0.dims))
    norm = np.sqrt(1 + alpha ** 2)
    assert projected.amps[index(psi0.dims, (0, 0))] == pytest.approx(1 / norm, abs=1e-12)
    assert projected.amps[index(psi0.dims, (1, 0))] == pytest.approx(alpha / norm, abs=1e-12)
    # weight approaches (1 + alpha^2) e^(-alpha^2) as the cutoff grows
    assert weight == pytest.approx((1 + alpha ** 2) * np.exp(-alpha ** 2), abs=1e-11)


def test_projection_weight_prefactor_identity():
    # |alpha|^2/(1+|alpha|^2) equals the single-excitation fraction
    alpha, dim = 0.3, 9
    psi0 = tensor(coherent_truncated(alpha, dim), fock(dim, 0))
    _, w1 = project_renormalize(psi0, ExcitationProjector.single(psi0.dims))
    _, w01 = project_renormalize(psi0, ExcitationProjector.ground_and_single(psi0.dims))
    assert w1 / w01 == pytest.approx(alpha ** 2 / (1 + alpha ** 2), abs=1e-10)


def test_project_vacuum_zero_weight():
    vac = basis_state((2, 2), (0, 0))
    with pytest.raises(ZeroWeightError):
        project_renormalize(vac, ExcitationProjector.single(vac.dims))


# --- pure-state concurrence ----------------------------------------------------

def test_concurrence_product_state_zero():
    psi = tensor(leveled_coherent(0.7, 5), leveled_coherent(0.2j, 5))
    assert concurrence_pure(psi).value <= 1e-12


def test_concurrence_p1_projected_dimer():
    for gt in np.linspace(0.0, 2 * np.pi, 40):
        state = evolved_coherent(0.3, 8, gt)
        try:
            projected, _ = project_renormalize(
                state, ExcitationProjector.single(state.dims))
        except ZeroWeightError:
            continue
        assert concurrence_pure(projected).value == pytest.approx(
            abs(np.sin(2 * gt)), abs=1e-9)


def test_concurrence_p01_projected_dimer():
    alpha = 0.3
    for gt in (0.3, np.pi / 4, 1.8):
        state = evolved_coherent(alpha, 8, gt)
        projected, _ = project_renormalize(
            state, ExcitationProjector.ground_and_single(state.dims))
        expected = alpha ** 2 / (1 + alpha ** 2) * abs(np.sin(2 * gt))
        assert concurrence_pure(projected).value == pytest.approx(expected, abs=1e-9)
    state = evolved_coherent(0.3, 8, np.pi / 4)
    projected, _ = project_renormalize(
        state, ExcitationProjector.ground_and_single(state.dims))
    assert concurrence_pure(projected).value == pytest.approx(0.0825688073, abs=1e-9)


def test_concurrence_requires_normalized():
    bad = FockVector((2, 2), np.array([1.0, 0, 0, 1.0]), normalized=False)
    with pytest.raises(ValueError):
        concurrence_pure(bad)


def partial_trace(rho, keep):
    """Reduced density matrix over the kept modes (in their original order)."""
    keep = sorted(set(int(k) for k in keep))
    m = rho.dims.n_modes
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(not 0 <= k < m for k in keep):
        raise DimensionError(f"keep modes {keep} out of range for {m} modes")
    dims = rho.dims.dims
    tens = rho.mat.reshape(dims + dims)
    # einsum: traced modes share a letter between bra and ket axes
    letters = "abcdefghijklmnopqrstuvwxyz"
    bra = list(letters[:m])
    ket = [letters[m + k] if k in keep else bra[k] for k in range(m)]
    out = "".join(bra[k] for k in keep) + "".join(ket[k] for k in keep)
    reduced = np.einsum("".join(bra) + "".join(ket) + "->" + out, tens)
    kept_dims = ModeDims(tuple(dims[k] for k in keep))
    d = kept_dims.total
    return DensityMatrix(kept_dims, reduced.reshape(d, d),
                         subnormalized=rho.subnormalized)


def purity(rho):
    """Tr rho^2, in [1/d, 1] up to round-off."""
    return float(np.sum(np.abs(rho.mat) ** 2))


def concurrence_from_purity(state, a_modes=(0,)):
    """Literal partial-trace route sqrt(2 (1 - Tr rho_A^2)); a negative
    round-off deficit clamps to zero."""
    deficit = 1.0 - purity(partial_trace(state.to_density(), keep=a_modes))
    return float(np.sqrt(2.0 * max(deficit, 0.0)))


def test_concurrence_purity_route_agrees():
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi = FockVector((3, 4), v / np.linalg.norm(v))
        a = concurrence_pure(psi).value
        b = concurrence_from_purity(psi)
        assert a == pytest.approx(b, abs=1e-10)


def test_partial_trace_product_coherent():
    # evolved coherent product: reduced state is pure
    alpha, gt = 0.3, 0.6
    dim = 8
    left = leveled_coherent(alpha * np.cos(gt), dim)
    right = leveled_coherent(1j * alpha * np.sin(gt), dim)
    rho = tensor(left, right).to_density()
    rho_a = partial_trace(rho, keep=[0])
    assert rho_a.trace() == pytest.approx(1.0, abs=1e-12)
    assert purity(rho_a) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho_a.mat, left.to_density().mat, atol=1e-12)


def test_partial_trace_bell():
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1 / np.sqrt(2)      # |10>
    amps[1] = 1j / np.sqrt(2)     # |01>
    rho_a = partial_trace(FockVector((2, 2), amps).to_density(), keep=[0])
    assert np.allclose(rho_a.mat, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_maximally_mixed():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    rho_a = partial_trace(rho, keep=[1])
    assert np.allclose(rho_a.mat, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_empty_keep():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    with pytest.raises(ValueError):
        partial_trace(rho, keep=[])


def test_purity_values():
    assert purity(basis_state((3,), (1,)).to_density()) == pytest.approx(1.0)
    assert purity(DensityMatrix((2,), np.eye(2) / 2)) == pytest.approx(0.5)


def test_purity_projected_dimer_quarter_of_pi_over_two():
    # concurrence |sin 2gt| at gt = pi/8 implies Tr rho_A^2 = 0.75
    gt = np.pi / 8
    amps = np.zeros(4, dtype=complex)
    amps[2] = np.cos(gt)
    amps[1] = 1j * np.sin(gt)
    rho_a = partial_trace(FockVector((2, 2), amps).to_density(), keep=[0])
    assert purity(rho_a) == pytest.approx(0.75, abs=1e-12)


def test_purity_matches_schmidt_route():
    rng = np.random.default_rng(11)
    for _ in range(20):
        da, db = rng.integers(2, 5, size=2)
        v = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
        v /= np.linalg.norm(v)
        state = FockVector((int(da), int(db)), v)
        rho_a = partial_trace(state.to_density(), keep=[0])
        sigma = np.linalg.svd(v.reshape(da, db), compute_uv=False)
        assert purity(rho_a) == pytest.approx(np.sum(sigma ** 4), abs=1e-10)


def test_concurrence_multimode_bipartition():
    # GHZ-like three-qubit state, entry mode vs rest
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    psi = FockVector((2, 2, 2), amps)
    assert concurrence_pure(psi, a_modes=(0,)).value == pytest.approx(1.0, abs=1e-12)


# --- Wootters ------------------------------------------------------------------

def test_wootters_separable_zero():
    assert concurrence_wootters(basis_state((2, 2), (0, 0)).to_density()).value == 0.0


def test_wootters_bell_state():
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1 / np.sqrt(2)
    amps[1] = 1j / np.sqrt(2)
    rho = FockVector((2, 2), amps).to_density()
    assert concurrence_wootters(rho).value == pytest.approx(1.0, abs=1e-12)


def test_wootters_decohered_dimer_equals_projected():
    alpha = 0.3
    for gt in np.linspace(0.0, 2 * np.pi, 50):
        c_mixed = concurrence_wootters(decohered_dimer_state(alpha, gt)).value
        expected = alpha ** 2 / (1 + alpha ** 2) * abs(np.sin(2 * gt))
        assert c_mixed == pytest.approx(expected, abs=1e-9)


def test_wootters_rejects_wrong_dims():
    with pytest.raises(DimensionError):
        concurrence_wootters(DensityMatrix((3,), np.eye(3) / 3))


def test_wootters_matches_purity_on_pure_states():
    rng = np.random.default_rng(17)
    for _ in range(100):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = FockVector((2, 2), v / np.linalg.norm(v))
        assert concurrence_wootters(psi.to_density()).value == pytest.approx(
            concurrence_pure(psi).value, abs=1e-10)


# --- evolved leveled states ------------------------------------------------------

def test_evolved_two_level_family():
    alpha, gt = 0.35, 0.7
    state = evolved_leveled_state(alpha, 2, gt)
    norm = np.sqrt(1 + alpha ** 2)
    dims = state.dims
    assert state.amps[index(dims, (0, 0))] == pytest.approx(1 / norm, abs=1e-12)
    assert state.amps[index(dims, (1, 0))] == pytest.approx(
        alpha * np.cos(gt) / norm, abs=1e-12)
    assert state.amps[index(dims, (0, 1))] == pytest.approx(
        1j * alpha * np.sin(gt) / norm, abs=1e-12)


def test_evolved_three_level_coefficients():
    alpha, gt = 0.3, 0.6
    state = evolved_leveled_state(alpha, 3, gt)
    dims = state.dims
    root_norm = np.sqrt(leveled_norm_sq(alpha, 3))
    # double-transfer amplitude; the single-transfer phase follows the
    # package-wide +i sin(gt) convention
    assert state.amps[index(dims, (1, 1))] == pytest.approx(
        1j * alpha ** 2 * np.sqrt(2) * np.cos(gt) * np.sin(gt) / np.sqrt(2) / root_norm,
        abs=1e-12)
    assert state.amps[index(dims, (2, 0))] == pytest.approx(
        alpha ** 2 / np.sqrt(2) * np.cos(gt) ** 2 / root_norm, abs=1e-12)
    assert state.amps[index(dims, (0, 2))] == pytest.approx(
        -alpha ** 2 / np.sqrt(2) * np.sin(gt) ** 2 / root_norm, abs=1e-12)


def test_evolved_three_level_full_transfer():
    alpha = 0.3
    state = evolved_leveled_state(alpha, 3, np.pi / 2)
    dims = state.dims
    root_norm = np.sqrt(leveled_norm_sq(alpha, 3))
    assert state.amps[index(dims, (0, 2))] == pytest.approx(
        -alpha ** 2 / np.sqrt(2) / root_norm, abs=1e-12)
    assert abs(state.amps[index(dims, (2, 0))]) <= 1e-12


def test_evolved_three_level_concurrence_formula():
    alpha = 0.3
    norm = leveled_norm_sq(alpha, 3)
    for gt in np.linspace(0.0, np.pi / 2, 25):
        c = concurrence_pure(evolved_leveled_state(alpha, 3, gt)).value
        formula = (alpha ** 3 * abs(np.sin(2 * gt))
                   * np.sqrt(8 + 0.5 * alpha ** 2 * (13 + 3 * np.cos(4 * gt)))
                   / (4 * norm))
        assert c == pytest.approx(formula, abs=1e-12)


def mp_leveled_concurrence(alpha, n, gt, dps):
    """Arbitrary-precision oracle: C = 2 sqrt(e2) / w from the Gram matrix.

    Level n of the input, alpha^n / sqrt(n!), is spread over the block
    k + m = n by the exchange evolution with binomial weights
    sqrt(C(n, k)) cos^k (i sin)^m.  From the coefficient matrix c_km it forms
    G = c c^dag and e2 = (Tr(G)^2 - Tr(G^2)) / 2, a difference that cancels
    catastrophically for small amplitudes; ``dps`` digits absorb that.
    """
    with mp.workdps(dps):
        al = mp.mpmathify(complex(alpha))
        c, s = mp.cos(gt), mp.sin(gt)
        coeff = [[al ** (k + m) / mp.sqrt(mp.factorial(k + m))
                  * mp.sqrt(mp.binomial(k + m, k)) * c ** k * (1j * s) ** m
                  if k + m < n else mp.mpc(0) for m in range(n)] for k in range(n)]
        gram = [[mp.fsum(coeff[i][m] * mp.conj(coeff[j][m]) for m in range(n))
                 for j in range(n)] for i in range(n)]
        t1 = mp.re(mp.fsum(gram[i][i] for i in range(n)))
        t2 = mp.fsum(abs(gram[i][j]) ** 2 for i in range(n) for j in range(n))
        return float(2 * mp.sqrt(max((t1 ** 2 - t2) / 2, 0)) / t1)


def test_mp_path_matches_float_path():
    for alpha, n, gt in [(0.3, 3, 0.6), (0.5, 5, 1.1), (0.2, 4, np.pi / 4)]:
        c_float = _leveled_concurrence(alpha, n, [gt])[0]
        c_mp = mp_leveled_concurrence(alpha, n, gt, 40)
        assert c_mp == pytest.approx(c_float, rel=1e-12, abs=0.0)


def test_closed_form_matches_mp_oracle_small_alpha():
    # far below double precision in |alpha|^N: the old arbitrary-precision
    # regime, and at alpha = 1e-10, N = 20 an e2 of order 1e-400 that only
    # the |alpha|^{2N} scaling keeps from underflowing
    cases = [(1e-3, n) for n in range(2, 10)] + [(1e-10, 20)]
    for alpha, n in cases:
        digits = 30 + math.ceil(2 * n * math.log10(1.0 / alpha))
        gts = [0.3, np.pi / 4, 1.2]
        closed = _leveled_concurrence(alpha, n, gts)
        for gt, value in zip(gts, closed):
            expected = mp_leveled_concurrence(alpha, n, gt, digits)
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.05, 1.5), n=st.integers(2, 8), gt=st.floats(0.0, np.pi / 2))
def test_closed_form_matches_svd_route(alpha, n, gt):
    assume(alpha ** n >= 1e-8)
    closed = _leveled_concurrence(alpha, n, [gt])[0]
    svd = concurrence_pure(evolved_leveled_state(alpha, n, gt)).value
    # the SVD route has an absolute round-off floor near 1e-15: at gt = 0
    # it reads ~3e-16 where the closed form is exactly 0
    assert closed == pytest.approx(svd, rel=1e-10, abs=1e-14)


# --- peak concurrence and leading coefficients -----------------------------------

def test_max_concurrence_two_levels():
    assert max_concurrence(0.3, 2) == pytest.approx(0.09 / 1.09, abs=1e-12)


def test_max_concurrence_three_levels():
    expected = 0.3 ** 3 * np.sqrt(8 + 5 * 0.09) / (4 * leveled_norm_sq(0.3, 3))
    assert expected == pytest.approx(0.017934735, abs=5e-10)
    assert max_concurrence(0.3, 3) == pytest.approx(expected, abs=1e-12)


def test_max_concurrence_sine_modulation():
    # global |sin 2gt| factor for three levels; dividing it out leaves the
    # slowly varying root factor, bounded by its values at gt = pi/4 and 0
    alpha = 0.4
    norm = leveled_norm_sq(alpha, 3)
    low = alpha ** 3 * np.sqrt(8 + 5 * alpha ** 2) / (4 * norm)
    high = alpha ** 3 * np.sqrt(8 + 8 * alpha ** 2) / (4 * norm)
    assert max_concurrence(alpha, 3) == pytest.approx(low, abs=1e-12)
    for gt in np.linspace(0.05, np.pi / 2 - 0.05, 9):
        c = concurrence_pure(evolved_leveled_state(alpha, 3, gt)).value
        modulated = c / abs(np.sin(2 * gt))
        assert low - 1e-12 <= modulated <= high + 1e-12


def test_max_concurrence_rejects_zero_alpha():
    with pytest.raises(ValueError):
        max_concurrence(0.0, 3)


def test_max_concurrence_grid_check_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(entanglement, "PEAK_TOL", -1.0)
    with pytest.raises(ConvergenceError):
        max_concurrence(0.3, 3)


def test_max_concurrence_decreases_with_levels():
    for alpha in (0.1, 0.3, 0.5, 0.8):
        values = [max_concurrence(alpha, n) for n in range(2, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_successive_ratio_matches_reference():
    alpha = 1e-2
    values = {n: max_concurrence(alpha, n) for n in range(2, 8)}
    for n in range(2, 7):
        ratio = values[n + 1] / values[n]
        predicted = alpha * FN_REFERENCE[n + 1] / FN_REFERENCE[n]
        assert ratio == pytest.approx(predicted, rel=1e-2)


def test_leading_coefficient_table():
    for n, reference in FN_REFERENCE.items():
        assert leading_coefficient(n) == pytest.approx(reference, rel=1e-14, abs=0.0)
