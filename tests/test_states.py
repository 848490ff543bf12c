import math

import numpy as np
import pytest
from scipy.special import gammainc

from excitonsim.hilbert import DimensionError
from excitonsim.states import TruncationError, coherent_tail, leveled_norm_sq, min_coherent_dim
from reference import coherent_truncated, fock, leveled_coherent


def test_fock_basics():
    assert np.array_equal(fock(2, 1).amps, [0, 1])
    assert np.array_equal(fock(3, 0).amps, [1, 0, 0])
    with pytest.raises(ValueError):
        fock(3, 3)


def test_fock_number_expectation():
    from reference import annihilation

    psi = fock(5, 3)
    a = annihilation(5).mat
    n_op = a.conj().T @ a
    assert np.vdot(psi.amps, n_op @ psi.amps).real == pytest.approx(3.0, abs=1e-12)


def test_coherent_vacuum_limit():
    psi = coherent_truncated(0.0, 4)
    assert np.allclose(psi.amps, [1, 0, 0, 0], atol=1e-15)


def test_coherent_amplitude_ratio():
    psi = coherent_truncated(0.2, 8)
    assert psi.amps[1] / psi.amps[0] == pytest.approx(0.2, abs=1e-14)


def test_coherent_single_excitation_probability():
    # Poisson weight exp(-0.04) * 0.04 evaluated directly
    psi = coherent_truncated(0.2, 12)
    expected = math.exp(-0.04) * 0.04
    assert expected == pytest.approx(0.038431577566, abs=1e-12)
    assert abs(psi.amps[1]) ** 2 == pytest.approx(expected, abs=1e-12)


def test_coherent_tail_guard():
    with pytest.raises(TruncationError) as err:
        coherent_truncated(1.5, 4, tail_tol=1e-12)
    assert err.value.tail > 1e-12
    with pytest.raises(DimensionError):
        coherent_truncated(0.1, 1)


def test_min_coherent_dim_is_minimal():
    for alpha in (0.1, 0.3, 0.7):
        dim = min_coherent_dim(alpha)
        assert coherent_tail(alpha, dim) <= 1e-12
        assert dim == 2 or coherent_tail(alpha, dim - 1) > 1e-12


def test_coherent_tail_matches_incomplete_gamma():
    # the Poisson tail P(n >= dim) is the regularized lower incomplete gamma
    # function P(dim, |alpha|^2): the summed tail agrees with it to 1e-12
    # relative wherever it is representable, and so picks the same cutoffs
    alphas = np.linspace(0.0, 4.0, 2001)[1:]
    for alpha in alphas:
        for dim in range(1, 40):
            expected = gammainc(dim, alpha ** 2)
            if expected > 1e-300:
                assert coherent_tail(alpha, dim) == pytest.approx(expected, rel=1e-12,
                                                                  abs=0.0)
        oracle_dim = 2
        while gammainc(oracle_dim, alpha ** 2) > 1e-12:
            oracle_dim += 1
        assert min_coherent_dim(alpha) == oracle_dim
    assert coherent_tail(0.0, 3) == 0.0
    # far beyond the grid the first terms underflow, yet the tail is not lost
    assert coherent_tail(30.0, 2) == pytest.approx(gammainc(2, 900.0), rel=1e-12)
    assert coherent_tail(30.0, 900) == pytest.approx(gammainc(900, 900.0), rel=1e-12)
    assert min_coherent_dim(30.0) == 1120


def test_leveled_single_level_is_vacuum():
    psi = leveled_coherent(2.7, 1)
    assert np.array_equal(psi.amps, [1])


def test_leveled_three_level_pattern():
    alpha = 0.3
    psi = leveled_coherent(alpha, 3)
    ratio = psi.amps / psi.amps[0]
    assert np.allclose(ratio, [1, alpha, alpha ** 2 / np.sqrt(2)], atol=1e-14)


def test_leveled_norm_sq_value():
    assert leveled_norm_sq(0.3, 3) == pytest.approx(1.09405, abs=1e-12)
    assert leveled_norm_sq(0.0, 5) == 1.0


def test_leveled_norm_sq_exponential_limit():
    alpha = 0.8
    assert leveled_norm_sq(alpha, 40) == pytest.approx(math.exp(alpha ** 2), rel=1e-13)


def test_leveled_equals_renormalized_truncation():
    for alpha in (0.1, 0.4 + 0.2j, 0.9):
        for n in (2, 4, 7):
            lc = leveled_coherent(alpha, n)
            raw = np.array([alpha ** k / math.sqrt(math.factorial(k)) for k in range(n)])
            raw /= np.linalg.norm(raw)
            assert np.allclose(lc.amps, raw, atol=1e-12)


def test_leveled_overlap_convergence():
    for alpha in (0.2, 0.5):
        for n in (8, 10, 12):
            ov = abs(np.vdot(
                np.pad(leveled_coherent(alpha, n).amps, (0, 1)),
                leveled_coherent(alpha, n + 1).amps,
            ))
            assert ov >= 1 - 1e-6
