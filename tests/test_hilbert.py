import numpy as np
import pytest

from excitonsim.hilbert import (
    DensityMatrix,
    DimensionError,
    FockVector,
    ModeDims,
    ModeOperator,
    annihilation,
    basis_state,
    check_density,
    creation,
    displacement,
    embed,
    identity,
    number_operator,
    partial_trace,
    purity,
    tensor,
    total_number_operator,
)
from excitonsim.states import leveled_coherent


def test_mode_dims_roundtrip():
    md = ModeDims((2, 3, 4))
    assert md.total == 24
    for flat in range(md.total):
        assert md.index(md.occupations(flat)) == flat
    # mode 0 is the slowest index
    assert md.index((1, 0, 0)) == 12
    assert md.index((0, 0, 1)) == 1


def test_mode_dims_validation():
    with pytest.raises(DimensionError):
        ModeDims(())
    with pytest.raises(DimensionError):
        ModeDims((2, 0))
    with pytest.raises(DimensionError):
        ModeDims((3,)).index((3,))


def test_annihilation_qubit():
    a = annihilation(2)
    assert np.array_equal(a.mat, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_sqrt_rule():
    a = annihilation(3)
    assert a.mat[1, 2] == pytest.approx(np.sqrt(2))
    with pytest.raises(DimensionError):
        annihilation(1)


def test_number_operator_from_ladder():
    a = annihilation(4)
    n = (a.dag() @ a).mat
    assert np.allclose(np.diag(n).real, [0, 1, 2, 3], atol=1e-12)
    assert np.allclose(n, number_operator(4).mat, atol=1e-12)


def test_number_spectrum_exact():
    for dim in (2, 3, 5, 9):
        n = (creation(dim) @ annihilation(dim)).mat
        evals = np.sort(np.linalg.eigvalsh(n))
        assert np.allclose(evals, np.arange(dim), atol=1e-12)


def test_tensor_basis_bookkeeping():
    one = basis_state((2,), (1,))
    zero = basis_state((2,), (0,))
    prod = tensor(one, zero)
    assert np.array_equal(prod.amps, [0, 0, 1, 0])


def test_tensor_identity():
    assert np.array_equal(tensor(identity(2), identity(2)).mat, np.eye(4))


def test_tensor_operator_action():
    a_i = tensor(annihilation(2), identity(2))
    out = a_i.apply(basis_state((2, 2), (1, 0)))
    assert np.allclose(out.amps, basis_state((2, 2), (0, 0)).amps, atol=1e-15)


def test_tensor_kind_mismatch():
    with pytest.raises(TypeError):
        tensor(basis_state((2,), (0,)), identity(2))


def test_tensor_associative():
    rng = np.random.default_rng(3)
    for _ in range(5):
        vecs = []
        for d in (2, 3, 2):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            vecs.append(FockVector((d,), v / np.linalg.norm(v)))
        x, y, z = vecs
        left = tensor(tensor(x, y), z)
        right = tensor(x, tensor(y, z))
        assert left.dims == right.dims
        assert np.allclose(left.amps, right.amps, atol=1e-15)


def test_fock_vector_norm_guard():
    with pytest.raises(ValueError):
        FockVector((2,), np.array([1.0, 1.0]))
    v = FockVector((2,), np.array([1.0, 1.0]), normalized=False)
    assert v.normalize().norm() == pytest.approx(1.0)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[0.5, 0.5j], [0.5j, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))
    DensityMatrix((2,), np.diag([0.25, 0.25]), subnormalized=True)


def test_check_density_rejects_bad_stack_member():
    # a stack is judged state by state: a bad last member is found, and the
    # first bad member decides the error
    good = np.diag([0.5, 0.5]).astype(complex)
    non_hermitian = np.array([[0.5, 0.5j], [0.5j, 0.5]])
    negative = np.diag([1.5, -0.5]).astype(complex)
    check_density(np.stack([good, good]), 1.0, 1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        check_density(np.stack([good, non_hermitian]), 1.0, 1.0)
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density(np.stack([good, negative]), 1.0, 1.0)
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density(np.stack([good, negative, non_hermitian]), 1.0, 1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        check_density(np.stack([good, non_hermitian, negative]), 1.0, 1.0)
    # per-member trace bounds, and the error type is the caller's
    with pytest.raises(ArithmeticError, match="trace drift"):
        check_density(np.stack([good, good / 2]), [0.0, 0.6], [1.0, 1.0],
                      error=ArithmeticError)
    check_density(np.stack([good, good / 2]), 0.0, [1.0, 0.5])
    with pytest.raises(ValueError, match="Hermitian"):
        check_density(np.stack([good, np.full((2, 2), np.nan)]), 1.0, 1.0)


def test_operator_flags_verified():
    with pytest.raises(ValueError):
        ModeOperator((2,), np.array([[0, 1], [0, 0]]), hermitian=True)
    with pytest.raises(ValueError):
        ModeOperator((2,), 2 * np.eye(2), unitary=True)


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


def test_unitary_flag_enforced_on_displacement():
    d = displacement(0.4 + 0.2j, 12)
    defect = np.max(np.abs(d.mat.conj().T @ d.mat - np.eye(12)))
    assert defect <= 1e-10


def test_displacement_generates_coherent_state():
    alpha, dim = 0.3, 16
    vac = basis_state((dim,), (0,))
    disp = displacement(alpha, dim).apply(vac).normalize()
    target = leveled_coherent(alpha, dim)
    assert abs(disp.overlap(target)) == pytest.approx(1.0, abs=1e-10)


def test_embed_single_mode():
    n1 = embed(number_operator(3), (2, 3), 1)
    expected = np.kron(np.eye(2), np.diag([0, 1, 2]))
    assert np.allclose(n1.mat, expected, atol=1e-15)
    assert total_number_operator((2, 2)).mat[3, 3] == 2
