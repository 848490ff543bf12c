from itertools import product

import numpy as np
import pytest

from excitonsim.hilbert import (
    EIG_TOL,
    TRACE_TOL,
    DensityMatrix,
    DimensionError,
    FockVector,
    ModeDims,
    ModeOperator,
    check_density,
)
from reference import (
    annihilation,
    apply,
    assembled,
    basis_state,
    dag,
    embed,
    identity,
    index,
    number_operator,
    tensor,
    total_number,
)


def test_mode_dims_roundtrip():
    md = ModeDims((2, 3, 4))
    assert md.total == 24
    # flat indices enumerate the occupations in row-major order
    for flat, occ in enumerate(product(*map(range, md.dims))):
        assert index(md, occ) == flat
    # mode 0 is the slowest index
    assert index(md, (1, 0, 0)) == 12
    assert index(md, (0, 0, 1)) == 1


def test_mode_dims_validation():
    with pytest.raises(DimensionError):
        ModeDims(())
    with pytest.raises(DimensionError):
        ModeDims((2, 0))
    with pytest.raises(DimensionError):
        index(ModeDims((3,)), (3,))


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
    n = dag(a).mat @ a.mat
    assert np.allclose(np.diag(n).real, [0, 1, 2, 3], atol=1e-12)
    assert np.allclose(n, number_operator(4).mat, atol=1e-12)


def test_number_spectrum_exact():
    for dim in (2, 3, 5, 9):
        a = annihilation(dim).mat
        n = a.conj().T @ a
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
    out = apply(a_i, basis_state((2, 2), (1, 0)))
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


def test_fock_vector_rejects_nan():
    with pytest.raises(ValueError, match="deviates from 1"):
        FockVector((2,), [np.nan, 0])


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
    negative = np.diag([1.5, -0.5]).astype(complex)
    check_density([np.stack([good, good])], 1.0, 1.0)
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density([np.stack([good, negative])], 1.0, 1.0)
    # per-member trace bounds, and the error type is the caller's
    with pytest.raises(ArithmeticError, match="trace drift"):
        check_density([np.stack([good, good / 2])], [0.0, 0.6], [1.0, 1.0],
                      error=ArithmeticError)
    check_density([np.stack([good, good / 2])], 0.0, [1.0, 0.5])
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density([np.stack([good, negative, good / 2])], 1.0, 1.0)
    with pytest.raises(ValueError, match="trace drift"):
        check_density([np.stack([good, good / 2, negative])], 1.0, 1.0)
    with pytest.raises(ValueError, match="trace drift"):
        check_density([np.stack([good, np.full((2, 2), np.nan)])], 1.0, 1.0)


def test_density_matrix_checks_hermiticity_first():
    # Hermiticity is checked on construction, before trace and positivity;
    # NaN entries fail it too
    non_hermitian = np.array([[0.5, 0.5j], [0.5j, 0.5]])
    for mat in (non_hermitian, np.array([[1.5, 0.5j], [0.5j, -0.5]]),
                np.array([[0.5, 0.0], [1e-6, 0.6]]), np.full((2, 2), np.nan)):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix((2,), mat)
    DensityMatrix((2,), np.array([[0.5, 0.5j], [-0.5j, 0.5]]))


def rotated_state(smallest):
    """A unit-trace 4x4 Hermitian matrix with eigenvalues 0.6, 0.4 -
    smallest, 0 and smallest, in a seeded random basis."""
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4, 2)) @ [1, 1j])
    mat = (q * [0.6, 0.4 - smallest, 0.0, smallest]) @ q.conj().T
    return (mat + mat.conj().T) / 2


def test_check_density_eigenvalue_threshold():
    # positivity holds down to -EIG_TOL: a state at half of it below zero
    # passes, one at twice it raises
    for smallest in (0.0, -0.5 * EIG_TOL):
        check_density([rotated_state(smallest)[None]], 1.0, 1.0)
        DensityMatrix((4,), rotated_state(smallest))
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density([rotated_state(-2 * EIG_TOL)[None]], 1.0, 1.0)
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix((4,), rotated_state(-2 * EIG_TOL))


def test_check_density_checks_every_chunk():
    # positivity is checked in chunks of 0.5 MB, 2 048 4x4 states: a
    # negative member in the third chunk is found, and a later one with a
    # drifting trace does not decide the error
    stack = np.stack([rotated_state(0.0)] * 5000)
    check_density([stack], 1.0, 1.0)
    stack[4500] = rotated_state(-2 * EIG_TOL)
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density([stack], 1.0, 1.0)
    stack[4900, 1, 1] += 1e-6
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density([stack], 1.0, 1.0)
    stack[4500] = rotated_state(0.0)
    with pytest.raises(ValueError, match="trace drift"):
        check_density([stack], 1.0, 1.0)


def class_blocks(points, smallest=0.0, seed=7):
    """Blocks of a state on 9 basis states in classes {4}, {0, 2, 7} and
    {1, 3, 5, 6, 8}, at ``points`` time points: in a seeded random basis per
    block and point, with weights 0.2, 0.3 and 0.5 and the block of class 1
    at the last point given the eigenvalue ``smallest``."""
    rng = np.random.default_rng(seed)
    classes = [np.array([4]), np.array([0, 2, 7]), np.array([1, 3, 5, 6, 8])]
    blocks = []
    for states, weight in zip(classes, (0.2, 0.3, 0.5)):
        b, stack = len(states), []
        for t in range(points):
            q, _ = np.linalg.qr(rng.normal(size=(b, b, 2)) @ [1, 1j])
            values = rng.random(b)
            values *= weight / values.sum()
            if b == 3 and t == points - 1:
                values[0], values[1] = smallest, values[1] + values[0] - smallest
            mat = (q * values) @ q.conj().T
            stack.append((mat + mat.conj().T) / 2)
        blocks.append(np.array(stack))
    return classes, blocks


@pytest.mark.parametrize("smallest", [0.0, -0.5 * EIG_TOL, -2 * EIG_TOL, -1e-3])
def test_check_density_by_class_agrees_with_eigvalsh(smallest):
    # class by class, and for DensityMatrix on its whole matrix, a state
    # passes exactly when eigvalsh of the assembled 9 x 9 matrix finds no
    # eigenvalue below -EIG_TOL
    classes, blocks = class_blocks(4, smallest)
    full = assembled(list(zip(classes, blocks)), 9, 4)
    positive = np.linalg.eigvalsh(full).min() >= -EIG_TOL
    assert positive == (smallest >= -EIG_TOL)
    if positive:
        check_density(blocks, 1.0, 1.0)
        DensityMatrix((9,), full[-1])
    else:
        with pytest.raises(ValueError, match="eigenvalue"):
            check_density(blocks, 1.0, 1.0)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix((9,), full[-1])
    check_density([block[:-1] for block in blocks], 1.0, 1.0)


def test_check_density_sums_the_trace_over_classes():
    # a drift of 0.6e-12 in each of two classes is within TRACE_TOL for
    # either, but their sum, 1.2e-12, is not; the assembled trace agrees
    classes, blocks = class_blocks(3)
    for k in (0, 2):
        blocks[k][1, 0, 0] += 0.6e-12
    assert abs(np.trace(assembled(list(zip(classes, blocks)), 9, 3)[1]).real - 1.0) > TRACE_TOL
    check_density(blocks[:2], 0.5, 0.5)
    check_density(blocks[1:], 0.8, 0.8)
    with pytest.raises(ValueError, match="trace drift"):
        check_density(blocks, 1.0, 1.0)
    check_density([block[::2] for block in blocks], 1.0, 1.0)


def test_operator_flags_verified():
    with pytest.raises(ValueError):
        ModeOperator((2,), np.array([[0, 1], [0, 0]]), hermitian=True)
    with pytest.raises(ValueError):
        ModeOperator((2,), 2 * np.eye(2), unitary=True)


def test_mode_operator_rejects_nan_hermitian():
    with pytest.raises(ValueError, match="hermitian"):
        ModeOperator((2,), [[np.nan, 0], [0, 0]], hermitian=True)


def test_embed_single_mode():
    n1 = embed(number_operator(3), (2, 3), 1)
    expected = np.kron(np.eye(2), np.diag([0, 1, 2]))
    assert np.allclose(n1.mat, expected, atol=1e-15)
    assert total_number(ModeDims((2, 2)))[3] == 2
