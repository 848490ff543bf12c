"""Independent reference constructions that the tests check the package
against.  They live outside ``src/`` so that an oracle never shares code with
what it checks."""

import numpy as np
import scipy.sparse

from excitonsim.hilbert import ModeOperator


def kron_liouvillian(spec) -> scipy.sparse.csr_matrix:
    """Sparse superoperator of a ``LindbladSpec`` on row-major vec(rho),
    summed from ``scipy.sparse.kron`` products: by vec(A rho B) = (A kron
    B^T) vec(rho) it is -i(H_eff kron I) + i(I kron H_eff*) + sum of c kron
    c* over jumps, with H_eff = H - (i/2) sum c^dag c over jumps and
    losses."""
    eye = scipy.sparse.identity(spec.hamiltonian.dims.total, format="csr")

    def kron(a, b):
        return scipy.sparse.kron(a, b, format="csr")

    ops = [scipy.sparse.csr_matrix(np.sqrt(rate) * op.mat)
           for rate, op in spec.jumps + spec.losses]
    h_eff = scipy.sparse.csr_matrix(spec.hamiltonian.mat)
    for c in ops:
        h_eff = h_eff - 0.5j * (c.conj().T @ c)
    liou = -1j * kron(h_eff, eye) + 1j * kron(eye, h_eff.conj())
    for c in ops[:len(spec.jumps)]:
        liou += kron(c, c.conj())
    return liou.tocsr()


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
