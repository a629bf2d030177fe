import numpy as np
import pytest
import scipy.sparse as sp

from qri import QepProblem, example1, full_eig, q_apply, q_prime_apply
from qri.errors import SingularMatrix
from qri.linalg import LUSolver
from qri.qep import (
    dense_cap,
    finite_order,
    read_problem,
    relative_residual,
    residual_denominator,
    shift_invert,
    shifted_matrix,
    write_problem,
)
from conftest import rand_complex

# values computed once from the 3x3 model problem and pinned
Q_AT_09 = np.array([
    [1.9, -0.54, 0.0],
    [1.8, -0.44, 0.0],
    [0.0, 0.0, 1.81],
])
E_EIGENVALUES = (10.0, 0.7352941176470588, 0.5524861878453039)
E_DOMINANT = np.array([0.28734788556634556, 0.9578262852211519, 0.0])


def test_problem_canonicalization():
    # duplicates summed, explicit zeros dropped, complex128 everywhere
    M = sp.coo_array(
        (np.array([1.0, 2.0, 0.0]), (np.array([0, 0, 1]), np.array([0, 0, 1]))),
        shape=(2, 2),
    )
    I2 = sp.eye_array(2)
    p = QepProblem(M, I2, I2)
    assert p.M.dtype == np.complex128
    assert p.M.nnz == 1
    assert p.M[0, 0] == 3.0 + 0.0j
    assert p.n == 2


def test_problem_rejects_nonfinite():
    M = sp.csr_array(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    I2 = sp.eye_array(2)
    with pytest.raises(ValueError):
        QepProblem(M, I2, I2)


def test_problem_rejects_nonsquare():
    I23 = sp.csr_array(np.ones((2, 3)))
    I2 = sp.eye_array(2)
    with pytest.raises(ValueError):
        QepProblem(I23, I2, I2)


def test_shifted_matrix_frozen(p_example1):
    Q = shifted_matrix(p_example1, 0.9).toarray()
    assert np.allclose(Q, Q_AT_09, atol=1e-14)


def test_shifted_inverse_spectrum(p_example1):
    # eigenvalues of Q(0.9)^{-1} are 1/(lam_i - 0.9)-like magnitudes for
    # the scalarized triangular structure of this particular problem
    E = np.linalg.inv(shifted_matrix(p_example1, 0.9).toarray())
    eigs = np.sort(np.linalg.eigvals(E).real)[::-1]
    assert np.allclose(eigs, E_EIGENVALUES, atol=1e-9)


def test_shifted_inverse_dominant_vector(p_example1):
    E = np.linalg.inv(shifted_matrix(p_example1, 0.9).toarray())
    w, V = np.linalg.eig(E)
    v = V[:, np.argmax(np.abs(w))]
    v = v / np.linalg.norm(v)
    v = v * np.sign(v[np.argmax(np.abs(v))].real)
    assert np.allclose(v.real, E_DOMINANT, atol=1e-9)
    assert np.max(np.abs(v.imag)) <= 1e-12


def test_lu_column_of_inverse(p_example1):
    Q = shifted_matrix(p_example1, 0.9).toarray()
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    x = LUSolver(Q).solve(e3)
    assert np.allclose(x, [0.0, 0.0, 1.0 / 1.81], atol=1e-14)


def test_q_apply_known_eigenpairs(p_example1):
    # (1, e2) and (1/2, (1,1,0)) are exact eigenpairs
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert np.linalg.norm(q_apply(p_example1, 1.0, e2)) <= 1e-14
    x = np.array([1.0, 1.0, 0.0], dtype=complex)
    assert np.linalg.norm(q_apply(p_example1, 0.5, x)) <= 1e-14


def test_q_prime_apply_frozen(p_example1):
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert np.allclose(q_prime_apply(p_example1, 1.0, e2), [6.0, 5.0, 0.0], atol=1e-14)


def test_damping_action_frozen(p_example1):
    x = np.array([1.0, 1.0, 0.0], dtype=complex)
    assert np.allclose(p_example1.C @ x, [-5.0, -5.0, 0.0], atol=1e-14)


def test_linearize_blocks(p_example1):
    # eigenvectors of the shift-inverted companion matrix are [lam x; x]
    # with Q(lam) x = 0; infinite ones (theta = 0) have an empty lower
    # block
    p = p_example1
    n = p.n
    Md, Cd, Kd = p.densify()
    S, _ = shift_invert(Md, Cd, Kd, 0.9)
    theta, W = np.linalg.eig(S)
    idx, lams, inf_idx = finite_order(theta, 0.9)
    assert len(idx) == 5 and len(inf_idx) == 1
    for i, lam in zip(idx, lams):
        upper, lower = W[:n, i], W[n:, i]
        assert np.linalg.norm(upper - lam * lower) <= 1e-12
        assert np.linalg.norm(q_apply(p, lam, lower)) <= 1e-12 * np.linalg.norm(lower)
    assert np.linalg.norm(W[n:, inf_idx[0]]) <= 1e-12


def test_linearize_scalar_closed_form():
    # n = 1: Q(lam) = 2 lam^2 + 3 lam + 1 has roots -1 and -1/2; the
    # pencil eigenvalues must be exactly those
    one = np.ones((1, 1))
    S, _ = shift_invert(2.0 * one, 3.0 * one, one, 0.0)
    _, lams, _ = finite_order(np.linalg.eigvals(S), 0.0)
    assert np.allclose(np.sort(lams.real), [-1.0, -0.5], atol=1e-12)
    assert np.abs(lams.imag).max() <= 1e-12


def test_shift_invert_identity(p_example1):
    # (A - sigma B) S = B for the companion pencil A = [-C -K; I 0],
    # B = [M 0; 0 I] of the module docstring
    Md, Cd, Kd = p_example1.densify()
    n = p_example1.n
    I, Z = np.eye(n), np.zeros((n, n))
    A = np.block([[-Cd, -Kd], [I, Z]])
    B = np.block([[Md, Z], [Z, I]])
    sigma = 0.9
    S, fsolve = shift_invert(Md, Cd, Kd, sigma)
    assert np.linalg.norm((A - sigma * B) @ S - B) <= 1e-10
    b = np.arange(2 * n, dtype=complex)
    assert np.linalg.norm((A - sigma * B) @ fsolve.solve(b) - b) <= 1e-12


def test_shift_invert_theta_contains_ten(p_example1):
    # lam = 1 at sigma = 0.9 maps to theta = 1/(1 - 0.9) = 10
    S, _ = shift_invert(*p_example1.densify(), 0.9)
    theta = np.linalg.eigvals(S)
    assert np.min(np.abs(theta - 10.0)) <= 1e-8


def test_shift_invert_at_eigenvalue(p_example1):
    with pytest.raises(SingularMatrix):
        shift_invert(*p_example1.densify(), 1.0)


def test_finite_order_ties_and_infinite():
    # lam = sigma + 1/theta; equidistant values tie-break by the phase
    # of lam - sigma (-pi/2 before pi/2), then by position
    theta = np.array([1.0j, 0.0, -1.0j, 0.5, 1.0j])
    idx, lams, inf_idx = finite_order(theta, 2.0)
    assert list(idx) == [0, 4, 2, 3]
    assert np.allclose(lams, [2.0 - 1.0j, 2.0 - 1.0j, 2.0 + 1.0j, 4.0])
    assert list(inf_idx) == [1]


def test_full_eig_dense_cap_guard(monkeypatch, p_example1):
    monkeypatch.setenv("QRI_DENSE_CAP", "4")
    assert dense_cap() == 4
    with pytest.raises(ValueError):
        full_eig(p_example1, 0.9)


def test_residual_denominator(p_example1, rng):
    p = p_example1
    omega = 1.3 - 0.4j
    expected = (
        abs(omega) ** 2 * np.abs(p.M.toarray()).sum(axis=0).max()
        + abs(omega) * np.abs(p.C.toarray()).sum(axis=0).max()
        + np.abs(p.K.toarray()).sum(axis=0).max()
    )
    assert abs(residual_denominator(p, omega) - expected) <= 1e-13 * expected


def test_relative_residual_exact_pair(p_example1):
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert relative_residual(p_example1, 1.0, e2) <= 1e-15


def test_matrix_market_round_trip(tmp_path, rng):
    n = 12
    M = sp.csr_array(sp.random(n, n, density=0.3, random_state=3))
    M = M + 1j * sp.csr_array(sp.random(n, n, density=0.3, random_state=4))
    C = sp.csr_array(sp.random(n, n, density=0.2, random_state=5))
    K = sp.eye_array(n) * (1.0 / 3.0)
    p = QepProblem(M, C, K)
    prefix = str(tmp_path / "trip")
    paths = write_problem(prefix, p)
    assert len(paths) == 3
    q = read_problem(prefix)
    for a, b in ((p.M, q.M), (p.C, q.C), (p.K, q.K)):
        assert a.shape == b.shape
        assert (a != b).nnz == 0  # exact, including 1/3


def test_read_problem_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_problem(str(tmp_path / "nothere"))


def test_example1_infinite_count(p_example1):
    # M is singular with a 2-d kernel complement: exactly one infinite
    # eigenvalue in this 3x3 problem (5 finite ones)
    Md = p_example1.M.toarray()
    assert np.linalg.matrix_rank(Md) == 2
