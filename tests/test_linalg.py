import numpy as np
import pytest
import scipy.sparse as sp

from qri.errors import Breakdown, NoConvergence, SingularMatrix, ZeroVector
from qri.linalg import (
    LUSolver,
    OrthonormalBasis,
    dense_eig,
    project_out,
    sin_angle,
    smallest_singular_vector,
    spmv,
)
from conftest import rand_complex


def test_spmv_matches_dense(rng):
    A = sp.random(40, 40, density=0.2, random_state=7, format="csr")
    A = sp.csr_array(A + 1j * sp.random(40, 40, density=0.2, random_state=8, format="csr"))
    x = rand_complex(rng, 40)
    assert np.allclose(spmv(A, x), A.toarray() @ x, atol=1e-14)


def test_spmv_shape_mismatch(rng):
    A = sp.csr_array(np.eye(4))
    with pytest.raises(ValueError):
        spmv(A, np.ones(5))


def test_lu_round_trip(rng):
    A = rand_complex(rng, 30 * 30).reshape(30, 30) + 30.0 * np.eye(30)
    x_true = rand_complex(rng, 30)
    x = LUSolver(A).solve(A @ x_true)
    assert np.linalg.norm(x - x_true) <= 1e-12 * np.linalg.norm(x_true)


def test_lu_solver_reuse(rng):
    A = rand_complex(rng, 100).reshape(10, 10) + 10.0 * np.eye(10)
    lu = LUSolver(A)
    for _ in range(3):
        b = rand_complex(rng, 10)
        assert np.linalg.norm(A @ lu.solve(b) - b) <= 1e-12 * np.linalg.norm(b)


def test_lu_sparse_input_matches_dense(rng):
    # a sparse matrix is densified inside and factored in place, with the
    # pivot scale from its stored entries: the same factors as from the
    # dense matrix, and the same singular-pivot decision
    A = sp.random_array((40, 40), density=0.2, rng=rng, dtype=complex)
    A = sp.csr_array(A + 4.0 * sp.eye_array(40))
    data = A.data.copy()
    sparse, dense = LUSolver(A), LUSolver(A.toarray())
    assert np.array_equal(sparse._lu, dense._lu)
    assert np.array_equal(sparse._piv, dense._piv)
    assert np.array_equal(A.data, data)
    with pytest.raises(SingularMatrix):
        LUSolver(sp.csr_array(np.ones((3, 3), dtype=complex)))


def test_lu_sparse_branch_singular_pivots():
    # SuperLU's exactly singular factor and a pivot at most
    # LU_PIVOT_RTOL * max|A| both raise, as in the dense branch
    with pytest.raises(SingularMatrix):
        LUSolver(sp.csr_array(np.ones((3, 3), dtype=complex)), sparse=True)
    tiny = sp.csr_array(np.diag([1.0, 1e-301]).astype(complex))
    for sparse in (True, False):
        with pytest.raises(SingularMatrix):
            LUSolver(tiny, sparse=sparse)
    A = sp.csr_array(np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex))
    assert np.allclose(LUSolver(A, sparse=True).solve([1.0, 2.0]), [0.2, 0.6])


@pytest.mark.filterwarnings("error")
def test_lu_singular_raises():
    A = np.zeros((3, 3), dtype=complex)
    A[0, 0] = 1.0
    with pytest.raises(SingularMatrix):
        LUSolver(A)


@pytest.mark.filterwarnings("error")
def test_lu_exactly_singular_raises():
    # elimination produces an exact zero pivot; near-singular matrices
    # with rounding-level pivots are deliberately let through (the
    # shift-invert path relies on factoring nearly singular matrices).
    # The named error comes without scipy's zero-pivot warning.
    A = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularMatrix):
        LUSolver(A)


def test_dense_eig_companion_roots():
    # construct-then-recover: eigenvalues of a companion matrix are the
    # polynomial roots, here z^6 with roots 1..6
    roots = np.arange(1.0, 7.0)
    C = np.zeros((6, 6), dtype=complex)
    C[1:, :-1] = np.eye(5)
    C[:, -1] = -np.poly(roots)[1:][::-1]
    lam, VL, V = dense_eig(C)
    assert np.allclose(sorted(lam.real), roots, atol=1e-8)
    assert np.allclose(dense_eig(C, vectors=False), lam, rtol=1e-12, atol=0.0)
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-13)
    assert np.allclose(np.linalg.norm(VL, axis=0), 1.0, atol=1e-13)
    for i in range(6):
        assert np.linalg.norm(C @ V[:, i] - lam[i] * V[:, i]) <= 1e-8
        assert np.linalg.norm(VL[:, i].conj() @ C - lam[i] * VL[:, i].conj()) <= 1e-8


def test_smallest_singular_vector_recovers(rng):
    # build a tall matrix with a known, well separated smallest direction
    n, k = 20, 6
    U, _ = np.linalg.qr(rand_complex(rng, n * k).reshape(n, k))
    Vh, _ = np.linalg.qr(rand_complex(rng, k * k).reshape(k, k))
    s = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 1e-6])
    A = U @ np.diag(s) @ Vh.conj().T
    v = smallest_singular_vector(A)
    target = Vh[:, -1]
    assert sin_angle(target, v) <= 1e-9
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-13


def test_basis_append_and_defect(rng):
    basis = OrthonormalBasis(50)
    for _ in range(30):
        basis.append(rand_complex(rng, 50))
    assert basis.k == 30
    assert basis.orthonormality_defect() <= 1e-13
    assert basis.matrix.shape == (50, 30)


def test_basis_many_appends_with_breakdowns(rng):
    # dim 100, 200 candidate vectors: once the basis is full every
    # further candidate must break down
    n = 100
    basis = OrthonormalBasis(n)
    breakdowns = 0
    for _ in range(200):
        try:
            basis.append(rand_complex(rng, n))
        except Breakdown:
            breakdowns += 1
    assert basis.k == n
    assert breakdowns == 100
    assert basis.orthonormality_defect() <= 1e-12


def test_basis_rejects_dependent_vector(rng):
    basis = OrthonormalBasis(10)
    v = rand_complex(rng, 10)
    basis.append(v)
    with pytest.raises(Breakdown):
        basis.append(1e-17 * v)


def test_basis_zero_vector(rng):
    basis = OrthonormalBasis(5)
    with pytest.raises(ZeroVector):
        basis.append(np.zeros(5, dtype=complex))


def test_basis_project_out(rng):
    basis = OrthonormalBasis(20)
    for _ in range(5):
        basis.append(rand_complex(rng, 20))
    x = rand_complex(rng, 20)
    r = project_out(basis.matrix, x)
    assert np.max(np.abs(basis.matrix.conj().T @ r)) <= 1e-13 * np.linalg.norm(x)
    # reference: two modified Gram-Schmidt sweeps, one column at a time;
    # the summation order differs, so equal to rounding only
    ref = x.copy()
    for _ in range(2):
        for i in range(basis.k):
            ref -= np.vdot(basis.matrix[:, i], ref) * basis.matrix[:, i]
    assert np.linalg.norm(r - ref) <= 1e-14 * np.linalg.norm(x)
    # the component outside the span is left untouched
    assert np.linalg.norm(project_out(basis.matrix, r) - r) <= 1e-13 * np.linalg.norm(r)
    # an empty basis projects nothing out
    assert np.array_equal(project_out(basis.matrix[:, :0], x), x)


def test_project_out_tiny_remainder(rng):
    # a remainder 1e-10 times smaller than x: one pass leaves it about
    # 1e-6 out of orthogonality, the second pass restores eps level
    n = 60
    V, _ = np.linalg.qr(rand_complex(rng, n * 8).reshape(n, 8))
    q = project_out(V, rand_complex(rng, n))
    q /= np.linalg.norm(q)
    x = V @ rand_complex(rng, 8) + 1e-10 * q
    r = project_out(V, x)
    assert np.max(np.abs(V.conj().T @ r)) <= 1e-13 * np.linalg.norm(r)
    assert np.linalg.norm(r - 1e-10 * q) <= 1e-14 * np.linalg.norm(x)


def test_basis_append_returns_unit_column(rng):
    basis = OrthonormalBasis(15)
    u = rand_complex(rng, 15)
    v = basis.append(u)
    assert basis.k == 1
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-13
    assert np.array_equal(basis.matrix[:, 0], v)
    assert sin_angle(u, v) <= 1e-14


def test_basis_append_columns_in_order(rng):
    # appending columns in order spans the same leading subspaces,
    # including across the growth of the preallocated block
    cols = rand_complex(rng, 12 * 4).reshape(12, 4)
    basis = OrthonormalBasis(12, capacity=2)
    for j in range(4):
        basis.append(cols[:, j])
    assert basis.k == 4
    assert basis.orthonormality_defect() <= 1e-13
    for j in range(4):
        r = project_out(basis.matrix[:, : j + 1], cols[:, j])
        assert np.linalg.norm(r) <= 1e-13 * np.linalg.norm(cols[:, j])


def test_sin_angle_vector_phase_invariant(rng):
    a = rand_complex(rng, 25)
    b = rand_complex(rng, 25)
    s0 = sin_angle(b, a)
    s1 = sin_angle(b * 3.0, a * np.exp(1j * 0.7))
    assert abs(s0 - s1) <= 1e-13


def test_sin_angle_vector_extremes(rng):
    a = rand_complex(rng, 8)
    assert sin_angle(2j * a, a) <= 1e-13
    e1 = np.zeros(8, dtype=complex)
    e2 = np.zeros(8, dtype=complex)
    e1[0] = 1.0
    e2[1] = 1.0
    assert abs(sin_angle(e2, e1) - 1.0) <= 1e-13


def test_sin_angle_basis_matrix_and_vector_agree(rng):
    u = rand_complex(rng, 25)
    x = rand_complex(rng, 25)
    basis = OrthonormalBasis(25)
    basis.append(u)
    s = sin_angle(basis, x)
    assert sin_angle(basis.matrix, x) == s
    # a single vector is normalized, whatever its length
    assert sin_angle(7.0j * u, x) == pytest.approx(s, rel=1e-14)
    assert 0.0 < s < 1.0


def test_sin_angle_rejects_zero_vectors(rng):
    x = rand_complex(rng, 6)
    zero = np.zeros(6, dtype=complex)
    with pytest.raises(ZeroVector):
        sin_angle(zero, x)
    with pytest.raises(ZeroVector):
        sin_angle(x, zero)
    with pytest.raises(ZeroVector):
        sin_angle(OrthonormalBasis(6), zero)
