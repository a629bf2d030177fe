import numpy as np
import pytest
import scipy.linalg as sla

from conftest import rand_complex
from qri import ZeroVector, gmres, wave2d
from qri.gmres import HAPPY_BREAKDOWN_RTOL, RecycleSpace, _givens
from qri.qep import shifted_matrix


def op_from(A):
    return lambda v: A @ v


def reference_gmres(apply_op, b, tol, restart, maxit=500):
    """Restarted GMRES with the Krylov vectors stored as columns and the
    one MGS pass written with numpy: the textbook loop that the row
    storage and in-place BLAS kernel must reproduce.  Returns
    ``(x, iters, resnorms, cycles)`` of the final iterate."""
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    nb = np.linalg.norm(b)
    x = np.zeros(n, dtype=complex)
    r = b.copy()
    total = 0
    resnorms = []
    cycles = []
    while True:
        beta = np.linalg.norm(r)
        if beta / nb <= tol or total >= maxit:
            return x, total, resnorms, cycles
        m = min(restart, maxit - total)
        V = np.zeros((n, m + 1), dtype=complex)
        H = np.zeros((m + 1, m), dtype=complex)
        cs = np.zeros(m)
        sn = np.zeros(m, dtype=complex)
        g = np.zeros(m + 1, dtype=complex)
        g[0] = beta
        V[:, 0] = r / beta
        for j in range(m):
            w = np.array(apply_op(V[:, j]), dtype=complex)
            total += 1
            wnorm = np.linalg.norm(w)
            for i in range(j + 1):
                H[i, j] = np.vdot(V[:, i], w)
                w -= H[i, j] * V[:, i]
            hnext = np.linalg.norm(w)
            happy = hnext <= HAPPY_BREAKDOWN_RTOL * max(wnorm, 1e-300)
            H[j + 1, j] = hnext
            if not happy:
                V[:, j + 1] = w / hnext
            for i in range(j):
                hi, hi1 = H[i, j], H[i + 1, j]
                H[i, j] = cs[i] * hi + sn[i] * hi1
                H[i + 1, j] = -np.conj(sn[i]) * hi + cs[i] * hi1
            cs[j], sn[j] = _givens(H[j, j], H[j + 1, j].real)
            H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
            H[j + 1, j] = 0.0
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] = cs[j] * g[j]
            resnorms.append(float(abs(g[j + 1]) / nb))
            if resnorms[-1] <= tol or happy:
                break
        k = j + 1
        cycles.append(k)
        y = sla.solve_triangular(H[:k, :k], g[:k])
        x = x + V[:, :k] @ y
        r = b - apply_op(x)


def test_givens_with_zero_first_entry():
    # [0; h] is turned into [h; 0] by a pure swap
    c, s = _givens(0.0, 2.5)
    assert (c, s) == (0.0, 1.0)
    assert (c * 0.0 + s * 2.5, -np.conj(s) * 0.0 + c * 2.5) == (2.5, 0.0)


def nonnormal_matrix(rng, n):
    # random complex part plus a superdiagonal: far from normal, and
    # slow enough with restart = 7 to run several cycles
    G = rand_complex(rng, n * n).reshape(n, n) / np.sqrt(n)
    return np.eye(n) + 0.4 * G + 0.6 * np.diag(np.ones(n - 1), 1)


def test_matches_column_storage_reference(rng):
    n = 200
    A = nonnormal_matrix(rng, n)
    b = rand_complex(rng, n)
    res = gmres(op_from(A), b, tol=1e-10, restart=7)
    x, iters, resnorms, cycles = reference_gmres(op_from(A), b, tol=1e-10, restart=7)
    assert res.converged
    assert len(res.cycles) > 3
    assert res.iters == iters
    assert res.cycles == cycles
    # the estimates are relative to norm(b) and carry rounding at the
    # level of eps there, hence the absolute floor for the small late ones
    np.testing.assert_allclose(res.resnorms, resnorms, rtol=1e-10, atol=1e-15)
    assert np.linalg.norm(res.x - x) <= 1e-10 * np.linalg.norm(x)


def test_operator_output_forms(rng):
    # the kernel copies what apply_op returns before updating it in place,
    # so an output that is strided, read-only, a reused buffer or the
    # input itself must give the same bits as a fresh contiguous array
    n = 40
    A = nonnormal_matrix(rng, n)
    b = rand_complex(rng, n)

    def strided(v):
        out = np.empty(2 * n, dtype=complex)
        out[::2] = A @ v
        return out[::2]

    def read_only(v):
        out = A @ v
        out.flags.writeable = False
        return out

    buf = np.empty(n, dtype=complex)

    def reused_buffer(v):
        np.matmul(A, v, out=buf)
        return buf

    plain = gmres(op_from(A), b, tol=1e-12, restart=5)
    assert plain.converged
    for op in (strided, read_only, reused_buffer):
        res = gmres(op, b, tol=1e-12, restart=5)
        assert np.array_equal(res.x, plain.x)
        assert res.resnorms == plain.resnorms
        assert res.cycles == plain.cycles

    # an operator that hands back its own input (a view of a Krylov row)
    eye = np.eye(n)
    plain = gmres(op_from(eye), b, tol=1e-12, restart=5)
    res = gmres(lambda v: v, b, tol=1e-12, restart=5)
    assert np.array_equal(res.x, plain.x)
    assert res.resnorms == plain.resnorms


def test_identity_one_step(rng):
    b = rand_complex(rng, 15)
    res = gmres(lambda v: v, b, tol=1e-12)
    assert res.converged
    assert res.iters == 1
    assert np.linalg.norm(res.x - b) <= 1e-14 * np.linalg.norm(b)


def test_diagonal_finite_termination():
    A = np.diag(np.arange(1.0, 11.0))
    b = np.ones(10)
    res = gmres(op_from(A), b, tol=1e-13, restart=10, maxit=50)
    assert res.converged
    assert res.iters <= 10
    assert np.linalg.norm(b - A @ res.x) <= 1e-12 * np.linalg.norm(b)


def test_matches_direct_solve(p_example1):
    Md, Cd, Kd = p_example1.densify()
    Q = 0.81 * Md + 0.9 * Cd + Kd
    b = np.zeros(3, dtype=complex)
    b[0] = 1.0
    res = gmres(op_from(Q), b, tol=1e-12, restart=10)
    direct = np.linalg.solve(Q, b)
    assert res.converged
    assert np.linalg.norm(res.x - direct) <= 1e-10 * np.linalg.norm(direct)


def test_estimates_monotone_within_cycles(rng):
    n = 60
    A = np.eye(n) + 0.4 * (rand_complex(rng, n * n).reshape(n, n) / np.sqrt(n))
    b = rand_complex(rng, n)
    res = gmres(op_from(A), b, tol=1e-10, restart=7, maxit=500)
    assert res.converged
    assert sum(res.cycles) == res.iters
    start = 0
    for width in res.cycles:
        chunk = res.resnorms[start : start + width]
        for a, c in zip(chunk, chunk[1:]):
            assert c <= a * (1.0 + 1e-14)
        start += width


INNER_SOLVERS = ("plain", "recycled", "cocr")


def inner_solves(solver, A, bs, restart=30, **kwargs):
    """gmres on ``A`` for each right-hand side in ``bs``: plain GMRES,
    GMRES recycling one space over the whole sequence, or COCR (``A``
    complex symmetric)."""
    space = RecycleSpace(A.shape[0], restart) if solver == "recycled" else None
    results = [gmres(op_from(A), b, restart=restart, recycle=space,
                     symmetric=solver == "cocr", **kwargs) for b in bs]
    # the sequence has to exercise the recycled space, not only build it
    assert space is None or space.k > 0
    return results


def assert_stopping_rule(A, b, res, tol, maxit):
    # the rule the restart loop applies for every inner solver
    true_rel = np.linalg.norm(b - A @ res.x) / np.linalg.norm(b)
    assert true_rel == pytest.approx(res.relres, rel=1e-10, abs=1e-14)
    assert sum(res.cycles) == res.iters <= maxit
    assert len(res.resnorms) <= res.iters
    assert res.converged == (res.relres <= tol)


@pytest.mark.parametrize("solver", INNER_SOLVERS)
def test_maxit_returns_best_iterate(solver):
    # diagonal, so complex symmetric as COCR needs
    A = np.diag(np.arange(1.0, 11.0))
    bs = [np.ones(10), np.arange(1.0, 11.0)]
    for b, res in zip(bs, inner_solves(solver, A, bs, tol=1e-13, restart=3, maxit=4)):
        assert not res.converged
        assert res.iters <= 4
        true_rel = np.linalg.norm(b - A @ res.x) / np.linalg.norm(b)
        assert true_rel == pytest.approx(res.relres, rel=1e-10)
        assert res.relres < 1.0
        assert_stopping_rule(A, b, res, tol=1e-13, maxit=4)


@pytest.mark.parametrize("solver", INNER_SOLVERS)
def test_reported_residual_is_true_residual(rng, solver):
    n = 25
    A = np.eye(n) + 0.3 * rand_complex(rng, n * n).reshape(n, n) / np.sqrt(n)
    if solver == "cocr":
        A = (A + A.T) / 2
    bs = [rand_complex(rng, n) for _ in range(2)]
    for b, res in zip(bs, inner_solves(solver, A, bs, tol=1e-9, restart=6)):
        true_rel = np.linalg.norm(b - A @ res.x) / np.linalg.norm(b)
        assert true_rel == pytest.approx(res.relres, rel=1e-10, abs=1e-14)
        assert_stopping_rule(A, b, res, tol=1e-9, maxit=500)


def test_invariant_rhs_happy_breakdown():
    d = np.arange(1.0, 11.0)
    A = np.diag(d)
    # one eigenvector; three eigenvectors, breaking down mid-cycle so the
    # rows of the reused Krylov block past the third are never written
    one = np.zeros(10)
    one[2] = 1.0
    three = np.zeros(10)
    three[[0, 4, 7]] = [1.0, -2.0, 0.5]
    for b, restart, steps in ((one, 30, 1), (three, 5, 3)):
        res = gmres(op_from(A), b, tol=1e-12, restart=restart)
        assert res.converged
        assert res.iters == steps
        assert res.cycles == [steps]
        assert np.allclose(res.x, b / d, atol=1e-14)


def test_zero_rhs_raises():
    with pytest.raises(ZeroVector):
        gmres(lambda v: v, np.zeros(5))


def test_bad_parameters_raise():
    b = np.ones(4)
    with pytest.raises(ValueError):
        gmres(lambda v: v, b, restart=0)
    with pytest.raises(ValueError):
        gmres(lambda v: v, b, maxit=0)
    # a float count is named instead of failing as a TypeError in numpy
    for name in ("restart", "maxit"):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 2.5"):
            gmres(lambda v: v, b, **{name: 2.5})
    # a tol outside (0, 1) is refused by name before any step; with an
    # exact first step, NaN used to restart GMRES from a zero residual
    for symmetric in (False, True):
        for tol in (np.nan, 0.0, -1e-3, 1.0):
            with pytest.raises(ValueError, match="tol"):
                gmres(lambda v: 2 * v, b, tol=tol, maxit=5, symmetric=symmetric)
    # a non-real tol is named instead of failing as a TypeError
    for tol in ("0.1", 0.1 + 0j, None):
        with pytest.raises(ValueError, match="tol must be a real number"):
            gmres(lambda v: v, b, tol=tol)
    # a non-finite right-hand side is named; it used to spend the whole
    # step budget and return x = 0
    for symmetric in (False, True):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="right-hand side must have a finite norm"):
                gmres(lambda v: v, [bad, 1, 1, 1, 1], symmetric=symmetric)
        # finite entries whose norm overflows are told apart from a
        # non-finite entry, with no overflow warning on the way
        with pytest.raises(ValueError, match="norm of the gmres right-hand side overflows"):
            gmres(lambda v: v, [1e200, 1, 1, 1, 1], symmetric=symmetric)


def outlier_matrix(rng, n):
    # a nonnormal matrix with the spectrum of the identity plus three small
    # outlying eigenvalues: restarted GMRES loses the outliers' directions
    # at every cycle, which a recycled space keeps
    d = np.linspace(1.0, 3.0, n)
    d[:3] = [1e-3, 2e-3, 4e-3]
    X = np.eye(n) + 0.2 * rand_complex(rng, n * n).reshape(n, n) / np.sqrt(n)
    return X @ np.diag(d) @ np.linalg.inv(X)


def test_recycled_sequence_meets_tol(rng):
    # one operator, a sequence of right-hand sides: every solve meets tol
    # on its recomputed true residual, and the carried space keeps
    # A U = C with orthonormal C
    n = 150
    A = outlier_matrix(rng, n)
    space = RecycleSpace(n, restart=20)
    for _ in range(6):
        b = rand_complex(rng, n)
        res = gmres(op_from(A), b, tol=1e-9, restart=20, recycle=space)
        true_rel = np.linalg.norm(b - A @ res.x) / np.linalg.norm(b)
        assert res.converged
        assert true_rel <= 1e-9
        assert true_rel == pytest.approx(res.relres, rel=1e-10, abs=1e-15)
        assert sum(res.cycles) == res.iters
    k = space.k
    assert k == 10
    U, C = space.U[:k], space.block[:k]
    np.testing.assert_allclose(C.conj() @ C.T, np.eye(k), atol=1e-12)
    assert np.linalg.norm(U @ A.T - C) <= 1e-8 * np.linalg.norm(U)


def test_recycling_takes_fewer_steps_with_small_outliers(rng):
    n = 150
    A = outlier_matrix(rng, n)
    bs = [rand_complex(rng, n) for _ in range(6)]
    plain = [gmres(op_from(A), b, tol=1e-8, restart=20, maxit=2000) for b in bs]
    space = RecycleSpace(n, restart=20)
    recycled = [gmres(op_from(A), b, tol=1e-8, restart=20, maxit=2000,
                      recycle=space) for b in bs]
    assert all(res.converged for res in plain + recycled)
    plain_steps = sum(res.iters for res in plain)
    recycled_steps = sum(res.iters for res in recycled)
    assert recycled_steps < 0.5 * plain_steps, (recycled_steps, plain_steps)
    # the first solve gains within itself, from its second cycle on
    assert recycled[0].iters <= plain[0].iters


def test_recycle_after_happy_first_solve():
    # a first solve that breaks down happily in its first cycle, in fewer
    # than k + 1 steps, converges there and leaves no recycle space; the
    # next solve starts from nothing and builds one
    A = np.diag(np.arange(1.0, 41.0))
    space = RecycleSpace(40, restart=8)
    b = np.zeros(40)
    b[[0, 5]] = [1.0, 2.0]
    res = gmres(op_from(A), b, tol=1e-12, restart=8, recycle=space)
    assert res.converged
    assert res.cycles == [2]
    assert space.k == 0
    b = np.ones(40)
    res = gmres(op_from(A), b, tol=1e-10, restart=8, recycle=space)
    assert res.converged
    assert len(res.cycles) > 1
    assert space.k == 4
    assert np.linalg.norm(b - A @ res.x) <= 1e-10 * np.linalg.norm(b)
    # a right-hand side inside span(C) is solved by U alone, in a cycle
    # of no Arnoldi steps
    b = space.block[1].copy()
    res = gmres(op_from(A), b, tol=1e-10, restart=8, recycle=space)
    assert res.converged
    assert res.iters == 0
    assert res.cycles == [0]
    assert np.linalg.norm(b - A @ res.x) <= 1e-10 * np.linalg.norm(b)


def test_recycled_sequences_bit_identical(rng):
    n = 120
    A = outlier_matrix(rng, n)
    bs = [rand_complex(rng, n) for _ in range(4)]
    runs = []
    for _ in range(2):
        space = RecycleSpace(n, restart=15)
        runs.append([gmres(op_from(A), b, tol=1e-9, restart=15, recycle=space)
                     for b in bs])
        runs[-1].append(space)
    *first, space_a = runs[0]
    *second, space_b = runs[1]
    for a, c in zip(first, second):
        assert np.array_equal(a.x, c.x)
        assert a.resnorms == c.resnorms
        assert a.cycles == c.cycles
    assert space_a.k == space_b.k > 0
    assert np.array_equal(space_a.U[: space_a.k], space_b.U[: space_b.k])
    assert np.array_equal(space_a.block[: space_a.k], space_b.block[: space_b.k])


def test_recycle_space_must_match_restart():
    space = RecycleSpace(10, restart=6)
    with pytest.raises(ValueError, match="recycle space"):
        gmres(lambda v: v, np.ones(10), restart=5, recycle=space)


def symmetric_matrix(rng, n):
    # complex symmetric (A = A^T, not Hermitian) and indefinite: a real
    # spectrum from -1 to 3 plus a damping term and a symmetric coupling
    B = rand_complex(rng, n * n).reshape(n, n) / np.sqrt(n)
    return np.diag(np.linspace(-1.0, 3.0, n)) + 0.2j * np.eye(n) + 0.15 * (B + B.T)


def test_cocr_meets_tol_on_true_residual(rng):
    # COCR's recurrence updates its residual; the reported one is
    # recomputed from x, and it meets tol
    Q = shifted_matrix(wave2d(12), -0.5 + 4.0j)
    n = 80
    for A, b in ((Q, rand_complex(rng, Q.shape[0])),
                 (symmetric_matrix(rng, n), rand_complex(rng, n))):
        for tol in (1e-3, 1e-10):
            res = gmres(op_from(A), b, tol=tol, maxit=5000, symmetric=True)
            true_rel = np.linalg.norm(b - A @ res.x) / np.linalg.norm(b)
            assert res.converged
            assert true_rel <= tol
            assert true_rel == pytest.approx(res.relres, rel=1e-10, abs=1e-15)
            assert sum(res.cycles) == res.iters
            assert len(res.resnorms) <= res.iters
    # an operator that hands back its own input is solved in one step
    b = rand_complex(rng, 15)
    res = gmres(lambda v: v, b, tol=1e-12, symmetric=True)
    assert res.converged
    assert res.iters == 1
    assert np.linalg.norm(res.x - b) <= 1e-14 * np.linalg.norm(b)


def test_cocr_bit_identical(rng):
    n = 90
    A = symmetric_matrix(rng, n)
    b = rand_complex(rng, n)
    a = gmres(op_from(A), b, tol=1e-10, maxit=2000, symmetric=True)
    c = gmres(op_from(A), b, tol=1e-10, maxit=2000, symmetric=True)
    assert a.converged
    assert np.array_equal(a.x, c.x)
    assert a.resnorms == c.resnorms
    assert a.cycles == c.cycles
    assert a.relres == c.relres


def test_cocr_maxit_returns_best_iterate(rng):
    n = 90
    B = symmetric_matrix(rng, n)
    b = rand_complex(rng, n)
    # definite: the residual falls, and the last iterate is returned
    A = 2.0 * np.eye(n) + 0.5 * (B - np.diag(np.diag(B)))
    res = gmres(op_from(A), b, tol=1e-13, maxit=7, symmetric=True)
    assert not res.converged
    assert res.iters == 7
    true_rel = np.linalg.norm(b - A @ res.x) / np.linalg.norm(b)
    assert true_rel == pytest.approx(res.relres, rel=1e-10)
    assert res.relres < 1.0
    # indefinite: COCR's residual is not monotone, and on this system the
    # iterate after seven steps is worse than the zero guess, which is
    # returned (only the iterates at a cycle's end are compared)
    res = gmres(op_from(B), b, tol=1e-13, maxit=7, symmetric=True)
    assert not res.converged
    assert res.resnorms[-1] > 1.0
    assert res.relres == 1.0
    assert not res.x.any()


def test_cocr_breakdown_at_start():
    # r^T A r = 0 at the first step: alpha would be zero and beta 0/0, so
    # the cycle takes a minimal-residual step over span(r, A r) instead
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    b = np.array([1.0, 0.0])
    res = gmres(op_from(A), b, tol=1e-12, symmetric=True)
    assert res.converged
    assert np.linalg.norm(b - A @ res.x) <= 1e-12
    np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-14)
    # an isotropic right-hand side (b^T b = 0) of the identity
    b = np.array([1.0, 1.0j, 0.0])
    res = gmres(lambda v: v, b, tol=1e-12, symmetric=True)
    assert res.converged
    assert np.linalg.norm(res.x - b) <= 1e-12


def test_cocr_refuses_recycle_space():
    space = RecycleSpace(10, restart=6)
    with pytest.raises(ValueError, match="recycle"):
        gmres(lambda v: v, np.ones(10), restart=6, recycle=space, symmetric=True)
