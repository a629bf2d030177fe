import numpy as np
import pytest

from conftest import rand_complex
from qri import (
    DegenerateResidual,
    HypothesisViolated,
    InfiniteEigenvaluePresent,
    OrthogonalToTarget,
    QepProblem,
    SpringMaxwellParams,
    ZeroVector,
    angle_sandwich,
    decompose_along,
    expansion_angle_bound,
    expansion_angle_identity,
    expansion_perturbation_diagnostics,
    full_eig,
    q_prime_apply,
    random_qep,
    resolvent_check,
    select_target_pair,
    spring_maxwell,
    wave2d,
)
from qri.oracle import sin_angle
from qri.qep import residual_denominator, shifted_matrix

PROBE = 0.1234 + 0.4321j


def orthonormal_cols(rng, n, k):
    A = rand_complex(rng, n * k).reshape(n, k)
    Q, _ = np.linalg.qr(A)
    return Q


def test_example1_spectrum(oracle_example1):
    d = oracle_example1
    assert d.n_infinite == 1
    assert d.finite_count == 5
    expected = np.array([1.0, 0.5, 1.0 / 3.0, -1.0j, 1.0j])
    assert np.allclose(d.lams, expected, atol=1e-12)
    # the eigendata is held once: no triplet list beside lams, X and Y
    assert not hasattr(d, "triplets")


def test_example1_triplet_residuals(p_example1, oracle_example1):
    d = oracle_example1
    Md, Cd, Kd = p_example1.densify()
    for j, lam in enumerate(d.lams):
        x = d.X[:, j]
        y = d.Y[:, j]
        Q = lam * lam * Md + lam * Cd + Kd
        scale = np.linalg.norm(Q)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-13
        assert np.linalg.norm(Q @ x) <= 1e-12 * scale
        assert np.linalg.norm(y.conj() @ Q) <= 1e-12 * scale * np.linalg.norm(y)


def test_scalar_left_vector_scaling():
    # M=1, C=0, K=-4 factors as (mu-2)(mu+2); partial fractions give
    # 1/(mu^2-4) = (1/4)/(mu-2) - (1/4)/(mu+2)
    p = QepProblem(np.array([[1.0]]), np.array([[0.0]]), np.array([[-4.0]]))
    d = full_eig(p, 1.0)
    assert np.allclose(d.lams, [2.0, -2.0], atol=1e-13)
    assert np.allclose(np.abs(d.Y), 0.25, atol=1e-13)
    assert np.allclose(np.abs(d.X), 1.0, atol=1e-13)


@pytest.mark.parametrize(
    "make, sigma, nearest, left_tol, scale_tol",
    [
        # non-normal: left vectors through an inverse of the order-2n
        # pencil lost 4 to 5 digits here
        (lambda: random_qep(200, density=0.02, seed=3), 0.3 + 0.2j, 20, 1e-12, 1e-10),
        (lambda: wave2d(12), PROBE, None, 1e-13, 1e-12),
        (lambda: spring_maxwell(SpringMaxwellParams(10, 4, seed=2)), PROBE, None,
         1e-13, 1e-12),
    ],
)
def test_left_vectors_accurate(make, sigma, nearest, left_tol, scale_tol):
    # y* Q(lam) = 0 relative to the residual denominator, and the
    # resolvent scaling y* Q'(lam) x = 1, for the nearest finite values
    p = make()
    d = full_eig(p, sigma)
    for i in range(d.finite_count if nearest is None else nearest):
        lam, x, y = d.lams[i], d.X[:, i], d.Y[:, i]
        left = np.linalg.norm(y.conj() @ shifted_matrix(p, lam))
        assert left <= left_tol * np.linalg.norm(y) * residual_denominator(p, lam)
        assert abs(y.conj() @ q_prime_apply(p, lam, x) - 1.0) <= scale_tol


def test_full_eig_factors_q_once(p_wave2d4, lu_builds):
    # one LU of the order-n Q(sigma), which shifted_solver(sigma) reuses
    sigma = PROBE
    d = full_eig(p_wave2d4, sigma)
    n = p_wave2d4.n
    assert lu_builds == [(n, n)]
    lu = d.shifted_solver(d.sigma)
    assert lu_builds == [(n, n)]
    b = np.arange(n, dtype=complex)
    assert np.linalg.norm(shifted_matrix(p_wave2d4, sigma) @ lu.solve(b) - b) <= (
        1e-12 * np.linalg.norm(b)
    )
    # another shift gets a factorization of its own at every call
    d.shifted_solver(2.0)
    d.shifted_solver(2.0)
    assert lu_builds == [(n, n)] * 3


def test_resolvent_expansion_exact(oracle_wave2d4_probe):
    d = oracle_wave2d4_probe
    for mu in (0.05 + 0.9j, 2.0 + 0.0j, -1.3 + 0.2j):
        assert resolvent_check(d, mu) <= 1e-12


def test_resolvent_rejects_infinite(oracle_example1):
    with pytest.raises(InfiniteEigenvaluePresent):
        resolvent_check(oracle_example1, 0.7)


def test_resolvent_rejects_eigenvalue(oracle_wave2d4_probe):
    with pytest.raises(ValueError):
        resolvent_check(oracle_wave2d4_probe, oracle_wave2d4_probe.lams[0])


def test_select_target_pair(oracle_example1):
    i1, i2 = select_target_pair(oracle_example1.lams, 0.9)
    assert oracle_example1.lams[i1] == pytest.approx(1.0)
    assert oracle_example1.lams[i2] == pytest.approx(0.5)
    ratio = abs(oracle_example1.lams[i1] - 0.9) / abs(oracle_example1.lams[i2] - 0.9)
    assert ratio == pytest.approx(0.25)
    with pytest.raises(ValueError):
        select_target_pair(np.array([1.0 + 0.0j]), 0.0)


def test_select_target_pair_phase_tie():
    # equidistant pair: the smaller phase of lam - sigma wins
    i1, i2 = select_target_pair(np.array([1.0j, -1.0j]), 0.0)
    assert (i1, i2) == (1, 0)


def test_angle_identity_random(rng):
    n = 40
    V = orthonormal_cols(rng, n, 5)
    w = rand_complex(rng, n)
    w -= V @ (V.conj().T @ w)
    w -= V @ (V.conj().T @ w)
    v_next = w / np.linalg.norm(w)
    for _ in range(5):
        x = rand_complex(rng, n)
        lhs, rhs, gap = expansion_angle_identity(V, v_next, x)
        assert gap <= 1e-13
        assert lhs <= sin_angle(V, x) + 1e-13


def test_angle_identity_errors(rng):
    n = 20
    V = orthonormal_cols(rng, n, 4)
    w = rand_complex(rng, n)
    w -= V @ (V.conj().T @ w)
    w -= V @ (V.conj().T @ w)
    v_next = w / np.linalg.norm(w)
    with pytest.raises(HypothesisViolated):
        expansion_angle_identity(V, v_next, V @ rand_complex(rng, 4))
    with pytest.raises(ValueError):
        expansion_angle_identity(V, V[:, 0], rand_complex(rng, n))
    with pytest.raises(ValueError):
        expansion_angle_identity(V, 2.0 * v_next, rand_complex(rng, n))
    with pytest.raises(ZeroVector):
        expansion_angle_identity(V, v_next, np.zeros(n))


def test_angle_bound_empty_basis(oracle_wave2d4_probe, rng):
    d = oracle_wave2d4_probe
    V = np.zeros((d.problem.n, 0), dtype=complex)
    for _ in range(20):
        r = rand_complex(rng, d.problem.n)
        lhs, rhs, xi = expansion_angle_bound(d, V, r, PROBE)
        assert lhs <= rhs + 1e-12
        assert xi >= 0.0


def test_angle_bound_errors(oracle_wave2d4_probe, oracle_example1, rng):
    d = oracle_wave2d4_probe
    n = d.problem.n
    V = np.zeros((n, 0), dtype=complex)
    with pytest.raises(DegenerateResidual):
        expansion_angle_bound(d, V, np.zeros(n), PROBE)
    x1 = d.X[:, select_target_pair(d.lams, PROBE)[0]]
    Vx = (x1 / np.linalg.norm(x1))[:, None]
    with pytest.raises(HypothesisViolated):
        expansion_angle_bound(d, Vx, rand_complex(rng, n), PROBE)
    with pytest.raises(InfiniteEigenvaluePresent):
        expansion_angle_bound(oracle_example1, np.zeros((3, 0), dtype=complex),
                              rand_complex(rng, 3), 0.9)


def test_perturbation_exact_agreement(rng):
    n, k = 30, 6
    V = orthonormal_cols(rng, n, k)
    u = rand_complex(rng, n)
    diag = expansion_perturbation_diagnostics(V, u, u.copy())
    assert diag.eps == 0.0
    assert diag.eps_tilde == 0.0
    assert diag.gap_scale == 0.0
    assert diag.gap_direction == 0.0
    assert np.array_equal(diag.v, diag.vtilde)


def test_perturbation_in_span_is_invisible(rng):
    n, k = 30, 6
    V = orthonormal_cols(rng, n, k)
    u = rand_complex(rng, n)
    w = V @ rand_complex(rng, k)
    diag = expansion_perturbation_diagnostics(V, u, u + 1e-3 * w)
    assert diag.eps > 0.0
    assert diag.eps_tilde <= 1e-12 * diag.eps
    assert abs(np.vdot(diag.v, diag.vtilde)) == pytest.approx(1.0, abs=1e-10)


def test_perturbation_identities_random(rng):
    n, k = 50, 8
    V = orthonormal_cols(rng, n, k)
    for _ in range(5):
        u = rand_complex(rng, n)
        f = rand_complex(rng, n)
        f /= np.linalg.norm(f)
        eps = 1e-2
        utilde = u + eps * np.linalg.norm(u) * f
        diag = expansion_perturbation_diagnostics(V, u, utilde)
        assert diag.eps == pytest.approx(eps, rel=1e-12)
        assert diag.gap_scale <= 1e-12
        assert diag.gap_direction <= 1e-12


def test_perturbation_u_in_span_raises(rng):
    n, k = 30, 6
    V = orthonormal_cols(rng, n, k)
    u = V @ rand_complex(rng, k)
    with pytest.raises(HypothesisViolated):
        expansion_perturbation_diagnostics(V, u, u + rand_complex(rng, n))


def test_decompose_along_reconstruction(rng):
    x1 = rand_complex(rng, 25)
    x1 /= np.linalg.norm(x1)
    w = rand_complex(rng, 25)
    dec = decompose_along(x1, w)
    rebuilt = dec.alpha * x1 + dec.beta * dec.x_perp
    assert np.linalg.norm(rebuilt - w) <= 1e-13 * np.linalg.norm(w)
    assert dec.tan_angle == pytest.approx(dec.beta / abs(dec.alpha))


def test_decompose_along_aligned_and_orthogonal(rng):
    x1 = rand_complex(rng, 10)
    x1 /= np.linalg.norm(x1)
    dec = decompose_along(x1, 2.0 * x1)
    assert dec.beta == 0.0
    assert dec.tan_angle == 0.0
    assert dec.x_perp is None
    # exact orthogonality: canonical basis vectors, no rounding residue
    e0 = np.zeros(10, dtype=complex)
    e0[0] = 1.0
    e1 = np.zeros(10, dtype=complex)
    e1[1] = 1.0
    with pytest.raises(OrthogonalToTarget):
        decompose_along(e0, e1)


def test_decompose_along_phase_invariance(rng):
    x1 = rand_complex(rng, 15)
    x1 /= np.linalg.norm(x1)
    w = rand_complex(rng, 15)
    base = decompose_along(x1, w).tan_angle
    for phase in (1.0j, np.exp(0.3j), -1.0):
        assert decompose_along(x1, phase * w).tan_angle == pytest.approx(base, rel=1e-13)
        assert decompose_along(phase * x1, w).tan_angle == pytest.approx(base, rel=1e-13)


def test_sandwich_identical_inputs_degenerate_true(rng):
    x1 = rand_complex(rng, 12)
    x1 /= np.linalg.norm(x1)
    u = rand_complex(rng, 12)
    res = angle_sandwich(None, u, u.copy(), x1=x1)
    assert res.tan_inexact == res.tan_exact
    assert res.tan_error == float("inf")
    assert res.hypothesis_holds
    assert res.sandwich_holds


def test_sandwich_orthogonal_error_raises():
    # error direction exactly orthogonal to the reference
    x1 = np.zeros(12, dtype=complex)
    x1[0] = 1.0
    q = np.zeros(12, dtype=complex)
    q[1] = 1.0
    with pytest.raises(OrthogonalToTarget):
        angle_sandwich(None, x1, x1 + 1e-6 * q, x1=x1)


def test_sandwich_unpacks_as_tuple(rng):
    x1 = rand_complex(rng, 12)
    x1 /= np.linalg.norm(x1)
    u = rand_complex(rng, 12)
    utilde = u + 1e-3 * rand_complex(rng, 12)
    t_u, t_ut, t_diff, hyp, sand = angle_sandwich(None, u, utilde, x1=x1)
    assert t_u > 0.0 and t_ut > 0.0 and t_diff > 0.0
    assert isinstance(hyp, bool) and isinstance(sand, bool)


def test_sandwich_needs_reference():
    with pytest.raises(ValueError):
        angle_sandwich(None, np.ones(3), np.zeros(3))


def test_sandwich_default_reference(oracle_wave2d4_probe, rng):
    d = oracle_wave2d4_probe
    u = d.X[:, 0] + 0.1 * rand_complex(rng, d.problem.n)
    utilde = u + 1e-4 * rand_complex(rng, d.problem.n)
    res = angle_sandwich(d, u, utilde)
    explicit = angle_sandwich(None, u, utilde, x1=d.X[:, 0])
    assert res.tan_exact == explicit.tan_exact


def test_sin_angle_extremes(rng):
    V = orthonormal_cols(rng, 20, 4)
    inside = V @ rand_complex(rng, 4)
    assert sin_angle(V, inside) <= 1e-13
    out = rand_complex(rng, 20)
    out -= V @ (V.conj().T @ out)
    out -= V @ (V.conj().T @ out)
    assert sin_angle(V, out) == pytest.approx(1.0, abs=1e-13)
