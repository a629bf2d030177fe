import numpy as np
import pytest
import scipy.sparse as sp

from conftest import rand_complex
from qri import (
    Breakdown,
    QepProblem,
    SolverConfig,
    SpringMaxwellParams,
    Stagnation,
    example1,
    full_eig,
    newton_solve,
    outer_loop,
    random_qep,
    refined_vector,
    relative_residual,
    spring_maxwell,
    wave2d,
)
import qri.solver as solver
from qri.linalg import OrthonormalBasis, dense_eig, sin_angle
from qri.qep import (
    finite_order,
    read_problem,
    residual_denominator,
    shift_invert,
    write_problem,
)
from qri.solver import (
    ProjectionCache,
    RitzPair,
    select_expansion_residual,
    solve_projected_qep,
)

PROBE = 0.1234 + 0.4321j

E2 = np.array([0.0, 1.0, 0.0], dtype=complex)


def make_pair(relres, converged, lam=1.0 + 0.0j):
    z = np.ones(2, dtype=complex)
    return RitzPair(lam=lam, z=z, x=z, resid=z, relres=relres, converged=converged)


def test_newton_converges_to_nearest(p_example1):
    res = newton_solve(p_example1, 0.9, E2, tol=1e-12)
    assert res.converged
    assert abs(res.lam - 1.0) <= 1e-10
    assert sin_angle(E2, res.x) <= 1e-8
    assert len(res.history) <= 10


def test_newton_exact_start_zero_iterations(p_example1):
    res = newton_solve(p_example1, 1.0, E2, tol=1e-10)
    assert res.converged
    assert res.lam == 1.0
    assert len(res.history) == 1


def test_newton_rejects_bad_start(p_example1):
    # non-finite inputs fail up front, naming the argument, instead of as
    # a zero pivot in the first factorization
    x0 = np.ones(3, dtype=complex)
    for lam0 in (complex("nan"), float("inf"), 1e308 + 1e308j, "0.5"):
        with pytest.raises(ValueError, match="lam0"):
            newton_solve(p_example1, lam0, x0)
    with pytest.raises(ValueError, match="x0"):
        newton_solve(p_example1, 0.9, [1.0, np.nan, 0.0])
    # a string used to fail as numpy's malformed-string error
    with pytest.raises(ValueError, match="x0 must hold numbers"):
        newton_solve(p_example1, 0.9, "abc")
    with pytest.raises(ValueError, match=r"x0 must have shape \(3,\), got \(4,\)"):
        newton_solve(p_example1, 0.9, np.ones(4, dtype=complex))
    with pytest.raises(ValueError, match="x0 must be nonzero"):
        newton_solve(p_example1, 0.9, np.zeros(3))
    with pytest.raises(ValueError, match="maxit must be an integer, got 2.5"):
        newton_solve(p_example1, 0.9, x0, maxit=2.5)
    # at 0 or NaN no residual passes, and every step would run to maxit
    for tol in (0.0, 1.0, -1e-10, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\), got"):
            newton_solve(p_example1, 0.9, x0, tol=tol)


def test_newton_stagnation():
    # with M = C = 0, Q'(lam) = 0, so the update scalar e* y is exactly 0
    p = QepProblem(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(Stagnation, match="update scalar e\\* y vanished"):
        newton_solve(p, 0.5, [1.0, 0.0])


def test_newton_second_target(p_example1):
    x0 = np.ones(3, dtype=complex) / np.sqrt(3.0)
    res = newton_solve(p_example1, 0.45, x0, tol=1e-12)
    assert res.converged
    assert abs(res.lam - 0.5) <= 1e-10


def test_newton_respects_maxit(p_example1):
    x0 = np.ones(3, dtype=complex) / np.sqrt(3.0)
    res = newton_solve(p_example1, 0.9, x0, tol=1e-15, maxit=1)
    assert not res.converged
    # the start point plus exactly one step
    assert len(res.history) == 2
    assert res.history[-1].outer_iter == 2


def test_newton_rejects_negative_maxit(p_example1):
    x0 = np.ones(3, dtype=complex)
    with pytest.raises(ValueError, match="maxit"):
        newton_solve(p_example1, 0.9, x0, maxit=-1)


def test_projection_cache_matches_scratch(p_wave2d6, rng):
    # wave2d's matrices are real symmetric, so a missing conjugate or
    # transpose in the cache's new row shows only on the complex,
    # unstructured random problem
    for p in (p_wave2d6, random_qep(30, density=0.1, seed=1)):
        n = p.n
        V, _ = np.linalg.qr(rand_complex(rng, n * 6).reshape(n, 6))
        cache = ProjectionCache(p, capacity=6)
        for k in range(6):
            cache.append(V[:, k])
        for got, full in zip(cache.blocks, p.densify()):
            want = V.conj().T @ full @ V
            assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), 1.0)

        # a thick restart compresses basis and blocks with the same Z,
        # and then the blocks keep growing from the compressed basis
        basis = cache.basis
        Z, _ = np.linalg.qr(rand_complex(rng, 6 * 4).reshape(6, 4))
        cache.compress(Z)
        assert np.linalg.norm(basis.matrix - V @ Z) <= 1e-14
        cache.append(basis.orthonormalize(rand_complex(rng, n)))
        Vc = basis.matrix
        assert Vc.shape == (n, 5)
        assert basis.orthonormality_defect() <= 1e-13
        for got, full in zip(cache.blocks, p.densify()):
            want = Vc.conj().T @ full @ Vc
            assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)


def _factor_defects(p, V, factor):
    # ||W - Q_W R_W|| / ||W|| for W = [M v1, C v1, K v1, M v2, ...] built
    # from scratch, and max |Q_W* Q_W - I|
    W = np.empty((p.n, 3 * V.shape[1]), dtype=complex)
    for t, mat in enumerate((p.M, p.C, p.K)):
        W[:, t::3] = mat @ V
    Q, R = factor.Q, factor.R
    exact = np.linalg.norm(W - Q @ R) / np.linalg.norm(W)
    orth = np.abs(Q.conj().T @ Q - np.eye(Q.shape[1])).max(initial=0.0)
    return exact, orth


def test_residual_factor_invariants(p_wave2d6, rng):
    # refined extraction's factor W = Q_W R_W of [M V, C V, K V] stays
    # exact, orthonormal and upper triangular through appends, a thick
    # restart's compression and more appends.  spring_maxwell's M has
    # rank 3 here, so from the fourth append on M v is dependent, and
    # 3 k > n = 15 by then: such columns add no column to Q_W
    problems = (
        p_wave2d6,
        random_qep(30, density=0.1, seed=1),
        spring_maxwell(SpringMaxwellParams(3, 4, seed=0)),
    )
    for p in problems:
        n = p.n
        cache = ProjectionCache(p, capacity=6, refined=True)
        basis = cache.basis

        def check(stage):
            exact, orth = _factor_defects(p, basis.matrix, cache.factor)
            R = cache.factor.R
            assert exact <= 1e-13, (p.name, stage, exact)
            assert orth <= 1e-13, (p.name, stage, orth)
            assert np.array_equal(np.triu(R), R), (p.name, stage)
            assert R.shape[0] <= min(n, R.shape[1])

        for _ in range(6):
            cache.append(basis.orthonormalize(rand_complex(rng, n)))
        check("appended")
        Z, _ = np.linalg.qr(rand_complex(rng, 6 * 4).reshape(6, 4))
        cache.compress(Z)
        check("compressed")
        for _ in range(2):
            cache.append(basis.orthonormalize(rand_complex(rng, n)))
        check("appended after compression")
    # the singular mass matrix left rows out of R_W
    assert cache.factor.R.shape[0] < cache.factor.R.shape[1]


def test_restart_coordinates_drop_a_repeated_candidate(rng):
    # two pairs with the same coordinates: the second is rank-deficient
    # and dropped, so the restart keeps the two distinct candidates
    k = 4
    a, b = (z / np.linalg.norm(z) for z in rand_complex(rng, 2 * k).reshape(2, k))
    pairs = [RitzPair(lam=1.0, z=z, x=z, resid=z, relres=1.0, converged=False)
             for z in (a, a, b)]
    blocks = [rand_complex(rng, k * k).reshape(k, k) for _ in range(3)]
    Z = solver._restart_coordinates(pairs, solve_projected_qep(*blocks, 0.1j), 2)
    assert Z.shape == (k, 2)
    assert np.linalg.norm(Z.conj().T @ Z - np.eye(2)) <= 1e-14
    for z in (a, b):
        assert sin_angle(Z, z) <= 1e-14


def test_projected_solve_at_eigenvalue(p_example1):
    # sigma = 1 is an eigenvalue, so the shift is nudged by about 1e-8;
    # the values must be read off the nudged shift, or the nearest one
    # is off by that much
    Md, Cd, Kd = p_example1.densify()
    projected = solve_projected_qep(Md, Cd, Kd, 1.0 + 0.0j)
    assert len(projected) == 5  # the infinite eigenvalue is skipped
    assert abs(projected.omegas[0] - 1.0) <= 1e-12
    assert np.linalg.norm((Md + Cd + Kd) @ projected.z(0)) <= 1e-12


def _null_residual(blocks, projected, i):
    # ||Q_k(omega) z|| over |omega|^2 ||Mk|| + |omega| ||Ck|| + ||Kk||
    Mk, Ck, Kk = blocks
    w = projected.omegas[i]
    scale = abs(w) ** 2 * np.linalg.norm(Mk, 2) + abs(w) * np.linalg.norm(Ck, 2)
    scale += np.linalg.norm(Kk, 2)
    return np.linalg.norm((w * w * Mk + w * Ck + Kk) @ projected.z(i)) / scale


def test_projected_solve_matches_eig_with_vectors(rng):
    # the eigenvalues-only solve gives the values of eig with vectors, in
    # the same order, and every vector read is a null vector of Q_k(omega)
    sigma = 0.3 + 0.2j
    for k in (5, 40, 100):
        blocks = [rand_complex(rng, k * k).reshape(k, k) for _ in range(3)]
        projected = solve_projected_qep(*blocks, sigma)
        theta, _, _ = dense_eig(shift_invert(*blocks, sigma)[0])
        want = finite_order(theta, sigma)[1]
        got = projected.omegas
        assert got.shape == want.shape == (2 * k,)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), k
        for i in range(len(projected)):
            assert abs(np.linalg.norm(projected.z(i)) - 1.0) <= 1e-13
            assert _null_residual(blocks, projected, i) <= 1e-12, (k, got[i])


def test_projected_solve_double_eigenvalue():
    # +-i are double eigenvalues of lam^2 + diag(1, 1, 4, 9): their two
    # Ritz values form a cluster and get two orthonormal null vectors
    k = 4
    blocks = (np.eye(k, dtype=complex), np.zeros((k, k), dtype=complex),
              np.diag([1.0, 1.0, 4.0, 9.0]).astype(complex))
    projected = solve_projected_qep(*blocks, 0.1 + 0.9j)
    double = np.flatnonzero(np.abs(projected.omegas - 1j) <= 1e-12)
    assert len(double) == 2
    Z = np.column_stack([projected.z(i) for i in double])
    assert np.linalg.norm(Z.conj().T @ Z - np.eye(2)) <= 1e-12
    for i in double:
        assert _null_residual(blocks, projected, i) <= 1e-14


def test_projected_solve_singular_mass_block(rng):
    # a rank-deficient Mk: the infinite values are skipped and every
    # finite one still gets a finite null vector
    k = 12
    F = rand_complex(rng, k * (k - 3)).reshape(k, k - 3)
    blocks = (F @ F.conj().T, rand_complex(rng, k * k).reshape(k, k),
              rand_complex(rng, k * k).reshape(k, k))
    projected = solve_projected_qep(*blocks, 0.2 + 0.1j)
    assert len(projected) == 2 * k - 3
    for i in range(len(projected)):
        assert np.isfinite(projected.omegas[i]) and np.isfinite(projected.z(i)).all()
        assert _null_residual(blocks, projected, i) <= 1e-12


def test_refined_extraction_reads_no_unused_vectors(monkeypatch):
    # refined extraction computes its own vectors, so the projected
    # solve's coordinate vectors are computed only for a thick restart,
    # and there only as many as the restart keeps
    calls = []
    restarts = []

    def counted(*args, **kwargs):
        calls.append(1)
        return null_vector(*args, **kwargs)

    def restart(*args, **kwargs):
        before = len(calls)
        out = restart_coordinates(*args, **kwargs)
        restarts.append(len(calls) - before)
        return out

    null_vector, restart_coordinates = solver.null_vector, solver._restart_coordinates
    monkeypatch.setattr(solver, "null_vector", counted)
    monkeypatch.setattr(solver, "_restart_coordinates", restart)
    base = dict(sigma=PROBE, nev=2, tol_outer=1e-10, mode="exact", extraction="refined")

    p = wave2d(6)
    res = outer_loop(p, SolverConfig(max_subspace=p.n, **base))
    assert all(res.converged) and not restarts
    assert not calls

    res = outer_loop(wave2d(12), SolverConfig(max_subspace=10, **base))
    assert all(res.converged) and len(restarts) >= 2
    # no candidate is dropped here: the R // 2 - nev next Ritz vectors
    assert restarts == [10 // 2 - 2] * len(restarts)
    assert len(calls) == sum(restarts)

    # Ritz extraction reads the first nev vectors and no more
    calls.clear()
    res = outer_loop(p, SolverConfig(max_subspace=p.n, **dict(base, extraction="ritz")))
    assert all(res.converged)
    assert len(calls) == sum(len(rec.ritz_values) for rec in res.history)


def test_outer_loop_small_reference(p_example1):
    cfg = SolverConfig(sigma=0.9, nev=1, tol_outer=1e-12, mode="exact", seed=0)
    res = outer_loop(p_example1, cfg)
    assert res.stop_reason == "converged"
    assert res.converged == [True]
    assert abs(res.eigenpairs[0].lam - 1.0) <= 1e-10
    assert sin_angle(E2, res.eigenpairs[0].x) <= 1e-8
    assert len(res.history) <= 3


def test_outer_loop_invariant_start(p_wave2d4, oracle_wave2d4_probe):
    x1 = oracle_wave2d4_probe.X[:, 0]
    cfg = SolverConfig(
        sigma=PROBE, nev=1, tol_outer=1e-10, mode="exact", initial_vector=x1
    )
    res = outer_loop(p_wave2d4, cfg)
    assert res.converged == [True]
    assert len(res.history) == 1
    assert abs(res.eigenpairs[0].lam - oracle_wave2d4_probe.lams[0]) <= 1e-8


def test_converged_pairs_pass_scratch_residual(p_wave2d6):
    cfg = SolverConfig(sigma=PROBE, nev=2, tol_outer=1e-9, mode="exact", seed=3)
    res = outer_loop(p_wave2d6, cfg)
    assert all(res.converged)
    for pair in res.eigenpairs:
        assert relative_residual(p_wave2d6, pair.lam, pair.x) <= 1e-9


def test_subspace_exhausted_carries_partial(p_wave2d4):
    cfg = SolverConfig(
        sigma=PROBE, nev=3, tol_outer=1e-14, mode="exact", max_subspace=2, seed=0
    )
    partial = outer_loop(p_wave2d4, cfg)
    assert partial.stop_reason == "exhausted"
    assert len(partial.history) >= 1
    assert partial.history[-1].subspace_dim == 2
    assert not all(partial.converged)


def test_observer_snapshot_contract(p_wave2d6):
    views = []

    def watch(view):
        views.append(
            (
                view.k,
                float(np.linalg.norm(view.v_next)),
                float(np.abs(view.basis.matrix.conj().T @ view.v_next).max()),
                view.selected,
                len(view.pairs),
            )
        )
        return False

    cfg = SolverConfig(sigma=PROBE, nev=2, tol_outer=1e-9, mode="exact", seed=3)
    res = outer_loop(p_wave2d6, cfg, observer=watch)
    # one snapshot per expansion: every iteration except the closing one
    assert len(views) == len(res.history) - 1
    for k, vnorm, overlap, selected, npairs in views:
        assert abs(vnorm - 1.0) <= 1e-12
        assert overlap <= 1e-12
        assert 0 <= selected < npairs
    assert [k for k, *_ in views] == list(range(1, len(views) + 1))


def test_observer_can_stop_run(p_wave2d6):
    cfg = SolverConfig(sigma=PROBE, nev=2, tol_outer=1e-12, mode="exact", seed=3)
    res = outer_loop(p_wave2d6, cfg, observer=lambda view: view.k >= 3)
    assert res.stop_reason == "observer"
    assert len(res.history) == 3


def test_refined_never_worse_than_ritz(p_wave2d6):
    checked = 0

    def compare(view):
        nonlocal checked
        for pair in view.pairs:
            xr, _ = refined_vector(p_wave2d6, view.basis.matrix, pair.lam)
            rr = relative_residual(p_wave2d6, pair.lam, xr)
            assert rr <= pair.relres * (1.0 + 1e-10) + 1e-16
            checked += 1
        return False

    cfg = SolverConfig(sigma=PROBE, nev=2, tol_outer=1e-9, mode="exact", seed=5)
    outer_loop(p_wave2d6, cfg, observer=compare)
    assert checked >= 5


def test_refined_extraction_run(p_wave2d4, oracle_wave2d4_probe):
    # the loop's refined pairs are the ones refined_vector gives for the
    # same basis and Ritz value
    checked = 0

    def compare(view):
        nonlocal checked
        for pair in view.pairs:
            xr, zr = refined_vector(p_wave2d4, view.basis, pair.lam)
            assert np.linalg.norm(pair.x - xr) <= 1e-12
            assert np.linalg.norm(pair.z - zr) <= 1e-12
            checked += 1
        return False

    cfg = SolverConfig(
        sigma=PROBE, nev=3, tol_outer=1e-11, mode="exact", extraction="refined", seed=0
    )
    res = outer_loop(p_wave2d4, cfg, observer=compare)
    assert checked >= 3
    assert all(res.converged)
    for pair, lam_true in zip(res.eigenpairs, oracle_wave2d4_probe.lams[:3]):
        assert abs(pair.lam - lam_true) <= 1e-9 * max(1.0, abs(lam_true))


def test_refined_extraction_optimal_across_restarts():
    # every refined pair attains the smallest singular value of the tall
    # omega^2 M V + omega C V + K V, formed here from sparse products
    # and not through the loop's factor, also after thick restarts (a
    # small explicit max_subspace); the slack beyond 1e-10 relative is
    # rounding at the scale of Q(omega), which converged pairs reach.
    # The loop's factor, compressed at each restart, and the one
    # refined_vector builds from scratch give the same vector: their
    # singular vectors differ in phase, which the phase convention fixes
    runs = (
        (wave2d(8), PROBE, 3),
        (random_qep(40, density=0.1, seed=2), 0.5 + 0.5j, 2),
    )
    for p, sigma, nev in runs:
        checked = 0
        last_k = 0

        def optimal(view):
            nonlocal checked, last_k
            V = view.basis.matrix
            # in an iteration that restarted, the pairs belong to the
            # basis before its compression
            restarted, last_k = view.k <= last_k, view.k
            for pair in view.pairs:
                w = pair.lam
                tall = w * w * (p.M @ V) + w * (p.C @ V) + p.K @ V
                smin = np.linalg.svd(tall, compute_uv=False)[-1]
                slack = 1e-15 * residual_denominator(p, w)
                assert np.linalg.norm(pair.resid) <= (1.0 + 1e-10) * smin + slack
                if not restarted:
                    xr, _ = refined_vector(p, V, w)
                    assert np.linalg.norm(pair.x - xr) <= 1e-10
                checked += 1
            return False

        cfg = SolverConfig(sigma=sigma, nev=nev, tol_outer=1e-10, mode="exact",
                           extraction="refined", max_subspace=10)
        res = outer_loop(p, cfg, observer=optimal)
        assert all(res.converged), p.name
        assert len(res.history) > 10  # so it restarted
        assert checked >= len(res.history) - 1


def test_refined_history_deterministic_across_restarts(monkeypatch):
    # two refined runs that restart give bit-identical histories, also
    # when every fresh np.empty is NaN-filled: storage allocated for the
    # factor and not yet written must never be read
    p = wave2d(8)
    cfg = SolverConfig(sigma=PROBE, nev=3, tol_outer=1e-10, mode="exact",
                       extraction="refined", max_subspace=10)
    a = outer_loop(p, cfg)
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    b = outer_loop(p, cfg)
    assert len(a.history) == len(b.history) > 10
    for ra, rb in zip(a.history, b.history):
        assert ra.subspace_dim == rb.subspace_dim
        assert ra.ritz_values == rb.ritz_values
        assert ra.relres == rb.relres
    for xa, xb in zip(a.eigenpairs, b.eigenpairs):
        assert xa.lam == xb.lam
        assert np.array_equal(xa.x, xb.x)


def test_inexact_mode_converges(p_wave2d6):
    cfg = SolverConfig(
        sigma=PROBE, nev=2, tol_outer=1e-8, mode="inexact", tol_inner=1e-4, seed=3
    )
    res = outer_loop(p_wave2d6, cfg)
    assert all(res.converged)
    assert res.cumulative_inner_iters > 0
    assert res.history[-1].relres[0] <= 1e-8


def test_determinism_bit_identical(p_wave2d6):
    cfg = SolverConfig(
        sigma=PROBE, nev=2, tol_outer=1e-8, mode="inexact", tol_inner=1e-4, seed=7
    )
    a = outer_loop(p_wave2d6, cfg)
    b = outer_loop(p_wave2d6, cfg)
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra.ritz_values == rb.ritz_values
        assert ra.relres == rb.relres
        assert ra.inner_iters == rb.inner_iters
    for xa, xb in zip(a.eigenpairs, b.eigenpairs):
        assert xa.lam == xb.lam
        assert np.array_equal(xa.x, xb.x)


def test_phases_fall_inside_iteration_wall():
    # each record's wall time runs to the next iteration's start, the
    # first from before the set-up, so the timed phases lie inside the
    # summed wall time and leave little of it out; the run's totals are
    # the sums over its records
    p = wave2d(8)
    for mode in ("exact", "inexact"):
        cfg = SolverConfig(sigma=PROBE, nev=3, tol_outer=1e-10, mode=mode, seed=0)
        res = outer_loop(p, cfg)
        assert all(res.converged)
        wall = sum(rec.wall_ms for rec in res.history)
        phases = sum(res.phase_wall_ms.values())
        assert phases <= wall, mode
        assert phases >= 0.9 * wall, mode
        assert all(rec.wall_ms > 0.0 for rec in res.history)
        assert res.cumulative_inner_iters == sum(r.inner_iters for r in res.history)
        assert res.inner_failures == sum(r.inner_failures for r in res.history)
    assert res.cumulative_inner_iters > 0


def test_restart_guard_stall_case():
    # with restarts unguarded, spurious Ritz values near this shift keep
    # displacing a nearly converged pair and the run never converges; the
    # residual-progress guard must keep it close to the run that never
    # restarts (max_subspace = 120 exceeds the k it converges at)
    p = random_qep(300, density=0.02, seed=3)
    for extraction in ("ritz", "refined"):
        base = dict(sigma=0.3 + 0.2j, nev=3, mode="exact", extraction=extraction)
        ref = outer_loop(p, SolverConfig(max_subspace=120, **base))
        steps = [0]

        def bounded(view):
            steps[0] += 1
            return steps[0] > 3 * len(ref.history)

        res = outer_loop(p, SolverConfig(**base), observer=bounded)
        ref_k = ref.history[-1].subspace_dim
        assert all(ref.converged) and ref_k < 120
        assert res.stop_reason == "converged", extraction
        assert all(res.converged)
        assert max(r.subspace_dim for r in res.history) < ref_k  # it restarted
        assert len(res.history) <= 3 * len(ref.history)
        for a, b in zip(res.eigenpairs, ref.eigenpairs):
            assert abs(a.lam - b.lam) <= 1e-8


def test_explicit_max_subspace_caps_the_basis():
    # an explicit max_subspace is the basis capacity: the run restarts there
    # under the guard, and where a cycle gains no digit it is exhausted
    # instead of doubling past the cap (the default restart size would
    # double and converge on this case, see test_restart_guard_stall_case)
    p = random_qep(300, density=0.02, seed=3)
    cfg = SolverConfig(sigma=0.3 + 0.2j, nev=3, mode="exact", max_subspace=20)
    res = outer_loop(p, cfg)
    assert res.stop_reason == "exhausted"
    history = res.history
    assert max(rec.subspace_dim for rec in history) == 20
    assert len(history) > 20  # it restarted before giving up


def test_default_restart_size_above_six_targets():
    # nev = 8 takes exact mode's default restart size to 3 * nev = 24, which
    # keeps 12 vectors per restart; without restarts this run grows to 115
    p = wave2d(12)
    sigma = -0.5 + 4j
    lams = full_eig(p, sigma).lams
    nev_dist = np.sort(np.abs(lams - sigma))[7]
    res = outer_loop(p, SolverConfig(sigma=sigma, nev=8, mode="exact"))
    assert all(res.converged)
    assert max(rec.subspace_dim for rec in res.history) == 24
    assert len(res.history) > 24  # it restarted
    matched = set()
    for pair in res.eigenpairs:
        i = int(np.argmin(np.abs(lams - pair.lam)))
        assert abs(lams[i] - pair.lam) <= 1e-8 * max(1.0, abs(pair.lam))
        assert abs(pair.lam - sigma) <= nev_dist * (1 + 1e-8)
        matched.add(i)
    assert len(matched) == 8


def test_default_restart_size_keeps_nev_vectors():
    # a restart keeps R // 2 vectors, so the default R is at least 3 * nev
    # in both modes (up to n); inexact mode once stopped at min(n, 120),
    # which left nev = 61 runs exhausted at k = 120 without a restart.  The
    # capacity, up to which a default R doubles, is inexact mode's default
    # R in both modes, and an explicit max_subspace is both sizes
    for mode, smallest in (("exact", 20), ("inexact", 120)):
        for nev, n, expect, capacity in (
                (1, 1000, smallest, 120), (6, 1000, smallest, 120),
                (40, 1000, 120, 120), (41, 1000, 123, 123), (61, 1000, 183, 183),
                (61, 132, 132, 132), (61, 100, 100, 100),
                (6, 60, min(60, smallest), 60), (1, 15, 15, 15)):
            cfg = SolverConfig(sigma=PROBE, nev=nev, mode=mode)
            assert cfg.basis_sizes(n) == (expect, capacity), (mode, nev, n)
            assert expect // 2 >= nev or expect == n
            cfg.validate(n)
        for nev, n in ((1, 1000), (61, 1000), (1, 50)):
            cfg = SolverConfig(sigma=PROBE, nev=nev, mode=mode, max_subspace=50)
            assert cfg.basis_sizes(n) == (50, 50), (mode, nev, n)


WAVE_SIGMA = -0.5 + 4j


def wave20_inexact(**kwargs):
    cfg = dict(sigma=WAVE_SIGMA, nev=6, tol_outer=1e-8, mode="inexact", **kwargs)
    return wave2d(20), SolverConfig(**cfg)


def count_small_solves(monkeypatch, compare=False):
    """Counts of the loop's full eigensolves and warm refinements and of
    the warm ones that failed; with ``compare``, also the warm results
    next to the full solve of the same blocks."""
    counts = {"full": 0, "warm": 0, "failed": 0}
    compared = []
    full, warm = solver.solve_projected_qep, solver.warm_projected_qep

    def counted_full(*args):
        counts["full"] += 1
        return full(*args)

    def counted_warm(Mk, Ck, Kk, sigma, omegas):
        counts["warm"] += 1
        out = warm(Mk, Ck, Kk, sigma, omegas)
        counts["failed"] += out is None
        if compare and out is not None:
            compared.append((out, full(Mk, Ck, Kk, sigma)))
        return out

    monkeypatch.setattr(solver, "solve_projected_qep", counted_full)
    monkeypatch.setattr(solver, "warm_projected_qep", counted_warm)
    return counts, compared


def test_warm_values_match_full_eigensolve(monkeypatch):
    # wave2d(20) inexact grows to k = 99: every warm step above k = 40
    # gives the first nev values of the full eigensolve of the same
    # blocks, in its order, and the run takes the outer and inner steps of
    # a run that never warms
    p, cfg = wave20_inexact()
    counts, compared = count_small_solves(monkeypatch, compare=True)
    res = outer_loop(p, cfg)
    assert all(res.converged) and res.history[-1].subspace_dim == 99
    warm_steps = sum(rec.warm_start for rec in res.history)
    assert warm_steps >= 40 and counts["failed"] == 0
    assert len(compared) == counts["warm"] == warm_steps + 1  # + the last check
    for out, full in compared:
        ref = full.omegas[:cfg.nev]
        assert np.abs(out.omegas[:cfg.nev] - ref).max() <= 1e-10 * np.abs(ref).min()
        for i in range(cfg.nev):  # and its vectors are null vectors
            assert _null_residual(out._blocks, out, i) <= 1e-10
    assert res.full_eigensolves == counts["full"] == len(res.history) - warm_steps
    assert all(rec.subspace_dim > solver.WARM_MIN_K
               for rec in res.history if rec.warm_start)

    monkeypatch.setattr(solver, "WARM_MIN_K", p.n)
    cold = outer_loop(p, cfg)
    assert cold.full_eigensolves == len(cold.history) == len(res.history)
    assert cold.cumulative_inner_iters == res.cumulative_inner_iters
    for a, b in zip(res.eigenpairs, cold.eigenpairs):
        assert abs(a.lam - b.lam) <= 1e-10 * abs(b.lam)


def test_warm_steps_from_the_second_step(monkeypatch):
    # with WARM_MIN_K = 0 the second step already refines the first
    # step's values, and the first, which has none to refine, runs the full
    # eigensolve; the run converges to a cold run's eigenvalues
    p = wave2d(6)
    cfg = SolverConfig(sigma=WAVE_SIGMA, nev=2, mode="inexact")
    monkeypatch.setattr(solver, "WARM_MIN_K", p.n)
    cold = outer_loop(p, cfg)
    monkeypatch.setattr(solver, "WARM_MIN_K", 0)
    res = outer_loop(p, cfg)
    assert res.stop_reason == "converged" and all(res.converged)
    assert [rec.warm_start for rec in res.history[:2]] == [False, True]
    assert res.full_eigensolves < len(res.history)
    for a, b in zip(res.eigenpairs, cold.eigenpairs):
        assert abs(a.lam - b.lam) <= 1e-10 * abs(b.lam)


def test_convergence_is_declared_on_a_full_eigensolve(monkeypatch):
    # with no full eigensolve scheduled above k = 40, the step whose warm
    # pairs all converge still runs one before it stops
    p, cfg = wave20_inexact()
    monkeypatch.setattr(solver, "WARM_STEPS", 10**6)
    counts, _ = count_small_solves(monkeypatch)
    res = outer_loop(p, cfg)
    assert res.stop_reason == "converged" and all(res.converged)
    warm = [rec.warm_start for rec in res.history]
    assert warm[-1] is False and all(warm[-10:-1])
    assert counts["full"] == res.full_eigensolves == solver.WARM_MIN_K + 1


def test_no_warm_steps_in_small_subspaces(monkeypatch):
    # exact mode's default restart size keeps k at 20 for these runs, so
    # they never warm: wave2d(20) refined and an nev = 1 sweep-style run
    counts, _ = count_small_solves(monkeypatch)
    runs = [
        (wave2d(20), SolverConfig(sigma=WAVE_SIGMA, nev=6, tol_outer=1e-8,
                                  mode="exact", extraction="refined")),
        (spring_maxwell(SpringMaxwellParams(25, 19, seed=0)),
         SolverConfig(sigma=-0.0363 + 0.001j, nev=1, tol_outer=1e-10, mode="exact")),
    ]
    for p, cfg in runs:
        res = outer_loop(p, cfg)
        assert all(res.converged)
        assert not any(rec.warm_start for rec in res.history)
        assert res.full_eigensolves == len(res.history)
    assert counts["warm"] == 0


def test_failed_refinement_falls_back_in_the_same_iteration(monkeypatch):
    # two collapsed targets fail every refinement; each such step runs the
    # full eigensolve instead, so the history is that of a run that never
    # warms, bit for bit
    p, cfg = wave20_inexact()

    def stop(view):
        return view.k >= 50

    monkeypatch.setattr(solver, "WARM_MIN_K", p.n)
    cold = outer_loop(p, cfg, observer=stop)
    monkeypatch.undo()

    warm = solver.warm_projected_qep
    calls = []

    def collapsed(Mk, Ck, Kk, sigma, omegas):
        calls.append(len(omegas))
        out = warm(Mk, Ck, Kk, sigma, np.r_[omegas[:1], omegas[:-1]])
        assert out is None
        return out

    monkeypatch.setattr(solver, "warm_projected_qep", collapsed)
    res = outer_loop(p, cfg, observer=stop)
    assert len(calls) == 50 - solver.WARM_MIN_K
    assert res.full_eigensolves == len(res.history) == len(cold.history)
    for a, b in zip(res.history, cold.history):
        assert (a.ritz_values, a.relres, a.inner_iters) == (b.ritz_values, b.relres,
                                                            b.inner_iters)


def test_warm_projected_qep_refines_perturbed_values(rng):
    # values perturbed by 1e-4 refine to the eigenvalues of the blocks, in
    # finite order, with null vectors; two equal starts fail
    k = 30
    Mk, Ck, Kk = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                  for _ in range(3))
    sigma = 0.3 + 0.2j
    full = solve_projected_qep(Mk, Ck, Kk, sigma)
    targets = full.omegas[:4]
    start = (targets * (1 + 1e-4 * rng.standard_normal(4)))[::-1]
    out = solver.warm_projected_qep(Mk, Ck, Kk, sigma, start)
    assert np.abs(out.omegas - targets).max() <= 1e-10 * np.abs(targets).min()
    for i in range(4):
        assert _null_residual((Mk, Ck, Kk), out, i) <= 1e-10
    assert solver.warm_projected_qep(Mk, Ck, Kk, sigma, start[[0, 0, 1]]) is None


def test_select_expansion_residual_cases():
    pairs = [make_pair(1e-14, True), make_pair(1e-2, False), make_pair(1e-1, False)]
    assert select_expansion_residual(pairs, 3) == 1
    # the first nev pairs all pass: nothing left to expand
    assert select_expansion_residual(pairs, 1) is None
    # no finite pair: nothing to expand, and the run ends as a breakdown
    assert select_expansion_residual([], 1) is None
    # all present pairs pass but too few of them: keep growing
    assert select_expansion_residual([make_pair(1e-14, True)], 2) == 0


@pytest.mark.parametrize(
    "relres, digits, nev, k, n, restart_size, capacity, expected",
    [
        # a restart could keep only R // 2 = 2 < nev vectors, gain or not
        ([1e-3, 1e-3, 1e-3], 0.0, 3, 4, 100, 4, 120, ("exhausted", 0.0)),
        # the basis spans the whole space, gain or not
        ([1e-3, 1e-3], 0.0, 2, 20, 20, 20, 20, ("exhausted", 0.0)),
        # 3 + 2 digits against 4 at the last restart: a gain of exactly one
        ([1e-3, 1e-2], 4.0, 2, 20, 100, 20, 120, ("restart", 5.0)),
        # half a digit: R doubles, and the restart's digits are kept
        ([1e-3, 1e-2], 4.5, 2, 20, 100, 20, 120, ("double", 4.5)),
        # the same at the capacity: R cannot double
        ([1e-3, 1e-2], 4.5, 2, 120, 200, 120, 120, ("exhausted", 4.5)),
        # digits capped at tol_outer's 8 and clipped at 0; the third pair is
        # missing and counts 0
        ([1e-12, 2.0], 0.0, 3, 20, 100, 20, 120, ("restart", 8.0)),
        # a pair beyond the first nev does not count
        ([1e-3, 1e-3, 1e-3], 5.5, 2, 20, 100, 20, 120, ("double", 5.5)),
    ],
    ids=["too-few-kept", "whole-space", "gain", "double", "capacity", "missing-pair",
         "beyond-nev"],
)
def test_restart_rule_cases(relres, digits, nev, k, n, restart_size, capacity, expected):
    assert solver._restart_rule(relres, digits, nev, 1e-8, k, n, restart_size,
                                capacity) == expected


def test_start_vector_is_the_seeded_draw_or_the_given_vector():
    rng = np.random.default_rng(3)
    drawn = rng.uniform(-1.0, 1.0, 5) + 1j * rng.uniform(-1.0, 1.0, 5)
    assert np.array_equal(SolverConfig(sigma=0.5, seed=3).start_vector(5), drawn)
    given = SolverConfig(sigma=0.5, seed=3, initial_vector=[1, 2, 3, 4, 5]).start_vector(5)
    assert given.dtype == complex and np.array_equal(given, [1, 2, 3, 4, 5])


@pytest.mark.parametrize("nev", [1, 2])
def test_expansion_breakdown_after_every_candidate(nev):
    # span(e1, e2) is invariant, so from v1 = e1 + e2 every expansion
    # Q(sigma)^{-1} r stays in it.  A tolerance below round-off keeps its
    # exact pairs unconverged, and at k = 2 every candidate residual
    # orthogonalizes to nothing: the run returns the exact pairs it scored
    p = QepProblem(np.eye(4), np.zeros((4, 4)), np.diag([1.0, 2.0, 3.0, 4.0]))
    config = SolverConfig(sigma=0.9j, nev=nev, mode="exact", tol_outer=1e-17,
                          initial_vector=[1.0, 1.0, 0.0, 0.0])
    steps = []
    res = outer_loop(p, config, observer=lambda view: steps.append(view.k))
    assert steps == [1]
    assert res.stop_reason == "breakdown"
    assert res.history[-1].expansion_breakdowns == nev
    assert len(res.eigenpairs) == nev
    for pair, lam in zip(res.eigenpairs, [1j, np.sqrt(2) * 1j]):
        assert abs(pair.lam - lam) <= 1e-14
        assert pair.relres <= 1e-15
        assert relative_residual(p, pair.lam, pair.x) == pair.relres


@pytest.mark.parametrize("mode", ["exact", "inexact"])
def test_no_finite_pairs_breaks_down(mode):
    # from v1 = e1, V* M V = V* C V = 0 and V* K V = 1: both eigenvalues
    # of the projected problem are infinite, so no pair can be extracted
    p = QepProblem(np.diag([0.0, 1.0]), np.zeros((2, 2)), np.eye(2))
    config = SolverConfig(sigma=0.5j, nev=1, initial_vector=[1.0, 0.0], mode=mode)
    res = outer_loop(p, config)
    assert res.stop_reason == "breakdown"
    assert res.eigenpairs == [] and res.converged == [] and res.relres == []
    assert len(res.history) == 1 and res.history[0].ritz_values == []


def test_inexact_expansion_breakdown_record(monkeypatch):
    # the first expansion's selected residual breaks down once in
    # orthogonalization, so the next candidate is solved as well: the
    # record sums both solves' inner steps and keeps the last residual
    solves, raised = [], []
    real_gmres = solver.gmres
    real_orthonormalize = OrthonormalBasis.orthonormalize

    def recording(*args, **kwargs):
        res = real_gmres(*args, **kwargs)
        solves.append((res.iters, res.relres))
        return res

    def breaking(self, u):
        if len(solves) == 1 and not raised:
            raised.append(u)
            raise Breakdown("forced")
        return real_orthonormalize(self, u)

    monkeypatch.setattr(solver, "gmres", recording)
    monkeypatch.setattr(OrthonormalBasis, "orthonormalize", breaking)
    cfg = SolverConfig(sigma=PROBE, nev=2, tol_outer=1e-8, mode="inexact")
    res = outer_loop(wave2d(8), cfg)
    assert all(res.converged) and len(raised) == 1
    first = res.history[0]
    assert solves[0][0] > 0 and solves[1][0] > 0
    assert first.inner_iters == solves[0][0] + solves[1][0]
    assert first.inner_relres == solves[1][1]
    assert first.expansion_breakdowns == 1
    assert sum(rec.expansion_breakdowns for rec in res.history) == 1
    assert res.cumulative_inner_iters == sum(steps for steps, _ in solves)


def test_config_validation(p_example1):
    n = p_example1.n
    good = SolverConfig(sigma=0.9)
    good.validate(n)
    cases = [
        SolverConfig(sigma=0.9, mode="other"),
        SolverConfig(sigma=0.9, extraction="other"),
        SolverConfig(sigma=0.9, tol_outer=0.0),
        SolverConfig(sigma=0.9, tol_inner=2.0),
        SolverConfig(sigma=0.9, nev=0),
        SolverConfig(sigma=0.9, restart=0),
        SolverConfig(sigma=0.9, inner_maxit=0),
        SolverConfig(sigma=0.9, nev=4),
        SolverConfig(sigma=0.9, max_subspace=0),
        SolverConfig(sigma=0.9, max_subspace=5),
    ]
    for cfg in cases:
        with pytest.raises(ValueError):
            cfg.validate(n)
    # non-finite inputs fail here, naming the field, instead of as a
    # zero pivot or a singular projected problem later on
    named = [
        ("sigma", SolverConfig(sigma=complex("nan"))),
        ("sigma", SolverConfig(sigma=float("inf"))),
        ("sigma", SolverConfig(sigma=1e308 + 1e308j)),
        ("initial_vector", SolverConfig(sigma=0.9, initial_vector=[1.0, np.nan, 0.0])),
        ("tol_outer", SolverConfig(sigma=0.9, tol_outer=np.nan)),
        ("tol_inner", SolverConfig(sigma=0.9, tol_inner=1.0)),
        # integer settings fail here too, instead of as a slice or a
        # shape error after set-up
        ("nev", SolverConfig(sigma=0.9, nev=2.5)),
        ("max_subspace", SolverConfig(sigma=0.9, max_subspace=2.5)),
        ("restart", SolverConfig(sigma=0.9, restart=2.5)),
        ("inner_maxit", SolverConfig(sigma=0.9, inner_maxit=2.5)),
        ("seed", SolverConfig(sigma=0.9, seed=-1)),
        ("seed", SolverConfig(sigma=0.9, seed=1.0)),
        ("initial_vector", SolverConfig(sigma=0.9, initial_vector=np.ones(4))),
        # a zero start used to fail as ZeroVector inside the run
        ("initial_vector must be nonzero",
         SolverConfig(sigma=0.9, initial_vector=np.zeros(3))),
        # a non-real tolerance used to fail as an unnamed TypeError in the
        # range comparison, and a bool passed as a count
        ("tol_outer must be a real number", SolverConfig(sigma=0.9, tol_outer="1e-8")),
        ("tol_outer must be a real number", SolverConfig(sigma=0.9, tol_outer=1e-8 + 0j)),
        ("tol_inner must be a real number", SolverConfig(sigma=0.9, tol_inner=None)),
        ("nev must be an integer, got True", SolverConfig(sigma=0.9, nev=True)),
        # a shift that is not a number used to fail as an unnamed
        # TypeError or a malformed-string error, or pass as a string
        ("shift sigma must be a number, got None", SolverConfig(sigma=None)),
        ("shift sigma must be a number, got 'abc'", SolverConfig(sigma="abc")),
        ("shift sigma must be a number, got '1\\+2j'", SolverConfig(sigma="1+2j")),
        # a start vector that is not numeric used to fail as a
        # malformed-string error, pass as numbers or be called non-finite
        ("initial_vector must hold numbers", SolverConfig(sigma=0.9, initial_vector="abc")),
        ("initial_vector must hold numbers", SolverConfig(sigma=0.9, initial_vector=[1, "x", 0])),
        ("initial_vector must hold numbers",
         SolverConfig(sigma=0.9, initial_vector=["1", "2", "3"])),
        ("initial_vector must hold numbers",
         SolverConfig(sigma=0.9, initial_vector=[None, 1, 0])),
    ]
    for field, cfg in named:
        with pytest.raises(ValueError, match=field):
            cfg.validate(n)


def test_outer_loop_rejects_newton_mode(p_example1):
    with pytest.raises(ValueError, match="unknown mode"):
        outer_loop(p_example1, SolverConfig(sigma=0.9, mode="newton"))


def test_solver_agrees_with_oracle(p_wave2d4, oracle_wave2d4_probe):
    cfg = SolverConfig(sigma=PROBE, nev=3, tol_outer=1e-11, mode="exact", seed=0)
    res = outer_loop(p_wave2d4, cfg)
    assert all(res.converged)
    for pair, lam_true in zip(res.eigenpairs, oracle_wave2d4_probe.lams[:3]):
        assert abs(pair.lam - lam_true) <= 1e-9 * max(1.0, abs(lam_true))


def test_dense_cap_boundary(monkeypatch):
    # random_qep(60) is factored densely (its pattern fills in), and n = 60
    # lies above a cap of 10: exact mode and Newton refuse the dense
    # factorization of Q up front, naming the cap and the way out, and
    # inexact mode at a tight inner tolerance still gets the spectrum
    p = random_qep(60, density=0.05, seed=1)
    assert p.factorization == "dense"
    lams = full_eig(p, PROBE).lams
    monkeypatch.setenv("QRI_DENSE_CAP", "10")
    cap_error = r'n = 60 exceeds the dense cap 10; use mode="inexact"'
    cfg = SolverConfig(sigma=PROBE, nev=3, tol_outer=1e-11, mode="exact")
    with pytest.raises(ValueError, match=cap_error):
        outer_loop(p, cfg)
    with pytest.raises(ValueError, match=cap_error):
        newton_solve(p, PROBE, np.ones(60, dtype=complex))
    cfg.mode, cfg.tol_inner, cfg.restart = "inexact", 1e-14, p.n
    res = outer_loop(p, cfg)
    assert all(res.converged)
    for pair, lam_true in zip(res.eigenpairs, lams[:3]):
        assert abs(pair.lam - lam_true) <= 1e-9 * max(1.0, abs(lam_true))


def test_sparse_factorization_ignores_dense_cap(monkeypatch):
    # wave2d(8), n = 56, is factored sparsely, so a cap of 10 does not
    # stop exact mode or Newton, and both still find the oracle's values
    p = wave2d(8)
    assert p.factorization == "sparse"
    lams = full_eig(p, PROBE).lams
    monkeypatch.setenv("QRI_DENSE_CAP", "10")
    cfg = SolverConfig(sigma=PROBE, nev=3, tol_outer=1e-11, mode="exact")
    res = outer_loop(p, cfg)
    assert all(res.converged)
    for pair, lam_true in zip(res.eigenpairs, lams[:3]):
        assert abs(pair.lam - lam_true) <= 1e-9 * max(1.0, abs(lam_true))
    first = res.eigenpairs[0]
    nres = newton_solve(p, first.lam + 1e-3, first.x, tol=1e-12)
    assert nres.converged
    assert abs(nres.lam - lams[0]) <= 1e-9 * max(1.0, abs(lams[0]))


def test_exact_and_newton_above_dense_cap():
    # wave2d(50), n = 2450, lies above the default cap of 2000 but is
    # factored sparsely: exact mode and Newton run and find the values of
    # an inexact run.  As in the exact/inexact acceptance check, runs at
    # tol_outer = 1e-10 agree to 1e-8: an eigenvalue's error is a few
    # times its relative residual here
    p = wave2d(50)
    assert p.factorization == "sparse"
    base = dict(sigma=-0.5 + 4j, nev=3, tol_outer=1e-10, seed=0)
    exact = outer_loop(p, SolverConfig(mode="exact", **base))
    inexact = outer_loop(p, SolverConfig(mode="inexact", **base))
    assert all(exact.converged) and all(inexact.converged)
    for xe, xi in zip(exact.eigenpairs, inexact.eigenpairs):
        assert abs(xe.lam - xi.lam) <= 1e-8 * abs(xi.lam)
        nres = newton_solve(p, xe.lam, xe.x, tol=1e-13)
        assert nres.converged
        assert abs(nres.lam - xi.lam) <= 1e-8 * abs(xi.lam)


def test_exact_and_newton_bit_identical():
    # the sparse factorization is deterministic, so two exact runs with
    # Newton refinement on the singular-M chain repeat every bit
    p = spring_maxwell(SpringMaxwellParams(25, 19, seed=0))
    assert p.factorization == "sparse"
    cfg = SolverConfig(sigma=-0.2 + 1j, nev=1, tol_outer=1e-10, mode="exact")
    runs = []
    for _ in range(2):
        res = outer_loop(p, cfg)
        first = res.eigenpairs[0]
        runs.append((res, newton_solve(p, first.lam, first.x, tol=1e-13)))
    (a, na), (b, nb) = runs
    assert all(a.converged) and na.converged
    for ha, hb in ((a.history, b.history), (na.history, nb.history)):
        assert len(ha) == len(hb)
        for ra, rb in zip(ha, hb):
            assert ra.subspace_dim == rb.subspace_dim
            assert ra.ritz_values == rb.ritz_values
            assert ra.relres == rb.relres
    assert a.eigenpairs[0].lam == b.eigenpairs[0].lam
    assert np.array_equal(a.eigenpairs[0].x, b.eigenpairs[0].x)
    assert na.lam == nb.lam and np.array_equal(na.x, nb.x)


def test_oracle_property_sweep():
    # seeded shifts at 0.3 times the gap from a random eigenvalue, on an
    # unstructured complex problem, one with singular M (infinite
    # eigenvalues) and the waveguide, in both expansion modes.  Full
    # GMRES (restart = n) keeps the inner solves short on these small
    # problems; restarted at 30 it often runs to inner_maxit.
    problems = (
        random_qep(60, density=0.05, seed=1),
        spring_maxwell(SpringMaxwellParams(10, 4, seed=2)),
        wave2d(8),
    )
    rng = np.random.default_rng(5)
    nev = 3
    for p in problems:
        lams = full_eig(p, PROBE).lams
        for seed in range(3):
            j = rng.integers(len(lams))
            gap = np.sort(np.abs(lams - lams[j]))[1]
            sigma = lams[j] + 0.3 * gap * np.exp(2j * np.pi * rng.uniform())
            nev_dist = np.sort(np.abs(lams - sigma))[nev - 1]
            for mode in ("exact", "inexact"):
                cfg = SolverConfig(
                    sigma=sigma, nev=nev, tol_outer=1e-10, mode=mode,
                    tol_inner=1e-3, restart=p.n, seed=seed,
                )
                res = outer_loop(p, cfg)
                assert res.converged == [True] * nev, (p, seed, mode)
                matched = set()
                for pair in res.eigenpairs:
                    assert relative_residual(p, pair.lam, pair.x) <= 1e-10
                    i = int(np.argmin(np.abs(lams - pair.lam)))
                    assert abs(lams[i] - pair.lam) <= 1e-8 * max(1.0, abs(pair.lam))
                    assert abs(pair.lam - sigma) <= nev_dist * (1 + 1e-8)
                    matched.add(i)
                assert len(matched) == nev, (p, seed, mode)


def test_symmetric_rule(tmp_path):
    # inexact mode's choice of COCR: M, C and K equal their transposes
    # exactly, and a Matrix Market round trip keeps them so
    sym = (wave2d(4), spring_maxwell(SpringMaxwellParams(10, 4, seed=2)))
    nonsym = (random_qep(60, density=0.05, seed=1), example1())
    for i, p in enumerate(sym + nonsym):
        assert p.symmetric == (p in sym), p
        prefix = str(tmp_path / f"p{i}")
        write_problem(prefix, p)
        assert read_problem(prefix).symmetric == p.symmetric, p


def test_recycle_space_only_for_nonsymmetric_inexact(monkeypatch):
    # COCR needs no deflation space: a symmetric problem's inexact run
    # makes none, a nonsymmetric one makes one for the run.  The random
    # problem's shift is one of test_oracle_property_sweep's
    made = []

    def counting(*args):
        made.append(args)
        return real(*args)

    real = solver.RecycleSpace
    monkeypatch.setattr(solver, "RecycleSpace", counting)
    cases = ((wave2d(8), PROBE, 0, "cocr"),
             (random_qep(60, density=0.05, seed=1),
              -0.7825681038075271 + 0.4461769817104889j, 1, "gmres"))
    for p, sigma, spaces, inner_solver in cases:
        made.clear()
        cfg = SolverConfig(sigma=sigma, nev=3, tol_outer=1e-8, mode="inexact")
        res = outer_loop(p, cfg)
        assert all(res.converged), p
        assert len(made) == spaces, p
        assert res.inner_solver == inner_solver, p
    # the space is made at the first solve, not with the expansion, and
    # serves every later solve
    made.clear()
    expansion = solver.KrylovExpansion(p, cfg)
    assert expansion.inner_solver == "gmres" and made == []
    r = np.ones(p.n, dtype=complex)
    for _ in range(2):
        expansion.solve(r)
        assert len(made) == 1
    res = outer_loop(wave2d(8), SolverConfig(sigma=PROBE, mode="exact"))
    assert res.inner_solver is None


def test_recycling_pays_on_convected_wave2d(monkeypatch):
    # a central-difference convection term (b = 10) makes wave2d(30)
    # nonsymmetric, so inexact mode runs GMRES; at m = 30 its inner solves
    # outlast one cycle and the recycled space is used (at m <= 20 it is
    # not).  Recycled: 97 outer, 1427 inner steps; plain: 96 and 2500
    m, b = 30, 10.0
    w = wave2d(m)
    conv = sp.diags_array([-np.ones(m - 1), np.ones(m - 1)], offsets=[-1, 1])
    p = QepProblem(w.M, w.C, w.K + (b / (2 * m)) * sp.kron(
        sp.identity(m - 1), conv, format="csr"))
    assert p.n == 870 and not p.symmetric
    sigma = -0.5 + 4j
    cfg = SolverConfig(sigma=sigma, nev=6, tol_outer=1e-8, mode="inexact")
    exact = outer_loop(p, SolverConfig(sigma=sigma, nev=6, tol_outer=1e-8, mode="exact"))
    recycled = outer_loop(p, cfg)
    monkeypatch.setattr(solver, "RecycleSpace", lambda *args: None)
    plain = outer_loop(p, cfg)
    for res in (exact, recycled, plain):
        assert all(res.converged)
    assert recycled.inner_solver == plain.inner_solver == "gmres"
    assert recycled.cumulative_inner_iters <= 0.7 * plain.cumulative_inner_iters
    ref = np.array([pair.lam for pair in exact.eigenpairs])
    for res in (recycled, plain):
        lams = np.array([pair.lam for pair in res.eigenpairs])
        assert np.max(np.abs(lams - ref) / np.abs(ref)) <= 1e-6


def test_spring_maxwell_sweep_shifts_inner_solves_converge():
    # two shifts of test_oracle_property_sweep's spring_maxwell problem
    # (seeds 0 and 2) at the default restart = 30: recycled GMRES stopped
    # 15 and 13 inner solves at inner_maxit there; COCR stops none
    p = spring_maxwell(SpringMaxwellParams(10, 4, seed=2))
    lams = full_eig(p, PROBE).lams
    shifts = ((0, -0.47857761947180644 + 3.741581340790749e-07j),
              (2, -1.2750757584822654 + 3.8696679788495165e-07j))
    for seed, sigma in shifts:
        cfg = SolverConfig(sigma=sigma, nev=3, tol_outer=1e-10, mode="inexact",
                           tol_inner=1e-3, seed=seed)
        res = outer_loop(p, cfg)
        assert res.inner_solver == "cocr"
        assert res.inner_failures == 0, seed
        assert res.converged == [True] * 3
        nearest = lams[np.argsort(np.abs(lams - sigma), kind="stable")[:3]]
        for pair in res.eigenpairs:
            assert np.min(np.abs(nearest - pair.lam)) <= 1e-8 * abs(pair.lam)
