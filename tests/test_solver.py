import numpy as np
import pytest

from conftest import rand_complex
from qri import (
    BreakdownError,
    SolverConfig,
    SpringMaxwellParams,
    SubspaceExhausted,
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
from qri.qep import finite_order, residual_denominator, shift_invert
from qri.solver import (
    ProjectionCache,
    RitzPair,
    select_expansion_residual,
    solve_projected_qep,
)

PROBE = 0.1234 + 0.4321j

E2 = np.array([0.0, 1.0, 0.0], dtype=complex)


def make_pair(relres, converged, omega=1.0 + 0.0j):
    z = np.ones(2, dtype=complex)
    return RitzPair(
        omega=omega, z=z, xtilde=z, resid=z, relres=relres, converged=converged
    )


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
    for lam0 in (complex("nan"), float("inf"), 1e308 + 1e308j):
        with pytest.raises(ValueError, match="lam0"):
            newton_solve(p_example1, lam0, x0)
    with pytest.raises(ValueError, match="x0"):
        newton_solve(p_example1, 0.9, [1.0, np.nan, 0.0])


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
            cache.append(V[:, : k + 1], V[:, k])
        for got, full in zip(cache.blocks, p.densify()):
            want = V.conj().T @ full @ V
            assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), 1.0)

        # a thick restart compresses basis and blocks with the same Z,
        # and then the blocks keep growing from the compressed basis
        basis = OrthonormalBasis(n, capacity=6)
        for k in range(6):
            basis.append_orthonormal(V[:, k])
        Z, _ = np.linalg.qr(rand_complex(rng, 6 * 4).reshape(6, 4))
        basis.compress(Z)
        cache.compress(Z)
        v = basis.append(rand_complex(rng, n))
        cache.append(basis.matrix, v)
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
        basis = OrthonormalBasis(n, capacity=6)
        cache = ProjectionCache(p, capacity=6, refined=True)

        def check(stage):
            exact, orth = _factor_defects(p, basis.matrix, cache.factor)
            R = cache.factor.R
            assert exact <= 1e-13, (p.name, stage, exact)
            assert orth <= 1e-13, (p.name, stage, orth)
            assert np.array_equal(np.triu(R), R), (p.name, stage)
            assert R.shape[0] <= min(n, R.shape[1])

        for _ in range(6):
            v = basis.append(rand_complex(rng, n))
            cache.append(basis.matrix, v)
        check("appended")
        Z, _ = np.linalg.qr(rand_complex(rng, 6 * 4).reshape(6, 4))
        basis.compress(Z)
        cache.compress(Z)
        check("compressed")
        for _ in range(2):
            v = basis.append(rand_complex(rng, n))
            cache.append(basis.matrix, v)
        check("appended after compression")
    # the singular mass matrix left rows out of R_W
    assert cache.factor.R.shape[0] < cache.factor.R.shape[1]


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
    with pytest.raises(SubspaceExhausted) as excinfo:
        outer_loop(p_wave2d4, cfg)
    partial = excinfo.value.result
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
            xr, _ = refined_vector(p_wave2d6, view.basis.matrix, pair.omega)
            rr = relative_residual(p_wave2d6, pair.omega, xr)
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
            xr, zr = refined_vector(p_wave2d4, view.basis, pair.omega)
            assert np.linalg.norm(pair.xtilde - xr) <= 1e-12
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
                w = pair.omega
                tall = w * w * (p.M @ V) + w * (p.C @ V) + p.K @ V
                smin = np.linalg.svd(tall, compute_uv=False)[-1]
                slack = 1e-15 * residual_denominator(p, w)
                assert np.linalg.norm(pair.resid) <= (1.0 + 1e-10) * smin + slack
                if not restarted:
                    xr, _ = refined_vector(p, V, w)
                    assert np.linalg.norm(pair.xtilde - xr) <= 1e-10
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
    with pytest.raises(SubspaceExhausted) as exc:
        outer_loop(p, cfg)
    history = exc.value.result.history
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


def test_select_expansion_residual_cases():
    pairs = [make_pair(1e-14, True), make_pair(1e-2, False), make_pair(1e-1, False)]
    assert select_expansion_residual(pairs, 3) == 1
    # the first nev pairs all pass: nothing left to expand
    assert select_expansion_residual(pairs, 1) is None
    with pytest.raises(BreakdownError):
        select_expansion_residual([], 1)
    # all present pairs pass but too few of them: keep growing
    assert select_expansion_residual([make_pair(1e-14, True)], 2) == 0


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
