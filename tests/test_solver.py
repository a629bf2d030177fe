import numpy as np
import pytest

from conftest import rand_complex
from qri import (
    BreakdownError,
    SolverConfig,
    SubspaceExhausted,
    full_eig,
    newton_solve,
    outer_loop,
    random_qep,
    refined_vector,
    relative_residual,
    wave2d,
)
from qri.linalg import sin_angle_vectors
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
    assert sin_angle_vectors(res.x, E2) <= 1e-8
    assert len(res.history) <= 10


def test_newton_exact_start_zero_iterations(p_example1):
    res = newton_solve(p_example1, 1.0, E2, tol=1e-10)
    assert res.converged
    assert res.lam == 1.0
    assert len(res.history) == 1


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
    assert res.history[-1].k == 1


def test_projection_cache_matches_scratch(p_wave2d6, rng):
    # wave2d's matrices are real symmetric, so a missing conjugate or
    # transpose in the cache's new row shows only on the complex,
    # unstructured random problem
    for p in (p_wave2d6, random_qep(30, density=0.1, seed=1)):
        n = p.n
        V, _ = np.linalg.qr(rand_complex(rng, n * 6).reshape(n, 6))
        cache = ProjectionCache(p)
        for k in range(6):
            cache.append(V[:, : k + 1], V[:, k])
        for got, full in zip(cache.blocks, p.densify()):
            want = V.conj().T @ full @ V
            assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), 1.0)


def test_projection_cache_grows(p_wave2d4, rng):
    n = p_wave2d4.n
    V, _ = np.linalg.qr(rand_complex(rng, n * 7).reshape(n, 7))
    cache = ProjectionCache(p_wave2d4, capacity=2)
    for k in range(7):
        cache.append(V[:, : k + 1], V[:, k])
    assert cache.k == 7
    Md, _, _ = p_wave2d4.densify()
    want = V.conj().T @ Md @ V
    assert np.linalg.norm(cache.blocks[0] - want) <= 1e-13 * np.linalg.norm(want)


def test_projected_solve_at_eigenvalue(p_example1):
    # sigma = 1 is an eigenvalue, so the shift is nudged by about 1e-8;
    # the values must be read off the nudged shift, or the nearest one
    # is off by that much
    Md, Cd, Kd = p_example1.densify()
    pairs = solve_projected_qep(Md, Cd, Kd, 1.0 + 0.0j)
    assert len(pairs) == 5  # the infinite eigenvalue is skipped
    assert abs(pairs[0].omega - 1.0) <= 1e-12
    assert np.linalg.norm((Md + Cd + Kd) @ pairs[0].z) <= 1e-12


def test_outer_loop_small_reference(p_example1):
    cfg = SolverConfig(sigma=0.9, nev=1, tol_outer=1e-12, mode="exact", seed=0)
    res = outer_loop(p_example1, cfg)
    assert res.stop_reason == "converged"
    assert res.converged == [True]
    assert abs(res.eigenpairs[0].lam - 1.0) <= 1e-10
    assert sin_angle_vectors(res.eigenpairs[0].x, E2) <= 1e-8
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
    with pytest.raises(ValueError):
        outer_loop(p_example1, SolverConfig(sigma=0.9, mode="newton"))


def test_solver_agrees_with_oracle(p_wave2d4, oracle_wave2d4_probe):
    cfg = SolverConfig(sigma=PROBE, nev=3, tol_outer=1e-11, mode="exact", seed=0)
    res = outer_loop(p_wave2d4, cfg)
    assert all(res.converged)
    for pair, lam_true in zip(res.eigenpairs, oracle_wave2d4_probe.lams[:3]):
        assert abs(pair.lam - lam_true) <= 1e-9 * max(1.0, abs(lam_true))
