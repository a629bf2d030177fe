"""End-to-end acceptance checks.

Each test pins one externally meaningful behavior of the package at its
stated tolerance: the frozen reference spectrum, solver convergence and
equivalence guarantees, the angle identities and bounds that justify
the expansion strategy, robustness across inner tolerances, and
reproducibility of run artifacts.  These are deliberately heavier than
the unit tests; together they run in well under two minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qri import (
    SolverConfig,
    example1,
    full_eig,
    newton_solve,
    outer_loop,
    q_apply,
    refined_vector,
    wave2d,
)
from qri.cli import main as cli_main
from qri.diagnostics import (
    pick_isolated_index,
    run_angle_bound_check,
    run_angle_identity_check,
    run_perturbation_trials,
    run_resolvent_spot_check,
    run_sandwich_trials,
    shift_at_distance,
)
from qri.linalg import sin_angle

PROBE = 0.1234 + 0.4321j
WAVE20_SIGMA = -0.5 + 4.0j

# inverse spectrum of the shifted reference problem, largest first
INV_SPECTRUM = (10.0, 0.7352941176470588, 0.5524861878453039)
INV_DOMINANT = np.array([0.28734788556634556, 0.9578262852211519, 0.0])


@pytest.fixture(scope="module")
def wave20_runs():
    """Inexact runs on the large waveguide problem, one per inner
    tolerance, shared by the robustness and determinism checks."""
    p = wave2d(20)
    out = {}
    for tol_inner in (1e-3, 1e-4, 1e-5):
        cfg = SolverConfig(
            sigma=WAVE20_SIGMA, nev=6, tol_outer=1e-8,
            mode="inexact", tol_inner=tol_inner, seed=0,
        )
        out[tol_inner] = outer_loop(p, cfg)
    return out


def test_01_shifted_inverse_spectrum():
    Md, Cd, Kd = example1().densify()
    Qinv = np.linalg.inv(0.81 * Md + 0.9 * Cd + Kd)
    w, V = np.linalg.eig(Qinv)
    order = np.argsort(-np.abs(w))
    w = w[order]
    V = V[:, order]
    assert np.allclose(w, INV_SPECTRUM, atol=1e-9)
    v = V[:, 0]
    j = int(np.abs(v).argmax())
    v = v * np.conj(v[j]) / abs(v[j])
    v = v / np.linalg.norm(v)
    assert min(
        np.linalg.norm(v - INV_DOMINANT), np.linalg.norm(v + INV_DOMINANT)
    ) <= 1e-9


def test_02_reference_solve():
    cfg = SolverConfig(sigma=0.9, nev=1, tol_outer=1e-12, mode="exact", seed=0)
    res = outer_loop(example1(), cfg)
    assert abs(res.eigenpairs[0].lam - 1.0) <= 1e-12
    e2 = np.array([0.0, 1.0, 0.0])
    assert sin_angle(e2, res.eigenpairs[0].x) <= 1e-10
    assert len(res.history) <= 3


def test_03_angle_factorization_along_run():
    report = run_angle_identity_check(wave2d(6), PROBE, steps=15, seed=0)
    assert len(report.steps) == 15
    for step in report.steps:
        assert step.gap <= 1e-10
    sins = [s.sin_before for s in report.steps]
    for a, b in zip(sins, sins[1:]):
        assert b <= a * (1.0 + 1e-13)


def test_04_angle_bound_near_isolated_eigenvalue():
    p = wave2d(6)
    d = full_eig(p, PROBE)
    sigma = shift_at_distance(d.lams, pick_isolated_index(d.lams), 1e-2)
    steps = run_angle_bound_check(p, sigma, max_steps=25, seed=0)
    assert len(steps) >= 3
    for s in steps:
        assert s.lhs <= s.rhs + 1e-12


def test_05_resolvent_reconstruction():
    points = run_resolvent_spot_check(wave2d(4), PROBE, n_points=3, seed=0)
    assert len(points) == 3
    for pt in points:
        assert pt.error <= 1e-8


def test_06_perturbation_identities():
    trials = run_perturbation_trials(
        n=40, k=8, trials=100, seed=0
    )
    assert len(trials) == 100
    for t in trials:
        assert t.gap_scale <= 1e-12
        assert t.gap_direction <= 1e-12


def test_07_inner_tolerance_robustness(wave20_runs):
    for res in wave20_runs.values():
        assert all(res.converged)
    outer = [len(res.history) for res in wave20_runs.values()]
    assert max(outer) <= 2 * min(outer)
    cum_loose = wave20_runs[1e-3].cumulative_inner_iters
    cum_tight = wave20_runs[1e-5].cumulative_inner_iters
    assert cum_loose <= 1.1 * cum_tight


def test_08_exact_inexact_equivalence():
    p = wave2d(8)
    base = dict(sigma=PROBE, nev=3, tol_outer=1e-10, seed=0)
    a = outer_loop(p, SolverConfig(mode="exact", **base))
    b = outer_loop(p, SolverConfig(mode="inexact", tol_inner=1e-14, **base))
    assert all(a.converged) and all(b.converged)
    for xa, xb in zip(a.eigenpairs, b.eigenpairs):
        assert abs(xa.lam - xb.lam) <= 1e-8


def test_09_newton_quadratic_rate():
    x0 = np.ones(3, dtype=complex) / np.sqrt(3.0)
    res = newton_solve(example1(), 0.45, x0, tol=1e-12)
    assert res.converged
    assert abs(res.lam - 0.5) <= 1e-10
    errs = [abs(rec.ritz_values[0] - 0.5) for rec in res.history]
    pairs = [
        (errs[i], errs[i + 1])
        for i in range(len(errs) - 1)
        if errs[i + 1] >= 1e-14  # above the rounding floor
    ]
    assert len(pairs) >= 3
    for ek, ek1 in pairs[-3:]:
        assert ek1 <= 100.0 * ek * ek


def test_10_refined_dominance():
    p = wave2d(6)
    snapshots = 0

    def compare(view):
        nonlocal snapshots
        for pair in view.pairs:
            xr, _ = refined_vector(p, view.basis.matrix, pair.lam)
            n_refined = np.linalg.norm(q_apply(p, pair.lam, xr))
            n_ritz = np.linalg.norm(pair.resid)
            assert n_refined <= n_ritz * (1.0 + 1e-12) + 1e-16
            snapshots += 1
        return False

    for seed in (0, 1):
        cfg = SolverConfig(
            sigma=PROBE, nev=3, tol_outer=1e-12, mode="exact", seed=seed,
            max_subspace=16,
        )
        try:
            outer_loop(p, cfg, observer=compare)
        except Exception:
            pass
    assert snapshots >= 50


def test_11_tangent_ordering_statistics():
    # The ordering argument is first-order: its lower comparison can be
    # crossed by a margin of order norm(u - utilde)/norm(u), and with
    # complex data it is, routinely.  The rate bound asserted here is
    # what the approximation claims; measured rates sit far above it
    # (0.2 to 0.5 across shifts, seeds, and restart lengths).
    summary = run_sandwich_trials(
        wave2d(4), ratio=0.01, trials=100, gmres_tol=1e-2, seed=0
    )
    assert summary.trials == 100
    assert summary.hypothesis_count > 0
    assert summary.violation_rate <= 0.05


TEST12_SOLVE = [
    "solve", "--gen", "wave2d", "--m", "20",
    "--sigma", "-0.5+4i", "--nev", "6", "--tol-outer", "1e-8",
    "--mode", "inexact", "--tol-inner", "1e-3", "--seed", "0",
]


def test_12_history_determinism(tmp_path):
    csvs = []
    for run in range(2):
        path = tmp_path / f"run{run}.csv"
        code = cli_main(TEST12_SOLVE + ["--out-csv", str(path)])
        assert code == 0
        csvs.append(path.read_text().splitlines())
    a, b = csvs
    assert len(a) == len(b)
    assert a[0] == b[0]
    for la, lb in zip(a[1:], b[1:]):
        # identical up to the trailing wall-clock column
        assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]


def _cli_histories(tmp_path, threads, runs=2):
    """test_12's solve in ``runs`` fresh interpreters with ``threads`` BLAS
    threads each, as many at once as the cores allow: their history CSVs
    without the wall-clock column."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    paths = [tmp_path / f"threads{threads}_run{run}.csv" for run in range(runs)]
    # oversubscribed cores slow BLAS threads down several times
    batch = max(1, (os.cpu_count() or 1) // threads)
    for start in range(0, runs, batch):
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "qri", *TEST12_SOLVE, "--out-csv", str(path)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            for path in paths[start : start + batch]
        ]
        try:
            for proc in procs:
                _, err = proc.communicate(timeout=300)
                assert proc.returncode == 0, err.decode()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    return [
        [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        for path in paths
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_12_history_determinism_across_processes(tmp_path, threads):
    # bit-identical histories from separate processes at one BLAS thread
    # count; across thread counts they need not match (see README)
    a, b = _cli_histories(tmp_path, threads)
    assert len(a) > 1
    assert a == b
