"""The benchmark's tracer wraps names that qri's modules resolve at call
time, and its worker reads fields of the solvers' results; these tests
keep a renamed or deleted name from surfacing only as a broken benchmark
run."""

import importlib.util
import pathlib
import sys

import numpy as np

import qri.solver as solver
from qri import random_qep, wave2d

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_module(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_module("perfbench_tracing", "tracing.py")


def test_tracer_installs_and_restores(monkeypatch, p_wave2d4):
    tracing = load_tracing()
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    worker = load_module("perfbench_worker", "worker.py")
    owners = [(owner, attr) for group, attr, _ in tracing.TARGETS for owner in group]
    before = [getattr(owner, attr) for owner, attr in owners]
    tracer = tracing.Tracer()
    results = []
    with tracer.installed():
        assert all(getattr(o, a) is not b for (o, a), b in zip(owners, before))
        for mode in ("inexact", "exact"):
            cfg = solver.SolverConfig(
                sigma=0.1234 + 0.4321j, nev=2, tol_outer=1e-8, mode=mode
            )
            results.append(solver.outer_loop(p_wave2d4, cfg))
        # refined extraction, whose SVDs the tracer counts
        cfg = solver.SolverConfig(sigma=0.1234 + 0.4321j, nev=2, tol_outer=1e-8,
                                  mode="exact", extraction="refined")
        results.append(solver.outer_loop(p_wave2d4, cfg))
        pair = results[-1].eigenpairs[0]
        nres = solver.newton_solve(p_wave2d4, pair.lam * (1 + 1e-6), pair.x, tol=1e-13)
        # an exact solve that thick-restarts at 8 vectors, through the worker
        restart_cap = 8
        entry = {
            "config": {"sigma": [0.1234, 0.4321], "nev": 3, "tol_outer": 1e-8,
                       "mode": "exact", "max_subspace": restart_cap, "seed": 0},
            "newton_tol": None,
        }
        _, _, meta = worker.solve_one(wave2d(8), entry)
        # a nonsymmetric inexact run, whose inner solves are recycled
        # GMRES (the shift of test_recycle_space_only_for_nonsymmetric_inexact)
        first_gmres_run = len(tracer.names)
        cfg = solver.SolverConfig(sigma=-0.7825681038075271 + 0.4461769817104889j,
                                  nev=3, tol_outer=1e-8, mode="inexact")
        results.append(solver.outer_loop(random_qep(60, density=0.05, seed=1), cfg))
    assert results[-1].inner_solver == "gmres"
    assert all(getattr(o, a) is b for (o, a), b in zip(owners, before))
    assert all(all(res.converged) for res in results)
    assert meta["converged"] and meta["final_k"] <= restart_cap
    assert meta["outer_iters"] > restart_cap  # so it must have restarted
    assert nres.converged and len(nres.history) > 1
    for name in (
        "solver.outer_loop",
        "solver.projection_append",
        "linalg.orthonormalize",
        "solver.small_solve",
        "solver.extract",
        "gmres",
        "solver.expansion_setup",
        "solver.expansion_solve",
        "linalg.lu_factor",
        "solver.newton",
    ):
        assert name in tracer.names
    assert tracer.check_nesting()
    layers = tracer.layer_metrics()
    assert layers["linalg.orth_defect"][0] <= 1e-12
    # the factorizations of Q stay visible to the tracer: each exact
    # set-up (three solves) and Newton's steps open an LU span of their own
    names, _, _, parent = tracer.arrays()
    lu_parents = [names[i] for i in parent[names == "linalg.lu_factor"]]
    assert lu_parents.count("solver.expansion_setup") == 3
    assert lu_parents.count("solver.newton") == layers["solver.newton_steps"][0]
    # each small solve is one LU of Q_k(sigma) and one companion eig
    small = np.flatnonzero(names == "solver.small_solve")
    assert small.size
    for kind in ("linalg.lu_factor", "linalg.dense_eig"):
        children = parent[names == kind]
        assert all(np.count_nonzero(children == i) == 1 for i in small), kind
    # each refined coordinate vector is one SVD inside pair extraction
    svd_parents = [names[i] for i in parent[names == "linalg.svd"]]
    assert svd_parents and set(svd_parents) == {"solver.extract"}
    assert layers["linalg.svd_calls"][0] == len(svd_parents)
    # the recycled-GMRES run's solves sit under the outer loop, and each
    # makes its products with Q(sigma) inside its span
    gmres_spans = np.flatnonzero(names[first_gmres_run:] == "gmres") + first_gmres_run
    assert gmres_spans.size
    assert set(names[parent[gmres_spans]]) == {"solver.outer_loop"}
    spmv_parents = parent[names == "qep.spmv"]
    assert all(np.count_nonzero(spmv_parents == i) > 0 for i in gmres_spans)


def test_worker_solve_one(monkeypatch, p_wave2d4, oracle_wave2d4_probe):
    # the worker imports its tracer as a top-level module
    monkeypatch.setitem(sys.modules, "tracing", load_tracing())
    worker = load_module("perfbench_worker", "worker.py")
    sigma = 0.1234 + 0.4321j
    for mode in ("exact", "inexact"):
        entry = {
            "config": {"sigma": [sigma.real, sigma.imag], "nev": 2,
                       "tol_outer": 1e-8, "mode": mode, "seed": 0},
            "newton_tol": 1e-12,
        }
        lams, X, meta = worker.solve_one(p_wave2d4, entry)
        assert meta["converged"], mode
        assert lams.shape == (1,) and X.shape == (p_wave2d4.n, 1)
        assert abs(lams[0] - oracle_wave2d4_probe.lams[0]) <= 1e-10
        assert meta["outer_iters"] >= 1 and meta["final_k"] >= 1
        assert (meta["inner_iters"] > 0) == (mode == "inexact")
        assert meta["inner_failures"] == 0 and meta["expansion_breakdowns"] == 0
        assert meta["phase_s"] > 0.0 and meta["newton_steps"] >= 0
        assert np.isfinite(X).all()


def test_worker_solve_one_exhausted(monkeypatch, p_wave2d4):
    # a run that exhausts its basis returns its partial pairs, which the
    # worker reports as an unconverged solve rather than an error
    monkeypatch.setitem(sys.modules, "tracing", load_tracing())
    worker = load_module("perfbench_worker", "worker.py")
    config = {"sigma": [0.1234, 0.4321], "nev": 3, "tol_outer": 1e-14,
              "mode": "exact", "max_subspace": 2, "seed": 0}
    for newton_tol, count in ((None, 3), (1e-12, 1)):
        entry = {"config": config, "newton_tol": newton_tol}
        lams, X, meta = worker.solve_one(p_wave2d4, entry)
        assert not meta["converged"], newton_tol
        assert meta["final_k"] == 2
        assert lams.shape == (count,) and X.shape == (p_wave2d4.n, count)
