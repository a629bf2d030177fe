"""The benchmark's tracer wraps names that qri's modules resolve at call
time; this keeps a renamed or deleted name from surfacing only as a
broken traced benchmark run."""

import importlib.util
import pathlib

import qri.solver as solver

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores(p_wave2d4):
    tracing = load_tracing()
    owners = [(owner, attr) for group, attr, _ in tracing.TARGETS for owner in group]
    before = [getattr(owner, attr) for owner, attr in owners]
    tracer = tracing.Tracer()
    cfg = solver.SolverConfig(
        sigma=0.1234 + 0.4321j, nev=2, tol_outer=1e-8, mode="inexact"
    )
    with tracer.installed():
        assert all(getattr(o, a) is not b for (o, a), b in zip(owners, before))
        res = solver.outer_loop(p_wave2d4, cfg)
    assert all(getattr(o, a) is b for (o, a), b in zip(owners, before))
    assert all(res.converged)
    for name in (
        "solver.outer_loop",
        "solver.projection_append",
        "linalg.orthonormalize",
        "solver.small_solve",
        "solver.extract",
        "gmres",
    ):
        assert name in tracer.names
    assert tracer.check_nesting()
    assert tracer.layer_metrics()["linalg.orth_defect"][0] <= 1e-12
