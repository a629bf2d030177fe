import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qri.cli import complex_literal, history_csv_lines, main, write_json
from qri.errors import BreakdownError
from qri.problems import SpringMaxwellParams, spring_maxwell
from qri.qep import read_problem
from qri.solver import ConvergenceRecord

PROBE = "0.1234+0.4321i"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    return main(list(argv))


def test_complex_literal_forms():
    assert complex_literal("0.9") == 0.9 + 0.0j
    assert complex_literal("-0.5+4i") == -0.5 + 4.0j
    assert complex_literal("2j") == 2.0j
    assert complex_literal(" 1 - 1i ") == 1.0 - 1.0j
    with pytest.raises(argparse.ArgumentTypeError):
        complex_literal("spam")


def test_module_entry_point():
    # the child interpreter imports qri from this checkout, as pytest does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "qri", "--version"], env=env,
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "0.1.0" in out.stdout


def test_write_json_encodes_complex_numpy_and_records(tmp_path):
    # complex values (numpy's too) as {"re", "im"}, numpy scalars as
    # Python numbers, dataclass records as their fields
    rec = ConvergenceRecord(
        outer_iter=3,
        subspace_dim=4,
        ritz_values=[1.0 + 2.0j],
        relres=[1e-5],
        inner_iters=7,
        inner_relres=1e-4,
    )
    path = tmp_path / "out.json"
    write_json(path, {"record": rec, "val": np.float64(2.0), "count": np.int64(5),
                      "flag": np.bool_(True), "z": np.complex64(0.5 - 1.0j)})
    d = json.loads(path.read_text())
    assert d["record"]["ritz_values"] == [{"re": 1.0, "im": 2.0}]
    assert d["record"]["outer_iter"] == 3
    assert d["val"] == 2.0
    assert d["count"] == 5
    assert d["flag"] is True
    assert d["z"] == {"re": 0.5, "im": -1.0}
    # an array is an error, not a silently dropped field
    with pytest.raises(TypeError, match="ndarray"):
        write_json(path, {"x": np.ones(3)})


def test_history_csv_has_every_record_field():
    # each scalar field of the record is a column holding its value; a
    # pair the record lacks reads NaN
    rec = ConvergenceRecord(outer_iter=2, subspace_dim=3, ritz_values=[1.5 - 2.0j],
                            relres=[1e-3], inner_iters=7, inner_relres=1e-4,
                            inner_failures=1, expansion_breakdowns=2, wall_ms=0.5)
    header, row = history_csv_lines([rec], nev=2)
    got = dict(zip(header.split(","), row.split(",")))
    assert list(got)[-2:] == ["cum_inner_iters", "wall_ms"]
    for f in fields(ConvergenceRecord):
        if not isinstance(getattr(rec, f.name), list):
            assert float(got[f.name]) == getattr(rec, f.name), f.name
    assert (got["ritz_re_1"], got["ritz_im_1"], got["relres_1"]) == ("1.5", "-2.0", "0.001")
    assert {got[f"{c}_2"] for c in ("ritz_re", "ritz_im", "relres")} == {"nan"}
    assert got["cum_inner_iters"] == "7"


def test_generate_then_solve_roundtrip(tmp_path, capsys):
    prefix = str(tmp_path / "wave")
    assert run_cli("generate", "--gen", "wave2d", "--m", "4", "--out", prefix) == 0
    listed = capsys.readouterr().out
    for suffix in ("_M.mtx", "_C.mtx", "_K.mtx"):
        assert (tmp_path / f"wave{suffix}").exists()
        assert suffix in listed

    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    code = run_cli(
        "solve", "--mtx-prefix", prefix, "--sigma", PROBE, "--nev", "2",
        "--tol-outer", "1e-9", "--out-csv", str(csv_path),
        "--out-json", str(json_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == (
        "outer_iter,subspace_dim,ritz_re_1,ritz_im_1,relres_1,"
        "ritz_re_2,ritz_im_2,relres_2,inner_iters,inner_relres,"
        "inner_failures,expansion_breakdowns,cum_inner_iters,wall_ms"
    )
    assert len(lines) >= 2
    payload = json.loads(json_path.read_text())
    assert payload["converged"] == [True, True]
    assert payload["stop_reason"] == "converged"
    assert payload["problem_n"] == 12
    assert all(r <= 1e-9 for r in payload["relres"])
    assert set(payload) == {
        "mode", "extraction", "problem_n", "sigma", "nev", "tol_outer",
        "tol_inner", "stop_reason", "converged", "eigenvalues", "relres",
        "outer_iters", "cumulative_inner_iters", "inner_failures",
        "expansion_breakdowns", "phase_wall_ms", "wall_ms_total",
        "factorization", "inner_solver",
    }
    assert payload["inner_failures"] == payload["expansion_breakdowns"] == 0


def test_solve_builtin_reference(capsys):
    assert run_cli("solve", "--gen", "example1", "--sigma", "0.9") == 0
    out = capsys.readouterr().out
    assert "lam_1" in out
    assert "stop = converged" in out


def test_solve_accepts_negative_sigma():
    code = run_cli(
        "solve", "--gen", "wave2d", "--m", "4", "--sigma", "-0.5+4i",
        "--max-subspace", "6",
    )
    assert code in (0, 2)


def test_solve_no_convergence_exit_code():
    code = run_cli(
        "solve", "--gen", "wave2d", "--m", "4", "--sigma", PROBE,
        "--nev", "3", "--tol-outer", "1e-14", "--max-subspace", "2",
    )
    assert code == 2


def test_missing_sigma_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("solve", "--gen", "example1")
    assert excinfo.value.code == 4


def test_nonfinite_sigma_is_config_error(capsys):
    # the error names the shift as the entry point calls it: the solver
    # config's sigma, or newton_solve's start value lam0
    for mode, name in (("exact", "sigma"), ("newton", "lam0")):
        argv = ("solve", "--gen", "example1", "--sigma", "nan", "--mode", mode)
        assert run_cli(*argv) == 4
        err = capsys.readouterr().err
        assert name in err
        assert "pivot" not in err
    # the oracle-backed checks, through the oracle they share
    for check in ("angle-identity", "angle-bound", "resolvent", "sandwich"):
        argv = ("diagnose", "--check", check, "--gen", "wave2d", "--m", "4",
                "--sigma", "nan")
        assert run_cli(*argv) == 4
        err = capsys.readouterr().err
        assert "shift sigma" in err
        assert "pivot" not in err


def test_eigenvalue_shift_is_named(capsys):
    # 1.0 is an eigenvalue of example1, so Q(1.0) is singular
    for mode in ("exact", "newton"):
        argv = ("solve", "--gen", "example1", "--sigma", "1.0", "--mode", mode)
        assert run_cli(*argv) == 4
        err = capsys.readouterr().err
        assert "eigenvalue" in err
        assert "zero pivot" not in err


def test_dense_factorization_above_cap(monkeypatch, capsys):
    # random(60) is factored densely and has n = 60: exact mode and Newton
    # fail at set-up, before the first iteration, and point to inexact mode
    monkeypatch.setenv("QRI_DENSE_CAP", "10")
    for mode in ("exact", "newton"):
        argv = ("solve", "--gen", "random", "--n", "60", "--density", "0.05",
                "--sigma", PROBE, "--mode", mode)
        assert run_cli(*argv) == 4
        captured = capsys.readouterr()
        assert "exceeds the dense cap 10" in captured.err
        assert 'mode="inexact"' in captured.err
        assert "lam_1" not in captured.out


def test_json_reports_factorization(tmp_path):
    # exact mode and Newton report how Q was factored; inexact mode never
    # factors it and reports null
    wave = ("--gen", "wave2d", "--m", "8")
    random = ("--gen", "random", "--n", "60", "--density", "0.05")
    cases = (
        (wave, "exact", "sparse"),
        (wave, "newton", "sparse"),
        (wave, "inexact", None),
        (random, "exact", "dense"),
        (random, "newton", "dense"),
    )
    for i, (source, mode, expected) in enumerate(cases):
        path = tmp_path / f"run{i}.json"
        code = run_cli("solve", *source, "--sigma", PROBE, "--mode", mode,
                       "--out-json", str(path))
        assert code == 0, (source, mode)
        payload = json.loads(path.read_text())
        assert payload["factorization"] == expected, (source, mode)


def test_json_reports_inner_solver(tmp_path):
    # inexact mode solves with COCR when M, C and K are symmetric and with
    # recycled GMRES otherwise; exact and Newton modes run no inner solves
    wave = ("--gen", "wave2d", "--m", "6")
    random = ("--gen", "random", "--n", "30", "--density", "0.1")
    cases = (
        (wave, "inexact", "cocr"),
        (random, "inexact", "gmres"),
        (wave, "exact", None),
        (wave, "newton", None),
    )
    for i, (source, mode, expected) in enumerate(cases):
        path = tmp_path / f"run{i}.json"
        code = run_cli("solve", *source, "--sigma", PROBE, "--mode", mode,
                       "--out-json", str(path))
        assert code == 0, (source, mode)
        payload = json.loads(path.read_text())
        assert payload["inner_solver"] == expected, (source, mode)


def test_unknown_generator_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("solve", "--gen", "bogus", "--sigma", "0.9")
    assert excinfo.value.code == 4


def test_newton_rejects_multiple_pairs():
    with pytest.raises(SystemExit) as excinfo:
        run_cli(
            "solve", "--gen", "example1", "--sigma", "0.9",
            "--mode", "newton", "--nev", "2",
        )
    assert excinfo.value.code == 4


def test_newton_rejects_max_subspace(capsys):
    # --max-subspace only sizes the basis; newton mode runs with
    # newton_solve's own step budget
    with pytest.raises(SystemExit) as excinfo:
        run_cli(
            "solve", "--gen", "example1", "--sigma", "0.9",
            "--mode", "newton", "--max-subspace", "5",
        )
    assert excinfo.value.code == 4
    assert "--max-subspace: not allowed with --mode newton" in capsys.readouterr().err


def test_solver_breakdown_exit_code(monkeypatch, capsys):
    def broken(p, config):
        raise BreakdownError("all 1 candidate residuals broke down in orthogonalization")

    monkeypatch.setattr("qri.cli.outer_loop", broken)
    assert run_cli("solve", "--gen", "example1", "--sigma", "0.9") == 2
    captured = capsys.readouterr()
    assert "solver breakdown: all 1 candidate residuals broke down" in captured.err
    assert "lam_1" not in captured.out


@pytest.mark.parametrize("check", ["angle-identity", "angle-bound"])
@pytest.mark.parametrize("steps", ["0", "-1"])
def test_diagnose_angle_checks_reject_step_count(check, steps, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(
            "diagnose", "--check", check, "--gen", "wave2d", "--m", "4",
            "--sigma", PROBE, "--steps", steps,
        )
    assert excinfo.value.code == 4
    assert f"--steps: must be at least 1, got {steps}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--gen", "example1", "--sigma", "0.9", "--max-subspace", "0"],
         "--max-subspace: must be at least 1, got 0"),
        (["solve", "--gen", "example1", "--sigma", "0.9", "--mode", "inexact",
          "--max-subspace", "0"], "--max-subspace: must be at least 1, got 0"),
        (["diagnose", "--check", "angle-bound", "--gen", "wave2d", "--m", "4",
          "--sigma", PROBE, "--steps", "0"], "--steps: must be at least 1, got 0"),
        (["diagnose", "--check", "perturbation", "--trials", "0"],
         "--trials: must be at least 1, got 0"),
        (["diagnose", "--check", "sandwich", "--gen", "wave2d", "--m", "4",
          "--trials", "-1"], "--trials: must be at least 1, got -1"),
        (["diagnose", "--check", "resolvent", "--gen", "wave2d", "--m", "4",
          "--sigma", PROBE, "--points", "-2"], "--points: must be at least 1, got -2"),
        (["diagnose", "--check", "perturbation", "--subspace-dim", "-3",
          "--trials", "2"], "--subspace-dim: must be at least 1, got -3"),
        (["diagnose", "--check", "perturbation", "--trials", "x"],
         "--trials: invalid integer value: 'x'"),
        (["solve", "--gen", "example1", "--sigma", "0.9", "--nev", "0"],
         "--nev: must be at least 1, got 0"),
        (["solve", "--gen", "example1", "--sigma", "0.9", "--mode", "inexact",
          "--restart", "0"], "--restart: must be at least 1, got 0"),
        (["solve", "--gen", "example1", "--sigma", "0.9", "--mode", "inexact",
          "--inner-maxit", "-5"], "--inner-maxit: must be at least 1, got -5"),
        (["solve", "--gen", "example1", "--sigma", "0.9", "--mode", "newton",
          "--tol-outer", "nan"], "--tol-outer: must lie in (0, 1), got nan"),
        (["solve", "--gen", "example1", "--sigma", "0.9", "--mode", "newton",
          "--tol-outer", "0"], "--tol-outer: must lie in (0, 1), got 0.0"),
        (["solve", "--gen", "example1", "--sigma", "0.9", "--mode", "inexact",
          "--tol-inner", "1"], "--tol-inner: must lie in (0, 1), got 1.0"),
        (["solve", "--gen", "example1", "--sigma", "0.9", "--tol-inner", "x"],
         "--tol-inner: invalid real value: 'x'"),
        (["diagnose", "--check", "sandwich", "--gen", "wave2d", "--m", "4",
          "--gmres-tol", "5"], "--gmres-tol: must lie in (0, 1), got 5.0"),
        (["diagnose", "--check", "sandwich", "--gen", "wave2d", "--m", "4",
          "--gmres-tol", "0"], "--gmres-tol: must lie in (0, 1), got 0.0"),
        (["diagnose", "--check", "sandwich", "--gen", "wave2d", "--m", "4",
          "--ratio", "nan"], "--ratio: must lie in (0, inf), got nan"),
        (["diagnose", "--check", "sandwich", "--gen", "wave2d", "--m", "4",
          "--ratio", "-0.5"], "--ratio: must lie in (0, inf), got -0.5"),
        (["diagnose", "--check", "sandwich", "--gen", "wave2d", "--m", "4",
          "--ratio", "inf"], "--ratio: must lie in (0, inf), got inf"),
        (["solve", "--gen", "wave2d", "--m", "1", "--sigma", "0.9"],
         "--m: must be at least 2, got 1"),
        (["generate", "--gen", "random", "--n", "0", "--out", "unused"],
         "--n: must be at least 1, got 0"),
        (["solve", "--gen", "spring-maxwell", "--elements", "0", "--sigma", "0.9"],
         "--elements: must be at least 1, got 0"),
        (["solve", "--gen", "spring-maxwell", "--chains", "-2", "--sigma", "0.9"],
         "--chains: must be at least 1, got -2"),
        (["solve", "--gen", "example1", "--sigma", "0.9", "--seed", "-1"],
         "--seed: must be at least 0, got -1"),
        (["diagnose", "--check", "perturbation", "--seed", "-1"],
         "--seed: must be at least 0, got -1"),
        (["solve", "--gen", "random", "--gen-seed", "-1", "--sigma", "0.9"],
         "--gen-seed: must be at least 0, got -1"),
    ],
    ids=["exact-max-subspace", "inexact-max-subspace", "steps", "perturbation-trials", "sandwich-trials",
         "points", "subspace-dim", "not-an-integer", "nev", "restart", "inner-maxit",
         "newton-tol-outer-nan", "newton-tol-outer-zero", "tol-inner-one",
         "not-a-real", "gmres-tol-five", "gmres-tol-zero", "ratio-nan",
         "ratio-negative", "ratio-inf", "m", "n", "elements", "chains", "seed",
         "diagnose-seed", "gen-seed"],
)
def test_count_flags_fail_early_naming_the_flag(argv, message, capsys):
    # a bad count, a tolerance outside (0, 1) or a ratio that is not
    # positive and finite stops before any work, and the error names the
    # flag
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 4
    assert message in capsys.readouterr().err


def test_missing_matrix_files(tmp_path):
    prefix = str(tmp_path / "nothing")
    assert run_cli("solve", "--mtx-prefix", prefix, "--sigma", "0.9") == 3


def test_newton_csv_schema(tmp_path):
    csv_path = tmp_path / "newton.csv"
    code = run_cli(
        "solve", "--gen", "example1", "--sigma", "0.9", "--mode", "newton",
        "--seed", "1", "--out-csv", str(csv_path),
    )
    assert code in (0, 2)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("outer_iter,subspace_dim,ritz_re_1")
    # every Newton step carries its wall time
    walls = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert walls and all(0.0 <= w < float("inf") for w in walls)


def test_newton_json_schema(tmp_path):
    csv_path = tmp_path / "newton.csv"
    json_path = tmp_path / "newton.json"
    code = run_cli(
        "solve", "--gen", "example1", "--sigma", "0.45", "--mode", "newton",
        "--seed", "1", "--out-csv", str(csv_path), "--out-json", str(json_path),
    )
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert set(payload) == {
        "mode", "problem_n", "factorization", "inner_solver", "sigma",
        "converged", "eigenvalues", "relres", "outer_iters", "wall_ms_total",
    }
    # the JSON total is the sum of the CSV's per-step wall times
    walls = [float(line.rsplit(",", 1)[1])
             for line in csv_path.read_text().strip().splitlines()[1:]]
    assert payload["wall_ms_total"] == pytest.approx(sum(walls), rel=1e-6)


def test_csv_determinism_modulo_wall_clock(tmp_path):
    outputs = []
    for run in range(2):
        path = tmp_path / f"run{run}.csv"
        code = run_cli(
            "solve", "--gen", "wave2d", "--m", "4", "--sigma", PROBE,
            "--nev", "2", "--tol-outer", "1e-9", "--mode", "inexact",
            "--tol-inner", "1e-4", "--seed", "11", "--out-csv", str(path),
        )
        assert code == 0
        outputs.append(path.read_text().strip().splitlines())
    a, b = outputs
    assert len(a) == len(b)
    for la, lb in zip(a, b):
        assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]


def test_diagnose_angle_identity(tmp_path, capsys):
    json_path = tmp_path / "identity.json"
    code = run_cli(
        "diagnose", "--check", "angle-identity", "--gen", "wave2d", "--m", "4",
        "--sigma", PROBE, "--steps", "4", "--out-json", str(json_path),
    )
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert len(payload["steps"]) == 4
    assert all(step["gap"] <= 1e-12 for step in payload["steps"])
    assert payload["product_gap"] <= 1e-10


def test_diagnose_angle_bound(capsys):
    code = run_cli(
        "diagnose", "--check", "angle-bound", "--gen", "wave2d", "--m", "4",
        "--sigma", PROBE, "--steps", "6",
    )
    assert code == 0
    assert "bound holds" in capsys.readouterr().out


def test_diagnose_resolvent(capsys):
    code = run_cli(
        "diagnose", "--check", "resolvent", "--gen", "wave2d", "--m", "4",
        "--sigma", PROBE, "--points", "2",
    )
    assert code == 0
    assert "relative error" in capsys.readouterr().out


def test_diagnose_perturbation_needs_no_problem(tmp_path):
    json_path = tmp_path / "pert.json"
    code = run_cli(
        "diagnose", "--check", "perturbation", "--trials", "5",
        "--out-json", str(json_path),
    )
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert payload["n"] == 40
    assert payload["worst_gap"] <= 1e-12


def test_diagnose_sandwich_smoke(capsys):
    code = run_cli(
        "diagnose", "--check", "sandwich", "--gen", "wave2d", "--m", "4",
        "--trials", "5",
    )
    assert code == 0
    assert "hypothesis held" in capsys.readouterr().out


def test_diagnose_requires_sigma_for_identity():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("diagnose", "--check", "angle-identity", "--gen", "wave2d", "--m", "4")
    assert excinfo.value.code == 4


def test_usage_errors_name_the_subcommand(capsys):
    # errors found after parsing print the subcommand's usage and name,
    # as argparse's errors in a subcommand's arguments do
    cases = (
        (("diagnose", "--check", "angle-identity", "--gen", "wave2d", "--m", "4"),
         "diagnose", "--check angle-identity requires --sigma"),
        (("solve", "--sigma", "0.9"),
         "solve", "a problem source is required (--gen or --mtx-prefix)"),
        (("solve", "--gen", "example1", "--sigma", "0.9", "--mode", "newton",
          "--nev", "2"),
         "solve", "newton mode refines a single pair (--nev 1)"),
        (("generate", "--out", "never-written"),
         "generate", "a problem source is required (--gen or --mtx-prefix)"),
        (("solve", "--gen", "example1", "--mtx-prefix", "never-read", "--sigma", "0.9"),
         "solve", "--gen and --mtx-prefix are mutually exclusive"),
    )
    for argv, command, message in cases:
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"usage: qri {command} "), argv
        assert f"qri {command}: error: {message}" in err, argv


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli()
    assert excinfo.value.code == 4
    assert "qri: error: a subcommand is required" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path, capsys):
    # a path in a missing directory fails with the I/O code, naming it,
    # and writes nothing
    missing = tmp_path / "missing"
    solve = ("solve", "--gen", "example1", "--sigma", "0.9")
    cases = (
        (*solve, "--out-csv", str(missing / "run.csv")),
        (*solve, "--out-json", str(missing / "run.json")),
        ("generate", "--gen", "example1", "--out", str(missing / "ex")),
    )
    for argv in cases:
        assert run_cli(*argv) == 3, argv
        assert f"cannot write {missing}" in capsys.readouterr().err, argv
    assert not missing.exists()


def test_generate_spring_maxwell(tmp_path, capsys):
    prefix = str(tmp_path / "sm")
    code = run_cli("generate", "--gen", "spring-maxwell", "--elements", "3",
                   "--chains", "2", "--gen-seed", "1", "--out", prefix)
    assert code == 0
    assert "n = 9," in capsys.readouterr().out
    got = read_problem(prefix)
    want = spring_maxwell(SpringMaxwellParams(element_count=3, chain_count=2, seed=1))
    for a, b in ((got.M, want.M), (got.C, want.C), (got.K, want.K)):
        assert abs(a - b).max() <= 1e-15 * abs(b).max()


def test_generate_requires_out():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("generate", "--gen", "example1")
    assert excinfo.value.code == 4
