"""Command line front end.

Three subcommands:

- ``qri generate``: build one of the test problems and write it as a
  Matrix Market triplet ``<out>_M.mtx``, ``<out>_C.mtx``, ``<out>_K.mtx``.
- ``qri solve``: run Newton refinement or the subspace iteration on a
  generated or loaded problem, with per-iteration history to CSV and a
  run summary to JSON.
- ``qri diagnose``: run one of the oracle-backed checks (angle identity,
  angle bound, resolvent expansion, perturbation identities, tangent
  sandwich) and report per-step results.

Exit codes: 0 on success, 2 when the solver stopped without converging,
3 on file I/O errors, 4 on configuration or usage errors.
"""

import argparse
import json
import re
import sys

import numpy as np

from . import __version__
from .diagnostics import (
    record_to_dict,
    run_angle_bound_check,
    run_angle_identity_check,
    run_perturbation_trials,
    run_resolvent_spot_check,
    run_sandwich_trials,
)
from .errors import BreakdownError, QriError, SubspaceExhausted
from .problems import (
    SpringMaxwellParams,
    example1,
    random_qep,
    spring_maxwell,
    wave2d,
)
from .qep import read_problem, write_problem
from .solver import SolverConfig, newton_solve, outer_loop

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_IO = 3
EXIT_CONFIG = 4

GENERATORS = ("example1", "wave2d", "spring-maxwell", "random")


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to the config code."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like -0.5+4i must reach --sigma instead of being read as
        # option names; no option here starts with a dash-then-digit
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


def complex_literal(text):
    """Parse ``a+bi`` style literals: ``0.9``, ``-0.5+4i``, ``2i``."""
    s = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a complex literal: {text!r} (expected forms like 1.5, -0.5+4i, 2i)"
        )


def count(least):
    """argparse type for a count flag: an integer of at least ``least``,
    so that a bad value fails before any work, naming its flag."""
    def integer(text):  # argparse names it in "invalid integer value"
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return integer


def add_problem_args(sp, for_generate=False):
    src = sp.add_argument_group("problem source")
    src.add_argument("--gen", choices=GENERATORS,
                     help="build one of the test problems")
    if not for_generate:
        src.add_argument("--mtx-prefix", metavar="PREFIX",
                         help="load <PREFIX>_M.mtx, <PREFIX>_C.mtx, <PREFIX>_K.mtx")
    src.add_argument("--m", type=int, default=8,
                     help="wave2d grid parameter (n = m(m-1))")
    src.add_argument("--zeta", type=float, default=1.0,
                     help="wave2d impedance parameter")
    src.add_argument("--n", type=int, default=100, help="random problem size")
    src.add_argument("--density", type=float, default=0.05,
                     help="random problem fill fraction")
    src.add_argument("--elements", type=int, default=30,
                     help="spring-maxwell elements per chain")
    src.add_argument("--chains", type=int, default=3,
                     help="spring-maxwell damper chain count")
    src.add_argument("--gen-seed", type=int, default=0,
                     help="seed for randomized generators")


def build_problem(args, parser):
    prefix = getattr(args, "mtx_prefix", None)
    if prefix is not None and args.gen is not None:
        parser.error("--gen and --mtx-prefix are mutually exclusive")
    if prefix is not None:
        try:
            return read_problem(prefix)
        except FileNotFoundError as exc:
            raise CliError(str(exc), EXIT_IO)
    if args.gen is None:
        parser.error("a problem source is required (--gen or --mtx-prefix)")
    if args.gen == "example1":
        return example1()
    if args.gen == "wave2d":
        return wave2d(args.m, zeta=args.zeta)
    if args.gen == "spring-maxwell":
        return spring_maxwell(SpringMaxwellParams(
            element_count=args.elements,
            chain_count=args.chains,
            seed=args.gen_seed,
        ))
    return random_qep(args.n, density=args.density, seed=args.gen_seed)


def build_parser():
    parser = Parser(prog="qri",
                    description="Residual iteration for sparse quadratic "
                                "eigenvalue problems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    gen = sub.add_parser("generate", help="write a test problem to Matrix Market files")
    add_problem_args(gen, for_generate=True)
    gen.add_argument("--out", required=True, metavar="PREFIX",
                     help="output prefix for the three .mtx files")

    solve = sub.add_parser("solve", help="solve for eigenvalues near a shift")
    add_problem_args(solve)
    solve.add_argument("--sigma", type=complex_literal, required=True,
                       help="target shift, a+bi literal")
    solve.add_argument("--nev", type=count(1), default=1,
                       help="number of eigenpairs to converge")
    solve.add_argument("--tol-outer", type=float, default=1e-10,
                       help="relative residual tolerance for eigenpairs")
    solve.add_argument("--tol-inner", type=float, default=1e-3,
                       help="GMRES tolerance for inexact expansion solves")
    solve.add_argument("--mode", choices=("newton", "exact", "inexact"),
                       default="exact")
    solve.add_argument("--extraction", choices=("ritz", "refined"),
                       default="ritz")
    solve.add_argument("--restart", type=count(1), default=30,
                       help="GMRES restart length: Krylov vectors per cycle, "
                            "counting up to min(10, restart // 2) recycled ones")
    solve.add_argument("--inner-maxit", type=count(1), default=500,
                       help="GMRES iteration budget per expansion solve")
    solve.add_argument("--max-subspace", type=count(0), default=None,
                       help="restart size and cap of the basis (default "
                            "min(n, max(20, 3*nev)) in exact mode, min(n, 120) "
                            "in inexact mode; only the default doubles, up to "
                            "min(n, 120), when a restart cycle gains no "
                            "residual digit); iteration budget in newton mode")
    solve.add_argument("--seed", type=int, default=0,
                       help="seed for the starting vector")
    solve.add_argument("--out-csv", metavar="PATH",
                       help="write per-iteration history as CSV")
    solve.add_argument("--out-json", metavar="PATH",
                       help="write run summary as JSON")

    diag = sub.add_parser("diagnose", help="run an oracle-backed solver check")
    add_problem_args(diag)
    diag.add_argument("--check", required=True,
                      choices=("angle-identity", "angle-bound", "resolvent",
                               "perturbation", "sandwich"))
    diag.add_argument("--sigma", type=complex_literal,
                      help="shift (required by all checks except "
                           "perturbation; auto-placed for sandwich)")
    diag.add_argument("--steps", type=count(1), default=15,
                      help="expansion steps to check (angle checks)")
    diag.add_argument("--points", type=count(1), default=3,
                      help="probe points (resolvent)")
    diag.add_argument("--trials", type=count(1), default=100,
                      help="random trials (perturbation, sandwich)")
    diag.add_argument("--ratio", type=float, default=0.01,
                      help="target distance ratio for auto-placed shift (sandwich)")
    diag.add_argument("--gmres-tol", type=float, default=1e-2,
                      help="inexact solve tolerance (sandwich)")
    diag.add_argument("--subspace-dim", type=count(1), default=8,
                      help="subspace dimension (perturbation)")
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--out-json", metavar="PATH",
                      help="write check results as JSON")

    return parser


# ---------------------------------------------------------------------------
# output helpers


def _fmt_complex(z):
    return f"{z.real:+.12e} {z.imag:+.12e}i"


def history_csv_lines(history, nev):
    cols = ["outer_iter", "subspace_dim"]
    for i in range(1, nev + 1):
        cols += [f"ritz_re_{i}", f"ritz_im_{i}", f"relres_{i}"]
    cols += ["inner_iters", "inner_relres", "cum_inner_iters", "wall_ms"]
    lines = [",".join(cols)]
    cum = 0
    nan = repr(float("nan"))
    for rec in history:
        cum += rec.inner_iters
        vals = [str(rec.outer_iter), str(rec.subspace_dim)]
        for i in range(nev):
            if i < len(rec.ritz_values):
                om = rec.ritz_values[i]
                vals += [repr(float(om.real)), repr(float(om.imag)),
                         repr(float(rec.relres[i]))]
            else:
                vals += [nan, nan, nan]
        vals += [str(rec.inner_iters), repr(float(rec.inner_relres)),
                 str(cum), repr(float(rec.wall_ms))]
        lines.append(",".join(vals))
    return lines


def write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO)


def write_json(path, payload):
    write_text(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args, parser):
    p = build_problem(args, parser)
    try:
        paths = write_problem(args.out, p)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}_*.mtx: {exc}", EXIT_IO)
    for path in paths:
        print(path)
    print(f"n = {p.n}, nnz = {p.M.nnz + p.C.nnz + p.K.nnz}")
    return EXIT_OK


def cmd_solve(args, parser):
    p = build_problem(args, parser)

    if args.mode == "newton":
        if args.nev != 1:
            parser.error("newton mode refines a single pair (--nev 1)")
        rng = np.random.default_rng(args.seed)
        x0 = rng.uniform(-1.0, 1.0, p.n) + 1j * rng.uniform(-1.0, 1.0, p.n)
        maxit = args.max_subspace if args.max_subspace is not None else 50
        nres = newton_solve(p, args.sigma, x0, tol=args.tol_outer, maxit=maxit)
        final = nres.history[-1]
        print(f"newton: lam = {_fmt_complex(nres.lam)}  relres = {final.relres[0]:.3e}  "
              f"steps = {len(nres.history) - 1}  "
              f"{'converged' if nres.converged else 'not converged'}")
        if args.out_csv:
            lines = history_csv_lines(nres.history, nev=1)
            write_text(args.out_csv, "\n".join(lines) + "\n")
        if args.out_json:
            write_json(args.out_json, {
                "mode": "newton",
                "problem_n": p.n,
                "factorization": p.factorization,
                "sigma": {"re": args.sigma.real, "im": args.sigma.imag},
                "converged": [nres.converged],
                "eigenvalues": [{"re": nres.lam.real, "im": nres.lam.imag}],
                "relres": final.relres,
                "outer_iters": len(nres.history) - 1,
                "wall_ms_total": float(sum(rec.wall_ms for rec in nres.history)),
            })
        return EXIT_OK if nres.converged else EXIT_NO_CONVERGENCE

    config = SolverConfig(
        sigma=args.sigma,
        nev=args.nev,
        tol_outer=args.tol_outer,
        tol_inner=args.tol_inner,
        mode=args.mode,
        extraction=args.extraction,
        restart=args.restart,
        inner_maxit=args.inner_maxit,
        max_subspace=args.max_subspace,
        seed=args.seed,
    )
    try:
        result = outer_loop(p, config)
        code = EXIT_OK if all(result.converged) else EXIT_NO_CONVERGENCE
    except SubspaceExhausted as exc:
        result = exc.result
        code = EXIT_NO_CONVERGENCE
    except BreakdownError as exc:
        print(f"solver breakdown: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    for i, (trip, rr, ok) in enumerate(
        zip(result.eigenpairs, result.relres, result.converged), start=1
    ):
        mark = "ok " if ok else "..."
        print(f"[{mark}] lam_{i} = {_fmt_complex(trip.lam)}  relres = {rr:.3e}")
    print(f"stop = {result.stop_reason}, outer iterations = {len(result.history)}, "
          f"inner iterations = {result.cumulative_inner_iters}")

    if args.out_csv:
        lines = history_csv_lines(result.history, args.nev)
        write_text(args.out_csv, "\n".join(lines) + "\n")
    if args.out_json:
        write_json(args.out_json, {
            "mode": args.mode,
            "extraction": args.extraction,
            "problem_n": p.n,
            # inexact mode never factors Q
            "factorization": p.factorization if args.mode == "exact" else None,
            "sigma": {"re": args.sigma.real, "im": args.sigma.imag},
            "nev": args.nev,
            "tol_outer": args.tol_outer,
            "tol_inner": args.tol_inner,
            "stop_reason": result.stop_reason,
            "converged": result.converged,
            "eigenvalues": [{"re": t.lam.real, "im": t.lam.imag}
                            for t in result.eigenpairs],
            "relres": result.relres,
            "outer_iters": len(result.history),
            "cumulative_inner_iters": result.cumulative_inner_iters,
            "inner_failures": result.inner_failures,
            "phase_wall_ms": result.phase_wall_ms,
            "wall_ms_total": float(sum(rec.wall_ms for rec in result.history)),
        })
    return code


def _require_sigma(args, parser):
    if args.sigma is None:
        parser.error(f"--check {args.check} requires --sigma")
    return args.sigma


def cmd_diagnose(args, parser):
    needs_problem = args.check != "perturbation" or args.gen or args.mtx_prefix
    p = build_problem(args, parser) if needs_problem else None

    if args.check == "angle-identity":
        report = run_angle_identity_check(
            p, _require_sigma(args, parser), steps=args.steps, seed=args.seed
        )
        for rec in report.steps:
            print(f"step {rec.k:3d}: sin = {rec.lhs:.6e}  "
                  f"factored = {rec.rhs:.6e}  gap = {rec.gap:.3e}")
        print(f"product of per-step factors matches final angle to "
              f"{report.product_gap:.3e}")
        payload = {
            "check": args.check,
            "steps": [record_to_dict(r) for r in report.steps],
            "product_gap": report.product_gap,
            "final_sin": report.final_sin,
        }

    elif args.check == "angle-bound":
        records = run_angle_bound_check(
            p, _require_sigma(args, parser), max_steps=args.steps, seed=args.seed
        )
        worst = 0.0
        for rec in records:
            worst = max(worst, rec.lhs - rec.rhs)
            print(f"step {rec.k:3d}: next-angle = {rec.lhs:.6e}  "
                  f"bound = {rec.rhs:.6e}  xi = {rec.xi:.3e}")
        status = "holds" if worst <= 1e-12 else f"VIOLATED by {worst:.3e}"
        print(f"bound {status} over {len(records)} steps")
        payload = {
            "check": args.check,
            "steps": [record_to_dict(r) for r in records],
            "max_violation": worst,
        }

    elif args.check == "resolvent":
        points = run_resolvent_spot_check(
            p, _require_sigma(args, parser), n_points=args.points, seed=args.seed
        )
        for pt in points:
            print(f"mu = {_fmt_complex(pt.mu)}  relative error = {pt.error:.3e}")
        payload = {
            "check": args.check,
            "points": [record_to_dict(pt) for pt in points],
        }

    elif args.check == "perturbation":
        n = p.n if p is not None else 40
        k = min(args.subspace_dim, max(1, n - 2))
        trials = run_perturbation_trials(
            n=n, k=k, trials=args.trials, seed=args.seed
        )
        worst = max(max(t.gap_scale, t.gap_direction) for t in trials)
        print(f"{len(trials)} trials (n = {n}, k = {k}): "
              f"worst identity gap = {worst:.3e}")
        payload = {
            "check": args.check,
            "n": n,
            "k": k,
            "worst_gap": worst,
            "trials": [record_to_dict(t) for t in trials],
        }

    else:  # sandwich
        summary = run_sandwich_trials(
            p,
            sigma=args.sigma,
            ratio=args.ratio,
            trials=args.trials,
            gmres_tol=args.gmres_tol,
            seed=args.seed,
        )
        print(f"sigma = {_fmt_complex(summary.sigma)}  "
              f"distance ratio = {summary.ratio:.3e}")
        print(f"hypothesis held in {summary.hypothesis_count}/{summary.trials} "
              f"trials; ordering violated in {summary.violation_count} "
              f"({100.0 * summary.violation_rate:.1f}%)")
        payload = record_to_dict(summary)
        payload["check"] = args.check

    if args.out_json:
        write_json(args.out_json, payload)
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a subcommand is required")
    try:
        if args.command == "generate":
            return cmd_generate(args, parser)
        if args.command == "solve":
            return cmd_solve(args, parser)
        return cmd_diagnose(args, parser)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, QriError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
