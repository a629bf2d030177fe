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
from dataclasses import asdict, fields, is_dataclass

import numpy as np

from . import __version__
from .diagnostics import (
    run_angle_bound_check,
    run_angle_identity_check,
    run_perturbation_trials,
    run_resolvent_spot_check,
    run_sandwich_trials,
)
from .errors import QriError
from .problems import (
    SpringMaxwellParams,
    example1,
    random_qep,
    spring_maxwell,
    wave2d,
)
from .qep import check_count, check_interval, read_problem, write_problem
from .solver import ConvergenceRecord, SolverConfig, newton_solve, outer_loop

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


def rule(parse, check, *bounds):
    """argparse type that parses the text with ``parse`` (``int`` or
    ``float``), then applies the :mod:`qri.qep` input rule ``check`` with
    ``bounds``, so that a bad value fails before any work, naming its
    flag."""
    def typed(text):
        value = parse(text)
        try:
            return check("", value, *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc).lstrip())
    # argparse names it in "invalid integer value" or "invalid real value"
    typed.__name__ = "integer" if parse is int else "real"
    return typed


def add_problem_args(sp, for_generate=False):
    src = sp.add_argument_group("problem source")
    src.add_argument("--gen", choices=GENERATORS,
                     help="build one of the test problems")
    if not for_generate:
        src.add_argument("--mtx-prefix", metavar="PREFIX",
                         help="load <PREFIX>_M.mtx, <PREFIX>_C.mtx, <PREFIX>_K.mtx")
    src.add_argument("--m", type=rule(int, check_count, 2), default=8,
                     help="wave2d grid parameter (n = m(m-1))")
    src.add_argument("--zeta", type=float, default=1.0,
                     help="wave2d impedance parameter")
    # no default here, so that --check perturbation tells an explicit --n
    # from none
    src.add_argument("--n", type=rule(int, check_count, 1),
                     help="random problem size (default 100)")
    src.add_argument("--density", type=float, default=0.05,
                     help="random problem fill fraction, in (0, 1]")
    src.add_argument("--elements", type=rule(int, check_count, 1), default=30,
                     help="spring-maxwell elements per chain")
    src.add_argument("--chains", type=rule(int, check_count, 1), default=3,
                     help="spring-maxwell damper chain count")
    src.add_argument("--gen-seed", type=rule(int, check_count, 0), default=0,
                     help="seed for randomized generators")


def build_problem(args, parser):
    prefix = getattr(args, "mtx_prefix", None)
    if prefix is not None and args.gen is not None:
        parser.error("--gen and --mtx-prefix are mutually exclusive")
    if prefix is not None:
        return read_problem(prefix)
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
    return random_qep(args.n or 100, density=args.density, seed=args.gen_seed)


def build_parser():
    parser = Parser(prog="qri",
                    description="Residual iteration for sparse quadratic "
                                "eigenvalue problems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    # each subcommand carries its function and its own parser, so that
    # a usage error found after parsing names the subcommand
    gen = sub.add_parser("generate", help="write a test problem to Matrix Market files")
    gen.set_defaults(run=cmd_generate, parser=gen)
    add_problem_args(gen, for_generate=True)
    gen.add_argument("--out", required=True, metavar="PREFIX",
                     help="output prefix for the three .mtx files")

    solve = sub.add_parser("solve", help="solve for eigenvalues near a shift")
    solve.set_defaults(run=cmd_solve, parser=solve)
    add_problem_args(solve)
    solve.add_argument("--sigma", type=complex_literal, required=True,
                       help="target shift, a+bi literal")
    solve.add_argument("--nev", type=rule(int, check_count, 1), default=SolverConfig.nev,
                       help="number of eigenpairs to converge")
    solve.add_argument("--tol-outer", type=rule(float, check_interval),
                       default=SolverConfig.tol_outer,
                       help="relative residual tolerance for eigenpairs")
    solve.add_argument("--tol-inner", type=rule(float, check_interval),
                       default=SolverConfig.tol_inner, help="relative residual "
                       "tolerance of the inner solves of inexact mode (COCR or GMRES)")
    solve.add_argument("--mode", choices=("newton", "exact", "inexact"),
                       default=SolverConfig.mode)
    solve.add_argument("--extraction", choices=("ritz", "refined"),
                       default=SolverConfig.extraction)
    solve.add_argument("--restart", type=rule(int, check_count, 1),
                       default=SolverConfig.restart, help="GMRES restart length: "
                       "Krylov vectors per cycle, counting up to min(10, restart // 2) "
                       "recycled ones; unused when M, C and K are symmetric, whose "
                       "inner solves run COCR; raise it when most inner solves stop "
                       "at --inner-maxit, as 30 does on some random problems")
    solve.add_argument("--inner-maxit", type=rule(int, check_count, 1),
                       default=SolverConfig.inner_maxit,
                       help="inner step budget per expansion solve")
    solve.add_argument("--max-subspace", type=rule(int, check_count, 1),
                       default=SolverConfig.max_subspace, help="restart size and "
                       "cap of the basis (default min(n, max(20, 3*nev)) in exact "
                       "mode, min(n, max(120, 3*nev)) in inexact mode; only the "
                       "default doubles, up to min(n, max(120, 3*nev)), when a "
                       "restart cycle gains no residual digit); not used in newton mode")
    solve.add_argument("--seed", type=rule(int, check_count, 0), default=SolverConfig.seed,
                       help="seed for the starting vector")
    solve.add_argument("--out-csv", metavar="PATH",
                       help="write per-iteration history as CSV")
    solve.add_argument("--out-json", metavar="PATH",
                       help="write run summary as JSON")

    diag = sub.add_parser("diagnose", help="run an oracle-backed solver check")
    diag.set_defaults(run=cmd_diagnose, parser=diag)
    add_problem_args(diag)
    diag.add_argument("--check", required=True,
                      choices=("angle-identity", "angle-bound", "resolvent",
                               "perturbation", "sandwich"))
    diag.add_argument("--sigma", type=complex_literal,
                      help="shift (required by all checks except "
                           "perturbation; auto-placed for sandwich)")
    diag.add_argument("--steps", type=rule(int, check_count, 1), default=15,
                      help="expansion steps to check (angle checks)")
    diag.add_argument("--points", type=rule(int, check_count, 1), default=3,
                      help="probe points (resolvent)")
    diag.add_argument("--trials", type=rule(int, check_count, 1), default=100,
                      help="random trials (perturbation, sandwich)")
    diag.add_argument("--ratio", type=rule(float, check_interval, np.inf), default=0.01,
                      help="target distance ratio for auto-placed shift (sandwich)")
    diag.add_argument("--gmres-tol", type=rule(float, check_interval), default=1e-2,
                      help="inexact solve tolerance (sandwich)")
    diag.add_argument("--subspace-dim", type=rule(int, check_count, 1),
                      help="subspace dimension (perturbation; default 8, or less "
                           "on a small problem; with no problem source the trials "
                           "run in C^n, n from --n, default 40)")
    diag.add_argument("--seed", type=rule(int, check_count, 0), default=0)
    diag.add_argument("--out-json", metavar="PATH",
                      help="write check results as JSON")

    return parser


# ---------------------------------------------------------------------------
# output helpers


def _fmt_complex(z):
    return f"{z.real:+.12e} {z.imag:+.12e}i"


def _csv_number(value):
    # a flag (a bool is an int) as 0 or 1
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def history_csv_lines(history, nev):
    """Header and rows of a :class:`~qri.solver.ConvergenceRecord`
    history: its fields in declared order, the per-pair ``ritz_values``
    and ``relres`` expanded in their place to ``ritz_re_i, ritz_im_i,
    relres_i`` for each of the ``nev`` pairs (NaN past a record's last
    pair), then ``cum_inner_iters`` and ``wall_ms``."""
    names = [f.name for f in fields(ConvergenceRecord)
             if f.name not in ("relres", "wall_ms")]
    cols = []
    for name in names:
        if name == "ritz_values":
            cols += [f"{col}_{i}" for i in range(1, nev + 1)
                     for col in ("ritz_re", "ritz_im", "relres")]
        else:
            cols.append(name)
    lines = [",".join(cols + ["cum_inner_iters", "wall_ms"])]
    missing = (complex(np.nan, np.nan), np.nan)
    cum = 0
    for rec in history:
        cum += rec.inner_iters
        vals = []
        for name in names:
            if name == "ritz_values":
                for i in range(nev):
                    om, rr = ((rec.ritz_values[i], rec.relres[i])
                              if i < len(rec.ritz_values) else missing)
                    vals += [_csv_number(x) for x in (om.real, om.imag, rr)]
            else:
                vals.append(_csv_number(getattr(rec, name)))
        vals += [str(cum), _csv_number(rec.wall_ms)]
        lines.append(",".join(vals))
    return lines


def write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO)


def _json_value(value):
    """``json.dumps`` default: complex values as ``{"re", "im"}``, numpy
    scalars as Python numbers and dataclass records as their fields."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.generic):
        return value.item()
    if is_dataclass(value):
        return asdict(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path, payload):
    write_text(path, json.dumps(payload, indent=2, default=_json_value) + "\n")


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
    # the solver flags are named after the config fields they set
    config = SolverConfig(**{f.name: getattr(args, f.name)
                             for f in fields(SolverConfig) if hasattr(args, f.name)})

    if config.mode == "newton":
        if config.nev != 1:
            parser.error("newton mode refines a single pair (--nev 1)")
        if config.max_subspace is not None:
            parser.error("argument --max-subspace: not allowed with --mode newton")
        nres = newton_solve(p, config.sigma, config.start_vector(p.n), tol=config.tol_outer)
        history, converged = nres.history, [nres.converged]
        code = EXIT_OK if nres.converged else EXIT_NO_CONVERGENCE
        print(f"newton: lam = {_fmt_complex(nres.lam)}  "
              f"relres = {history[-1].relres[0]:.3e}  steps = {len(history) - 1}  "
              f"{'converged' if nres.converged else 'not converged'}")
        summary = {"outer_iters": len(history) - 1}
        inner_solver = None
    else:
        result = outer_loop(p, config)
        code = EXIT_OK if result.stop_reason == "converged" else EXIT_NO_CONVERGENCE
        history, converged = result.history, result.converged
        for i, pair in enumerate(result.eigenpairs, start=1):
            mark = "ok " if pair.converged else "..."
            print(f"[{mark}] lam_{i} = {_fmt_complex(pair.lam)}  relres = {pair.relres:.3e}")
        print(f"stop = {result.stop_reason}, outer iterations = {len(history)}, "
              f"inner iterations = {result.cumulative_inner_iters}")
        summary = {
            "extraction": config.extraction,
            "nev": config.nev,
            "tol_outer": config.tol_outer,
            "tol_inner": config.tol_inner,
            "stop_reason": result.stop_reason,
            "outer_iters": len(history),
            "cumulative_inner_iters": result.cumulative_inner_iters,
            "inner_failures": result.inner_failures,
            "expansion_breakdowns": result.expansion_breakdowns,
            "full_eigensolves": result.full_eigensolves,
            "phase_wall_ms": result.phase_wall_ms,
        }
        inner_solver = result.inner_solver

    if args.out_csv:
        write_text(args.out_csv, "\n".join(history_csv_lines(history, config.nev)) + "\n")
    if args.out_json:
        # the last record holds the reported pairs: the run's first nev,
        # or Newton's last iterate
        final = history[-1]
        write_json(args.out_json, {
            "mode": config.mode,
            "problem_n": p.n,
            # inexact mode never factors Q
            "factorization": None if config.mode == "inexact" else p.factorization,
            # only inexact mode runs inner solves: "cocr" or "gmres"
            "inner_solver": inner_solver,
            "sigma": config.sigma,
            "converged": converged,
            "eigenvalues": final.ritz_values[:config.nev],
            "relres": final.relres[:config.nev],
            **summary,
            "wall_ms_total": float(sum(rec.wall_ms for rec in history)),
        })
    return code


def cmd_diagnose(args, parser):
    if args.sigma is None and args.check in ("angle-identity", "angle-bound",
                                             "resolvent"):
        parser.error(f"--check {args.check} requires --sigma")
    needs_problem = args.check != "perturbation" or args.gen or args.mtx_prefix
    p = build_problem(args, parser) if needs_problem else None

    if args.check == "angle-identity":
        report = run_angle_identity_check(
            p, args.sigma, steps=args.steps, seed=args.seed
        )
        for rec in report.steps:
            print(f"step {rec.k:3d}: sin = {rec.lhs:.6e}  "
                  f"factored = {rec.rhs:.6e}  gap = {rec.gap:.3e}")
        print(f"product of per-step factors matches final angle to "
              f"{report.product_gap:.3e}")
        payload = {"check": args.check, **asdict(report)}

    elif args.check == "angle-bound":
        records = run_angle_bound_check(
            p, args.sigma, max_steps=args.steps, seed=args.seed
        )
        worst = 0.0
        for rec in records:
            worst = max(worst, rec.lhs - rec.rhs)
            print(f"step {rec.k:3d}: next-angle = {rec.lhs:.6e}  "
                  f"bound = {rec.rhs:.6e}  xi = {rec.xi:.3e}")
        status = "holds" if worst <= 1e-12 else f"VIOLATED by {worst:.3e}"
        print(f"bound {status} over {len(records)} steps")
        payload = {"check": args.check, "steps": records, "max_violation": worst}

    elif args.check == "resolvent":
        points = run_resolvent_spot_check(
            p, args.sigma, n_points=args.points, seed=args.seed
        )
        for pt in points:
            print(f"mu = {_fmt_complex(pt.mu)}  relative error = {pt.error:.3e}")
        payload = {"check": args.check, "points": points}

    elif args.check == "perturbation":
        n = p.n if p is not None else args.n or 40
        k = args.subspace_dim or min(8, max(1, n - 2))
        if k > n - 1:
            parser.error(f"argument --subspace-dim: must be at most {n - 1}, got {k}")
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
            "trials": trials,
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
        payload = {**asdict(summary), "check": args.check}

    if args.out_json:
        write_json(args.out_json, payload)
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a subcommand is required")
    try:
        return args.run(args, args.parser)
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
