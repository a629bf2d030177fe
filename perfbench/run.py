"""Benchmark for qri: time to verified eigenpairs on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs and independent scipy references from
the seed (untimed), runs the measuring process ``worker.py`` on them,
checks every returned pair, prints each metric by name with its unit
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` adds a traced pass and reports the per-layer
metrics.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# one BLAS thread: on 2 cores, two OpenBLAS threads made the small dense
# kernels of the projected problem about 2.5x slower and noisier
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# the whole run must end within 180 s; keep a margin for the checks
RUN_DEADLINE_S = 170.0

# a computed eigenvalue matches a reference one within this relative
# distance (the solves stop at relative residual 1e-8 or below)
MATCH_RTOL = 1e-6

END_TO_END_UNITS = {
    "solve_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "pairs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


def norm1(A):
    return float(abs(A).sum(axis=0).max()) if A.nnz else 0.0


def check_solve(p, ref, entry, lams, X, meta):
    """Reasons the solve failed (empty when every pair passes), with the
    worst eigenvalue error and relative residual seen.

    Residuals are recomputed here from M, C, K with scipy products, and
    eigenvalues are matched against the ARPACK reference: each must be
    one of the ``nev`` reference eigenvalues nearest the shift, each a
    different one.
    """
    cfg = entry["config"]
    nev = cfg["nev"]
    tol = entry["newton_tol"] if entry["newton_tol"] is not None else cfg["tol_outer"]
    if "error" in meta:
        return [meta["error"]], np.inf, np.inf
    reasons = []
    worst_err = worst_res = 0.0
    if not meta["converged"]:
        reasons.append("not converged")
    if len(lams) != nev:
        reasons.append(f"{len(lams)} pairs returned, {nev} asked for")
    nm, nc, nk = norm1(p.M), norm1(p.C), norm1(p.K)
    used = set()
    for j, lam in enumerate(lams):
        x = X[:, j] / np.linalg.norm(X[:, j])
        r = lam * lam * (p.M @ x) + lam * (p.C @ x) + p.K @ x
        relres = np.linalg.norm(r) / (abs(lam) ** 2 * nm + abs(lam) * nc + nk)
        if not relres <= tol:
            reasons.append(f"residual {relres:.2e} above {tol:.0e} at {lam}")
        dist = np.abs(ref.lams - lam)
        i = int(np.argmin(dist))
        err = dist[i] / max(1.0, abs(ref.lams[i]))
        worst_err, worst_res = max(worst_err, err), max(worst_res, relres)
        if err > MATCH_RTOL:
            reasons.append(f"{lam} matches no reference eigenvalue")
        elif i >= nev or i in used:
            reasons.append(f"{lam} is not among the {nev} nearest the shift")
        used.add(i)
    return reasons, worst_err, worst_res


def check_oracle(plan, refs, verify_idx, oracle_lams):
    """The oracle's eigenvalue nearest each sweep shift on its problem
    must match that shift's reference."""
    problem = plan["verify"][verify_idx]["problem"]
    bad = 0
    for entry, ref in zip(plan["solves"], refs):
        if entry["problem"] != problem:
            continue
        near = oracle_lams[np.argmin(np.abs(oracle_lams - ref.sigma))]
        if abs(near - ref.lams[0]) > MATCH_RTOL * max(1.0, abs(ref.lams[0])):
            bad += 1
    return bad


def quantile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    pass_pairs: list = field(default_factory=list)
    oracle_bad: int = 0
    worst_err: float = 0.0
    worst_res: float = 0.0


def run_worker(args, plan_path, out, deadline):
    """Run the measuring process; returns its summary and arrays."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--plan", plan_path, "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", out,
    ]
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
    # run() kills the process on timeout and waits for it to end
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited with code {proc.returncode}")
    with open(out + ".json") as fh:
        summary = json.load(fh)
    return summary, np.load(out + ".npz")


def check(plan, problems, refs, summary, arrays):
    """Check every solve of every pass and, in traced runs, the oracle."""
    c = Checks()
    for k, ps in enumerate(summary["passes"]):
        pairs = 0
        for i, (entry, ref, meta) in enumerate(zip(plan["solves"], refs, ps["meta"])):
            reasons, err, res = check_solve(
                problems[entry["problem"]], ref, entry,
                arrays[f"lam_{k}_{i}"], arrays[f"x_{k}_{i}"], meta,
            )
            c.worst_err, c.worst_res = max(c.worst_err, err), max(c.worst_res, res)
            c.attempted += 1
            if reasons:
                c.failed += 1
                print(f"FAILED pass {k} solve {i}: {'; '.join(reasons)}", file=sys.stderr)
            else:
                pairs += entry["config"]["nev"]
        c.pass_pairs.append(pairs)
    c.oracle_bad = sum(
        check_oracle(plan, refs, j, arrays[f"oracle_{j}"])
        for j in range(len(summary.get("verify_times", [])))
    )
    if c.oracle_bad:
        print(f"FAILED: oracle missed {c.oracle_bad} reference eigenvalues", file=sys.stderr)
    return c


def main():
    args = parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "qri", "__init__.py")):
        print(f"error: no qri package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    plan_path, problems, refs = inputs.build(args.workload, args.seed, workdir)
    with open(plan_path) as fh:
        plan = json.load(fh)
    summary, arrays = run_worker(args, plan_path, os.path.join(workdir, "result"), deadline)
    c = check(plan, problems, refs, summary, arrays)

    passes = summary["passes"]
    solve_s = [sum(ps["latencies"]) for ps in passes]
    latencies_ms = [1e3 * t for ps in passes for t in ps["latencies"]]
    e2e = {
        "solve_s": statistics.median(solve_s),
        "solve_ms_p50": quantile(latencies_ms, 50),
        "solve_ms_p90": quantile(latencies_ms, 90),
        "pairs_per_s": statistics.median(n / s for n, s in zip(c.pass_pairs, solve_s)),
        "setup_s": statistics.median(summary["setup_s"]),
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    correct = c.failed == 0 and c.oracle_bad == 0

    first = passes[0]["meta"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"solves {c.attempted}  trace {args.trace}")
    print("machine " + json.dumps(summary["machine"]))
    print(f"pass times {[round(s, 3) for s in solve_s]} s, warm-up {summary['warmup_s']:.3g} s; "
          f"first pass: outer iterations {sum(m.get('outer_iters', 0) for m in first)}, "
          f"inner iterations {sum(m.get('inner_iters', 0) for m in first)}")
    print(f"worst eigenvalue error {c.worst_err:.2e} (relative, against the reference), "
          f"worst relative residual {c.worst_res:.2e}")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'fail_rate':<16} {c.failed / c.attempted:.6g} ratio "
          f"({c.failed} of {c.attempted})")
    if summary.get("verify_times"):
        print(f"  {'verify_s':<16} {sum(summary['verify_times']):.6g} s (oracle.full_eig, "
              f"{len(summary['verify_times'])} calls, {c.oracle_bad} mismatches)")

    if args.trace:
        metrics = summary["layers"]
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
        print(f"  traced pass bit-identical: {summary['trace_identical']}, "
              f"spans nest and add up: {summary['trace_nesting_ok']}")
        print(f"  spans: {os.path.relpath(os.path.join(workdir, 'result.spans.json'), ROOT)}")
        correct = correct and summary["trace_identical"] and summary["trace_nesting_ok"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    print(json.dumps({
        "correct": bool(correct),
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
