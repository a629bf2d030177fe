"""Measuring process of the benchmark: reads the plan, times the solves.

Started by ``run.py`` as a fresh interpreter, so its peak resident set
belongs to this workload alone and the reference computations of the
parent do not count.  Steps: read the problem files several times
(``setup_s``, again after every timed pass), an untimed warm-up on the
same problems, timed passes of all planned solves until ``--seconds``
is used up, and with ``--trace 1`` one more pass and the planned oracle
calls with the layer wrappers of :mod:`tracing` installed.  Results go
to the JSON and NPZ files named by ``--out``; the parent checks them.
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import time

import numpy as np
import scipy

import qri.oracle as oracle
import qri.solver as solver
from qri.errors import QriError
from qri.qep import read_problem

from tracing import Tracer

# problem reads per round; a round runs before the warm-up and after each
# timed pass, so setup_s samples the whole run
SETUP_REPEATS = 5


def single_threaded_reads():
    """Parse Matrix Market files in one thread, as BLAS runs in one.

    With its default of one thread per core, scipy's reader took 9 to
    41 ms (5th to 95th percentile) for the sweep's files on a 2-core VM,
    and 5.4 to 7.4 ms in one thread: the spread was thread start-up and
    contention, not parsing.  Returns the thread count in effect, or
    ``None`` when this scipy has no such setting.
    """
    try:
        import scipy.io._fast_matrix_market as fmm
    except ImportError:
        return None
    fmm.PARALLELISM = 1
    return fmm.PARALLELISM


def load_problems(entries, times):
    """Read every problem file ``SETUP_REPEATS`` times, appending each
    read's wall time to ``times``; returns the last problems read."""
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        problems = [read_problem(e["prefix"], name=e["name"]) for e in entries]
        times.append(time.perf_counter() - t0)
    return problems


def solve_one(p, entry):
    """One planned solve: ``outer_loop``, then Newton when the plan asks
    for it.  Looks the functions up on their modules at call time, so
    the tracer's wrappers are used while installed."""
    cfg = dict(entry["config"])
    cfg["sigma"] = complex(*cfg["sigma"])
    res = solver.outer_loop(p, solver.SolverConfig(**cfg))
    lams = [pair.lam for pair in res.eigenpairs]
    X = np.column_stack([pair.x for pair in res.eigenpairs])
    converged = all(res.converged) and len(lams) == cfg["nev"]
    newton_steps = 0
    if entry["newton_tol"] is not None:
        nres = solver.newton_solve(p, lams[0], X[:, 0], tol=entry["newton_tol"])
        lams, X = [nres.lam], nres.x[:, None]
        converged = converged and nres.converged
        newton_steps = len(nres.history) - 1
    meta = {
        "converged": bool(converged),
        "outer_iters": len(res.history),
        "inner_iters": int(res.cumulative_inner_iters),
        "inner_failures": int(res.inner_failures),
        "expansion_breakdowns": int(sum(r.expansion_breakdowns for r in res.history)),
        "final_k": int(res.history[-1].subspace_dim),
        "phase_s": sum(res.phase_wall_ms.values()) / 1e3,
        "newton_steps": newton_steps,
    }
    return np.asarray(lams, dtype=complex), X, meta


def run_pass(problems, solves, tracer=None):
    """Every planned solve in order, each started when the previous one
    returned (closed loop)."""
    latencies, outputs = [], []
    for run_id, entry in enumerate(solves):
        if tracer is not None:
            tracer.run_id = run_id
        p = problems[entry["problem"]]
        t0 = time.perf_counter()
        try:
            out = solve_one(p, entry)
        except QriError as exc:
            out = (np.zeros(0, dtype=complex), np.zeros((p.n, 0)), {"error": repr(exc)})
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return {"latencies": latencies, "outputs": outputs}


def run_oracle(problems, verify, tracer=None):
    """The planned ``full_eig`` calls: their times and finite eigenvalues."""
    times, lams = [], []
    for j, entry in enumerate(verify):
        if tracer is not None:
            tracer.run_id += 1  # run ids continue after the solves
        t0 = time.perf_counter()
        d = oracle.full_eig(problems[entry["problem"]], complex(*entry["sigma"]))
        times.append(time.perf_counter() - t0)
        lams.append(d.lams)
    return times, lams


def same_results(a, b):
    """Bit-identical eigenvalues and iteration counts in two passes."""
    for (la, _, ma), (lb, _, mb) in zip(a["outputs"], b["outputs"]):
        if not np.array_equal(la, lb):
            return False
        for key in ("outer_iters", "inner_iters", "newton_steps", "error"):
            if ma.get(key) != mb.get(key):
                return False
    return len(a["outputs"]) == len(b["outputs"])


def _openblas_libraries():
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    out = []
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, stem, restype in (
            ("config", "get_config", ctypes.c_char_p),
            ("threads", "get_num_threads", ctypes.c_int),
        ):
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    fn = getattr(lib, prefix + stem + suffix, None)
                    if fn is not None and key not in info:
                        fn.argtypes = []
                        fn.restype = restype
                        value = fn()
                        info[key] = value.decode() if isinstance(value, bytes) else value
        out.append(info)
    return out


def machine():
    """The machine and numerical stack the figures were measured on."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": _openblas_libraries(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def traced_run(problems, plan, passes, summary, arrays, spans_path):
    """One more pass and the oracle calls with the wrappers installed.

    Adds the per-layer metrics, the oracle times and the traced run's
    own checks to ``summary``, the oracle's eigenvalues to ``arrays``,
    and writes the spans to ``spans_path``.
    """
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(problems, plan["solves"], tracer)
        # the oracle is slow and outside the end-to-end metrics, so it
        # runs in traced runs only, after every solve: its large arrays
        # change how later allocations are served
        verify_times, verify_lams = run_oracle(problems, plan["verify"], tracer)
    summary["verify_times"] = verify_times
    arrays.update({f"oracle_{j}": lams for j, lams in enumerate(verify_lams)})

    layers = tracer.layer_metrics()
    metas = [out[2] for out in traced["outputs"]]
    untraced_solve_s = statistics.median(sum(ps["latencies"]) for ps in passes)
    loop_s = layers["solver.outer_loop_s"][0]

    def total(key):
        return sum(m.get(key, 0) for m in metas)

    layers.update({
        "solver.outer_iters": (total("outer_iters"), "count"),
        "solver.final_k": (max(m.get("final_k", 0) for m in metas), "count"),
        "solver.inner_iters": (total("inner_iters"), "count"),
        "solver.inner_failures": (total("inner_failures"), "count"),
        "solver.expansion_breakdowns": (total("expansion_breakdowns"), "count"),
        "solver.phase_coverage": (total("phase_s") / loop_s if loop_s else 0.0, "ratio"),
        "trace.overhead": (sum(traced["latencies"]) / untraced_solve_s - 1.0, "ratio"),
    })
    summary["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    summary["trace_identical"] = same_results(passes[0], traced)
    summary["trace_nesting_ok"] = tracer.check_nesting()
    tracer.write(spans_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)

    read_threads = single_threaded_reads()
    setup = []
    problems = load_problems(plan["problems"], setup)

    t0 = time.perf_counter()
    run_pass(problems, plan["warmup"])
    warmup_s = time.perf_counter() - t0

    # start another pass until three quarters of --seconds are used, so
    # wave100-inexact gets two passes at 11 to 22 s each and a run still
    # ends near --seconds
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(problems, plan["solves"]))
        load_problems(plan["problems"], setup)
        elapsed = time.perf_counter() - t_start
        if elapsed >= 0.75 * args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = {
        "setup_s": setup,
        "warmup_s": warmup_s,
        "passes": [
            {"latencies": ps["latencies"], "meta": [out[2] for out in ps["outputs"]]}
            for ps in passes
        ],
        "peak_rss_mb": peak_rss_mb,
        "machine": dict(machine(), matrix_market_threads=read_threads),
    }
    arrays = {}
    for k, ps in enumerate(passes):
        for i, (lams, X, _) in enumerate(ps["outputs"]):
            arrays[f"lam_{k}_{i}"] = lams
            arrays[f"x_{k}_{i}"] = X

    if args.trace:
        traced_run(problems, plan, passes, summary, arrays, args.out + ".spans.json")

    np.savez(args.out + ".npz", **arrays)
    with open(args.out + ".json", "w") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main()
