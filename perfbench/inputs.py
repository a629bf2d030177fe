"""Workload inputs and their independent references.

Everything here runs before timing starts, in the parent process.  The
problems are generated from the workload seed, written as Matrix Market
files, and described in a JSON plan that the measuring process reads;
that process sees only the files and the plan.  Reference eigenvalues
come from scipy alone (ARPACK on the shift-inverted companion pencil,
dense LAPACK for the sweep's spectrum scan), never from ``qri.oracle``.
"""

import json
import os

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qri.problems import SpringMaxwellParams, random_qep, spring_maxwell, wave2d
from qri.qep import write_problem

WAVE_SIGMA = -0.5 + 4.0j
WAVE_NEV = 6
WAVE_TOL = 1e-8
WARMUP_TOL = 1e-2

# sweep: shifts per problem, how far a shift sits from its target as a
# share of the target's gap to its nearest neighbour, and the relative
# gap an eigenvalue needs to count as isolated
SWEEP_SHIFTS_PER_PROBLEM = 60
SWEEP_OFFSET = 0.05
SWEEP_MIN_REL_GAP = 1e-2
SWEEP_TOL_OUTER = 1e-10
SWEEP_TOL_NEWTON = 1e-13

# |theta| below this share of the largest is an infinite eigenvalue
INF_THETA_RTOL = 1e-10

WORKLOADS = ("wave100-inexact", "wave20-exact-refined", "shift-sweep")


class Reference:
    """Reference eigenvalues for one solve: ``lams`` sorted by distance
    to the shift, nearest first."""

    def __init__(self, sigma, lams):
        self.sigma = complex(sigma)
        lams = np.asarray(lams, dtype=complex)
        self.lams = lams[np.argsort(np.abs(lams - sigma), kind="stable")]


def companion(M, C, K):
    """Dense companion pencil ``A = [[-C, -K], [I, 0]]``,
    ``B = [[M, 0], [0, I]]``, built with numpy alone."""
    n = M.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    A = np.block([[-C.toarray(), -K.toarray()], [eye, zero]])
    B = np.block([[M.toarray(), zero], [zero, eye]])
    return A, B


def arpack_nearest(M, C, K, sigma, k, rng):
    """The ``k`` finite eigenvalues nearest ``sigma``, by ARPACK on
    ``S = (A - sigma B)^{-1} B`` of the companion pencil.

    ``A - sigma B`` is applied through its Schur complement
    ``-Q(sigma) = -(sigma^2 M + sigma C + K)``, factored with ``splu``:
    for ``S [v1; v2] = [z1; z2]``,
    ``z2 = -Q(sigma)^{-1} (M v1 + (C + sigma M) v2)`` and
    ``z1 = v2 + sigma z2``.
    """
    n = M.shape[0]
    lu = spla.splu(sp.csc_array(sigma * sigma * M + sigma * C + K))
    CsM = sp.csr_array(C + sigma * M)

    def matvec(v):
        v1, v2 = v[:n], v[n:]
        z2 = -lu.solve(M @ v1 + CsM @ v2)
        return np.r_[v2 + sigma * z2, z2]

    op = spla.LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=complex)
    v0 = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    theta = spla.eigs(op, k=k, which="LM", v0=v0, return_eigenvectors=False)
    theta = theta[np.abs(theta) > INF_THETA_RTOL * np.abs(theta).max()]
    return sigma + 1.0 / theta


def dense_spectrum(M, C, K, s0):
    """All finite eigenvalues by dense LAPACK on the shift-inverted
    companion matrix ``(A - s0 B)^{-1} B``."""
    A, B = companion(M, C, K)
    S = sla.lu_solve(sla.lu_factor(A - s0 * B), B)
    theta = sla.eigvals(S, overwrite_a=True, check_finite=False)
    theta = theta[np.abs(theta) > INF_THETA_RTOL * np.abs(theta).max()]
    return s0 + 1.0 / theta


def _problem_entry(workdir, name, p):
    prefix = os.path.join(workdir, name)
    write_problem(prefix, p)
    return {"prefix": prefix, "name": name, "n": p.n}


def _wave_plan(workdir, seed, m, mode, extraction, rng):
    p = wave2d(m)
    config = {
        "sigma": [WAVE_SIGMA.real, WAVE_SIGMA.imag],
        "nev": WAVE_NEV,
        "tol_outer": WAVE_TOL,
        "tol_inner": 1e-3,
        "mode": mode,
        "extraction": extraction,
        "seed": seed,
    }
    plan = {
        "problems": [_problem_entry(workdir, f"wave{m}", p)],
        "solves": [{"problem": 0, "config": config, "newton_tol": None}],
        "verify": [],
    }
    # the same solve stopped early: it runs every code path of the timed
    # solve on arrays of the same sizes, so lazy set-up happens before timing
    plan["warmup"] = [{"problem": 0, "config": dict(config, tol_outer=WARMUP_TOL),
                       "newton_tol": None}]
    refs = [Reference(WAVE_SIGMA, arpack_nearest(p.M, p.C, p.K, WAVE_SIGMA, WAVE_NEV + 4, rng))]
    return plan, [p], refs


def _sweep_targets(p, count, rng):
    """Shifts placed near isolated finite eigenvalues, with the ARPACK
    reference around each shift."""
    lams = dense_spectrum(p.M, p.C, p.K, 0.1 + 0.1j)
    dist = np.abs(lams[:, None] - lams[None, :])
    np.fill_diagonal(dist, np.inf)
    gap = dist.min(axis=1)
    pool = np.flatnonzero(gap >= SWEEP_MIN_REL_GAP * np.maximum(1.0, np.abs(lams)))
    pick = rng.choice(pool, size=count, replace=len(pool) < count)
    shifts, refs = [], []
    for i in pick:
        phase = np.exp(2j * np.pi * rng.uniform())
        sigma = complex(lams[i] + SWEEP_OFFSET * gap[i] * phase)
        (nearest,) = arpack_nearest(p.M, p.C, p.K, sigma, 1, rng)
        if abs(nearest - lams[i]) > 1e-6 * max(1.0, abs(lams[i])):
            raise RuntimeError(
                f"ARPACK and LAPACK disagree on the eigenvalue nearest {sigma}"
            )
        # the accurate nearest value, then its two next neighbours from the
        # dense scan, so that converging to a neighbour is told apart
        others = np.delete(lams, i)
        others = others[np.argsort(np.abs(others - sigma))[:2]]
        shifts.append(sigma)
        refs.append(Reference(sigma, np.r_[nearest, others]))
    return shifts, refs


def _sweep_plan(workdir, seed, rng):
    problems = [
        spring_maxwell(SpringMaxwellParams(element_count=25, chain_count=19, seed=seed)),
        random_qep(500, density=0.01, seed=seed),
    ]
    plan = {"problems": [], "solves": [], "verify": []}
    refs = []
    for idx, p in enumerate(problems):
        plan["problems"].append(_problem_entry(workdir, f"sweep{idx}", p))
        shifts, prefs = _sweep_targets(p, SWEEP_SHIFTS_PER_PROBLEM, rng)
        for sigma in shifts:
            plan["solves"].append({
                "problem": idx,
                "config": {
                    "sigma": [sigma.real, sigma.imag],
                    "nev": 1,
                    "tol_outer": SWEEP_TOL_OUTER,
                    "mode": "exact",
                    "seed": seed,
                },
                "newton_tol": SWEEP_TOL_NEWTON,
            })
        refs.extend(prefs)
        # one oracle decomposition per problem, around its first shift
        plan["verify"].append({"problem": idx, "sigma": [shifts[0].real, shifts[0].imag]})
    # alternate between the two problems, as a mixed stream of requests would
    count = SWEEP_SHIFTS_PER_PROBLEM
    order = [j for i in range(count) for j in (i, count + i)]
    plan["solves"] = [plan["solves"][i] for i in order]
    refs = [refs[i] for i in order]

    # one real solve per problem, untimed
    plan["warmup"] = plan["solves"][:2]
    return plan, problems, refs


def build(workload, seed, workdir):
    """Write the inputs of ``workload`` under ``workdir``.

    Returns ``(plan_path, problems, refs)``: the plan the measuring
    process reads, the generated problems (for the residual checks) and
    one :class:`Reference` per planned solve.
    """
    rng = np.random.default_rng([seed, 7])
    os.makedirs(workdir, exist_ok=True)
    if workload == "wave100-inexact":
        plan, problems, refs = _wave_plan(workdir, seed, 100, "inexact", "ritz", rng)
    elif workload == "wave20-exact-refined":
        plan, problems, refs = _wave_plan(workdir, seed, 20, "exact", "refined", rng)
    elif workload == "shift-sweep":
        plan, problems, refs = _sweep_plan(workdir, seed, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan["workload"] = workload
    plan["seed"] = seed
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    return plan_path, problems, refs
