"""Drivers that evaluate the oracle checks alongside live solver runs.

Each ``run_*`` function assembles a desk-scale experiment: it runs the
subspace iteration (or builds randomized trials), evaluates one of the
angle/bound/resolvent checks at every step, and returns per-step records
that callers can assert on or dump as JSON.  The ``shift_*`` helpers
place a shift at a controlled distance or distance ratio from an
isolated eigenvalue, which several of the checks need to be meaningful.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gmres import gmres
from .linalg import OrthonormalBasis, sin_angle, uniform_complex
from .oracle import (
    angle_sandwich,
    expansion_angle_bound,
    expansion_angle_identity,
    expansion_perturbation_diagnostics,
    full_eig,
    resolvent_check,
)
from .qep import check_count, check_interval, check_shift, shifted_matrix
from .solver import SolverConfig, outer_loop

ISOLATION_TIE_RTOL = 1e-10

# far below any attainable residual: the identity's run expands until the
# observer has its steps
IDENTITY_TOL_OUTER = 1e-200
# the bound's run stops at this tolerance, or once the target vector is
# captured to BOUND_SIN_FLOOR, below which round-off dominates the angles
BOUND_TOL_OUTER = 1e-9
BOUND_SIN_FLOOR = 1e-8
# resolvent probes nearer an eigenvalue than this fraction of the sampling
# radius are redrawn: the expansion's terms blow up there
RESOLVENT_MARGIN_RTOL = 1e-2
# perturbation sizes, log-uniform from near round-off to a tenth of |u|
PERTURBATION_EPS_RANGE = (1e-8, 1e-1)
# the sandwich trials' GMRES restart length and step budget, ample for
# gmres_tol = 1e-2 at desk scale
SANDWICH_RESTART = 30
SANDWICH_MAXIT = 2000
# a shift off the built-in problems' spectra, where the sandwich trials
# scan the spectrum to place their own shift
PROBE_SIGMA = 0.1234 + 0.4321j


def pick_isolated_index(lams):
    """Index of the eigenvalue farthest from its nearest neighbour: the
    first within ``ISOLATION_TIE_RTOL`` of that gap, so mirror images tie."""
    lams = np.asarray(lams, dtype=complex)
    if lams.size < 2:
        raise ValueError("need at least two eigenvalues")
    dist = np.abs(lams[:, None] - lams[None, :])
    np.fill_diagonal(dist, np.inf)
    gaps = dist.min(axis=1)
    return int(np.argmax(gaps >= (1.0 - ISOLATION_TIE_RTOL) * gaps.max()))


def shift_at_distance(lams, index, distance):
    """Shift at exactly ``distance`` from ``lams[index]``, placed on the
    side away from the nearest other eigenvalue so the target stays the
    closest one.  Raises if the placement fails."""
    lams = np.asarray(lams, dtype=complex)
    target = lams[index]
    others = np.delete(lams, index)
    nearest = others[np.argmin(np.abs(others - target))]
    direction = target - nearest
    direction = direction / abs(direction) if direction != 0 else 1.0
    sigma = target + distance * direction
    if np.argmin(np.abs(lams - sigma)) != index:
        raise ValueError("distance too large: another eigenvalue is closer")
    return complex(sigma)


def shift_with_ratio(lams, index, ratio):
    """Shift near ``lams[index]`` with distance ratio at most ``ratio``
    between the closest and second-closest eigenvalue."""
    lams = np.asarray(lams, dtype=complex)
    target = lams[index]
    gap = np.abs(np.delete(lams, index) - target).min()
    delta = 0.9 * ratio * gap / (1.0 + ratio)
    sigma = shift_at_distance(lams, index, delta)
    dist = np.abs(lams - sigma)
    actual = dist[index] / np.delete(dist, index).min()
    if actual > ratio:
        raise ValueError(f"could not achieve ratio {ratio} (got {actual})")
    return sigma


def _run_exact(p, sigma, seed, steps, tol_outer, measure):
    """Records ``measure(d, view)`` of an exact-mode ``outer_loop`` on at
    most ``steps + 1`` basis vectors, ``d`` the oracle decomposition at
    ``sigma``.

    The config is validated before ``d`` is computed, so a bad ``sigma``
    or ``seed`` is named first.  The run stops when ``measure`` returns
    ``None``, once ``steps`` records exist, or at convergence to
    ``tol_outer`` or the cap.
    """
    config = SolverConfig(sigma=sigma, nev=1, tol_outer=tol_outer, mode="exact",
                          max_subspace=min(p.n, steps + 1), seed=seed)
    config.validate(p.n)
    d = full_eig(p, sigma)
    records = []

    def observer(view):
        record = measure(d, view)
        if record is not None:
            records.append(record)
        return record is None or len(records) >= steps

    outer_loop(p, config, observer=observer)
    return records


@dataclass
class IdentityStep:
    k: int
    lhs: float
    rhs: float
    gap: float
    sin_before: float
    factor: float


@dataclass
class IdentityReport:
    steps: list
    product_gap: float
    final_sin: float


def run_angle_identity_check(p, sigma, steps, seed=0):
    """Exact-mode run verifying the one-step angle factorization.

    At each of ``steps`` expansions, evaluates both sides of

        sin([V, v], x) = sin(V, x) * sin(v, (I - P_V) x)

    against the oracle eigenvector ``x`` nearest ``sigma``, and
    accumulates the per-step factors whose product must reproduce the
    final subspace angle.  Raises :class:`ValueError` unless ``sigma`` is
    a finite shift, ``steps`` an integer in ``[1, n - 1]`` and ``seed``
    one of at least 0: the run's basis holds at most ``n`` vectors,
    ``steps + 1`` of them at the end.
    """
    check_shift(sigma, "sigma")
    check_count("steps", steps, 1, p.n - 1)

    def measure(d, view):
        return IdentityStep(view.k, *expansion_angle_identity(
            view.basis.matrix, view.v_next, d.X[:, 0]))

    records = _run_exact(p, sigma, seed, steps, IDENTITY_TOL_OUTER, measure)
    product = math.prod([records[0].sin_before] + [rec.factor for rec in records])
    final_sin = records[-1].lhs
    return IdentityReport(
        steps=records,
        product_gap=abs(product - final_sin),
        final_sin=final_sin,
    )


@dataclass
class BoundStep:
    k: int
    lhs: float
    rhs: float
    xi: float
    sin_target: float


def run_angle_bound_check(p, sigma, max_steps, seed=0):
    """Exact-mode run comparing each expansion angle to its spectral bound.

    Stops after ``max_steps`` records, once the target eigenvector is
    captured to ``BOUND_SIN_FLOOR`` or once the pair converges at
    ``BOUND_TOL_OUTER``.  Raises :class:`ValueError` unless ``max_steps``
    is an integer of at least 1, ``sigma`` a finite shift and ``seed`` an
    integer of at least 0.
    """
    check_count("max_steps", max_steps, 1)

    def measure(d, view):
        s = sin_angle(view.basis.matrix, d.X[:, 0])
        if s <= BOUND_SIN_FLOOR:
            return None
        r = view.pairs[view.selected].resid
        return BoundStep(view.k, *expansion_angle_bound(d, view.basis.matrix, r), s)

    return _run_exact(p, sigma, seed, max_steps, BOUND_TOL_OUTER, measure)


@dataclass
class ResolventPoint:
    mu: complex
    error: float


def run_resolvent_spot_check(p, sigma, n_points=3, seed=0):
    """Relative error of the rank-one expansion of ``Q(mu)^{-1}`` at
    ``n_points`` random probe points, ``RESOLVENT_MARGIN_RTOL`` away from
    the spectrum.  Raises :class:`ValueError` unless ``n_points`` is an
    integer of at least 1 and ``seed`` one of at least 0."""
    check_count("n_points", n_points, 1)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    d = full_eig(p, sigma)
    centre = d.lams.mean()
    radius = 2.0 * max(np.abs(d.lams - centre).max(), 1.0)
    margin = RESOLVENT_MARGIN_RTOL * radius
    points = []
    while len(points) < n_points:
        mu = centre + radius * uniform_complex(rng)
        if np.abs(d.lams - mu).min() < margin:
            continue
        points.append(ResolventPoint(mu=complex(mu), error=resolvent_check(d, mu)))
    return points


@dataclass
class PerturbationTrial:
    eps: float
    eps_recovered: float
    eps_tilde: float
    gap_scale: float
    gap_direction: float


def run_perturbation_trials(n=40, k=8, trials=100, seed=0):
    """Randomized verification of the two inexact-expansion identities.

    Each trial draws a ``k``-dimensional orthonormal subspace of ``C^n``,
    an exact vector ``u``, and a perturbation
    ``utilde = u + eps * norm(u) * f`` with ``eps`` log-uniform over
    ``PERTURBATION_EPS_RANGE``, then measures both identity gaps.  Raises
    :class:`ValueError` unless ``n``, ``k``, ``trials`` and ``seed`` are
    integers with ``0 <= k <= n - 1``, ``trials >= 1`` and ``seed >= 0``:
    a subspace of all of ``C^n`` leaves no direction to expand in.
    """
    check_count("n", n, 1)
    check_count("k", k, 0, n - 1)
    check_count("trials", trials, 1)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    lo, hi = np.log10(PERTURBATION_EPS_RANGE[0]), np.log10(PERTURBATION_EPS_RANGE[1])

    out = []
    for _ in range(trials):
        basis = OrthonormalBasis(n, k)
        for _ in range(k):
            basis.append(uniform_complex(rng, n))
        u = uniform_complex(rng, n)
        f = uniform_complex(rng, n)
        f /= np.linalg.norm(f)
        eps = 10.0 ** rng.uniform(lo, hi)
        utilde = u + eps * np.linalg.norm(u) * f
        diag = expansion_perturbation_diagnostics(basis, u, utilde)
        out.append(
            PerturbationTrial(
                eps=eps,
                eps_recovered=diag.eps,
                eps_tilde=diag.eps_tilde,
                gap_scale=diag.gap_scale,
                gap_direction=diag.gap_direction,
            )
        )
    return out


@dataclass
class SandwichSummary:
    sigma: complex
    ratio: float
    trials: int
    hypothesis_count: int
    violation_count: int
    results: list

    @property
    def violation_rate(self):
        if self.hypothesis_count == 0:
            return 0.0
        return self.violation_count / self.hypothesis_count


def run_sandwich_trials(p, sigma=None, ratio=0.01, trials=100, gmres_tol=1e-2, seed=0):
    """Tangent-ordering statistics for inexact solves near an eigenvalue.

    When ``sigma`` is not given, one is placed next to the most isolated
    eigenvalue (of the spectrum at ``PROBE_SIGMA``) at distance ratio
    ``ratio``.  Each trial solves ``Q(sigma) u = r`` for a random ``r``
    exactly and with GMRES at ``gmres_tol`` (``SANDWICH_RESTART``,
    ``SANDWICH_MAXIT``), then records whether the tangent ordering holds.
    Violations are counted only among trials where the hypothesis (exact
    direction strictly closer than the error direction) holds.  Raises
    :class:`ValueError` unless ``trials`` is an integer of at least 1,
    ``seed`` one of at least 0, ``0 < gmres_tol < 1``, ``0 < ratio < inf``
    and the problem has at least two finite eigenvalues.  The target pair
    is the decomposition's first two values and its first vector.
    """
    check_count("trials", trials, 1)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    check_interval("gmres_tol", gmres_tol)
    check_interval("ratio", ratio, np.inf)
    if sigma is None:
        probe = full_eig(p, PROBE_SIGMA)
        idx = pick_isolated_index(probe.lams)
        sigma = shift_with_ratio(probe.lams, idx, ratio)
    d = full_eig(p, sigma)
    if d.lams.size < 2:
        raise ValueError("the trials need at least two finite eigenvalues")
    actual_ratio = abs(d.lams[0] - sigma) / abs(d.lams[1] - sigma)
    x1 = d.X[:, 0]

    op_matrix = shifted_matrix(p, sigma)

    results = []
    for _ in range(trials):
        r = uniform_complex(rng, p.n)
        r /= np.linalg.norm(r)
        u = d.sigma_lu.solve(r)
        res = gmres(lambda w: op_matrix @ w, r, tol=gmres_tol,
                    restart=SANDWICH_RESTART, maxit=SANDWICH_MAXIT)
        results.append(angle_sandwich(x1, u, res.x))

    held = [outcome for outcome in results if outcome.hypothesis_holds]
    return SandwichSummary(
        sigma=complex(sigma),
        ratio=float(actual_ratio),
        trials=trials,
        hypothesis_count=len(held),
        violation_count=sum(not outcome.sandwich_holds for outcome in held),
        results=results,
    )

