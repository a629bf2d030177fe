"""Residual iteration solvers.

Three ways to chase eigenvalues of ``Q(lam) = lam^2 M + lam C + K`` near
a shift ``sigma``:

- :func:`newton_solve` refines a single pair with a Newton step on the
  scalar normalization equation (one factorization per step).
- :func:`outer_loop` with ``mode="exact"`` grows a subspace by solving
  ``Q(sigma) u = r`` exactly for the residual ``r`` of the first
  unconverged Ritz pair, orthonormalizing ``u`` into the basis.
- ``mode="inexact"`` replaces that solve with restarted GMRES at a fixed
  inner tolerance, trading inner iterations for (slightly) more outer
  steps.

The projected small problem is always solved through its shift-inverted
companion pencil, so infinite Ritz values (singular projected mass
block) are detected and skipped rather than polluting the targets.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    Breakdown,
    BreakdownError,
    SingularMatrix,
    Stagnation,
    SubspaceExhausted,
)
from .gmres import gmres
from .linalg import LUSolver, OrthonormalBasis, dense_eig, smallest_singular_vector, spmv
from .qep import (
    Eigentriplet,
    dense_cap,
    finite_order,
    q_apply,
    q_prime_apply,
    relative_residual,
    residual_denominator,
    shift_invert,
    shifted_matrix,
)

DEFAULT_MAX_SUBSPACE = 120


@dataclass
class SolverConfig:
    """Everything that determines a solver run (given the problem).

    ``max_subspace=None`` resolves to ``min(n, 120)`` at run time.
    ``initial_vector`` overrides the seeded random start when provided.
    """

    sigma: complex
    nev: int = 1
    tol_outer: float = 1e-10
    tol_inner: float = 1e-3
    mode: str = "exact"
    extraction: str = "ritz"
    restart: int = 30
    inner_maxit: int = 500
    max_subspace: int | None = None
    seed: int = 0
    initial_vector: np.ndarray | None = None

    def validate(self, n=None):
        # sigma^2 scales M in Q(sigma); a non-finite square would only
        # surface later as a zero pivot
        sigma = complex(self.sigma)
        if not np.isfinite(sigma * sigma):
            raise ValueError(f"sigma must be finite with a finite square, got {sigma}")
        v1 = self.initial_vector
        if v1 is not None and not np.isfinite(v1).all():
            raise ValueError("initial_vector must be finite")
        if self.mode not in ("newton", "exact", "inexact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.extraction not in ("ritz", "refined"):
            raise ValueError(f"unknown extraction {self.extraction!r}")
        if not (0.0 < self.tol_outer < 1.0 and 0.0 < self.tol_inner < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.nev < 1:
            raise ValueError("nev must be at least 1")
        if self.restart < 1 or self.inner_maxit < 1:
            raise ValueError("restart and inner_maxit must be positive")
        if n is not None:
            if self.nev > n:
                raise ValueError(f"nev = {self.nev} exceeds problem size {n}")
            cap = self.resolved_max_subspace(n)
            if not (1 <= cap <= n):
                raise ValueError(f"max_subspace must lie in [1, {n}]")

    def resolved_max_subspace(self, n):
        if self.max_subspace is None:
            return min(n, DEFAULT_MAX_SUBSPACE)
        return self.max_subspace


# ---------------------------------------------------------------------------
# Newton iteration for a single pair


@dataclass
class NewtonStep:
    k: int
    lam: complex
    relres: float


@dataclass
class NewtonResult:
    lam: complex
    x: np.ndarray
    history: list
    converged: bool


def newton_solve(p, lam0, x0, tol=1e-10, maxit=50):
    """Newton refinement of a single eigenpair from ``(lam0, x0)``.

    Each step solves ``Q(lam_k) y = Q'(lam_k) x_k`` densely and updates

        x_{k+1} = y / (e* y),      lam_{k+1} = lam_k - 1 / (e* y)

    where ``e`` is the coordinate vector at the largest-modulus
    component of ``x0`` (fixed for the whole run, normalizing
    ``e* x_k = 1``).  Converges quadratically near a simple eigenvalue.

    Returns a :class:`NewtonResult`; ``converged`` is False when
    ``maxit`` ran out.  Raises :class:`Stagnation` when the update
    scalar vanishes and :class:`SingularMatrix` when ``lam_k`` lands on
    an eigenvalue without the residual being converged already.
    """
    n = p.n
    if n > dense_cap():
        raise ValueError(
            f"newton_solve factors Q(lam) densely; n = {n} exceeds "
            f"the dense cap {dense_cap()}"
        )
    x0 = np.asarray(x0, dtype=complex)
    e_idx = int(np.argmax(np.abs(x0)))
    if x0[e_idx] == 0.0:
        raise ValueError("x0 must be nonzero")
    x = x0 / x0[e_idx]
    lam = complex(lam0)
    Md, Cd, Kd = p.densify()

    history = []
    for k in range(maxit + 1):
        relres = relative_residual(p, lam, x / np.linalg.norm(x))
        history.append(NewtonStep(k=k, lam=lam, relres=relres))
        if relres <= tol:
            return NewtonResult(
                lam=lam, x=x / np.linalg.norm(x), history=history, converged=True
            )
        if k == maxit:
            break
        # a SingularMatrix here means lam_k landed on an eigenvalue while
        # the residual check above already said the pair is not converged,
        # so propagating it is the honest outcome
        qlu = LUSolver(lam * lam * Md + lam * Cd + Kd)
        y = qlu.solve(q_prime_apply(p, lam, x))
        s = y[e_idx]
        if abs(s) < 1e-300:
            raise Stagnation("update scalar e* y vanished")
        x = y / s
        lam = lam - 1.0 / s

    return NewtonResult(
        lam=lam, x=x / np.linalg.norm(x), history=history, converged=False
    )


# ---------------------------------------------------------------------------
# Subspace machinery


class ProjectionCache:
    """Projected blocks ``V* M V, V* C V, V* K V`` maintained incrementally.

    Only the k x k blocks are kept, so the basis is the only n-sized state
    of the outer loop.  Appending a column costs, per matrix, one sparse
    product for the new column, one transposed sparse product for the new
    row and O(n k) dot products; the blocks are updated in place, never
    recomputed.
    """

    def __init__(self, p, capacity=32):
        self.p = p
        cap = max(1, capacity)
        self._small = [np.zeros((cap, cap), dtype=complex) for _ in range(3)]
        self.k = 0

    def append(self, V, v):
        """Extend the cache with column ``v``; ``V`` must already contain
        it as its last column."""
        k = self.k
        cap = self._small[0].shape[0]
        if k == cap:
            for i, small in enumerate(self._small):
                grown = np.zeros((2 * cap, 2 * cap), dtype=complex)
                grown[:k, :k] = small[:k, :k]
                self._small[i] = grown
        vc = v.conj()
        for mat, small in zip((self.p.M, self.p.C, self.p.K), self._small):
            # column V* (A v) and row v* A V = (A^T conj(v)) V, neither
            # forming V*
            small[: k + 1, k] = (spmv(mat, v).conj() @ V).conj()
            if k:
                small[k, :k] = (mat.T @ vc) @ V[:, :k]
        self.k = k + 1

    @property
    def blocks(self):
        k = self.k
        return tuple(small[:k, :k] for small in self._small)


@dataclass
class ProjectedPair:
    """One finite eigenpair of the projected problem."""

    omega: complex
    z: np.ndarray


def solve_projected_qep(Mk, Ck, Kk, sigma):
    """The finite eigenpairs of the dense projected problem.

    Solved through the shift-inverted companion pencil at ``sigma``;
    returns the pairs in :func:`~qri.qep.finite_order` and skips the
    infinite ones (singular projected mass block).  If ``sigma`` happens
    to be an eigenvalue of the projected pencil the shift is nudged once
    by a relative ``1e-8`` perturbation (the Ritz values are then read
    off the nudged shift); a second failure propagates as
    :class:`SingularMatrix`.
    """
    try:
        S, _ = shift_invert(Mk, Ck, Kk, sigma)
    except SingularMatrix:
        sigma = sigma * (1.0 + 1e-8) + 1e-8j
        S, _ = shift_invert(Mk, Ck, Kk, sigma)
    theta, W = dense_eig(S)
    k = Mk.shape[0]
    idx, omegas, _ = finite_order(theta, sigma)

    pairs = []
    for i, omega in zip(idx, omegas):
        z = W[k:, i]
        nz = np.linalg.norm(z)
        if nz == 0.0:
            continue  # numerically empty lower block: treat as infinite-like
        pairs.append(ProjectedPair(omega=complex(omega), z=z / nz))
    return pairs


@dataclass
class RitzPair:
    omega: complex
    z: np.ndarray
    xtilde: np.ndarray
    resid: np.ndarray
    relres: float
    converged: bool


def refined_vector(p, V, omega, products=None):
    """Unit vector in ``span(V)`` minimizing ``norm(Q(omega) u)``.

    Found as the smallest right singular vector of the tall matrix
    ``omega^2 M V + omega C V + K V``.  Never worse than the Ritz vector
    for the same ``omega`` (the Ritz coordinate vector is a candidate in
    the same minimization).  ``products`` is ``(M V, C V, K V)`` when the
    caller has already formed it.  Returns the vector and its
    coordinates in ``V``.
    """
    Vm = V.matrix if isinstance(V, OrthonormalBasis) else np.asarray(V, dtype=complex)
    MV, CV, KV = products or (p.M @ Vm, p.C @ Vm, p.K @ Vm)
    return _lift(Vm, smallest_singular_vector(omega * omega * MV + omega * CV + KV))


def _lift(Vm, z):
    """``(Vm z, z)`` scaled so that ``Vm z`` has unit norm."""
    u = Vm @ z
    nu = np.linalg.norm(u)
    return u / nu, z / nu


def _extract_pairs(p, Vm, proj_pairs, nev, tol_outer, extraction):
    # refined extraction shares one set of sparse products per iteration
    products = (p.M @ Vm, p.C @ Vm, p.K @ Vm) if extraction == "refined" else None
    out = []
    for pp in proj_pairs:
        if len(out) == nev:
            break
        omega = pp.omega
        if products:
            xtilde, z = refined_vector(p, Vm, omega, products)
        else:
            xtilde, z = _lift(Vm, pp.z)
        resid = q_apply(p, omega, xtilde)
        relres = float(np.linalg.norm(resid) / residual_denominator(p, omega))
        out.append(
            RitzPair(
                omega=omega,
                z=z,
                xtilde=xtilde,
                resid=resid,
                relres=relres,
                converged=relres <= tol_outer,
            )
        )
    return out


def select_expansion_residual(pairs, nev):
    """Index of the first pair whose residual still needs work.

    Walks the pairs (already sorted by distance to the shift) and
    returns the first that is not converged.  Returns ``None``
    once the first ``nev`` pairs all pass.  If fewer than ``nev`` pairs
    exist but all of them pass, the first one is returned anyway: the
    subspace still has to grow before convergence can be declared.
    """
    for i, pair in enumerate(pairs[:nev]):
        if not pair.converged:
            return i
    if len(pairs) >= nev:
        return None
    if not pairs:
        raise BreakdownError("projected problem produced no finite pairs")
    return 0


class ExactExpansion:
    """Solve ``Q(sigma) u = r`` for the expansion, exactly when possible.

    Uses a dense LU of ``Q(sigma)`` computed once when ``n`` fits under
    the dense cap; otherwise falls back to GMRES at tolerance 1e-14
    (``pseudo_exact`` is set and inner iterations are reported).
    """

    def __init__(self, p, sigma, restart=50, maxit=10000):
        self.pseudo_exact = p.n > dense_cap()
        self.last_iters = 0
        self.last_relres = 0.0
        if self.pseudo_exact:
            op_matrix = shifted_matrix(p, sigma)
            self._apply = lambda w: op_matrix @ w
            self._restart = restart
            self._maxit = maxit
        else:
            Md, Cd, Kd = p.densify()
            self._lu = LUSolver(sigma * sigma * Md + sigma * Cd + Kd)

    def solve(self, r):
        if self.pseudo_exact:
            res = gmres(
                self._apply, r, tol=1e-14, restart=self._restart, maxit=self._maxit
            )
            self.last_iters = res.iters
            self.last_relres = res.relres
            return res.x
        return self._lu.solve(r)


@dataclass
class ConvergenceRecord:
    """Per-outer-iteration snapshot: Ritz data before expansion, inner
    solve cost of the expansion performed in the same iteration."""

    outer_iter: int
    subspace_dim: int
    ritz_values: list
    relres: list
    inner_iters: int = 0
    inner_relres: float = 0.0
    expansion_breakdowns: int = 0


@dataclass
class StepView:
    """Snapshot handed to an outer-loop observer just before the basis
    grows.  Arrays are live views; valid only during the callback."""

    k: int
    basis: OrthonormalBasis
    pairs: list
    selected: int
    u: np.ndarray
    v_next: np.ndarray


@dataclass
class RunResult:
    eigenpairs: list
    converged: list
    relres: list
    history: list
    iter_wall_ms: list
    phase_wall_ms: dict
    cumulative_inner_iters: int
    inner_failures: int
    pseudo_exact: bool
    stop_reason: str


def outer_loop(p, config, observer=None):
    """Subspace residual iteration for the ``nev`` eigenvalues nearest
    ``config.sigma``.

    Grows an orthonormal basis one vector per outer iteration: project,
    solve the small problem, extract Ritz (or refined) pairs, and expand
    with ``Q(sigma)^{-1} r`` for the residual ``r`` of the first
    unconverged target pair -- exactly (``mode="exact"``) or through
    restarted GMRES at ``tol_inner`` (``mode="inexact"``).  Converged
    pairs are left soft-locked: they are re-extracted every iteration
    and only reported at the end.

    ``observer``, when given, is called with a :class:`StepView` before
    each basis extension; returning a truthy value stops the run
    gracefully (``stop_reason="observer"``).

    Raises :class:`SubspaceExhausted` (partial result attached) when the
    basis reaches ``max_subspace`` without convergence, and
    :class:`BreakdownError` when no candidate residual can extend the
    basis.
    """
    config.validate(p.n)
    if config.mode == "newton":
        raise ValueError("use newton_solve for mode='newton'")
    n = p.n
    nev = config.nev
    sigma = complex(config.sigma)
    max_sub = config.resolved_max_subspace(n)

    rng = np.random.default_rng(config.seed)
    if config.initial_vector is not None:
        v1 = np.asarray(config.initial_vector, dtype=complex)
    else:
        v1 = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)

    basis = OrthonormalBasis(n, capacity=max(32, max_sub))
    basis.append(v1)
    proj = ProjectionCache(p, capacity=max(32, max_sub))
    proj.append(basis.matrix, basis.matrix[:, 0])

    if config.mode == "exact":
        expander = ExactExpansion(p, sigma)
        inner_op = None
    else:
        expander = None
        op_matrix = shifted_matrix(p, sigma)
        inner_op = lambda w: op_matrix @ w  # noqa: E731

    history = []
    iter_wall = []
    phase = {"projection": 0.0, "small_solve": 0.0, "inner_solve": 0.0}
    cum_inner = 0
    inner_failures = 0
    stop_reason = None
    pairs = []

    outer = 0
    while True:
        outer += 1
        t_iter = time.perf_counter()

        t0 = time.perf_counter()
        Mk, Ck, Kk = proj.blocks
        phase["projection"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        proj_pairs = solve_projected_qep(Mk, Ck, Kk, sigma)
        pairs = _extract_pairs(
            p, basis.matrix, proj_pairs, nev, config.tol_outer, config.extraction
        )
        phase["small_solve"] += time.perf_counter() - t0

        record = ConvergenceRecord(
            outer_iter=outer,
            subspace_dim=basis.k,
            ritz_values=[pr.omega for pr in pairs],
            relres=[pr.relres for pr in pairs],
        )

        selected = select_expansion_residual(pairs, nev)
        if selected is None or basis.k >= max_sub:
            history.append(record)
            iter_wall.append((time.perf_counter() - t_iter) * 1e3)
            stop_reason = "converged" if selected is None else "exhausted"
            break

        # expansion, falling through to later residuals on breakdown
        candidates = [selected] + [i for i in range(len(pairs)) if i != selected]
        v_next = None
        for attempt, idx in enumerate(candidates):
            r = pairs[idx].resid
            t0 = time.perf_counter()
            if config.mode == "exact":
                u = expander.solve(r)
                record.inner_iters += expander.last_iters
                record.inner_relres = expander.last_relres
                cum_inner += expander.last_iters
            else:
                res = gmres(
                    inner_op,
                    r,
                    tol=config.tol_inner,
                    restart=config.restart,
                    maxit=config.inner_maxit,
                )
                u = res.x
                record.inner_iters += res.iters
                record.inner_relres = res.relres
                cum_inner += res.iters
                if not res.converged:
                    inner_failures += 1
            phase["inner_solve"] += time.perf_counter() - t0
            try:
                v_next = basis.orthonormalize(u)
                selected = idx
                record.expansion_breakdowns = attempt
                break
            except Breakdown:
                continue
        if v_next is None:
            record.expansion_breakdowns = len(candidates)
            history.append(record)
            raise BreakdownError(
                f"all {len(candidates)} candidate residuals broke down in "
                "orthogonalization"
            )

        if observer is not None:
            view = StepView(
                k=basis.k, basis=basis, pairs=pairs,
                selected=selected, u=u, v_next=v_next,
            )
            if observer(view):
                history.append(record)
                iter_wall.append((time.perf_counter() - t_iter) * 1e3)
                stop_reason = "observer"
                break

        basis.append_orthonormal(v_next)
        proj.append(basis.matrix, v_next)
        history.append(record)
        iter_wall.append((time.perf_counter() - t_iter) * 1e3)

    # final pairs, residuals recomputed from the original matrices
    eigenpairs = []
    final_relres = []
    converged_flags = []
    for pr in pairs[:nev]:
        eigenpairs.append(Eigentriplet(lam=pr.omega, x=pr.xtilde))
        rr = relative_residual(p, pr.omega, pr.xtilde)
        final_relres.append(rr)
        converged_flags.append(rr <= config.tol_outer)

    result = RunResult(
        eigenpairs=eigenpairs,
        converged=converged_flags,
        relres=final_relres,
        history=history,
        iter_wall_ms=iter_wall,
        phase_wall_ms={k: v * 1e3 for k, v in phase.items()},
        cumulative_inner_iters=cum_inner,
        inner_failures=inner_failures,
        pseudo_exact=bool(expander.pseudo_exact) if expander else False,
        stop_reason=stop_reason,
    )
    if stop_reason == "exhausted":
        raise SubspaceExhausted(
            f"no convergence within max_subspace = {max_sub}", result=result
        )
    return result
