"""Residual iteration solvers.

Three ways to chase eigenvalues of ``Q(lam) = lam^2 M + lam C + K`` near
a shift ``sigma``:

- :func:`newton_solve` refines a single pair with a Newton step on the
  scalar normalization equation (one LU of ``Q`` per step).
- :func:`outer_loop` grows a subspace by solving ``Q(sigma) u = r`` for
  the residual ``r`` of the first unconverged Ritz pair, orthonormalizing
  ``u`` into the basis.  ``mode="exact"`` solves with one LU
  (:class:`ExactExpansion`); ``mode="inexact"`` solves iteratively at a
  fixed inner tolerance (:class:`KrylovExpansion`), trading inner
  iterations for (slightly) more outer steps, and is the only mode that
  runs above the dense cap on a problem factored densely.

Newton and exact mode factor ``Q`` through :func:`~qri.qep.factor_q`:
sparsely (SuperLU) when the problem's pattern keeps a narrow envelope,
densely otherwise (:attr:`~qri.qep.QepProblem.factorization`), and only
a dense factorization is bounded by the dense cap.

The projected small problem's eigenvalues always come from its
shift-inverted companion matrix, built from one LU of the k x k
``Q_k(sigma)``, so infinite Ritz values (singular projected mass block)
are skipped rather than polluting the targets.  A coordinate vector is
the null vector of ``Q_k(omega)``, found by inverse iteration only where
the loop reads it (:class:`ProjectedSolve`).  Refined extraction
instead minimizes ``norm(Q(omega) V z)`` through the small triangular
factor of ``[M V, C V, K V]`` (:class:`ResidualFactor`) that the
:class:`ProjectionCache` keeps up to date from the sparse products it
forms anyway, so extraction itself makes none.
"""

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    Breakdown,
    BreakdownError,
    SingularMatrix,
    Stagnation,
    SubspaceExhausted,
)
from .gmres import RecycleSpace, gmres
from .linalg import (
    BREAKDOWN_RTOL,
    OrthonormalBasis,
    dense_eig,
    gram_schmidt,
    null_vector,
    smallest_singular_vector,
    spmv,
)
from .qep import (
    Eigentriplet,
    check_shift,
    factor_q,
    finite_order,
    q_apply,
    q_prime_apply,
    relative_residual,
    residual_denominator,
    shift_invert,
    shifted_matrix,
)

# the default restart size of inexact mode and the size up to which a
# default restart size doubles
DEFAULT_MAX_SUBSPACE = 120
# the smallest default restart size of exact mode
EXACT_RESTART_SIZE = 20
# projected eigenvalues whose theta = 1/(omega - sigma) differ by at most
# this fraction of the largest |theta| form a cluster, whose coordinate
# vectors are orthonormal (see solve_projected_qep)
CLUSTER_RTOL = 1e-10


@dataclass
class SolverConfig:
    """Everything that determines a solver run (given the problem).

    ``max_subspace`` is the restart size of :func:`outer_loop` and, when
    set, the largest basis it builds.  ``None`` resolves at run time to
    ``min(n, max(20, 3 * nev))`` in exact mode and to ``min(n, 120)`` in
    inexact mode, a restart size that may double up to ``min(n, 120)``.
    ``initial_vector`` overrides the seeded random start when provided.
    ``tol_inner``, ``restart`` and ``inner_maxit`` are read only by
    :class:`KrylovExpansion`, inexact mode's inner solves: ``restart`` is
    the GMRES cycle length, recycled vectors included, and is unused when
    the problem is symmetric and the solves run COCR.
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
        check_shift(self.sigma, "sigma")
        v1 = self.initial_vector
        if v1 is not None and not np.isfinite(v1).all():
            raise ValueError("initial_vector must be finite")
        if self.mode not in ("exact", "inexact"):
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
        if self.max_subspace is not None:
            return self.max_subspace
        if self.mode == "exact":
            return min(n, max(EXACT_RESTART_SIZE, 3 * self.nev))
        return min(n, DEFAULT_MAX_SUBSPACE)


@dataclass
class ConvergenceRecord:
    """One iteration of either solver: the Ritz data it scored, the cost
    of its expansion (inner steps, last inner residual, inner solves short
    of ``tol_inner``, candidate residuals that broke down) and its wall
    time, which runs to the next iteration's start (the first also holds
    the set-up), so the records' ``wall_ms`` sum to the run's."""

    outer_iter: int
    subspace_dim: int
    ritz_values: list
    relres: list
    inner_iters: int = 0
    inner_relres: float = 0.0
    inner_failures: int = 0
    expansion_breakdowns: int = 0
    wall_ms: float = 0.0


# ---------------------------------------------------------------------------
# Newton iteration for a single pair


@dataclass
class NewtonResult:
    lam: complex
    x: np.ndarray
    history: list
    converged: bool


def newton_solve(p, lam0, x0, tol=1e-10, maxit=50):
    """Newton refinement of a single eigenpair from ``(lam0, x0)``.

    Each step solves ``Q(lam_k) y = Q'(lam_k) x_k`` with a fresh LU
    from :func:`~qri.qep.factor_q` (sparse or dense as the problem's
    pattern says) and updates

        x_{k+1} = y / (e* y),      lam_{k+1} = lam_k - 1 / (e* y)

    where ``e`` is the coordinate vector at the largest-modulus
    component of ``x0`` (fixed for the whole run, normalizing
    ``e* x_k = 1``).  Converges quadratically near a simple eigenvalue.

    Returns a :class:`NewtonResult` whose ``history`` holds one
    :class:`ConvergenceRecord` per iterate, the start included
    (``subspace_dim=1``, ``ritz_values=[lam_k]``); ``converged`` is False
    when ``maxit`` ran out.  Raises :class:`ValueError` for a negative
    ``maxit``, a ``tol`` outside (0, 1), a non-finite ``lam0`` or ``x0``
    and, from the first step, for ``n`` above the dense cap when ``Q`` is
    factored densely; :class:`Stagnation` when the update scalar vanishes and
    :class:`SingularMatrix` when ``lam_k`` lands on an eigenvalue without
    the residual being converged already.
    """
    t_step = time.perf_counter()
    if maxit < 0:
        raise ValueError(f"maxit must be at least 0, got {maxit}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    lam = check_shift(lam0, "lam0")
    x0 = np.asarray(x0, dtype=complex)
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    e_idx = int(np.argmax(np.abs(x0)))
    if x0[e_idx] == 0.0:
        raise ValueError("x0 must be nonzero")
    x = x0 / x0[e_idx]

    history = []
    for k in range(maxit + 1):
        relres = relative_residual(p, lam, x / np.linalg.norm(x))
        record = ConvergenceRecord(
            outer_iter=k + 1, subspace_dim=1, ritz_values=[lam], relres=[relres]
        )
        history.append(record)
        done = relres <= tol or k == maxit
        if not done:
            # a SingularMatrix here means lam_k landed on an eigenvalue
            # while the residual check above already said the pair is not
            # converged, so propagating it is the honest outcome
            qlu = factor_q(p, lam, "lam")
            y = qlu.solve(q_prime_apply(p, lam, x))
            s = y[e_idx]
            if abs(s) < 1e-300:
                raise Stagnation("update scalar e* y vanished")
            x = y / s
            lam = lam - 1.0 / s
        now = time.perf_counter()
        record.wall_ms, t_step = (now - t_step) * 1e3, now
        if done:
            break

    return NewtonResult(
        lam=lam, x=x / np.linalg.norm(x), history=history, converged=relres <= tol
    )


# ---------------------------------------------------------------------------
# Subspace machinery


class ResidualFactor:
    """Thin QR factor ``W = Q_W R_W`` of the interleaved block
    ``W = [M v1, C v1, K v1, M v2, ...]`` of the basis columns ``v_j``.

    Since ``Q(omega) V z = W (z kron [omega^2; omega; 1])`` and ``Q_W``
    has orthonormal columns, ``norm(Q(omega) V z)`` equals the norm of
    ``E(omega) z`` for the small ``E(omega) = omega^2 R_W[:, 0::3] +
    omega R_W[:, 1::3] + R_W[:, 2::3]``, and the refined coordinates are
    its smallest right singular vector.

    A column of ``W`` whose remainder after orthogonalization is at most
    ``BREAKDOWN_RTOL`` of its norm (a zero ``M v`` of a singular ``M``,
    or any column once ``Q_W`` spans the whole space) adds a column to
    ``R_W`` but no row, so ``Q_W`` keeps at most ``n`` orthonormal
    columns and ``R_W`` stays upper triangular (trapezoidal).
    """

    def __init__(self, n, capacity):
        # never zero-filled and column-major, so that only the columns in
        # use are ever touched
        self._Q = np.empty((n, min(n, 3 * capacity)), dtype=complex, order="F")
        self.R = np.zeros((0, 0), dtype=complex)

    @property
    def Q(self):
        return self._Q[:, : self.R.shape[0]]

    def append(self, AV):
        """Extend the factor by the columns of the ``n x 3`` block
        ``AV = [M v, C v, K v]`` for a new basis column ``v``, which is
        overwritten.  Each column is orthogonalized by
        :func:`~qri.linalg.gram_schmidt` against ``Q_W``, the columns
        added for the block's earlier columns included."""
        r, m = self.R.shape
        R = np.zeros((r + 3, m + 3), dtype=complex, order="F")
        R[:r, :m] = self.R
        norms = np.linalg.norm(AV, axis=0)
        a = 0
        for j in range(3):
            w = AV[:, j]
            col = R[:, m + j]
            col[: r + a] = gram_schmidt(self._Q[:, : r + a], w)
            nrm = np.linalg.norm(w)
            if nrm > BREAKDOWN_RTOL * norms[j] and r + a < self._Q.shape[1]:
                np.multiply(w, 1.0 / nrm, out=self._Q[:, r + a])
                col[r + a] = nrm
                a += 1
        self.R = R[: r + a]

    def compress(self, Z):
        """Follow the basis compression ``V <- V Z``: factor
        ``R_W (Z kron I_3) = Q' R'`` and set ``Q_W <- Q_W Q'``,
        ``R_W <- R'``; no sparse products are needed."""
        r = self.R.shape[0]
        RZ = np.empty((r, 3 * Z.shape[1]), dtype=complex)
        for t in range(3):
            RZ[:, t::3] = self.R[:, t::3] @ Z
        Q = self.Q
        Qz, self.R = np.linalg.qr(RZ)
        self._Q[:, : Qz.shape[1]] = Q @ Qz

    def refined_coordinates(self, omega):
        """Unit ``z`` minimizing ``norm(Q(omega) V z)``, with its first
        entry within ``1e-8`` (relative) of the largest modulus real and
        positive, so that two factors of one ``V`` give the same ``z``."""
        R = self.R
        z = smallest_singular_vector(
            omega * omega * R[:, 0::3] + omega * R[:, 1::3] + R[:, 2::3]
        )
        mod = np.abs(z)
        lead = z[np.argmax(mod >= (1.0 - 1e-8) * mod.max())]
        return z * (abs(lead) / lead)


class ProjectionCache:
    """The search space: the :class:`~qri.linalg.OrthonormalBasis`
    ``basis`` ``V``, its projected blocks ``V* M V, V* C V, V* K V`` and,
    for refined extraction (``refined=True``), the :class:`ResidualFactor`
    of ``[M V, C V, K V]`` as ``factor``, kept in step by one
    :meth:`append` per column and one :meth:`compress` per restart.

    The n-sized state is the basis and, in refined extraction, the
    factor's ``Q_W`` of up to ``3 k`` columns.  Appending a column costs,
    per matrix, one sparse product for the new column, one transposed
    sparse product for the new row and O(n k) dot products; the factor
    reuses the three products of the new column.  The blocks are updated
    in place, never recomputed.
    """

    def __init__(self, p, capacity, refined=False):
        self.basis = OrthonormalBasis(p.n, capacity=capacity)
        # each matrix with its transpose, built once: scipy checks the
        # format of every transposed view it makes, 28 us each at n = 380
        self._mats = [(mat, mat.T) for mat in (p.M, p.C, p.K)]
        self._small = [np.zeros((capacity, capacity), dtype=complex) for _ in range(3)]
        self.factor = ResidualFactor(p.n, capacity) if refined else None

    def append(self, v):
        """Append the column ``v``, already orthonormal to the basis (as
        :meth:`~qri.linalg.OrthonormalBasis.orthonormalize` returns it),
        to the basis, the blocks and the factor; at most ``capacity``
        columns fit."""
        k = self.basis.k
        self.basis.append_orthonormal(v)
        vc = v.conj()
        # per matrix A, conj(A v) and A^T conj(v), stacked so that one
        # product reads V once: conj(A v) V is the conjugated column
        # V* (A v) and (A^T conj(v)) V the row v* A V, neither forming V*
        S = np.empty((6, len(v)), dtype=complex)
        for i, (mat, mat_t) in enumerate(self._mats):
            np.conjugate(spmv(mat, v), out=S[i])
            S[3 + i] = mat_t @ vc
        SV = S @ self.basis.matrix
        for i, small in enumerate(self._small):
            small[: k + 1, k] = SV[i].conj()
            small[k, :k] = SV[3 + i, :k]
        if self.factor is not None:
            self.factor.append(S[:3].conj().T)

    def compress(self, Z):
        """Thick restart: ``V <- V Z`` for ``k x q`` orthonormal ``Z``,
        each block ``B`` to ``Z* B Z`` and the factor alike; no sparse
        products are needed."""
        k, q = Z.shape
        self.basis.compress(Z)
        Zh = Z.conj().T
        for small in self._small:
            small[:q, :q] = Zh @ small[:k, :k] @ Z
        if self.factor is not None:
            self.factor.compress(Z)

    @property
    def blocks(self):
        k = self.basis.k
        return tuple(small[:k, :k] for small in self._small)


class ProjectedSolve:
    """The finite eigenvalues ``omegas`` of one projected problem, in
    :func:`~qri.qep.finite_order`, and their unit coordinate vectors
    ``z(i)``, each computed once, on first read, from a copy of the
    blocks: the cache's blocks are views that a restart or an append
    overwrites.

    ``z(i)`` is :func:`~qri.linalg.null_vector` of ``Q_k(omegas[i]) =
    omega^2 Mk + omega Ck + Kk`` at the scale ``|omega|^2 |Mk|_1 + |omega|
    |Ck|_1 + |Kk|_1``, orthogonal to the vectors of the earlier values in
    its cluster, which are computed first if not read yet.
    """

    def __init__(self, blocks, omegas, theta):
        self.omegas = omegas
        self._blocks = [np.array(b, order="F") for b in blocks]
        self._norms = [np.abs(b).sum(axis=0).max(initial=0.0) for b in blocks]
        self._theta = theta
        self._near = CLUSTER_RTOL * np.abs(theta).max(initial=0.0)
        self._z = {}

    def __len__(self):
        return len(self.omegas)

    def z(self, i):
        z = self._z.get(i)
        if z is None:
            near = np.abs(self._theta[:i] - self._theta[i]) <= self._near
            against = [self.z(j) for j in np.flatnonzero(near)]
            w = self.omegas[i]
            Mk, Ck, Kk = self._blocks
            nm, nc, nk = self._norms
            scale = abs(w) ** 2 * nm + abs(w) * nc + nk
            z = self._z[i] = null_vector(w * w * Mk + w * Ck + Kk, scale, against)
        return z


def solve_projected_qep(Mk, Ck, Kk, sigma):
    """The finite eigenpairs of the dense projected problem, as one
    :class:`ProjectedSolve` whose vectors are computed only where read.

    The eigenvalues ``theta`` of the shift-inverted companion matrix, from
    one LU of the k x k ``Q_k(sigma)`` (:func:`~qri.qep.shift_invert`),
    come from :func:`~qri.linalg.dense_eig` without vectors; infinite
    ones (singular projected mass block) are skipped.  Values whose
    ``theta`` lie within ``CLUSTER_RTOL * max|theta|`` of each other form
    a cluster and get orthonormal vectors, so a multiple Ritz value still
    gets independent ones.  If ``Q_k(sigma)`` is singular the shift is
    nudged once by a relative ``1e-8`` perturbation (the Ritz values are
    then read off the nudged shift); a second failure propagates as
    :class:`SingularMatrix`.
    """
    # the LU of Q_k(sigma) is not kept: it would outlive its use into the
    # eigensolve, the largest dense step of a run
    try:
        S = shift_invert(Mk, Ck, Kk, sigma)[0]
    except SingularMatrix:
        sigma = sigma * (1.0 + 1e-8) + 1e-8j
        S = shift_invert(Mk, Ck, Kk, sigma)[0]
    theta = dense_eig(S, vectors=False)
    idx, omegas, _ = finite_order(theta, sigma)
    return ProjectedSolve((Mk, Ck, Kk), omegas, theta[idx])


@dataclass
class RitzPair:
    omega: complex
    z: np.ndarray
    xtilde: np.ndarray
    resid: np.ndarray
    relres: float
    converged: bool


def refined_vector(p, V, omega):
    """Unit vector in ``span(V)`` minimizing ``norm(Q(omega) u)``, and its
    coordinates in ``V``.

    The columns of ``V`` are appended one by one to a
    :class:`ProjectionCache` with refined extraction on, the same route
    as the outer loop's, and the coordinates are
    :meth:`ResidualFactor.refined_coordinates`: the smallest right
    singular vector of the small ``E(omega)``, which has the singular
    values of the tall ``omega^2 M V + omega C V + K V``.  Never worse
    than the Ritz vector for the same ``omega`` (the Ritz coordinate
    vector is a candidate in the same minimization).
    """
    Vm = V.matrix if isinstance(V, OrthonormalBasis) else np.asarray(V, dtype=complex)
    cache = ProjectionCache(p, capacity=Vm.shape[1], refined=True)
    for v in Vm.T:
        cache.append(v)
    X, Z = _lift(Vm, cache.factor.refined_coordinates(omega)[:, None])
    return X[0], Z[:, 0]


def _lift(Vm, Z):
    """``(X, Z')``: the rows of ``X`` are the unit vectors ``Vm z`` for the
    columns ``z`` of ``Z``, which ``Z'`` holds scaled alike.  One product
    reads ``Vm`` once for all columns."""
    X = Z.T @ Vm.T
    scale = 1.0 / np.linalg.norm(X, axis=1)
    X *= scale[:, None]
    return X, Z * scale


def _extract_pairs(p, proj, projected, nev, tol_outer):
    """The first ``nev`` pairs of ``projected`` scored on the basis of
    ``proj`` (a :class:`ProjectionCache`): with Ritz vectors, or with
    refined ones from its ``factor`` when it keeps one."""
    omegas = [complex(w) for w in projected.omegas[:nev]]
    if not omegas:
        return []
    if proj.factor is not None:
        zs = [proj.factor.refined_coordinates(w) for w in omegas]
    else:
        zs = [projected.z(i) for i in range(len(omegas))]
    X, Z = _lift(proj.basis.matrix, np.column_stack(zs))
    out = []
    for i, omega in enumerate(omegas):
        resid = q_apply(p, omega, X[i])
        relres = float(np.linalg.norm(resid) / residual_denominator(p, omega))
        out.append(
            RitzPair(
                omega=omega,
                z=Z[:, i],
                xtilde=X[i],
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


def _residual_digits(pairs, nev, tol_outer):
    """Progress of the first ``nev`` pairs: the sum of their residual
    digits ``-log10 relres``, each capped at ``-log10 tol_outer`` and
    clipped at 0; a missing pair counts 0."""
    return sum(max(0.0, -math.log10(max(pr.relres, tol_outer))) for pr in pairs[:nev])


def _restart_coordinates(pairs, projected, q):
    """Orthonormal ``k x q'`` coordinates (``q' <= q``) of a thick restart.

    The candidates are the extracted (Ritz or refined) coordinate vectors
    of ``pairs``, then the Ritz vectors of the next-nearest values of
    ``projected``, each computed only when its turn comes.  They are
    appended in that order to an :class:`OrthonormalBasis` of k-space,
    which drops a rank-deficient candidate as a breakdown.
    """
    candidates = itertools.chain(
        (pr.z for pr in pairs), map(projected.z, range(len(pairs), len(projected)))
    )
    zb = OrthonormalBasis(len(pairs[0].z), capacity=q)
    for z in candidates:
        try:
            zb.append(z)
        except Breakdown:
            pass
        if zb.k == q:
            break
    return zb.matrix


class ExactExpansion:
    """Solve ``Q(sigma) u = r`` for the expansion with the LU of
    ``Q(sigma)``, factored once by :func:`~qri.qep.factor_q`: sparse or
    dense as the problem's pattern says, and a dense one only with ``n``
    under the dense cap.  Like :class:`KrylovExpansion`'s, ``solve``
    returns ``(u, inner steps, inner relres, converged)``: here
    ``(u, 0, 0.0, True)``."""

    inner_solver = None

    def __init__(self, p, config):
        self._lu = factor_q(p, complex(config.sigma), "sigma")

    def solve(self, r):
        return self._lu.solve(r), 0, 0.0, True


class KrylovExpansion:
    """Solve ``Q(sigma) u = r`` for the expansion iteratively, to the
    relative residual ``config.tol_inner`` within ``config.inner_maxit``
    steps, stopping on the recomputed true residual.  When ``M``, ``C``
    and ``K`` are symmetric (:attr:`~qri.qep.QepProblem.symmetric`),
    ``Q(sigma)`` is complex symmetric and the solves run COCR, a short
    recurrence with no Gram-Schmidt.  Otherwise they run GMRES restarted
    every ``config.restart`` steps, and one
    :class:`~qri.gmres.RecycleSpace` carries the near-singular directions
    of ``Q(sigma)`` from each solve to the next.  It is made at the first
    solve, after the outer loop's basis.  That order was chosen when the
    wave100-inexact benchmark still ran GMRES: a space made before the
    basis raised the peak of about one process in ten by 13-15 MB.  That
    workload now runs COCR and makes no space, so the order is kept for
    nonsymmetric runs and has not been measured since."""

    def __init__(self, p, config):
        self._matrix = shifted_matrix(p, complex(config.sigma))
        self._config = config
        self._recycle = None
        self.inner_solver = "cocr" if p.symmetric else "gmres"

    def solve(self, r):
        config = self._config
        if self._recycle is None and self.inner_solver == "gmres":
            self._recycle = RecycleSpace(len(r), config.restart)
        res = gmres(lambda w: self._matrix @ w, r, tol=config.tol_inner,
                    restart=config.restart, maxit=config.inner_maxit,
                    recycle=self._recycle, symmetric=self.inner_solver == "cocr")
        return res.x, res.iters, res.relres, res.converged


@dataclass
class StepView:
    """Snapshot handed to an outer-loop observer just before the basis
    grows.  Arrays are live views; valid only during the callback.  In an
    iteration that restarted, ``basis`` is already compressed while
    ``pairs`` were scored on the basis before the restart."""

    k: int
    basis: OrthonormalBasis
    pairs: list
    selected: int
    u: np.ndarray
    v_next: np.ndarray


@dataclass
class RunResult:
    """The first ``nev`` pairs as the last extraction scored them, one
    :class:`ConvergenceRecord` per iteration, the phase times and the
    expansion's ``inner_solver`` (``None``, ``"cocr"`` or ``"gmres"``)."""

    eigenpairs: list
    converged: list
    relres: list
    history: list
    phase_wall_ms: dict
    stop_reason: str
    inner_solver: str | None

    @property
    def cumulative_inner_iters(self):
        return sum(rec.inner_iters for rec in self.history)

    @property
    def inner_failures(self):
        return sum(rec.inner_failures for rec in self.history)

    @property
    def expansion_breakdowns(self):
        return sum(rec.expansion_breakdowns for rec in self.history)


@contextmanager
def _timed(phase, key):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        phase[key] += time.perf_counter() - t0


def outer_loop(p, config, observer=None):
    """Subspace residual iteration for the ``nev`` eigenvalues nearest
    ``config.sigma``.

    Grows an orthonormal basis one vector per outer iteration: project,
    solve the small problem, extract Ritz (or refined) pairs, and expand
    with ``Q(sigma)^{-1} r`` for the residual ``r`` of the first
    unconverged target pair, solved by the mode's expansion object:
    :class:`ExactExpansion` (``mode="exact"``) or
    :class:`KrylovExpansion` (``mode="inexact"``), whose ``inner_solver``
    the result reports.  Each solve's inner steps, last inner residual
    and convergence go to the iteration's record.
    Converged pairs are left soft-locked: they are re-extracted every
    iteration and only reported at the end.

    Thick restart: when the basis reaches the restart size ``R``
    (``config.resolved_max_subspace``: ``min(n, max(20, 3 nev))`` in
    exact mode, ``min(n, 120)`` in inexact mode, unless ``max_subspace``
    is set) with a target pair unconverged, the :class:`ProjectionCache`
    is compressed by ``V <- V Z`` for the ``R // 2`` orthonormalized
    coordinate vectors of the target pairs and the next-nearest Ritz
    pairs, and the same iteration expands the compressed basis.
    A restart is guarded by progress: the summed residual digits of the
    first ``nev`` pairs (each ``-log10 relres``, capped at
    ``-log10 tol_outer``) must have grown by at least one since the last
    restart.  Otherwise a default ``R`` doubles, up to the basis capacity
    ``min(n, 120)`` (or ``R``, if larger), while an explicit
    ``max_subspace`` is itself the capacity.  A full basis at the
    capacity, a basis that spans the whole space, or ``R // 2 < nev``
    ends the run as exhausted.  Each restart gains a digit, so a run
    makes at most ``nev * log10(1 / tol_outer)`` of them.

    ``observer``, when given, is called with a :class:`StepView` before
    each basis extension; returning a truthy value stops the run
    gracefully (``stop_reason="observer"``).

    Every iteration, the last included, leaves one
    :class:`ConvergenceRecord` in ``history``.  ``phase_wall_ms`` times
    the inner solves with their one-time set-up, the small solve with
    pair extraction, and the projection update (orthogonalization, one
    :class:`ProjectionCache` append and restart compression); the phases
    fall inside the records' ``wall_ms``.

    Raises :class:`ValueError` before the first iteration when exact mode
    must factor ``Q`` densely and ``n`` is above the dense cap,
    :class:`SubspaceExhausted` (partial result attached) when the basis is
    exhausted as above, and :class:`BreakdownError` when no candidate
    residual can extend the basis.
    """
    t_iter = time.perf_counter()
    config.validate(p.n)
    n = p.n
    nev = config.nev
    sigma = complex(config.sigma)
    restart_size = config.resolved_max_subspace(n)
    # an explicit max_subspace caps the basis; a default one may double
    if config.max_subspace is None:
        capacity = max(restart_size, min(n, DEFAULT_MAX_SUBSPACE))
    else:
        capacity = restart_size
    restart_digits = 0.0  # residual digits at the last restart

    phase = {"projection": 0.0, "small_solve": 0.0, "inner_solve": 0.0}
    with _timed(phase, "inner_solve"):
        expansion_class = ExactExpansion if config.mode == "exact" else KrylovExpansion
        expansion = expansion_class(p, config)

    rng = np.random.default_rng(config.seed)
    if config.initial_vector is not None:
        v1 = np.asarray(config.initial_vector, dtype=complex)
    else:
        v1 = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)

    with _timed(phase, "projection"):
        proj = ProjectionCache(p, capacity, refined=config.extraction == "refined")
        basis = proj.basis
        proj.append(basis.orthonormalize(v1))

    history = []
    stop_reason = None
    while stop_reason is None:
        with _timed(phase, "small_solve"):
            projected = solve_projected_qep(*proj.blocks, sigma)
            pairs = _extract_pairs(p, proj, projected, nev, config.tol_outer)
        record = ConvergenceRecord(
            outer_iter=len(history) + 1,
            subspace_dim=basis.k,
            ritz_values=[pr.omega for pr in pairs],
            relres=[pr.relres for pr in pairs],
        )
        history.append(record)

        selected = select_expansion_residual(pairs, nev)
        if selected is None:
            stop_reason = "converged"
        elif basis.k >= restart_size:
            digits = _residual_digits(pairs, nev, config.tol_outer)
            if restart_size // 2 < nev or basis.k == n:
                stop_reason = "exhausted"
            elif digits >= restart_digits + 1.0:
                restart_digits = digits
                with _timed(phase, "projection"):
                    Z = _restart_coordinates(pairs, projected, restart_size // 2)
                    proj.compress(Z)
            elif restart_size < capacity:
                restart_size = min(2 * restart_size, capacity)
            else:
                stop_reason = "exhausted"
        if stop_reason is None:
            # expansion, falling through to later residuals on breakdown
            candidates = [selected] + [i for i in range(len(pairs)) if i != selected]
            for idx in candidates:
                with _timed(phase, "inner_solve"):
                    u, steps, relres, converged = expansion.solve(pairs[idx].resid)
                record.inner_iters += steps
                record.inner_relres = relres
                record.inner_failures += not converged
                try:
                    with _timed(phase, "projection"):
                        v_next = basis.orthonormalize(u)
                except Breakdown:
                    record.expansion_breakdowns += 1
                    continue
                selected = idx
                break
            else:
                raise BreakdownError(
                    f"all {len(candidates)} candidate residuals broke down in "
                    "orthogonalization"
                )

            if observer is not None and observer(
                StepView(k=basis.k, basis=basis, pairs=pairs,
                         selected=selected, u=u, v_next=v_next)
            ):
                stop_reason = "observer"
            else:
                with _timed(phase, "projection"):
                    proj.append(v_next)
                # released here, the pairs' 2 nev n-vectors do not sit
                # through the next small solve
                pairs = u = v_next = None
        now = time.perf_counter()
        record.wall_ms, t_iter = (now - t_iter) * 1e3, now

    # the first nev pairs as the last extraction scored them
    final = pairs[:nev]
    result = RunResult(
        eigenpairs=[Eigentriplet(lam=pr.omega, x=pr.xtilde) for pr in final],
        converged=[pr.converged for pr in final],
        relres=[pr.relres for pr in final],
        history=history,
        phase_wall_ms={k: v * 1e3 for k, v in phase.items()},
        stop_reason=stop_reason,
        inner_solver=expansion.inner_solver,
    )
    if stop_reason == "exhausted":
        raise SubspaceExhausted(
            f"no convergence within a basis of {basis.k} vectors", result=result
        )
    return result
