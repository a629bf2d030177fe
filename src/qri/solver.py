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

The projected small problem's eigenvalues come from its shift-inverted
companion matrix, built from one LU of the k x k ``Q_k(sigma)``, so
infinite Ritz values (singular projected mass block) are skipped rather
than polluting the targets.  Above ``WARM_MIN_K`` columns, most steps
skip that order-2k eigensolve: they refine the previous step's first
values on the grown ``Q_k`` by Newton (:func:`warm_projected_qep`), and
the full eigensolve still runs on a fixed schedule, at every restart and
before convergence is declared (:func:`_small_solve`).
A coordinate vector is the null vector of ``Q_k(omega)``, found by
inverse iteration only where the loop reads it (:class:`ProjectedSolve`).
Refined extraction instead minimizes ``norm(Q(omega) V z)`` through the small triangular
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

from .errors import Breakdown, SingularMatrix, Stagnation
from .gmres import RecycleSpace, gmres
from .linalg import (
    BREAKDOWN_RTOL,
    OrthonormalBasis,
    _zgetrf,
    _zgetrs,
    as_columns,
    dense_eig,
    gram_schmidt,
    norm1,
    null_vector,
    smallest_singular_vector,
    spmv,
    uniform_complex,
)
from .qep import (
    check_count,
    check_interval,
    check_shift,
    check_vector,
    factor_q,
    finite_order,
    q_apply,
    q_prime_apply,
    relative_residual,
    residual_denominator,
    shift_invert,
    shifted_matrix,
)

# the default restart size of inexact mode and the default capacity
DEFAULT_MAX_SUBSPACE = 120
# the smallest default restart size of exact mode
EXACT_RESTART_SIZE = 20
# projected eigenvalues whose theta = 1/(omega - sigma) differ by at most
# this fraction of the largest |theta| form a cluster, whose coordinate
# vectors are orthonormal (see solve_projected_qep)
CLUSTER_RTOL = 1e-10
# warm small solves (see _small_solve): every step up to WARM_MIN_K basis
# columns runs the full companion eigensolve; above it at most WARM_STEPS
# warm steps run between two full eigensolves.  They refine WARM_GUARD
# values beyond the nev targets too, so that a value just past the nev-th
# that moves inside is seen (with one, wave2d(100) missed such a value)
WARM_MIN_K = 40
WARM_STEPS = 7
WARM_GUARD = 2
# a warm target takes at most WARM_MAXIT Newton steps to a step of at
# most WARM_RTOL of its value, and two targets within WARM_COLLAPSE_RTOL
# of their distance to the shift have converged to one value
WARM_MAXIT = 8
WARM_RTOL = 1e-12
WARM_COLLAPSE_RTOL = 1e-8


@dataclass
class SolverConfig:
    """Everything that determines a solver run (given the problem), and
    the one owner of its defaults.

    :meth:`basis_sizes` sizes :func:`outer_loop`'s basis on a problem of
    size ``n``: an explicit ``max_subspace`` is both the restart size and
    the capacity of the basis.  Otherwise the restart size is
    ``min(n, max(20, 3 * nev))`` in exact mode and
    ``min(n, max(120, 3 * nev))`` in inexact mode, so that a restart keeps
    at least ``nev`` vectors, and it may double up to the capacity
    ``min(n, max(120, 3 * nev))``.
    ``initial_vector`` overrides the seeded random start
    (:meth:`start_vector`).
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

    def validate(self, n):
        """Raise :class:`ValueError`, naming the field, unless the config
        fits a problem of size ``n``."""
        check_shift(self.sigma, "sigma")
        if self.mode not in ("exact", "inexact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.extraction not in ("ritz", "refined"):
            raise ValueError(f"unknown extraction {self.extraction!r}")
        check_interval("tol_outer", self.tol_outer)
        check_interval("tol_inner", self.tol_inner)
        check_count("nev", self.nev, 1, n)
        check_count("restart", self.restart, 1)
        check_count("inner_maxit", self.inner_maxit, 1)
        check_count("seed", self.seed, 0)
        # the capacity, which an explicit max_subspace equals
        check_count("max_subspace", self.basis_sizes(n)[1], 1, n)
        if self.initial_vector is not None:
            check_vector("initial_vector", self.initial_vector, n)

    def start_vector(self, n):
        """``initial_vector`` if set, else the seeded random start of
        length ``n``: real and imaginary parts uniform on (-1, 1), drawn
        from ``default_rng(seed)``."""
        if self.initial_vector is not None:
            return np.asarray(self.initial_vector, dtype=complex)
        return uniform_complex(np.random.default_rng(self.seed), n)

    def basis_sizes(self, n):
        """``(restart_size, capacity)`` of the basis on a problem of size
        ``n``, by the rule above."""
        if self.max_subspace is not None:
            return self.max_subspace, self.max_subspace
        smallest = EXACT_RESTART_SIZE if self.mode == "exact" else DEFAULT_MAX_SUBSPACE
        return (min(n, max(smallest, 3 * self.nev)),
                min(n, max(DEFAULT_MAX_SUBSPACE, 3 * self.nev)))


@dataclass
class ConvergenceRecord:
    """One iteration of either solver: the Ritz data it scored, the cost
    of its expansion (inner steps, last inner residual, inner solves short
    of ``tol_inner``, candidate residuals that broke down), whether its
    Ritz values came from a warm refinement (:func:`warm_projected_qep`)
    rather than the full companion eigensolve, and its wall time, which
    runs to the next iteration's start (the first also holds the set-up),
    so the records' ``wall_ms`` sum to the run's."""

    outer_iter: int
    subspace_dim: int
    ritz_values: list
    relres: list
    inner_iters: int = 0
    inner_relres: float = 0.0
    inner_failures: int = 0
    expansion_breakdowns: int = 0
    warm_start: bool = False
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
    when ``maxit`` ran out.  Raises :class:`ValueError` for a ``maxit``
    that is not an integer of at least 0, a ``tol`` outside (0, 1), a
    non-finite ``lam0``, an ``x0`` not finite, zero or not of length ``n``
    and, from the first step, for ``n`` above the dense cap when ``Q`` is
    factored densely; :class:`Stagnation` when the update scalar vanishes
    and :class:`SingularMatrix` when ``lam_k`` lands on an eigenvalue
    without the residual being converged already.
    """
    t_step = time.perf_counter()
    check_count("maxit", maxit, 0)
    check_interval("tol", tol)
    lam = check_shift(lam0, "lam0")
    x0 = check_vector("x0", x0, p.n)
    e_idx = int(np.argmax(np.abs(x0)))
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
            S[3 + i] = spmv(mat_t, vc)
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
    its cluster, which are computed first if not read yet; ``zs``, when
    given, are the first vectors, already known.
    """

    def __init__(self, blocks, omegas, theta, zs=()):
        self.omegas = omegas
        self._blocks = [np.array(b, order="F") for b in blocks]
        self._norms = [norm1(b) for b in blocks]
        self._theta = theta
        self._near = CLUSTER_RTOL * np.abs(theta).max(initial=0.0)
        self._z = dict(enumerate(zs))

    def __len__(self):
        return len(self.omegas)

    def q(self, w):
        """``Q_k(w)``, a fresh column-major array, and the bound
        ``|w|^2 |Mk|_1 + |w| |Ck|_1 + |Kk|_1`` on its norm."""
        Mk, Ck, Kk = self._blocks
        nm, nc, nk = self._norms
        return w * w * Mk + w * Ck + Kk, abs(w) ** 2 * nm + abs(w) * nc + nk

    def q_prime(self, w, z):
        """``Q_k'(w) z = (2 w Mk + Ck) z``."""
        Mk, Ck, _ = self._blocks
        return (2.0 * w) * (Mk @ z) + Ck @ z

    def z(self, i):
        z = self._z.get(i)
        if z is None:
            near = np.abs(self._theta[:i] - self._theta[i]) <= self._near
            against = [self.z(j) for j in np.flatnonzero(near)]
            z = self._z[i] = null_vector(*self.q(self.omegas[i]), against)[0]
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


def warm_projected_qep(Mk, Ck, Kk, sigma, omegas):
    """The eigenvalues of the projected problem nearest the approximations
    ``omegas`` (the previous step's first values), refined without an
    eigensolve, as a :class:`ProjectedSolve` in
    :func:`~qri.qep.finite_order` that already holds their vectors;
    ``None`` when a refinement fails.

    Each target starts from ``z``, the :func:`~qri.linalg.null_vector` of
    ``Q_k(omega)``, normalized at its largest entry ``e``.  A Newton step
    (Ruhe's nonlinear inverse iteration, as in :func:`newton_solve`) is
    one LU of the k x k ``Q_k(omega)``, the first that of the start:

        y = Q_k(omega)^{-1} Q_k'(omega) z,   omega <- omega - 1 / y[e],
        z <- y / y[e]

    until a step is at most ``WARM_RTOL`` of ``|omega|``; the last ``z``
    is the coordinate vector.  A refinement fails when a target takes
    more than ``WARM_MAXIT`` steps, meets an exactly singular
    ``Q_k(omega)``, or lands within ``WARM_COLLAPSE_RTOL |omega - sigma|``
    of another target.  (The one-sided functional ``z* Q_k(omega) z = 0``
    stagnates instead on wave2d's projected blocks: ``V* C V`` is
    skew-Hermitian there, so the right null vector ``z`` is no left one.)
    """
    start = ProjectedSolve((Mk, Ck, Kk), omegas, 1.0 / (omegas - sigma))
    refined = np.empty(len(omegas), dtype=complex)
    zs = []
    for i, w in enumerate(omegas):
        z, lu, piv = null_vector(*start.q(w))
        e = int(np.argmax(np.abs(z)))
        z = z / z[e]
        for _ in range(WARM_MAXIT):
            y = _zgetrs(lu, piv, start.q_prime(w, z))[0]
            if y[e] == 0.0:
                return None
            step = 1.0 / y[e]
            w, z = w - step, y * step
            if abs(step) <= WARM_RTOL * abs(w):
                break
            lu, piv, info = _zgetrf(start.q(w)[0], overwrite_a=True)
            if info != 0:
                return None
        else:
            return None
        refined[i] = w
        zs.append(z / np.linalg.norm(z))
    gaps = np.abs(refined[:, None] - refined)
    np.fill_diagonal(gaps, np.inf)
    if (gaps <= WARM_COLLAPSE_RTOL * np.abs(refined - sigma)[:, None]).any():
        return None
    theta = 1.0 / (refined - sigma)
    idx, omegas, _ = finite_order(theta, sigma)
    return ProjectedSolve((Mk, Ck, Kk), omegas, theta[idx], [zs[i] for i in idx])


@dataclass
class RitzPair:
    """One extracted pair: the value ``lam``, its coordinates ``z`` in the
    basis, the unit vector ``x``, its residual ``resid = Q(lam) x``, the
    relative residual ``relres`` and whether it passes ``tol_outer``."""

    lam: complex
    z: np.ndarray
    x: np.ndarray
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
    Vm = as_columns(V)
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
                lam=omega,
                z=Z[:, i],
                x=X[i],
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
    once the first ``nev`` pairs all pass, and for an empty ``pairs``
    (the projected problem had no finite pair).  If fewer than ``nev``
    pairs exist but all of them pass, the first one is returned anyway:
    the subspace still has to grow before convergence can be declared.
    """
    for i, pair in enumerate(pairs[:nev]):
        if not pair.converged:
            return i
    return 0 if 0 < len(pairs) < nev else None


def _small_solve(p, proj, config, last, warm_steps, restart_size):
    """The step's projected solve, its first ``nev`` pairs and the index
    of the pair whose residual expands the basis (``None`` once they all
    pass, see :func:`select_expansion_residual`), with the count of warm
    steps since the last full eigensolve: ``(projected, pairs, selected,
    warm_steps)``.

    A step is warm when the basis has more than ``WARM_MIN_K`` and fewer
    than ``restart_size`` columns, fewer than ``WARM_STEPS`` warm steps
    (``warm_steps``) ran since the last full eigensolve and that solve,
    ``last``, had at least ``nev`` values; the schedule depends only on
    counts.  Then :func:`warm_projected_qep` refines the first ``nev +
    WARM_GUARD`` values of ``last`` on the grown blocks.  A failed
    refinement, or warm pairs that would all pass ``tol_outer``, run the
    full companion eigensolve (:func:`solve_projected_qep`) instead, so
    that convergence is declared on a full one.  The returned count is
    ``warm_steps + 1`` after a kept warm step and 0 after a full one.
    """
    sigma, nev = complex(config.sigma), config.nev
    if (warm_steps < WARM_STEPS and WARM_MIN_K < proj.basis.k < restart_size
            and last is not None and len(last) >= nev):
        projected = warm_projected_qep(*proj.blocks, sigma, last.omegas[: nev + WARM_GUARD])
        if projected is not None:
            pairs = _extract_pairs(p, proj, projected, nev, config.tol_outer)
            selected = select_expansion_residual(pairs, nev)
            if selected is not None:
                return projected, pairs, selected, warm_steps + 1
    projected = solve_projected_qep(*proj.blocks, sigma)
    pairs = _extract_pairs(p, proj, projected, nev, config.tol_outer)
    return projected, pairs, select_expansion_residual(pairs, nev), 0


def _restart_rule(relres, digits, nev, tol_outer, k, n, restart_size, capacity):
    """What a basis of ``k >= restart_size`` columns does next, from the
    residuals ``relres`` of the extracted pairs and ``digits``, their
    progress at the last restart: ``(action, digits to keep)``.

    Progress is the sum of the first ``nev`` residual digits
    ``-log10 relres``, each capped at ``-log10 tol_outer`` and clipped at
    0; a missing pair counts 0.  The action is ``"exhausted"`` when
    ``restart_size // 2 < nev`` or the basis spans all ``n`` dimensions;
    ``"restart"``, keeping the new progress, when it grew by at least one
    digit; ``"double"`` while ``restart_size`` is below ``capacity``; and
    ``"exhausted"`` at the capacity.  Each restart gains a digit, so a run
    makes at most ``nev * log10(1 / tol_outer)`` of them.
    """
    now = sum(max(0.0, -math.log10(max(r, tol_outer))) for r in relres[:nev])
    if restart_size // 2 < nev or k == n:
        return "exhausted", digits
    if now >= digits + 1.0:
        return "restart", now
    return ("double" if restart_size < capacity else "exhausted"), digits


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
    """The first ``nev`` :class:`RitzPair` s as the last extraction scored
    them, one :class:`ConvergenceRecord` per iteration, the phase times,
    how the run ended (``stop_reason``: ``"converged"``, ``"observer"``,
    ``"exhausted"`` or ``"breakdown"``) and the expansion's
    ``inner_solver`` (``None``, ``"cocr"`` or ``"gmres"``).
    ``converged`` and ``relres`` list the pairs' flags and residuals."""

    eigenpairs: list
    history: list
    phase_wall_ms: dict
    stop_reason: str
    inner_solver: str | None

    @property
    def converged(self):
        return [pair.converged for pair in self.eigenpairs]

    @property
    def relres(self):
        return [pair.relres for pair in self.eigenpairs]

    @property
    def cumulative_inner_iters(self):
        return sum(rec.inner_iters for rec in self.history)

    @property
    def inner_failures(self):
        return sum(rec.inner_failures for rec in self.history)

    @property
    def expansion_breakdowns(self):
        return sum(rec.expansion_breakdowns for rec in self.history)

    @property
    def full_eigensolves(self):
        return sum(not rec.warm_start for rec in self.history)


@contextmanager
def _timed(phase, key):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        phase[key] += time.perf_counter() - t0


def _expand(expansion, basis, pairs, selected, record, phase):
    """The expansion of one step, as the :class:`StepView` an observer
    reads: ``u`` solves ``Q(sigma) u = r`` by ``expansion`` for the
    residual ``r`` of ``pairs[selected]``, and ``v_next`` is ``u``
    orthonormalized against ``basis``.  The ``selected`` pair's residual
    goes first; when its ``u`` breaks down in orthogonalization, the
    other pairs' residuals follow in order.  Each solve adds its inner
    steps, last inner residual and convergence to ``record``, each
    breakdown to its ``expansion_breakdowns``, and its times to
    ``phase``.  Returns ``None`` when every candidate breaks down.
    """
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
        return StepView(k=basis.k, basis=basis, pairs=pairs, selected=idx, u=u,
                        v_next=v_next)
    return None


def outer_loop(p, config, observer=None):
    """Subspace residual iteration for the ``nev`` eigenvalues nearest
    ``config.sigma``.

    Grows an orthonormal basis from :meth:`SolverConfig.start_vector`,
    one vector per outer iteration, as a sequence of one-decision steps:

    - :func:`_small_solve` solves the projected problem, warm or full on
      its schedule, extracts the first ``nev`` Ritz (or refined) pairs
      and picks the first unconverged target, or declares convergence;
      a projected problem with no finite pair ends the run as a
      breakdown.
      The record's ``warm_start`` and the result's ``full_eigensolves``
      tell the two kinds of step apart.
    - At the restart size ``R`` (see :meth:`SolverConfig.basis_sizes`),
      :func:`_restart_rule` decides: a thick restart compresses the
      :class:`ProjectionCache` by ``V <- V Z`` for the ``R // 2``
      coordinate vectors of :func:`_restart_coordinates`, and the same
      iteration expands the compressed basis; ``R`` doubles, up to the
      capacity; or the run ends as exhausted.
    - :func:`_expand` solves ``Q(sigma) u = r`` with the mode's expansion
      object, :class:`ExactExpansion` (``mode="exact"``) or
      :class:`KrylovExpansion` (``mode="inexact"``, whose
      ``inner_solver`` the result reports), and orthonormalizes ``u``;
      when every candidate residual breaks down in orthogonalization,
      the run ends as a breakdown.

    Converged pairs are left soft-locked: they are re-extracted every
    iteration and only reported at the end.

    ``observer``, when given, is called with a :class:`StepView` before
    each basis extension; returning a truthy value stops the run
    gracefully.  The run returns its :class:`RunResult` however it ends,
    with ``stop_reason`` ``"converged"``, ``"observer"``, ``"exhausted"``
    or ``"breakdown"``.

    Every iteration, the last included, leaves one
    :class:`ConvergenceRecord` in ``history``.  ``phase_wall_ms`` times
    the inner solves with their one-time set-up, the small solve with
    pair extraction, and the projection update (orthogonalization, one
    :class:`ProjectionCache` append and restart compression); the phases
    fall inside the records' ``wall_ms``.

    Raises :class:`ValueError` before the first iteration for a config
    that :meth:`SolverConfig.validate` rejects, or when exact mode must
    factor ``Q`` densely and ``n`` is above the dense cap.
    """
    t_iter = time.perf_counter()
    config.validate(p.n)
    nev = config.nev
    restart_size, capacity = config.basis_sizes(p.n)
    restart_digits = 0.0  # residual digits at the last restart

    phase = {"projection": 0.0, "small_solve": 0.0, "inner_solve": 0.0}
    with _timed(phase, "inner_solve"):
        expansion_class = ExactExpansion if config.mode == "exact" else KrylovExpansion
        expansion = expansion_class(p, config)

    with _timed(phase, "projection"):
        proj = ProjectionCache(p, capacity, refined=config.extraction == "refined")
        basis = proj.basis
        proj.append(basis.orthonormalize(config.start_vector(p.n)))

    history = []
    stop_reason = None
    projected, warm_steps = None, 0
    while stop_reason is None:
        with _timed(phase, "small_solve"):
            projected, pairs, selected, warm_steps = _small_solve(
                p, proj, config, projected, warm_steps, restart_size)
        record = ConvergenceRecord(
            outer_iter=len(history) + 1,
            subspace_dim=basis.k,
            ritz_values=[pr.lam for pr in pairs],
            relres=[pr.relres for pr in pairs],
            warm_start=warm_steps > 0,
        )
        history.append(record)

        if selected is None:
            stop_reason = "converged" if pairs else "breakdown"
        elif basis.k >= restart_size:
            action, restart_digits = _restart_rule(
                record.relres, restart_digits, nev, config.tol_outer,
                basis.k, p.n, restart_size, capacity)
            if action == "restart":
                with _timed(phase, "projection"):
                    proj.compress(_restart_coordinates(pairs, projected, restart_size // 2))
            elif action == "double":
                restart_size = min(2 * restart_size, capacity)
            else:
                stop_reason = action
        if stop_reason is None:
            step = _expand(expansion, basis, pairs, selected, record, phase)
            if step is None:
                stop_reason = "breakdown"
            elif observer is not None and observer(step):
                stop_reason = "observer"
            else:
                with _timed(phase, "projection"):
                    proj.append(step.v_next)
                # released here, the pairs' 2 nev n-vectors do not sit
                # through the next small solve
                pairs = step = None
        now = time.perf_counter()
        record.wall_ms, t_iter = (now - t_iter) * 1e3, now

    return RunResult(
        eigenpairs=pairs[:nev],
        history=history,
        phase_wall_ms={k: v * 1e3 for k, v in phase.items()},
        stop_reason=stop_reason,
        inner_solver=expansion.inner_solver,
    )
