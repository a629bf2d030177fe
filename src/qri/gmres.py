"""Krylov solvers for the inner solves of the inexact expansion: restarted
GMRES with an optional deflation space recycled across cycles and across
solves with one operator (GCRO-DR), and COCR for complex symmetric
operators.  Both run through :func:`gmres`, which takes ``symmetric=True``
for COCR and returns the same :class:`GmresResult` either way, so that
callers and anything that wraps :func:`gmres` by name (a tracer counting
its calls, steps and cycles) see one inner solver interface.

:func:`gmres` is one restart loop around a cycle of either method, and
the loop alone applies the stopping rule.  It starts from the zero
guess.  Each cycle starts from the true residual of the current iterate,
runs until its own residual estimate meets ``tol``, it breaks down or
the step budget is spent, and returns its iterate with the true residual
recomputed.  The loop keeps the best iterate seen at a cycle's end and
stops when that true residual meets ``tol`` or ``maxit`` steps are
spent, so the reported residual is never an estimate.

The GMRES cycle: Arnoldi with one modified Gram-Schmidt pass, least
squares by Givens rotations.  The rotation recurrence makes the residual
estimate non-increasing within a cycle.

The Krylov vectors are stored as the rows of one C-ordered block that
is reused by every cycle: allocated once per call, or once per
:class:`RecycleSpace`.  Each vector is then contiguous in memory, so
the Gram-Schmidt pass runs as in-place BLAS-1 (``zdotc``/``zaxpy``) on
unit-stride data instead of on strided columns.

Recycling (Parks, de Sturler, Mackey, Johnson and Maiti, "Recycling
Krylov subspaces for sequences of linear systems", SISC 28, 2006) keeps
``k`` vectors ``U`` with ``C = A U`` orthonormal, ``C`` in the first
``k`` rows of the block.  A cycle splits the ``C`` part off its
residual, runs ``restart - k`` Arnoldi steps on ``(I - C C*) A`` and
solves one least-squares problem over ``[U, V]``, whose matrix is
upper Hessenberg with an identity in its first ``k`` columns, so the
Givens recurrence is the plain one started at column ``k``.  Every
cycle that ends short of ``tol`` replaces ``U`` and ``C`` by the ``k``
harmonic Ritz vectors of ``A`` in that space with the smallest harmonic
Ritz values: the directions ``A`` nearly annihilates, which restarted
GMRES would otherwise lose at every cycle and every solve.

The COCR cycle (Sogabe and Zhang, "A COCR method for solving complex
symmetric linear systems", J. Comput. Appl. Math. 199, 2007) is the
conjugate residual method in the unconjugated bilinear form ``u^T v``,
which is symmetric for ``A = A^T`` (not Hermitian).  Its short
recurrence keeps five n-vectors (``x``, ``r``, ``p``, ``A r``, ``A p``)
and needs no Gram-Schmidt: one product with ``A`` and a handful of
BLAS-1 operations per step.  From ``p = r`` it runs

    alpha = (r^T A r) / ((A p)^T A p),  x += alpha p,  r -= alpha A p,
    beta = (r_new^T A r_new) / (r^T A r),  p = r + beta p,
    A p = A r + beta A p

until the updated residual meets ``tol``, a step breaks down (``r^T A r``
or ``(A p)^T A p`` at round-off level, see ``COCR_BREAKDOWN_RTOL``) or
the budget runs out.  The residual norm is not monotone, which the
loop's best iterate absorbs.  A breakdown at a cycle's first step would
recur at every restart, so that cycle instead takes one minimal-residual
step over ``span(r, A r)``: the two-step GMRES iterate, which solves,
for instance, ``[[0, 1], [1, 0]] x = [1, 0]``, where ``r^T A r = 0``.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dznrm2, zaxpy, zdotc, zdotu, zgemm, zscal

from .linalg import checked_norm
from .qep import check_count, check_interval

HAPPY_BREAKDOWN_RTOL = 1e-14
# recycled harmonic Ritz vectors, at most restart // 2 so that half of
# each cycle's Krylov vectors stay new Arnoldi directions
RECYCLE_DIM = 10
# the recycle update runs in place over column blocks this wide, so it
# needs no k x n temporaries
UPDATE_COLUMNS = 1024
# a COCR step breaks down when r^T A r or (A p)^T (A p) is at most this
# fraction of its Cauchy-Schwarz bound, i.e. at round-off level
COCR_BREAKDOWN_RTOL = 1e-14


@dataclass
class GmresResult:
    x: np.ndarray
    relres: float
    iters: int
    converged: bool
    resnorms: list
    cycles: list


class RecycleSpace:
    """Deflation space carried across :func:`gmres` calls with one
    operator and one ``restart``.

    Holds the ``(restart + 1) x n`` Krylov block those calls share, whose
    first ``k`` rows are ``C``, and ``U``, whose first ``k`` rows satisfy
    ``A u_i = c_i``.  ``k`` is 0 until a cycle ends short of its
    tolerance, and at most ``min(RECYCLE_DIM, restart // 2)``.
    """

    def __init__(self, n, restart):
        self.block = np.empty((restart + 1, n), dtype=complex)
        self.U = np.empty((min(RECYCLE_DIM, restart // 2), n), dtype=complex)
        self.k = 0


def _givens(h1, h2):
    # zero the second entry of [h1; h2] with [[c, s], [-conj(s), c]],
    # c real; h2 comes in real nonnegative (it is a norm)
    if h2 == 0.0:
        return 1.0, 0.0 + 0.0j
    if h1 == 0.0:
        return 0.0, 1.0 + 0.0j
    t = np.hypot(abs(h1), h2)
    c = abs(h1) / t
    s = h1 * h2 / (t * abs(h1))
    return c, s


def gmres(apply_op, b, tol=1e-8, restart=30, maxit=500, recycle=None,
          symmetric=False):
    """Solve ``A x = b`` where ``apply_op(v)`` returns ``A v``: restarted
    GMRES, or COCR when ``symmetric`` is set.

    Parameters
    ----------
    apply_op : callable
    b : (n,) complex array_like
        Nonzero (:class:`ZeroVector` otherwise) and of finite norm
        (``ValueError`` otherwise).
    tol : float
        Target relative residual ``norm(b - A x) / norm(b)``, in (0, 1).
    restart : int
        Krylov vectors per GMRES cycle, recycled ones included, at least
        1; unused by COCR but checked all the same.
    maxit : int
        At least 1: cap on the total number of steps (products with ``A`` past the
        residual checks) across all cycles.  On hitting it the best
        iterate seen so far is returned with ``converged=False``; no
        exception is raised.
    recycle : RecycleSpace, optional
        Deflation space shared by a sequence of GMRES solves with this
        ``apply_op`` and ``restart``; used and updated in place.  With
        ``None`` (the default) the solve is plain restarted GMRES.
        Refused with ``symmetric``.
    symmetric : bool
        ``A`` is complex symmetric (``A = A^T``): solve with COCR.  The
        caller vouches for the symmetry; it is not checked.

    Returns
    -------
    GmresResult
        ``relres`` is the recomputed true relative residual of ``x``;
        ``iters`` counts steps; ``resnorms`` holds the per-step
        estimates and ``cycles`` the number of steps in each cycle.
    """
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    nb = checked_norm(b, "the gmres right-hand side")
    check_interval("tol", tol)
    check_count("restart", restart, 1)
    check_count("maxit", maxit, 1)
    if symmetric and recycle is not None:
        raise ValueError("COCR (symmetric=True) takes no recycle space")
    if recycle is None:
        # Krylov vectors are rows, so each one is contiguous for BLAS-1;
        # row j is always written before it is read
        block = None if symmetric else np.empty(
            (min(restart, maxit) + 1, n), dtype=complex
        )
    elif recycle.block.shape != (restart + 1, n):
        raise ValueError(
            f"recycle space holds a {recycle.block.shape} block, "
            f"expected {(restart + 1, n)}"
        )
    else:
        block = recycle.block
    resnorms = []

    # a cycle takes the iterate x, its true residual r (which it may
    # overwrite), norm(r) and the steps left; it appends its estimates to
    # resnorms and returns the new iterate, its true residual, that
    # residual's norm and the steps it took
    def gmres_cycle(x, r, beta, budget):
        k = recycle.k if recycle is not None else 0
        m = min(restart - k, budget)
        V = block[: k + m + 1]
        # G keeps the least-squares matrix as built, for the recycle
        # update; H is rotated to triangular in place
        G = np.zeros((k + m + 1, k + m), dtype=complex)
        G[:k, :k] = np.eye(k)
        H = G.copy()
        cs = np.zeros(k + m)
        sn = np.zeros(k + m, dtype=complex)
        g = np.zeros(k + m + 1, dtype=complex)
        # split the C part off the residual: it is solved by U alone
        for i in range(k):
            g[i] = zdotc(V[i], r)
            r = zaxpy(V[i], r, a=-g[i])
        gamma = np.linalg.norm(r) if k else beta
        # a residual inside span(C) leaves no Krylov start vector
        happy = k > 0 and gamma <= HAPPY_BREAKDOWN_RTOL * beta
        j = k - 1
        if not happy:
            g[k] = gamma
            np.multiply(r, 1.0 / gamma, out=V[k])
            for j in range(k, k + m):
                # always copy: apply_op may hand back a view of its input
                # (identity-like operators), a strided or read-only array,
                # and w is updated in place below
                w = np.array(apply_op(V[j]), dtype=complex)
                wnorm = dznrm2(w)
                # zaxpy updates w in place; taking its return value keeps
                # the pass correct should it ever have to copy
                for i in range(j + 1):
                    h = zdotc(V[i], w)
                    H[i, j] = h
                    w = zaxpy(V[i], w, a=-h)
                hnext = dznrm2(w)
                happy = hnext <= HAPPY_BREAKDOWN_RTOL * max(wnorm, 1e-300)
                H[j + 1, j] = hnext
                G[: j + 2, j] = H[: j + 2, j]
                if not happy:
                    np.multiply(w, 1.0 / hnext, out=V[j + 1])

                # columns before k have no subdiagonal: their rotations
                # are the identity
                for i in range(k, j):
                    hi, hi1 = H[i, j], H[i + 1, j]
                    H[i, j] = cs[i] * hi + sn[i] * hi1
                    H[i + 1, j] = -np.conj(sn[i]) * hi + cs[i] * hi1
                cs[j], sn[j] = _givens(H[j, j], H[j + 1, j].real)
                H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
                H[j + 1, j] = 0.0
                g[j + 1] = -np.conj(sn[j]) * g[j]
                g[j] = cs[j] * g[j]

                resnorms.append(float(abs(g[j + 1]) / nb))
                if resnorms[-1] <= tol or happy:
                    break

        q = j + 1
        y = sla.solve_triangular(H[:q, :q], g[:q], check_finite=False)
        x = x + y[k:] @ V[k:q]
        if k:
            x += y[:k] @ recycle.U[:k]
        r = b - apply_op(x)
        beta = np.linalg.norm(r)
        if recycle is not None and beta > tol * nb:
            if happy:
                # the space failed to resolve the residual it spans, so
                # A U = C no longer holds to working accuracy
                recycle.k = 0
            else:
                _refresh(recycle, G[: q + 1, :q])
        return x, r, beta, q - k

    def cocr_cycle(x, r, rnorm, budget):
        for steps in range(1, budget + 1):
            # Ar is only read, never updated in place, so it may be a view
            # of r or a read-only array
            Ar = np.asarray(apply_op(r), dtype=complex)
            rho_next = zdotu(r, Ar)
            if steps == 1:
                p, Ap = r.copy(), Ar.copy()
            else:
                beta = rho_next / rho
                p = zaxpy(r, zscal(beta, p))
                Ap = zaxpy(Ar, zscal(beta, Ap))
            rho = rho_next
            mu = zdotu(Ap, Ap)
            # norms as sqrt(zdotc): half the time of dznrm2 here
            if (abs(rho) <= COCR_BREAKDOWN_RTOL * rnorm * math.sqrt(zdotc(Ar, Ar).real)
                    or abs(mu) <= COCR_BREAKDOWN_RTOL * zdotc(Ap, Ap).real):
                if steps == 1 and budget > 1:
                    # a breakdown at the first step would recur at every
                    # restart: one more product minimizes over span(r, A r)
                    AAr = np.asarray(apply_op(Ar), dtype=complex)
                    AK = np.stack([Ar, AAr], axis=1)
                    coef, *_ = np.linalg.lstsq(AK, r, rcond=None)
                    x = x + coef[0] * r + coef[1] * Ar
                    resnorms.append(
                        float(np.linalg.norm(r - coef[0] * Ar - coef[1] * AAr) / nb)
                    )
                    steps = 2
                break
            alpha = rho / mu
            x = zaxpy(p, x, a=alpha)
            r = zaxpy(Ap, r, a=-alpha)
            rnorm = math.sqrt(zdotc(r, r).real)
            resnorms.append(float(rnorm / nb))
            if rnorm <= tol * nb:
                break
        r = b - apply_op(x)
        return x, r, np.linalg.norm(r), steps

    # the stopping rule of both methods: every cycle starts from the
    # true residual of the current iterate, and the best iterate seen at
    # a cycle's end is returned
    cycle = cocr_cycle if symmetric else gmres_cycle
    x = np.zeros(n, dtype=complex)
    r = b.copy()
    beta = nb
    best_x, best_relres = x.copy(), 1.0
    total = 0
    cycles = []
    while True:
        relres = beta / nb
        if relres < best_relres:
            best_x, best_relres = x.copy(), relres
        if relres <= tol or total >= maxit:
            return GmresResult(
                x=best_x, relres=float(best_relres), iters=total,
                converged=best_relres <= tol, resnorms=resnorms, cycles=cycles,
            )
        x, r, beta, steps = cycle(x, r, beta, maxit - total)
        total += steps
        cycles.append(steps)


def _refresh(space, G):
    """Replace ``U`` and ``C`` by harmonic Ritz vectors of the cycle just
    run.

    ``G`` is the ``(q + 1) x q`` least-squares matrix of the cycle, with
    ``A Vhat = W G`` for ``Vhat = [U, V_k..V_{q-1}]`` and
    ``W = [C, V_k..V_q]`` in column terms.  The harmonic Ritz pairs of
    ``A`` in ``span(Vhat)`` solve ``G* G z = theta G* W* Vhat z``.  With
    ``G = Qg Rg`` this is the standard problem
    ``(Qg* W* Vhat Rg^{-1}) y = y / theta`` for ``y = Rg z``; the ``k``
    eigenvectors with the smallest ``|theta|``, orthonormalized to
    ``Y``, give ``C <- W Qg Y`` and ``U <- Vhat Rg^{-1} Y``, so
    ``A U = C`` still holds.  The space is kept as it was when ``Rg`` is
    numerically singular.
    """
    block, U, k = space.block, space.U, space.k
    q = G.shape[1]
    Qg, Rg = np.linalg.qr(G)
    d = np.abs(np.diag(Rg))
    if d.min() <= 1e-12 * d.max():
        return
    W = block[: q + 1]
    # W* Vhat: W* U for the recycled columns, [I; 0] for the Krylov ones;
    # zgemm forms W* U without a conjugated copy of W
    WV = np.zeros((q + 1, q), dtype=complex)
    if k:
        WV[:, :k] = zgemm(1.0, W.T, U[:k].T, trans_a=2)
    WV[range(k, q), range(k, q)] = 1.0
    # (Qg* WV Rg^{-1})^T, solved against Rg^T
    Mt = sla.solve_triangular(Rg, (Qg.conj().T @ WV).T, trans="T", check_finite=False)
    mu, Ym = sla.eig(Mt.T, check_finite=False)
    Y, _ = np.linalg.qr(Ym[:, np.argsort(-np.abs(mu), kind="stable")[: U.shape[0]]])
    # rows of the new C and U: (Qg Y)^T W and (Rg^{-1} Y)^T Vhat
    Ct = (Qg @ Y).T
    Ut = sla.solve_triangular(Rg, Y, check_finite=False).T
    knew = Y.shape[1]
    for s in range(0, block.shape[1], UPDATE_COLUMNS):
        cols = slice(s, s + UPDATE_COLUMNS)
        c_new = Ct @ W[:, cols]
        u_new = Ut[:, k:] @ block[k:q, cols]
        if k:
            u_new += Ut[:, :k] @ U[:k, cols]
        block[:knew, cols] = c_new
        U[:knew, cols] = u_new
    space.k = knew
