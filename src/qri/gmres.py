"""Restarted GMRES for the inner solves of the inexact expansion.

Arnoldi with one modified Gram-Schmidt pass, least squares by Givens
rotations, always started from the zero guess.  The rotation recurrence
makes the residual estimate non-increasing within a cycle; the true
residual is recomputed at every cycle end, so the reported value is
never an estimate.

The Krylov vectors are stored as the rows of one C-ordered block that
is allocated once per call and reused by every cycle.  Each vector is
then contiguous in memory, so the Gram-Schmidt pass runs as in-place
BLAS-1 (``zdotc``/``zaxpy``) on unit-stride data instead of on strided
columns.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dznrm2, zaxpy, zdotc

from .errors import ZeroVector

HAPPY_BREAKDOWN_RTOL = 1e-14


@dataclass
class GmresResult:
    x: np.ndarray
    relres: float
    iters: int
    converged: bool
    resnorms: list
    cycles: list


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


def gmres(apply_op, b, tol=1e-8, restart=30, maxit=500):
    """Solve ``A x = b`` where ``apply_op(v)`` returns ``A v``.

    Parameters
    ----------
    apply_op : callable
    b : (n,) complex array_like
    tol : float
        Target relative residual ``norm(b - A x) / norm(b)``.
    restart : int
        Cycle length (Krylov dimension per restart).
    maxit : int
        Cap on the total number of Arnoldi steps across all cycles.  On
        hitting it the best iterate seen so far is returned with
        ``converged=False``; no exception is raised.

    Returns
    -------
    GmresResult
        ``relres`` is the recomputed true relative residual of ``x``;
        ``iters`` counts Arnoldi steps; ``resnorms`` holds the per-step
        estimates and ``cycles`` the number of steps in each cycle.
    """
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    nb = np.linalg.norm(b)
    if nb == 0.0:
        raise ZeroVector("gmres needs a nonzero right-hand side")
    if restart < 1 or maxit < 1:
        raise ValueError("restart and maxit must be positive")

    x = np.zeros(n, dtype=complex)
    r = b.copy()
    best_x = x.copy()
    best_relres = 1.0
    total = 0
    resnorms = []
    cycles = []
    # Krylov vectors are rows, so each one is contiguous for BLAS-1;
    # row j is always written before it is read
    block = np.empty((min(restart, maxit) + 1, n), dtype=complex)

    while True:
        beta = np.linalg.norm(r)
        relres = beta / nb
        if relres < best_relres:
            best_relres = relres
            best_x = x.copy()
        if relres <= tol or total >= maxit:
            return GmresResult(
                x=best_x, relres=float(best_relres), iters=total,
                converged=best_relres <= tol, resnorms=resnorms, cycles=cycles,
            )

        m = min(restart, maxit - total)
        V = block[: m + 1]
        H = np.zeros((m + 1, m), dtype=complex)
        cs = np.zeros(m)
        sn = np.zeros(m, dtype=complex)
        g = np.zeros(m + 1, dtype=complex)
        g[0] = beta
        np.divide(r, beta, out=V[0])

        j = 0
        for j in range(m):
            # always copy: apply_op may hand back a view of its input
            # (identity-like operators), a strided or read-only array,
            # and w is updated in place below
            w = np.array(apply_op(V[j]), dtype=complex)
            total += 1
            wnorm = dznrm2(w)
            # zaxpy updates w in place; taking its return value keeps the
            # pass correct should it ever have to copy
            for i in range(j + 1):
                h = zdotc(V[i], w)
                H[i, j] = h
                w = zaxpy(V[i], w, a=-h)
            hnext = dznrm2(w)
            happy = hnext <= HAPPY_BREAKDOWN_RTOL * max(wnorm, 1e-300)
            H[j + 1, j] = hnext
            if not happy:
                np.divide(w, hnext, out=V[j + 1])

            for i in range(j):
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

        k = j + 1
        cycles.append(k)
        y = sla.solve_triangular(H[:k, :k], g[:k], check_finite=False)
        x = x + y @ V[:k]
        r = b - apply_op(x)
