"""Dense verification oracle.

Computes the complete eigendecomposition of a desk-scale quadratic
problem through the shift-inverted companion pencil and exposes the
angle identities, convergence bound, resolvent expansion, and
perturbation diagnostics that the iterative solvers are checked
against.  Everything here is dense and O(n^3); the :func:`~qri.qep.dense_cap`
guard keeps it from being applied to problems it cannot handle.

Angle conventions
-----------------
For a subspace ``V`` (orthonormal columns) and a vector ``x``,
``sin(V, x) = norm((I - V V*) x) / norm(x)``.  Angles between two vectors
treat each as a one-dimensional subspace, so complex phases never
matter.  The tangent of a vector against a unit reference ``x1`` is
``norm((I - x1 x1*) w) / |x1* w|``.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    Breakdown,
    DegenerateResidual,
    HypothesisViolated,
    InfiniteEigenvaluePresent,
    OrthogonalToTarget,
    SingularMatrix,
    ZeroVector,
)
from .linalg import BREAKDOWN_RTOL, LUSolver, as_columns, dense_eig, project_out, sin_angle
from .qep import check_shift, dense_cap, factor_q, finite_order, shift_invert


@dataclass
class OracleDecomposition:
    """Complete eigendata of one problem around one shift.

    ``lams`` holds the finite eigenvalues in ascending ``|lam - sigma|``
    order (ties by phase of ``lam - sigma``, then by position), ``X`` and
    ``Y`` their right and left vectors, and ``n_infinite`` counts the
    infinite eigenvalues of the 2n.  Right vectors have unit norm and
    left vectors are scaled so that

        Q(mu)^{-1} = sum_i  x_i y_i* / (mu - lam_i)

    holds exactly whenever every eigenvalue is finite.  ``sigma_lu`` is
    the dense LU of ``Q(sigma)`` that :func:`full_eig` factored, which
    every check at the shift solves with.
    """

    problem: object
    sigma: complex
    lams: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    n_infinite: int
    sigma_lu: LUSolver


def full_eig(p, sigma):
    """All finite eigenpairs of ``p`` with their left vectors, and the
    count of infinite eigenvalues, via the shift-inverted pencil.

    ``S = (A - sigma B)^{-1} B``, formed densely from one LU of
    ``Q(sigma)`` (:func:`~qri.qep.shift_invert`), is fed to the QR
    eigensolver for left and right vectors ``VL`` and ``W``; eigenvalues
    come back as ``lam = sigma + 1 / theta`` with ``theta ~ 0`` flagged
    infinite.  Left vectors are read off the rows of
    ``W^{-1} (A - sigma B)^{-1}``, which pairs them with the right vectors
    and fixes their scale in one step: row i of ``W^{-1}`` is
    ``VL[:, i]* / (VL[:, i]* W[:, i])``, and the first n columns of
    ``(A - sigma B)^{-1}`` are ``-[sigma I; I] Q(sigma)^{-1}``, one adjoint
    solve with the same LU, kept as ``sigma_lu``.

    Raises :class:`SingularMatrix` if ``sigma`` is itself an eigenvalue
    (the error of :func:`~qri.qep.factor_q`, naming ``sigma``) or some
    ``VL[:, i]* W[:, i]`` is zero (the shifted pencil is not
    diagonalizable), and ``ValueError`` if ``sigma`` or its square is not
    finite (every oracle-backed check starts here) or ``2 n`` exceeds the
    dense cap.
    """
    check_shift(sigma, "sigma")
    n = p.n
    if 2 * n > dense_cap():
        raise ValueError(
            f"oracle needs 2n = {2 * n} <= dense cap {dense_cap()}; "
            "set QRI_DENSE_CAP to override"
        )
    S, qsolve = shift_invert(*p.densify(), sigma)
    theta, VL, W = dense_eig(S)
    dots = np.einsum("ij,ij->j", VL.conj(), W)
    if not dots.all():
        raise SingularMatrix(
            "eigenvector matrix is numerically singular; the oracle needs "
            "a diagonalizable shifted pencil"
        )
    # column i: row i of W^{-1} (A - sigma B)^{-1}, first n entries, conjugated
    G = qsolve.solve(np.conj(sigma) * VL[:n] + VL[n:], adjoint=True)
    G /= -dots.conj()

    idx, lams, inf_idx = finite_order(theta, sigma)
    # finite eigenvectors are [lam x; x]
    c = np.linalg.norm(W[n:, idx], axis=0)
    X = W[n:, idx] / c
    Y = G[:, idx] * np.conj(c * (lams - sigma))
    return OracleDecomposition(problem=p, sigma=complex(sigma), lams=lams, X=X, Y=Y,
                               n_infinite=int(inf_idx.size), sigma_lu=qsolve)


def resolvent_check(d, mu):
    """Relative Frobenius error of the rank-one resolvent expansion at ``mu``.

    ``norm(Q(mu)^{-1} - sum_i x_i y_i* / (mu - lam_i)) / norm(Q(mu)^{-1})``.

    ``Q(mu)`` is factored afresh (:func:`~qri.qep.factor_q`) at each call.
    Raises :class:`ValueError` unless ``mu`` is a finite shift
    (:func:`~qri.qep.check_shift`) off the spectrum, and
    :class:`InfiniteEigenvaluePresent` when the decomposition contains
    infinite eigenvalues (the pure partial-fraction form then no longer
    represents the inverse).
    """
    mu = check_shift(mu, "mu")
    if d.n_infinite:
        raise InfiniteEigenvaluePresent(
            f"{d.n_infinite} infinite eigenvalue(s); the expansion needs a "
            "nonsingular mass matrix"
        )
    gaps = mu - d.lams
    if np.abs(gaps).min() == 0.0:
        raise ValueError("mu coincides with an eigenvalue")
    n = d.problem.n
    Qinv = factor_q(d.problem, mu, "mu").solve(np.eye(n, dtype=complex))
    R = (d.X / gaps) @ d.Y.conj().T
    return float(np.linalg.norm(Qinv - R) / np.linalg.norm(Qinv))


def expansion_angle_identity(V, v_next, x):
    """Exact factorization of the angle sine under a one-vector expansion.

    With ``x_perp = (I - P_V) x`` nonzero and ``v_next`` orthonormal to
    ``V``,

        sin([V, v_next], x) = sin(V, x) * sin(v_next, x_perp)

    holds as an identity.  Returns ``(lhs, rhs, gap, sin_V, sin_step)``,
    where ``rhs = sin_V * sin_step`` are the two factors, so callers can
    assert the gap at their own tolerance and record the factors.

    Raises :class:`HypothesisViolated` when ``x`` lies in ``span(V)`` to
    working precision, and ``ValueError`` when ``v_next`` is not
    orthonormal to ``V``.
    """
    Vm = as_columns(V)
    v = np.asarray(v_next, dtype=complex)
    if Vm.shape[1] and float(np.abs(v.conj() @ Vm).max()) > 1e-12:
        raise ValueError("v_next is not orthogonal to the basis")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ValueError("v_next must have unit norm")
    x = np.asarray(x, dtype=complex)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise ZeroVector("angle of a zero vector is undefined")

    # as in OrthonormalBasis, a remainder below BREAKDOWN_RTOL of the norm
    # is in the span, where the angle quantities are meaningless
    x_perp = project_out(Vm, x)
    if np.linalg.norm(x_perp) <= BREAKDOWN_RTOL * nx:
        raise HypothesisViolated("x lies in span(V) to working precision")

    extended = np.hstack([Vm, v[:, None]])
    lhs = sin_angle(extended, x)
    sin_V, sin_step = sin_angle(Vm, x), sin_angle(x_perp, v)
    rhs = sin_V * sin_step
    return lhs, rhs, abs(lhs - rhs), sin_V, sin_step


def expansion_angle_bound(d, V, r):
    """Spectral bound on the angle of the next expansion direction.

    At the decomposition's own shift ``sigma = d.sigma``, for the exact
    expansion ``u = Q(sigma)^{-1} r`` (one solve with ``d.sigma_lu``)
    orthonormalized against ``V``, the sine of its angle to
    ``x1_perp = (I - P_V) x1`` is bounded by

        |lam1 - sigma| / |lam2 - sigma| * xi,
        xi = sum_{i >= 2} |y_i* r| / |y_1* r|

    where ``lam1, lam2`` are the decomposition's first two values (the
    two eigenvalues closest to ``sigma``), ``x1`` is its first vector and
    the left vectors carry the oracle scaling.  Returns ``(lhs, rhs, xi)``.
    """
    if d.n_infinite:
        raise InfiniteEigenvaluePresent(
            "the bound needs every eigenvalue finite (nonsingular mass matrix)"
        )
    r = np.asarray(r, dtype=complex)
    coeffs = (r.conj() @ d.Y).conj()
    if abs(coeffs[0]) < 1e-300:
        raise DegenerateResidual(
            "residual has no component along the target left eigenvector"
        )
    xi = float(np.abs(coeffs[1:]).sum() / abs(coeffs[0]))
    rhs = abs(d.lams[0] - d.sigma) / abs(d.lams[1] - d.sigma) * xi

    V = as_columns(V)
    x1_perp = project_out(V, d.X[:, 0])
    if np.linalg.norm(x1_perp) <= BREAKDOWN_RTOL:
        raise HypothesisViolated("target vector already lies in span(V)")

    u = d.sigma_lu.solve(r)
    u_perp = project_out(V, u)
    nu = np.linalg.norm(u_perp)
    if nu <= 1e-300:
        raise Breakdown("exact expansion direction lies in span(V)")
    lhs = sin_angle(x1_perp, u_perp / nu)
    return float(lhs), float(rhs), xi


@dataclass
class ExpansionDiag:
    """Decomposition of an inexact expansion against its exact counterpart.

    ``utilde = u + eps * norm(u) * f`` with unit ``f``; ``f_perp`` is the
    part of ``f`` outside the subspace (neither is kept, as only the
    identities below use them); ``eps_tilde`` is the relative error
    measured after projection; ``v`` and ``vtilde`` are the exact and
    perturbed normalized expansion directions.  ``gap_scale`` and
    ``gap_direction`` report how far the two exact identities

        eps_tilde * sin(V, u)   = eps * sin(V, f)
        sin(vtilde, v)          = eps_tilde * sin(vtilde, f_perp)

    are from zero for the given data.
    """

    eps: float
    eps_tilde: float
    v: np.ndarray
    vtilde: np.ndarray
    gap_scale: float
    gap_direction: float


def expansion_perturbation_diagnostics(V, u, utilde):
    """Measure an inexact expansion vector against the exact one.

    Returns an :class:`ExpansionDiag`; with ``utilde == u`` exactly, all
    scalar fields are zero and both directions coincide.  Raises
    :class:`HypothesisViolated` when ``u`` (or ``utilde``) carries no
    component outside the subspace, since no expansion direction exists
    then.
    """
    V = as_columns(V)
    u = np.asarray(u, dtype=complex)
    utilde = np.asarray(utilde, dtype=complex)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise ZeroVector("exact expansion vector is zero")

    u_perp = project_out(V, u)
    nup = np.linalg.norm(u_perp)
    if nup <= BREAKDOWN_RTOL * nu:
        raise HypothesisViolated("u lies in span(V); no expansion direction")
    v = u_perp / nup

    delta = utilde - u
    ndelta = np.linalg.norm(delta)
    if ndelta == 0.0:
        return ExpansionDiag(eps=0.0, eps_tilde=0.0, v=v, vtilde=v,
                             gap_scale=0.0, gap_direction=0.0)

    eps = float(ndelta / nu)
    f = delta / ndelta
    f_perp = project_out(V, f)
    nfp = np.linalg.norm(f_perp)

    ut_perp = project_out(V, utilde)
    nutp = np.linalg.norm(ut_perp)
    if nutp <= BREAKDOWN_RTOL * np.linalg.norm(utilde):
        raise HypothesisViolated("utilde lies in span(V); no expansion direction")
    vtilde = ut_perp / nutp

    eps_tilde = float(np.linalg.norm(project_out(V, delta)) / nup)

    # sin(V, u) and sin(V, f) are the norms already taken
    gap_scale = abs(eps_tilde * (nup / nu) - eps * (nfp / np.linalg.norm(f)))
    if nfp == 0.0:
        gap_direction = abs(sin_angle(v, vtilde))
    else:
        gap_direction = abs(sin_angle(v, vtilde)
                            - eps_tilde * sin_angle(f_perp, vtilde))

    return ExpansionDiag(eps=eps, eps_tilde=eps_tilde, v=v, vtilde=vtilde,
                         gap_scale=float(gap_scale), gap_direction=float(gap_direction))


def tan_angle(x1, w):
    """Tangent of the angle between ``w`` and the reference ``x1``,
    ``norm((I - x1 x1*) w) / |x1* w|`` with ``x1`` normalized here.

    Raises :class:`OrthogonalToTarget` when ``w`` has no component along
    ``x1``.
    """
    x1 = np.asarray(x1, dtype=complex)
    x1 = x1 / np.linalg.norm(x1)
    w = np.asarray(w, dtype=complex)
    alpha = np.vdot(x1, w)
    if abs(alpha) < 1e-300:
        raise OrthogonalToTarget("vector is orthogonal to the reference direction")
    return float(np.linalg.norm(w - alpha * x1)) / abs(alpha)


class SandwichResult(NamedTuple):
    tan_exact: float
    tan_inexact: float
    tan_error: float
    hypothesis_holds: bool
    sandwich_holds: bool


def angle_sandwich(x1, u, utilde):
    """Tangent ordering of exact, inexact, and error directions.

    With ``t(w) = norm((I - x1 x1*) w) / |x1* w|``, checks the ordering

        t(u) <= t(utilde) <= t(u - utilde)

    which is expected whenever the hypothesis ``t(u) < t(u - utilde)``
    holds (the inexact direction should be no closer to the reference
    than the exact one, nor farther than the pure error).  Returns the
    three tangents and both flags; no exception is raised on a violation,
    so callers can gather statistics.  With ``utilde == u`` exactly the
    error direction is undefined and the result is degenerate-true with
    an infinite error tangent.

    The ordering rests on a two-eigenvector model with aligned
    coefficient phases; with complex data the lower comparison can fail
    by a margin of order ``norm(u - utilde) / norm(u)`` even when the
    hypothesis holds, so treat per-trial flags as statistics rather
    than certainties.
    """
    u = np.asarray(u, dtype=complex)
    utilde = np.asarray(utilde, dtype=complex)
    t_u = tan_angle(x1, u)
    diff = u - utilde
    if np.linalg.norm(diff) == 0.0:
        return SandwichResult(t_u, t_u, float("inf"), True, True)
    t_ut = tan_angle(x1, utilde)
    t_err = tan_angle(x1, diff)
    hypothesis = t_u < t_err
    sandwich = t_u <= t_ut <= t_err
    return SandwichResult(
        tan_exact=t_u,
        tan_inexact=t_ut,
        tan_error=t_err,
        hypothesis_holds=bool(hypothesis),
        sandwich_holds=bool(sandwich),
    )
