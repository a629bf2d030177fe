"""Quadratic eigenvalue problem container and its companion pencil.

A problem is the triple ``(M, C, K)`` defining ``Q(lam) = lam^2 M + lam C + K``;
eigenpairs satisfy ``Q(lam) x = 0``.  When ``M`` is singular some of the 2n
eigenvalues are infinite; those are always carried with an explicit flag,
never as overflow values.

The companion form used everywhere is

    A = [[-C, -K],   B = [[M, 0],
         [ I,  0]]        [0, I]]

with pencil eigenvectors ``[lam*x; x]`` for finite ``lam``, so right
eigenvectors of the quadratic problem sit in the lower block.  The
pencil is never formed: eliminating its identity block row turns a
solve with ``A - sigma B`` into one with ``Q(sigma)`` (:func:`shift_invert`).
"""

import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import SingularMatrix
from .linalg import LUSolver, norm1, spmv

DEFAULT_DENSE_CAP = 2000

# Q(shift) is factored sparsely when the envelope profile of its pattern
# after reverse Cuthill-McKee is at most this fraction of n^2.  Measured:
# 0.007 to 0.11 for wave2d(8 to 100) and spring_maxwell, where splu wins
# or ties; 0.40 to 0.45 for random_qep, where splu fills in and dense LU
# is 3x faster at n = 500
SPARSE_PROFILE_RATIO = 0.2

# theta below this fraction of the dominant |theta| is a zero of the
# shift-inverted pencil, i.e. an infinite eigenvalue of the quadratic
INF_THETA_RTOL = 1e-10


def dense_cap():
    """Largest order of a dense matrix the package will form.

    Guards :func:`factor_q` for the problems whose
    :attr:`QepProblem.factorization` is ``"dense"`` (``Q`` at a shift,
    order n) and the oracle's shift-inverted companion matrix (order
    2n); a sparse factorization of ``Q`` has no cap.  Overridable through the
    ``QRI_DENSE_CAP`` environment variable, which must be an integer of at
    least 1 (:class:`ValueError` naming it otherwise); the guard exists so
    that dense paths are not silently applied to problems that are too
    large for them.
    """
    value = os.environ.get("QRI_DENSE_CAP", "").strip() or str(DEFAULT_DENSE_CAP)
    if value.removeprefix("-").isdecimal():
        value = int(value)
    return check_count("QRI_DENSE_CAP", value, 1)


def _as_canonical_csr(A):
    if sp.issparse(A):
        A = A.tocsr()
    else:
        A = sp.csr_array(np.asarray(A))
    A = sp.csr_array(A).astype(np.complex128)
    A.sum_duplicates()
    A.sort_indices()
    A.eliminate_zeros()
    if A.data.size and not np.isfinite(A.data).all():
        raise ValueError("matrix entries must be finite")
    return A


def _rcm_profile(p):
    # imported on first use, like splu (see LUSolver)
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    pattern = abs(p.M) + abs(p.C) + abs(p.K)
    pattern = sp.csr_matrix(pattern + pattern.T)
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    rank = np.empty(p.n, dtype=np.intp)
    rank[perm] = np.arange(p.n)
    rows, cols = pattern.nonzero()
    first = np.arange(p.n)  # the diagonal bounds each row's envelope
    np.minimum.at(first, rank[rows], rank[cols])
    return int((np.arange(p.n) - first).sum())


class QepProblem:
    """Sparse matrices of ``Q(lam) = lam^2 M + lam C + K``.

    Matrices are stored in canonical CSR form (sorted column indices, no
    duplicates or explicit zeros) with complex128 entries, so identical
    inputs give bitwise-identical products.
    """

    def __init__(self, M, C, K, name=""):
        self.M = _as_canonical_csr(M)
        self.C = _as_canonical_csr(C)
        self.K = _as_canonical_csr(K)
        self.name = name
        shapes = {self.M.shape, self.C.shape, self.K.shape}
        if len(shapes) != 1:
            raise ValueError(f"M, C, K must share one shape, got {shapes}")
        n_rows, n_cols = self.M.shape
        if n_rows != n_cols:
            raise ValueError("matrices must be square")
        self.n = n_rows

    @cached_property
    def norms1(self):
        """1-norms ``(|M|_1, |C|_1, |K|_1)``, computed on first read."""
        return norm1(self.M), norm1(self.C), norm1(self.K)

    @cached_property
    def factorization(self):
        """``"sparse"`` or ``"dense"``: how :func:`factor_q` factors ``Q``
        at any shift, chosen once from the pattern alone.

        The symmetrized union pattern of ``M``, ``C`` and ``K`` is
        reordered by reverse Cuthill-McKee, and its envelope profile
        ``sum_i (i - min{j : a_ij != 0 or j = i})`` predicts the fill of a
        sparse LU.  Sparse when the profile is at most
        ``SPARSE_PROFILE_RATIO * n^2``.
        """
        sparse = _rcm_profile(self) <= SPARSE_PROFILE_RATIO * self.n**2
        return "sparse" if sparse else "dense"

    @cached_property
    def symmetric(self):
        """Whether each of ``M``, ``C`` and ``K`` equals its transpose
        exactly (not its conjugate transpose), so that ``Q(lam)`` is
        complex symmetric at every ``lam``; computed on first read.

        :class:`~qri.solver.KrylovExpansion` reads it to solve with COCR
        instead of recycled GMRES.
        """
        return all((A != A.T).nnz == 0 for A in (self.M, self.C, self.K))

    def densify(self):
        return self.M.toarray(), self.C.toarray(), self.K.toarray()

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<QepProblem{label} n={self.n}>"


@dataclass
class Eigentriplet:
    """One computed eigenvalue ``lam`` with its right vector ``x`` of unit
    2-norm."""

    lam: complex
    x: np.ndarray


def check_shift(value, name):
    """``value`` as a complex shift; raises a :class:`ValueError` naming
    ``name`` unless it is a number (a string or ``None`` is not) and the
    shift and its square are finite.

    ``value^2`` scales ``M`` in ``Q(value)``; a non-finite square would
    only surface later as a zero pivot.
    """
    if not isinstance(value, numbers.Number):
        raise ValueError(f"shift {name} must be a number, got {value!r}")
    shift = complex(value)
    if not np.isfinite(shift * shift):
        raise ValueError(
            f"shift {name} must be finite with a finite square, got {shift}"
        )
    return shift


def check_count(name, value, least, most=math.inf):
    """``value`` unchanged; raises a :class:`ValueError` naming ``name``
    unless it is an integer in ``[least, most]``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")
    return value


def check_real(name, value):
    """``value`` unchanged; raises a :class:`ValueError` naming ``name``
    unless it is a real number (a string, a complex value or ``None`` is
    not), so that range checks can compare it."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def check_interval(name, value, upper=1.0):
    """``value`` unchanged; raises a :class:`ValueError` naming ``name``
    unless it is a real number in the open interval ``(0, upper)``, which
    NaN is not."""
    if not 0.0 < check_real(name, value) < upper:
        raise ValueError(f"{name} must lie in (0, {upper:g}), got {value}")
    return value


def check_vector(name, x, n):
    """``x`` as a complex array; raises a :class:`ValueError` naming
    ``name`` unless it holds numbers (integer, real or complex; strings,
    bools and ``None`` are not) and has shape ``(n,)`` and is finite and
    nonzero."""
    x = np.asarray(x)
    if x.dtype.kind not in "iufc":
        raise ValueError(f"{name} must hold numbers, got dtype {x.dtype}")
    x = np.asarray(x, dtype=complex)
    if x.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    if not x.any():
        raise ValueError(f"{name} must be nonzero")
    return x


def q_apply(p, lam, x):
    """``Q(lam) x`` via three sparse products."""
    x = np.asarray(x, dtype=complex)
    return lam * lam * spmv(p.M, x) + lam * spmv(p.C, x) + spmv(p.K, x)


def q_prime_apply(p, lam, x):
    """``Q'(lam) x = (2 lam M + C) x``."""
    x = np.asarray(x, dtype=complex)
    return 2.0 * lam * spmv(p.M, x) + spmv(p.C, x)


def shifted_matrix(p, sigma):
    """Assemble ``Q(sigma) = sigma^2 M + sigma C + K`` as canonical CSR."""
    S = (sigma * sigma) * p.M + sigma * p.C + p.K
    S = sp.csr_array(S)
    S.sum_duplicates()
    S.sort_indices()
    return S


def factor_q(p, shift, name):
    """LU of ``Q(shift)``, the one factorization of ``Q`` at a shift
    (exact expansion, Newton, oracle): sparse or dense as
    :attr:`QepProblem.factorization` says.

    Raises :class:`ValueError` when the factorization is dense and
    ``p.n`` exceeds the dense cap, and :class:`SingularMatrix` naming
    ``name`` and its value when ``Q`` is singular there, i.e. the shift is
    an eigenvalue to working precision.
    """
    sparse = p.factorization == "sparse"
    if not sparse and p.n > dense_cap():
        raise ValueError(
            f"Q({name}) is factored densely, but n = {p.n} exceeds the dense "
            f"cap {dense_cap()}; use mode=\"inexact\" or raise QRI_DENSE_CAP"
        )
    return _lu_at(shifted_matrix(p, shift), shift, name, sparse)


def _lu_at(Q, shift, name, sparse=False):
    """LU of ``Q``, which is ``Q(shift)``; a :class:`SingularMatrix`
    names ``name`` and its value as an eigenvalue."""
    try:
        return LUSolver(Q, sparse=sparse)
    except SingularMatrix as exc:
        raise SingularMatrix(
            f"Q is singular at {name} = {shift}: the shift is an eigenvalue "
            "to working precision"
        ) from exc


def residual_denominator(p, omega):
    nm, nc, nk = p.norms1
    return abs(omega) ** 2 * nm + abs(omega) * nc + nk


def relative_residual(p, omega, xtilde):
    """Normalized residual of an approximate pair ``(omega, xtilde)``.

    ``norm(Q(omega) xtilde) / (|omega|^2 |M|_1 + |omega| |C|_1 + |K|_1)``,
    assuming ``xtilde`` has unit norm.  The denominator makes the value a
    backward-error-style quantity that is comparable across shifts.
    """
    r = q_apply(p, omega, xtilde)
    return float(np.linalg.norm(r) / residual_denominator(p, omega))


def shift_invert(Md, Cd, Kd, sigma):
    """Dense ``S = (A - sigma B)^{-1} B`` for the companion pencil of the
    dense blocks ``Md, Cd, Kd``, from one LU of the order-n ``Q(sigma)``.
    The second block row of a solve ``(A - sigma B) y = b`` gives
    ``y1 = b2 + sigma y2``, and the first then
    ``Q(sigma) y2 = -(b1 + (C + sigma M) b2)``, so

        S = [[sigma X + [0, I]], [X]],   X = -Q(sigma)^{-1} [M, C + sigma M].

    Eigenvalues ``theta`` of ``S`` map to quadratic eigenvalues through
    ``lam = sigma + 1/theta`` (see :func:`finite_order`); ``theta = 0``
    corresponds to an infinite eigenvalue.  Returns ``(S, qsolve)`` where
    ``qsolve`` is the dense :class:`~qri.linalg.LUSolver` of ``Q(sigma)``.
    Raises the :class:`SingularMatrix` of :func:`factor_q`, naming
    ``sigma``, when ``Q(sigma)``, and with it ``A - sigma B``, is
    singular: ``sigma`` is an eigenvalue.
    """
    n = Md.shape[0]
    qsolve = _lu_at((sigma * sigma) * Md + sigma * Cd + Kd, sigma, "sigma")
    X = qsolve.solve(np.hstack([-Md, -Cd - sigma * Md]))
    S = np.vstack([sigma * X, X])
    S[:n, n:][np.diag_indices(n)] += 1.0
    return S, qsolve


def finite_order(theta, sigma):
    """Order the eigenvalues ``theta`` of a shift-inverted pencil.

    A ``theta`` at most ``INF_THETA_RTOL`` times the dominant ``|theta|``
    (or 1) is a zero of the pencil, i.e. an infinite eigenvalue.  The
    finite ones, ``lam = sigma + 1/theta``, are sorted by ascending
    ``|lam - sigma|``, ties by the phase of ``lam - sigma``, then by
    position.  Returns ``(idx, lams, inf_idx)``: the indices of the finite
    ``theta`` in that order, their eigenvalues, and the indices of the
    infinite ones.
    """
    theta = np.asarray(theta)
    finite = np.abs(theta) > INF_THETA_RTOL * np.abs(theta).max(initial=1.0)
    idx = np.flatnonzero(finite)
    lams = sigma + 1.0 / theta[idx]
    order = np.lexsort(
        (np.arange(idx.size), np.angle(lams - sigma), np.abs(lams - sigma))
    )
    return idx[order], lams[order], np.flatnonzero(~finite)


_SUFFIXES = ("_M.mtx", "_C.mtx", "_K.mtx")


def write_problem(prefix, p):
    """Write ``M, C, K`` as Matrix Market coordinate files (complex
    general), one file per matrix: ``<prefix>_M.mtx`` etc.  Raises
    :class:`OSError` for a path that cannot be written."""
    for suffix, matrix in zip(_SUFFIXES, (p.M, p.C, p.K)):
        # opened here: given a path it cannot open, scipy's writer
        # returns without writing or raising
        with open(prefix + suffix, "wb") as fh:
            scipy.io.mmwrite(fh, sp.coo_array(matrix), field="complex", precision=17)
    return [prefix + s for s in _SUFFIXES]


def read_problem(prefix, name=""):
    """Read a problem written by :func:`write_problem`."""
    mats = []
    for suffix in _SUFFIXES:
        path = prefix + suffix
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing matrix file: {path}")
        mats.append(sp.csr_array(scipy.io.mmread(path)))
    return QepProblem(*mats, name=name or os.path.basename(prefix))
