"""Dense and sparse kernels shared by the solvers and the verification oracle.

Dense factorizations and eigendecompositions delegate to LAPACK through
scipy; the orthonormal-basis bookkeeping is done here because the solvers
need tight control over breakdown detection and reorthogonalization.
All complex inner products are conjugate-linear in the first argument
(``numpy.vdot`` convention).
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import Breakdown, NoConvergence, SingularMatrix, ZeroVector

# A second classical Gram-Schmidt pass keeps the loss of orthogonality at
# the eps level ("twice is enough"); after both passes, anything whose
# remainder is below this fraction of the original norm is treated as
# linearly dependent.
BREAKDOWN_RTOL = 1e-13

# Pivots below this fraction of the largest entry are treated as exact
# zeros (the factorization only fails on genuinely singular input).
LU_PIVOT_RTOL = 1e-300

# Inverse-iteration steps of null_vector; the second refines the new null
# direction that the first step's projection off ``against`` leaves.
NULL_VECTOR_STEPS = 2

# every dense LU (LUSolver, null_vector): LAPACK's pair without scipy's
# lu_factor/lu_solve wrappers
_zgetrf, _zgetrs = sla.get_lapack_funcs(("getrf", "getrs"), dtype=complex)


def spmv(A, x):
    """Sparse matrix-vector product ``A @ x`` for a CSR matrix.

    The summation order within each row follows the stored (ascending
    column) order, so repeated calls with the same data are bitwise
    reproducible.  scipy raises ``ValueError`` on a shape mismatch.
    """
    return A @ x


def norm1(A):
    """Matrix 1-norm, the largest column sum of moduli, of a dense or
    sparse ``A``; 0 for a matrix without entries or columns."""
    return float(np.abs(A).sum(axis=0).max(initial=0.0))


class LUSolver:
    """LU factorization computed once, applied to many right-hand sides.

    With ``sparse=True`` the sparse ``A`` is factored by SuperLU
    (``scipy.sparse.linalg.splu``, COLAMD column order), which keeps the
    fill of a banded or mesh-like pattern far below ``n^2``.  Otherwise a
    sparse ``A`` is densified here, in LAPACK's column order, and the
    factorization overwrites that copy; a dense ``A`` is left intact.
    Either way ``max|A|`` is read off the stored entries.

    Raises :class:`SingularMatrix` if a pivot is at most
    ``LU_PIVOT_RTOL * max|A|`` in modulus, or SuperLU finds one exactly
    zero, i.e. the matrix is singular to machine precision.
    """

    def __init__(self, A, sparse=False):
        self._lu = self._piv = self._sparse = None
        if sparse:
            self._factor_sparse(A)
        else:
            self._factor_dense(A)

    def _factor_dense(self, A):
        own_copy = sp.issparse(A)
        if own_copy:
            amax = np.abs(A.data).max(initial=0.0)
            A = A.toarray(order="F").astype(complex, copy=False)
        else:
            A = np.asarray(A, dtype=complex)
            amax = np.abs(A).max()
        # an exactly zero pivot leaves info > 0; _check_pivots raises the
        # named error for it
        self._lu, self._piv, _ = _zgetrf(A, overwrite_a=own_copy)
        _check_pivots(np.diag(self._lu), amax)

    def _factor_sparse(self, A):
        # imported on first use: the sparse solvers add about 2 MB to the
        # resident set of a process that never factors sparsely
        from scipy.sparse.linalg import splu

        A = sp.csc_array(A).astype(complex, copy=False)
        try:
            self._sparse = splu(A)
        except RuntimeError as exc:  # "Factor is exactly singular"
            if "singular" not in str(exc):
                raise
            raise SingularMatrix("zero pivot in sparse LU factorization") from exc
        _check_pivots(self._sparse.U.diagonal(), np.abs(A.data).max(initial=0.0))

    def solve(self, b, adjoint=False):
        """``A^{-1} b``, or ``A^{-*} b`` if ``adjoint``."""
        if self._sparse is not None:
            b = np.asarray(b, dtype=complex)
            return self._sparse.solve(b, trans="H" if adjoint else "N")
        return _zgetrs(self._lu, self._piv, b, trans=2 if adjoint else 0)[0]


def _check_pivots(pivots, amax):
    d = np.abs(pivots)
    if amax == 0.0 or not np.isfinite(d).all() or d.min() <= LU_PIVOT_RTOL * amax:
        raise SingularMatrix("zero pivot in LU factorization")


def dense_eig(A, vectors=True):
    """Eigenvalues and, if ``vectors``, unit-norm left and right
    eigenvectors of a dense matrix, by LAPACK ``geev``.

    Without vectors ``geev`` skips their accumulation and
    back-substitution, 20-40% of its time at orders 80 to 220; a caller
    that needs a few vectors can get them from :func:`null_vector`.

    Returns
    -------
    w : (n,) complex ndarray
    VL, VR : (n, n) complex ndarrays, only if ``vectors``
        ``VL[:, i]* A = w[i] VL[:, i]*`` and ``A VR[:, i] = w[i] VR[:, i]``,
        each column of unit 2-norm (``geev`` normalizes them).
    """
    A = np.asarray(A, dtype=complex)
    try:
        if not vectors:
            return sla.eigvals(A, check_finite=False)
        w, VL, VR = sla.eig(A, left=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
    return w, VL, VR


def null_vector(A, scale, against=()):
    """``(z, lu, piv)``: a unit vector ``z`` with ``A z`` about ``eps *
    scale``, for a square ``A`` that is singular to working precision
    (``scale`` bounds its norm), and the one LU of ``A`` it came from,
    which overwrites ``A``; that LU, pivots floored as below, serves
    further solves with ``A`` through ``_zgetrs``.

    Each of the ``NULL_VECTOR_STEPS`` steps is one step of inverse
    iteration on ``A* A``, ``z <- A^{-1} A^{-*} z``: the inner solve
    turns ``z`` toward the left null vector, the start from which the
    outer one leaves the smallest residual.  As in LAPACK's inverse
    iteration (``xLAEIN``), a pivot below ``eps * scale`` is replaced by
    ``eps * scale``, so an exactly singular ``A`` is fine.

    ``against`` holds unit vectors that ``z`` is to be orthogonal to, so
    that a null space of more than one dimension yields a new direction
    each time.  The start is the Fourier vector ``exp(2 pi i j m / n)``,
    ``m = len(against)`` (all ones when ``against`` is empty), so no two
    calls with different ``m`` start alike, and each step projects ``z``
    off ``against``, unless that leaves less than ``sqrt(eps)`` of ``z``
    (no null direction off ``against``).
    """
    eps = np.finfo(float).eps
    floor = eps * scale
    # LAPACK directly: scipy's wrappers cost half as much again at k = 100
    lu, piv, _ = _zgetrf(A, overwrite_a=True)
    diag = np.einsum("ii->i", lu)  # a writable view
    diag[np.abs(diag) < floor] = floor
    n = len(diag)
    basis = np.linalg.qr(np.column_stack(against))[0] if len(against) else None
    z = np.exp((2j * np.pi * len(against) / n) * np.arange(n))
    for _ in range(NULL_VECTOR_STEPS):
        # scaled so that one null direction gives a solution of order 1
        y = _zgetrs(lu, piv, floor * z, trans=2)[0]
        z = _zgetrs(lu, piv, (floor / np.linalg.norm(y)) * y)[0]
        if basis is not None:
            w = project_out(basis, z)
            if np.linalg.norm(w) > np.sqrt(eps) * np.linalg.norm(z):
                z = w
        z /= np.linalg.norm(z)
    return z, lu, piv


def smallest_singular_vector(A):
    """Unit right singular vector for the smallest singular value of ``A``.

    ``A`` must have at least as many rows as columns.  The returned ``z``
    satisfies ``norm(A @ z) == sigma_min`` up to round-off.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[0] < A.shape[1]:
        raise ValueError("need rows >= cols for a meaningful smallest singular vector")
    _, _, Vh = np.linalg.svd(A, full_matrices=False)
    return Vh[-1].conj()


def gram_schmidt(V, w):
    """Orthogonalize ``w`` in place against orthonormal columns ``V`` and
    return the summed coefficients ``c``, ``w_in = V c + w_out``.

    Two classical Gram-Schmidt passes (CGS2), each one BLAS-2 product
    against all columns at once; the second pass keeps the result
    accurate when the remainder is many orders of magnitude smaller than
    ``w``.  ``V*`` is never formed: ``V* w`` is ``conj(conj(w) @ V)``.
    """
    c = (w.conj() @ V).conj()
    w -= V @ c
    d = (w.conj() @ V).conj()
    w -= V @ d
    return c + d


def project_out(V, x):
    """``(I - V V*) x`` for orthonormal columns ``V``, by :func:`gram_schmidt`."""
    w = np.array(x, dtype=complex)
    gram_schmidt(V, w)
    return w


def checked_norm(x, name):
    """The 2-norm of ``x``.  Raises :class:`ZeroVector` when it is zero,
    and a ``ValueError`` naming ``name`` when it is not finite: a NaN or
    infinite entry is told apart from finite entries whose norm
    overflows, with no overflow warning on the way."""
    with np.errstate(over="ignore"):  # an overflow is named below
        nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ZeroVector(f"{name} has zero norm")
    if not np.isfinite(nrm):
        if np.isfinite(x).all():
            raise ValueError(f"the norm of {name} overflows")
        raise ValueError(f"{name} must have a finite norm, got {nrm}")
    return nrm


class OrthonormalBasis:
    """Orthonormal basis of at most ``capacity`` columns of length ``n``,
    with reorthogonalized Gram-Schmidt appends.

    Columns are stored in a block allocated once at the capacity, so
    appending is cheap.  The basis is the single writer of its storage;
    ``matrix`` returns a read-only view of the first ``k`` columns.
    """

    def __init__(self, n, capacity):
        self.n = n
        self._V = np.zeros((n, capacity), dtype=complex)
        self.k = 0

    @property
    def matrix(self):
        view = self._V[:, : self.k]
        view.flags.writeable = False
        return view

    def orthonormalize(self, u):
        """Orthogonalize ``u`` against the basis and normalize, without
        appending.

        Both passes of :func:`project_out` are run unconditionally.

        Raises
        ------
        Breakdown
            If the remainder after both passes has norm at most
            ``BREAKDOWN_RTOL * norm(u)``: the vector adds nothing.
        ZeroVector
            If ``u`` itself has zero norm.
        ValueError
            If the norm of ``u`` is not finite (a NaN or infinite entry,
            or an overflow).
        """
        u = np.asarray(u, dtype=complex)
        if u.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {u.shape}")
        nrm_in = checked_norm(u, "the vector to orthonormalize")
        w = project_out(self._V[:, : self.k], u)
        nrm = np.linalg.norm(w)
        if nrm <= BREAKDOWN_RTOL * nrm_in:
            raise Breakdown(
                "vector lies in the span of the basis "
                f"(remainder {nrm:.2e} vs input {nrm_in:.2e})"
            )
        # multiplying by the reciprocal: a complex division of an
        # n-vector costs several times as much
        w *= 1.0 / nrm
        return w

    def append(self, u):
        """Orthonormalize ``u`` against the basis, append, and return the
        new column."""
        v = self.orthonormalize(u)
        self.append_orthonormal(v)
        return v

    def append_orthonormal(self, v):
        """Append a column that is already orthonormal to the basis
        (e.g. produced by :meth:`orthonormalize`); at most ``capacity``
        columns fit."""
        self._V[:, self.k] = v
        self.k += 1

    def compress(self, Z):
        """Replace the basis ``V`` by ``V Z`` (a thick restart).

        ``Z`` is ``k x q`` with orthonormal columns, ``q <= k``, so the new
        columns are orthonormal to the same accuracy as the old ones.
        """
        Z = np.asarray(Z, dtype=complex)
        if Z.ndim != 2 or Z.shape[0] != self.k or Z.shape[1] > self.k:
            raise ValueError(f"expected a {self.k} x q matrix with q <= {self.k}, "
                             f"got shape {Z.shape}")
        q = Z.shape[1]
        self._V[:, :q] = self._V[:, : self.k] @ Z
        self.k = q

    def orthonormality_defect(self):
        """``max |V* V - I|`` over the current columns, for testing."""
        if self.k == 0:
            return 0.0
        V = self._V[:, : self.k]
        # the transpose of V* V, as far from the identity
        G = V.T @ V.conj() - np.eye(self.k)
        return float(np.abs(G).max())


def as_columns(V):
    """The columns of an :class:`OrthonormalBasis`, or a plain array of
    columns, a single vector as one column."""
    if isinstance(V, OrthonormalBasis):
        return V.matrix
    V = np.asarray(V, dtype=complex)
    return V[:, None] if V.ndim == 1 else V


def sin_angle(V, x):
    """Sine of the angle between ``span(V)`` and the vector ``x``,
    ``norm((I - V V*) x) / norm(x)``.

    ``V`` is an :class:`OrthonormalBasis`, an array of orthonormal
    columns, or one nonzero vector, which is normalized here, so phases
    and scale never matter.  :func:`project_out`'s second pass keeps the
    sine accurate when the angle is tiny.  An empty basis gives 1.
    Raises :class:`ZeroVector` for a zero ``x`` or a zero vector ``V``.
    """
    one = not isinstance(V, OrthonormalBasis) and np.ndim(V) == 1
    V, x = as_columns(V), np.asarray(x, dtype=complex)
    nv, nx = (np.linalg.norm(V) if one else 1.0), np.linalg.norm(x)
    if nv == 0.0 or nx == 0.0:
        raise ZeroVector("angle with a zero vector is undefined")
    if one:
        V = V / nv
    return float(np.linalg.norm(project_out(V, x)) / nx)


def uniform_complex(rng, size=None):
    """``rng``'s draw of real parts, then imaginary parts, each uniform on
    (-1, 1): a scalar when ``size`` is ``None``, else an array."""
    return rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)
