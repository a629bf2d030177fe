"""Dense and sparse kernels shared by the solvers and the verification oracle.

Dense factorizations and eigendecompositions delegate to LAPACK through
scipy; the orthonormal-basis bookkeeping is done here because the solvers
need tight control over breakdown detection and reorthogonalization.
All complex inner products are conjugate-linear in the first argument
(``numpy.vdot`` convention).
"""

import warnings

import numpy as np
import scipy.linalg as sla

from .errors import Breakdown, NoConvergence, SingularMatrix, ZeroVector

# A second classical Gram-Schmidt pass keeps the loss of orthogonality at
# the eps level ("twice is enough"); after both passes, anything whose
# remainder is below this fraction of the original norm is treated as
# linearly dependent.
BREAKDOWN_RTOL = 1e-13

# Pivots below this fraction of the largest entry are treated as exact
# zeros (the factorization only fails on genuinely singular input).
LU_PIVOT_RTOL = 1e-300


def spmv(A, x):
    """Sparse matrix-vector product ``A @ x`` for a CSR matrix.

    The summation order within each row follows the stored (ascending
    column) order, so repeated calls with the same data are bitwise
    reproducible.
    """
    n_rows, n_cols = A.shape
    x = np.asarray(x)
    if x.shape != (n_cols,):
        raise ValueError(
            f"dimension mismatch: matrix is {n_rows}x{n_cols}, vector has shape {x.shape}"
        )
    return A @ x


class LUSolver:
    """LU factorization computed once, applied to many right-hand sides.

    Raises :class:`SingularMatrix` if a pivot is at most
    ``LU_PIVOT_RTOL * max|A|`` in modulus, i.e. the matrix is singular to
    machine precision.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=complex)
        self.shape = A.shape
        # scipy warns about an exactly zero pivot; _check_pivots raises
        # the named error for it instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            self._lu, self._piv = sla.lu_factor(A, check_finite=False)
        _check_pivots(self._lu, np.abs(A).max())

    def solve(self, b):
        return sla.lu_solve((self._lu, self._piv), b, check_finite=False)


def _check_pivots(lu, amax):
    d = np.abs(np.diag(lu))
    if amax == 0.0 or not np.isfinite(d).all() or d.min() <= LU_PIVOT_RTOL * amax:
        raise SingularMatrix("zero pivot in LU factorization")


def dense_eig(A):
    """Eigenvalues and unit-norm right eigenvectors of a dense matrix.

    Returns
    -------
    w : (n,) complex ndarray
    V : (n, n) complex ndarray
        ``V[:, i]`` is the eigenvector for ``w[i]``, normalized to unit
        2-norm.
    """
    A = np.asarray(A, dtype=complex)
    try:
        w, V = sla.eig(A, check_finite=False)
    except sla.LinAlgError as exc:
        raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
    V /= np.linalg.norm(V, axis=0)
    return w, V


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


def project_out(V, x):
    """Return ``(I - V V*) x`` for orthonormal columns ``V``.

    Two classical Gram-Schmidt passes (CGS2), each one BLAS-2 product
    against all columns at once; the second pass keeps the result
    accurate when the remainder is many orders of magnitude smaller than
    ``x``.  ``V*`` is never formed: ``V* w`` is computed as
    ``conj(conj(w) @ V)``.
    """
    w = np.array(x, dtype=complex)
    for _ in range(2):
        w -= V @ (w.conj() @ V).conj()
    return w


class OrthonormalBasis:
    """Growing orthonormal basis with reorthogonalized Gram-Schmidt appends.

    Columns are stored in a preallocated block that doubles when full, so
    appending is cheap.  The basis is the single writer of its storage;
    ``matrix`` returns a read-only view of the first ``k`` columns.
    """

    def __init__(self, n, capacity=32):
        self.n = n
        self._V = np.zeros((n, max(1, capacity)), dtype=complex)
        self.k = 0

    @property
    def matrix(self):
        view = self._V[:, : self.k]
        view.flags.writeable = False
        return view

    def __len__(self):
        return self.k

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
        """
        u = np.asarray(u, dtype=complex)
        if u.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {u.shape}")
        nrm_in = np.linalg.norm(u)
        if nrm_in == 0.0:
            raise ZeroVector("cannot orthonormalize a zero vector")
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
        (e.g. produced by :meth:`orthonormalize`)."""
        if self.k == self._V.shape[1]:
            grown = np.zeros((self.n, 2 * self._V.shape[1]), dtype=complex)
            grown[:, : self.k] = self._V[:, : self.k]
            self._V = grown
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


def sin_angle_vectors(a, b):
    """Sine of the angle between the directions of two vectors.

    Computed as ``norm((I - P_b) a) / norm(a)`` with :func:`project_out`,
    whose second pass keeps it accurate when the angle is tiny.  Phases
    are ignored (the angle is between one-dimensional subspaces).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("angle with a zero vector is undefined")
    return np.linalg.norm(project_out((b / nb)[:, None], a)) / na
