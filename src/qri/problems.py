"""Built-in test problems.

Each generator returns a :class:`~qri.qep.QepProblem`.  The generators are
deterministic: the randomized ones take an explicit seed.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .qep import QepProblem, check_count, check_real


def example1():
    """3x3 reference problem with known spectrum.

    The six eigenvalues are ``1/3, 1/2, 1, i, -i`` and one infinite
    eigenvalue (the mass matrix is singular), which makes it handy for
    exercising eigenvalue ordering, infinite-eigenvalue handling, and
    the dense verification paths.
    """
    M = np.array([[0.0, 6.0, 0.0], [0.0, 6.0, 0.0], [0.0, 0.0, 1.0]])
    C = np.array([[1.0, -6.0, 0.0], [2.0, -7.0, 0.0], [0.0, 0.0, 0.0]])
    K = np.eye(3)
    return QepProblem(M, C, K, name="example1")


def wave2d(m, zeta=1.0):
    """Wave resonance problem on the unit square with one impedance face.

    Finite differences on an ``m x m`` grid (interior plus boundary
    elimination) give ``n = m (m - 1)`` unknowns, ``h = 1/m``:

    - ``M = -4 pi^2 h^2  I_(m-1) (x) (I_m - e_m e_m^T / 2)``
    - ``C = 2 pi i (h / zeta)  I_(m-1) (x) (e_m e_m^T)``
    - ``K = I_(m-1) (x) D_m + T_(m-1) (x) (-I_m + e_m e_m^T / 2)``

    where ``D_m`` is tridiagonal ``(-1, 4, -1)`` with last diagonal entry
    reduced to 2, and ``T_(m-1)`` is tridiagonal ``(1, 0, 1)``.  ``M`` is
    nonsingular, ``C`` has rank ``m - 1``, and ``zeta`` is the (possibly
    complex) impedance parameter.
    """
    check_count("m", m, 2)
    if zeta == 0 or not np.isfinite(zeta):
        raise ValueError(f"zeta must be finite and nonzero, got {zeta}")
    h = 1.0 / m
    eye_small = sp.identity(m - 1, dtype=complex, format="csr")

    last = sp.csr_array(
        ([1.0 + 0.0j], ([m - 1], [m - 1])), shape=(m, m)
    )  # e_m e_m^T
    half_free = sp.identity(m, dtype=complex, format="csr") - 0.5 * last

    M = (-4.0 * np.pi**2 * h * h) * sp.kron(eye_small, half_free, format="csr")
    C = (2.0j * np.pi * h / zeta) * sp.kron(eye_small, last, format="csr")

    D = sp.diags_array(
        [-np.ones(m - 1), np.r_[4.0 * np.ones(m - 1), 2.0], -np.ones(m - 1)],
        offsets=[-1, 0, 1],
        format="csr",
    ).astype(complex)
    T = sp.diags_array(
        [np.ones(m - 2), np.ones(m - 2)], offsets=[-1, 1], format="csr"
    ).astype(complex)
    G = -sp.identity(m, dtype=complex, format="csr") + 0.5 * last
    K = sp.kron(eye_small, D, format="csr") + sp.kron(T, G, format="csr")

    return QepProblem(M, C, K, name=f"wave2d(m={m})")


@dataclass
class SpringMaxwellParams:
    """Size and seed of a :func:`spring_maxwell` problem: ``element_count``
    elements per chain (at least 1), ``chain_count`` damped chains (at
    least 1) and the ``seed`` (at least 0) from which the generator draws
    every coefficient.
    """

    element_count: int
    chain_count: int
    seed: int = 0


def _log_uniform(rng, size=None):
    return 10.0 ** rng.uniform(-1.0, 1.0, size)


def _chain_matrices(p):
    # assembled 1-d linear finite elements on [0, 1], p elements,
    # left end fixed: stiffness (1/h) tridiag(-1, 2, -1) and consistent
    # mass (h/6) tridiag(1, 4, 1), free-end entries halved
    h = 1.0 / p
    kd = np.r_[2.0 * np.ones(p - 1), 1.0] / h
    ko = -np.ones(p - 1) / h
    stiff = sp.diags_array([ko, kd, ko], offsets=[-1, 0, 1], format="csr")
    md = np.r_[4.0 * np.ones(p - 1), 2.0] * (h / 6.0)
    mo = np.ones(p - 1) * (h / 6.0)
    mass = sp.diags_array([mo, md, mo], offsets=[-1, 0, 1], format="csr")
    return stiff.astype(complex), mass.astype(complex)


def spring_maxwell(params):
    """Viscoelastic ladder: one elastic block coupled to damped chains.

    With the chain's stiffness ``S`` and mass ``Mass``, each matrix is a
    small coefficient matrix kron one chain block:

    - ``M = diag(1, 0, ..., 0) (x) rho Mass``, rank deficient by
      construction;
    - ``C = diag(0, eta) (x) S``, block diagonal over the chains;
    - ``K = A (x) S`` for the arrowhead ``A`` with ``alpha_rho, e`` on
      its diagonal and ``-xi`` in its first row and column, coupling the
      first block to every chain; ``K`` is exactly symmetric.

    The coefficients ``rho``, ``alpha_rho``, ``eta``, ``xi`` and ``e``
    are drawn in that order, log-uniformly from ``[1e-1, 1e1]``, from
    ``params.seed``.  Block size is ``element_count``; total dimension is
    ``element_count * (chain_count + 1)``.
    """
    p_el = check_count("element_count", params.element_count, 1)
    m = check_count("chain_count", params.chain_count, 1)
    rng = np.random.default_rng(check_count("seed", params.seed, 0))
    rho, alpha_rho = _log_uniform(rng), _log_uniform(rng)
    eta, xi, e = (_log_uniform(rng, m) for _ in range(3))

    stiff, mass = _chain_matrices(p_el)
    arrow = np.diag(np.r_[alpha_rho, e])
    arrow[0, 1:] = arrow[1:, 0] = -xi
    # kron stores no entries for the zeros of a dense coefficient matrix
    M = sp.kron(np.diag(np.r_[1.0, np.zeros(m)]), rho * mass, format="csr")
    C = sp.kron(np.diag(np.r_[0.0, eta]), stiff, format="csr")
    K = sp.kron(arrow, stiff, format="csr")
    return QepProblem(M, C, K, name=f"spring_maxwell(p={p_el},m={m})")


def random_qep(n, density=0.05, seed=0):
    """Random sparse complex problem with a nonsingular mass matrix.

    ``M`` is made strictly diagonally dominant (all 2n eigenvalues
    finite); ``C`` and ``K`` are unstructured.  ``density``, in (0, 1],
    is the fill fraction of each random part.  Useful for property
    tests.
    """
    check_count("n", n, 1)
    if not 0.0 < check_real("density", density) <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    rng = np.random.default_rng(check_count("seed", seed, 0))

    def sparse_random():
        nnz = max(n, int(round(density * n * n)))
        idx = rng.choice(n * n, size=min(nnz, n * n), replace=False)
        rows, cols = np.divmod(np.sort(idx), n)
        vals = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        return sp.csr_array((vals, (rows, cols)), shape=(n, n))

    M = sparse_random()
    off = np.abs(M).sum(axis=1)
    M = M + sp.diags_array(off + 1.0, format="csr")
    return QepProblem(M, sparse_random(), sparse_random(), name=f"random_qep(n={n})")
