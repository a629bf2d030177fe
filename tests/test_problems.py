import numpy as np
import pytest

from qri import SpringMaxwellParams, example1, random_qep, spring_maxwell, wave2d
from qri.problems import _chain_matrices


def wave2d_dense(m, zeta=1.0):
    """Independent dense assembly of the waveguide matrices, written
    directly from the Kronecker formulas with no sparse machinery."""
    h = 1.0 / m
    e = np.zeros((m, 1))
    e[-1, 0] = 1.0
    ee = e @ e.T
    Im = np.eye(m)
    Im1 = np.eye(m - 1)
    D = 4.0 * Im - np.diag(np.ones(m - 1), 1) - np.diag(np.ones(m - 1), -1) - 2.0 * ee
    T = np.diag(np.ones(m - 2), 1) + np.diag(np.ones(m - 2), -1)
    M = -4.0 * np.pi**2 * h**2 * np.kron(Im1, Im - 0.5 * ee)
    C = 2.0j * np.pi * (h / zeta) * np.kron(Im1, ee)
    K = np.kron(Im1, D) + np.kron(T, -Im + 0.5 * ee)
    return M, C, K


def test_wave2d_matches_dense_assembly():
    for m, zeta in ((3, 1.0), (5, 2.5)):
        p = wave2d(m, zeta=zeta)
        Md, Cd, Kd = wave2d_dense(m, zeta)
        assert np.allclose(p.M.toarray(), Md, atol=1e-15)
        assert np.allclose(p.C.toarray(), Cd, atol=1e-15)
        assert np.allclose(p.K.toarray(), Kd, atol=1e-15)


def test_wave2d_m3_pinned_values():
    p = wave2d(3)
    D3 = np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 2.0]])
    K = p.K.toarray()
    assert np.allclose(K[:3, :3], D3)
    assert np.allclose(K[3:, 3:], D3)
    T2_block = K[:3, 3:]
    assert np.allclose(T2_block, -np.eye(3) + 0.5 * np.outer([0, 0, 1], [0, 0, 1]))
    expected_diag = -(4.0 * np.pi**2 / 9.0) * np.array([1.0, 1.0, 0.5, 1.0, 1.0, 0.5])
    assert np.allclose(np.diag(p.M.toarray()), expected_diag)
    assert p.n == 6


def test_wave2d_nnz_exact():
    for m in (3, 4, 7):
        p = wave2d(m)
        Md, Cd, Kd = wave2d_dense(m)
        assert p.M.nnz == np.count_nonzero(Md)
        assert p.C.nnz == np.count_nonzero(Cd)
        assert p.K.nnz == np.count_nonzero(Kd)


def test_wave2d_dimension_law():
    for m in range(2, 41):
        assert wave2d(m).n == m * (m - 1)


def test_wave2d_mass_nonsingular():
    p = wave2d(6)
    sv = np.linalg.svd(p.M.toarray(), compute_uv=False)
    assert sv[-1] > 1e-3 * sv[0]


def test_wave2d_validation():
    with pytest.raises(ValueError):
        wave2d(1)
    with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
        wave2d(2.5)
    for zeta in (0.0, np.nan, np.inf, complex(np.nan, 1.0)):
        with pytest.raises(ValueError, match="zeta"):
            wave2d(4, zeta=zeta)


def test_spring_maxwell_structure():
    params = SpringMaxwellParams(element_count=6, chain_count=3, seed=2)
    p = spring_maxwell(params)
    ec, cc = 6, 3
    n = ec * (1 + cc)
    assert p.n == n

    # mass: nonzero only in the leading block, rank = element_count
    M = p.M.toarray()
    assert np.count_nonzero(M[ec:, :]) == 0
    assert np.count_nonzero(M[:, ec:]) == 0
    eigs = np.linalg.eigvalsh((M + M.conj().T).real / 2.0)
    assert np.sum(np.abs(eigs) > 1e-10 * np.abs(eigs).max()) == ec

    # stiffness exactly symmetric
    assert (p.K != p.K.T).nnz == 0

    # damping block diagonal with a zero leading block
    C = p.C.toarray()
    assert np.count_nonzero(C[:ec, :]) == 0
    for i in range(cc):
        for j in range(cc):
            if i == j:
                continue
            bi = slice(ec * (1 + i), ec * (2 + i))
            bj = slice(ec * (1 + j), ec * (2 + j))
            assert np.count_nonzero(C[bi, bj]) == 0
    # chain blocks themselves are nonzero
    assert np.count_nonzero(C[ec : 2 * ec, ec : 2 * ec]) > 0


def test_spring_maxwell_mass_singular():
    p = spring_maxwell(SpringMaxwellParams(element_count=5, chain_count=2, seed=0))
    sv = np.linalg.svd(p.M.toarray(), compute_uv=False)
    assert sv[-1] <= 1e-12 * sv[0]


def test_spring_maxwell_deterministic():
    a = spring_maxwell(SpringMaxwellParams(element_count=4, chain_count=2, seed=9))
    b = spring_maxwell(SpringMaxwellParams(element_count=4, chain_count=2, seed=9))
    for x, y in ((a.M, b.M), (a.C, b.C), (a.K, b.K)):
        assert (x != y).nnz == 0


def test_spring_maxwell_explicit_parameters():
    # the coefficients the generator draws from the seed, in its order:
    # rho, alpha_rho, then eta, xi and e with one entry per chain, each
    # log-uniform on [1e-1, 1e1]
    rng = np.random.default_rng(7)
    rho = 10.0 ** rng.uniform(-1.0, 1.0)
    alpha_rho = 10.0 ** rng.uniform(-1.0, 1.0)
    eta, xi, e = (10.0 ** rng.uniform(-1.0, 1.0, 2) for _ in range(3))
    p = spring_maxwell(SpringMaxwellParams(element_count=3, chain_count=2, seed=7))
    assert p.n == 9
    assert (p.K != p.K.T).nnz == 0
    # every 3 x 3 block against its coefficient times one chain block
    stiff, mass = (A.toarray() for A in _chain_matrices(3))
    zero = np.zeros((3, 3))
    expected = {
        "M": [[rho * mass, zero, zero], [zero, zero, zero], [zero, zero, zero]],
        "C": [[zero, zero, zero], [zero, eta[0] * stiff, zero],
              [zero, zero, eta[1] * stiff]],
        "K": [[alpha_rho * stiff, -xi[0] * stiff, -xi[1] * stiff],
              [-xi[0] * stiff, e[0] * stiff, zero],
              [-xi[1] * stiff, zero, e[1] * stiff]],
    }
    for name, blocks in expected.items():
        actual = getattr(p, name).toarray()
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(
                    actual[3 * i:3 * i + 3, 3 * j:3 * j + 3], blocks[i][j],
                    rtol=1e-14, atol=0.0, err_msg=f"{name} block ({i}, {j})",
                )


def test_spring_maxwell_validation():
    # counts and the seed are named instead of failing as a TypeError in
    # numpy or as numpy's seed error
    for args, message in (((2.5, 3), "element_count must be an integer, got 2.5"),
                          ((3, 0), "chain_count must be at least 1, got 0"),
                          ((3, 2, -1), "seed must be at least 0, got -1")):
        with pytest.raises(ValueError, match=message):
            spring_maxwell(SpringMaxwellParams(*args))


def test_random_qep_deterministic():
    a = random_qep(20, density=0.1, seed=5)
    b = random_qep(20, density=0.1, seed=5)
    for x, y in ((a.M, b.M), (a.C, b.C), (a.K, b.K)):
        assert (x != y).nnz == 0


def test_random_qep_mass_nonsingular():
    for seed in range(5):
        p = random_qep(30, density=0.1, seed=seed)
        M = p.M.toarray()
        off = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
        assert np.all(np.abs(np.diag(M)) > off)


def test_random_qep_validation():
    # a density outside (0, 1] is named, not clamped to n entries or
    # failing as an integer conversion of NaN
    for density in (np.nan, -3.0, 0.0, 1.5, np.inf):
        with pytest.raises(ValueError, match="density"):
            random_qep(10, density=density)
    for density in ("0.05", 0.05 + 0j, None):
        with pytest.raises(ValueError, match="density must be a real number"):
            random_qep(10, density=density)
    # counts are named before numpy sees them
    with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
        random_qep(2.5)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        random_qep(10, seed=-1)


def test_random_qep_scalar_roots():
    p = random_qep(1, density=1.0, seed=3)
    m = complex(p.M[0, 0])
    c = complex(p.C[0, 0])
    k = complex(p.K[0, 0])
    roots = np.roots([m, c, k])
    for r in roots:
        assert abs(m * r * r + c * r + k) <= 1e-10 * max(abs(m), abs(c), abs(k))


def test_example1_pinned_matrices():
    p = example1()
    assert np.allclose(p.M.toarray(), [[0, 6, 0], [0, 6, 0], [0, 0, 1]])
    assert np.allclose(p.C.toarray(), [[1, -6, 0], [2, -7, 0], [0, 0, 0]])
    assert np.allclose(p.K.toarray(), np.eye(3))
