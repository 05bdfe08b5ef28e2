import numpy as np
import pytest

from oracles import nearest_rows_slow, dense_pi
from conftest import hull_mesh, random_map

from smoothmatch import spectral
from smoothmatch.spectral import (
    PointwiseMap,
    compute_basis,
    eigenbasis,
    fmap_to_p2p,
    nearest_rows,
    p2p_to_fmap,
)


# ----------------------------------------------------------------------
# eigenbasis
# ----------------------------------------------------------------------
def test_constant_first_eigenfunction(sphere2, sphere2_basis):
    b = sphere2_basis
    assert b.lam[0] < 1e-8
    # unit-area mesh: the A-normalized constant is +1 after sign fixing
    assert np.allclose(b.phi[:, 0], 1.0, atol=1e-6)


def test_orthonormality_and_residuals(sphere2, sphere2_basis):
    b = sphere2_basis
    gram = b.phi.T @ (b.areas[:, None] * b.phi)
    assert np.abs(gram - np.eye(b.k)).max() < 1e-8
    w = sphere2.cot_matrix
    for j in range(b.k):
        resid = w @ b.phi[:, j] - b.lam[j] * b.areas * b.phi[:, j]
        assert np.linalg.norm(resid) < 1e-6 * np.linalg.norm(b.areas * b.phi[:, j])


def test_eigenvalues_nondecreasing(sphere2_basis):
    assert np.all(np.diff(sphere2_basis.lam) > -1e-10)


def test_sphere_spectrum_multiplicities(sphere4_basis):
    # spherical harmonics: eigenvalue 4*pi*l*(l+1) on the unit-area
    # sphere with multiplicity 2l+1, so k=16 groups as 1, 3, 5, 7
    lam = sphere4_basis.lam[:16]
    groups = [lam[0:1], lam[1:4], lam[4:9], lam[9:16]]
    for ell, grp in enumerate(groups):
        if ell == 0:
            assert abs(grp[0]) < 1e-8
            continue
        spread = (grp.max() - grp.min()) / grp.mean()
        assert spread < 0.05
        analytic = 4.0 * np.pi * ell * (ell + 1)
        assert abs(grp.mean() - analytic) / analytic < 0.05


def test_k_too_large(sphere2):
    with pytest.raises(ValueError):
        compute_basis(sphere2, sphere2.n_vertices)


def test_eigenbasis_deterministic(sphere4):
    b1 = compute_basis(sphere4, 24)
    b2 = compute_basis(sphere4, 24)
    assert np.array_equal(b1.phi, b2.phi)
    assert np.array_equal(b1.lam, b2.lam)


def test_dense_and_sparse_paths_agree(rng):
    # a mesh right at the dense cutoff, solved both ways
    mesh = hull_mesh(rng, 120)
    b_dense = eigenbasis(mesh.cot_matrix, mesh.vertex_areas, 10)
    from scipy.sparse.linalg import eigsh
    from scipy import sparse
    v0 = np.random.default_rng(0).uniform(-1, 1, mesh.n_vertices)
    lam, _ = eigsh(mesh.cot_matrix.tocsc(), k=10, M=sparse.diags(mesh.vertex_areas).tocsc(),
                   sigma=-1e-8, which="LM", v0=v0)
    assert np.allclose(np.sort(lam), b_dense.lam, rtol=1e-6, atol=1e-8)


def test_sliced_view(sphere2_basis):
    s = sphere2_basis.sliced(7)
    assert s.k == 7
    assert np.shares_memory(s.phi, sphere2_basis.phi)
    with pytest.raises(ValueError):
        sphere2_basis.sliced(101)


# ----------------------------------------------------------------------
# map conversions
# ----------------------------------------------------------------------
def test_identity_map_gives_identity_fmap(sphere2, sphere2_basis):
    n = sphere2.n_vertices
    ident = PointwiseMap(np.arange(n), n)
    c = p2p_to_fmap(ident, sphere2_basis, sphere2_basis, 20, 20)
    assert np.abs(c - np.eye(20)).max() < 1e-8


def test_constant_map_fmap_structure(rng):
    mesh = hull_mesh(rng, 12)
    basis = compute_basis(mesh, 6)
    q = 5
    pi = PointwiseMap(np.full(mesh.n_vertices, q), mesh.n_vertices)
    c = p2p_to_fmap(pi, basis, basis, 6, 6)
    dense = basis.phi.T @ np.diag(basis.areas) @ dense_pi(pi) @ basis.phi
    assert np.abs(c - dense).max() < 1e-12
    # rank one: (Phi^T A 1) outer Phi[q]
    expected = np.outer(basis.phi.T @ basis.areas, basis.phi[q])
    assert np.abs(c - expected).max() < 1e-12


def test_fmap_identity_recovers_identity(sphere2, sphere2_basis):
    n = sphere2.n_vertices
    pi = fmap_to_p2p(np.eye(30), sphere2_basis, sphere2_basis)
    assert np.array_equal(pi.target_of, np.arange(n))


def test_fmap_to_p2p_matches_bruteforce(rng):
    m1 = hull_mesh(rng, 10)
    m2 = hull_mesh(rng, 11)
    b1 = compute_basis(m1, 5)
    b2 = compute_basis(m2, 5)
    c = rng.normal(size=(5, 5))
    pi = fmap_to_p2p(c, b1, b2)
    expected = nearest_rows_slow(b1.phi @ c, b2.phi)
    assert np.array_equal(pi.target_of, expected)


def test_permutation_recovered_at_full_spectrum(rng):
    from smoothmatch.synth import icosphere

    mesh = icosphere(1).normalized()
    n = mesh.n_vertices
    basis = compute_basis(mesh, n - 1)
    perm = rng.permutation(n)
    pi = PointwiseMap(perm, n)
    c = p2p_to_fmap(pi, basis, basis)
    recovered = fmap_to_p2p(c, basis, basis)
    assert np.array_equal(recovered.target_of, perm)


def test_roundtrip_high_k_mostly_exact(rng):
    m1 = hull_mesh(rng, 130)
    m2 = hull_mesh(rng, 150)
    b1 = compute_basis(m1, m1.n_vertices - 1)
    b2 = compute_basis(m2, m2.n_vertices - 1)
    pi = random_map(rng, m1, m2)
    back = fmap_to_p2p(p2p_to_fmap(pi, b1, b2), b1, b2)
    agree = np.mean(back.target_of == pi.target_of)
    assert agree >= 0.99


def test_dimension_checks(sphere2, sphere2_basis, rng):
    small = hull_mesh(rng, 10)
    b_small = compute_basis(small, 4)
    pi = PointwiseMap(np.zeros(small.n_vertices, dtype=int), small.n_vertices)
    with pytest.raises(ValueError):
        p2p_to_fmap(pi, sphere2_basis, b_small)     # map/basis mismatch
    with pytest.raises(ValueError):
        p2p_to_fmap(pi, b_small, b_small, 5, 4)     # k exceeds basis


# ----------------------------------------------------------------------
# nearest rows
# ----------------------------------------------------------------------
def test_nearest_exact_match():
    data = np.arange(15.0).reshape(5, 3)
    assert nearest_rows(data[3][None, :], data)[0] == 3


def test_nearest_matches_bruteforce(rng):
    queries = rng.normal(size=(1000, 20))
    data = rng.normal(size=(300, 20))
    fast = nearest_rows(queries, data)
    slow = np.array(
        [np.argmin(((q - data) ** 2).sum(axis=1)) for q in queries]
    )
    assert np.array_equal(fast, slow)


def test_nearest_tree_path_matches_bruteforce(rng):
    # low dimension and enough pairs to exercise the k-d tree branch
    queries = rng.normal(size=(6000, 3))
    data = rng.normal(size=(5000, 3))
    fast = nearest_rows(queries, data)
    slow = np.array([np.argmin(((q - data) ** 2).sum(axis=1)) for q in queries])
    assert np.array_equal(fast, slow)


def test_nearest_tie_breaks_to_smaller_index():
    data = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    out = nearest_rows(np.array([[1.0, 0.0], [0.6, 0.6]]), data)
    assert out[0] == 0
    assert out[1] in (0, 1)


def test_nearest_tie_break_tree_path(rng):
    # duplicate rows in the tree branch must also resolve to the
    # smallest data index; 5000 x 5100 pairs exceed the brute-force limit
    base = rng.normal(size=(5000, 3))
    data = np.vstack([base, base[:100]])
    assert base.shape[0] * data.shape[0] > spectral._BRUTE_FORCE_PAIRS
    out = nearest_rows(base, data)
    assert np.array_equal(out, np.arange(5000))


def test_nearest_permutation_covariant(rng):
    queries = rng.normal(size=(50, 6))
    data = rng.normal(size=(40, 6))
    perm = rng.permutation(40)
    base = nearest_rows(queries, data)
    permuted = nearest_rows(queries, data[perm])
    assert np.array_equal(perm[permuted], base)


def test_nearest_errors(rng):
    with pytest.raises(ValueError, match="empty"):
        nearest_rows(np.zeros((2, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        nearest_rows(np.zeros((2, 3)), np.zeros((4, 2)))


# ----------------------------------------------------------------------
# PointwiseMap
# ----------------------------------------------------------------------
def test_pointwise_map_validation():
    with pytest.raises(ValueError):
        PointwiseMap([0, 5], 3)
    pi = PointwiseMap([2, 0, 1], 3)
    assert pi.n_src == 3
    assert np.array_equal(pi.pull(np.array([10.0, 11.0, 12.0])), [12.0, 10.0, 11.0])


def test_pointwise_map_compose():
    a = PointwiseMap([1, 2, 0], 3)
    b = PointwiseMap([2, 0, 1], 3)
    assert np.array_equal(a.compose(b).target_of, [0, 1, 2])
