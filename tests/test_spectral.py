import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from oracles import nearest_rows_slow, dense_pi
from conftest import arpack_no_convergence, hull_mesh, jittered_icosphere, random_map

from smoothmatch import spectral
from smoothmatch.synth import icosphere
from smoothmatch.spectral import (
    PointwiseMap,
    SpectralBasis,
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


def test_eigensolver_no_convergence_is_runtime_error(monkeypatch):
    # icosphere(3) has 642 vertices, above the dense limit, so ARPACK runs
    monkeypatch.setattr(spectral, "eigsh", arpack_no_convergence)
    mesh = icosphere(3).normalized()
    assert mesh.n_vertices > spectral._DENSE_EIGEN_LIMIT
    with pytest.raises(RuntimeError, match="^eigensolver failed to converge: ARPACK error -1"):
        compute_basis(mesh, 10)


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
    b = sphere2_basis.sliced(20)
    c = p2p_to_fmap(ident, b, b)
    assert np.abs(c - np.eye(20)).max() < 1e-8


def test_constant_map_fmap_structure(rng):
    mesh = hull_mesh(rng, 12)
    basis = compute_basis(mesh, 6)
    q = 5
    pi = PointwiseMap(np.full(mesh.n_vertices, q), mesh.n_vertices)
    c = p2p_to_fmap(pi, basis, basis)
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
        p2p_to_fmap(pi, b_small.sliced(5), b_small)     # k exceeds basis


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


def test_nearest_large_low_dim_matches_bruteforce(rng):
    # 6000 x 5000 pairs in 3-D: exact over 60 query blocks
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


def test_nearest_large_low_dim_ties_to_smaller_index(rng):
    # duplicate rows resolve to the smallest data index in every one of
    # the 52 query blocks of a 5000 x 5100 search
    base = rng.normal(size=(5000, 3))
    data = np.vstack([base, base[:100]])
    out = nearest_rows(base, data)
    assert np.array_equal(out, np.arange(5000))


def test_nearest_memory_bounded_by_score_block(rng):
    # a call holds one float32 score block of at most _CHUNK_PAIRS
    # entries (2 MB), the two float32 screen copies of its operands and a
    # few per-row vectors; at 4 M pairs per block this call peaked at
    # 17.3 MB, at 500 000 at 3.3 MB
    queries = rng.normal(size=(6000, 20))
    data = rng.normal(size=(6000, 20))
    rows = queries.shape[0] + data.shape[0]
    bound = 4 * spectral._CHUNK_PAIRS + 4 * rows * (data.shape[1] + 1) + 64 * rows
    tracemalloc.start()
    try:
        nearest_rows(queries, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert 4 * spectral._CHUNK_PAIRS <= 2_000_000


def test_nearest_permutation_covariant(rng):
    queries = rng.normal(size=(50, 6))
    data = rng.normal(size=(40, 6))
    perm = rng.permutation(40)
    base = nearest_rows(queries, data)
    permuted = nearest_rows(queries, data[perm])
    assert np.array_equal(perm[permuted], base)


def _few_row_blocks(chunk_pairs):
    # the row floor lifted, so that blocks of one to a few rows are taken
    return mock.patch.multiple(spectral, _CHUNK_PAIRS=chunk_pairs, _MIN_BLOCK_ROWS=1)


@st.composite
def _tie_heavy_search(draw):
    """Queries, data and a query block size; small-integer coordinates,
    planted duplicate data rows and queries copied from data rows make
    exact ties common."""
    dim = draw(st.integers(1, 6))
    coords = st.integers(-3, 3).map(float)
    data = draw(arrays(np.float64, (draw(st.integers(1, 30)), dim), elements=coords))
    copies = draw(st.lists(st.integers(0, data.shape[0] - 1), max_size=10))
    data = np.vstack([data, data[copies]])
    data = data[draw(st.permutations(range(data.shape[0])))]
    hits = draw(st.lists(st.integers(0, data.shape[0] - 1), max_size=20))
    free = draw(arrays(np.float64, (draw(st.integers(0, 20)), dim), elements=coords))
    queries = np.vstack([data[hits], free])
    queries = queries[draw(st.permutations(range(queries.shape[0])))]
    return queries, data, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_search())
def test_nearest_equals_cdist_argmin(case):
    queries, data, block_rows = case
    # a chunk size of a few query rows puts tied queries in different blocks
    with _few_row_blocks(block_rows * data.shape[0]):
        out = nearest_rows(queries, data)
    assert np.array_equal(out, cdist(queries, data).argmin(axis=1))
    for q, j in zip(queries, out):
        equal = np.flatnonzero((data == q).all(axis=1))
        if equal.size:
            assert j == equal[0]


def test_nearest_row_floor_binds_on_small_blocks(rng):
    # a chunk of one score would give one-row blocks; the floor makes
    # them 64 rows, and small-integer data with duplicate rows and
    # queries on data rows and their midpoints keeps ties in every block
    data = rng.integers(-3, 4, size=(40, 3)).astype(float)
    data = np.vstack([data, data[:10]])
    queries = np.vstack([data[rng.integers(0, 50, size=100)], _midpoints(rng, data, 100)])
    spy = mock.Mock(wraps=spectral._nearest_in_block)
    with mock.patch.object(spectral, "_CHUNK_PAIRS", 1), \
            mock.patch.object(spectral, "_nearest_in_block", spy):
        out = nearest_rows(queries, data)
    assert [len(call.args[1]) for call in spy.call_args_list] == [64, 64, 64, 8]
    assert np.array_equal(out, cdist(queries, data).argmin(axis=1))


def _assert_cdist_argmin(queries, data, block_rows=3):
    # whole-call and few-row blocks both give cdist's argmin
    expected = cdist(queries, data).argmin(axis=1)
    assert np.array_equal(nearest_rows(queries, data), expected)
    with _few_row_blocks(block_rows * data.shape[0]):
        assert np.array_equal(nearest_rows(queries, data), expected)


def _midpoints(rng, data, count):
    i, j = rng.integers(0, data.shape[0], size=(2, count))
    return (data[i] + data[j]) / 2.0


@pytest.mark.parametrize("perturb", [
    lambda x: np.nextafter(x, np.inf),
    lambda x: x * (1.0 + 1e-15),
], ids=["one_ulp", "relative_1e-15"])
def test_nearest_perturbed_copies_at_midpoints(perturb):
    # every data row has a copy a rounding error away; queries sit halfway
    rng = np.random.default_rng(1)
    base = rng.normal(size=(60, 7))
    data = np.vstack([base, perturb(base)])[rng.permutation(120)]
    queries = np.vstack([(base + perturb(base)) / 2.0, base, perturb(base)])
    _assert_cdist_argmin(queries, data)


def test_nearest_midpoints_of_data_rows():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(200, 11))
    _assert_cdist_argmin(_midpoints(rng, data, 300), data)


def test_nearest_common_offset_far_beyond_spread():
    # |q|^2 and |x|^2 dwarf the squared distances, so the margin admits
    # many candidates and the cdist re-score decides
    rng = np.random.default_rng(3)
    data = rng.normal(size=(150, 4)) + 1e6
    queries = np.vstack([_midpoints(rng, data, 100), rng.normal(size=(50, 4)) + 1e6])
    _assert_cdist_argmin(queries, data)


@pytest.mark.parametrize("dim", [3, 23, 103])
@pytest.mark.parametrize("scale", [1e-8, 1e8, 1e-160])
def test_nearest_extreme_scales(scale, dim):
    # at 1e-160 the products underflow to subnormals, and the margin's
    # absolute term is what keeps the nearest rows among the candidates
    rng = np.random.default_rng(dim)
    data = scale * rng.normal(size=(150, dim))
    data[75:] = np.nextafter(data[:75], np.inf)
    queries = np.vstack([_midpoints(rng, data, 100), scale * rng.normal(size=(50, dim))])
    _assert_cdist_argmin(queries, data)


def test_nearest_sphere_centre_ties_every_row():
    # the origin is equidistant from every icosphere vertex up to rounding,
    # so every row is a candidate and the cdist re-score picks the answer
    data = icosphere(4).vertices
    queries = np.zeros((5, 3))
    with mock.patch.object(spectral, "cdist", wraps=cdist) as rescore:
        _assert_cdist_argmin(queries, data)
    assert rescore.call_count == 2 * len(queries)


def test_nearest_non_finite_query_rows():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(30, 3))
    data[0] = -1.0      # a finite constant row; only the queries are non-finite
    queries = rng.normal(size=(8, 3))
    queries[1, 0] = np.nan
    queries[4, 2] = np.inf
    queries[6] = -np.inf
    _assert_cdist_argmin(queries, data)


@pytest.mark.parametrize("dim", [5, 43])
@pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e-22, 1e-20, 1e20, 1e154, 1e300])
def test_nearest_uniform_scales(scale, dim):
    # beyond 1e154 and below 1e-170 cdist's own squares overflow to inf or
    # underflow to 0 and tie, so only cdist reproduces its argmin there;
    # 1e-22 to 1e20 leave float32's normal range but not float64's, and
    # at 1e-22 the screened products are float32 subnormals
    rng = np.random.default_rng(dim)
    data = scale * rng.normal(size=(150, dim))
    queries = np.vstack([_midpoints(rng, data, 50), scale * rng.normal(size=(50, dim))])
    _assert_cdist_argmin(queries, data)


def test_nearest_queries_beyond_float32_range():
    # a coordinate of 1e39 is inf in float32: the first query screens row
    # 17 at -inf and every other row at +inf, while cdist ties all rows
    rng = np.random.default_rng(6)
    data = rng.normal(size=(30, 3))
    data[:, 0] = -np.abs(data[:, 0]) - 0.1
    data[17, 0] = 1.0
    queries = np.vstack([[1e39, 0.0, 0.0], 1e39 * rng.normal(size=(5, 3)),
                         1e20 * rng.normal(size=(5, 3))])
    _assert_cdist_argmin(queries, data)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nearest_non_finite_data_row(value):
    rng = np.random.default_rng(5)
    data = rng.normal(size=(30, 4))
    data[7, 2] = value
    queries = np.vstack([rng.normal(size=(10, 4)), data[5:9]])
    _assert_cdist_argmin(queries, data)


def test_nearest_screen_decides_most_rows():
    # an exact margin that admitted many candidates would re-score most
    # rows with cdist; on a jittered sphere nearly every row has one
    data, jittered = jittered_icosphere(3, 0.25, seed=7)
    queries = jittered.vertices
    with mock.patch.object(spectral, "cdist", wraps=cdist) as rescore:
        out = nearest_rows(queries, data.vertices)
    assert np.array_equal(out, cdist(queries, data.vertices).argmin(axis=1))
    assert rescore.call_count < 0.1 * len(queries)


_THREAD_CASE = """
import sys
import numpy as np
from smoothmatch.spectral import nearest_rows

rng = np.random.default_rng(43)
data = rng.normal(size=(3000, 43))
data[2000:2500] = np.nextafter(data[:500], np.inf)
pairs = rng.integers(0, 3000, size=(2, 1500))
queries = np.vstack([(data[pairs[0]] + data[pairs[1]]) / 2.0,
                     (data[:500] + data[2000:2500]) / 2.0,
                     rng.normal(size=(1000, 43))])
np.save(sys.argv[1], queries)
np.save(sys.argv[2], data)
np.save(sys.argv[3], nearest_rows(queries, data))
"""


def test_nearest_independent_of_blas_threads(tmp_path):
    # the GEMM screen runs on BLAS threads; under one thread and under two
    # the result is cdist's argmin
    src = str(Path(spectral.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        files = [tmp_path / ("%s-%s.npy" % (name, threads)) for name in ("q", "x", "idx")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", _THREAD_CASE, *map(str, files)],
                       env=env, check=True)
        queries, data, idx = (np.load(f) for f in files)
        outputs.append(idx)
    expected = cdist(queries, data).argmin(axis=1)
    assert all(np.array_equal(idx, expected) for idx in outputs)


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


# ----------------------------------------------------------------------
# input checks
# ----------------------------------------------------------------------
def _area_of_3(mesh, value):
    # the lumped areas with vertex 3's replaced by value
    areas = mesh.vertex_areas.copy()
    areas[3] = value
    return areas


@pytest.mark.parametrize("call, message", [
    (lambda m, b: SpectralBasis(np.zeros((4, 2)), np.zeros(3), np.ones(4)),
     "inconsistent basis shapes"),
    (lambda m, b: SpectralBasis(np.zeros((4, 2)), np.zeros(2), np.ones(5)),
     "inconsistent basis shapes"),
    (lambda m, b: PointwiseMap(np.zeros((2, 2), dtype=int), 3),
     "target_of must be one-dimensional"),
    (lambda m, b: PointwiseMap([0, 1], 2).compose(PointwiseMap([0, 0, 0], 1)),
     "maps are not composable"),
    (lambda m, b: eigenbasis(m.cot_matrix, m.vertex_areas, 0), "k must be positive"),
    (lambda m, b: eigenbasis(m.cot_matrix, _area_of_3(m, 0.0), 5),
     "mass matrix must be positive (isolated vertices?)"),
    (lambda m, b: eigenbasis(m.cot_matrix, -m.vertex_areas, 5),
     "mass matrix must be positive (isolated vertices?)"),
    (lambda m, b: eigenbasis(m.cot_matrix, _area_of_3(m, np.nan), 5),
     "mass matrix must be positive (isolated vertices?)"),
    (lambda m, b: fmap_to_p2p(np.zeros((6, 5)), b.sliced(5), b.sliced(5)),
     "functional map larger than the stored bases"),
    (lambda m, b: fmap_to_p2p(np.zeros((5, 6)), b.sliced(5), b.sliced(5)),
     "functional map larger than the stored bases"),
], ids=["basis_phi_cols", "basis_areas", "map_2d", "compose", "k_zero", "zero_area",
        "negative_areas", "nan_area", "fmap_rows", "fmap_cols"])
def test_spectral_input_errors(sphere2, sphere2_basis, call, message):
    with pytest.raises(ValueError) as exc:
        call(sphere2, sphere2_basis)
    assert str(exc.value) == message
