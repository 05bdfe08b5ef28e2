import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from conftest import hull_mesh, random_map, two_spheres
from oracles import conformal_slow, lookup_calls_reference

from smoothmatch import metrics
from smoothmatch.energies import dirichlet_energy
from smoothmatch.mesh import TriMesh, geodesic_distances
from smoothmatch.metrics import (
    accuracy_metric,
    bijectivity_metric,
    compute_report,
    conformal_distortion,
    coverage_metric,
    smoothness_metric,
)
from smoothmatch.spectral import PointwiseMap
from smoothmatch.synth import icosphere


def identity_map(mesh):
    return PointwiseMap(np.arange(mesh.n_vertices), mesh.n_vertices)


def grid_strip(nx, ny, h=1.0):
    """Regular triangulated grid patch with spacing h."""
    xs, ys = np.meshgrid(np.arange(nx) * h, np.arange(ny) * h, indexing="ij")
    verts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(nx * ny)])
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j
            b = (i + 1) * ny + j
            faces.append([a, b, a + 1])
            faces.append([b, b + 1, a + 1])
    return TriMesh(verts, faces)


# ----------------------------------------------------------------------
# accuracy
# ----------------------------------------------------------------------
def test_accuracy_zero_on_ground_truth(sphere2, rng):
    pi = random_map(rng, sphere2, sphere2)
    gt_src = np.arange(sphere2.n_vertices)
    assert accuracy_metric(pi, gt_src, pi.target_of, sphere2) == 0.0


def test_accuracy_one_ring_shift_on_grid():
    mesh = grid_strip(6, 4, h=0.25)
    n = mesh.n_vertices
    # shift every vertex one column in +x, clamping the last column
    idx = np.arange(n)
    i, j = np.divmod(idx, 4)
    shifted = np.where(i < 5, idx + 4, idx)
    pi = PointwiseMap(shifted, n)
    gt = np.arange(n)
    moved = (i < 5).sum()
    expected = 100.0 * 0.25 * moved / n
    got = accuracy_metric(pi, gt, gt, mesh)
    assert got == pytest.approx(expected, rel=1e-12)


def test_accuracy_sparse_ground_truth(sphere2, rng):
    pi = identity_map(sphere2)
    gt_src = np.array([3, 50, 99])
    gt_tgt = np.array([3, 50, 99])
    assert accuracy_metric(pi, gt_src, gt_tgt, sphere2) == 0.0
    # only listed vertices are scored
    pi2 = PointwiseMap(np.roll(np.arange(sphere2.n_vertices), 1), sphere2.n_vertices)
    partial = accuracy_metric(pi2, gt_src, gt_tgt, sphere2)
    d = geodesic_distances(sphere2, pi2.target_of[gt_src])
    expected = 100.0 * np.mean([d[k, gt_tgt[k]] for k in range(3)])
    assert partial == pytest.approx(expected, rel=1e-12)


def test_accuracy_empty_gt(sphere2):
    with pytest.raises(ValueError, match="empty"):
        accuracy_metric(identity_map(sphere2), np.array([]), np.array([]), sphere2)


# ----------------------------------------------------------------------
# bijectivity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gt_src, gt_tgt", [
    ([-1], [3]),                         # negative index would wrap around
    ([1], [999]),                        # past the last target vertex
    (np.arange(167), np.arange(167)),    # full map longer than the mesh
    ([0, 1], [0]),                       # lengths differ
], ids=["negative", "past_target", "full_map_too_long", "length_mismatch"])
def test_accuracy_rejects_bad_ground_truth(sphere2, gt_src, gt_tgt):
    with pytest.raises(ValueError, match="ground.truth"):
        accuracy_metric(identity_map(sphere2), gt_src, gt_tgt, sphere2)


def test_geodesic_metrics_reject_maps_that_do_not_fit(sphere2):
    # a map onto more vertices than the mesh has names vertices the mesh
    # lacks; both geodesic metrics raise ValueError before any lookup
    n = sphere2.n_vertices
    wide = PointwiseMap(np.full(n, n + 5), n + 10)
    back = PointwiseMap(np.zeros(n + 10, dtype=np.int64), n)
    with pytest.raises(ValueError, match="target mesh has"):
        accuracy_metric(wide, np.arange(n), np.arange(n), sphere2)
    with pytest.raises(ValueError, match="does not fit"):
        bijectivity_metric(wide, back, sphere2, sphere2)


def test_bijectivity_zero_for_inverse_permutations(rng):
    mesh = hull_mesh(rng, 40)
    perm = rng.permutation(mesh.n_vertices)
    inv = np.argsort(perm)
    pi_12 = PointwiseMap(perm, mesh.n_vertices)
    pi_21 = PointwiseMap(inv, mesh.n_vertices)
    assert bijectivity_metric(pi_12, pi_21, mesh, mesh) == 0.0


def test_bijectivity_constant_maps_closed_form(rng):
    m1, m2 = hull_mesh(rng, 25), hull_mesh(rng, 25)
    q, p = 7, 3
    pi_12 = PointwiseMap(np.full(m1.n_vertices, q), m2.n_vertices)
    pi_21 = PointwiseMap(np.full(m2.n_vertices, p), m1.n_vertices)
    got = bijectivity_metric(pi_12, pi_21, m1, m2)
    d1 = geodesic_distances(m1, [p])[0]
    d2 = geodesic_distances(m2, [q])[0]
    expected = 100.0 * 0.5 * (d1.mean() + d2.mean())
    assert got == pytest.approx(expected, rel=1e-12)


def test_bijectivity_matches_bruteforce(rng):
    m1, m2 = hull_mesh(rng, 30), hull_mesh(rng, 28)
    pi_12 = random_map(rng, m1, m2)
    pi_21 = random_map(rng, m2, m1)
    got = bijectivity_metric(pi_12, pi_21, m1, m2)
    d1 = geodesic_distances(m1, np.arange(m1.n_vertices))
    d2 = geodesic_distances(m2, np.arange(m2.n_vertices))
    acc1 = np.mean([d1[pi_21.target_of[pi_12.target_of[p]], p] for p in range(m1.n_vertices)])
    acc2 = np.mean([d2[pi_12.target_of[pi_21.target_of[q]], q] for q in range(m2.n_vertices)])
    assert got == pytest.approx(100.0 * 0.5 * (acc1 + acc2), rel=1e-9)


# ----------------------------------------------------------------------
# distance lookup
# ----------------------------------------------------------------------
def traced_lookup(mesh, from_idx, to_idx):
    """``_distance_lookup`` with the ``(sources, limit, block size)`` of
    every Dijkstra call it made, local or whole-mesh."""
    calls = []

    def spy(mesh, sources, limit=np.inf, within=None):
        block = geodesic_distances(mesh, sources, limit=limit, within=within)
        calls.append((np.asarray(sources), limit, block.size))
        return block

    with mock.patch.object(metrics, "geodesic_distances", spy):
        d = metrics._distance_lookup(mesh, from_idx, to_idx)
    return d, calls


def assert_lookup_exact(mesh, from_idx, to_idx):
    # bit-for-bit against one unbounded Dijkstra per distinct source,
    # inf positions included; every block within the entry budget
    # unless it is a single row; and each pass searches each source
    # once, exactly the sources with a pair beyond the last pass's limit
    d, calls = traced_lookup(mesh, from_idx, to_idx)
    uniq, inverse = np.unique(from_idx, return_inverse=True)
    expected = geodesic_distances(mesh, uniq)[inverse, to_idx]
    assert np.array_equal(d.view(np.int64), expected.view(np.int64))
    for sources, _, size in calls:
        assert len(sources) == 1 or size <= metrics._BLOCK_ENTRIES
    beyond = np.asarray(from_idx) != np.asarray(to_idx)
    for limit in dict.fromkeys(limit for _, limit, _ in calls):
        searched = np.concatenate([s for s, lim, _ in calls if lim == limit])
        assert np.array_equal(np.sort(searched), np.unique(np.asarray(from_idx)[beyond]))
        beyond &= expected > limit
    return calls


def test_lookup_identity_runs_no_dijkstra(sphere2):
    ident = np.arange(sphere2.n_vertices)
    assert assert_lookup_exact(sphere2, ident, ident) == []


def test_lookup_antipodal_runs_every_pass():
    sphere = icosphere(3)
    anti = np.argmin(sphere.vertices @ sphere.vertices.T, axis=1)
    calls = assert_lookup_exact(sphere, np.arange(sphere.n_vertices), anti)
    edge = sphere.edge_lengths.mean()
    limits = [limit for _, limit, _ in calls]
    assert limits == sorted(limits)
    assert list(dict.fromkeys(limits)) == [4.0 * edge, 8.0 * edge, np.inf]
    # a pass is several calls; it re-runs only sources with a pair
    # still beyond the last limit
    passes = [np.concatenate([s for s, lim, _ in calls if lim == limit])
              for limit in dict.fromkeys(limits)]
    assert all(np.isin(b, a).all() for a, b in zip(passes, passes[1:]))


def test_lookup_bounded_pass_searches_local_subgraphs():
    # pairs along edges all resolve in the first pass, whose blocks are
    # narrower than the mesh: each group of sources searches only the
    # vertices near it
    sphere = icosphere(4)
    e = sphere.edges
    calls = assert_lookup_exact(sphere, e[:, 0], e[:, 1])
    assert len(calls) > 1
    assert {limit for _, limit, _ in calls} == {4.0 * sphere.edge_lengths.mean()}
    assert all(size <= len(s) * sphere.n_vertices // 2 for s, _, size in calls)


@st.composite
def _displaced_maps(draw):
    """A hull mesh and pairs whose targets are their sources' vertices
    moved by 0-10 mean edge lengths, snapped to the nearest vertex."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mesh = hull_mesh(rng, draw(st.integers(20, 2000)))
    edges = draw(st.floats(0.0, 10.0))
    from_idx = rng.integers(0, mesh.n_vertices, draw(st.integers(1, 600)))
    step = rng.normal(size=(from_idx.size, 3))
    step *= edges * mesh.edge_lengths.mean() / np.linalg.norm(step, axis=1, keepdims=True)
    to_idx = cKDTree(mesh.vertices).query(mesh.vertices[from_idx] + step)[1]
    return mesh, from_idx, to_idx


@settings(max_examples=60, deadline=None)
@given(_displaced_maps())
def test_lookup_displaced_maps(case):
    assert_lookup_exact(*case)


def test_lookup_random_map(rng):
    mesh = hull_mesh(rng, 300)
    from_idx = rng.integers(0, mesh.n_vertices, 700)
    to_idx = rng.integers(0, mesh.n_vertices, 700)
    to_idx[:50] = from_idx[:50]
    assert_lookup_exact(mesh, from_idx, to_idx)


def test_lookup_cross_component_pairs(rng):
    mesh = two_spheres()
    from_idx = rng.integers(0, mesh.n_vertices, 500)
    to_idx = rng.integers(0, mesh.n_vertices, 500)
    calls = assert_lookup_exact(mesh, from_idx, to_idx)
    # a pair across components is beyond every bounded limit, so only
    # the unbounded pass can leave it inf
    assert calls[-1][1] == np.inf


def test_lookup_ends_on_zero_lengths(rng):
    # coincident vertices make the mean edge length, and so every
    # bounded limit, zero: only the unbounded pass runs
    sphere = icosphere(2)
    mesh = TriMesh(np.zeros_like(sphere.vertices), sphere.faces)
    calls = assert_lookup_exact(mesh, rng.integers(0, mesh.n_vertices, 300),
                                rng.integers(0, mesh.n_vertices, 300))
    assert calls and {limit for _, limit, _ in calls} == {np.inf}


def test_lookup_ends_on_overflowing_extent(rng):
    # two copies at x = +-1e308: every edge is finite, but the bounding
    # box's extent overflows, so no grid is built and only the unbounded
    # pass runs, without a warning
    mesh = _far_copies()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        calls = assert_lookup_exact(mesh, rng.integers(0, mesh.n_vertices, 200),
                                    rng.integers(0, mesh.n_vertices, 200))
    assert calls and {limit for _, limit, _ in calls} == {np.inf}


def test_lookup_one_row_chunks(rng):
    mesh = hull_mesh(rng, 120)
    from_idx = rng.integers(0, mesh.n_vertices, 400)
    to_idx = rng.integers(0, mesh.n_vertices, 400)
    with mock.patch.object(metrics, "_BLOCK_ENTRIES", 1):
        calls = assert_lookup_exact(mesh, from_idx, to_idx)
    assert {len(sources) for sources, _, _ in calls} == {1}


def _displaced_pairs(mesh, edges, count=None):
    """Pairs from ``count`` random vertices of ``mesh`` (every vertex by
    default) to the vertex nearest to each moved by ``edges`` mean edge
    lengths."""
    rng = np.random.default_rng(5)
    from_idx = (np.arange(mesh.n_vertices) if count is None
                else rng.choice(mesh.n_vertices, count, replace=False))
    step = rng.normal(size=(from_idx.size, 3))
    step *= edges * mesh.edge_lengths.mean() / np.linalg.norm(step, axis=1, keepdims=True)
    return mesh, from_idx, cKDTree(mesh.vertices).query(mesh.vertices[from_idx] + step)[1]


def _hull(n):
    return hull_mesh(np.random.default_rng(n), n)


def _antipodes():
    sphere = icosphere(3)
    return sphere, np.arange(sphere.n_vertices), np.argmin(sphere.vertices @ sphere.vertices.T, axis=1)


def _random_pairs(mesh, seed=3, count=300):
    rng = np.random.default_rng(seed)
    return mesh, rng.integers(0, mesh.n_vertices, count), rng.integers(0, mesh.n_vertices, count)


def _far_copies():
    """Two icosphere(2) copies at x = +-1e308."""
    sphere = icosphere(2)
    return TriMesh(np.vstack([sphere.vertices + [1e308, 0, 0], sphere.vertices - [1e308, 0, 0]]),
                   np.vstack([sphere.faces, sphere.faces + sphere.n_vertices]))


@pytest.mark.parametrize("case, block_entries", [
    pytest.param(lambda: _displaced_pairs(_hull(300), 2.0), 500_000, id="hull300-2edges"),
    pytest.param(lambda: _displaced_pairs(_hull(300), 6.0), 500_000, id="hull300-6edges"),
    pytest.param(lambda: _displaced_pairs(_hull(340), 2.0), 500_000, id="hull340-2edges"),
    pytest.param(lambda: _displaced_pairs(_hull(340), 6.0), 500_000, id="hull340-6edges"),
    pytest.param(lambda: _displaced_pairs(_hull(340), 6.0), 2_000, id="hull340-6edges-runs"),
    pytest.param(lambda: _displaced_pairs(icosphere(4), 3.0, 500), 500_000,
                 id="icosphere4-3edges"),
    pytest.param(_antipodes, 500_000, id="antipodes"),
    pytest.param(lambda: _random_pairs(two_spheres()), 500_000, id="two_components"),
    pytest.param(lambda: _random_pairs(TriMesh(np.zeros((162, 3)), icosphere(2).faces)),
                 500_000, id="zero_lengths"),
    pytest.param(lambda: _random_pairs(_far_copies()), 500_000, id="overflowing_extent"),
])
def test_lookup_calls_match_reference(case, block_entries):
    # the lookup makes the Dijkstra calls of the frozen reference: the
    # same sources, limits and subgraphs, in the same order; a search on
    # the whole mesh counts as one within every vertex
    mesh, from_idx, to_idx = case()
    calls = []

    def spy(mesh, sources, limit=np.inf, within=None):
        calls.append((np.asarray(sources), limit,
                      np.arange(mesh.n_vertices) if within is None else np.asarray(within)))
        return geodesic_distances(mesh, sources, limit=limit, within=within)

    with mock.patch.object(metrics, "geodesic_distances", spy), \
            mock.patch.object(metrics, "_BLOCK_ENTRIES", block_entries):
        metrics._distance_lookup(mesh, from_idx, to_idx)
    expected = lookup_calls_reference(mesh, from_idx, to_idx, block_entries)
    assert len(calls) == len(expected)
    for (sources, limit, within), (ref_sources, ref_limit, ref_within) in zip(calls, expected):
        assert np.array_equal(sources, ref_sources)
        assert limit == ref_limit
        assert np.array_equal(within, ref_within)


# ----------------------------------------------------------------------
# smoothness
# ----------------------------------------------------------------------
def test_smoothness_constant_map_zero(sphere2):
    pi = PointwiseMap(np.full(sphere2.n_vertices, 11), sphere2.n_vertices)
    assert abs(smoothness_metric(pi, sphere2, sphere2)) < 1e-12


def test_smoothness_identity_is_embedding_energy(sphere2):
    pi = identity_map(sphere2)
    expected = dirichlet_energy(sphere2.vertices, sphere2.cot_matrix)
    assert smoothness_metric(pi, sphere2, sphere2) == pytest.approx(expected, rel=1e-12)


def test_smoothness_matches_edge_sum(rng):
    from oracles import dirichlet_slow

    m1, m2 = hull_mesh(rng, 25), hull_mesh(rng, 25)
    pi = random_map(rng, m1, m2)
    got = smoothness_metric(pi, m1, m2)
    want = dirichlet_slow(pi.pull(m2.vertices), m1)
    assert got == pytest.approx(want, rel=1e-9)


# ----------------------------------------------------------------------
# coverage
# ----------------------------------------------------------------------
def test_coverage_bijection_full(rng):
    mesh = hull_mesh(rng, 30)
    perm = rng.permutation(mesh.n_vertices)
    assert coverage_metric(PointwiseMap(perm, mesh.n_vertices), mesh.vertex_areas) == 100.0


def test_coverage_constant_map(rng):
    mesh = hull_mesh(rng, 30)
    q = 5
    pi = PointwiseMap(np.full(mesh.n_vertices, q), mesh.n_vertices)
    areas = mesh.vertex_areas
    assert coverage_metric(pi, areas) == pytest.approx(
        100.0 * areas[q] / areas.sum(), rel=1e-12
    )


def test_coverage_matches_bruteforce(rng):
    m1, m2 = hull_mesh(rng, 50), hull_mesh(rng, 50)
    pi = random_map(rng, m1, m2)
    areas = m2.vertex_areas
    want = 100.0 * sum(areas[t] for t in set(pi.target_of.tolist())) / areas.sum()
    assert coverage_metric(pi, areas) == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------------
# conformal distortion
# ----------------------------------------------------------------------
def test_conformal_identity(sphere2):
    assert conformal_distortion(identity_map(sphere2), sphere2, sphere2) == pytest.approx(
        1.0, abs=1e-12
    )


def test_conformal_uniform_scaling(rng):
    mesh = hull_mesh(rng, 30, normalize=False)
    scaled = TriMesh(2.5 * mesh.vertices, mesh.faces)
    assert conformal_distortion(identity_map(mesh), mesh, scaled) == pytest.approx(
        1.0, abs=1e-12
    )


def test_conformal_anisotropic_stretch():
    mesh = grid_strip(5, 5, h=0.5)
    stretched = TriMesh(mesh.vertices * np.array([2.0, 1.0, 1.0]), mesh.faces)
    got = conformal_distortion(identity_map(mesh), mesh, stretched)
    assert got == pytest.approx(2.0, rel=1e-12)


def test_conformal_collapsed_faces_counted(sphere2):
    pi = PointwiseMap(np.full(sphere2.n_vertices, 0), sphere2.n_vertices)
    mean, collapsed = conformal_distortion(pi, sphere2, sphere2, return_collapsed=True)
    assert collapsed == sphere2.n_faces


@st.composite
def _conformal_cases(draw):
    # hull meshes with noisy, random and constant maps, so that faces
    # collapse (repeated image vertices) as well as stretch
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = hull_mesh(rng, draw(st.integers(8, 200)))
    tgt = TriMesh(src.vertices * rng.uniform(0.5, 2.0, 3), src.faces)
    n = src.n_vertices
    target_of = {
        "noisy": np.where(rng.random(n) < 0.2, rng.integers(0, n, n), np.arange(n)),
        "random": rng.integers(0, n, n),
        "constant": np.full(n, rng.integers(n)),
    }[draw(st.sampled_from(["noisy", "random", "constant"]))]
    return PointwiseMap(target_of, n), src, tgt


@settings(max_examples=100, deadline=None)
@given(case=_conformal_cases())
def test_conformal_equals_per_face_loop(case):
    # bit for bit, collapsed count included: near-collapsed faces sit at
    # the 1e-12 threshold, so a different rounding would move them
    pi, src, tgt = case
    assert conformal_distortion(pi, src, tgt, return_collapsed=True) == conformal_slow(pi, src, tgt)


# ----------------------------------------------------------------------
# invariances and the aggregated report
# ----------------------------------------------------------------------
def test_metrics_rigid_motion_invariant(rng):
    m1, m2 = hull_mesh(rng, 30), hull_mesh(rng, 32)
    pi_12 = random_map(rng, m1, m2)
    pi_21 = random_map(rng, m2, m1)
    gt = np.arange(m1.n_vertices) % m2.n_vertices

    q = Rotation.from_rotvec([0.4, -0.2, 0.9]).as_matrix()
    m2_moved = TriMesh(m2.vertices @ q.T + np.array([1.0, 2.0, -0.5]), m2.faces)

    base = (
        accuracy_metric(pi_12, np.arange(m1.n_vertices), gt, m2),
        bijectivity_metric(pi_12, pi_21, m1, m2),
        smoothness_metric(pi_12, m1, m2),
        coverage_metric(pi_12, m2.vertex_areas),
        conformal_distortion(pi_12, m1, m2),
    )
    moved = (
        accuracy_metric(pi_12, np.arange(m1.n_vertices), gt, m2_moved),
        bijectivity_metric(pi_12, pi_21, m1, m2_moved),
        smoothness_metric(pi_12, m1, m2_moved),
        coverage_metric(pi_12, m2_moved.vertex_areas),
        conformal_distortion(pi_12, m1, m2_moved),
    )
    for a, b in zip(base, moved):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_report_aggregation(sphere2, rng):
    pi_12 = identity_map(sphere2)
    pi_21 = identity_map(sphere2)
    gt = np.arange(sphere2.n_vertices)
    report = compute_report(pi_12, pi_21, sphere2, sphere2, gt, gt, with_conformal=True)
    assert report.accuracy == 0.0
    assert report.bijectivity == 0.0
    assert report.coverage == 100.0
    assert report.conformal == pytest.approx(1.0, abs=1e-12)
    assert report.smoothness == pytest.approx(
        dirichlet_energy(sphere2.vertices, sphere2.cot_matrix), rel=1e-12
    )
    text = report.as_text()
    assert "accuracy" in text and "conformal" in text


def test_report_single_direction(sphere2):
    report = compute_report(identity_map(sphere2), None, sphere2, sphere2)
    assert report.bijectivity is None
    assert report.accuracy is None
    assert report.smoothness is not None


def test_disconnected_meshes():
    # two disjoint spheres: a geodesic between components is inf, so
    # accuracy and bijectivity are inf exactly when a scored pair or a
    # round trip crosses components; the other metrics stay finite
    mesh = two_spheres(1)
    n = mesh.n_vertices // 2
    ident = identity_map(mesh)
    swap = PointwiseMap((np.arange(2 * n) + n) % (2 * n), 2 * n)
    gt = np.arange(2 * n)

    report = compute_report(swap, ident, mesh, mesh, gt, gt, with_conformal=True)
    assert report.accuracy == np.inf
    assert report.bijectivity == np.inf
    assert np.isfinite(report.smoothness)
    assert report.coverage == 100.0
    assert report.conformal == pytest.approx(1.0, abs=1e-12)
    assert report.collapsed_faces == 0

    assert accuracy_metric(ident, gt, gt, mesh) == 0.0
    assert bijectivity_metric(swap, swap, mesh, mesh) == 0.0


# ----------------------------------------------------------------------
# golden report bits
# ----------------------------------------------------------------------
def _noisy_hull_pair(seed):
    # hull pair with maps that send each vertex near its own direction on
    # the other sphere, 5 % of them to a random vertex instead; sparse
    # ground truth is the nearest direction for every third source vertex
    rng = np.random.default_rng(seed)
    m1, m2 = hull_mesh(rng, 500), hull_mesh(rng, 560)

    def directions(mesh):
        return mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)

    def noisy(src, tgt):
        moved = directions(src) + 0.15 * rng.normal(size=src.vertices.shape)
        idx = cKDTree(directions(tgt)).query(moved)[1]
        far = rng.random(src.n_vertices) < 0.05
        idx[far] = rng.integers(0, tgt.n_vertices, int(far.sum()))
        return PointwiseMap(idx, tgt.n_vertices)

    pi_12, pi_21 = noisy(m1, m2), noisy(m2, m1)
    gt_src = np.arange(0, m1.n_vertices, 3)
    gt_tgt = cKDTree(directions(m2)).query(directions(m1)[gt_src])[1]
    return pi_12, pi_21, m1, m2, gt_src, gt_tgt


def test_report_golden_bits():
    # every bit of the report is pinned: faster geodesic lookups must
    # return the same floats, not merely close ones
    report = compute_report(*_noisy_hull_pair(11), with_conformal=True)
    got = {k: v if isinstance(v, int) else float.hex(float(v))
           for k, v in vars(report).items()}
    assert got == {
        "accuracy": "0x1.fa716790331e3p+2",
        "bijectivity": "0x1.63a43db88978dp+3",
        "smoothness": "0x1.72a837d2a039cp+4",
        "coverage": "0x1.e5b8428d8470fp+5",
        "conformal": "0x1.4512e64aa1b74p+2",
        "collapsed_faces": 143,
    }
