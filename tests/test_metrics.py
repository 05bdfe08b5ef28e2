import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from conftest import hull_mesh, random_map
from oracles import conformal_slow

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
    sphere = icosphere(1)
    n = sphere.n_vertices
    mesh = TriMesh(np.vstack([sphere.vertices, sphere.vertices + 3.0]),
                   np.vstack([sphere.faces, sphere.faces + n]))
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
