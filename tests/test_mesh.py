import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.sparse import csgraph

from oracles import cot_weights_slow, dijkstra_slow
from conftest import hull_mesh, two_spheres

from smoothmatch.mesh import (
    TriMesh,
    cotangent_matrix,
    geodesic_distances,
    load_mesh,
    read_obj,
    read_off,
    vertex_areas,
    write_off,
)
from smoothmatch.spectral import compute_basis
from smoothmatch.synth import farthest_point_indices, icosphere


# ----------------------------------------------------------------------
# construction and file I/O
# ----------------------------------------------------------------------
def test_off_parse(tmp_path):
    path = tmp_path / "two.off"
    path.write_text(
        "OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n"
    )
    mesh = load_mesh(path, normalize=False)
    assert mesh.n_vertices == 4
    assert mesh.n_faces == 2


def test_off_header_with_counts_inline(tmp_path):
    path = tmp_path / "inline.off"
    path.write_text("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    mesh = load_mesh(path, normalize=False)
    assert mesh.n_vertices == 3


def test_obj_normalized_unit_area(tmp_path):
    ico = icosphere(0)
    lines = ["v %.17g %.17g %.17g" % tuple(v) for v in ico.vertices]
    lines += ["f %d %d %d" % tuple(f + 1) for f in ico.faces]
    path = tmp_path / "ico.obj"
    path.write_text("\n".join(lines) + "\n")
    mesh = load_mesh(path, normalize=True)
    assert abs(mesh.area - 1.0) < 1e-10
    assert np.allclose(mesh.surface_centroid, 0.0, atol=1e-12)


def test_off_quad_face_rejected(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(ValueError, match="non-triangular face"):
        load_mesh(path)


def test_obj_quad_face_rejected(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ValueError, match="non-triangular face"):
        read_obj(path)


def test_off_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n2 0 0\n0 0 0\nnot a number here\n")
    with pytest.raises(ValueError, match="bad.off:4"):
        load_mesh(path)


@pytest.mark.parametrize("name, text, line", [
    ("nan.off", "OFF\n3 1 0\n0 0 0\n# comment\nnan 0 1\n0 1 0\n3 0 1 2\n", 5),
    ("inf.obj", "v 0 0 0\nv inf 0 1\nv 0 1 0\nf 1 2 3\n", 2),
])
def test_non_finite_vertex_rejected_with_line(tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match="%s:%d: non-finite vertex coordinate" % (name, line)):
        load_mesh(path)


@pytest.mark.parametrize("name, text, line, message", [
    ("far.off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n# c\n3 0 1 3\n", 8,
     "face index out of range"),
    ("neg.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 -1 2\n", 6, "face index out of range"),
    ("far.obj", "v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\nf 1 2 5\n", 5, "face index out of range"),
    ("counts.off", "OFF\n-3 1 0\n", 2, "malformed counts line"),
    ("inline.off", "OFF 3 -1 0\n0 0 0\n1 0 0\n0 1 0\n", 1, "malformed counts line"),
    ("repeat.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n", 6,
     r"degenerate face \(repeated vertex index\)"),
    ("repeat.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n# c\nf 3 2 3\n", 6,
     r"degenerate face \(repeated vertex index\)"),
    # Python's float() takes digit separators; the table parser does not
    ("sep.off", "OFF\n3 1 0\n0 0 0\n1_000 0 0\n0 1 0\n3 0 1 2\n", 4, "malformed vertex line"),
], ids=["off_face", "off_negative_face", "obj_face", "off_counts", "off_inline_counts",
        "off_repeated_index", "obj_repeated_index", "off_digit_separator"])
def test_bad_mesh_rejected_with_line(tmp_path, name, text, line, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match="%s:%d: %s" % (name, line, message)):
        load_mesh(path)


@pytest.mark.parametrize("name, text, suffix", [
    ("x.off", "", ": unexpected end of file while reading header"),
    ("x.off", "# only a comment\n", ": unexpected end of file while reading header"),
    ("x.off", "OFF\n", ": unexpected end of file while reading counts"),
    ("x.off", "OFF\n3 1 0\n0 0 0\n", ": unexpected end of file while reading vertices"),
    ("x.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n",
     ": unexpected end of file while reading faces"),
    ("x.off", "# c\nPLY\n3 1 0\n", ":2: not an OFF file"),
    ("x.obj", "v 0 0 0\nv\nv 0 1 0\nf 1 2 3\n", ":2: malformed vertex line"),
    ("x.obj", "# no records\n", ": no vertices found"),
], ids=["off_empty", "off_comment_only", "off_no_counts", "off_short_vertices",
        "off_short_faces", "off_bad_header", "obj_empty_vertex", "obj_no_vertices"])
def test_truncated_or_malformed_mesh_rejected(tmp_path, name, text, suffix):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_mesh(path)
    assert str(exc.value) == str(path) + suffix


@pytest.mark.parametrize("vertices, faces, message", [
    (np.zeros((3, 2)), [[0, 1, 2]], "vertices must be an (n, 3) array"),
    (np.zeros(9), [[0, 1, 2]], "vertices must be an (n, 3) array"),
    (np.eye(3), [[0, 1]], "faces must be an (m, 3) array"),
    (np.eye(3), [0, 1, 2], "faces must be an (m, 3) array"),
    ([[0, 0, 0], [np.nan, 0, 0], [0, 1, 0]], [[0, 1, 2]],
     "vertex 1: non-finite vertex coordinate"),
    ([[0, 0, 0], [1, 0, 0], [0, 1, -np.inf]], [[0, 1, 2]],
     "vertex 2: non-finite vertex coordinate"),
    (np.eye(3), [[0, 1, 2], [0, 2, 3]], "face 1: face index out of range"),
    (np.eye(3), [[0, 1, 2], [2, 1, 2]], "face 1: degenerate face (repeated vertex index)"),
], ids=["vertices_2d", "vertices_flat", "faces_2_wide", "faces_flat", "vertex_nan",
        "vertex_inf", "face_out_of_range", "face_repeated_index"])
def test_trimesh_shape_errors(vertices, faces, message):
    with pytest.raises(ValueError) as exc:
        TriMesh(vertices, faces)
    assert str(exc.value) == message


def test_obj_face_with_texture_indices(tmp_path):
    path = tmp_path / "tex.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
    verts, faces = read_obj(path)
    assert faces.tolist() == [[0, 1, 2]]


def test_unknown_extension(tmp_path):
    path = tmp_path / "mesh.ply"
    path.write_text("")
    with pytest.raises(ValueError, match="unsupported"):
        load_mesh(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_mesh("/nonexistent/mesh.off")


@st.composite
def _meshes(draw):
    n = draw(st.integers(3, 12))
    verts = draw(arrays(np.float64, (n, 3), elements=st.floats(allow_nan=False,
                                                                 allow_infinity=False)))
    face = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    return TriMesh(verts, draw(st.lists(face, min_size=1, max_size=8)))


@pytest.mark.filterwarnings("ignore:.*isolated vertices")
@settings(max_examples=50, deadline=None)
@given(mesh=_meshes())
def test_off_roundtrip(tmp_path_factory, mesh):
    # %.17g writes every finite double back bit for bit, -0.0 and
    # subnormals included
    path = tmp_path_factory.mktemp("off") / "m.off"
    write_off(mesh, path)
    verts, faces = read_off(path)
    assert np.array_equal(faces, mesh.faces)
    assert verts.tobytes() == mesh.vertices.tobytes()


@pytest.mark.filterwarnings("ignore:.*isolated vertices")
@settings(max_examples=50, deadline=None)
@given(mesh=_meshes())
def test_obj_roundtrip(tmp_path_factory, mesh):
    path = tmp_path_factory.mktemp("obj") / "m.obj"
    path.write_text("".join("v %.17g %.17g %.17g\n" % tuple(v) for v in mesh.vertices)
                    + "".join("f %d %d %d\n" % tuple(f + 1) for f in mesh.faces))
    verts, faces = read_obj(path)
    assert verts.tobytes() == mesh.vertices.tobytes()
    assert faces.tobytes() == mesh.faces.tobytes()


def test_degenerate_face_rejected():
    with pytest.raises(ValueError, match="degenerate face"):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])


def test_face_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])


def test_isolated_vertex_warns():
    with pytest.warns(UserWarning, match="isolated"):
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], [[0, 1, 2]])
    assert vertex_areas(mesh)[3] == 0.0


# ----------------------------------------------------------------------
# cotangent matrix
# ----------------------------------------------------------------------
def test_right_triangle_weights(right_triangle):
    w = cotangent_matrix(right_triangle)
    # hypotenuse (1,2) faces the right angle: cot(90) = 0
    assert abs(w[1, 2]) < 1e-15
    # edges (0,1) and (0,2) face 45-degree angles: weight 1/2
    assert abs(-w[0, 1] - 0.5) < 1e-12
    assert abs(-w[0, 2] - 0.5) < 1e-12


def test_cot_symmetric_zero_rowsum_psd(rng):
    for n in (12, 25, 60):
        mesh = hull_mesh(rng, n)
        w = cotangent_matrix(mesh)
        asym = abs(w - w.T)
        assert asym.max() < 1e-12 if asym.nnz else True
        assert np.abs(np.asarray(w.sum(axis=1))).max() < 1e-10
        x = rng.normal(size=(mesh.n_vertices, 5))
        quad = np.einsum("ij,ij->j", x, w @ x)
        assert quad.min() > -1e-10


def test_cot_edge_sum_identity(rng):
    mesh = hull_mesh(rng, 40)
    w = cotangent_matrix(mesh)
    weights = cot_weights_slow(mesh)
    x = rng.normal(size=mesh.n_vertices)
    direct = float(x @ (w @ x))
    by_edges = sum(wij * (x[i] - x[j]) ** 2 for (i, j), wij in weights.items())
    assert abs(direct - by_edges) < 1e-10 * max(1.0, abs(by_edges))


def test_cot_matches_slow_assembly(rng):
    mesh = hull_mesh(rng, 25)
    w = cotangent_matrix(mesh).toarray()
    for (i, j), wij in cot_weights_slow(mesh).items():
        assert abs(-w[i, j] - wij) < 1e-10


def _sliver_sphere(tmp_path, subdiv, gap):
    """icosphere(subdiv), loaded from OFF after face 0's third vertex is
    moved on the unit sphere to ``gap`` from the midpoint of the other
    two, towards where it was: a sliver with an angle near pi."""
    sphere = icosphere(subdiv)
    verts = sphere.vertices.copy()
    a, b, c = sphere.faces[0]
    mid = 0.5 * (verts[a] + verts[b])
    verts[c] = mid + gap * (verts[c] - mid) / np.linalg.norm(verts[c] - mid)
    path = tmp_path / "sliver.off"
    write_off(TriMesh(verts, sphere.faces), path)
    return load_mesh(path)


def test_cot_psd_on_a_sliver(tmp_path):
    # clamping each cotangent on its own gives a smallest eigenvalue of
    # -3.8e4 against a largest of 1.5e5 here
    eig = np.linalg.eigvalsh(_sliver_sphere(tmp_path, 3, 4e-7).cot_matrix.toarray())
    assert eig.min() >= -1e-10 * np.abs(eig).max()


def test_dense_basis_of_a_sliver_has_no_negative_mode(tmp_path):
    # 162 vertices take the dense eigensolver, which returns an indefinite
    # W's negative mode first; the bound is the rounding of |W| ~ 1.5e5
    # over the smallest vertex area, 3.3e-3
    mesh = _sliver_sphere(tmp_path, 2, 1e-6)
    assert compute_basis(mesh, 10).lam[0] >= -1e-6


def test_cot_psd_with_a_zero_area_face():
    # a collinear face along the bottom edge of a split square, at a scale
    # where its cotangents overflow; clamped one by one they make W
    # indefinite (-5e4 against 1e5)
    verts = 1e5 * np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0, 0]])
    w = cotangent_matrix(TriMesh(verts, [[0, 4, 2], [4, 1, 2], [0, 2, 3], [0, 1, 4]]))
    eig = np.linalg.eigvalsh(w.toarray())
    assert eig.min() >= -1e-10 * np.abs(eig).max()


@settings(max_examples=200, deadline=None)
@given(log_height=st.floats(-9, -2), apex=st.floats(-1.0, 2.0),
       angle=st.floats(0, 2 * np.pi), scale=st.floats(0.01, 100))
def test_cot_psd_on_single_slivers(log_height, apex, angle, scale):
    # a base from (0, 0) to (1, 0) and an apex 10**log_height above it,
    # turned and scaled in the xy plane
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    xy = scale * np.array([[0.0, 0.0], [1.0, 0.0], [apex, 10.0 ** log_height]]) @ rot.T
    w = cotangent_matrix(TriMesh(np.column_stack([xy, np.zeros(3)]), [[0, 1, 2]])).toarray()
    assert np.linalg.eigvalsh(w).min() >= -1e-6 * np.abs(w).max()


# ----------------------------------------------------------------------
# mass matrix
# ----------------------------------------------------------------------
def test_equilateral_mass(equilateral):
    a = vertex_areas(equilateral)
    expected = (np.sqrt(3.0) / 4.0) / 3.0
    assert np.allclose(a, expected, atol=1e-12)


def test_mass_trace_is_area(rng):
    mesh = hull_mesh(rng, 50, normalize=False)
    assert abs(vertex_areas(mesh).sum() - mesh.area) < 1e-10


# ----------------------------------------------------------------------
# geodesics
# ----------------------------------------------------------------------
def test_geodesic_self_distance_zero(sphere2):
    d = geodesic_distances(sphere2, [7])
    assert d[0, 7] == 0.0


def test_geodesic_path_graph():
    # straight strip: the only short route from v0 to v2 is two unit edges
    verts = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [1, 5, 0]]
    mesh = TriMesh(verts, [[0, 1, 3], [1, 2, 3]])
    d = geodesic_distances(mesh, [0])
    assert abs(d[0, 2] - 2.0) < 1e-12


def test_geodesic_antipodal_overestimates_great_circle():
    # edge-graph shortest paths overestimate the true geodesic pi by a
    # bounded factor set by the lattice directions
    for sub in (2, 3):
        sph = icosphere(sub)          # unit radius, great circle distance pi
        anti = int(np.argmin(sph.vertices @ sph.vertices[0]))
        d = geodesic_distances(sph, [0])[0, anti]
        assert np.pi * (1 - 1e-3) <= d <= 1.1 * np.pi


def test_geodesic_symmetry_triangle_inequality(rng):
    mesh = hull_mesh(rng, 30)
    d = geodesic_distances(mesh, np.arange(mesh.n_vertices))
    assert np.abs(d - d.T).max() < 1e-9
    n = mesh.n_vertices
    for _ in range(200):
        i, j, k = rng.integers(0, n, 3)
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_geodesic_matches_heap_dijkstra(rng):
    mesh = hull_mesh(rng, 50)
    for src in (0, 13, 37):
        fast = geodesic_distances(mesh, [src])[0]
        slow = dijkstra_slow(mesh, src)
        assert np.allclose(fast, slow, atol=1e-10)


def test_geodesic_disconnected_inf():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5], [6, 5, 5], [5, 6, 5]]
    mesh = TriMesh(verts, [[0, 1, 2], [3, 4, 5]])
    d = geodesic_distances(mesh, [0])
    assert np.isinf(d[0, 3])
    assert np.isfinite(d[0, 1])


def test_geodesic_bad_source(sphere2):
    with pytest.raises(ValueError):
        geodesic_distances(sphere2, [sphere2.n_vertices])


@pytest.mark.parametrize("edges", [0.0, 1.5, 4.0, 9.0])
def test_geodesic_limit_keeps_values_within_it(rng, edges):
    mesh = hull_mesh(rng, 200)
    limit = edges * mesh.edge_graph.data.mean()
    sources = [0, 17, 101, 17]
    full = geodesic_distances(mesh, sources)
    bounded = geodesic_distances(mesh, sources, limit=limit)
    expected = np.where(full <= limit, full, np.inf)
    assert np.array_equal(bounded.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("edges", [0.0, 1.5, 4.0, 9.0])
def test_geodesic_within_keeps_values_within_limit(rng, edges):
    # the subgraph of the vertices within Euclidean distance `limit` of
    # a source, plus unrelated ones, gives the whole-mesh floats up to
    # the limit and inf beyond it
    mesh = hull_mesh(rng, 200)
    limit = edges * mesh.edge_lengths.mean()
    sources = np.array([0, 17, 101, 17])
    gap = np.linalg.norm(mesh.vertices[:, None] - mesh.vertices[sources], axis=2)
    within = np.union1d(np.flatnonzero((gap <= limit).any(axis=1)),
                        rng.choice(mesh.n_vertices, 20))
    full = geodesic_distances(mesh, sources)[:, within]
    local = geodesic_distances(mesh, sources, limit=limit, within=within)
    expected = np.where(full <= limit, full, np.inf)
    assert np.array_equal(local.view(np.int64), expected.view(np.int64))


def test_geodesic_within_every_vertex_searches_the_whole_graph(rng):
    # a slice over every vertex would copy the graph unchanged, so the
    # graph itself is searched, with the rows of a search without `within`
    mesh = hull_mesh(rng, 200)
    sources = [150, 0, 17]
    limit = 4.0 * mesh.edge_lengths.mean()
    searched = []
    dijkstra = csgraph.dijkstra

    def spy(graph, **kwargs):
        searched.append(graph)
        return dijkstra(graph, **kwargs)

    with mock.patch.object(csgraph, "dijkstra", spy):
        local = geodesic_distances(mesh, sources, limit=limit, within=np.arange(mesh.n_vertices))
    assert len(searched) == 1 and searched[0] is mesh.edge_graph
    full = geodesic_distances(mesh, sources, limit=limit)
    assert np.array_equal(local.view(np.int64), full.view(np.int64))


@pytest.mark.parametrize("within, message", [
    ([0, 2, 1, 5], "strictly increasing"),
    ([0, 1, 1, 5], "strictly increasing"),
    ([[0, 1, 5]], "strictly increasing"),
    ([-1, 0, 5], "within index out of range"),
    ([0, 5, 162], "within index out of range"),
    ([0, 1, 2], "within must contain every source"),
    ([1, 5, 9], "within must contain every source"),
    ([], "within must contain every source"),
])
def test_geodesic_bad_within(sphere2, within, message):
    with pytest.raises(ValueError, match=message):
        geodesic_distances(sphere2, [0, 5], within=within)


def _edges_by_rows(mesh):
    # reference: the unique sorted face pairs, deduplicated as rows
    f = mesh.faces
    pairs = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0)


def _assert_edges_by_rows(mesh):
    ref = _edges_by_rows(mesh)
    got = mesh.edges
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    lengths = np.linalg.norm(mesh.vertices[ref[:, 0]] - mesh.vertices[ref[:, 1]], axis=1)
    assert mesh.edge_lengths.tobytes() == lengths.tobytes()
    n = mesh.n_vertices
    graph = sparse.csr_matrix((np.tile(lengths, 2), (ref[:, ::-1].T.ravel(), ref.T.ravel())),
                              shape=(n, n))
    for part in ("indptr", "indices", "data"):
        assert getattr(mesh.edge_graph, part).tobytes() == getattr(graph, part).tobytes()


@pytest.mark.parametrize("which", ["icosphere", "hull", "grid"])
def test_edges_equal_row_unique(rng, which):
    from tests_grid import grid_mesh

    mesh = {"icosphere": lambda: icosphere(3),
            "hull": lambda: hull_mesh(rng, 2000),
            "grid": lambda: grid_mesh(9, 7)}[which]()
    _assert_edges_by_rows(mesh)


@pytest.mark.filterwarnings("ignore:.*isolated vertices")
@settings(max_examples=50, deadline=None)
@given(mesh=_meshes())
def test_edges_equal_row_unique_random_faces(mesh):
    # any finite coordinates: lengths may overflow to inf on both sides
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_edges_by_rows(mesh)


def test_edge_graph_is_cached(sphere2):
    assert sphere2.edge_graph is sphere2.edge_graph
    assert (sphere2.edge_graph != sphere2.edge_graph.T).nnz == 0
    e = sphere2.edges
    d = np.linalg.norm(sphere2.vertices[e[:, 0]] - sphere2.vertices[e[:, 1]], axis=1)
    assert np.array_equal(np.asarray(sphere2.edge_graph[e[:, 0], e[:, 1]]).ravel(), d)


def _farthest_points_unbounded(mesh, count, start=0):
    chosen = [start]
    dist = geodesic_distances(mesh, [start])[0]
    while len(chosen) < count:
        chosen.append(int(np.argmax(dist)))
        dist = np.minimum(dist, geodesic_distances(mesh, [chosen[-1]])[0])
    return chosen


@pytest.mark.parametrize("which", ["hull", "two_spheres"])
def test_farthest_points_match_unbounded_sampling(rng, which):
    mesh = hull_mesh(rng, 400) if which == "hull" else two_spheres()
    for start in (0, 5):
        got = farthest_point_indices(mesh, 40, start=start)
        assert got.tolist() == _farthest_points_unbounded(mesh, 40, start=start)



@pytest.mark.parametrize("count", [0, 163])
def test_farthest_points_count_out_of_range(count):
    with pytest.raises(ValueError, match="^count out of range$"):
        farthest_point_indices(icosphere(2), count)

# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scale, area", [(0.0, "0"), (1e160, "nan")], ids=["zero", "overflow"])
def test_normalized_rejects_zero_or_non_finite_area(scale, area):
    sphere = icosphere(2)
    mesh = TriMesh(sphere.vertices * [1.0, scale, scale], sphere.faces)
    with np.errstate(all="ignore"):
        mesh.face_areas     # the overflow is in the input, not in normalized()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^total area is %s; normalizing needs a "
                                             "positive, finite one$" % area):
            mesh.normalized()


@pytest.mark.parametrize("x, leg, bound", [(1e308, 0.3, "1e+308"), (5e307, 0.03, "5e+307")],
                         ids=["centroid", "scaling"])
def test_load_mesh_rejects_coordinates_that_overflow_when_normalized(tmp_path, x, leg, bound):
    # two small triangles far apart on the x axis: every coordinate is
    # finite, yet the centroid (x = 1e308) or the unit-area scaling
    # (x = 5e307) overflows
    rows = [(s * x, dy, dz) for s in (1, -1) for dy, dz in ((0, 0), (leg, 0), (0, leg))]
    path = tmp_path / "far.off"
    path.write_text("OFF\n6 2 0\n" + "".join("%r %r %r\n" % row for row in rows)
                    + "3 0 1 2\n3 3 5 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = "%s: normalized coordinates are not finite (coordinates up to %s)" % (
            path, bound)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            load_mesh(path)


def test_normalized_unit_area_centered(rng):
    mesh = hull_mesh(rng, 40, normalize=False)
    mesh = TriMesh(mesh.vertices * 3.7 + np.array([1.0, -2.0, 0.5]), mesh.faces)
    norm = mesh.normalized()
    assert abs(norm.area - 1.0) < 1e-10
    assert np.allclose(norm.surface_centroid, 0.0, atol=1e-12)
