"""Triangle meshes: file I/O and the discrete surface operators.

Conventions used throughout the package:

* The cotangent matrix ``W`` is assembled positive semi-definite: the
  off-diagonal entry for edge ``(i, j)`` is ``-w_ij`` with
  ``w_ij = (cot a_ij + cot b_ij) / 2`` over the one or two incident
  triangles, and the diagonal completes zero row sums.  With this sign,
  ``x.T @ W @ x == sum_ij w_ij * (x_i - x_j)**2`` for any vertex
  function ``x``, so all W-norms in the energy module are nonnegative.
* The mass matrix ``A`` is the barycentric lumping: one third of the
  incident face area per vertex, so ``trace(A)`` equals the surface area.
* Meshes are treated as immutable after construction; derived operators
  are cached on first access and shared freely.
"""

import warnings

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .io import _content_lines, _reject, _table

# cotangents beyond this threshold come from numerically degenerate
# triangles; clamping keeps W assembly finite and effectively PSD
_COT_CLAMP = 1e5


class TriMesh:
    """Triangle mesh with lazily cached discrete operators.

    Parameters
    ----------
    vertices : (n, 3) array_like
        Vertex coordinates.
    faces : (m, 3) array_like
        Vertex indices, three distinct indices per face.

    Attributes
    ----------
    vertices : (n, 3) float64 ndarray
    faces : (m, 3) int64 ndarray
    """

    def __init__(self, vertices, faces):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be an (m, 3) array")
        if self.faces.size:
            if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
                raise ValueError("face index out of range")
            repeated = (
                (self.faces[:, 0] == self.faces[:, 1])
                | (self.faces[:, 1] == self.faces[:, 2])
                | (self.faces[:, 2] == self.faces[:, 0])
            )
            if repeated.any():
                raise ValueError(
                    "degenerate face %d: repeated vertex index"
                    % int(np.flatnonzero(repeated)[0])
                )
        used = np.zeros(self.n_vertices, dtype=bool)
        used[self.faces.ravel()] = True
        if not used.all():
            warnings.warn(
                "%d isolated vertices (zero lumped mass)" % int((~used).sum()),
                stacklevel=2,
            )
        self._cache = {}

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def face_areas(self):
        """Per-face areas, shape (m,)."""
        if "face_areas" not in self._cache:
            v = self.vertices
            f = self.faces
            cr = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
            self._cache["face_areas"] = 0.5 * np.linalg.norm(cr, axis=1)
        return self._cache["face_areas"]

    @property
    def area(self):
        """Total surface area."""
        return float(self.face_areas.sum())

    @property
    def bbox_diagonal(self):
        """Diagonal length of the axis-aligned bounding box."""
        ext = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(ext))

    @property
    def surface_centroid(self):
        """Area-weighted centroid of the surface."""
        centers = self.vertices[self.faces].mean(axis=1)
        a = self.face_areas
        return (centers * a[:, None]).sum(axis=0) / a.sum()

    @property
    def edges(self):
        """Unique undirected edges as an (e, 2) array with i < j."""
        if "edges" not in self._cache:
            f = self.faces
            pairs = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
            pairs.sort(axis=1)
            self._cache["edges"] = np.unique(pairs, axis=0)
        return self._cache["edges"]

    def normalized(self):
        """Copy translated to centroid origin and scaled to unit area."""
        scale = 1.0 / np.sqrt(self.area)
        verts = (self.vertices - self.surface_centroid) * scale
        return TriMesh(verts, self.faces)

    # ------------------------------------------------------------------
    # operators (cached)
    # ------------------------------------------------------------------
    @property
    def cot_matrix(self):
        if "cot" not in self._cache:
            self._cache["cot"] = cotangent_matrix(self)
        return self._cache["cot"]

    @property
    def vertex_areas(self):
        if "va" not in self._cache:
            self._cache["va"] = vertex_areas(self)
        return self._cache["va"]

    @property
    def mass_matrix(self):
        return sparse.diags(self.vertex_areas)

    @property
    def edge_weights(self):
        """Edge list of the cotangent graph: ``(edges, weights)``.

        ``weights[e]`` is the (possibly negative) cotangent weight
        ``w_ij`` of ``edges[e]``, read off the assembled matrix so that
        clamping is consistent with :func:`cotangent_matrix`.
        """
        if "edge_w" not in self._cache:
            coo = sparse.triu(self.cot_matrix, k=1).tocoo()
            edges = np.column_stack([coo.row, coo.col])
            self._cache["edge_w"] = (edges, -coo.data)
        return self._cache["edge_w"]


def cotangent_matrix(mesh):
    """Assemble the PSD cotangent matrix of a mesh.

    The weight of edge ``(i, j)`` is half the sum of the cotangents of
    the angles opposite the edge in its incident triangles; cotangent
    values are clamped to ``[-1e5, 1e5]`` so near-degenerate triangles
    cannot destroy the assembly.

    Returns
    -------
    scipy.sparse.csr_matrix, shape (n, n)
    """
    v = mesh.vertices
    f = mesh.faces
    n = mesh.n_vertices

    rows, cols, vals = [], [], []
    for corner in range(3):
        i = f[:, (corner + 1) % 3]
        j = f[:, (corner + 2) % 3]
        u1 = v[i] - v[f[:, corner]]
        u2 = v[j] - v[f[:, corner]]
        dbl_area = np.linalg.norm(np.cross(u1, u2), axis=1)
        dbl_area = np.maximum(dbl_area, 1e-300)
        cot = np.einsum("ij,ij->i", u1, u2) / dbl_area
        w = 0.5 * np.clip(cot, -_COT_CLAMP, _COT_CLAMP)
        rows.extend([i, j, i, j])
        cols.extend([j, i, i, j])
        vals.extend([-w, -w, w, w])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    w = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    # duplicate summation is order-dependent; symmetrize exactly
    return (w + w.T) * 0.5


def vertex_areas(mesh):
    """Barycentric lumped vertex areas, shape (n,)."""
    thirds = np.repeat(mesh.face_areas / 3.0, 3)
    return np.bincount(mesh.faces.ravel(), weights=thirds, minlength=mesh.n_vertices)


def mass_matrix(mesh):
    """Diagonal lumped mass matrix as a sparse matrix."""
    return sparse.diags(vertex_areas(mesh))


def geodesic_distances(mesh, sources):
    """Shortest-path distances along mesh edges (Dijkstra).

    Parameters
    ----------
    mesh : TriMesh
    sources : sequence of int
        Source vertex indices.

    Returns
    -------
    (len(sources), n) ndarray
        Row ``s`` holds the distance from ``sources[s]`` to every
        vertex; unreachable vertices get ``inf``.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size and (sources.min() < 0 or sources.max() >= mesh.n_vertices):
        raise ValueError("source index out of range")
    e = mesh.edges
    lengths = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    n = mesh.n_vertices
    graph = sparse.csr_matrix((lengths, (e[:, 0], e[:, 1])), shape=(n, n))
    return csgraph.dijkstra(graph, directed=False, indices=sources)


# ----------------------------------------------------------------------
# file I/O (ASCII OFF and OBJ)
# ----------------------------------------------------------------------
def load_mesh(path, normalize=True):
    """Load a triangle mesh from an OFF or OBJ file.

    Parameters
    ----------
    path : str or Path
        Format is detected from the extension.
    normalize : bool
        If true (default), translate to centroid origin and scale to
        unit surface area; all fixed solver weights assume this.
    """
    p = str(path)
    lower = p.lower()
    if lower.endswith(".off"):
        verts, faces = read_off(p)
    elif lower.endswith(".obj"):
        verts, faces = read_obj(p)
    else:
        raise ValueError("unsupported mesh format (expected .off or .obj): %s" % p)
    mesh = TriMesh(verts, faces)
    return mesh.normalized() if normalize else mesh


def _checked(path, verts, vertex_lines, faces, face_lines):
    # one vectorized pass after parsing
    _reject(path, ~np.isfinite(verts).all(axis=1), vertex_lines, "non-finite vertex coordinate")
    _reject(path, ((faces < 0) | (faces >= len(verts))).any(axis=1), face_lines,
            "face index out of range")
    _reject(path, (faces == np.roll(faces, 1, axis=1)).any(axis=1), face_lines,
            "degenerate face (repeated vertex index)")
    return verts, faces


def read_off(path):
    """Parse an ASCII OFF file, returning ``(vertices, faces)``."""
    lines, texts = _content_lines(path)

    def rows(start, count, what):
        if len(texts) < start + count:
            raise ValueError("%s: unexpected end of file while reading %s" % (path, what))
        return lines[start:start + count], texts[start:start + count]

    header = rows(0, 1, "header")[1][0]
    if header == "OFF":
        start, counts = 2, rows(1, 1, "counts")
    elif header.startswith("OFF"):
        start, counts = 1, (lines[:1], [header[3:]])
    else:
        raise ValueError("%s:%d: not an OFF file" % (path, lines[0]))
    (n_verts, n_faces), = _table(path, counts, np.int64, 2, "counts")
    if n_verts < 0 or n_faces < 0:
        raise ValueError("%s:%d: malformed counts line" % (path, counts[0][0]))
    vertex_rows = rows(start, n_verts, "vertices")
    face_rows = rows(start + n_verts, n_faces, "faces")
    verts = _table(path, vertex_rows, np.float64, 3, "vertex")
    faces = _table(path, face_rows, np.int64, 4, "face")
    bad = np.flatnonzero(faces[:, 0] != 3)
    if bad.size:
        raise ValueError("%s:%d: non-triangular face (%d vertices)"
                         % (path, face_rows[0][bad[0]], faces[bad[0], 0]))
    return _checked(path, verts, vertex_rows[0], faces[:, 1:], face_rows[0])


def read_obj(path):
    """Parse an ASCII OBJ file (``v`` and ``f`` records only)."""
    vertex_rows, face_rows = ([], []), ([], [])
    for lineno, text in zip(*_content_lines(path)):
        head, *rest = text.split(None, 1)
        if head == "v":
            if not rest:
                raise ValueError("%s:%d: malformed vertex line" % (path, lineno))
            vertex_rows[0].append(lineno)
            vertex_rows[1].append(rest[0])
        elif head == "f":
            # tokens may carry /texture/normal references
            idx = [tok.split("/")[0] for tok in rest[0].split()] if rest else []
            if len(idx) != 3:
                raise ValueError(
                    "%s:%d: non-triangular face (%d vertices)" % (path, lineno, len(idx))
                )
            face_rows[0].append(lineno)
            face_rows[1].append(" ".join(idx))
    if not vertex_rows[0]:
        raise ValueError("%s: no vertices found" % path)
    verts = _table(path, vertex_rows, np.float64, 3, "vertex")
    faces = _table(path, face_rows, np.int64, 3, "face")
    _reject(path, (faces < 1).any(axis=1), face_rows[0], "OBJ indices must be positive")
    return _checked(path, verts, vertex_rows[0], faces - 1, face_rows[0])


def write_off(mesh, path):
    """Write a mesh to an ASCII OFF file (deterministic formatting)."""
    with open(path, "w") as fh:
        np.savetxt(fh, mesh.vertices, fmt="%.17g", comments="",
                   header="OFF\n%d %d 0" % (mesh.n_vertices, mesh.n_faces))
        np.savetxt(fh, mesh.faces, fmt="3 %d %d %d")
