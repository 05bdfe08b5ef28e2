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
from functools import cached_property, partial

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .io import _content_lines, _next_content_line, _reject, _table, _text

# cotangents beyond this threshold come from numerically degenerate
# triangles; a face whose largest |cotangent| passes it has all three
# scaled down by one factor, which keeps W finite and PSD
_COT_CLAMP = 1e5


class TriMesh:
    """Triangle mesh with lazily cached discrete operators.

    Parameters
    ----------
    vertices : (n, 3) array_like
        Vertex coordinates.
    faces : (m, 3) array_like
        Vertex indices, three distinct indices per face.

    A non-finite coordinate, or a face whose indices are out of range or
    repeated, raises ``ValueError`` naming the first such row.  Isolated
    vertices only warn; :func:`load_mesh` rejects every zero-area vertex.

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
        for what, bad, message in _row_checks(self.vertices, self.faces):
            first = np.flatnonzero(bad)
            if first.size:
                raise ValueError("%s %d: %s" % (what, first[0], message))
        used = np.zeros(self.n_vertices, dtype=bool)
        used[self.faces.ravel()] = True
        if not used.all():
            warnings.warn(
                "%d isolated vertices (zero lumped mass)" % int((~used).sum()),
                stacklevel=2,
            )

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @cached_property
    def face_areas(self):
        """Per-face areas, shape (m,)."""
        v = self.vertices
        f = self.faces
        cr = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        return 0.5 * np.linalg.norm(cr, axis=1)

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

    @cached_property
    def edges(self):
        """Unique undirected edges as an (e, 2) array with i < j."""
        f = self.faces
        pairs = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        pairs.sort(axis=1)
        # the key i * n + j sorts like the row (i, j), so one 1-D unique
        # gives np.unique(pairs, axis=0) without its row sort
        n = self.n_vertices
        key = np.unique(pairs[:, 0] * n + pairs[:, 1])
        return np.column_stack([key // n, key % n])

    def normalized(self):
        """Copy translated to centroid origin and scaled to unit area.

        A total area that is zero or not finite, or a centroid or scaled
        coordinates that overflow, raise ``ValueError``.
        """
        area = self.area
        if not 0 < area < np.inf:
            raise ValueError("total area is %g; normalizing needs a positive, finite one" % area)
        scale = 1.0 / np.sqrt(area)
        with np.errstate(over="ignore", invalid="ignore"):
            verts = (self.vertices - self.surface_centroid) * scale
        if not np.isfinite(verts).all():
            raise ValueError("normalized coordinates are not finite (coordinates up to %g)"
                             % np.abs(self.vertices).max())
        with warnings.catch_warnings():
            # this mesh has already warned about its isolated vertices
            warnings.simplefilter("ignore", UserWarning)
            return TriMesh(verts, self.faces)

    # ------------------------------------------------------------------
    # operators (cached)
    # ------------------------------------------------------------------
    @cached_property
    def cot_matrix(self):
        return cotangent_matrix(self)

    @cached_property
    def vertex_areas(self):
        return vertex_areas(self)

    @cached_property
    def edge_weights(self):
        """Edge list of the cotangent graph: ``(edges, weights)``.

        ``weights[e]`` is the (possibly negative) cotangent weight
        ``w_ij`` of ``edges[e]``, read off the assembled matrix so that
        clamping is consistent with :func:`cotangent_matrix`.
        """
        coo = sparse.triu(self.cot_matrix, k=1).tocoo()
        return np.column_stack([coo.row, coo.col]), -coo.data

    @cached_property
    def edge_lengths(self):
        """Euclidean length of every edge in :attr:`edges`, shape (e,)."""
        e = self.edges
        return np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)

    @cached_property
    def edge_graph(self):
        """Edge-length graph for Dijkstra: symmetric (n, n) CSR holding
        ``|v_i - v_j|`` at ``(i, j)`` and ``(j, i)`` for every edge."""
        # the edges (i < j) are sorted, so listing every (j, i) before
        # every (i, j) leaves each row's columns sorted
        e = self.edges
        n = self.n_vertices
        return sparse.csr_matrix(
            (np.tile(self.edge_lengths, 2), (e[:, ::-1].T.ravel(), e.T.ravel())),
            shape=(n, n))


def cotangent_matrix(mesh):
    """Assemble the PSD cotangent matrix of a mesh.

    The weight of edge ``(i, j)`` is half the sum of the cotangents of
    the angles opposite the edge in its incident triangles.  A
    near-degenerate triangle whose largest |cotangent| exceeds ``1e5``,
    a zero-area one included, has all three of its cotangents scaled by
    the one factor that brings that largest to ``1e5``.  A triangle's
    cotangents have a positive sum and ``cot_a cot_b + cot_b cot_c +
    cot_c cot_a == 1``, which makes its block PSD; one positive factor
    keeps both signs, so W stays PSD to rounding.  Clamping each
    cotangent on its own can make that sum of products negative on a
    sliver.

    Returns
    -------
    scipy.sparse.csr_matrix, shape (n, n)
    """
    v = mesh.vertices
    f = mesh.faces
    n = mesh.n_vertices

    # one row per corner: dot[c] and cot[c] belong to the angle at f[:, c]
    dot = np.empty((3, len(f)))
    cot = np.empty((3, len(f)))
    for corner in range(3):
        u1 = v[f[:, (corner + 1) % 3]] - v[f[:, corner]]
        u2 = v[f[:, (corner + 2) % 3]] - v[f[:, corner]]
        dbl_area = np.linalg.norm(np.cross(u1, u2), axis=1)
        dbl_area = np.maximum(dbl_area, 1e-300)
        dot[corner] = np.einsum("ij,ij->i", u1, u2)
        with np.errstate(over="ignore"):    # a zero-area face; replaced below
            cot[corner] = dot[corner] / dbl_area
    # cot = dot / (2 area) on each face, so scaling its cotangents to a
    # largest |cot| of 1e5 needs only the dots, which cannot overflow
    big = np.abs(cot).max(axis=0) > _COT_CLAMP
    cot[:, big] = _COT_CLAMP * dot[:, big] / np.abs(dot[:, big]).max(axis=0)

    rows, cols, vals = [], [], []
    for corner in range(3):
        i = f[:, (corner + 1) % 3]
        j = f[:, (corner + 2) % 3]
        w = 0.5 * cot[corner]
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


def geodesic_distances(mesh, sources, limit=np.inf, within=None):
    """Shortest-path distances along mesh edges (Dijkstra).

    Parameters
    ----------
    mesh : TriMesh
    sources : sequence of int
        Source vertex indices.
    limit : float
        Stop each search at this distance.  Distances ``<= limit`` are
        the same floats as without a limit: scipy's Dijkstra only
        enqueues tentative values within the limit, and a vertex's final
        value is a minimum over relaxations from vertices settled before
        it, all of which lie within the limit too.
    within : sorted sequence of int, optional
        Search only scipy's slice ``edge_graph[within][:, within]``, the
        subgraph these vertices induce; they must be strictly increasing
        and include every source.  Edge lengths are Euclidean, so a path
        no longer than ``limit`` stays within that distance of its source:
        when ``within`` holds every vertex that close to a source, the
        distances ``<= limit`` are the same floats as on the whole mesh.
        When it holds every vertex, the whole graph is searched without
        a slice, which would copy it unchanged.

    Returns
    -------
    (len(sources), n) ndarray, or (len(sources), len(within))
        Row ``s`` holds the distance from ``sources[s]`` to every
        vertex, or to ``within[j]`` in column ``j``; unreachable
        vertices, and vertices beyond ``limit``, get ``inf``.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    n = mesh.n_vertices
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError("source index out of range")
    graph = mesh.edge_graph
    if within is not None:
        within = np.asarray(within, dtype=np.int64)
        if within.ndim != 1 or (within[1:] <= within[:-1]).any():
            raise ValueError("within must be a strictly increasing vertex list")
        if within.size and (within[0] < 0 or within[-1] >= n):
            raise ValueError("within index out of range")
        position = np.searchsorted(within, sources)
        if (np.append(within, -1)[position] != sources).any():
            raise ValueError("within must contain every source")
        if within.size < n:
            graph = graph[within][:, within]
        sources = position
    # the graph is symmetric, so a directed search gives the undirected
    # distances, without scipy transposing the graph on every call
    return csgraph.dijkstra(graph, directed=True, indices=sources, limit=limit)


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

    A vertex of zero lumped area raises ``ValueError`` naming the file,
    before normalizing, which would turn a mesh of zero area into ``nan``.
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
    flat = np.flatnonzero(~(mesh.vertex_areas > 0))
    if flat.size:
        raise ValueError("%s: vertex %d has zero area (it is in no face, or only in "
                         "zero-area faces)" % (p, flat[0]))
    try:
        return mesh.normalized() if normalize else mesh
    except ValueError as exc:       # an area or coordinates that overflow
        raise ValueError("%s: %s" % (p, exc)) from None


def _row_checks(verts, faces):
    """The row checks of every mesh, in the order they are reported, as
    ``(what, bad, message)``: ``bad`` flags the failing ``what`` rows."""
    (x, y, z), (a, b, c) = verts.T, faces.T
    return (
        ("vertex", ~(np.isfinite(x) & np.isfinite(y) & np.isfinite(z)),
         "non-finite vertex coordinate"),
        ("face", (np.minimum(np.minimum(a, b), c) < 0)
         | (np.maximum(np.maximum(a, b), c) >= len(verts)), "face index out of range"),
        ("face", (a == b) | (b == c) | (c == a), "degenerate face (repeated vertex index)"),
    )


def _checked(path, verts, vertex_rows, faces, face_rows):
    # the row checks of TriMesh, named as path:line; the *_rows are the
    # rows_of of io._table
    rows_of = {"vertex": vertex_rows, "face": face_rows}
    for what, bad, message in _row_checks(verts, faces):
        _reject(path, bad, rows_of[what], message)
    return verts, faces


def read_off(path):
    """Parse an ASCII OFF file, returning ``(vertices, faces)``."""
    rows = partial(_content_lines, path)
    with _text(path) as fh:
        header = _next_content_line(fh)
        if not header:
            raise ValueError("%s: unexpected end of file while reading header" % path)
        if header == "OFF":
            start, counts = 2, _next_content_line(fh)
            if not counts:
                raise ValueError("%s: unexpected end of file while reading counts" % path)
        elif header.startswith("OFF"):
            start, counts = 1, header[3:]
        else:
            raise ValueError("%s:%d: not an OFF file" % (path, rows(0, 1)[0][0]))
        counts_rows = partial(rows, start - 1, start)
        (n_verts, n_faces), = _table(path, [counts], np.int64, 2, "counts", counts_rows)
        if n_verts < 0 or n_faces < 0:
            raise ValueError("%s:%d: malformed counts line" % (path, counts_rows()[0][0]))
        end = start + n_verts
        vertex_rows = partial(rows, start, end)
        face_rows = partial(rows, end, end + n_faces)
        verts = _table(path, fh, np.float64, 3, "vertex", vertex_rows, max_rows=n_verts)
        if len(verts) < n_verts:
            raise ValueError("%s: unexpected end of file while reading vertices" % path)
        faces = _table(path, fh, np.int64, 4, "face", face_rows, max_rows=n_faces)
        if len(faces) < n_faces:
            raise ValueError("%s: unexpected end of file while reading faces" % path)
    bad = np.flatnonzero(faces[:, 0] != 3)
    if bad.size:
        raise ValueError("%s:%d: non-triangular face (%d vertices)"
                         % (path, face_rows()[0][bad[0]], faces[bad[0], 0]))
    return _checked(path, verts, vertex_rows, faces[:, 1:], face_rows)


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
    vertex_rows_of, face_rows_of = (lambda: vertex_rows), (lambda: face_rows)
    verts = _table(path, vertex_rows[1], np.float64, 3, "vertex", vertex_rows_of)
    faces = _table(path, face_rows[1], np.int64, 3, "face", face_rows_of)
    _reject(path, (faces < 1).any(axis=1), face_rows_of, "OBJ indices must be positive")
    return _checked(path, verts, vertex_rows_of, faces - 1, face_rows_of)


def write_off(mesh, path):
    """Write a mesh to an ASCII OFF file (deterministic formatting)."""
    with open(path, "w") as fh:
        np.savetxt(fh, mesh.vertices, fmt="%.17g", comments="",
                   header="OFF\n%d %d 0" % (mesh.n_vertices, mesh.n_faces))
        np.savetxt(fh, mesh.faces, fmt="3 %d %d %d")
