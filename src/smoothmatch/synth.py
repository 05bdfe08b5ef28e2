"""Synthetic fixtures: icospheres, jittered copies, landmark sampling.

These generators back the regression/acceptance suites and the ``synth``
CLI command; everything is deterministic given the seed.
"""

import numpy as np

from .mesh import TriMesh, geodesic_distances

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array([
    [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
    [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
    [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
], dtype=np.float64)

_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
], dtype=np.int64)


def icosphere(subdivisions=2):
    """Subdivided icosahedron projected to the unit sphere.

    Vertex count is ``10 * 4**subdivisions + 2``; ordering is
    deterministic.  A negative subdivision count is a ValueError.
    """
    if subdivisions < 0:
        raise ValueError("subdivision count must be at least 0 (got %d)" % subdivisions)
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])
    faces = _ICO_FACES.copy()
    for _ in range(subdivisions):
        verts, faces = _subdivide(verts, faces)
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return TriMesh(verts, faces)


def _subdivide(verts, faces):
    midpoint = {}
    new_verts = [v for v in verts]

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = len(new_verts)
            new_verts.append(0.5 * (verts[i] + verts[j]))
        return midpoint[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.asarray(new_verts), np.asarray(new_faces, dtype=np.int64)


def jittered_copy(mesh, amount, seed=0):
    """Copy with Gaussian vertex noise of ``amount * bbox_diagonal``;
    ValueError unless ``amount`` is finite and at least 0."""
    if not 0 <= amount < np.inf:
        raise ValueError("jitter must be finite and at least 0 (got %g)" % amount)
    if amount == 0:
        return TriMesh(mesh.vertices.copy(), mesh.faces.copy())
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=amount * mesh.bbox_diagonal, size=mesh.vertices.shape)
    return TriMesh(mesh.vertices + noise, mesh.faces.copy())


def farthest_point_indices(mesh, count, start=0):
    """Geodesic farthest-point sampling, seeded at ``start``.

    Each new sample's search stops at its own distance to the samples
    so far, the largest in ``dist``: a vertex beyond it could not lower
    its entry, so the samples are those of unbounded searches.
    """
    if count < 1 or count > mesh.n_vertices:
        raise ValueError("count out of range")
    chosen = [int(start)]
    dist = geodesic_distances(mesh, [start])[0]
    while len(chosen) < count:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, geodesic_distances(mesh, [nxt], limit=dist[nxt])[0])
    return np.asarray(chosen, dtype=np.int64)
