"""Map-quality metrics: accuracy, bijectivity, smoothness, coverage.

Geodesic metrics are reported x100 on unit-area meshes so the numbers
live in a convenient magnitude range; smoothness is the raw Dirichlet
energy of the map and coverage is a percentage of target area.  All
metrics are intrinsic (edge lengths, areas) and therefore invariant to
rigid motions and to face relabeling.

On disconnected meshes a geodesic between components is inf: accuracy
is inf when a scored pair lies in different components, bijectivity is
inf when a round trip crosses them, and the other metrics stay finite.
"""

from dataclasses import dataclass

import numpy as np

from .energies import dirichlet_energy
from .mesh import geodesic_distances

GEODESIC_SCALE = 100.0

# the bounded Dijkstra passes of a distance lookup reach these many mean
# edge lengths; a last, unbounded pass takes the pairs still beyond them
_LIMIT_EDGES = (4.0, 8.0)
# every Dijkstra call of a lookup returns at most this many distances
# (4 MB), or one row
_BLOCK_ENTRIES = 500_000


@dataclass
class MetricsReport:
    """One evaluation of a map pair (fields may be None when unavailable)."""

    accuracy: float | None = None
    bijectivity: float | None = None
    smoothness: float | None = None
    coverage: float | None = None
    conformal: float | None = None
    collapsed_faces: int | None = None

    # the columns of every rendering; conformal follows when it is set
    COLUMNS = ("accuracy", "bijectivity", "smoothness", "coverage")

    def as_text(self):
        def fmt(v):
            return "n/a" if v is None else "%.6g" % v

        lines = ["%-12s%s" % (c, fmt(getattr(self, c))) for c in self.COLUMNS]
        if self.conformal is not None:
            lines.append("conformal   %s (collapsed faces: %d)"
                         % (fmt(self.conformal), self.collapsed_faces or 0))
        return "\n".join(lines)


def _distance_lookup(mesh, from_idx, to_idx):
    """Geodesic distances ``d(from_idx[t], to_idx[t])``, in the order given.

    Pairs with equal ends are 0 without a search.  The rest are read
    from Dijkstra passes over their distinct sources: bounded passes at
    ``_LIMIT_EDGES`` mean edge lengths, each re-running only the sources
    with a pair still beyond the last limit, then one unbounded pass,
    which leaves pairs across components inf.  Each pass groups its
    sources into blocks once (see ``_blocks``) and searches each block
    on the subgraph of its ``within`` vertices: near the sources in a
    bounded pass, every vertex in the unbounded one.  A pair whose
    target lies in ``within`` is written straight into the result; the
    rest stay inf for the next pass.  Values within a limit are the
    same floats as from an unbounded search (see
    ``geodesic_distances``).  No distance block holds more than
    ``_BLOCK_ENTRIES`` entries unless it is one row, so memory is
    bounded whatever the pair count.
    """
    from_idx = np.asarray(from_idx, dtype=np.int64)
    to_idx = np.asarray(to_idx, dtype=np.int64)
    out = np.zeros(from_idx.shape)
    todo = np.flatnonzero(from_idx != to_idx)
    if not todo.size:
        return out
    out[todo] = np.inf
    edge = mesh.edge_lengths.mean()
    # no bounded pass at a zero mean edge length (coincident vertices),
    # nor when the bounding box's extent overflows, which leaves no grid
    # of cells: the unbounded pass gives every value
    with np.errstate(over="ignore"):
        bounded = edge > 0 and np.isfinite(np.ptp(mesh.vertices, axis=0)).all()
    for limit in [e * edge for e in _LIMIT_EDGES if bounded] + [np.inf]:
        uniq, inverse = np.unique(from_idx[todo], return_inverse=True)
        block_of, withins = _blocks(mesh, uniq, limit)
        # order the pairs by block; every source is in exactly one
        pair_block = block_of[inverse]
        order = np.argsort(pair_block, kind="stable")
        bounds = np.searchsorted(pair_block[order], np.arange(len(withins) + 1))
        for b, within in enumerate(withins):
            pairs = todo[order[bounds[b]:bounds[b + 1]]]
            sources, rows = np.unique(from_idx[pairs], return_inverse=True)
            cols = np.searchsorted(within, to_idx[pairs])
            inside = np.append(within, -1)[cols] == to_idx[pairs]
            # the block is freed before the next one is searched
            out[pairs[inside]] = geodesic_distances(
                mesh, sources, limit=limit, within=within)[rows[inside], cols[inside]]
        todo = todo[np.isinf(out[todo])]
        if not todo.size:
            break
    return out


def _blocks(mesh, sources, limit):
    """The Dijkstra blocks of one pass over sorted distinct ``sources``:
    ``(block_of, withins)``, where source ``sources[s]`` is searched in
    block ``block_of[s]`` on the subgraph induced by the sorted vertices
    ``withins[block_of[s]]``.

    At the unbounded limit every source is searched on every vertex.  At
    a finite limit, on a mesh of finite extent, sources are grouped by
    the cell of a grid of side ``4 * limit`` that holds them.  A group's
    ``within`` is the vertices in its sources' bounding box grown by
    ``r``, gathered from the group's cell and its 26 neighbours.  A
    shortest path is simple, so it has fewer than n edges; each edge's
    float length is its true length to a few ulps, and Dijkstra's sum of
    them rounds by at most one ulp per edge.  So a path whose float
    length is within the limit is truly shorter than
    ``r = limit * (1 + (n + 8) eps)``, and every vertex on it lies within
    that Euclidean distance of its source.  The box test computes
    ``lo - x`` and ``x - hi`` against its corners, which round
    monotonically, so it keeps such a vertex.  It is at
    most about a quarter cell from its source along each axis, and with
    at most 2**20 cells per axis the cell indices are off by far less
    than a cell, so the neighbouring cells hold it.  Each group is cut
    into runs of consecutive sources, so that no block exceeds
    ``_BLOCK_ENTRIES`` entries unless it is one row; blocks are numbered
    in group order, groups in cell order.
    """
    if limit == np.inf:
        groups = [(np.arange(sources.size), np.arange(mesh.n_vertices))]
    else:
        verts = mesh.vertices
        low = verts.min(axis=0)
        side = max(4.0 * limit, float((verts.max(axis=0) - low).max()) / 2**20)
        # cells counted from 1, so that a neighbour's index is never negative
        cell = np.floor((verts - low) / side).astype(np.int64) + 1
        dims = cell.max(axis=0) + 2
        key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
        by_cell = np.argsort(key, kind="stable")
        sorted_key = key[by_cell]
        # a z-run of three cells for each of the 9 (x, y) neighbour columns
        offsets = np.add.outer(np.arange(-1, 2) * dims[1], np.arange(-1, 2)).ravel() * dims[2]

        src_key = key[sources]
        grouped = np.argsort(src_key, kind="stable")
        cells, first = np.unique(src_key[grouped], return_index=True)
        runs = cells[:, None] + offsets
        starts = np.searchsorted(sorted_key, runs - 1, side="left")
        ends = np.searchsorted(sorted_key, runs + 1, side="right")
        r = limit * (1.0 + (mesh.n_vertices + 8) * np.finfo(float).eps)
        axes = np.ascontiguousarray(verts.T)
        groups = []
        for members, lo, hi in zip(np.split(grouped, first[1:]), starts, ends):
            members = np.sort(members)
            cand = np.concatenate([by_cell[a:b] for a, b in zip(lo, hi)])
            near = np.ones(cand.size, dtype=bool)
            for coord in axes:
                box, x = coord[sources[members]], coord[cand]
                near &= (box.min() - x <= r) & (x - box.max() <= r)
            groups.append((members, np.sort(cand[near])))
    block_of = np.empty(sources.size, dtype=np.int64)
    withins = []
    for members, within in groups:
        run = np.arange(members.size) // max(1, _BLOCK_ENTRIES // within.size)
        block_of[members] = len(withins) + run
        withins += [within] * (run[-1] + 1)
    return block_of, withins


def checked_ground_truth(gt_src, gt_tgt, n_src, n_tgt):
    """Ground-truth pairs as int arrays; ValueError if empty, of unequal
    lengths, or outside ``[0, n_src)`` and ``[0, n_tgt)``."""
    gt_src = np.asarray(gt_src, dtype=np.int64)
    gt_tgt = np.asarray(gt_tgt, dtype=np.int64)
    if gt_src.size == 0:
        raise ValueError("empty ground-truth set")
    if gt_src.shape != gt_tgt.shape:
        raise ValueError("ground truth has %d source and %d target indices"
                         % (gt_src.size, gt_tgt.size))
    for idx, n, side in ((gt_src, n_src, "source"), (gt_tgt, n_tgt, "target")):
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError("ground-truth %s index out of range [0, %d)" % (side, n))
    return gt_src, gt_tgt


def accuracy_metric(pi, gt_src, gt_tgt, mesh_tgt):
    """Mean geodesic error against ground truth, x100.

    Parameters
    ----------
    pi : PointwiseMap
    gt_src, gt_tgt : int arrays
        Ground-truth pairs; only these source vertices are scored, so
        sparse annotations are supported directly.
    mesh_tgt : TriMesh
        Distances are measured on the target surface.
    """
    if pi.n_tgt != mesh_tgt.n_vertices:
        raise ValueError("map targets %d vertices, target mesh has %d"
                         % (pi.n_tgt, mesh_tgt.n_vertices))
    gt_src, gt_tgt = checked_ground_truth(gt_src, gt_tgt, pi.n_src, mesh_tgt.n_vertices)
    mapped = pi.target_of[gt_src]
    d = _distance_lookup(mesh_tgt, mapped, gt_tgt)
    return GEODESIC_SCALE * float(d.mean())


def bijectivity_metric(pi_12, pi_21, mesh_1, mesh_2):
    """Mean geodesic round-trip error, symmetric over both compositions, x100."""
    for pi, m_src, m_tgt in ((pi_12, mesh_1, mesh_2), (pi_21, mesh_2, mesh_1)):
        if (pi.n_src, pi.n_tgt) != (m_src.n_vertices, m_tgt.n_vertices):
            raise ValueError("a %d -> %d vertex map does not fit meshes of %d and %d vertices"
                             % (pi.n_src, pi.n_tgt, m_src.n_vertices, m_tgt.n_vertices))
    r1 = pi_12.compose(pi_21).target_of          # mesh 1 -> mesh 1
    r2 = pi_21.compose(pi_12).target_of          # mesh 2 -> mesh 2
    d1 = _distance_lookup(mesh_1, r1, np.arange(mesh_1.n_vertices))
    d2 = _distance_lookup(mesh_2, r2, np.arange(mesh_2.n_vertices))
    return GEODESIC_SCALE * 0.5 * float(d1.mean() + d2.mean())


def smoothness_metric(pi, mesh_src, mesh_tgt):
    """Dirichlet energy of the pulled-back coordinates (one direction)."""
    return dirichlet_energy(pi.pull(mesh_tgt.vertices), mesh_src.cot_matrix)


def coverage_metric(pi, target_areas):
    """Percentage of target area hit by the image of the map."""
    target_areas = np.asarray(target_areas, dtype=np.float64)
    hit = np.zeros(target_areas.shape[0], dtype=bool)
    hit[pi.target_of] = True
    return 100.0 * float(target_areas[hit].sum() / target_areas.sum())


def _face_frames(verts, faces):
    # 2D coordinates of every triangle in its own plane: (m, 2, 2) columns
    # [p1-p0, p2-p0] in an orthonormal frame, and a mask of the faces that
    # span a plane.  Row dot products go through vecdot, which rounds like
    # np.dot and np.linalg.norm (einsum does not); collapsed faces give
    # nan frames that the mask excludes.
    e1 = verts[faces[:, 1]] - verts[faces[:, 0]]
    e2 = verts[faces[:, 2]] - verts[faces[:, 0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        n1 = np.sqrt(np.vecdot(e1, e1))
        u = e1 / n1[:, None]
        a = np.vecdot(e2, u)
        e2p = e2 - a[:, None] * u
        n2 = np.sqrt(np.vecdot(e2p, e2p))
        b = np.vecdot(e2, e2p / n2[:, None])
    frames = np.zeros((len(faces), 2, 2))
    frames[:, 0, 0], frames[:, 0, 1], frames[:, 1, 1] = n1, a, b
    return frames, (n1 != 0) & (n2 != 0)


def _running_sum(x):
    # left-to-right sum from 0.0, as a `+=` loop gives; .sum() is pairwise
    return np.cumsum(np.append(0.0, x))[-1]


def conformal_distortion(pi, mesh_src, mesh_tgt, return_collapsed=False):
    """Area-weighted mean quasi-conformal dilatation of the map.

    Per source face the affine map onto the image triangle has singular
    values s1 >= s2; the face distortion is s1/s2 (1 for conformal
    maps, including uniform scaling).  Faces with collapsed images are
    excluded from the mean and counted separately.
    """
    faces = mesh_src.faces
    p, p_ok = _face_frames(mesh_src.vertices, faces)
    q, q_ok = _face_frames(pi.pull(mesh_tgt.vertices), faces)
    ok = p_ok & q_ok
    s = np.linalg.svd(q[ok] @ np.linalg.inv(p[ok]), compute_uv=False)
    # not (<=) rather than >: a nan face is kept, as in the per-face oracle
    kept = ~(s[:, 1] <= 1e-12 * np.maximum(s[:, 0], 1e-300))
    areas = mesh_src.face_areas[ok][kept]
    total = _running_sum(areas * (s[kept, 0] / s[kept, 1]))
    weight = _running_sum(areas)
    mean = total / weight if weight > 0 else float("inf")
    if return_collapsed:
        return mean, len(faces) - int(kept.sum())
    return mean


def compute_report(pi_12, pi_21, mesh_1, mesh_2,
                   gt_src=None, gt_tgt=None, with_conformal=False):
    """Full metrics report for a map (pair).

    ``pi_21`` may be None.  Smoothness is averaged over both directions
    when both maps are given; bijectivity needs both.  Accuracy needs
    ground truth for the 1->2 direction.
    """
    report = MetricsReport()
    if gt_src is not None and gt_tgt is not None:
        report.accuracy = accuracy_metric(pi_12, gt_src, gt_tgt, mesh_2)
    if pi_21 is not None:
        report.bijectivity = bijectivity_metric(pi_12, pi_21, mesh_1, mesh_2)
        report.smoothness = 0.5 * (
            smoothness_metric(pi_12, mesh_1, mesh_2)
            + smoothness_metric(pi_21, mesh_2, mesh_1)
        )
    else:
        report.smoothness = smoothness_metric(pi_12, mesh_1, mesh_2)
    report.coverage = coverage_metric(pi_12, mesh_2.vertex_areas)
    if with_conformal:
        report.conformal, report.collapsed_faces = conformal_distortion(
            pi_12, mesh_1, mesh_2, return_collapsed=True
        )
    return report
