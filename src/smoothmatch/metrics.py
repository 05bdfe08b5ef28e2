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


@dataclass
class MetricsReport:
    """One evaluation of a map pair (fields may be None when unavailable)."""

    accuracy: float | None = None
    bijectivity: float | None = None
    smoothness: float | None = None
    coverage: float | None = None
    conformal: float | None = None
    collapsed_faces: int | None = None

    def as_text(self):
        def fmt(v):
            return "n/a" if v is None else "%.6g" % v

        lines = [
            "accuracy    %s" % fmt(self.accuracy),
            "bijectivity %s" % fmt(self.bijectivity),
            "smoothness  %s" % fmt(self.smoothness),
            "coverage    %s" % fmt(self.coverage),
        ]
        if self.conformal is not None:
            lines.append("conformal   %s (collapsed faces: %d)"
                         % (fmt(self.conformal), self.collapsed_faces or 0))
        return "\n".join(lines)


def _distance_lookup(mesh, from_idx, to_idx):
    # geodesic distances d(from_idx[t], to_idx[t]) via Dijkstra from the
    # distinct sources only
    uniq, inverse = np.unique(from_idx, return_inverse=True)
    dmat = geodesic_distances(mesh, uniq)
    return dmat[inverse, to_idx]


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
    gt_src, gt_tgt = checked_ground_truth(gt_src, gt_tgt, pi.n_src, mesh_tgt.n_vertices)
    mapped = pi.target_of[gt_src]
    d = _distance_lookup(mesh_tgt, mapped, gt_tgt)
    return GEODESIC_SCALE * float(d.mean())


def bijectivity_metric(pi_12, pi_21, mesh_1, mesh_2):
    """Mean geodesic round-trip error, symmetric over both compositions, x100."""
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
