"""Seeded inputs and the timed calls of each benchmark workload.

Every workload has three parts:

* ``generate(rng, tiny, workdir)`` builds the inputs from a seeded
  generator and writes the files the program reads.  It runs before any
  timing and before tracing is installed.
* ``setup(inputs)`` is the work a user pays once per mesh pair and
  reuses across pairs and energies (timed as ``setup_s``).
* ``pair(inputs, loaded)`` is the per-pair work (timed as ``pair_s``).

Library functions are looked up on their modules at call time, so the
tracer's wrappers are seen by these calls too.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from smoothmatch import io as sm_io
from smoothmatch import mesh, metrics, solver, spectral, synth, variants

K_BASIS = 100
LANDMARKS = 5
SPHERE_SUBDIV = {False: 4, True: 2}          # 2 562 / 162 vertices
HULL_SIZES = {False: (4500, 5000), True: (300, 340)}
STRETCH = np.array([1.3, 1.0, 0.8])
JITTER_EDGES = 0.25        # jitter sigma, in mean edge lengths
EVAL_OFFSET_EDGES = 2.0    # noisy-map displacement, in mean edge lengths


@dataclass
class Inputs:
    """Generated inputs: file paths plus the arrays passed in memory."""

    files: dict
    landmarks: np.ndarray | None = None
    gt: tuple | None = None


@dataclass
class Loaded:
    """Result of one set-up: both meshes and what the pair work reuses."""

    mesh_1: object
    mesh_2: object
    bases: tuple | None = None
    maps: tuple | None = None
    gt: tuple | None = None


@dataclass
class Outcome:
    """Result of one pair repetition."""

    pi_12: object
    pi_21: object
    report: object
    energies: list = field(default_factory=list)
    init: tuple | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    setup: object
    pair: object
    refines: bool


# ----------------------------------------------------------------------
# input generation (never timed)
# ----------------------------------------------------------------------
def mean_edge_length(m):
    e = m.edges
    return float(np.linalg.norm(m.vertices[e[:, 0]] - m.vertices[e[:, 1]], axis=1).mean())


def _unit_vectors(rng, n):
    p = rng.normal(size=(n, 3))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def _write_meshes(workdir, src, tgt):
    files = {"src": Path(workdir) / "src.off", "tgt": Path(workdir) / "tgt.off"}
    mesh.write_off(src, files["src"])
    mesh.write_off(tgt, files["tgt"])
    return files


def _fps_landmarks(src, gt_12):
    # farthest-point sampling seeded at vertex 0, as `smoothmatch synth` does
    lm = synth.farthest_point_indices(src, LANDMARKS, start=0)
    pairs = np.column_stack([lm, gt_12[lm]])
    if np.unique(pairs[:, 1]).size != LANDMARKS:
        raise RuntimeError("landmark images collide on the target mesh")
    return pairs


def hull_pair(rng, tiny):
    """Two independently triangulated unit spheres, the target stretched.

    Each mesh is the convex hull of seeded random unit vectors, so every
    point is a vertex.  Ground truth in both directions is the nearest
    direction on the other sphere.
    """
    n_1, n_2 = HULL_SIZES[tiny]
    d_1, d_2 = _unit_vectors(rng, n_1), _unit_vectors(rng, n_2)
    src = mesh.TriMesh(d_1, ConvexHull(d_1).simplices)
    tgt = mesh.TriMesh(d_2 * STRETCH, ConvexHull(d_2).simplices)
    gt_12 = cKDTree(d_2).query(d_1)[1].astype(np.int64)
    gt_21 = cKDTree(d_1).query(d_2)[1].astype(np.int64)
    return src, tgt, gt_12, gt_21


def noisy_map(rng, gt, tgt):
    """Ground-truth images displaced by a fixed distance in a random
    direction, then snapped to the nearest target vertex."""
    step = EVAL_OFFSET_EDGES * mean_edge_length(tgt)
    moved = tgt.vertices[gt] + step * _unit_vectors(rng, gt.size)
    return cKDTree(tgt.vertices).query(moved)[1].astype(np.int64)


def generate_sphere(rng, tiny, workdir):
    src = synth.icosphere(SPHERE_SUBDIV[tiny])
    sigma = JITTER_EDGES * mean_edge_length(src)
    tgt = mesh.TriMesh(src.vertices + rng.normal(scale=sigma, size=src.vertices.shape),
                       src.faces)
    ident = np.arange(src.n_vertices)
    return Inputs(_write_meshes(workdir, src, tgt), _fps_landmarks(src, ident),
                  (ident, ident))


def generate_remesh(rng, tiny, workdir):
    src, tgt, gt_12, _ = hull_pair(rng, tiny)
    return Inputs(_write_meshes(workdir, src, tgt), _fps_landmarks(src, gt_12),
                  (np.arange(src.n_vertices), gt_12))


def generate_eval(rng, tiny, workdir):
    src, tgt, gt_12, gt_21 = hull_pair(rng, tiny)
    files = _write_meshes(workdir, src, tgt)
    for key, pi in (("map_12", noisy_map(rng, gt_12, tgt)),
                    ("map_21", noisy_map(rng, gt_21, src))):
        files[key] = Path(workdir) / ("%s.txt" % key)
        np.savetxt(files[key], pi, fmt="%d")
    files["gt"] = Path(workdir) / "gt.txt"
    np.savetxt(files["gt"], gt_12, fmt="%d")
    return Inputs(files)


# ----------------------------------------------------------------------
# timed work
# ----------------------------------------------------------------------
def setup_refine(inp):
    m_1, m_2 = mesh.load_mesh(inp.files["src"]), mesh.load_mesh(inp.files["tgt"])
    bases = (spectral.compute_basis(m_1, K_BASIS), spectral.compute_basis(m_2, K_BASIS))
    return Loaded(m_1, m_2, bases=bases)


def refine_pair(kind):
    def pair(inp, loaded):
        m_1, m_2 = loaded.mesh_1, loaded.mesh_2
        b_1, b_2 = loaded.bases
        init = solver.landmark_init(inp.landmarks, b_1, b_2)
        config = solver.SolverConfig(variant=variants.Variant(kind))
        pi_12, pi_21, trace = solver.refine(*init, m_1, m_2, b_1, b_2, config)
        report = metrics.compute_report(pi_12, pi_21, m_1, m_2, *inp.gt)
        energies = [v for row in trace.rows for v in row.values()]
        return Outcome(pi_12, pi_21, report, energies, init)
    return pair


def setup_eval(inp):
    m_1, m_2 = mesh.load_mesh(inp.files["src"]), mesh.load_mesh(inp.files["tgt"])
    maps = (sm_io.read_pointwise_map(inp.files["map_12"], m_2.n_vertices),
            sm_io.read_pointwise_map(inp.files["map_21"], m_1.n_vertices))
    return Loaded(m_1, m_2, maps=maps, gt=sm_io.read_ground_truth(inp.files["gt"]))


def eval_pair(inp, loaded):
    pi_12, pi_21 = loaded.maps
    report = metrics.compute_report(pi_12, pi_21, loaded.mesh_1, loaded.mesh_2,
                                    *loaded.gt, with_conformal=True)
    return Outcome(pi_12, pi_21, report)


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload("sphere-dirichlet", generate_sphere, setup_refine,
                 refine_pair("dirichlet"), refines=True),
        Workload("remesh-nicp", generate_remesh, setup_refine,
                 refine_pair("nicp"), refines=True),
        Workload("eval-remesh", generate_eval, setup_eval, eval_pair, refines=False),
    )
}
