"""Smooth vertex-to-vertex correspondence refinement for triangle meshes.

The package refines noisy map pairs between two surfaces by jointly
optimizing spectral bijectivity and a pluggable pointwise smoothness
energy (Dirichlet by default) with a three-block coordinate solver.
"""

from .energies import coupling_energy, dirichlet_energy, energy_breakdown
from .mesh import (
    TriMesh,
    cotangent_matrix,
    geodesic_distances,
    load_mesh,
    vertex_areas,
    write_off,
)
from .metrics import (
    MetricsReport,
    accuracy_metric,
    bijectivity_metric,
    compute_report,
    conformal_distortion,
    coverage_metric,
    smoothness_metric,
)
from .solver import (
    EnergyTrace,
    SolverConfig,
    SolverState,
    c_step,
    landmark_init,
    pi_step,
    refine,
)
from .spectral import (
    PointwiseMap,
    SpectralBasis,
    compute_basis,
    eigenbasis,
    fmap_to_p2p,
    nearest_rows,
    p2p_to_fmap,
)
from .synth import farthest_point_indices, icosphere, jittered_copy
from .variants import (
    Variant,
    arap_local_step,
    y_step_arap,
    y_step_dirichlet,
    y_step_nicp,
    y_step_rhm,
    y_step_shells,
)

__version__ = "0.1.0"

__all__ = [
    "EnergyTrace",
    "MetricsReport",
    "PointwiseMap",
    "SolverConfig",
    "SolverState",
    "SpectralBasis",
    "TriMesh",
    "Variant",
    "accuracy_metric",
    "arap_local_step",
    "bijectivity_metric",
    "c_step",
    "compute_basis",
    "compute_report",
    "conformal_distortion",
    "cotangent_matrix",
    "coupling_energy",
    "coverage_metric",
    "dirichlet_energy",
    "eigenbasis",
    "energy_breakdown",
    "farthest_point_indices",
    "fmap_to_p2p",
    "geodesic_distances",
    "icosphere",
    "jittered_copy",
    "landmark_init",
    "load_mesh",
    "nearest_rows",
    "p2p_to_fmap",
    "pi_step",
    "refine",
    "smoothness_metric",
    "vertex_areas",
    "write_off",
]
