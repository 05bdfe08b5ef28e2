import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence
from scipy.spatial import ConvexHull

from smoothmatch.mesh import TriMesh
from smoothmatch.solver import SolverState
from smoothmatch.spectral import PointwiseMap, compute_basis
from smoothmatch.synth import icosphere


def hull_mesh(rng, n, normalize=True):
    """Random closed triangle mesh: convex hull of sphere points,
    radially perturbed after connectivity is fixed."""
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    faces = ConvexHull(pts).simplices
    pts = pts * rng.uniform(0.85, 1.15, size=(n, 1))
    mesh = TriMesh(pts, faces)
    return mesh.normalized() if normalize else mesh


def two_spheres(subdivisions=2):
    """Two disjoint copies of an icosphere: a mesh with two components."""
    sphere = icosphere(subdivisions)
    n = sphere.n_vertices
    return TriMesh(np.vstack([sphere.vertices, sphere.vertices + 3.0]),
                   np.vstack([sphere.faces, sphere.faces + n]))


def jittered_icosphere(subdivisions=3, edges=0.25, seed=0):
    """An icosphere and a copy whose vertices carry seeded Gaussian noise
    of ``edges`` mean edge lengths, on the same faces."""
    sphere = icosphere(subdivisions)
    e = sphere.edges
    sigma = edges * np.linalg.norm(sphere.vertices[e[:, 0]] - sphere.vertices[e[:, 1]],
                                   axis=1).mean()
    noise = np.random.default_rng(seed).normal(scale=sigma, size=sphere.vertices.shape)
    return sphere, TriMesh(sphere.vertices + noise, sphere.faces)


def arpack_no_convergence(*args, **kwargs):
    """Stand-in for ``eigsh`` that fails as ARPACK does when it stops unconverged."""
    raise ArpackNoConvergence("ARPACK error -1: No convergence (1 iterations, 0/10 "
                              "eigenvectors converged)", np.empty(0), np.empty((0, 0)))


def random_map(rng, mesh_src, mesh_tgt):
    return PointwiseMap(
        rng.integers(0, mesh_tgt.n_vertices, mesh_src.n_vertices), mesh_tgt.n_vertices
    )


def make_random_state(rng, m1, m2, b1, b2, k):
    """A state with random maps, random k x k functional maps and random Y."""
    state = SolverState(random_map(rng, m1, m2), random_map(rng, m2, m1))
    state.c_21 = rng.normal(size=(k, k))
    state.c_12 = rng.normal(size=(k, k))
    state.y_12 = rng.normal(size=(m1.n_vertices, 3))
    state.y_21 = rng.normal(size=(m2.n_vertices, 3))
    return state


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def right_triangle():
    return TriMesh(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]]
    )


@pytest.fixture(scope="session")
def unit_square():
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    return TriMesh(verts, [[0, 1, 2], [0, 2, 3]])


@pytest.fixture(scope="session")
def equilateral():
    h = np.sqrt(3.0) / 2.0
    return TriMesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, h, 0.0]], [[0, 1, 2]])


@pytest.fixture(scope="session")
def sphere2():
    return icosphere(2).normalized()


@pytest.fixture(scope="session")
def sphere2_basis(sphere2):
    return compute_basis(sphere2, 100)


@pytest.fixture(scope="session")
def sphere4():
    return icosphere(4).normalized()


@pytest.fixture(scope="session")
def sphere4_basis(sphere4):
    return compute_basis(sphere4, 100)
