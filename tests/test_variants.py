import logging
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve
from scipy.spatial.transform import Rotation

from conftest import hull_mesh, random_map

from smoothmatch import variants
from smoothmatch.energies import a_norm_sq, dirichlet_energy
from smoothmatch.mesh import TriMesh
from smoothmatch.spectral import PointwiseMap, compute_basis
from smoothmatch.synth import icosphere
from smoothmatch.variants import (
    Variant,
    arap_energy,
    arap_local_step,
    arap_rhs,
    arap_rigid_term,
    dirichlet_operator,
    nicp_operator,
    prefactored,
    y_step_arap,
    y_step_dirichlet,
    y_step_nicp,
    y_step_rhm,
    y_step_shells,
)


def identity_map(mesh):
    return PointwiseMap(np.arange(mesh.n_vertices), mesh.n_vertices)


def dirichlet_coupled_energy(y, pulled, mesh, beta):
    return dirichlet_energy(y, mesh.cot_matrix) + beta * a_norm_sq(
        y - pulled, mesh.vertex_areas
    )


def test_prefactored_singular_matrix_raises(caplog):
    # a singular Y-step system is a solver error, never silently ridged
    with caplog.at_level(logging.WARNING), pytest.raises(RuntimeError):
        prefactored(sparse.csc_matrix((3, 3)))
    assert not caplog.records


# operator and unknowns per vertex; nicp_blocks is the vertex-block
# factor refine uses for nicp
OPERATORS = {
    "dirichlet": (lambda m: dirichlet_operator(m, 200.0), 1),
    "arap": (lambda m: dirichlet_operator(m, 0.1, 2.0), 1),
    "nicp": (lambda m: nicp_operator(m, 1e-2), 1),
    "nicp_blocks": (lambda m: nicp_operator(m, 1e-2), 4),
}


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("mesh_name", ["icosphere3", "hull300"])
def test_prefactored_matches_spsolve(kind, mesh_name):
    if mesh_name == "icosphere3":
        mesh = icosphere(3).normalized()
    else:
        mesh = hull_mesh(np.random.default_rng(20240817), 300)
    operator, block = OPERATORS[kind]
    op = sparse.csc_matrix(operator(mesh))
    rhs = np.random.default_rng(0).normal(size=(op.shape[0], 3))
    x = prefactored(op, block)(rhs)
    ref = spsolve(op, rhs)
    assert np.linalg.norm(op @ x - rhs) < 1e-9 * np.linalg.norm(rhs)
    assert np.linalg.norm(x - ref) < 1e-7 * np.linalg.norm(ref)


def _factor_fill(monkeypatch, mat, block):
    # L + U entries of the factor prefactored solves with (its last splu)
    factors = []

    def splu_spy(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(variants, "splu", splu_spy)
    prefactored(mat, block)
    monkeypatch.undo()
    assert factors[-1].shape == mat.shape
    return factors[-1].L.nnz + factors[-1].U.nnz


def test_prefactored_fill_below_colamd(monkeypatch):
    # the vertex-block minimum-degree order fills about 0.7x a COLAMD LU here
    mat = sparse.csc_matrix(nicp_operator(icosphere(3).normalized(), 1e-2))
    colamd = splu(mat)
    assert _factor_fill(monkeypatch, mat, 4) < 0.8 * (colamd.L.nnz + colamd.U.nnz)


def test_prefactored_vertex_blocks_fill_below_scalar_order(monkeypatch):
    # on a hull the vertex-block order fills about 0.8x a minimum-degree
    # order of the whole nicp operator (on icosphere(3) the two are even)
    mat = sparse.csc_matrix(nicp_operator(hull_mesh(np.random.default_rng(7), 2000), 1e-2))
    assert _factor_fill(monkeypatch, mat, 4) < 0.9 * _factor_fill(monkeypatch, mat, 1)


@pytest.mark.parametrize("subdivisions, repeats", [(4, 3), (5, 1)])
def test_prefactored_vertex_blocks_faster_than_scalar_order(subdivisions, repeats):
    # supernodes over the 4 x 4 vertex blocks factor icosphere(4) and
    # icosphere(5) nicp in 0.55-0.75x the time of the scalar path; at
    # SuperLU's default relaxation the icosphere(5) block factor took
    # about 3x as long as the scalar one
    mat = sparse.csc_matrix(nicp_operator(icosphere(subdivisions).normalized(), 1e-2))
    times = {1: [], 4: []}
    for _ in range(repeats):
        for block in times:
            start = time.perf_counter()
            prefactored(mat, block)
            times[block].append(time.perf_counter() - start)
    assert min(times[4]) < min(times[1])


def test_prefactored_factor_time_against_colamd():
    # without relax=1, panel_size=1 SuperLU's supernode relaxation made
    # this factor about 4x slower than COLAMD; with them it is about 0.5x
    mat = sparse.csc_matrix(dirichlet_operator(icosphere(4).normalized(), 200.0))

    def best_of_5(factor):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            factor()
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of_5(lambda: prefactored(mat)) < 1.5 * best_of_5(lambda: splu(mat))


# ----------------------------------------------------------------------
# Dirichlet Y-step
# ----------------------------------------------------------------------
def test_dirichlet_huge_beta_pins_to_pullback(rng):
    m1, m2 = hull_mesh(rng, 25), hull_mesh(rng, 25)
    pi = random_map(rng, m1, m2)
    y = y_step_dirichlet(pi, m1, m2, 1e8)
    gap = np.abs(y - pi.pull(m2.vertices)).max()
    assert gap < 1e-4 * m1.bbox_diagonal


def test_dirichlet_solve_residual(rng):
    m1, m2 = hull_mesh(rng, 30), hull_mesh(rng, 30)
    pi = random_map(rng, m1, m2)
    beta = 2.0
    y = y_step_dirichlet(pi, m1, m2, beta)
    a = m1.vertex_areas
    rhs = beta * a[:, None] * pi.pull(m2.vertices)
    lhs = (m1.cot_matrix + sparse.diags(beta * a)) @ y
    assert np.linalg.norm(lhs - rhs) < 1e-9 * np.linalg.norm(rhs)


def test_dirichlet_lowers_coupled_energy(rng):
    m1, m2 = hull_mesh(rng, 20), hull_mesh(rng, 20)
    pi = random_map(rng, m1, m2)
    beta = 1.5
    pulled = pi.pull(m2.vertices)
    y = y_step_dirichlet(pi, m1, m2, beta)
    assert dirichlet_coupled_energy(y, pulled, m1, beta) <= dirichlet_coupled_energy(
        pulled, pulled, m1, beta
    ) + 1e-9


def test_dirichlet_beta_zero_constant(rng):
    m1, m2 = hull_mesh(rng, 15), hull_mesh(rng, 15)
    pi = random_map(rng, m1, m2)
    y = y_step_dirichlet(pi, m1, m2, 0.0)
    assert np.abs(y - y[0]).max() == 0.0


# ----------------------------------------------------------------------
# nICP
# ----------------------------------------------------------------------
def test_nicp_translation_fixture(rng):
    src = icosphere(1).normalized()
    t = np.array([0.3, -0.1, 0.2])
    tgt = TriMesh(src.vertices + t, src.faces)
    pi = identity_map(src)
    d, y = y_step_nicp(pi, src, tgt, beta=1e-2)
    field = d.reshape(src.n_vertices, 12)
    assert dirichlet_energy(field, src.cot_matrix) < 1e-10
    assert np.abs(y - tgt.vertices).max() < 1e-8
    # recovered transform is the constant translation
    assert np.abs(d[:, :, :3] - np.eye(3)).max() < 1e-8
    assert np.abs(d[:, :, 3] - t).max() < 1e-8


def test_nicp_unfactored_solve_uses_vertex_blocks(rng, monkeypatch):
    m1, m2 = hull_mesh(rng, 40), hull_mesh(rng, 45)
    pi = random_map(rng, m1, m2)
    factor = variants.prefactored
    blocks = []

    def spy(mat, block=1):
        blocks.append(block)
        return factor(mat, block)

    monkeypatch.setattr(variants, "prefactored", spy)
    d, y = y_step_nicp(pi, m1, m2, 1e-2)
    monkeypatch.undo()
    assert blocks == [4]
    solve = factor(nicp_operator(m1, 1e-2), 4)
    d_ref, y_ref = y_step_nicp(pi, m1, m2, 1e-2, factored=lambda build, mesh, *weights: solve)
    assert np.array_equal(d, d_ref) and np.array_equal(y, y_ref)


def test_nicp_beta_zero_identity_transforms(rng):
    m1, m2 = hull_mesh(rng, 12), hull_mesh(rng, 12)
    pi = random_map(rng, m1, m2)
    d, y = y_step_nicp(pi, m1, m2, beta=0.0)
    assert np.abs(d[:, :, :3] - np.eye(3)).max() == 0.0
    assert np.array_equal(y, m1.vertices)


def test_nicp_normal_equation_residual(rng):
    m1, m2 = hull_mesh(rng, 15), hull_mesh(rng, 15)
    pi = random_map(rng, m1, m2)
    beta = 0.5
    d, y = y_step_nicp(pi, m1, m2, beta)
    n = m1.n_vertices
    op = nicp_operator(m1, beta)
    xt = np.hstack([m1.vertices, np.ones((n, 1))])
    target = pi.pull(m2.vertices)
    # unknown columns follow the (n, 4) row layout used by the operator
    g = np.stack([d[:, r, :].ravel() for r in range(3)], axis=1)
    rhs = np.stack(
        [((beta * m1.vertex_areas * target[:, r])[:, None] * xt).ravel() for r in range(3)],
        axis=1,
    )
    resid = op @ g - rhs
    assert np.linalg.norm(resid) < 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_nicp_exactly_fits_any_map_smoothly(rng):
    # per-vertex affine transforms can reproduce the pulled-back
    # coordinates exactly; the solution must beat that trivial fit on
    # the combined objective
    m1, m2 = hull_mesh(rng, 18), hull_mesh(rng, 18)
    pi = random_map(rng, m1, m2)
    beta = 1e-2
    d, y = y_step_nicp(pi, m1, m2, beta)
    field_energy = dirichlet_energy(d.reshape(-1, 12), m1.cot_matrix)
    couple = a_norm_sq(y - pi.pull(m2.vertices), m1.vertex_areas)
    # trivial exact fit: pure per-vertex translations
    pulled = pi.pull(m2.vertices)
    triv = np.zeros_like(d)
    triv[:, :, 3] = pulled
    triv_energy = dirichlet_energy(triv.reshape(-1, 12), m1.cot_matrix)
    assert field_energy + beta * couple <= triv_energy + 1e-9


# ----------------------------------------------------------------------
# ARAP
# ----------------------------------------------------------------------
def test_arap_local_global_rotation(rng):
    mesh = icosphere(1).normalized()
    q = Rotation.from_rotvec([0.3, -0.7, 0.5]).as_matrix()
    rot = arap_local_step(mesh.vertices @ q.T, mesh)
    assert np.abs(rot - q).max() < 1e-8


def test_arap_local_identity(rng):
    mesh = hull_mesh(rng, 20)
    rot = arap_local_step(mesh.vertices, mesh)
    assert np.abs(rot - np.eye(3)).max() < 1e-8


def test_arap_local_in_so3(rng):
    mesh = hull_mesh(rng, 25)
    y = rng.normal(size=(mesh.n_vertices, 3))
    rot = arap_local_step(y, mesh)
    eye = rot @ rot.transpose(0, 2, 1)
    assert np.abs(eye - np.eye(3)).max() < 1e-8
    assert np.abs(np.linalg.det(rot) - 1.0).max() < 1e-8


def test_arap_local_beats_random_rotations(rng):
    # per-vertex objective is trace(R S_i) with S_i the weighted edge
    # covariance; the Procrustes solution must beat 10,000 samples
    mesh = hull_mesh(rng, 12)
    y = rng.normal(size=(mesh.n_vertices, 3))
    edges, w = mesh.edge_weights
    dx = mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]]
    dy = y[edges[:, 0]] - y[edges[:, 1]]
    cov = np.zeros((mesh.n_vertices, 3, 3))
    contrib = w[:, None, None] * dx[:, :, None] * dy[:, None, :]
    np.add.at(cov, edges[:, 0], contrib)
    np.add.at(cov, edges[:, 1], contrib)

    rot = arap_local_step(y, mesh)
    samples = Rotation.random(10000, rng=np.random.default_rng(5)).as_matrix()
    fitted = np.einsum("iab,iab->i", rot.transpose(0, 2, 1), cov)
    sampled = np.einsum("sab,iab->is", samples.transpose(0, 2, 1), cov)
    assert np.all(fitted[:, None] >= sampled - 1e-9)


def test_arap_rigid_motion_fixture():
    src = icosphere(1).normalized()
    q = Rotation.from_rotvec([0.2, 0.4, -0.3]).as_matrix()
    t = np.array([0.5, 0.0, -0.2])
    tgt = TriMesh(src.vertices @ q.T + t, src.faces)
    pi = identity_map(src)
    rot, y = y_step_arap(pi, src, tgt, beta=0.1, lam=1.0)
    assert np.abs(rot - q).max() < 1e-6
    assert np.abs(y - tgt.vertices).max() < 1e-6
    assert abs(arap_energy(rot, y, src)) < 1e-8


def test_arap_global_residual(rng):
    m1, m2 = hull_mesh(rng, 25), hull_mesh(rng, 25)
    pi = random_map(rng, m1, m2)
    beta, lam = 0.4, 1.0
    rot, y = y_step_arap(pi, m1, m2, beta, lam)
    a = m1.vertex_areas
    lhs = (lam * m1.cot_matrix + sparse.diags(beta * a)) @ y
    rhs = lam * arap_rhs(rot, m1) + beta * a[:, None] * pi.pull(m2.vertices)
    assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(rhs))


def test_arap_beta_zero_pins_centroid(rng):
    m1, m2 = hull_mesh(rng, 20), hull_mesh(rng, 20)
    pi = random_map(rng, m1, m2)
    rot, y = y_step_arap(pi, m1, m2, beta=0.0, lam=1.0)
    a = m1.vertex_areas
    pulled = pi.pull(m2.vertices)
    c_y = (a[:, None] * y).sum(axis=0) / a.sum()
    c_p = (a[:, None] * pulled).sum(axis=0) / a.sum()
    assert np.abs(c_y - c_p).max() < 1e-8


def test_arap_decomposition_identity(rng):
    mesh = hull_mesh(rng, 22)
    const = dirichlet_energy(mesh.vertices, mesh.cot_matrix)
    for _ in range(5):
        y = rng.normal(size=(mesh.n_vertices, 3))
        rot = arap_local_step(rng.normal(size=(mesh.n_vertices, 3)), mesh)
        lhs = arap_energy(rot, y, mesh)
        rhs = (
            dirichlet_energy(y, mesh.cot_matrix)
            - 2.0 * arap_rigid_term(rot, y, mesh)
            + const
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_arap_direct_sum_equals_energy(rng):
    # the assembled form must equal the literal half sum of
    # w_ij |(y_i - y_j) - R_i (x_i - x_j)|^2 over directed edges
    mesh = hull_mesh(rng, 15)
    y = rng.normal(size=(mesh.n_vertices, 3))
    rot = arap_local_step(y, mesh)
    edges, w = mesh.edge_weights
    x = mesh.vertices
    total = 0.0
    for (i, j), wij in zip(edges, w):
        for a, b in ((i, j), (j, i)):
            d = (y[a] - y[b]) - rot[a] @ (x[a] - x[b])
            total += 0.5 * wij * float(d @ d)
    assert arap_energy(rot, y, mesh) == pytest.approx(total, rel=1e-9)


# ----------------------------------------------------------------------
# shells
# ----------------------------------------------------------------------
def test_shells_identity_fixture(sphere2, sphere2_basis):
    pi = identity_map(sphere2)
    basis = sphere2_basis.sliced(20)
    d, y, _ = y_step_shells(pi, sphere2, sphere2, basis, beta=1e-3, lam=1.0, k_def=20)
    disp = basis.phi[:, :20] @ d
    assert np.sqrt(a_norm_sq(disp, sphere2.vertex_areas)) < 1e-6 * sphere2.bbox_diagonal
    assert np.abs(y - sphere2.vertices).max() < 1e-6


def test_shells_zero_displacement_is_rest_pose(sphere2, sphere2_basis):
    d = np.zeros((15, 3))
    y = sphere2.vertices + sphere2_basis.phi[:, :15] @ d
    assert np.array_equal(y, sphere2.vertices)


@pytest.mark.parametrize("beta", [0.2, 0.0])
def test_shells_projected_residual(rng, beta):
    # at beta = 0 the projected system is singular along the constant
    # mode, and the least-squares branch must return its minimum-norm
    # solution, which leaves that mode alone
    m1, m2 = hull_mesh(rng, 30), hull_mesh(rng, 30)
    basis = compute_basis(m1, 10)
    pi = random_map(rng, m1, m2)
    lam, k_def = 1.0, 10
    d, y, _ = y_step_shells(pi, m1, m2, basis, beta, lam, k_def)
    phi = basis.phi[:, :k_def]
    a = m1.vertex_areas
    rot = arap_local_step(pi.pull(m2.vertices), m1)
    b = arap_rhs(rot, m1)
    op = phi.T @ (lam * (m1.cot_matrix @ phi) + beta * a[:, None] * phi)
    rhs = phi.T @ (
        lam * b
        + beta * a[:, None] * pi.pull(m2.vertices)
        - (lam * (m1.cot_matrix @ m1.vertices) + beta * a[:, None] * m1.vertices)
    )
    assert np.linalg.norm(op @ d - rhs) < 1e-8 * max(1.0, np.linalg.norm(rhs))
    if beta == 0:
        assert np.abs(d[0]).max() < 1e-12 * np.abs(d).max()


# ----------------------------------------------------------------------
# RHM
# ----------------------------------------------------------------------
def test_rhm_mu_zero_bitmatches_dirichlet(rng):
    m1, m2 = hull_mesh(rng, 20), hull_mesh(rng, 20)
    pi_fwd = random_map(rng, m1, m2)
    pi_bwd = random_map(rng, m2, m1)
    y_rhm = y_step_rhm(pi_fwd, pi_bwd, m1, m2, beta=1.0, mu=0.0)
    y_dir = y_step_dirichlet(pi_fwd, m1, m2, beta=1.0)
    assert np.array_equal(y_rhm, y_dir)


def test_rhm_system_matches_dense(rng):
    m1, m2 = hull_mesh(rng, 20), hull_mesh(rng, 22)
    pi_fwd = random_map(rng, m1, m2)
    pi_bwd = random_map(rng, m2, m1)
    beta, mu = 0.7, 3.0
    y = y_step_rhm(pi_fwd, pi_bwd, m1, m2, beta, mu)

    from oracles import dense_pi

    p_fwd = dense_pi(pi_fwd)
    p_bwd = dense_pi(pi_bwd)
    a1 = np.diag(m1.vertex_areas)
    a2 = np.diag(m2.vertex_areas)
    mat = m1.cot_matrix.toarray() + beta * a1 + mu * p_bwd.T @ a2 @ p_bwd
    rhs = beta * a1 @ p_fwd @ m2.vertices + mu * p_bwd.T @ a2 @ m2.vertices
    dense_y = np.linalg.solve(mat, rhs)
    assert np.abs(y - dense_y).max() < 1e-8


def test_rhm_identity_large_weights_near_rest(sphere2):
    pi = identity_map(sphere2)
    y = y_step_rhm(pi, pi, sphere2, sphere2, beta=1e6, mu=1e6)
    assert np.abs(y - sphere2.vertices).max() < 1e-4 * sphere2.bbox_diagonal


def test_rhm_residual_of_stated_system(sphere2):
    pi = identity_map(sphere2)
    beta, mu = 1.0, 1e4
    y = y_step_rhm(pi, pi, sphere2, sphere2, beta, mu)
    a = sphere2.vertex_areas
    mat = sphere2.cot_matrix + sparse.diags((beta + mu) * a)
    rhs = (beta + mu) * a[:, None] * sphere2.vertices
    assert np.linalg.norm(mat @ y - rhs) < 1e-9 * np.linalg.norm(rhs)


def test_rhm_lowers_its_energy_vs_pullback(rng):
    m1, m2 = hull_mesh(rng, 20), hull_mesh(rng, 20)
    pi_fwd = random_map(rng, m1, m2)
    pi_bwd = random_map(rng, m2, m1)
    beta, mu = 1.0, 2.0

    def rhm_energy(y):
        e = dirichlet_energy(y, m1.cot_matrix)
        e += beta * a_norm_sq(y - pi_fwd.pull(m2.vertices), m1.vertex_areas)
        e += mu * a_norm_sq(y[pi_bwd.target_of] - m2.vertices, m2.vertex_areas)
        return e

    y = y_step_rhm(pi_fwd, pi_bwd, m1, m2, beta, mu)
    assert rhm_energy(y) <= rhm_energy(pi_fwd.pull(m2.vertices)) + 1e-9


# ----------------------------------------------------------------------
# shared properties
# ----------------------------------------------------------------------
def test_every_y_step_minimizes_its_energy(rng):
    # exact linear minimization: each variant's solve cannot increase
    # its own coupled energy relative to a feasible baseline (the
    # pull-back seed, the exact-fit translation field, or the zero
    # displacement); 20 fixtures x 5 variants
    for trial in range(20):
        m1, m2 = hull_mesh(rng, 18), hull_mesh(rng, 18)
        pi = random_map(rng, m1, m2)
        pi_bwd = random_map(rng, m2, m1)
        pulled = pi.pull(m2.vertices)
        beta = float(rng.uniform(0.2, 3.0))
        areas = m1.vertex_areas

        y = y_step_dirichlet(pi, m1, m2, beta)
        assert dirichlet_coupled_energy(y, pulled, m1, beta) <= (
            dirichlet_coupled_energy(pulled, pulled, m1, beta) + 1e-9
        )

        d, y = y_step_nicp(pi, m1, m2, beta)
        e_new = dirichlet_energy(d.reshape(-1, 12), m1.cot_matrix) + beta * a_norm_sq(
            y - pulled, areas
        )
        d0 = np.zeros_like(d)
        d0[:, :, 3] = pulled
        e_base = dirichlet_energy(d0.reshape(-1, 12), m1.cot_matrix)
        assert e_new <= e_base + 1e-9

        rot, y = y_step_arap(pi, m1, m2, beta, lam=1.0)
        e_new = arap_energy(rot, y, m1) + beta * a_norm_sq(y - pulled, areas)
        e_base = arap_energy(rot, pulled, m1)
        assert e_new <= e_base + 1e-9

        basis = compute_basis(m1, 6)
        d_spec, y, _ = y_step_shells(pi, m1, m2, basis, beta, lam=1.0, k_def=6)
        rot_sh = arap_local_step(pulled, m1)
        e_new = arap_energy(rot_sh, y, m1) + beta * a_norm_sq(y - pulled, areas)
        e_base = arap_energy(rot_sh, m1.vertices, m1) + beta * a_norm_sq(
            m1.vertices - pulled, areas
        )
        assert e_new <= e_base + 1e-9

        mu = float(rng.uniform(0.5, 5.0))
        y = y_step_rhm(pi, pi_bwd, m1, m2, beta, mu)

        def rhm_energy(yy):
            return (
                dirichlet_energy(yy, m1.cot_matrix)
                + beta * a_norm_sq(yy - pulled, areas)
                + mu * a_norm_sq(yy[pi_bwd.target_of] - m2.vertices, m2.vertex_areas)
            )

        assert rhm_energy(y) <= rhm_energy(pulled) + 1e-9


def test_variant_validation():
    with pytest.raises(ValueError, match="unknown variant"):
        Variant("fancy")
    assert Variant("rhm").mu == pytest.approx(1e4)
    # a size below 1 would slice phi[:, :k_def] from the wrong end
    for k_def in (0, -3):
        with pytest.raises(ValueError, match="k_def must be at least 1"):
            Variant("shells", k_def=k_def)
    assert Variant("shells", k_def=1).k_def == 1


def test_per_energy_coupling_defaults():
    assert Variant("arap").energy.default_beta == pytest.approx(1e-1)
    assert Variant("nicp").energy.default_beta == pytest.approx(1e-2)
    assert Variant("shells").energy.default_beta == pytest.approx(1e-3)
    assert Variant("rhm").energy.default_beta == pytest.approx(1.0)
