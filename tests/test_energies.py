import numpy as np
import pytest

from oracles import (
    bijectivity_slow,
    coupled_smoothness_slow,
    coupling_slow,
    dirichlet_slow,
    energy_breakdown_reference,
    total_energy_slow,
)
from conftest import hull_mesh, make_random_state, random_map

from smoothmatch.energies import coupling_energy, dirichlet_energy, energy_breakdown
from smoothmatch.solver import SolverConfig, SolverState, c_step, pi_step
from smoothmatch.spectral import PointwiseMap, compute_basis, p2p_to_fmap
from smoothmatch.variants import VARIANT_KINDS, Variant, run_y_step


def identity_state(mesh):
    n = mesh.n_vertices
    ident = PointwiseMap(np.arange(n), n)
    state = SolverState(ident, ident)
    state.y_12 = state.y_21 = mesh.vertices
    return state


# the two blocks of e_total, read from the breakdown's raw columns
def bijectivity_block(parts, config):
    return parts["e_bij"] + config.alpha * parts["e_couple_spec"]


def smoothness_block(parts, config):
    # the Dirichlet variant's smoothness block
    return parts["e_dirichlet"] + config.beta * parts["e_couple_spatial"]


# ----------------------------------------------------------------------
# Dirichlet energy
# ----------------------------------------------------------------------
def test_dirichlet_constant_rows_zero(sphere2):
    coords = np.tile([1.3, -0.2, 5.0], (sphere2.n_vertices, 1))
    assert abs(dirichlet_energy(coords, sphere2.cot_matrix)) < 1e-12


def test_dirichlet_identity_matches_edge_sum(rng):
    mesh = hull_mesh(rng, 50)
    e = dirichlet_energy(mesh.vertices, mesh.cot_matrix)
    assert abs(e - dirichlet_slow(mesh.vertices, mesh)) < 1e-10 * max(1.0, e)


def test_dirichlet_unit_square_hand_value(unit_square):
    # edge weights: four boundary edges 1/2, diagonal 0; x column
    # hops 0->1 and 3->2 each contribute 1/2 * 1
    x = unit_square.vertices[:, 0:1]
    assert abs(dirichlet_energy(x, unit_square.cot_matrix) - 1.0) < 1e-12


def test_dirichlet_constant_shift_invariant(rng):
    mesh = hull_mesh(rng, 30)
    coords = rng.normal(size=(mesh.n_vertices, 3))
    shifted = coords + np.array([3.0, -1.0, 0.5])
    e0 = dirichlet_energy(coords, mesh.cot_matrix)
    e1 = dirichlet_energy(shifted, mesh.cot_matrix)
    assert abs(e0 - e1) < 1e-9 * max(1.0, e0)


def test_dirichlet_quadratic_scaling(rng):
    mesh = hull_mesh(rng, 30)
    coords = rng.normal(size=(mesh.n_vertices, 3))
    e = dirichlet_energy(coords, mesh.cot_matrix)
    e4 = dirichlet_energy(2.0 * coords, mesh.cot_matrix)
    assert abs(e4 - 4.0 * e) < 1e-9 * max(1.0, e4)


# ----------------------------------------------------------------------
# coupling energy
# ----------------------------------------------------------------------
def test_coupling_zero_for_converted_map(rng):
    m1, m2 = hull_mesh(rng, 14), hull_mesh(rng, 16)
    b1, b2 = compute_basis(m1, 6), compute_basis(m2, 6)
    pi = random_map(rng, m1, m2)
    c = p2p_to_fmap(pi, b1, b2)
    assert coupling_energy(c, pi, b1, b2) < 1e-12


def test_coupling_zero_fmap(rng):
    m1, m2 = hull_mesh(rng, 14), hull_mesh(rng, 16)
    b1, b2 = compute_basis(m1, 6), compute_basis(m2, 6)
    pi = random_map(rng, m1, m2)
    conv = p2p_to_fmap(pi, b1, b2)
    expected = float(np.sum(conv**2))
    assert abs(coupling_energy(np.zeros((6, 6)), pi, b1, b2) - expected) < 1e-12


def test_coupling_matches_dense(rng):
    m1, m2 = hull_mesh(rng, 12), hull_mesh(rng, 12)
    b1, b2 = compute_basis(m1, 5), compute_basis(m2, 5)
    pi = random_map(rng, m1, m2)
    c = rng.normal(size=(5, 5))
    got = coupling_energy(c, pi, b1, b2)
    want = coupling_slow(c, pi, b1, b2)
    assert abs(got - want) < 1e-10 * max(1.0, want)


# ----------------------------------------------------------------------
# bijectivity energy
# ----------------------------------------------------------------------
def test_bijectivity_identity_fixture_zero(sphere2, sphere2_basis):
    b = sphere2_basis.sliced(12)
    state = identity_state(sphere2)
    state.c_12 = np.eye(12)
    state.c_21 = np.eye(12)
    w = SolverConfig()
    assert bijectivity_block(energy_breakdown(state, sphere2, sphere2, b, b, w, 1.0), w) < 1e-10


def test_bijectivity_zero_fmap_gives_two_k(rng):
    # C = 0 and alpha = 0 leaves |Phi|^2_A = k per direction
    mesh = hull_mesh(rng, 20)
    basis = compute_basis(mesh, 7)
    state = identity_state(mesh)
    state.c_12 = np.zeros((7, 7))
    state.c_21 = np.zeros((7, 7))
    w = SolverConfig(alpha=0.0)
    got = bijectivity_block(energy_breakdown(state, mesh, mesh, basis, basis, w, 1.0), w)
    assert abs(got - 2 * 7) < 1e-8
    assert abs(got - bijectivity_slow(state, basis, basis, w)) < 1e-10 * got


def test_bijectivity_matches_dense(rng):
    m1, m2 = hull_mesh(rng, 15), hull_mesh(rng, 18)
    b1, b2 = compute_basis(m1, 6), compute_basis(m2, 6)
    state = make_random_state(rng, m1, m2, b1, b2, 6)
    w = SolverConfig(alpha=0.37)
    got = bijectivity_block(energy_breakdown(state, m1, m2, b1, b2, w, 1.0), w)
    want = bijectivity_slow(state, b1, b2, w)
    assert abs(got - want) < 1e-10 * max(1.0, want)


# ----------------------------------------------------------------------
# coupled smoothness
# ----------------------------------------------------------------------
def test_coupled_smoothness_reduces_to_map_dirichlet(rng):
    m1, m2 = hull_mesh(rng, 20), hull_mesh(rng, 22)
    b1, b2 = compute_basis(m1, 5), compute_basis(m2, 5)
    state = make_random_state(rng, m1, m2, b1, b2, 5)
    state.y_12 = state.pi_12.pull(m2.vertices)
    state.y_21 = state.pi_21.pull(m1.vertices)
    w = SolverConfig(beta=2.5)
    got = smoothness_block(energy_breakdown(state, m1, m2, b1, b2, w, 1.0), w)
    want = dirichlet_energy(state.y_12, m1.cot_matrix) + dirichlet_energy(
        state.y_21, m2.cot_matrix
    )
    assert abs(got - want) < 1e-10 * max(1.0, want)


def test_coupled_smoothness_zero_y(rng):
    from smoothmatch.energies import a_norm_sq

    m1, m2 = hull_mesh(rng, 20), hull_mesh(rng, 22)
    b1, b2 = compute_basis(m1, 5), compute_basis(m2, 5)
    state = make_random_state(rng, m1, m2, b1, b2, 5)
    state.y_12 = np.zeros((m1.n_vertices, 3))
    state.y_21 = np.zeros((m2.n_vertices, 3))
    w = SolverConfig(beta=3.0)
    want = 3.0 * (
        a_norm_sq(state.pi_12.pull(m2.vertices), m1.vertex_areas)
        + a_norm_sq(state.pi_21.pull(m1.vertices), m2.vertex_areas)
    )
    got = smoothness_block(energy_breakdown(state, m1, m2, b1, b2, w, 1.0), w)
    assert abs(got - want) < 1e-10 * max(1.0, want)


def test_coupled_smoothness_matches_dense(rng):
    m1, m2 = hull_mesh(rng, 20), hull_mesh(rng, 20)
    b1, b2 = compute_basis(m1, 5), compute_basis(m2, 5)
    state = make_random_state(rng, m1, m2, b1, b2, 5)
    w = SolverConfig(beta=1.7)
    got = smoothness_block(energy_breakdown(state, m1, m2, b1, b2, w, 1.0), w)
    want = coupled_smoothness_slow(state, m1, m2, w)
    assert abs(got - want) < 1e-10 * max(1.0, want)


# ----------------------------------------------------------------------
# total energy
# ----------------------------------------------------------------------
def test_total_identity_fixture(sphere2, sphere2_basis):
    b = sphere2_basis.sliced(10)
    state = identity_state(sphere2)
    state.c_12 = np.eye(10)
    state.c_21 = np.eye(10)
    state.y_12 = sphere2.vertices.copy()
    state.y_21 = sphere2.vertices.copy()
    expected = 0.45 * 2.0 * dirichlet_energy(sphere2.vertices, sphere2.cot_matrix)
    got = energy_breakdown(state, sphere2, sphere2, b, b, SolverConfig(beta=1.0), 0.45)["e_total"]
    assert abs(got - expected) < 1e-9 * max(1.0, expected)


def test_total_gamma_zero_is_bijectivity(rng):
    m1, m2 = hull_mesh(rng, 16), hull_mesh(rng, 17)
    b1, b2 = compute_basis(m1, 5), compute_basis(m2, 5)
    state = make_random_state(rng, m1, m2, b1, b2, 5)
    w = SolverConfig(beta=1.0)
    assert energy_breakdown(state, m1, m2, b1, b2, w, 0.0)["e_total"] == pytest.approx(
        bijectivity_block(energy_breakdown(state, m1, m2, b1, b2, w, 0.6), w), rel=1e-12
    )


def test_all_energies_nonnegative(rng):
    for _ in range(20):
        m1, m2 = hull_mesh(rng, 15), hull_mesh(rng, 15)
        b1, b2 = compute_basis(m1, 4), compute_basis(m2, 4)
        state = make_random_state(rng, m1, m2, b1, b2, 4)
        parts = energy_breakdown(state, m1, m2, b1, b2, SolverConfig(beta=0.8), 0.6)
        for key, val in parts.items():
            assert val > -1e-10, key


def test_breakdown_total_consistent(rng):
    m1, m2 = hull_mesh(rng, 18), hull_mesh(rng, 19)
    b1, b2 = compute_basis(m1, 5), compute_basis(m2, 5)
    state = make_random_state(rng, m1, m2, b1, b2, 5)
    w, gamma = SolverConfig(alpha=0.2, beta=1.4), 0.7
    parts = energy_breakdown(state, m1, m2, b1, b2, w, gamma)
    recomposed = (
        parts["e_bij"]
        + w.alpha * parts["e_couple_spec"]
        + gamma * (parts["e_dirichlet"] + w.beta * parts["e_couple_spatial"])
    )
    assert parts["e_total"] == pytest.approx(recomposed, rel=1e-12)
    assert parts["e_total"] == pytest.approx(
        total_energy_slow(state, m1, m2, b1, b2, w, gamma), rel=1e-10
    )


@pytest.mark.parametrize("kind", VARIANT_KINDS)
def test_energy_breakdown_matches_reference(rng, kind):
    # one iteration in refine's order: C-step, both Y-steps, Pi-step
    m1, m2 = hull_mesh(rng, 30), hull_mesh(rng, 32)
    b1, b2 = compute_basis(m1, 8), compute_basis(m2, 8)
    config = SolverConfig(variant=Variant(kind), alpha=0.3, beta=2.0)
    gamma = 0.7
    state = SolverState(random_map(rng, m1, m2), random_map(rng, m2, m1))
    state.c_12, state.c_21 = c_step(state, b1, b2, config)
    state.y_12, state.aux_12 = run_y_step(config.variant, config.beta, state.pi_12,
                                          state.pi_21, m1, m2, b1)
    state.y_21, state.aux_21 = run_y_step(config.variant, config.beta, state.pi_21,
                                          state.pi_12, m2, m1, b2)
    state.pi_12, state.pi_21 = pi_step(state, m1, m2, b1, b2, config, gamma)
    got = energy_breakdown(state, m1, m2, b1, b2, config, gamma)
    want = energy_breakdown_reference(state, m1, m2, b1, b2, config, gamma)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


def test_weights_must_be_nonnegative():
    with pytest.raises(ValueError):
        SolverConfig(alpha=-0.1)
