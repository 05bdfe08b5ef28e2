import numpy as np
import pytest

from conftest import hull_mesh, random_map

from smoothmatch.energies import (
    EnergyWeights,
    a_norm_sq,
    dirichlet_energy,
    variant_smoothness,
)
from smoothmatch.solver import SolverState
from smoothmatch.variants import (
    VARIANT_KINDS,
    Variant,
    arap_energy,
    nicp_operator,
    run_y_step,
)


def test_nicp_operator_quadratic_form_matches_edge_sum(rng):
    # g^T M g must equal the affine-field smoothness plus data term,
    # evaluated the slow way from the edge list
    mesh = hull_mesh(rng, 16)
    beta = 0.7
    op = nicp_operator(mesh, beta)
    n = mesh.n_vertices
    field = rng.normal(size=(n, 4))          # one affine row per vertex
    g = field.ravel()

    edges, w = mesh.edge_weights
    smooth = sum(
        wij * float(np.dot(field[i] - field[j], field[i] - field[j]))
        for (i, j), wij in zip(edges, w)
    )
    xt = np.hstack([mesh.vertices, np.ones((n, 1))])
    data = beta * float(np.dot(mesh.vertex_areas, (np.einsum("ia,ia->i", field, xt)) ** 2))
    direct = float(g @ (op @ g))
    assert direct == pytest.approx(smooth + data, rel=1e-10)


def _state_with_y_steps(rng, kind, m1, m2, b1, b2):
    variant = Variant(kind)
    w = EnergyWeights(beta=variant.default_beta)
    state = SolverState(random_map(rng, m1, m2), random_map(rng, m2, m1))
    state.y_12, state.aux_12 = run_y_step(
        variant, w.beta, state.pi_12, state.pi_21, m1, m2, b1, solve=None
    )
    state.y_21, state.aux_21 = run_y_step(
        variant, w.beta, state.pi_21, state.pi_12, m2, m1, b2, solve=None
    )
    return variant, w, state


def test_variant_smoothness_branches_match_direct_formulas(rng):
    from smoothmatch.spectral import compute_basis

    m1, m2 = hull_mesh(rng, 20), hull_mesh(rng, 22)
    b1, b2 = compute_basis(m1, 6), compute_basis(m2, 6)

    for kind in VARIANT_KINDS:
        variant, w, state = _state_with_y_steps(rng, kind, m1, m2, b1, b2)
        got = variant_smoothness(state, m1, m2, w, variant)

        couple = a_norm_sq(
            state.y_12 - state.pi_12.pull(m2.vertices), m1.vertex_areas
        ) + a_norm_sq(state.y_21 - state.pi_21.pull(m1.vertices), m2.vertex_areas)

        if kind == "nicp":
            want = (
                dirichlet_energy(state.aux_12["affine"].reshape(-1, 12), m1.cot_matrix)
                + dirichlet_energy(state.aux_21["affine"].reshape(-1, 12), m2.cot_matrix)
                + w.beta * couple
            )
        elif kind in ("arap", "shells"):
            want = (
                variant.lam * arap_energy(state.aux_12["rotations"], state.y_12, m1)
                + variant.lam * arap_energy(state.aux_21["rotations"], state.y_21, m2)
                + w.beta * couple
            )
        elif kind == "dirichlet":
            want = (
                dirichlet_energy(state.y_12, m1.cot_matrix)
                + dirichlet_energy(state.y_21, m2.cot_matrix)
                + w.beta * couple
            )
        elif kind == "rhm":
            bij = a_norm_sq(
                state.y_12[state.pi_21.target_of] - m2.vertices, m2.vertex_areas
            ) + a_norm_sq(
                state.y_21[state.pi_12.target_of] - m1.vertices, m1.vertex_areas
            )
            want = (
                dirichlet_energy(state.y_12, m1.cot_matrix)
                + dirichlet_energy(state.y_21, m2.cot_matrix)
                + w.beta * couple
                + variant.mu * bij
            )
        else:
            pytest.fail("no direct formula for the %s energy" % kind)
        assert got == pytest.approx(want, rel=1e-10), kind


@pytest.mark.parametrize("kind", ["nicp", "arap", "shells"])
def test_variant_smoothness_without_aux_raises(rng, kind):
    # these energies read the Y-steps' auxiliary unknowns; a state
    # without them must not be reported with the Dirichlet form
    m1, m2 = hull_mesh(rng, 15), hull_mesh(rng, 15)
    state = SolverState(random_map(rng, m1, m2), random_map(rng, m2, m1))
    state.y_12 = state.pi_12.pull(m2.vertices)
    state.y_21 = state.pi_21.pull(m1.vertices)
    with pytest.raises(ValueError, match="needs the Y-steps'"):
        variant_smoothness(state, m1, m2, EnergyWeights(), Variant(kind))
