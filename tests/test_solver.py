import dataclasses
from unittest import mock

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from oracles import c_step_reference, c_step_slow, pi_step_exact_slow
from conftest import hull_mesh, jittered_icosphere, random_map

from smoothmatch.energies import a_norm_sq, coupling_energy, energy_breakdown
from smoothmatch.solver import (
    SolverConfig,
    SolverState,
    c_step,
    landmark_init,
    pi_step,
    refine,
)
from smoothmatch import energies, solver, spectral, variants
from smoothmatch.spectral import PointwiseMap, compute_basis, fmap_to_p2p
from smoothmatch.synth import farthest_point_indices, icosphere
from smoothmatch.variants import VARIANT_KINDS, Variant, run_y_step


def identity_map(mesh):
    return PointwiseMap(np.arange(mesh.n_vertices), mesh.n_vertices)


def random_pair(rng, n1=20, n2=24, k=6):
    m1, m2 = hull_mesh(rng, n1), hull_mesh(rng, n2)
    b1, b2 = compute_basis(m1, k), compute_basis(m2, k)
    state = SolverState(random_map(rng, m1, m2), random_map(rng, m2, m1))
    return m1, m2, b1, b2, state


# ----------------------------------------------------------------------
# C-step
# ----------------------------------------------------------------------
def test_c_step_identity(sphere2, sphere2_basis):
    b = sphere2_basis.sliced(15)
    state = SolverState(identity_map(sphere2), identity_map(sphere2))
    c_12, c_21 = c_step(state, b, b, SolverConfig())
    assert np.abs(c_12 - np.eye(15)).max() < 1e-8
    assert np.abs(c_21 - np.eye(15)).max() < 1e-8


def test_c_step_exact_minimization_lowers_energy(rng):
    w = SolverConfig(alpha=0.1)
    for _ in range(10):
        m1, m2, b1, b2, state = random_pair(rng)
        state.c_12 = rng.normal(size=(6, 6))
        state.c_21 = rng.normal(size=(6, 6))
        state.y_12 = state.pi_12.pull(m2.vertices)
        state.y_21 = state.pi_21.pull(m1.vertices)

        def bijectivity():
            # the bijectivity block of e_total; the C-step moves no other term
            parts = energy_breakdown(state, m1, m2, b1, b2, w, 1.0)
            return parts["e_bij"] + w.alpha * parts["e_couple_spec"]

        before = bijectivity()
        state.c_12, state.c_21 = c_step(state, b1, b2, w)
        after = bijectivity()
        assert after <= before + 1e-9


@pytest.mark.parametrize("alpha", [0.0, 0.1, 2.0])
def test_c_step_bytes_match_reference(rng, alpha):
    for _ in range(2):
        m1, m2, b1, b2, state = random_pair(rng, 30, 32, 8)
        c_12, c_21 = c_step(state, b1, b2, SolverConfig(alpha=alpha))
        assert np.array_equal(c_21, c_step_reference(state.pi_21, state.pi_12, b1, b2, alpha))
        assert np.array_equal(c_12, c_step_reference(state.pi_12, state.pi_21, b2, b1, alpha))


def test_c_step_matches_dense_least_squares(rng):
    m1, m2, b1, b2, state = random_pair(rng, 15, 15, 5)
    w = SolverConfig(alpha=0.23)
    c_12, c_21 = c_step(state, b1, b2, w)
    slow_12, slow_21 = c_step_slow(state, b1, b2, w, 5)
    assert np.abs(c_12 - slow_12).max() < 1e-9
    assert np.abs(c_21 - slow_21).max() < 1e-9


def test_c_step_huge_alpha_dominates_coupling(rng):
    # with alpha -> inf the minimizer collapses onto the conversion of
    # the forward map, so the coupling residual nearly vanishes
    m1, m2, b1, b2, state = random_pair(rng)
    resid = {}
    for alpha in (0.1, 1e6):
        c_12, c_21 = c_step(state, b1, b2, SolverConfig(alpha=alpha))
        resid[alpha] = coupling_energy(c_21, state.pi_12, b1, b2)
    assert resid[1e6] < 1e-3 * resid[0.1]


def test_c_step_alpha_zero_regularized(rng):
    # rank-deficient map image with alpha = 0 exercises the ridge path
    m1, m2, b1, b2, state = random_pair(rng)
    state.pi_21 = PointwiseMap(np.zeros(m2.n_vertices, dtype=int), m1.n_vertices)
    c_12, c_21 = c_step(state, b1, b2, SolverConfig(alpha=0.0))
    assert np.all(np.isfinite(c_21))


# ----------------------------------------------------------------------
# Pi-step
# ----------------------------------------------------------------------
def test_pi_step_gamma_zero_equals_spectral_recovery(rng):
    m1, m2, b1, b2, state = random_pair(rng)
    w = SolverConfig()
    state.c_12, state.c_21 = c_step(state, b1, b2, w)
    state.y_12 = state.pi_12.pull(m2.vertices)
    state.y_21 = state.pi_21.pull(m1.vertices)
    pi_12, pi_21 = pi_step(state, m1, m2, b1, b2, w, 0.0)
    assert np.array_equal(
        pi_12.target_of, fmap_to_p2p(state.c_21, b1, b2).target_of
    )
    assert np.array_equal(
        pi_21.target_of, fmap_to_p2p(state.c_12, b2, b1).target_of
    )


def test_pi_step_consistent_fixture_is_fixed_point(sphere2, sphere2_basis):
    b = sphere2_basis.sliced(12)
    state = SolverState(identity_map(sphere2), identity_map(sphere2))
    state.c_12 = np.eye(12)
    state.c_21 = np.eye(12)
    state.y_12 = sphere2.vertices.copy()
    state.y_21 = sphere2.vertices.copy()
    for exact in (False, True):
        pi_12, pi_21 = pi_step(state, sphere2, sphere2, b, b,
                               SolverConfig(beta=200.0, exact_pi_step=exact), 1.0)
        assert np.array_equal(pi_12.target_of, np.arange(sphere2.n_vertices))
        assert np.array_equal(pi_21.target_of, np.arange(sphere2.n_vertices))


def test_pi_step_exact_matches_bruteforce(rng):
    m1, m2, b1, b2, state = random_pair(rng, 20, 20, 5)
    w, gamma = SolverConfig(alpha=0.3, beta=1.2, exact_pi_step=True), 0.8
    state.c_12 = rng.normal(size=(5, 5))
    state.c_21 = rng.normal(size=(5, 5))
    state.y_12 = rng.normal(size=(m1.n_vertices, 3))
    state.y_21 = rng.normal(size=(m2.n_vertices, 3))
    pi_12, pi_21 = pi_step(state, m1, m2, b1, b2, w, gamma)
    slow_12 = pi_step_exact_slow(state.c_21, state.c_12, state.y_12, b1, b2, m2, w, gamma)
    slow_21 = pi_step_exact_slow(state.c_12, state.c_21, state.y_21, b2, b1, m1, w, gamma)
    assert np.array_equal(pi_12.target_of, slow_12)
    assert np.array_equal(pi_21.target_of, slow_21)


@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=pytest.mark.xfail(
        strict=True, reason="the Pi-step embedding leaves out rhm's mu |Pi_bwd Y - X|^2 term"))
    if kind == "rhm" else kind
    for kind in VARIANT_KINDS
])
def test_exact_pi_step_never_raises_total(rng, kind):
    # at fixed K, gamma, C and Y the exact Pi-step minimizes every term
    # of e_total that depends on the maps, so it cannot raise the total
    config = SolverConfig(variant=Variant(kind), exact_pi_step=True, alpha=0.3, beta=2.0)
    gamma = 0.7
    worst = 0.0
    for _ in range(3):
        m1, m2, b1, b2, state = random_pair(rng, 30, 32, 8)
        for _ in range(4):
            state.c_12, state.c_21 = c_step(state, b1, b2, config)
            state.y_12, state.aux_12 = run_y_step(
                config.variant, config.beta, state.pi_12, state.pi_21, m1, m2, b1)
            state.y_21, state.aux_21 = run_y_step(
                config.variant, config.beta, state.pi_21, state.pi_12, m2, m1, b2)
            before = energy_breakdown(state, m1, m2, b1, b2, config, gamma)["e_total"]
            state.pi_12, state.pi_21 = pi_step(state, m1, m2, b1, b2, config, gamma)
            after = energy_breakdown(state, m1, m2, b1, b2, config, gamma)["e_total"]
            worst = max(worst, (after - before) / max(1.0, abs(before)))
    assert worst <= 1e-9


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "default"])
@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=pytest.mark.xfail(
        strict=True, reason="the Pi-step embedding leaves out rhm's mu |Pi_bwd Y - X|^2 term"))
    if kind == "rhm" else kind
    for kind in VARIANT_KINDS
])
def test_pi_step_certificate_no_single_row_move_lowers_objective(rng, kind, exact):
    # at fixed C, Y and aux, e_total is row-separable in each map, so after
    # an exact Pi-step no single-row reassignment may lower it; the default
    # Pi-step leaves the bijectivity term out, so it minimizes e_total - e_bij.
    # Every move is scored by energy_breakdown itself.
    config = SolverConfig(variant=Variant(kind), exact_pi_step=exact, alpha=0.3, beta=2.0)
    gamma = 0.7
    for _ in range(2):
        m1, m2, b1, b2, state = random_pair(rng, 30, 32, 8)
        state.c_12, state.c_21 = c_step(state, b1, b2, config)
        state.y_12, state.aux_12 = run_y_step(
            config.variant, config.beta, state.pi_12, state.pi_21, m1, m2, b1)
        state.y_21, state.aux_21 = run_y_step(
            config.variant, config.beta, state.pi_21, state.pi_12, m2, m1, b2)
        state.pi_12, state.pi_21 = pi_step(state, m1, m2, b1, b2, config, gamma)

        def objective():
            parts = energy_breakdown(state, m1, m2, b1, b2, config, gamma)
            return parts["e_total"] - (0.0 if exact else parts["e_bij"])

        reached = objective()
        lowest = np.inf
        for name in ("pi_12", "pi_21"):
            pi = getattr(state, name)
            for row in range(pi.n_src):
                for target in range(pi.n_tgt):
                    if target == pi.target_of[row]:
                        continue
                    moved = pi.target_of.copy()
                    moved[row] = target
                    setattr(state, name, PointwiseMap(moved, pi.n_tgt))
                    lowest = min(lowest, objective())
            setattr(state, name, pi)
        assert lowest >= reached - 1e-12 * max(1.0, abs(reached))


@pytest.mark.parametrize("exact, beta", [(False, 2.0), (True, 2.0), (False, 0.0), (True, 0.0)],
                         ids=["default", "exact", "default_beta_zero", "exact_beta_zero"])
def test_pi_step_embedding_cost_is_the_reported_terms(rng, exact, beta):
    # the cost the stacked embedding gives the current maps, area-weighted
    # and summed over both directions, is the weighted map terms of the report
    config, gamma = SolverConfig(exact_pi_step=exact, alpha=0.3, beta=beta), 0.7
    for _ in range(3):
        m1, m2, b1, b2, state = random_pair(rng, 30, 32, 8)
        state.c_12, state.c_21 = rng.normal(size=(2, 8, 8))
        state.y_12 = rng.normal(size=(m1.n_vertices, 3))
        state.y_21 = rng.normal(size=(m2.n_vertices, 3))
        calls = []

        def record(queries, data):
            calls.append((queries, data))
            return spectral.nearest_rows(queries, data)

        with mock.patch.object(solver, "nearest_rows", side_effect=record):
            pi_step(state, m1, m2, b1, b2, config, gamma)
        cost = sum(a_norm_sq(queries - data[pi.target_of], mesh.vertex_areas)
                   for (queries, data), pi, mesh in zip(calls, (state.pi_12, state.pi_21), (m1, m2)))
        parts = energy_breakdown(state, m1, m2, b1, b2, config, gamma)
        want = (config.alpha * parts["e_couple_spec"]
                + gamma * config.beta * parts["e_couple_spatial"]
                + (parts["e_bij"] if exact else 0.0))
        assert cost == pytest.approx(want, rel=1e-12, abs=0.0)


def _pi_embedding_by_blocks(c_own, c_other, y, basis_src, basis_tgt, mesh_tgt, config, gamma):
    # the Pi-step embedding as one array per block, then np.hstack
    sa = np.sqrt(config.alpha)
    query = [sa * (basis_src.phi @ c_own)]
    data = [sa * basis_tgt.phi]
    if gamma * config.beta != 0:
        s = np.sqrt(gamma * config.beta)
        query.append(s * y)
        data.append(s * mesh_tgt.vertices)
    if config.exact_pi_step:
        query.append(basis_src.phi)
        data.append(basis_tgt.phi @ c_other)
    return np.hstack(query), np.hstack(data)


@pytest.mark.parametrize("exact, beta, gamma", [
    (False, 200.0, 0.4), (True, 200.0, 0.4), (False, 200.0, 0.0), (True, 0.0, 0.4),
], ids=["default", "exact", "gamma_zero", "exact_beta_zero"])
def test_pi_direction_embedding_bits(exact, beta, gamma):
    # the embedding written block by block in place holds the same floats
    # as stacking the blocks, and the Pi-step searches exactly it
    m1, m2 = jittered_icosphere(3, 0.25, seed=3)
    b1, b2 = compute_basis(m1, 40).sliced(30), compute_basis(m2, 40).sliced(30)
    rng = np.random.default_rng(5)
    state = SolverState(identity_map(m1), identity_map(m2))
    state.c_21, state.c_12 = rng.normal(size=(2, 30, 30))
    state.y_12 = rng.normal(size=(m1.n_vertices, 3))
    state.y_21 = rng.normal(size=(m2.n_vertices, 3))
    config = SolverConfig(exact_pi_step=exact, alpha=0.3, beta=beta)
    calls = []

    def record(queries, data):
        calls.append((queries, data))
        return spectral.nearest_rows(queries, data)

    with mock.patch.object(solver, "nearest_rows", side_effect=record):
        maps = pi_step(state, m1, m2, b1, b2, config, gamma)
    assert len(calls) == 2
    directions = ((state.c_21, state.c_12, state.y_12, b1, b2, m2),
                  (state.c_12, state.c_21, state.y_21, b2, b1, m1))
    for (c_own, c_other, y, b_src, b_tgt, m_tgt), call, pi in zip(directions, calls, maps):
        ref_queries, ref_data = _pi_embedding_by_blocks(c_own, c_other, y, b_src, b_tgt, m_tgt,
                                                        config, gamma)
        embedding = energies.pi_step_embedding(c_own, c_other, y, b_src.phi, b_tgt.phi,
                                               m_tgt.vertices, config, gamma)
        for got, ref in (*zip(call, (ref_queries, ref_data)),
                         *zip(embedding, (ref_queries, ref_data))):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()
        assert np.array_equal(pi.target_of, spectral.nearest_rows(ref_queries, ref_data))


# ----------------------------------------------------------------------
# refine
# ----------------------------------------------------------------------
def test_refine_identity_fixture_all_variants(sphere2, sphere2_basis):
    ident = identity_map(sphere2)
    for kind in VARIANT_KINDS:
        cfg = SolverConfig(variant=Variant(kind))
        pi_12, pi_21, trace = refine(
            ident, ident, sphere2, sphere2, sphere2_basis, sphere2_basis, cfg
        )
        assert np.array_equal(pi_12.target_of, ident.target_of), kind
        assert np.array_equal(pi_21.target_of, ident.target_of), kind
        assert trace.column("e_bij")[0] < 1e-8


def test_refine_monotone_energy(rng):
    # fixed K, fixed gamma, exact assignment step, Dirichlet energy:
    # every block is an exact minimizer of the same objective, so the
    # total cannot increase, whatever alpha and gamma are
    worst = 0.0
    for _ in range(10):
        m1, m2, b1, b2, state = random_pair(rng, 25, 28, 8)
        alpha, gamma = rng.uniform(0.01, 3.0), rng.uniform(0.05, 2.0)
        cfg = SolverConfig(
            k_init=8, k_final=8, n_outer=10, gamma_init=gamma, gamma_final=gamma,
            exact_pi_step=True, alpha=alpha, beta=2.0,
        )
        _, _, trace = refine(state.pi_12, state.pi_21, m1, m2, b1, b2, cfg)
        e = trace.column("e_total")
        worst = max(worst, float(np.max(np.diff(e), initial=0.0)))
    assert worst <= 1e-9


def test_refine_deterministic(sphere2, sphere2_basis, rng):
    pi_12 = random_map(rng, sphere2, sphere2)
    pi_21 = random_map(rng, sphere2, sphere2)
    cfg = SolverConfig(k_final=40, n_outer=4)
    a_12, a_21, _ = refine(pi_12, pi_21, sphere2, sphere2, sphere2_basis, sphere2_basis, cfg)
    b_12, b_21, _ = refine(pi_12, pi_21, sphere2, sphere2, sphere2_basis, sphere2_basis, cfg)
    assert np.array_equal(a_12.target_of, b_12.target_of)
    assert np.array_equal(a_21.target_of, b_21.target_of)


def test_refine_swap_symmetry(rng):
    m1, m2 = hull_mesh(rng, 30), hull_mesh(rng, 34)
    b1, b2 = compute_basis(m1, 10), compute_basis(m2, 10)
    lm = np.column_stack([np.arange(4), np.arange(4)])
    pi_12, pi_21 = landmark_init(lm, b1, b2)
    cfg = SolverConfig(k_init=5, k_final=10, n_outer=3)
    f_12, f_21, _ = refine(pi_12, pi_21, m1, m2, b1, b2, cfg)
    g_21, g_12, _ = refine(pi_21, pi_12, m2, m1, b2, b1, cfg)
    assert np.array_equal(f_12.target_of, g_12.target_of)
    assert np.array_equal(f_21.target_of, g_21.target_of)


def test_refine_early_exit(sphere2, sphere2_basis):
    ident = identity_map(sphere2)
    cfg = SolverConfig(k_init=30, k_final=30, n_outer=50,
                       gamma_init=1.0, gamma_final=1.0)
    _, _, trace = refine(ident, ident, sphere2, sphere2, sphere2_basis, sphere2_basis, cfg)
    assert len(trace) == 1


def test_refine_early_exit_runs_the_whole_schedule():
    # a fixed point at k=10 whose next scheduled k is also 10 (the
    # rounded linspace repeats it) must not end a schedule that grows to 60
    from smoothmatch.synth import jittered_copy

    m1 = icosphere(3).normalized()
    m2 = jittered_copy(icosphere(3), 0.02, seed=1).normalized()
    b1, b2 = compute_basis(m1, 60), compute_basis(m2, 60)
    lm = farthest_point_indices(m1, 5)
    pi_12, pi_21 = landmark_init(np.column_stack([lm, lm]), b1, b2)
    flat = SolverConfig(k_init=10, k_final=10, n_outer=50, gamma_init=1, gamma_final=1)
    pi_12, pi_21, converged = refine(pi_12, pi_21, m1, m2, b1, b2, flat)
    assert len(converged) < flat.n_outer

    cfg = SolverConfig(k_init=10, k_final=60, n_outer=101, gamma_init=1, gamma_final=1)
    assert list(cfg.k_schedule()[:2]) == [10, 10]
    _, _, trace = refine(pi_12, pi_21, m1, m2, b1, b2, cfg)
    assert trace.column("k")[-1] == cfg.k_final


def test_refine_validates_inputs(sphere2, sphere2_basis, rng):
    small = hull_mesh(rng, 10)
    b_small = compute_basis(small, 4)
    ident = identity_map(sphere2)
    with pytest.raises(ValueError, match="bases hold 4/4 eigenpairs, need k_final=10"):
        refine(ident, ident, sphere2, sphere2, b_small, b_small,
               SolverConfig(k_init=4, k_final=10))
    with pytest.raises(ValueError, match="does not match"):
        refine(identity_map(small), ident, sphere2, sphere2,
               sphere2_basis, sphere2_basis, SolverConfig(k_final=50))


@pytest.mark.parametrize("call, message", [
    (lambda s, b: SolverConfig(n_outer=0), "n_outer must be positive"),
    (lambda s, b: refine(identity_map(s), identity_map(s), s, s, b.sliced(40), b,
                         SolverConfig(k_init=10, k_final=50)),
     "bases hold 40/100 eigenpairs, need k_final=50"),
    (lambda s, b: refine(identity_map(s), identity_map(s), s, s, b, b.sliced(49),
                         SolverConfig(k_init=10, k_final=50)),
     "bases hold 100/49 eigenpairs, need k_final=50"),
    (lambda s, b: refine(identity_map(s), PointwiseMap([0, 1], s.n_vertices), s, s, b, b,
                         SolverConfig(k_init=10, k_final=50)),
     "pi_21 does not match the meshes"),
    (lambda s, b: refine(identity_map(s), PointwiseMap(np.zeros(s.n_vertices), 5), s, s,
                         b, b, SolverConfig(k_init=10, k_final=50)),
     "pi_21 does not match the meshes"),
    (lambda s, b: landmark_init(np.arange(6).reshape(2, 3), b, b),
     "landmarks must be an (L, 2) index array"),
    (lambda s, b: landmark_init(np.arange(4), b, b), "landmarks must be an (L, 2) index array"),
    (lambda s, b: SolverConfig(k_init=30, k_final=20), "need 1 <= k_init <= k_final"),
    (lambda s, b: SolverConfig(k_init=0), "need 1 <= k_init <= k_final"),
], ids=["n_outer", "basis_1_small", "basis_2_small", "pi_21_src", "pi_21_tgt",
        "landmarks_3_wide", "landmarks_flat", "k_init_above_k_final", "k_init_zero"])
def test_solver_input_errors(sphere2, sphere2_basis, call, message):
    with pytest.raises(ValueError) as exc:
        call(sphere2, sphere2_basis)
    assert str(exc.value) == message


def test_schedules():
    cfg = SolverConfig(k_init=20, k_final=100, n_outer=9,
                       gamma_init=0.1, gamma_final=1.0)
    ks = cfg.k_schedule()
    assert list(ks) == [20, 30, 40, 50, 60, 70, 80, 90, 100]
    gs = cfg.gamma_schedule()
    assert gs[0] == pytest.approx(0.1)
    assert gs[-1] == pytest.approx(1.0)
    ratios = gs[1:] / gs[:-1]
    assert np.allclose(ratios, ratios[0])


def test_schedule_edge_cases():
    single = SolverConfig(k_init=20, k_final=60, n_outer=1)
    assert list(single.k_schedule()) == [60]
    assert list(single.gamma_schedule()) == [1.0]
    flat = SolverConfig(gamma_init=0.0, gamma_final=0.0)
    assert np.all(flat.gamma_schedule() == 0.0)
    with pytest.raises(ValueError, match="gamma_init"):
        SolverConfig(gamma_init=0.0, gamma_final=1.0)


def test_config_beta_none_is_the_energy_default():
    assert SolverConfig(variant=Variant("nicp"), alpha=0.2).beta == 0.01
    for kind in VARIANT_KINDS:
        assert SolverConfig(variant=Variant(kind)).beta == Variant(kind).energy.default_beta
    assert SolverConfig(variant=Variant("nicp"), beta=0.0).beta == 0.0
    # the weights are checked before the schedules, as the CLI reports them
    with pytest.raises(ValueError, match="energy weight alpha"):
        SolverConfig(alpha=np.inf, n_outer=0)


def test_config_states_k_def_at_most_k_final():
    with pytest.raises(ValueError, match="^k_def=500 exceeds k_final=30$"):
        SolverConfig(k_final=30, variant=Variant("shells", k_def=500))
    # a changed copy is checked again
    config = SolverConfig(variant=Variant("shells", k_def=40))
    with pytest.raises(ValueError, match="^k_def=40 exceeds k_final=30$"):
        dataclasses.replace(config, k_final=30)
    assert dataclasses.replace(config, k_final=40, k_init=20).k_final == 40


def test_config_is_frozen():
    config = SolverConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.k_final = 5
    assert config.k_final == 100


def test_trace_csv_roundtrip(sphere2, sphere2_basis, tmp_path):
    ident = identity_map(sphere2)
    _, _, trace = refine(ident, ident, sphere2, sphere2, sphere2_basis,
                         sphere2_basis, SolverConfig(n_outer=2, k_final=30))
    trace.to_csv(tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "iteration,k,gamma,e_bij,e_couple_spec,e_dirichlet,e_couple_spatial,e_total"
    assert len(lines) == len(trace) + 1


# ----------------------------------------------------------------------
# landmark initialization
# ----------------------------------------------------------------------
def test_landmark_init_self_match(rng):
    sphere = icosphere(3).normalized()
    basis = compute_basis(sphere, 20)
    lm_idx = farthest_point_indices(sphere, 5)
    lm = np.column_stack([lm_idx, lm_idx])
    pi_12, pi_21 = landmark_init(lm, basis, basis)
    ident = np.arange(sphere.n_vertices)
    assert np.mean(pi_12.target_of == ident) >= 0.9
    assert np.mean(pi_21.target_of == ident) >= 0.9


def test_landmark_init_default_k0_is_landmark_count(sphere2, sphere2_basis, rng):
    lm = np.column_stack([np.arange(5), np.arange(5)])
    pi_12, pi_21 = landmark_init(lm, sphere2_basis, sphere2_basis)
    # a 5x5 alignment cannot resolve more than the first five modes;
    # just check the maps exist and have the right sizes
    assert pi_12.n_src == sphere2.n_vertices
    assert pi_21.n_src == sphere2.n_vertices


def test_landmark_alignment_is_five_by_five(sphere2_basis):
    # reproduce the internal alignment to pin its advertised shape
    lm = np.column_stack([np.arange(5), np.arange(5)])
    f1 = sphere2_basis.phi[lm[:, 0], :5].T
    f2 = sphere2_basis.phi[lm[:, 1], :5].T
    c = np.linalg.lstsq(f2.T, f1.T, rcond=None)[0].T
    assert c.shape == (5, 5)


def test_landmark_init_errors(sphere2_basis):
    with pytest.raises(ValueError, match="at least 2"):
        landmark_init(np.array([[0, 0]]), sphere2_basis, sphere2_basis)
    with pytest.raises(ValueError, match="duplicate"):
        landmark_init(np.array([[0, 1], [0, 2]]), sphere2_basis, sphere2_basis)
    with pytest.raises(ValueError, match="out of range"):
        landmark_init(np.array([[0, 0], [10_000, 1]]), sphere2_basis, sphere2_basis)
    lm = np.column_stack([np.arange(5), np.arange(5)])
    with pytest.raises(ValueError, match="5 landmarks need as many eigenpairs"):
        landmark_init(lm, sphere2_basis.sliced(4), sphere2_basis)


def test_refine_rhm_improves_jittered_sphere():
    # end-to-end guard for the reversible-map energy: clear accuracy
    # and smoothness gains on the standard jittered-sphere fixture
    from smoothmatch.metrics import accuracy_metric, smoothness_metric
    from smoothmatch.synth import jittered_copy

    src = icosphere(3)
    tgt = jittered_copy(src, 0.02, seed=1)
    m1, m2 = src.normalized(), tgt.normalized()
    b1, b2 = compute_basis(m1, 100), compute_basis(m2, 100)
    lm = farthest_point_indices(m1, 5)
    pi_12, pi_21 = landmark_init(np.column_stack([lm, lm]), b1, b2)
    gt = np.arange(m1.n_vertices)

    acc0 = accuracy_metric(pi_12, gt, gt, m2)
    ed0 = smoothness_metric(pi_12, m1, m2)
    f_12, f_21, _ = refine(pi_12, pi_21, m1, m2, b1, b2,
                           SolverConfig(variant=Variant("rhm")))
    assert accuracy_metric(f_12, gt, gt, m2) * 1.5 <= acc0
    assert smoothness_metric(f_12, m1, m2) * 1.5 <= ed0


def _jittered_sphere_pair(sphere2, sphere2_basis):
    # a jittered copy of sphere2, its basis, and landmark-initialized maps
    from smoothmatch.synth import jittered_copy

    m2 = jittered_copy(icosphere(2), 0.02, seed=1).normalized()
    b2 = compute_basis(m2, 100)
    lm = farthest_point_indices(sphere2, 5)
    return (m2, b2) + landmark_init(np.column_stack([lm, lm]), sphere2_basis, b2)


def _jittered_sphere_run(sphere2, sphere2_basis, cfg):
    # maps and trace rows of one refine run, as bytes
    m2, b2, pi_12, pi_21 = _jittered_sphere_pair(sphere2, sphere2_basis)
    f_12, f_21, trace = refine(pi_12, pi_21, sphere2, m2, sphere2_basis, b2, cfg)
    rows = np.array([[r[c] for c in trace.COLUMNS] for r in trace.rows])
    return f_12.target_of.tobytes() + f_21.target_of.tobytes(), rows.tobytes()


def test_refine_shells_k_def_is_capped_by_k(sphere2, sphere2_basis):
    # each iteration uses min(k_def, K) displacement modes, so k_def=k_final
    # is the default (K itself) under a growing schedule
    runs = [_jittered_sphere_run(sphere2, sphere2_basis, SolverConfig(
        k_init=10, k_final=40, n_outer=4, variant=variant))
        for variant in (Variant("shells"), Variant("shells", k_def=40))]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("beta", [1.0, 0.0])
def test_refine_rhm_mu_zero_is_dirichlet(sphere2, sphere2_basis, beta):
    runs = [_jittered_sphere_run(sphere2, sphere2_basis, SolverConfig(
        k_init=10, k_final=40, n_outer=4, variant=variant, beta=beta))
        for variant in (Variant("rhm", mu=0.0), Variant("dirichlet"))]
    assert runs[0] == runs[1]


# prefactored calls of one refine run under the default schedule (9
# iterations, two Y-steps each), at the energy's default beta and at 0
_FACTOR_COUNTS = {"dirichlet": (2, 0), "nicp": (2, 0), "arap": (2, 0), "shells": (0, 0),
                  "rhm": (18, 18), "rhm_mu0": (2, 0)}


@pytest.mark.parametrize("beta", ["default", "beta0"])
@pytest.mark.parametrize("name", list(_FACTOR_COUNTS))
def test_refine_factor_count_per_energy(sphere2, sphere2_basis, name, beta):
    # a map-independent system (rhm's too at mu = 0, where its Y-step is the
    # Dirichlet one) is factored once per mesh and refine call; rhm's
    # map-dependent one at mu > 0 once per Y-step, beta = 0 included;
    # shells solves in the basis.  A second call factors afresh.
    m2, b2, pi_12, pi_21 = _jittered_sphere_pair(sphere2, sphere2_basis)
    variant = Variant("rhm", mu=0.0) if name == "rhm_mu0" else Variant(name)
    config = SolverConfig(variant=variant, beta=None if beta == "default" else 0.0)
    count = _FACTOR_COUNTS[name][beta == "beta0"]
    with mock.patch.object(variants, "prefactored", wraps=variants.prefactored) as factor:
        for calls in (1, 2):
            refine(pi_12, pi_21, sphere2, m2, sphere2_basis, b2, config)
            assert factor.call_count == calls * count


@pytest.mark.parametrize("kind, block", [("nicp", 4), ("dirichlet", 1), ("arap", 1)])
def test_refine_factors_in_vertex_blocks(sphere2, sphere2_basis, kind, block):
    # one factor per mesh, with as many unknowns per vertex as the system has
    with mock.patch.object(variants, "prefactored", wraps=variants.prefactored) as factor:
        _jittered_sphere_run(sphere2, sphere2_basis, SolverConfig(
            k_init=10, k_final=40, n_outer=2, variant=Variant(kind)))
    assert [call.args[1] for call in factor.call_args_list] == [block, block]


def test_refine_open_boundary_meshes(rng):
    # boundary edges carry single-sided cotangent weights; the whole
    # pipeline must run unchanged on open patches
    from tests_grid import grid_pair

    m1, m2 = grid_pair(rng)
    b1, b2 = compute_basis(m1, 20), compute_basis(m2, 20)
    lm = np.column_stack([[0, 7, 24], [0, 7, 24]])
    pi_12, pi_21 = landmark_init(lm, b1, b2)
    cfg = SolverConfig(k_init=5, k_final=20, n_outer=4)
    f_12, f_21, trace = refine(pi_12, pi_21, m1, m2, b1, b2, cfg)
    assert len(trace) >= 1
    assert np.all(f_12.target_of >= 0) and np.all(f_12.target_of < m2.n_vertices)


def test_refine_nearest_rows_calls_equal_cdist_argmin():
    # every nearest-neighbour query of a landmark init plus a default
    # refine, recorded as the solver makes it, equals cdist's argmin
    m1, m2 = jittered_icosphere(3, 0.25, seed=7)
    b1, b2 = compute_basis(m1, 100), compute_basis(m2, 100)
    nearest = spectral.nearest_rows
    calls = []

    def record(queries, data):
        out = nearest(queries, data)
        calls.append((queries, data, out))
        return out

    lm = farthest_point_indices(m1, 5)
    with mock.patch.object(solver, "nearest_rows", side_effect=record), \
            mock.patch.object(spectral, "nearest_rows", side_effect=record):
        pi_12, pi_21 = landmark_init(np.column_stack([lm, lm]), b1, b2)
        refine(pi_12, pi_21, m1, m2, b1, b2)
    assert len(calls) == 2 + 2 * SolverConfig().n_outer
    for queries, data, out in calls:
        assert np.array_equal(out, cdist(queries, data).argmin(axis=1))
