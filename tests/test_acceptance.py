"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerances and runtime budget and prints
one PASS line (run with ``pytest tests/test_acceptance.py -s`` to see
them stream).
"""

import time

import numpy as np
import pytest

from oracles import (
    bijectivity_slow,
    coupled_smoothness_slow,
    coupling_slow,
    dirichlet_slow,
    total_energy_slow,
)
from conftest import hull_mesh, random_map

from smoothmatch.energies import coupling_energy, dirichlet_energy, energy_breakdown
from smoothmatch.mesh import TriMesh, cotangent_matrix, geodesic_distances, vertex_areas
from smoothmatch.metrics import (
    accuracy_metric,
    bijectivity_metric,
    compute_report,
    conformal_distortion,
    coverage_metric,
    smoothness_metric,
)
from smoothmatch.solver import SolverConfig, SolverState, landmark_init, refine
from smoothmatch.spectral import PointwiseMap, compute_basis
from smoothmatch.synth import farthest_point_indices, icosphere, jittered_copy
from smoothmatch.variants import (
    VARIANT_KINDS,
    Variant,
    arap_local_step,
    y_step_arap,
    y_step_dirichlet,
    y_step_nicp,
    y_step_rhm,
    y_step_shells,
)


class criterion:
    """Times a criterion and prints its pass/fail line."""

    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %-28s %s (%.1fs / budget %ds)"
              % (self.name, status, elapsed, self.budget))
        if exc_type is None:
            assert elapsed < self.budget, (
                "%s exceeded its runtime budget: %.1fs" % (self.name, elapsed)
            )
        return False


def identity_map(mesh):
    return PointwiseMap(np.arange(mesh.n_vertices), mesh.n_vertices)


def test_operator_suite():
    with criterion("operator-suite", 30):
        rng = np.random.default_rng(11)
        for trial in range(20):
            mesh = hull_mesh(rng, int(rng.integers(12, 80)))
            w = cotangent_matrix(mesh)
            assert np.abs(np.asarray(w.sum(axis=1))).max() < 1e-10
            x = rng.normal(size=(mesh.n_vertices, 4))
            assert np.einsum("ij,ij->j", x, w @ x).min() > -1e-10
            assert abs(vertex_areas(mesh).sum() - mesh.area) < 1e-10

        sphere = icosphere(4).normalized()
        assert sphere.n_vertices == 2562
        basis = compute_basis(sphere, 100)
        gram = basis.phi.T @ (basis.areas[:, None] * basis.phi)
        assert np.abs(gram - np.eye(100)).max() < 1e-8
        w = sphere.cot_matrix
        for j in range(100):
            num = np.linalg.norm(w @ basis.phi[:, j] - basis.lam[j] * basis.areas * basis.phi[:, j])
            den = np.linalg.norm(basis.areas * basis.phi[:, j])
            assert num / den < 1e-6


def test_energy_oracle_suite():
    with criterion("energy-oracle-suite", 10):
        rng = np.random.default_rng(23)
        for trial in range(50):
            n1, n2 = int(rng.integers(12, 31)), int(rng.integers(12, 31))
            m1, m2 = hull_mesh(rng, n1), hull_mesh(rng, n2)
            k = int(rng.integers(3, 7))
            b1, b2 = compute_basis(m1, k), compute_basis(m2, k)
            state = SolverState(random_map(rng, m1, m2), random_map(rng, m2, m1))
            state.c_12 = rng.normal(size=(k, k))
            state.c_21 = rng.normal(size=(k, k))
            state.y_12 = rng.normal(size=(n1, 3))
            state.y_21 = rng.normal(size=(n2, 3))
            w = SolverConfig(
                alpha=float(rng.uniform(0.05, 2.0)),
                beta=float(rng.uniform(0.2, 5.0)),
            )
            gamma = float(rng.uniform(0.1, 1.0))

            def close(a, b):
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

            close(
                dirichlet_energy(state.y_12, m1.cot_matrix),
                dirichlet_slow(state.y_12, m1),
            )
            close(
                coupling_energy(state.c_21, state.pi_12, b1, b2),
                coupling_slow(state.c_21, state.pi_12, b1, b2),
            )
            parts = energy_breakdown(state, m1, m2, b1, b2, w, gamma)
            close(
                parts["e_bij"] + w.alpha * parts["e_couple_spec"],
                bijectivity_slow(state, b1, b2, w),
            )
            close(
                parts["e_dirichlet"] + w.beta * parts["e_couple_spatial"],
                coupled_smoothness_slow(state, m1, m2, w),
            )
            close(
                parts["e_total"],
                total_energy_slow(state, m1, m2, b1, b2, w, gamma),
            )


def test_block_descent_monotonicity():
    with criterion("block-descent-monotonicity", 60):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(50):
            m1 = hull_mesh(rng, int(rng.integers(18, 32)))
            m2 = hull_mesh(rng, int(rng.integers(18, 32)))
            b1, b2 = compute_basis(m1, 8), compute_basis(m2, 8)
            cfg = SolverConfig(
                k_init=8, k_final=8, n_outer=10,
                gamma_init=0.5, gamma_final=0.5,
                exact_pi_step=True,
                beta=2.0,
            )
            _, _, trace = refine(
                random_map(rng, m1, m2), random_map(rng, m2, m1),
                m1, m2, b1, b2, cfg,
            )
            e = trace.column("e_total")
            worst = max(worst, float(np.max(np.diff(e), initial=0.0)))
        assert worst <= 1e-9, "worst energy increase %.3e" % worst


def test_fixed_point_suite():
    with criterion("fixed-point-suite", 60):
        sphere = icosphere(2).normalized()
        basis = compute_basis(sphere, 100)
        ident = identity_map(sphere)
        gt = np.arange(sphere.n_vertices)
        for kind in VARIANT_KINDS:
            cfg = SolverConfig(variant=Variant(kind))
            pi_12, pi_21, _ = refine(ident, ident, sphere, sphere, basis, basis, cfg)
            assert np.array_equal(pi_12.target_of, gt), kind
            assert np.array_equal(pi_21.target_of, gt), kind
            rep = compute_report(pi_12, pi_21, sphere, sphere, gt, gt)
            assert rep.accuracy == 0.0, kind
            assert rep.bijectivity == 0.0, kind
            assert rep.coverage == 100.0, kind


def test_variant_solver_suite():
    with criterion("variant-solver-suite", 60):
        from scipy import sparse
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(31)
        m1, m2 = hull_mesh(rng, 30), hull_mesh(rng, 30)
        pi = random_map(rng, m1, m2)
        a = m1.vertex_areas
        pulled = pi.pull(m2.vertices)

        # normal-equation residuals < 1e-8 for every Y-step
        beta = 1.3
        y = y_step_dirichlet(pi, m1, m2, beta)
        lhs = (m1.cot_matrix + sparse.diags(beta * a)) @ y
        rhs = beta * a[:, None] * pulled
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

        from smoothmatch.variants import arap_rhs, nicp_operator

        d, _ = y_step_nicp(pi, m1, m2, beta=0.5)
        op = nicp_operator(m1, 0.5)
        xt = np.hstack([m1.vertices, np.ones((m1.n_vertices, 1))])
        g = np.stack([d[:, r, :].ravel() for r in range(3)], axis=1)
        rhs_n = np.stack(
            [((0.5 * a * pulled[:, r])[:, None] * xt).ravel() for r in range(3)], axis=1
        )
        assert np.linalg.norm(op @ g - rhs_n) <= 1e-8 * max(1.0, np.linalg.norm(rhs_n))

        rot, y = y_step_arap(pi, m1, m2, beta=0.4, lam=1.0)
        lhs = (m1.cot_matrix + sparse.diags(0.4 * a)) @ y
        rhs_a = arap_rhs(rot, m1) + 0.4 * a[:, None] * pulled
        assert np.linalg.norm(lhs - rhs_a) <= 1e-8 * np.linalg.norm(rhs_a)

        basis = compute_basis(m1, 10)
        d_spec, y_sh, _ = y_step_shells(pi, m1, m2, basis, beta=0.2, lam=1.0, k_def=10)
        phi = basis.phi
        rot_sh = arap_local_step(pulled, m1)
        op_sh = phi.T @ (m1.cot_matrix @ phi) + 0.2 * phi.T @ (a[:, None] * phi)
        rhs_sh = phi.T @ (
            arap_rhs(rot_sh, m1) + 0.2 * a[:, None] * pulled
            - (m1.cot_matrix @ m1.vertices + 0.2 * a[:, None] * m1.vertices)
        )
        assert np.linalg.norm(op_sh @ d_spec - rhs_sh) <= 1e-8 * max(
            1.0, np.linalg.norm(rhs_sh)
        )

        pi_bwd_r = random_map(rng, m2, m1)
        y_rh = y_step_rhm(pi, pi_bwd_r, m1, m2, beta=0.8, mu=2.5)
        diag_bij = np.bincount(pi_bwd_r.target_of, weights=m2.vertex_areas,
                               minlength=m1.n_vertices)
        mat = m1.cot_matrix + sparse.diags(0.8 * a + 2.5 * diag_bij)
        rhs_r = 0.8 * a[:, None] * pulled
        for c in range(3):
            rhs_r[:, c] += 2.5 * np.bincount(
                pi_bwd_r.target_of,
                weights=m2.vertex_areas * m2.vertices[:, c],
                minlength=m1.n_vertices,
            )
        assert np.linalg.norm(mat @ y_rh - rhs_r) <= 1e-8 * np.linalg.norm(rhs_r)

        # rotations live in SO(3)
        eye_gap = rot @ rot.transpose(0, 2, 1) - np.eye(3)
        assert np.abs(eye_gap).max() < 1e-8
        assert np.abs(np.linalg.det(rot) - 1.0).max() < 1e-8

        # rigid-motion fixture recovers the rotation
        src = icosphere(1).normalized()
        q = Rotation.from_rotvec([0.2, 0.4, -0.3]).as_matrix()
        tgt = TriMesh(src.vertices @ q.T + np.array([0.1, -0.2, 0.3]), src.faces)
        rot_r, y_r = y_step_arap(identity_map(src), src, tgt, beta=0.1, lam=1.0)
        assert np.abs(rot_r - q).max() < 1e-6
        assert np.abs(y_r - tgt.vertices).max() < 1e-6

        # nICP translation fixture reaches zero smoothness
        tgt_t = TriMesh(src.vertices + np.array([0.3, 0.0, -0.1]), src.faces)
        d_t, y_t = y_step_nicp(identity_map(src), src, tgt_t, beta=1e-2)
        assert dirichlet_energy(d_t.reshape(src.n_vertices, 12), src.cot_matrix) < 1e-10

        # RHM with mu = 0 bit-matches the Dirichlet step
        pi_bwd = random_map(rng, m2, m1)
        y_rhm = y_step_rhm(pi, pi_bwd, m1, m2, beta=1.0, mu=0.0)
        y_dir = y_step_dirichlet(pi, m1, m2, beta=1.0)
        assert np.array_equal(y_rhm, y_dir)


def test_synthetic_regression():
    with criterion("synthetic-regression", 120):
        src = icosphere(3)
        assert src.n_vertices == 642
        tgt = jittered_copy(src, 0.02, seed=1)
        m1, m2 = src.normalized(), tgt.normalized()
        b1 = compute_basis(m1, 100)
        b2 = compute_basis(m2, 100)
        lm_idx = farthest_point_indices(m1, 5)
        pi_12, pi_21 = landmark_init(np.column_stack([lm_idx, lm_idx]), b1, b2)
        gt = np.arange(m1.n_vertices)

        def acc(pi):
            return accuracy_metric(pi, gt, gt, m2)

        def e_d(a, b):
            return 0.5 * (smoothness_metric(a, m1, m2) + smoothness_metric(b, m2, m1))

        acc_init = acc(pi_12)
        ed_init = e_d(pi_12, pi_21)

        f_12, f_21, _ = refine(pi_12, pi_21, m1, m2, b1, b2, SolverConfig())
        acc_final = acc(f_12)
        ed_final = e_d(f_12, f_21)

        s_12, s_21, _ = refine(
            pi_12, pi_21, m1, m2, b1, b2,
            SolverConfig(gamma_init=0.0, gamma_final=0.0),
        )
        ed_spectral = e_d(s_12, s_21)

        print("  regression: accuracy %.2f -> %.2f, E_D %.3f -> %.3f, "
              "spectral-only E_D %.3f" % (acc_init, acc_final, ed_init, ed_final, ed_spectral))
        assert acc_final * 2.0 <= acc_init, "(a) accuracy improvement below 2x"
        assert ed_final * 2.0 <= ed_init, "(b) smoothness improvement below 2x"
        assert ed_final < ed_spectral, "(c) not smoother than spectral-only refinement"


def test_metric_oracle_suite():
    with criterion("metric-oracle-suite", 60):
        rng = np.random.default_rng(41)
        for trial in range(5):
            m1 = hull_mesh(rng, int(rng.integers(20, 51)))
            m2 = hull_mesh(rng, int(rng.integers(20, 51)))
            pi_12 = random_map(rng, m1, m2)
            pi_21 = random_map(rng, m2, m1)
            gt_src = np.arange(m1.n_vertices)
            gt_tgt = rng.integers(0, m2.n_vertices, m1.n_vertices)

            d2 = geodesic_distances(m2, np.arange(m2.n_vertices))
            want_acc = 100.0 * np.mean(
                [d2[pi_12.target_of[p], gt_tgt[p]] for p in range(m1.n_vertices)]
            )
            got_acc = accuracy_metric(pi_12, gt_src, gt_tgt, m2)
            assert abs(got_acc - want_acc) <= 1e-9 * max(1.0, want_acc)

            d1 = geodesic_distances(m1, np.arange(m1.n_vertices))
            r1 = np.mean([d1[pi_21.target_of[pi_12.target_of[p]], p]
                          for p in range(m1.n_vertices)])
            r2 = np.mean([d2[pi_12.target_of[pi_21.target_of[q]], q]
                          for q in range(m2.n_vertices)])
            want_bij = 100.0 * 0.5 * (r1 + r2)
            got_bij = bijectivity_metric(pi_12, pi_21, m1, m2)
            assert abs(got_bij - want_bij) <= 1e-9 * max(1.0, want_bij)

            want_sm = dirichlet_slow(pi_12.pull(m2.vertices), m1)
            got_sm = smoothness_metric(pi_12, m1, m2)
            assert abs(got_sm - want_sm) <= 1e-9 * max(1.0, want_sm)

            areas = m2.vertex_areas
            want_cov = 100.0 * sum(areas[t] for t in set(pi_12.target_of.tolist())) / areas.sum()
            got_cov = coverage_metric(pi_12, areas)
            assert abs(got_cov - want_cov) <= 1e-9 * max(1.0, want_cov)

        sphere = icosphere(2).normalized()
        assert conformal_distortion(identity_map(sphere), sphere, sphere) == pytest.approx(
            1.0, abs=1e-12
        )
        scaled = TriMesh(3.0 * sphere.vertices, sphere.faces)
        assert conformal_distortion(identity_map(sphere), sphere, scaled) == pytest.approx(
            1.0, abs=1e-12
        )
