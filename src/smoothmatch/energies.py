"""Scalar energies of the refinement objective.

Variable convention (shared with the solver): a state carries maps in
both directions.  ``pi_12`` maps mesh 1 to mesh 2 and its spectral
pull-back is ``c_21`` (shape k1 x k2, transporting coefficients of
functions on mesh 2 into coefficients on mesh 1); symmetrically
``pi_21`` pairs with ``c_12``.  ``y_12`` is the (n1, 3) surrogate for
the pulled-back coordinates ``Pi_12 X_2``.

The bijectivity energy over both ordered directions reads

    sum_(i,j) |Pi_ji Phi_i C_ji - Phi_j|^2_{A_j}
              + alpha * |Phi_j C_ij - Pi_ji Phi_i|^2_{A_j}

and the coupled smoothness energy (Dirichlet flavor)

    sum_(i,j) |Y_ij|^2_{W_i} + beta * |Y_ij - Pi_ij X_j|^2_{A_i},

with |M|^2_A = trace(M.T A M), an area-weighted sum of squared rows.
The total objective is bijectivity plus ``gamma`` times the coupled
smoothness block.  The functions below read ``alpha``, ``beta`` and the
active energy from the ``SolverConfig`` they are given (the smoothness
block comes from ``config.variant.energy``); ``gamma`` follows the
solver's schedule, one value per iteration, and is passed explicitly.
"""

import numpy as np

from .spectral import p2p_to_fmap


def a_norm_sq(values, areas):
    """Area-weighted squared norm ``trace(M.T A M)`` for diagonal A."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.einsum("i,ij,ij->", areas, values, values))


def dirichlet_energy(coords, w):
    """W-norm ``trace(coords.T W coords)`` of per-vertex coordinates.

    Applied to pulled-back vertex positions ``Pi X`` this is the
    Dirichlet energy of the pointwise map; it vanishes exactly on
    constant rows and grows with the stretch the map induces.
    """
    coords = np.asarray(coords, dtype=np.float64)
    return float(np.einsum("ij,ij->", coords, w @ coords))


def coupling_energy(c, pi, basis_src, basis_tgt):
    """Frobenius gap between ``c`` and the conversion of ``pi``.

    ``|C - Phi_src^+ Pi Phi_tgt|_F^2`` with the spectral sizes taken
    from the shape of ``c``.
    """
    c = np.asarray(c, dtype=np.float64)
    converted = p2p_to_fmap(pi, basis_src.sliced(c.shape[0]), basis_tgt.sliced(c.shape[1]))
    diff = c - converted
    return float(np.einsum("ij,ij->", diff, diff))


def _bij_pair_terms(pi_back, c_back, c_fwd, basis_i, basis_j):
    # one ordered direction (i, j): pi_back = Pi_ji, c_back = C_ji,
    # c_fwd = C_ij; both norms are A_j-weighted
    k_i, k_j = c_back.shape
    phi_i = basis_i.phi[:, :k_i]
    phi_j = basis_j.phi[:, :k_j]
    pulled = phi_i[pi_back.target_of]                  # Pi_ji Phi_i
    bij = a_norm_sq(pulled @ c_back - phi_j, basis_j.areas)
    couple = a_norm_sq(phi_j @ c_fwd - pulled, basis_j.areas)
    return bij, couple


def bijectivity_terms(state, basis_1, basis_2):
    """Raw (unweighted) bijectivity and spectral-coupling sums."""
    b12, c12 = _bij_pair_terms(state.pi_21, state.c_21, state.c_12, basis_1, basis_2)
    b21, c21 = _bij_pair_terms(state.pi_12, state.c_12, state.c_21, basis_2, basis_1)
    return b12 + b21, c12 + c21


def bijectivity_energy(state, basis_1, basis_2, config):
    """Spectral bijectivity energy over both directions, at ``config.alpha``."""
    bij, couple = bijectivity_terms(state, basis_1, basis_2)
    return bij + config.alpha * couple


def smoothness_terms(state, mesh_1, mesh_2):
    """Raw Dirichlet and spatial-coupling sums over both directions."""
    e_d = dirichlet_energy(state.y_12, mesh_1.cot_matrix) + dirichlet_energy(
        state.y_21, mesh_2.cot_matrix
    )
    e_c = a_norm_sq(
        state.y_12 - state.pi_12.pull(mesh_2.vertices), mesh_1.vertex_areas
    ) + a_norm_sq(state.y_21 - state.pi_21.pull(mesh_1.vertices), mesh_2.vertex_areas)
    return e_d, e_c


def variant_smoothness(state, mesh_1, mesh_2, config, terms=None):
    """Coupled smoothness block of ``config.variant`` at ``config.beta``.

    ``terms`` may pass in the ``smoothness_terms`` of ``state`` when the
    caller has them.  Energies with auxiliary unknowns (nicp, arap,
    shells) raise ValueError on a state whose Y-steps left none.
    """
    e_d, e_couple = smoothness_terms(state, mesh_1, mesh_2) if terms is None else terms
    variant = config.variant
    return variant.energy.regularizer(state, mesh_1, mesh_2, variant, e_d) + config.beta * e_couple


def energy_breakdown(state, mesh_1, mesh_2, basis_1, basis_2, config, gamma):
    """All energy terms as a flat dict (solver trace rows, CLI report).

    ``gamma`` weights the smoothness block of ``config.variant``.  Raw
    columns are unweighted; ``e_total`` applies the weights, so for the
    Dirichlet variant

        e_total = e_bij + alpha * e_couple_spec
                  + gamma * (e_dirichlet + beta * e_couple_spatial).
    """
    bij, couple_spec = bijectivity_terms(state, basis_1, basis_2)
    e_d, couple_spatial = smoothness_terms(state, mesh_1, mesh_2)
    e_sm = variant_smoothness(state, mesh_1, mesh_2, config, (e_d, couple_spatial))
    total = bij + config.alpha * couple_spec + gamma * e_sm
    return {
        "e_bij": bij,
        "e_couple_spec": couple_spec,
        "e_dirichlet": e_d,
        "e_couple_spatial": couple_spatial,
        "e_total": total,
    }


def format_breakdown(parts):
    """One ``key value`` line per energy term (CLI output, test goldens)."""
    return "\n".join("%s %.12g" % (key, parts[key]) for key in sorted(parts))
