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

The terms that depend on the maps are stated once, in ``map_terms``;
the report sums them, and ``pi_step_embedding`` stacks them into the
Pi-step's embedding.  ``c_step_system`` states the C-step's normal
equations.  The solver only solves the problems these two state.
"""

from collections import namedtuple

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


# one map-dependent term of e_total for the map pi from src to tgt:
# |query - data[pi]|^2 in the source's area norm, weighted by ``weight``
# in e_total; an operand (a, b) stands for a @ b.  The Pi-step scales
# each block by sqrt(weight), so for every variant the spatial block is
# sqrt(gamma*beta) * Y against sqrt(gamma*beta) * X_tgt.  rhm's
# mu |Pi_bwd Y - X|^2 term depends on the map too but is not among them,
# so the exact Pi-step is not exact for rhm.
Term = namedtuple("Term", "column weight query data")


def map_terms(c_own, c_other, y, phi_src, phi_tgt, x_tgt, config, gamma):
    """The map-dependent terms of ``e_total`` for the map src -> tgt, whose
    pull-back is ``c_own`` (``c_other`` is the reverse map's), in the
    Pi-step's stacking order: spectral coupling (weight alpha), spatial
    coupling (weight gamma * beta), bijectivity (weight 1).  Without the
    bases or the target vertices (None), their terms are left out."""
    spatial = [] if x_tgt is None else [Term("e_couple_spatial", gamma * config.beta, y, x_tgt)]
    if phi_src is None:
        return spatial
    phi_src, phi_tgt = phi_src[:, :c_own.shape[0]], phi_tgt[:, :c_own.shape[1]]
    return [Term("e_couple_spec", config.alpha, (phi_src, c_own), phi_tgt), *spatial,
            Term("e_bij", 1.0, phi_src, (phi_tgt, c_other))]


def c_step_system(pi_back, pi_fwd, basis_i, basis_j, config):
    """The C-step's K x K SPD normal equations ``(lhs, rhs)`` for ``C_ji``,
    the pull-back of ``pi_fwd`` (i to j; ``pi_back`` maps j to i), at
    ``config.alpha``, or with a 1e-9 ridge at alpha = 0; K is the size of
    ``basis_i``."""
    # exact minimizer over C_ji of both terms it appears in:
    #   |Pi_ji Phi_i C - Phi_j|^2_{A_j} + alpha |Phi_i C - Pi_ij Phi_j|^2_{A_i}
    # which, with Phi_i.T A_i Phi_i = I, gives
    #   (Phi_i.T Pi_ji.T A_j Pi_ji Phi_i + alpha I) C
    #        = Phi_i.T Pi_ji.T A_j Phi_j + alpha Phi_i.T A_i Pi_ij Phi_j
    a_j = basis_j.areas
    pulled = basis_i.phi[pi_back.target_of]               # Pi_ji Phi_i
    lhs = pulled.T @ (a_j[:, None] * pulled)
    rhs = pulled.T @ (a_j[:, None] * basis_j.phi)
    # rank-deficient map images can make the pure bijectivity system
    # singular, so alpha = 0 takes a tiny documented ridge instead
    lhs = lhs + (config.alpha if config.alpha > 0 else 1e-9) * np.eye(basis_i.k)
    if config.alpha > 0:
        rhs = rhs + config.alpha * p2p_to_fmap(pi_fwd, basis_i, basis_j)
    return lhs, rhs


def _value(operand, out=None):
    # an operand (a, b) stands for a @ b; with ``out`` it is written there
    if isinstance(operand, tuple):
        return np.matmul(*operand, out=out)
    return operand if out is None else np.copyto(out, operand)


def _width(operand):
    return (operand[1] if isinstance(operand, tuple) else operand).shape[1]


def pi_step_embedding(c_own, c_other, y, phi_src, phi_tgt, x_tgt, config, gamma):
    """The Pi-step's ``(query, data)`` for the map src -> tgt, whose
    pull-back is ``c_own``.

    Per source vertex q, the data row nearest to query row q minimizes
    (up to the positive row weight A_src[q]) the weighted sum of the
    ``map_terms`` the Pi-step takes: the spectral coupling, the spatial
    one when weighted, bijectivity with ``config.exact_pi_step``.  Each
    block is written scaled by sqrt(weight) into one array, so no
    per-block copy is alive during the search.
    """
    spec, spatial, bij = map_terms(c_own, c_other, y, phi_src, phi_tgt, x_tgt, config, gamma)
    terms = [spec] + [spatial] * (spatial.weight != 0) + [bij] * config.exact_pi_step
    ends = np.cumsum([_width(t.data) for t in terms])
    query = np.empty((phi_src.shape[0], ends[-1]))
    data = np.empty((phi_tgt.shape[0], ends[-1]))
    for term, start, end in zip(terms, np.r_[0, ends[:-1]], ends):
        for operand, out in ((term.query, query[:, start:end]), (term.data, data[:, start:end])):
            _value(operand, out)
            out *= np.sqrt(term.weight)
    return query, data


def map_term_sums(state, mesh_1, mesh_2, basis_1, basis_2, config, gamma):
    """Raw sums over both maps of each of the ``map_terms``, by column; in
    the bases' area norm, or the meshes' when the bases are None."""
    sums = {}
    for pi, c_own, c_other, y, b_src, b_tgt, m_src, m_tgt in (
            (state.pi_12, state.c_21, state.c_12, state.y_12, basis_1, basis_2, mesh_1, mesh_2),
            (state.pi_21, state.c_12, state.c_21, state.y_21, basis_2, basis_1, mesh_2, mesh_1)):
        # the target rows are pulled back once, so each data operand is
        # already data[pi] and (a, b) is a[pi] @ b; (a @ b)[pi] can differ
        # from it in the last bit, which would move the trace
        phi = (None, None) if b_src is None else (b_src.phi, pi.pull(b_tgt.phi))
        x_tgt = None if m_tgt is None else pi.pull(m_tgt.vertices)
        areas = m_src.vertex_areas if b_src is None else b_src.areas
        for term in map_terms(c_own, c_other, y, *phi, x_tgt, config, gamma):
            # a product on the left lets numpy subtract into its temporary
            diff = (_value(term.data) - _value(term.query) if isinstance(term.data, tuple)
                    else _value(term.query) - _value(term.data))
            sums[term.column] = sums.get(term.column, 0.0) + a_norm_sq(diff, areas)
    return sums


def bijectivity_energy(state, basis_1, basis_2, config):
    """Spectral bijectivity energy over both directions, at ``config.alpha``."""
    sums = map_term_sums(state, None, None, basis_1, basis_2, config, 0.0)
    return sums["e_bij"] + config.alpha * sums["e_couple_spec"]


def _dirichlet_sum(state, mesh_1, mesh_2):
    return dirichlet_energy(state.y_12, mesh_1.cot_matrix) + dirichlet_energy(
        state.y_21, mesh_2.cot_matrix)


def variant_smoothness(state, mesh_1, mesh_2, config, terms=None):
    """Coupled smoothness block of ``config.variant`` at ``config.beta``.

    ``terms`` may pass in the raw ``(e_dirichlet, e_couple_spatial)`` of
    ``state`` when the caller has them.  Energies with auxiliary unknowns
    (nicp, arap, shells) raise ValueError on a state whose Y-steps left
    none.
    """
    e_d, e_couple = terms if terms is not None else (
        _dirichlet_sum(state, mesh_1, mesh_2),
        map_term_sums(state, mesh_1, mesh_2, None, None, config, 1.0)["e_couple_spatial"])
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
    sums = map_term_sums(state, mesh_1, mesh_2, basis_1, basis_2, config, gamma)
    e_d = _dirichlet_sum(state, mesh_1, mesh_2)
    e_sm = variant_smoothness(state, mesh_1, mesh_2, config, (e_d, sums["e_couple_spatial"]))
    total = sums["e_bij"] + config.alpha * sums["e_couple_spec"] + gamma * e_sm
    return {"e_bij": sums["e_bij"], "e_couple_spec": sums["e_couple_spec"], "e_dirichlet": e_d,
            "e_couple_spatial": sums["e_couple_spatial"], "e_total": total}


def format_breakdown(parts):
    """One ``key value`` line per energy term (CLI output, test goldens)."""
    return "\n".join("%s %.12g" % (key, parts[key]) for key in sorted(parts))
