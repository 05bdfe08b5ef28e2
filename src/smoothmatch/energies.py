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
``energy_breakdown``, the one evaluator of the objective, sums them, and
``pi_step_embedding`` stacks them into the Pi-step's embedding.
``c_step_system`` states the C-step's normal equations.  The solver only
solves the problems these two state.
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
    coupling (weight gamma * beta), bijectivity (weight 1)."""
    phi_src, phi_tgt = phi_src[:, :c_own.shape[0]], phi_tgt[:, :c_own.shape[1]]
    return [Term("e_couple_spec", config.alpha, (phi_src, c_own), phi_tgt),
            Term("e_couple_spatial", gamma * config.beta, y, x_tgt),
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


def energy_breakdown(state, mesh_1, mesh_2, basis_1, basis_2, config, gamma):
    """All energy terms as a flat dict (solver trace rows, CLI report).

    The raw columns are the sums over both maps of each of the
    ``map_terms``, in the bases' area norm, and ``e_dirichlet``, the
    Dirichlet energy of both Y.  ``e_total`` applies the weights, with
    ``gamma`` on the smoothness block of ``config.variant``; for the
    Dirichlet variant

        e_total = e_bij + alpha * e_couple_spec
                  + gamma * (e_dirichlet + beta * e_couple_spatial),

    i.e. the bijectivity block plus gamma times the smoothness block.
    Energies with auxiliary unknowns (nicp, arap, shells) raise
    ValueError on a state whose Y-steps left none.
    """
    sums = {}
    for pi, c_own, c_other, y, b_src, b_tgt, m_tgt in (
            (state.pi_12, state.c_21, state.c_12, state.y_12, basis_1, basis_2, mesh_2),
            (state.pi_21, state.c_12, state.c_21, state.y_21, basis_2, basis_1, mesh_1)):
        # the target rows are pulled back once, so each data operand is
        # already data[pi] and (a, b) is a[pi] @ b; (a @ b)[pi] can differ
        # from it in the last bit, which would move the trace
        for term in map_terms(c_own, c_other, y, b_src.phi, pi.pull(b_tgt.phi),
                              pi.pull(m_tgt.vertices), config, gamma):
            # a product on the left lets numpy subtract into its temporary
            diff = (_value(term.data) - _value(term.query) if isinstance(term.data, tuple)
                    else _value(term.query) - _value(term.data))
            sums[term.column] = sums.get(term.column, 0.0) + a_norm_sq(diff, b_src.areas)
    e_d = dirichlet_energy(state.y_12, mesh_1.cot_matrix) + dirichlet_energy(
        state.y_21, mesh_2.cot_matrix)
    variant = config.variant
    e_sm = (variant.energy.regularizer(state, mesh_1, mesh_2, variant, e_d)
            + config.beta * sums["e_couple_spatial"])
    total = sums["e_bij"] + config.alpha * sums["e_couple_spec"] + gamma * e_sm
    return {"e_bij": sums["e_bij"], "e_couple_spec": sums["e_couple_spec"], "e_dirichlet": e_d,
            "e_couple_spatial": sums["e_couple_spatial"], "e_total": total}


def format_breakdown(parts):
    """One ``key value`` line per energy term (CLI output, test goldens)."""
    return "\n".join("%s %.12g" % (key, parts[key]) for key in sorted(parts))
