"""Pluggable smoothness energies and their Y-step solvers.

Every variant produces surrogate pulled-back coordinates ``Y`` for one
map direction by exactly minimizing its own coupled energy at fixed
pointwise maps; the differences between variants live entirely here.
The terms that depend on the maps, the spatial coupling included, are
stated in :mod:`smoothmatch.energies` and shared by every variant.

A Y-step takes the factor of its map-independent system from
:func:`factored`, which ``refine`` caches for one call.

Degenerate kernels (``beta == 0``) are pinned explicitly, never left to
the sparse solver: the Dirichlet variant returns the area-weighted
centroid rows, ARAP pins the centroid of the solution, and nICP returns
identity transforms, before anything is factored.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import lsqr, splu

from .energies import a_norm_sq, dirichlet_energy


@dataclass(frozen=True)
class Variant:
    """Smoothness energy selector and its extra weights.

    lam : rigidity weight of the ARAP/shells energies
    mu : pointwise-bijectivity weight of the RHM energy
    k_def : displacement basis size for shells; each iteration uses
        ``min(k_def, K)`` for its spectral size K (None: K)
    """

    kind: str = "dirichlet"
    lam: float = 1.0
    mu: float = 1e4
    k_def: int | None = None

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError("unknown variant %r (expected one of %s)" % (self.kind, ", ".join(VARIANT_KINDS)))
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite (got %s)" % self.lam)
        if not 0 <= self.mu < np.inf:
            raise ValueError("mu must be nonnegative and finite (got %s)" % self.mu)
        if self.k_def is not None and self.k_def < 1:
            raise ValueError("k_def must be at least 1 (got %s)" % self.k_def)

    @property
    def energy(self):
        """This kind's ``Energy`` entry: the one lookup of ``ENERGIES``."""
        return ENERGIES[self.kind]


def _symmetric_lu(mat, permc_spec, relax, panel_size):
    # SPD factor with its pivots taken from the diagonal
    return splu(mat, permc_spec=permc_spec, diag_pivot_thresh=0.0, relax=relax,
                panel_size=panel_size, options=dict(SymmetricMode=True))


def prefactored(mat, block=1):
    """Sparse factorization of a symmetric positive definite matrix.

    Returns a multi-RHS solve callable.  ``mat`` must be SPD, as every
    Y-step system is for ``beta > 0`` (``W + beta A``, ``lam W + beta
    A``, the nICP operator, RHM's ``W`` plus a diagonal): the factor
    takes its pivots from the diagonal, in a minimum-degree order of
    the symmetric pattern, with no partial pivoting.  An exactly
    singular matrix still raises ``splu``'s ``RuntimeError``, which the
    CLI reports as a solver error.  The nICP operator is only
    semidefinite on a coplanar mesh: the affine field is then free
    along a null direction that ``Y = D o X`` does not see, and the
    factor still returns ``Y`` (on a flat 30 x 30 grid, within 7e-11
    of the identity map's image).

    ``block`` is the number of consecutive unknowns per vertex (4 for
    the nICP operator).  With ``block = 1``, ``relax=1, panel_size=1``
    keep SuperLU from merging columns into supernodes: on icosphere
    labellings its default relaxation made the minimum-degree factor up
    to 20x slower than a COLAMD one.  With ``block > 1`` the vertices
    are ordered by minimum degree on the principal submatrix
    ``mat[::block, ::block]``, which has the vertex graph's pattern
    (the order is ``argsort(perm_c)`` of that factor), each vertex is
    expanded to its ``block`` unknowns, and the permuted matrix is
    factored in that order.  Its columns then come in dense
    ``block x block`` groups, so supernodes of up to 8 columns pay off:
    on nICP this has 5-20 % less fill than a minimum-degree order of the
    whole matrix and factors in 0.55-0.75x its time.  SuperLU's default
    relaxation made the same factor up to 6x slower on icosphere(5).
    """
    mat = sparse.csc_matrix(mat)
    if block == 1:
        lu = _symmetric_lu(mat, "MMD_AT_PLUS_A", relax=1, panel_size=1)
        return lambda rhs: lu.solve(np.asarray(rhs, dtype=np.float64))
    # perm_c[j] is the position of column j, so its argsort lists the
    # vertices in elimination order
    order = np.argsort(_symmetric_lu(sparse.csc_matrix(mat[::block, ::block]), "MMD_AT_PLUS_A",
                                     relax=1, panel_size=1).perm_c)
    p = (block * order[:, None] + np.arange(block)).ravel()
    lu = _symmetric_lu(sparse.csc_matrix(mat[p][:, p]), "NATURAL", relax=8, panel_size=8)

    def solve(rhs):
        rhs = np.asarray(rhs, dtype=np.float64)
        out = np.empty_like(rhs)
        out[p] = lu.solve(rhs[p])
        return out

    return solve


def factored(build, mesh, *weights):
    """Factor of ``build(mesh, *weights)`` in its blocks of unknowns per vertex."""
    op = build(mesh, *weights)
    return prefactored(op, op.shape[0] // mesh.n_vertices)


def _a_centroid(points, areas):
    return (areas[:, None] * points).sum(axis=0) / areas.sum()


# ----------------------------------------------------------------------
# Dirichlet
# ----------------------------------------------------------------------
def y_step_dirichlet(pi, mesh_src, mesh_tgt, beta, factored=factored):
    """Minimize ``|Y|^2_W + beta |Y - Pi X_tgt|^2_A`` over Y.

    Solves ``(W + beta A) Y = beta A (Pi X_tgt)``.
    """
    pulled = pi.pull(mesh_tgt.vertices)
    a = mesh_src.vertex_areas
    if beta == 0:
        # pure Dirichlet minimizers are the constant maps; pin to the
        # area-weighted centroid of the pulled-back coordinates
        return np.tile(_a_centroid(pulled, a), (mesh_src.n_vertices, 1))
    return factored(dirichlet_operator, mesh_src, beta)(beta * a[:, None] * pulled)


def dirichlet_operator(mesh, beta, lam=1.0):
    """``lam W + beta A``: the Dirichlet (``lam = 1``) and ARAP Y-step systems."""
    return lam * mesh.cot_matrix + sparse.diags(beta * mesh.vertex_areas)


# ----------------------------------------------------------------------
# nICP (per-vertex affine field)
# ----------------------------------------------------------------------
def nicp_operator(mesh, beta):
    """System matrix of the affine-field fit, shape (4n, 4n).

    Unknown ordering: vec of the (n, 4) array holding one affine row
    per vertex; the three output coordinates share this operator.
    """
    n = mesh.n_vertices
    xt = np.hstack([mesh.vertices, np.ones((n, 1))])
    blocks = (beta * mesh.vertex_areas)[:, None, None] * np.einsum("ia,ib->iab", xt, xt)
    return (sparse.kron(mesh.cot_matrix, sparse.identity(4), format="csc")
            + sparse.bsr_matrix((blocks, np.arange(n), np.arange(n + 1))))


def y_step_nicp(pi, mesh_src, mesh_tgt, beta, factored=factored):
    """Fit a smooth per-vertex affine field to the current map.

    Minimizes ``|D|^2_W + beta |D o X_src - Pi X_tgt|^2_A`` where
    ``D o X`` applies each vertex's 3x4 transform to its homogeneous
    coordinates.  Returns ``(D, Y)`` with ``Y = D o X_src``.
    """
    n = mesh_src.n_vertices
    x = mesh_src.vertices
    if beta == 0:
        # any graph-constant field is optimal; return identity transforms
        d = np.tile(np.hstack([np.eye(3), np.zeros((3, 1))]), (n, 1, 1))
        return d, x.copy()
    xt = np.hstack([x, np.ones((n, 1))])
    target = pi.pull(mesh_tgt.vertices)
    scaled = (beta * mesh_src.vertex_areas)[:, None] * target     # (n, 3)
    # column r stacks the per-vertex vectors beta * a_i * t_ir * xt_i
    rhs = np.stack([(scaled[:, r, None] * xt).ravel() for r in range(3)], axis=1)
    g = factored(nicp_operator, mesh_src, beta)(rhs)              # (4n, 3)
    d = np.transpose(g.reshape(n, 4, 3), (0, 2, 1))               # (n, 3, 4)
    y = np.einsum("irc,ic->ir", d, xt)
    return d, y


# ----------------------------------------------------------------------
# ARAP (local-global)
# ----------------------------------------------------------------------
def arap_local_step(y, mesh_src):
    """Best-fit per-vertex rotations of the deformation X -> Y.

    Per vertex the rotation maximizes
    ``sum_j w_ij (y_i - y_j)^T R (x_i - x_j)`` (orthogonal Procrustes
    on the weighted edge covariance with determinant correction).
    Vertices with a vanishing covariance get the identity.
    """
    edges, w = mesh_src.edge_weights
    x = mesh_src.vertices
    dx = x[edges[:, 0]] - x[edges[:, 1]]
    dy = np.asarray(y)[edges[:, 0]] - np.asarray(y)[edges[:, 1]]
    contrib = w[:, None, None] * dx[:, :, None] * dy[:, None, :]
    cov = np.zeros((mesh_src.n_vertices, 3, 3))
    np.add.at(cov, edges[:, 0], contrib)
    np.add.at(cov, edges[:, 1], contrib)

    u, sing, vt = np.linalg.svd(cov)
    v = vt.transpose(0, 2, 1)
    ut = u.transpose(0, 2, 1)
    rot = v @ ut
    flip = np.linalg.det(rot) < 0
    if flip.any():
        v = v.copy()
        v[flip, :, 2] *= -1.0
        rot = v @ ut
    scale = np.abs(cov).max()
    dead = sing[:, 0] <= 1e-14 * max(scale, 1e-30)
    if dead.any():
        rot[dead] = np.eye(3)
    return rot


def arap_rhs(rotations, mesh_src):
    """Right-hand side ``b_i = sum_j (w_ij/2)(R_i + R_j)(x_i - x_j)``."""
    edges, w = mesh_src.edge_weights
    x = mesh_src.vertices
    dx = x[edges[:, 0]] - x[edges[:, 1]]
    rr = rotations[edges[:, 0]] + rotations[edges[:, 1]]
    vec = 0.5 * w[:, None] * np.einsum("eij,ej->ei", rr, dx)
    out = np.zeros((mesh_src.n_vertices, 3))
    np.add.at(out, edges[:, 0], vec)
    np.add.at(out, edges[:, 1], -vec)
    return out


def arap_rigid_term(rotations, y, mesh_src):
    """Alignment term between deformed edges and rotated rest edges."""
    edges, w = mesh_src.edge_weights
    x = mesh_src.vertices
    dx = x[edges[:, 0]] - x[edges[:, 1]]
    dy = np.asarray(y)[edges[:, 0]] - np.asarray(y)[edges[:, 1]]
    rr = rotations[edges[:, 0]] + rotations[edges[:, 1]]
    return 0.5 * float(np.einsum("e,ei,ei->", w, dy, np.einsum("eij,ej->ei", rr, dx)))


def arap_energy(rotations, y, mesh_src):
    """Local-rigidity energy; decomposes as E_D(Y) - 2 rigid + E_D(X)."""
    w = mesh_src.cot_matrix
    return (
        dirichlet_energy(y, w)
        - 2.0 * arap_rigid_term(rotations, y, mesh_src)
        + dirichlet_energy(mesh_src.vertices, w)
    )


def _arap_system(pi, mesh_src, mesh_tgt, beta, lam):
    """``Pi X_tgt``, the rotations fit to it, and the right-hand side
    ``lam b(R) + beta A Pi X_tgt`` of ARAP's global step."""
    pulled = pi.pull(mesh_tgt.vertices)
    rot = arap_local_step(pulled, mesh_src)
    rhs = lam * arap_rhs(rot, mesh_src) + beta * mesh_src.vertex_areas[:, None] * pulled
    return pulled, rot, rhs


def y_step_arap(pi, mesh_src, mesh_tgt, beta, lam, factored=factored):
    """One local-global ARAP sweep coupled to the current map.

    Rotations are fit to ``Y0 = Pi X_tgt``; the global step solves
    ``(lam W + beta A) Y = lam b(R) + beta A Pi X_tgt``.
    """
    pulled, rot, rhs = _arap_system(pi, mesh_src, mesh_tgt, beta, lam)
    if beta == 0:
        # translation-ambiguous: solve least-squares and pin the
        # A-weighted centroid to that of the pulled-back coordinates
        a = mesh_src.vertex_areas
        w = sparse.csr_matrix(lam * mesh_src.cot_matrix)
        y = np.column_stack([lsqr(w, rhs[:, c], atol=1e-13, btol=1e-13)[0] for c in range(3)])
        y += _a_centroid(pulled, a) - _a_centroid(y, a)
        return rot, y
    return rot, factored(dirichlet_operator, mesh_src, beta, lam)(rhs)


# ----------------------------------------------------------------------
# Smooth-shells style spectral displacement
# ----------------------------------------------------------------------
def y_step_shells(pi, mesh_src, mesh_tgt, basis_src, beta, lam, k_def):
    """ARAP's global step, restricted to a spectral displacement.

    The update ``Y = X + Phi D`` restricts per-vertex translations to
    the first ``min(k_def, basis_src.k)`` eigenfunctions (all of them
    when ``k_def`` is None); ``D`` solves the k x k normal equations of
    the ARAP system (rotations fit to ``Pi X_tgt``) projected onto the
    basis.  Returns ``(D, Y, rotations)``.
    """
    k_def = basis_src.k if k_def is None else min(k_def, basis_src.k)
    x = mesh_src.vertices
    a = mesh_src.vertex_areas
    w = mesh_src.cot_matrix
    _, rot, global_rhs = _arap_system(pi, mesh_src, mesh_tgt, beta, lam)

    phi = basis_src.phi[:, :k_def]
    lhs = phi.T @ (lam * (w @ phi) + beta * a[:, None] * phi)
    rhs = phi.T @ (global_rhs - (lam * (w @ x) + beta * a[:, None] * x))
    if beta == 0:
        d = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    else:
        d = np.linalg.solve(lhs, rhs)
    return d, x + phi @ d, rot


# ----------------------------------------------------------------------
# RHM (reversible-map coupling)
# ----------------------------------------------------------------------
def y_step_rhm(pi_fwd, pi_bwd, mesh_src, mesh_tgt, beta, mu, factored=factored):
    """Dirichlet Y-step with an extra pointwise reversibility pull.

    Minimizes ``E_D(Y) + beta |Y - Pi_fwd X_tgt|^2_{A_src}
    + mu |Pi_bwd Y - X_tgt|^2_{A_tgt}``; the reverse-map term only adds
    a diagonal (Pi_bwd is row-one-hot), so the system stays sparse SPD
    but depends on the current map and is factored per call, uncached.
    At ``mu == 0`` this is the Dirichlet Y-step, ``factored`` included.
    """
    if mu == 0:
        return y_step_dirichlet(pi_fwd, mesh_src, mesh_tgt, beta, factored)
    n_src = mesh_src.n_vertices
    a_src = mesh_src.vertex_areas
    a_tgt = mesh_tgt.vertex_areas
    x_tgt = mesh_tgt.vertices

    back = pi_bwd.target_of
    diag_bij = np.bincount(back, weights=a_tgt, minlength=n_src)
    rhs = beta * a_src[:, None] * pi_fwd.pull(x_tgt)
    for c in range(3):
        rhs[:, c] += mu * np.bincount(back, weights=a_tgt * x_tgt[:, c], minlength=n_src)
    mat = mesh_src.cot_matrix + sparse.diags(beta * a_src + mu * diag_bij)
    return prefactored(mat)(rhs)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def run_y_step(variant, beta, pi_fwd, pi_bwd, mesh_src, mesh_tgt, basis_src, factored=factored):
    """Dispatch one direction's Y-step; returns ``(y, aux)``.

    ``basis_src`` holds the current K eigenpairs.  ``aux`` carries the
    auxiliary unknowns the variant's energy needs (rotations or the
    affine field), or None.
    """
    return variant.energy.y_step(variant, beta, pi_fwd, pi_bwd, mesh_src, mesh_tgt, basis_src, factored)


def _aux_sum(state, mesh_1, mesh_2, key, term):
    """``term(aux[key], y, mesh)`` summed over both map directions."""
    if state.aux_12 is None or state.aux_21 is None:
        raise ValueError("this energy needs the Y-steps' %r in both directions; "
                         "the state has none" % key)
    return term(state.aux_12[key], state.y_12, mesh_1) + term(state.aux_21[key], state.y_21, mesh_2)


def _y_nicp(variant, beta, pi_fwd, pi_bwd, mesh_src, mesh_tgt, basis_src, factored):
    d, y = y_step_nicp(pi_fwd, mesh_src, mesh_tgt, beta, factored)
    return y, {"affine": d}


def _nicp_regularizer(state, mesh_1, mesh_2, variant, e_dirichlet):
    return _aux_sum(state, mesh_1, mesh_2, "affine", lambda d, y, mesh: dirichlet_energy(
        d.reshape(mesh.n_vertices, 12), mesh.cot_matrix))


def _y_arap(variant, beta, pi_fwd, pi_bwd, mesh_src, mesh_tgt, basis_src, factored):
    rot, y = y_step_arap(pi_fwd, mesh_src, mesh_tgt, beta, variant.lam, factored)
    return y, {"rotations": rot}


def _arap_regularizer(state, mesh_1, mesh_2, variant, e_dirichlet):
    # also the shells regularizer: both fit rotations to Pi X_tgt
    return variant.lam * _aux_sum(state, mesh_1, mesh_2, "rotations", arap_energy)


def _y_shells(variant, beta, pi_fwd, pi_bwd, mesh_src, mesh_tgt, basis_src, factored):
    _, y, rot = y_step_shells(pi_fwd, mesh_src, mesh_tgt, basis_src, beta, variant.lam,
                              variant.k_def)
    return y, {"rotations": rot}


def _rhm_regularizer(state, mesh_1, mesh_2, variant, e_dirichlet):
    bij = a_norm_sq(
        state.y_12[state.pi_21.target_of] - mesh_2.vertices, mesh_2.vertex_areas
    ) + a_norm_sq(state.y_21[state.pi_12.target_of] - mesh_1.vertices, mesh_1.vertex_areas)
    return e_dirichlet + variant.mu * bij


# The only dispatch on the energy kind, read through ``Variant.energy``.
# Per energy: the default beta; the Y-step, with run_y_step's arguments,
# returning (y, aux); and the regularizer, i.e. the smoothness block
# minus beta * e_couple_spatial.
Energy = namedtuple("Energy", "default_beta y_step regularizer")

# The area-weighted coupling norm makes the spatial block scale like
# beta * diam^2 against a spectral block of order k, so the Dirichlet
# default must sit in the hundreds to act at all on unit-area meshes;
# the remaining values follow the per-energy tuning of the equivalent
# deformation solvers.  At those defaults nicp, arap and shells are all
# but inert: on hull pairs their smoothness block is 1e-6 to 1e-2 of
# e_total, and in the Pi-step nicp's spatial block gamma beta |x|^2 has
# a mean squared row norm of 8e-5 to 8e-4, against 1.4 to 16 for
# dirichlet.
ENERGIES = {
    "dirichlet": Energy(
        200.0,
        lambda v, beta, pi_fwd, pi_bwd, src, tgt, basis, factored: (
            y_step_dirichlet(pi_fwd, src, tgt, beta, factored), None),
        lambda state, mesh_1, mesh_2, v, e_dirichlet: e_dirichlet,
    ),
    "nicp": Energy(1e-2, _y_nicp, _nicp_regularizer),
    "arap": Energy(1e-1, _y_arap, _arap_regularizer),
    "shells": Energy(1e-3, _y_shells, _arap_regularizer),
    "rhm": Energy(
        1.0,
        lambda v, beta, pi_fwd, pi_bwd, src, tgt, basis, factored: (
            y_step_rhm(pi_fwd, pi_bwd, src, tgt, beta, v.mu, factored), None),
        _rhm_regularizer,
    ),
}
VARIANT_KINDS = tuple(ENERGIES)
