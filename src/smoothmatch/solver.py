"""Three-block refinement of vertex-to-vertex map pairs.

Each outer iteration alternates exact minimizations of the combined
objective (bijectivity plus gamma times coupled smoothness):

1. C-step: both functional maps in closed form (K x K SPD systems).
2. Y-step: the active variant's sparse solve, one per direction, with
   the surrogate coordinates re-seeded from the freshest maps.
3. Pi-step: per-vertex nearest-neighbor assignment in a concatenated
   spectral/spatial embedding (row-separable exact minimization when
   ``exact_pi_step`` is on; the default drops the first bijectivity
   block, keeping only coupling terms, which is much smaller).

``SolverConfig`` is the one record of the objective: its schedules,
its weights ``alpha`` and ``beta``, the active energy and the Pi-step
mode.  Every block step reads the config it is given.

Across iterations the spectral size K grows linearly and gamma follows
a geometric ramp, so early iterations align low frequencies before the
smoothness term is fully weighted.

Index convention (see also :mod:`smoothmatch.energies`): ``c_21`` is
the spectral pull-back of ``pi_12`` and vice versa; the subscripts of C
name the function-transport direction, which is opposite to the vertex
map it represents.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import variants as _variants
from .energies import energy_breakdown
from .io import _savetxt
from .spectral import PointwiseMap, fmap_to_p2p, nearest_rows, p2p_to_fmap
from .variants import Variant

logger = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    """Schedules, weights and switches of the refinement loop.

    alpha : weight of the spectral coupling terms
    beta : weight of the spatial coupling terms; None resolves to
        ``variant.default_beta`` at construction
    The smoothness weight gamma follows ``gamma_schedule``.
    """

    k_init: int = 20
    k_final: int = 100
    n_outer: int = 9
    gamma_init: float = 0.1
    gamma_final: float = 1.0
    variant: Variant = field(default_factory=Variant)
    exact_pi_step: bool = False
    alpha: float = 0.1
    beta: float | None = None

    def __post_init__(self):
        if self.beta is None:
            self.beta = self.variant.default_beta
        for name in ("alpha", "beta"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError("energy weight %s must be finite and nonnegative (got %s)"
                                 % (name, getattr(self, name)))
        if self.k_init < 1 or self.k_final < self.k_init:
            raise ValueError("need 1 <= k_init <= k_final")
        if self.n_outer < 1:
            raise ValueError("n_outer must be positive")
        for name in ("gamma_init", "gamma_final"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError("%s must be finite and nonnegative (got %s)"
                                 % (name, getattr(self, name)))
        if self.gamma_init != self.gamma_final and self.gamma_init <= 0:
            raise ValueError("a geometric gamma ramp needs gamma_init > 0")

    def k_schedule(self):
        """Spectral sizes per iteration, linear from k_init to k_final."""
        if self.n_outer == 1:
            return np.array([self.k_final])
        return np.round(np.linspace(self.k_init, self.k_final, self.n_outer)).astype(int)

    def gamma_schedule(self):
        """Smoothness weights per iteration, geometric ramp."""
        if self.n_outer == 1 or self.gamma_init == self.gamma_final:
            return np.full(self.n_outer, self.gamma_final, dtype=float)
        return np.geomspace(self.gamma_init, self.gamma_final, self.n_outer)


class SolverState:
    """The six live variables of one refinement, plus auxiliaries."""

    def __init__(self, pi_12, pi_21):
        self.pi_12 = pi_12
        self.pi_21 = pi_21
        self.c_12 = self.c_21 = None
        self.y_12 = self.y_21 = None
        self.aux_12 = self.aux_21 = None


class EnergyTrace:
    """Per-iteration energy record of a refinement run."""

    COLUMNS = ("iteration", "k", "gamma", "e_bij", "e_couple_spec",
               "e_dirichlet", "e_couple_spatial", "e_total")

    def __init__(self):
        self.rows = []

    def append(self, **row):
        self.rows.append({c: row[c] for c in self.COLUMNS})

    def column(self, name):
        return np.array([r[name] for r in self.rows])

    def __len__(self):
        return len(self.rows)

    def to_csv(self, path):
        """Write the trace as CSV to ``path``, as plain text whatever its name."""
        rows = np.array([[r[c] for c in self.COLUMNS] for r in self.rows], dtype=np.float64)
        _savetxt(path, rows.reshape(-1, len(self.COLUMNS)), comments="",
                 fmt="%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g",
                 header=",".join(self.COLUMNS))


def _c_direction(pi_back, pi_fwd, basis_i, basis_j, alpha):
    # exact minimizer over C_ji of both terms it appears in:
    #   |Pi_ji Phi_i C - Phi_j|^2_{A_j} + alpha |Phi_i C - Pi_ij Phi_j|^2_{A_i}
    # which, with Phi_i.T A_i Phi_i = I, gives the K x K SPD system
    #   (Phi_i.T Pi_ji.T A_j Pi_ji Phi_i + alpha I) C
    #        = Phi_i.T Pi_ji.T A_j Phi_j + alpha Phi_i.T A_i Pi_ij Phi_j
    phi_i = basis_i.phi
    phi_j = basis_j.phi
    k = basis_i.k
    a_j = basis_j.areas
    pulled = phi_i[pi_back.target_of]                     # Pi_ji Phi_i
    lhs = pulled.T @ (a_j[:, None] * pulled)
    rhs = pulled.T @ (a_j[:, None] * phi_j)
    if alpha > 0:
        lhs = lhs + alpha * np.eye(k)
        rhs = rhs + alpha * p2p_to_fmap(pi_fwd, basis_i, basis_j)
    else:
        # rank-deficient map images can make the pure bijectivity
        # system singular; tiny documented ridge
        lhs = lhs + 1e-9 * np.eye(k)
        logger.debug("c_step with alpha=0: applying 1e-9 ridge")
    return np.linalg.solve(lhs, rhs)


def c_step(state, basis_1, basis_2, config):
    """Closed-form update of both functional maps at fixed Pi.

    Returns ``(c_12, c_21)`` where each K x K map is the exact joint
    minimizer of the bijectivity energy at ``config.alpha`` in its own
    variable; K is the size of the bases passed in.
    """
    c_21 = _c_direction(state.pi_21, state.pi_12, basis_1, basis_2, config.alpha)
    c_12 = _c_direction(state.pi_12, state.pi_21, basis_2, basis_1, config.alpha)
    return c_12, c_21


def _pi_direction(c_own, c_other, y, basis_src, basis_tgt, mesh_tgt, config, gamma):
    # recover the map src -> tgt; per source vertex q the assignment
    # minimizes (up to the positive row weight A_src[q])
    #   alpha |Phi_tgt[p] - (Phi_src C_own)[q]|^2
    #   + gamma beta |X_tgt[p] - Y[q]|^2
    #   (+ |(Phi_tgt C_other)[p] - Phi_src[q]|^2 in exact mode)
    # rhm's gamma mu |Pi_bwd Y_other - X_src|^2 term is left out, so the
    # exact mode is not exact for rhm
    # each embedding is written block by block into one array, so no
    # per-block copy is alive during the search
    spatial = gamma * config.beta != 0
    k_own = c_own.shape[1]
    k_other = c_other.shape[1] if config.exact_pi_step else 0
    width = k_own + (3 if spatial else 0) + k_other
    query = np.empty((basis_src.n, width))
    data = np.empty((basis_tgt.n, width))

    sa = np.sqrt(config.alpha)
    np.matmul(basis_src.phi, c_own, out=query[:, :k_own])
    query[:, :k_own] *= sa
    np.multiply(basis_tgt.phi, sa, out=data[:, :k_own])

    if spatial:
        s = np.sqrt(gamma * config.beta)
        np.multiply(y, s, out=query[:, k_own:k_own + 3])
        np.multiply(mesh_tgt.vertices, s, out=data[:, k_own:k_own + 3])

    if config.exact_pi_step:
        query[:, width - k_other:] = basis_src.phi
        np.matmul(basis_tgt.phi, c_other, out=data[:, width - k_other:])

    idx = nearest_rows(query, data)
    return PointwiseMap(idx, mesh_tgt.n_vertices)


def pi_step(state, mesh_1, mesh_2, basis_1, basis_2, config, gamma):
    """Row-separable assignment update of both pointwise maps.

    The bases hold the K eigenpairs of the state's K x K functional maps;
    ``config.exact_pi_step`` selects the exact embedding.
    """
    pi_12 = _pi_direction(state.c_21, state.c_12, state.y_12, basis_1, basis_2, mesh_2, config, gamma)
    pi_21 = _pi_direction(state.c_12, state.c_21, state.y_21, basis_2, basis_1, mesh_1, config, gamma)
    return pi_12, pi_21


def refine(pi_12, pi_21, mesh_1, mesh_2, basis_1, basis_2, config=None):
    """Run the full refinement loop on an initial map pair.

    The loop stops before the end of the schedule only when an iteration
    leaves both maps unchanged and every remaining ``(k, gamma)`` equals
    the current pair, since running on could only append identical rows.

    Parameters
    ----------
    pi_12, pi_21 : PointwiseMap
        Initial maps in the two directions.
    mesh_1, mesh_2 : TriMesh
    basis_1, basis_2 : SpectralBasis
        Must hold at least ``config.k_final`` eigenpairs.
    config : SolverConfig

    Returns
    -------
    (PointwiseMap, PointwiseMap, EnergyTrace)
        Refined maps and the per-iteration energy record.
    """
    config = SolverConfig() if config is None else config
    if basis_1.k < config.k_final or basis_2.k < config.k_final:
        raise ValueError(
            "bases hold %d/%d eigenpairs, need k_final=%d"
            % (basis_1.k, basis_2.k, config.k_final)
        )
    if config.variant.k_def is not None and config.variant.k_def > config.k_final:
        raise ValueError("k_def=%d exceeds k_final=%d" % (config.variant.k_def, config.k_final))
    if pi_12.n_src != mesh_1.n_vertices or pi_12.n_tgt != mesh_2.n_vertices:
        raise ValueError("pi_12 does not match the meshes")
    if pi_21.n_src != mesh_2.n_vertices or pi_21.n_tgt != mesh_1.n_vertices:
        raise ValueError("pi_21 does not match the meshes")

    variant = config.variant
    beta = config.beta
    ks = config.k_schedule()
    gammas = config.gamma_schedule()

    # map-independent Y-step operators are factored once per mesh
    solves = []
    for mesh in (mesh_1, mesh_2):
        op = variant.energy.operator(variant, mesh, beta) if beta > 0 else None
        solves.append(None if op is None
                      else _variants.prefactored(op, op.shape[0] // mesh.n_vertices))

    state = SolverState(pi_12, pi_21)
    trace = EnergyTrace()

    for it in range(config.n_outer):
        k = int(ks[it])
        gamma = float(gammas[it])
        b1 = basis_1.sliced(k)
        b2 = basis_2.sliced(k)

        state.c_12, state.c_21 = c_step(state, b1, b2, config)

        state.y_12, state.aux_12 = _variants.run_y_step(
            variant, beta, state.pi_12, state.pi_21, mesh_1, mesh_2, b1, solve=solves[0]
        )
        state.y_21, state.aux_21 = _variants.run_y_step(
            variant, beta, state.pi_21, state.pi_12, mesh_2, mesh_1, b2, solve=solves[1]
        )

        new_12, new_21 = pi_step(state, mesh_1, mesh_2, b1, b2, config, gamma)
        unchanged = new_12 == state.pi_12 and new_21 == state.pi_21
        state.pi_12, state.pi_21 = new_12, new_21

        parts = energy_breakdown(state, mesh_1, mesh_2, b1, b2, config, gamma)
        trace.append(iteration=it, k=k, gamma=gamma, **parts)

        if unchanged and np.all(ks[it:] == k) and np.all(gammas[it:] == gammas[it]):
            break

    return state.pi_12, state.pi_21, trace


def landmark_init(landmarks, basis_1, basis_2):
    """Initial map pair from a few landmark correspondences.

    Landmark indicators (area-normalized vertex spikes, whose spectral
    coefficients are exactly the basis rows) are projected into the
    first L eigenfunctions of each shape, L being the landmark count;
    the functional map aligning the two coefficient matrices in least
    squares is converted to pointwise maps.

    Parameters
    ----------
    landmarks : (L, 2) array_like
        Rows ``(index on mesh 1, index on mesh 2)``, L >= 2.
    """
    lm = np.asarray(landmarks, dtype=np.int64)
    if lm.ndim != 2 or lm.shape[1] != 2:
        raise ValueError("landmarks must be an (L, 2) index array")
    if lm.shape[0] < 2:
        raise ValueError("need at least 2 landmarks")
    for col, basis in ((0, basis_1), (1, basis_2)):
        if np.unique(lm[:, col]).size != lm.shape[0]:
            raise ValueError("duplicate landmark indices on mesh %d" % (col + 1))
        if lm[:, col].min() < 0 or lm[:, col].max() >= basis.n:
            raise ValueError("landmark index out of range on mesh %d" % (col + 1))

    k0 = lm.shape[0]
    if k0 > min(basis_1.k, basis_2.k):
        raise ValueError("%d landmarks need as many eigenpairs; the bases hold %d"
                         % (k0, min(basis_1.k, basis_2.k)))

    f1 = basis_1.phi[lm[:, 0], :k0].T            # (k0, L)
    f2 = basis_2.phi[lm[:, 1], :k0].T

    # map 1 -> 2 pulls coefficients back from shape 2: C f2 ~ f1
    c_for_12 = np.linalg.lstsq(f2.T, f1.T, rcond=None)[0].T
    c_for_21 = np.linalg.lstsq(f1.T, f2.T, rcond=None)[0].T
    pi_12 = fmap_to_p2p(c_for_12, basis_1.sliced(k0), basis_2.sliced(k0))
    pi_21 = fmap_to_p2p(c_for_21, basis_2.sliced(k0), basis_1.sliced(k0))
    return pi_12, pi_21
