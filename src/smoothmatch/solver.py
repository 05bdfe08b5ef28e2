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

Across iterations the spectral size K grows linearly and gamma follows
a geometric ramp, so early iterations align low frequencies before the
smoothness term is fully weighted.

Index convention (see also :mod:`smoothmatch.energies`): ``c_21`` is
the spectral pull-back of ``pi_12`` and vice versa; the subscripts of C
name the function-transport direction, which is opposite to the vertex
map it represents.
"""

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import variants as _variants
from .energies import EnergyWeights, energy_breakdown
from .spectral import PointwiseMap, nearest_rows
from .variants import Variant

logger = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    """Schedules, weights and switches of the refinement loop."""

    k_init: int = 20
    k_final: int = 100
    n_outer: int = 9
    gamma_init: float = 0.1
    gamma_final: float = 1.0
    variant: Variant = field(default_factory=Variant)
    weights: EnergyWeights | None = None
    exact_pi_step: bool = False

    def __post_init__(self):
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
        if self.weights is None:
            self.weights = EnergyWeights(beta=self.variant.default_beta)
        if self.weights.gamma != 1.0:
            raise ValueError("weights.gamma is set per iteration from gamma_init and "
                             "gamma_final; set those instead")

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
        # an open file, since np.savetxt would gzip a path ending in .gz
        with open(path, "w") as fh:
            np.savetxt(fh, rows.reshape(-1, len(self.COLUMNS)), comments="",
                       fmt="%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g",
                       header=",".join(self.COLUMNS))


def _c_direction(pi_back, pi_fwd, basis_i, basis_j, weights):
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
    alpha = weights.alpha
    if alpha > 0:
        lhs = lhs + alpha * np.eye(k)
        rhs = rhs + alpha * (phi_i.T @ (basis_i.areas[:, None] * phi_j[pi_fwd.target_of]))
    else:
        # rank-deficient map images can make the pure bijectivity
        # system singular; tiny documented ridge
        lhs = lhs + 1e-9 * np.eye(k)
        logger.debug("c_step with alpha=0: applying 1e-9 ridge")
    return np.linalg.solve(lhs, rhs)


def c_step(state, basis_1, basis_2, weights):
    """Closed-form update of both functional maps at fixed Pi.

    Returns ``(c_12, c_21)`` where each K x K map is the exact joint
    minimizer of the bijectivity energy in its own variable; K is the
    size of the bases passed in.
    """
    c_21 = _c_direction(state.pi_21, state.pi_12, basis_1, basis_2, weights)
    c_12 = _c_direction(state.pi_12, state.pi_21, basis_2, basis_1, weights)
    return c_12, c_21


def _pi_direction(c_own, c_other, y, basis_src, basis_tgt, mesh_tgt, weights, exact):
    # recover the map src -> tgt; per source vertex q the assignment
    # minimizes (up to the positive row weight A_src[q])
    #   alpha |Phi_tgt[p] - (Phi_src C_own)[q]|^2
    #   + gamma beta |X_tgt[p] - Y[q]|^2
    #   (+ spectral_bij |(Phi_tgt C_other)[p] - Phi_src[q]|^2 in exact mode)
    sa = np.sqrt(weights.alpha)
    query = [sa * (basis_src.phi @ c_own)]
    data = [sa * basis_tgt.phi]

    if weights.gamma * weights.beta != 0:
        s = np.sqrt(weights.gamma * weights.beta)
        query.append(s * y)
        data.append(s * mesh_tgt.vertices)

    if exact:
        sb = np.sqrt(weights.spectral_bij)
        query.append(sb * basis_src.phi)
        data.append(sb * (basis_tgt.phi @ c_other))

    idx = nearest_rows(np.hstack(query), np.hstack(data))
    return PointwiseMap(idx, mesh_tgt.n_vertices)


def pi_step(state, mesh_1, mesh_2, basis_1, basis_2, weights, exact=False):
    """Row-separable assignment update of both pointwise maps.

    The bases hold the K eigenpairs of the state's K x K functional maps.
    """
    pi_12 = _pi_direction(
        state.c_21, state.c_12, state.y_12, basis_1, basis_2, mesh_2, weights, exact
    )
    pi_21 = _pi_direction(
        state.c_12, state.c_21, state.y_21, basis_2, basis_1, mesh_1, weights, exact
    )
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

    weights = config.weights
    variant = config.variant
    ks = config.k_schedule()
    gammas = config.gamma_schedule()

    # map-independent Y-step operators are factored once per mesh
    operator = _variants.ENERGIES[variant.kind].operator
    solves = []
    for mesh in (mesh_1, mesh_2):
        op = operator(variant, mesh, weights.beta) if weights.beta > 0 else None
        solves.append(_variants.prefactored(op) if op is not None else None)

    state = SolverState(pi_12, pi_21)
    trace = EnergyTrace()

    for it in range(config.n_outer):
        k = int(ks[it])
        w_it = replace(weights, gamma=float(gammas[it]))
        b1 = basis_1.sliced(k)
        b2 = basis_2.sliced(k)

        state.c_12, state.c_21 = c_step(state, b1, b2, w_it)

        state.y_12, state.aux_12 = _variants.run_y_step(
            variant, w_it.beta, state.pi_12, state.pi_21, mesh_1, mesh_2, b1, solve=solves[0]
        )
        state.y_21, state.aux_21 = _variants.run_y_step(
            variant, w_it.beta, state.pi_21, state.pi_12, mesh_2, mesh_1, b2, solve=solves[1]
        )

        new_12, new_21 = pi_step(
            state, mesh_1, mesh_2, b1, b2, w_it, exact=config.exact_pi_step
        )
        unchanged = new_12 == state.pi_12 and new_21 == state.pi_21
        state.pi_12, state.pi_21 = new_12, new_21

        parts = energy_breakdown(state, mesh_1, mesh_2, b1, b2, w_it, variant)
        trace.append(iteration=it, k=k, gamma=float(gammas[it]), **parts)

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
    from .spectral import fmap_to_p2p

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
