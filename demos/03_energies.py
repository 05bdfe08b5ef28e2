# The energy zoo: what the solver actually minimizes.
#
# The combined objective is a spectral bijectivity energy plus a
# coupled smoothness block; this script evaluates every term on a
# hand-made state and on the identity fixture where the values are
# known in closed form.

import numpy as np

from smoothmatch import (
    PointwiseMap,
    SolverConfig,
    SolverState,
    compute_basis,
    dirichlet_energy,
    energy_breakdown,
)
from smoothmatch.synth import icosphere, jittered_copy

src = icosphere(2).normalized()
tgt = jittered_copy(icosphere(2), 0.02, seed=2).normalized()
b_src = compute_basis(src, 30)
b_tgt = compute_basis(tgt, 30)
n = src.n_vertices

# The Dirichlet energy of a map is the W-norm of the pulled-back
# coordinates: zero for a constant (collapsed) map, and the embedding
# energy for the identity.
ident = PointwiseMap(np.arange(n), n)
collapse = PointwiseMap(np.zeros(n, dtype=int), n)
print("Dirichlet energy of the identity map : %.4f"
      % dirichlet_energy(ident.pull(tgt.vertices), src.cot_matrix))
print("Dirichlet energy of a collapsed map  : %.2e"
      % dirichlet_energy(collapse.pull(tgt.vertices), src.cot_matrix))

# Identity everything on a single mesh: bijectivity and couplings
# vanish and the total reduces to gamma * 2 * E_D(identity).
state = SolverState(ident, ident)
state.c_12 = np.eye(20)
state.c_21 = np.eye(20)
state.y_12 = src.vertices.copy()
state.y_21 = src.vertices.copy()
parts = energy_breakdown(state, src, src, b_src.sliced(20), b_src.sliced(20),
                         SolverConfig(beta=1.0), 0.5)
print("\nidentity fixture breakdown")
for key in ("e_bij", "e_couple_spec", "e_dirichlet", "e_couple_spatial", "e_total"):
    print("  %-16s %.6e" % (key, parts[key]))
expected = 0.5 * 2 * dirichlet_energy(src.vertices, src.cot_matrix)
print("  closed form e_total = %.6e" % expected)

# A random state shows every term alive at once.
rng = np.random.default_rng(0)
state = SolverState(
    PointwiseMap(rng.integers(0, n, n), n), PointwiseMap(rng.integers(0, n, n), n)
)
state.c_12 = rng.normal(size=(20, 20))
state.c_21 = rng.normal(size=(20, 20))
state.y_12 = rng.normal(size=(n, 3)) * 0.1
state.y_21 = rng.normal(size=(n, 3)) * 0.1
parts = energy_breakdown(state, src, tgt, b_src.sliced(20), b_tgt.sliced(20),
                         SolverConfig(beta=200.0), 0.3)
print("\nrandom state breakdown")
for key, val in parts.items():
    print("  %-16s %.4f" % (key, val))
