# Spectral bases and the two map representations.
#
# A vertex-to-vertex map and a small spectral matrix describe the same
# correspondence from two sides; this script converts back and forth
# and shows where information is lost.

import numpy as np

from smoothmatch import PointwiseMap, compute_basis, fmap_to_p2p, p2p_to_fmap
from smoothmatch.synth import icosphere, jittered_copy

sphere = icosphere(2).normalized()
basis = compute_basis(sphere, 60)

# The spectrum of the unit-area sphere groups by spherical harmonic
# degree: eigenvalue 4*pi*l*(l+1) with multiplicity 2l+1.
print("eigenvalue  analytic   (degree)")
for ell, idx in ((0, 0), (1, 1), (2, 4), (3, 9)):
    print("  %8.3f  %8.3f   l=%d" % (basis.lam[idx], 4 * np.pi * ell * (ell + 1), ell))

# Converting the identity map yields the identity matrix at any size,
# and converting back recovers the map exactly.
n = sphere.n_vertices
ident = PointwiseMap(np.arange(n), n)
c = p2p_to_fmap(ident, basis.sliced(20), basis.sliced(20))
print("\nidentity map -> |C - I|_max = %.2e" % np.abs(c - np.eye(20)).max())

# A noisy copy of the sphere: convert a ground-truth map down to a few
# coefficients and recover it by nearest-neighbor search in the
# truncated spectral embedding.  Low truncation blurs the map.
noisy = jittered_copy(icosphere(2), 0.02, seed=4).normalized()
basis_noisy = compute_basis(noisy, 60)
gt = PointwiseMap(np.arange(n), n)
for k in (5, 20, 60):
    c = p2p_to_fmap(gt, basis.sliced(k), basis_noisy.sliced(k))
    back = fmap_to_p2p(c, basis, basis_noisy)
    agree = np.mean(back.target_of == gt.target_of)
    print("k = %2d: map recovered on %5.1f%% of vertices" % (k, 100 * agree))
