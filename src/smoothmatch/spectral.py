"""Laplace-Beltrami eigenbases and pointwise/functional map conversions.

Direction bookkeeping.  A pointwise map ``pi`` from a source mesh to a
target mesh stores one target vertex index per source vertex.  Its
spectral counterpart is the pull-back matrix

    C = Phi_src.T @ A_src @ (Pi @ Phi_tgt)        (k_src x k_tgt)

which transports coefficients of functions on the *target* into
coefficients on the *source* (the adjoint convention: with A-orthonormal
bases, ``Phi.T @ A`` is the pseudo-inverse of ``Phi``).  Recovering a
pointwise map from ``C`` matches rows of ``Phi_src @ C`` against rows of
``Phi_tgt``; both conversions below use this one convention.
"""

import numpy as np
from scipy import linalg as dense_linalg
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.spatial.distance import cdist

# below this vertex count the dense generalized eigensolver is both
# faster and free of ARPACK's k < n-1 restriction
_DENSE_EIGEN_LIMIT = 400

# nearest-neighbour queries run in blocks of query rows sized so that a
# block's distance matrix holds about this many entries (32 MB of
# float64), which bounds transient memory whatever the query count
_CHUNK_PAIRS = 4_000_000


class SpectralBasis:
    """First ``k`` Laplace-Beltrami eigenpairs of a mesh.

    Attributes
    ----------
    phi : (n, k) ndarray
        Eigenfunctions, A-orthonormal columns in nondecreasing
        eigenvalue order, deterministic sign.
    lam : (k,) ndarray
        Eigenvalues.
    areas : (n,) ndarray
        Diagonal of the lumped mass matrix used for orthonormality.
    """

    def __init__(self, phi, lam, areas):
        self.phi = np.asarray(phi, dtype=np.float64)
        self.lam = np.asarray(lam, dtype=np.float64)
        self.areas = np.asarray(areas, dtype=np.float64)
        if self.phi.shape != (self.areas.shape[0], self.lam.shape[0]):
            raise ValueError("inconsistent basis shapes")

    @property
    def n(self):
        return self.phi.shape[0]

    @property
    def k(self):
        return self.phi.shape[1]

    def sliced(self, k):
        """View of the first ``k`` eigenpairs."""
        if k > self.k:
            raise ValueError("requested %d eigenpairs, basis holds %d" % (k, self.k))
        return SpectralBasis(self.phi[:, :k], self.lam[:k], self.areas)


class PointwiseMap:
    """Vertex-to-vertex assignment, stored as a target index array.

    ``target_of[p]`` is the target vertex assigned to source vertex
    ``p``; as a matrix this is the row-one-hot binary matrix Pi.
    """

    def __init__(self, target_of, n_tgt):
        self.target_of = np.ascontiguousarray(target_of, dtype=np.int64)
        self.n_tgt = int(n_tgt)
        if self.target_of.ndim != 1:
            raise ValueError("target_of must be one-dimensional")
        if self.target_of.size and (
            self.target_of.min() < 0 or self.target_of.max() >= self.n_tgt
        ):
            raise ValueError("map entry out of range [0, %d)" % self.n_tgt)

    @property
    def n_src(self):
        return self.target_of.shape[0]

    def pull(self, values):
        """Pull back per-target-vertex values: rows ``values[target_of]``."""
        return np.asarray(values)[self.target_of]

    def compose(self, other):
        """Map ``p -> other(self(p))``; ``other`` maps targets onward."""
        if other.n_src != self.n_tgt:
            raise ValueError("maps are not composable")
        return PointwiseMap(other.target_of[self.target_of], other.n_tgt)

    def __eq__(self, other):
        return (
            isinstance(other, PointwiseMap)
            and self.n_tgt == other.n_tgt
            and np.array_equal(self.target_of, other.target_of)
        )

    def __len__(self):
        return self.n_src


def _fix_signs(phi):
    # first entry with |phi| > 1e-6 made positive; reproducible maps
    for j in range(phi.shape[1]):
        col = phi[:, j]
        big = np.flatnonzero(np.abs(col) > 1e-6)
        pivot = big[0] if big.size else int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            phi[:, j] = -col
    return phi


def eigenbasis(w, areas, k):
    """Solve ``W phi = lam A phi`` for the first ``k`` eigenpairs.

    Parameters
    ----------
    w : sparse matrix, (n, n)
        PSD cotangent matrix.
    areas : (n,) array
        Lumped vertex areas.
    k : int
        Number of eigenpairs, ``k < n``.

    Returns
    -------
    SpectralBasis
    """
    areas = np.asarray(areas, dtype=np.float64)
    n = w.shape[0]
    if k >= n:
        raise ValueError("k=%d must be smaller than n=%d" % (k, n))
    if k < 1:
        raise ValueError("k must be positive")
    if np.any(areas <= 0):
        raise ValueError("mass matrix must be positive (isolated vertices?)")

    if n <= _DENSE_EIGEN_LIMIT or k > n - 2:
        lam, phi = dense_linalg.eigh(
            np.asarray(w.todense()), np.diag(areas), subset_by_index=[0, k - 1]
        )
    else:
        # shift-invert Lanczos; the tiny negative shift keeps the
        # factored operator W - sigma*A strictly positive definite.
        # ARPACK's default start vector is random; a fixed one makes
        # the basis (and every downstream map) reproducible.
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, size=n)
        try:
            lam, phi = eigsh(
                w.tocsc(), k=k, M=sparse.diags(areas).tocsc(), sigma=-1e-8,
                which="LM", v0=v0,
            )
        except ArpackNoConvergence as exc:
            raise RuntimeError("eigensolver failed to converge: %s" % exc) from exc
    order = np.argsort(lam)
    return SpectralBasis(_fix_signs(phi[:, order]), lam[order], areas)


def compute_basis(mesh, k):
    """Eigenbasis of a mesh (convenience wrapper)."""
    return eigenbasis(mesh.cot_matrix, mesh.vertex_areas, k)


def p2p_to_fmap(pi, basis_src, basis_tgt, k_src=None, k_tgt=None):
    """Convert a pointwise map to its pull-back functional map.

    Returns ``Phi_src.T A_src (Pi Phi_tgt)`` of shape
    ``(k_src, k_tgt)``, using the first ``k`` columns of each basis.
    """
    k_src = basis_src.k if k_src is None else k_src
    k_tgt = basis_tgt.k if k_tgt is None else k_tgt
    if k_src > basis_src.k or k_tgt > basis_tgt.k:
        raise ValueError("requested spectral size exceeds stored basis")
    if pi.n_src != basis_src.n or pi.n_tgt != basis_tgt.n:
        raise ValueError("map does not match basis dimensions")
    pulled = basis_tgt.phi[pi.target_of, :k_tgt]
    return basis_src.phi[:, :k_src].T @ (basis_src.areas[:, None] * pulled)


def fmap_to_p2p(c, basis_src, basis_tgt):
    """Recover a source-to-target pointwise map from a functional map.

    For each source vertex ``p`` the target is the nearest row of
    ``Phi_tgt`` to ``(Phi_src @ C)[p]``; ties break to the smallest
    index.
    """
    c = np.asarray(c, dtype=np.float64)
    k_src, k_tgt = c.shape
    if k_src > basis_src.k or k_tgt > basis_tgt.k:
        raise ValueError("functional map larger than the stored bases")
    queries = basis_src.phi[:, :k_src] @ c
    idx = nearest_rows(queries, basis_tgt.phi[:, :k_tgt])
    return PointwiseMap(idx, basis_tgt.n)


def nearest_rows(queries, data):
    """Index of the Euclidean-nearest data row for every query row.

    Exact brute force: ``cdist(block, data).argmin(axis=1)`` over blocks
    of query rows, so ties break to the smallest data index.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[0] == 0:
        raise ValueError("empty data")
    if queries.shape[1] != data.shape[1]:
        raise ValueError("dimension mismatch: %d vs %d" % (queries.shape[1], data.shape[1]))

    chunk_rows = max(1, _CHUNK_PAIRS // data.shape[0])
    out = np.empty(queries.shape[0], dtype=np.int64)
    for start in range(0, queries.shape[0], chunk_rows):
        block = queries[start : start + chunk_rows]
        out[start : start + chunk_rows] = cdist(block, data).argmin(axis=1)
    return out
