"""Laplace-Beltrami eigenbases and pointwise/functional map conversions.

Direction bookkeeping.  A pointwise map ``pi`` from a source mesh to a
target mesh stores one target vertex index per source vertex.  Its
spectral counterpart is the pull-back matrix

    C = Phi_src.T @ A_src @ (Pi @ Phi_tgt)        (K_src x K_tgt)

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
# block's score matrix holds about this many entries: 2 MB of float32
# scores are live at once, whatever the query count, and a candidate
# mask is built only for each re-scored row.  Smaller blocks were slower
# on 2 500-5 000-vertex pairs.
_CHUNK_PAIRS = 500_000
# a block has at least this many query rows: thinner ones starve the
# GEMM and the per-block passes (a 40 962-vertex refine took twice as
# long at 12 rows).  The floor binds only above 7 812 data rows; at
# 40 962 it allows 64 rows of float32 scores, 10.5 MB.
_MIN_BLOCK_ROWS = 64


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
    if np.any(~(areas > 0)):
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


def p2p_to_fmap(pi, basis_src, basis_tgt):
    """Convert a pointwise map to its pull-back functional map.

    Returns ``Phi_src.T A_src (Pi Phi_tgt)`` of shape
    ``(basis_src.k, basis_tgt.k)``; pass ``basis.sliced(k)`` for a
    smaller map.
    """
    if pi.n_src != basis_src.n or pi.n_tgt != basis_tgt.n:
        raise ValueError("map does not match basis dimensions")
    pulled = basis_tgt.phi[pi.target_of]
    return basis_src.phi.T @ (basis_src.areas[:, None] * pulled)


def fmap_to_p2p(c, basis_src, basis_tgt):
    """Recover a source-to-target pointwise map from a functional map.

    For each source vertex ``p`` the target is the nearest row of
    ``Phi_tgt`` to ``(Phi_src @ C)[p]``; ties break to the smallest
    index.
    """
    c = np.asarray(c, dtype=np.float64)
    rows, cols = c.shape
    if rows > basis_src.k or cols > basis_tgt.k:
        raise ValueError("functional map larger than the stored bases")
    queries = basis_src.phi[:, :rows] @ c
    idx = nearest_rows(queries, basis_tgt.phi[:, :cols])
    return PointwiseMap(idx, basis_tgt.n)


def nearest_rows(queries, data):
    """Index of the Euclidean-nearest data row for every query row.

    Returns exactly ``cdist(queries, data).argmin(axis=1)``, so ties
    break to the smallest data index, from one float32 GEMM screen per
    block of query rows plus a ``cdist`` re-score of the rows the screen
    cannot decide.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[0] == 0:
        raise ValueError("empty data")
    if queries.shape[1] != data.shape[1]:
        raise ValueError("dimension mismatch: %d vs %d" % (queries.shape[1], data.shape[1]))

    # Screen with s_j = [q, 1] . [-2 x_j, |x_j|^2] = |q - x_j|^2 - |q|^2,
    # one float32 product.  Let u = 2^-24 be float32's unit roundoff and
    # S = |q|^2 + max |x|^2.  Rounding q and x to float32 moves each
    # product q_k (-2 x_k) by at most (2u + u^2) |q_k| |2 x_k|, and
    # rounding |x|^2 moves the last term by at most u |x|^2; as
    # 2 |q_k| |x_k| <= q_k^2 + x_k^2 these sum to about 3 u S.  The
    # (d+1)-term float32 GEMM is off by at most gamma_{d+1} sum |a_k b_k|
    # <= 2 (d+1) u S under any summation order, blocking, FMA or BLAS
    # thread count.  So each s_j is within about 2 (d+4) u S of its exact
    # value.  cdist sums (q_k - x_k)^2 in float64 and takes a square
    # root, an error of O(d eps64 S), far below u S.  A row whose cdist
    # value equals the cdist minimum thus has a score within about
    # 4 (d+4) u S of the screened minimum.  The margin, 16 (d+5) eps32 S
    # = 32 (d+5) u S, is more than four times that; its absolute term
    # covers operands, products and sums that underflow float32.  For
    # S <= 2^100 every float32 operand, product and sum is finite; above
    # it, or for a non-finite S, the margin is infinite and cdist decides.
    # The inputs are not rescaled into float32's range: where cdist itself
    # overflows or underflows into ties, only cdist reproduces its argmin.
    # A row is decided when its second-smallest score lies beyond the
    # margin, so that the screened minimum is its only candidate; a NaN
    # fails the test.  Every other row keeps the rows within the margin as
    # candidates (every row when that leaves none) and re-scores them,
    # ascending, with cdist, which gives a pair the same float whichever
    # rows and columns it is passed with, so its full argmin is
    # reproduced, ties included.
    n, d = data.shape
    f32 = np.finfo(np.float32)
    chunk_rows = max(_MIN_BLOCK_ROWS, _CHUNK_PAIRS // n)
    out = np.empty(queries.shape[0], dtype=np.int64)
    with np.errstate(invalid="ignore", over="ignore"):
        sq_data = np.einsum("ij,ij->i", data, data)
        sq_query = np.einsum("ij,ij->i", queries, queries)
        norms = sq_query + sq_data.max()
        margin = 16.0 * (d + 5) * (float(f32.eps) * norms + float(f32.tiny))
        margin[~(norms <= 2.0**100)] = np.inf
        screen_data = np.empty((d + 1, n), dtype=np.float32)
        screen_data[:d] = -2.0 * data.T
        screen_data[d] = sq_data
        screen_queries = np.ones((queries.shape[0], d + 1), dtype=np.float32)
        screen_queries[:, :d] = queries
        # one score buffer for every block, so its pages are faulted in once
        scores = np.empty((min(chunk_rows, queries.shape[0]), n), dtype=np.float32)
        for start in range(0, queries.shape[0], chunk_rows):
            rows = slice(start, start + chunk_rows)
            block = queries[rows]
            score = np.matmul(screen_queries[rows], screen_data, out=scores[:len(block)])
            out[rows] = _nearest_in_block(score, block, data, margin[rows])
    return out


def _nearest_in_block(score, block, data, margin):
    # the screen and re-score of nearest_rows for one block of queries,
    # given its float32 scores
    best = score.argmin(axis=1)
    r = np.arange(best.size)
    lowest = score[r, best]
    score[r, best] = np.inf
    second = score.min(axis=1)
    score[r, best] = lowest
    bound = lowest + margin
    for i in np.flatnonzero(~(second > bound)):
        cand = np.flatnonzero(score[i] <= bound[i])
        if cand.size == 0:
            cand = np.arange(data.shape[0])
        best[i] = cand[cdist(block[i : i + 1], data[cand]).argmin()]
    return best
