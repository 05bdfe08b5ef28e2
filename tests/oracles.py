"""Independent brute-force reference implementations.

Everything here is deliberately written with plain Python loops and
dense matrices, along code paths disjoint from the library, so the
vectorized/sparse implementations can be checked against it.  The
``_reference`` functions are the exception: frozen copies of earlier
library code, which a refactor must reproduce bit for bit.
"""

import heapq
import math

import numpy as np


def cot_weights_slow(mesh):
    """Edge -> cotangent weight dict via per-face angle computation."""
    w = {}
    v = mesh.vertices
    for tri in mesh.faces:
        for c in range(3):
            i, j, k = tri[c], tri[(c + 1) % 3], tri[(c + 2) % 3]
            u1 = v[j] - v[i]
            u2 = v[k] - v[i]
            denom = np.linalg.norm(u1) * np.linalg.norm(u2)
            cosang = float(np.dot(u1, u2)) / denom
            ang = math.acos(min(1.0, max(-1.0, cosang)))
            cot = 1.0 / math.tan(ang) if ang > 0 else 1e5
            cot = min(1e5, max(-1e5, cot))
            key = (min(j, k), max(j, k))
            w[key] = w.get(key, 0.0) + 0.5 * cot
    return w


def dirichlet_slow(coords, mesh):
    """Edge-sum Dirichlet energy using the slow cotangent weights."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[0] != mesh.n_vertices:
        coords = coords.T
    total = 0.0
    for (i, j), w in cot_weights_slow(mesh).items():
        d = coords[i] - coords[j]
        total += w * float(np.dot(d, d))
    return total


def dense_pi(pi):
    p = np.zeros((pi.n_src, pi.n_tgt))
    p[np.arange(pi.n_src), pi.target_of] = 1.0
    return p


def a_norm_sq_slow(m, areas):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    total = 0.0
    for i in range(m.shape[0]):
        total += areas[i] * float(np.dot(m[i], m[i]))
    return total


def coupling_slow(c, pi, basis_src, basis_tgt):
    k_src, k_tgt = c.shape
    phi_s = basis_src.phi[:, :k_src]
    phi_t = basis_tgt.phi[:, :k_tgt]
    conv = phi_s.T @ np.diag(basis_src.areas) @ dense_pi(pi) @ phi_t
    return float(np.sum((c - conv) ** 2))


def bijectivity_slow(state, basis_1, basis_2, weights):
    total = 0.0
    for pi_back, c_back, c_fwd, b_i, b_j in (
        (state.pi_21, state.c_21, state.c_12, basis_1, basis_2),
        (state.pi_12, state.c_12, state.c_21, basis_2, basis_1),
    ):
        k_i, k_j = c_back.shape
        phi_i = b_i.phi[:, :k_i]
        phi_j = b_j.phi[:, :k_j]
        p = dense_pi(pi_back)
        total += a_norm_sq_slow(p @ phi_i @ c_back - phi_j, b_j.areas)
        total += weights.alpha * a_norm_sq_slow(phi_j @ c_fwd - p @ phi_i, b_j.areas)
    return total


def coupled_smoothness_slow(state, mesh_1, mesh_2, weights):
    total = 0.0
    for y, pi, m_src, m_tgt in (
        (state.y_12, state.pi_12, mesh_1, mesh_2),
        (state.y_21, state.pi_21, mesh_2, mesh_1),
    ):
        total += dirichlet_slow(y, m_src)
        diff = y - dense_pi(pi) @ m_tgt.vertices
        total += weights.beta * a_norm_sq_slow(diff, m_src.vertex_areas)
    return total


def total_energy_slow(state, mesh_1, mesh_2, basis_1, basis_2, weights, gamma):
    return bijectivity_slow(state, basis_1, basis_2, weights) + gamma * (
        coupled_smoothness_slow(state, mesh_1, mesh_2, weights)
    )


def nearest_rows_slow(queries, data):
    out = np.empty(len(queries), dtype=np.int64)
    for qi, q in enumerate(queries):
        best, best_d = 0, np.inf
        for di, row in enumerate(data):
            d = float(np.dot(q - row, q - row))
            if d < best_d:
                best, best_d = di, d
        out[qi] = best
    return out


def dijkstra_slow(mesh, source):
    """Heap-based Dijkstra over the mesh edge graph."""
    n = mesh.n_vertices
    adj = [[] for _ in range(n)]
    for i, j in mesh.edges:
        length = float(np.linalg.norm(mesh.vertices[i] - mesh.vertices[j]))
        adj[i].append((j, length))
        adj[j].append((i, length))
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, length in adj[u]:
            nd = d + length
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def lookup_calls_reference(mesh, from_idx, to_idx, block_entries=500_000,
                           limit_edges=(4.0, 8.0)):
    """The ``(sources, limit, within)`` of every Dijkstra call of a
    distance lookup, in call order, as the lookup made them while each
    pass labelled its blocks in a loop: the same grid, 27-cell gather,
    box test, runs of at most ``block_entries`` distances and pair
    bucketing.  That lookup searched the unbounded pass on the whole
    mesh, given here as ``within`` of every vertex.  A pair goes on to
    the next pass when its unbounded distance is beyond the limit."""
    from smoothmatch.mesh import geodesic_distances

    def split(members, within, width):
        rows = max(1, block_entries // width)
        return [(members[i:i + rows], within) for i in range(0, members.size, rows)]

    def local_blocks(sources, limit):
        verts = mesh.vertices
        low = verts.min(axis=0)
        side = max(4.0 * limit, float((verts.max(axis=0) - low).max()) / 2**20)
        cell = np.floor((verts - low) / side).astype(np.int64) + 1
        dims = cell.max(axis=0) + 2
        key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
        by_cell = np.argsort(key, kind="stable")
        sorted_key = key[by_cell]
        offsets = np.add.outer(np.arange(-1, 2) * dims[1], np.arange(-1, 2)).ravel() * dims[2]
        src_key = key[sources]
        grouped = np.argsort(src_key, kind="stable")
        cells, first = np.unique(src_key[grouped], return_index=True)
        runs = cells[:, None] + offsets
        starts = np.searchsorted(sorted_key, runs - 1, side="left")
        ends = np.searchsorted(sorted_key, runs + 1, side="right")
        r = limit * (1.0 + (mesh.n_vertices + 8) * np.finfo(float).eps)
        axes = np.ascontiguousarray(verts.T)
        blocks = []
        for members, lo, hi in zip(np.split(grouped, first[1:]), starts, ends):
            members = np.sort(members)
            cand = np.concatenate([by_cell[a:b] for a, b in zip(lo, hi)])
            near = np.ones(cand.size, dtype=bool)
            for coord in axes:
                box, x = coord[sources[members]], coord[cand]
                near &= (box.min() - x <= r) & (x - box.max() <= r)
            within = np.sort(cand[near])
            blocks += split(members, within, within.size)
        return blocks

    from_idx = np.asarray(from_idx, dtype=np.int64)
    to_idx = np.asarray(to_idx, dtype=np.int64)
    n = mesh.n_vertices
    uniq, inverse = np.unique(from_idx, return_inverse=True)
    dist = geodesic_distances(mesh, uniq)[inverse, to_idx]
    todo = np.flatnonzero(from_idx != to_idx)
    edge = mesh.edge_lengths.mean()
    with np.errstate(over="ignore"):
        bounded = edge > 0 and np.isfinite(np.ptp(mesh.vertices, axis=0)).all()
    calls = []
    for limit in [e * edge for e in limit_edges if bounded] + [np.inf]:
        if not todo.size:
            break
        uniq, inverse = np.unique(from_idx[todo], return_inverse=True)
        blocks = (local_blocks(uniq, limit) if limit < np.inf
                  else split(np.arange(uniq.size), np.arange(n), n))
        label = np.empty(uniq.size, dtype=np.int64)
        for b, (members, _) in enumerate(blocks):
            label[members] = b
        pair_label = label[inverse]
        order = np.argsort(pair_label, kind="stable")
        bounds = np.searchsorted(pair_label[order], np.arange(len(blocks) + 1))
        for b, (members, within) in enumerate(blocks):
            # every source has a pair, so every block made one call
            assert bounds[b] < bounds[b + 1]
            calls.append((uniq[members], limit, within))
        todo = todo[dist[todo] > limit]
    return calls


def c_step_slow(state, basis_1, basis_2, weights, k):
    """Dense stacked least-squares solution of the C-step."""

    def one(pi_back, pi_fwd, b_i, b_j):
        phi_i = b_i.phi[:, :k]
        phi_j = b_j.phi[:, :k]
        p_back = dense_pi(pi_back)
        p_fwd = dense_pi(pi_fwd)
        sqa_j = np.sqrt(b_j.areas)[:, None]
        sqa_i = np.sqrt(b_i.areas)[:, None]
        sa = math.sqrt(weights.alpha)
        lhs = np.vstack([sqa_j * (p_back @ phi_i), sa * sqa_i * phi_i])
        rhs = np.vstack([sqa_j * phi_j, sa * sqa_i * (p_fwd @ phi_j)])
        return np.linalg.lstsq(lhs, rhs, rcond=None)[0]

    c_21 = one(state.pi_21, state.pi_12, basis_1, basis_2)
    c_12 = one(state.pi_12, state.pi_21, basis_2, basis_1)
    return c_12, c_21


def c_step_reference(pi_back, pi_fwd, basis_i, basis_j, alpha):
    """``C_ji`` as the C-step computed it before its normal equations
    moved to ``energies``: same operations in the same order."""
    from smoothmatch.spectral import p2p_to_fmap

    phi_i = basis_i.phi
    phi_j = basis_j.phi
    k = basis_i.k
    a_j = basis_j.areas
    pulled = phi_i[pi_back.target_of]
    lhs = pulled.T @ (a_j[:, None] * pulled)
    rhs = pulled.T @ (a_j[:, None] * phi_j)
    if alpha > 0:
        lhs = lhs + alpha * np.eye(k)
        rhs = rhs + alpha * p2p_to_fmap(pi_fwd, basis_i, basis_j)
    else:
        lhs = lhs + 1e-9 * np.eye(k)
    return np.linalg.solve(lhs, rhs)


def energy_breakdown_reference(state, mesh_1, mesh_2, basis_1, basis_2, config, gamma):
    """``energy_breakdown`` as it was while ``map_terms`` took None for
    the bases or the target vertices and ``variant_smoothness`` summed the
    smoothness block: same operations in the same order.  The
    regularizer is read from ``config.variant.energy``."""

    def a_norm_sq(values, areas):
        return float(np.einsum("i,ij,ij->", areas, values, values))

    def dirichlet(coords, w):
        return float(np.einsum("ij,ij->", coords, w @ coords))

    sums = {}
    for pi, c_own, c_other, y, b_src, b_tgt, m_tgt in (
            (state.pi_12, state.c_21, state.c_12, state.y_12, basis_1, basis_2, mesh_2),
            (state.pi_21, state.c_12, state.c_21, state.y_21, basis_2, basis_1, mesh_1)):
        phi_src = b_src.phi[:, :c_own.shape[0]]
        phi_tgt = pi.pull(b_tgt.phi)[:, :c_own.shape[1]]
        x_tgt = pi.pull(m_tgt.vertices)
        for column, diff in (("e_couple_spec", phi_src @ c_own - phi_tgt),
                             ("e_couple_spatial", y - x_tgt),
                             ("e_bij", phi_tgt @ c_other - phi_src)):
            sums[column] = sums.get(column, 0.0) + a_norm_sq(diff, b_src.areas)
    e_d = dirichlet(state.y_12, mesh_1.cot_matrix) + dirichlet(state.y_21, mesh_2.cot_matrix)
    variant = config.variant
    e_sm = (variant.energy.regularizer(state, mesh_1, mesh_2, variant, e_d)
            + config.beta * sums["e_couple_spatial"])
    total = sums["e_bij"] + config.alpha * sums["e_couple_spec"] + gamma * e_sm
    return {"e_bij": sums["e_bij"], "e_couple_spec": sums["e_couple_spec"], "e_dirichlet": e_d,
            "e_couple_spatial": sums["e_couple_spatial"], "e_total": total}


def pi_step_exact_slow(c_own, c_other, y, basis_src, basis_tgt, mesh_tgt, weights, gamma):
    """Per-row exhaustive minimization of the full assignment objective."""
    k_src, k_tgt = c_own.shape
    phi_src = basis_src.phi[:, :k_src]
    phi_tgt = basis_tgt.phi[:, :k_tgt]
    spec_q = phi_src @ c_own
    bij_d = phi_tgt @ c_other
    x_tgt = mesh_tgt.vertices
    out = np.empty(phi_src.shape[0], dtype=np.int64)
    for q in range(phi_src.shape[0]):
        best, best_val = 0, np.inf
        for p in range(phi_tgt.shape[0]):
            val = float(np.sum((bij_d[p] - phi_src[q]) ** 2)) + weights.alpha * float(
                np.sum((phi_tgt[p] - spec_q[q]) ** 2))
            val += gamma * weights.beta * float(np.sum((x_tgt[p] - y[q]) ** 2))
            if val < best_val:
                best, best_val = p, val
        out[q] = best
    return out


def _triangle_frame_slow(p0, p1, p2):
    # columns [p1-p0, p2-p0] in an orthonormal frame of the triangle's
    # plane, or None when the edges span no plane
    e1 = p1 - p0
    e2 = p2 - p0
    n1 = np.linalg.norm(e1)
    if n1 == 0:
        return None
    u = e1 / n1
    e2p = e2 - np.dot(e2, u) * u
    n2 = np.linalg.norm(e2p)
    if n2 == 0:
        return None
    v = e2p / n2
    return np.array([[n1, np.dot(e2, u)], [0.0, np.dot(e2, v)]])


def conformal_slow(pi, mesh_src, mesh_tgt):
    """Per-face loop: (area-weighted mean s1/s2, collapsed-face count)."""
    verts_img = pi.pull(mesh_tgt.vertices)
    areas = mesh_src.face_areas
    total = 0.0
    weight = 0.0
    collapsed = 0
    for f, (i, j, k) in enumerate(mesh_src.faces):
        p = _triangle_frame_slow(*mesh_src.vertices[[i, j, k]])
        q = _triangle_frame_slow(*verts_img[[i, j, k]])
        if p is None or q is None:
            collapsed += 1
            continue
        s = np.linalg.svd(q @ np.linalg.inv(p), compute_uv=False)
        if s[1] <= 1e-12 * max(s[0], 1e-300):
            collapsed += 1
            continue
        total += areas[f] * (s[0] / s[1])
        weight += areas[f]
    return (total / weight if weight > 0 else float("inf")), collapsed
