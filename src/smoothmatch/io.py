"""Plain-text interchange formats.

* Pointwise map: one 0-based target index per line.
* Functional map: a ``k_src k_tgt`` header line, then the dense matrix
  row-major, whitespace separated.
* Index pairs (landmarks, sparse ground truth): ``src_idx tgt_idx`` per
  line; a ground-truth file may alternatively be a full pointwise map.
* Metrics: one-line CSV with a fixed header.
"""

import numpy as np

from .spectral import PointwiseMap


def write_pointwise_map(path, pi):
    with open(path, "w") as fh:
        for t in pi.target_of:
            fh.write("%d\n" % t)


def _read_ints(path, ndmin):
    # numpy's parse error names the row and column but not the file
    try:
        return np.loadtxt(path, dtype=np.int64, ndmin=ndmin)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def read_pointwise_map(path, n_tgt):
    idx = _read_ints(path, 1)
    if idx.ndim != 1:
        raise ValueError("%s: expected one index per line" % path)
    return PointwiseMap(idx, n_tgt)


def write_fmap(path, c):
    c = np.asarray(c, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write("%d %d\n" % c.shape)
        for row in c:
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


def read_fmap(path):
    with open(path, "r") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("%s: malformed functional map header" % path)
        k_src, k_tgt = int(header[0]), int(header[1])
        c = np.loadtxt(fh, ndmin=2)
    if c.shape != (k_src, k_tgt):
        raise ValueError(
            "%s: header promises %dx%d, found %s" % (path, k_src, k_tgt, c.shape)
        )
    return c


def write_index_pairs(path, pairs):
    pairs = np.asarray(pairs, dtype=np.int64)
    with open(path, "w") as fh:
        for s, t in pairs:
            fh.write("%d %d\n" % (s, t))


def read_index_pairs(path):
    pairs = _read_ints(path, 2)
    if pairs.shape[1] != 2:
        raise ValueError("%s: expected two indices per line" % path)
    return pairs


def read_ground_truth(path):
    """Ground truth as ``(src_idx, tgt_idx)`` arrays.

    Accepts either the sparse two-column pair format or a full
    pointwise-map file (one target index per line).
    """
    data = _read_ints(path, 2)
    if data.shape[1] == 2:
        return data[:, 0], data[:, 1]
    if data.shape[1] == 1:
        return np.arange(data.shape[0]), data[:, 0]
    raise ValueError("%s: expected one or two columns" % path)


METRICS_COLUMNS = ("accuracy", "bijectivity", "smoothness", "coverage")


def metrics_csv(report, with_conformal=False):
    """Header and value line for a metrics report."""
    cols = METRICS_COLUMNS + (("conformal",) if with_conformal else ())
    vals = []
    for c in cols:
        v = getattr(report, c)
        vals.append("n/a" if v is None else "%.6f" % v)
    return ",".join(cols) + "\n" + ",".join(vals) + "\n"
