"""Plain-text interchange formats.

* Pointwise map: one 0-based target index per line.
* Functional map: a ``rows columns`` header line, then the dense matrix
  row-major, whitespace separated.
* Index pairs (landmarks, sparse ground truth): ``src_idx tgt_idx`` per
  line; a ground-truth file may alternatively be a full pointwise map.
* Metrics: one-line CSV with a fixed header.

Every reader parses its rows with one ``np.loadtxt`` call (``_table``)
and names a row that does not parse as ``path:line``; every writer is
one ``np.savetxt`` call into a file it opens itself, so every file is
plain text whatever its name.
"""

import statistics
from functools import partial

import numpy as np

from .spectral import PointwiseMap


def _content_lines(path):
    """``(line numbers, texts)`` of the non-blank lines, ``#`` comments removed."""
    with open(path, "r") as fh:
        try:
            texts = [raw.split("#", 1)[0].strip() for raw in fh]
        except UnicodeDecodeError:
            raise ValueError("%s: not a text file" % path) from None
    lines = np.flatnonzero(np.fromiter(map(bool, texts), dtype=bool, count=len(texts))) + 1
    return lines, list(filter(None, texts))


def _table(path, rows, dtype, width, what):
    """Parse ``rows = (line numbers, texts)`` into a 2-D array in one ``np.loadtxt`` call.

    ``width=N`` reads the first N columns and ignores further tokens;
    ``width=None`` reads every column, and their count must not change.
    A row that does not parse raises ``path:line: malformed <what> line``.
    """
    lines, texts = rows
    if not texts:
        # the shape np.loadtxt gives an empty file, without its warning
        return np.empty((0, width or 1), dtype=dtype)
    parse = partial(np.loadtxt, dtype=dtype, ndmin=2, comments=None,
                    usecols=None if width is None else range(width))
    try:
        return parse(texts)
    except ValueError:
        # only a failed parse pays for the row-by-row pass that names the line;
        # with width=None the column count most rows share is the expected one
        width = width or statistics.mode(len(t.split()) for t in texts)
        for lineno, text in zip(lines, texts):
            try:
                ok = parse([text]).shape[1] == width
            except ValueError:
                ok = False
            if not ok:
                raise ValueError("%s:%d: malformed %s line" % (path, lineno, what)) from None
        raise


def _reject(path, bad, lines, message):
    """Raise ``path:line: message`` for the first row flagged in ``bad``."""
    first = np.flatnonzero(bad)
    if first.size:
        raise ValueError("%s:%d: %s" % (path, lines[first[0]], message))


def _savetxt(path, values, **kwargs):
    # np.savetxt gzips a path ending in .gz, which no reader here reads back
    with open(path, "w") as fh:
        np.savetxt(fh, values, **kwargs)


def write_pointwise_map(path, pi):
    _savetxt(path, pi.target_of, fmt="%d")


def read_pointwise_map(path, n_tgt):
    rows = _content_lines(path)
    idx = _table(path, rows, np.int64, None, "pointwise map")
    if idx.shape[1] != 1:
        raise ValueError("%s: expected one index per line" % path)
    idx = idx.ravel()
    _reject(path, (idx < 0) | (idx >= n_tgt), rows[0], "map entry out of range [0, %d)" % n_tgt)
    return PointwiseMap(idx, n_tgt)


def write_fmap(path, c):
    c = np.asarray(c, dtype=np.float64)
    _savetxt(path, c, fmt="%.17g", header="%d %d" % c.shape, comments="")


def read_fmap(path):
    lines, texts = _content_lines(path)
    header = _table(path, (lines[:1], texts[:1]), np.int64, None, "functional map header")
    if header.shape != (1, 2):
        raise ValueError("%s:%d: malformed functional map header"
                         % (path, lines[0] if texts else 1))
    rows, cols = header[0]
    c = _table(path, (lines[1:], texts[1:]), np.float64, None, "functional map")
    if c.shape != (rows, cols):
        raise ValueError(
            "%s: header promises %dx%d, found %s" % (path, rows, cols, c.shape)
        )
    return c


def write_index_pairs(path, pairs):
    _savetxt(path, np.asarray(pairs, dtype=np.int64), fmt="%d")


def read_index_pairs(path, sizes):
    """``(L, 2)`` index pairs; ``sizes=(n_src, n_tgt)``, and an index
    outside ``[0, n)`` in its column is rejected as ``path:line``."""
    rows = _content_lines(path)
    pairs = _table(path, rows, np.int64, None, "index pair")
    if pairs.shape[1] != 2:
        raise ValueError("%s: expected two indices per line" % path)
    _reject(path, ((pairs < 0) | (pairs >= sizes)).any(axis=1), rows[0],
            "index pair out of range [0, %d) x [0, %d)" % tuple(sizes))
    return pairs


def read_ground_truth(path):
    """Ground truth as ``(src_idx, tgt_idx)`` arrays.

    Accepts either the sparse two-column pair format or a full
    pointwise-map file (one target index per line).
    """
    data = _table(path, _content_lines(path), np.int64, None, "ground-truth")
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
