"""Plain-text interchange formats.

* Pointwise map: one 0-based target index per line.
* Functional map: a ``rows columns`` header line, then the dense matrix
  row-major, whitespace separated.
* Index pairs (landmarks, sparse ground truth): ``src_idx tgt_idx`` per
  line; a ground-truth file may alternatively be a full pointwise map.
* Metrics: one-line CSV under a header of the report's columns.

Every reader parses its rows with one ``np.loadtxt`` pass over the open
file (``_table``) and names a row that does not parse, or that holds an
index out of range, as ``path:line``; line numbers are counted only on
that error path.  Every writer is one ``np.savetxt`` call into a file it
opens itself, so every file is plain text whatever its name.
"""

import statistics
import warnings
from contextlib import contextmanager
from functools import partial

import numpy as np

from .spectral import PointwiseMap


@contextmanager
def _text(path):
    """``path`` opened as text; bytes that do not decode raise ``path: not a text file``."""
    try:
        with open(path, "r") as fh:
            yield fh
    except UnicodeDecodeError:
        raise ValueError("%s: not a text file" % path) from None


def _content_lines(path, start=0, stop=None):
    """``(line numbers, texts)`` of content lines ``start:stop``: the
    non-blank lines, ``#`` comments removed.  Only the OBJ reader and the
    error paths build these strings."""
    with _text(path) as fh:
        texts = [raw.split("#", 1)[0].strip() for raw in fh]
    lines = np.flatnonzero(np.fromiter(map(bool, texts), dtype=bool, count=len(texts))) + 1
    return lines[start:stop], list(filter(None, texts))[start:stop]


def _next_content_line(fh):
    """The next non-blank line of ``fh`` with its ``#`` comment removed; '' at the end."""
    for raw in fh:
        text = raw.split("#", 1)[0].strip()
        if text:
            return text
    return ""


def _table(path, source, dtype, width, what, rows_of, max_rows=None):
    """Parse ``source``, an open text file or a list of lines, into a 2-D
    array in one ``np.loadtxt`` call.

    ``width=N`` reads the first N columns and ignores further tokens;
    ``width=None`` reads every column, and their count must not change.
    ``max_rows`` stops after that many rows and leaves an open file just
    past them.  A row that does not parse raises ``path:line: malformed
    <what> line``; only then is ``rows_of()``, the ``(line numbers,
    texts)`` of these rows, built to find it.
    """
    parse = partial(np.loadtxt, dtype=dtype, ndmin=2, comments="#",
                    usecols=None if width is None else range(width))
    try:
        with warnings.catch_warnings():
            # an empty input, or blank lines among the first max_rows
            warnings.simplefilter("ignore", UserWarning)
            return parse(source, max_rows=max_rows)
    except UnicodeDecodeError:
        # a ValueError subclass; _text reports it as not a text file
        raise
    except ValueError:
        # the row-by-row pass that names the line; with width=None the
        # column count most rows share is the expected one
        lines, texts = rows_of()
        width = width or statistics.mode(len(t.split()) for t in texts)
        for lineno, text in zip(lines, texts):
            try:
                ok = parse([text]).shape[1] == width
            except ValueError:
                ok = False
            if not ok:
                raise ValueError("%s:%d: malformed %s line" % (path, lineno, what)) from None
        raise


def _read_table(path, dtype, what):
    """Every row of a headerless text file, and the ``rows_of`` of ``_table``."""
    rows_of = partial(_content_lines, path)
    with _text(path) as fh:
        return _table(path, fh, dtype, None, what, rows_of), rows_of


def _reject(path, bad, rows_of, message):
    """Raise ``path:line: message`` for the first row flagged in ``bad``."""
    first = np.flatnonzero(bad)
    if first.size:
        raise ValueError("%s:%d: %s" % (path, rows_of()[0][first[0]], message))


def _savetxt(path, values, **kwargs):
    # np.savetxt gzips a path ending in .gz, which no reader here reads back
    with open(path, "w") as fh:
        np.savetxt(fh, values, **kwargs)


def write_pointwise_map(path, pi):
    _savetxt(path, pi.target_of, fmt="%d")


def read_pointwise_map(path, n_tgt):
    idx, rows_of = _read_table(path, np.int64, "pointwise map")
    if idx.shape[1] != 1:
        raise ValueError("%s: expected one index per line" % path)
    idx = idx.ravel()
    _reject(path, (idx < 0) | (idx >= n_tgt), rows_of, "map entry out of range [0, %d)" % n_tgt)
    return PointwiseMap(idx, n_tgt)


def write_fmap(path, c):
    c = np.asarray(c, dtype=np.float64)
    _savetxt(path, c, fmt="%.17g", header="%d %d" % c.shape, comments="")


def write_index_pairs(path, pairs):
    _savetxt(path, np.asarray(pairs, dtype=np.int64), fmt="%d")


def read_index_pairs(path, sizes):
    """``(L, 2)`` index pairs; ``sizes=(n_src, n_tgt)``, and an index
    outside ``[0, n)`` in its column is rejected as ``path:line``."""
    pairs, rows_of = _read_table(path, np.int64, "index pair")
    if pairs.shape[1] != 2:
        raise ValueError("%s: expected two indices per line" % path)
    _reject(path, ((pairs < 0) | (pairs >= sizes)).any(axis=1), rows_of,
            "index pair out of range [0, %d) x [0, %d)" % tuple(sizes))
    return pairs


def read_ground_truth(path):
    """Ground truth as ``(src_idx, tgt_idx)`` arrays.

    Accepts either the sparse two-column pair format or a full
    pointwise-map file (one target index per line).
    """
    data, _ = _read_table(path, np.int64, "ground-truth")
    if data.shape[1] == 2:
        return data[:, 0], data[:, 1]
    if data.shape[1] == 1:
        return np.arange(data.shape[0]), data[:, 0]
    raise ValueError("%s: expected one or two columns" % path)


def metrics_csv(report):
    """Header and value line for a metrics report: ``report.COLUMNS``,
    then ``conformal`` when the report holds one."""
    cols = report.COLUMNS + (("conformal",) if report.conformal is not None else ())
    vals = []
    for c in cols:
        v = getattr(report, c)
        vals.append("n/a" if v is None else "%.6f" % v)
    return ",".join(cols) + "\n" + ",".join(vals) + "\n"
