import gzip
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_map

from smoothmatch import io as sm_io
from smoothmatch.cli import _exit_code, main
from smoothmatch.mesh import (
    TriMesh, geodesic_distances, load_mesh, read_obj, read_off, write_off,
)
from smoothmatch.metrics import compute_report
from smoothmatch.spectral import PointwiseMap
from smoothmatch.synth import farthest_point_indices, icosphere


# ----------------------------------------------------------------------
# text formats
# ----------------------------------------------------------------------
@st.composite
def _pointwise_maps(draw):
    n_tgt = draw(st.integers(1, 2**62))
    return PointwiseMap(draw(st.lists(st.integers(0, n_tgt - 1), min_size=1)), n_tgt)


@settings(max_examples=50, deadline=None)
@given(pi=_pointwise_maps())
def test_pointwise_map_roundtrip(tmp_path_factory, pi):
    path = tmp_path_factory.mktemp("map") / "map.txt"
    sm_io.write_pointwise_map(path, pi)
    assert sm_io.read_pointwise_map(path, pi.n_tgt) == pi


@settings(max_examples=50, deadline=None)
@given(c=arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_fmap_roundtrip(tmp_path_factory, c):
    path = tmp_path_factory.mktemp("fmap") / "fmap.txt"
    sm_io.write_fmap(path, c)
    assert path.read_text().split("\n")[0] == "%d %d" % c.shape
    assert sm_io.read_fmap(path).tobytes() == c.tobytes()


@settings(max_examples=50, deadline=None)
@given(pairs=arrays(np.int64, st.tuples(st.integers(1, 20), st.just(2)),
                    elements=st.integers(0, 2**63 - 1)))
def test_index_pairs_roundtrip(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("pairs") / "pairs.txt"
    sm_io.write_index_pairs(path, pairs)
    back = sm_io.read_index_pairs(path)
    assert back.shape == pairs.shape and back.tobytes() == pairs.tobytes()


# golden bytes: the exact text every writer produces for fixed inputs
def test_pointwise_map_golden_bytes(tmp_path):
    path = tmp_path / "map.txt"
    sm_io.write_pointwise_map(path, PointwiseMap([3, 0, 2**62, 1], 2**62 + 1))
    assert path.read_bytes() == b"3\n0\n4611686018427387904\n1\n"


@pytest.mark.parametrize("pairs, expected", [
    ([[0, 5], [12, 2**63 - 1], [7, 7]], b"0 5\n12 9223372036854775807\n7 7\n"),
    (np.empty((0, 2), dtype=np.int64), b""),
], ids=["pairs", "empty"])
def test_index_pairs_golden_bytes(tmp_path, pairs, expected):
    path = tmp_path / "pairs.txt"
    sm_io.write_index_pairs(path, pairs)
    assert path.read_bytes() == expected


def test_fmap_golden_bytes(tmp_path):
    path = tmp_path / "fmap.txt"
    sm_io.write_fmap(path, [[1.0, -0.0, 5e-324], [1e300, -2.5, 0.1]])
    assert path.read_bytes() == (
        b"2 3\n"
        b"1 -0 4.9406564584124654e-324\n"
        b"1.0000000000000001e+300 -2.5 0.10000000000000001\n"
    )


def test_off_golden_bytes(tmp_path):
    path = tmp_path / "mesh.off"
    mesh = TriMesh([[0.0, -0.0, 0.1], [1.0, 0.0, 0.0], [0.0, 1e-300, 2.5], [1.0, 1.0, 1.0]],
                   [[0, 1, 2], [1, 3, 2]])
    write_off(mesh, path)
    assert path.read_bytes() == (
        b"OFF\n4 2 0\n"
        b"0 -0 0.10000000000000001\n1 0 0\n0 1e-300 2.5\n1 1 1\n"
        b"3 0 1 2\n3 1 3 2\n"
    )


_TRACE_HEADER = "iteration,k,gamma,e_bij,e_couple_spec,e_dirichlet,e_couple_spatial,e_total\n"


@pytest.mark.parametrize("rows, body", [
    ([(0, 20, 0.1, -0.0, 1e300, 1e-300, 1 / 3, 2.5),
      (1, 30, 0.31622776601683794, 0.0, 5e-324, -1e-300, 2 / 3, -7.25)],
     "0,20,0.1,-0,1e+300,1e-300,0.333333333333,2.5\n"
     "1,30,0.316227766017,0,4.94065645841e-324,-1e-300,0.666666666667,-7.25\n"),
    ([], ""),
], ids=["rows", "empty"])
@pytest.mark.parametrize("as_str", [False, True], ids=["path", "str"])
def test_trace_csv_golden_bytes(tmp_path, rows, body, as_str):
    from smoothmatch.solver import EnergyTrace

    trace = EnergyTrace()
    for r in rows:
        trace.append(**dict(zip(EnergyTrace.COLUMNS, r)))
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path) if as_str else path)
    assert path.read_bytes().decode() == _TRACE_HEADER + body


@pytest.mark.parametrize("reader, text, what", [
    (lambda p: sm_io.read_pointwise_map(p, 10), "1\n1.5\n", "pointwise map"),
    (sm_io.read_index_pairs, "0 1\n2 1.5\n", "index pair"),
    (sm_io.read_ground_truth, "0 1\n2 1.5\n", "ground-truth"),
], ids=["pointwise_map", "index_pairs", "ground_truth"])
def test_integer_file_parse_error_names_file(tmp_path, reader, text, what):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"bad\.txt:2: malformed %s line" % what):
        reader(path)


def test_fmap_parse_error_names_line(tmp_path):
    path = tmp_path / "fmap.txt"
    path.write_text("2 2\n1 x\n0 1\n")
    with pytest.raises(ValueError, match=r"fmap\.txt:2: malformed functional map line"):
        sm_io.read_fmap(path)


# tokens that neither the float nor the integer parser accepts
_NOT_NUMBERS = ["x", "1_000", "1,5", "--1", "0x1f"]
_FLOAT_TEXT = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v)


@st.composite
def _valid_file(draw):
    """A valid file in one text format: (name, content lines, index of the
    first data line, leading keyword tokens per data line, reader)."""
    kind = draw(st.sampled_from(["off", "obj", "map", "pairs", "ground_truth", "fmap"]))
    # at least three data rows, so a row with a dropped token is the odd one out
    n = draw(st.integers(3, 8))
    index = st.integers(0, n - 1)

    def row(elements, size):
        return " ".join(map(str, draw(st.lists(elements, min_size=size, max_size=size))))

    if kind in ("off", "obj"):
        verts = [row(_FLOAT_TEXT, 3) for _ in range(n)]
        faces = draw(st.lists(st.lists(index, min_size=3, max_size=3, unique=True),
                              min_size=1, max_size=4))
        if kind == "off":
            lines = ["OFF", "%d %d 0" % (n, len(faces))] + verts
            return "mesh.off", lines + ["3 %d %d %d" % tuple(f) for f in faces], 2, 0, read_off
        lines = ["v " + v for v in verts]
        return "mesh.obj", lines + ["f %d/1 %d %d//2" % tuple(i + 1 for i in f)
                                    for f in faces], 0, 1, read_obj
    if kind == "map":
        return "map.txt", [row(index, 1) for _ in range(n)], 0, 0, (
            lambda p: sm_io.read_pointwise_map(p, n))
    if kind in ("pairs", "ground_truth"):
        reader = sm_io.read_index_pairs if kind == "pairs" else sm_io.read_ground_truth
        return kind + ".txt", [row(index, 2) for _ in range(n)], 0, 0, reader
    cols = draw(st.integers(2, 4))
    lines = ["%d %d" % (n, cols)] + [row(_FLOAT_TEXT, cols) for _ in range(n)]
    return "fmap.txt", lines, 0, 0, sm_io.read_fmap


@settings(max_examples=200, deadline=None)
@given(spec=_valid_file(), data=st.data())
def test_malformed_line_is_named(tmp_path_factory, spec, data):
    # corrupt one data line of a valid file: the reader must name that line
    name, lines, first, skip, reader = spec
    text, lineno = [], {}
    for i, line in enumerate(lines):
        # blank and comment lines shift line numbers away from row numbers
        text += data.draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=2))
        text.append(line)
        lineno[i] = len(text)
    path = tmp_path_factory.mktemp("bad") / name
    path.write_text("\n".join(text) + "\n")
    reader(path)

    at = data.draw(st.integers(first, len(lines) - 1), label="corrupted line")
    tokens = lines[at].split()
    pos = data.draw(st.integers(skip, len(tokens) - 1), label="token")
    if len(tokens) - skip > 1 and data.draw(st.booleans(), label="drop"):
        del tokens[pos]
    else:
        tokens[pos] = data.draw(st.sampled_from(_NOT_NUMBERS))
    text[lineno[at] - 1] = " ".join(tokens)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match=re.escape("%s:%d:" % (name, lineno[at]))):
        reader(path)


def test_eval_malformed_map_exits_2(fixture_dir, tmp_path, capsys):
    n = load_mesh(fixture_dir / "tgt.off").n_vertices
    lines = ["%d" % i for i in range(n)]
    lines[7] = "7.5"
    bad = tmp_path / "map.txt"
    bad.write_text("# identity map\n" + "\n".join(lines) + "\n")
    code = main(["eval", "--src", str(fixture_dir / "src.off"),
                 "--tgt", str(fixture_dir / "tgt.off"), "--map12", str(bad)])
    assert code == 2
    assert "map.txt:9: malformed pointwise map line" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["map12", "src"])
def test_eval_gzip_input_exits_2(fixture_dir, tmp_path, capsys, which):
    # a gzip file under a text name is rejected with its path, not with
    # a bare UnicodeDecodeError
    n = load_mesh(fixture_dir / "tgt.off").n_vertices
    files = {"src": fixture_dir / "src.off", "map12": tmp_path / "map.txt"}
    sm_io.write_pointwise_map(files["map12"], PointwiseMap(np.arange(n), n))
    packed = tmp_path / "gz" / files[which].name
    packed.parent.mkdir()
    packed.write_bytes(gzip.compress(files[which].read_bytes()))
    files[which] = packed
    code = main(["eval", "--src", str(files["src"]), "--tgt", str(fixture_dir / "tgt.off"),
                 "--map12", str(files["map12"])])
    assert code == 2
    assert "error: %s: not a text file" % packed in capsys.readouterr().err


def test_writers_write_plain_text_to_gz_names(tmp_path):
    # np.savetxt alone would gzip these, and no reader reads gzip back
    from smoothmatch.solver import EnergyTrace

    pi = PointwiseMap([2, 0, 1], 3)
    sm_io.write_pointwise_map(tmp_path / "map.txt.gz", pi)
    assert sm_io.read_pointwise_map(tmp_path / "map.txt.gz", 3) == pi
    c = np.array([[1.5, -2.0], [0.25, 3.0]])
    sm_io.write_fmap(tmp_path / "fmap.txt.gz", c)
    assert sm_io.read_fmap(tmp_path / "fmap.txt.gz").tobytes() == c.tobytes()
    pairs = np.array([[0, 4], [3, 1]])
    sm_io.write_index_pairs(tmp_path / "pairs.txt.gz", pairs)
    assert np.array_equal(sm_io.read_index_pairs(tmp_path / "pairs.txt.gz"), pairs)
    trace = EnergyTrace()
    trace.append(**dict.fromkeys(EnergyTrace.COLUMNS, 1.0))
    trace.to_csv(tmp_path / "trace.csv.gz")
    assert (tmp_path / "trace.csv.gz").read_text() == _TRACE_HEADER + "1,1,1,1,1,1,1,1\n"


def test_ground_truth_two_formats(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 3\n2 5\n")
    s, t = sm_io.read_ground_truth(pairs)
    assert s.tolist() == [0, 2] and t.tolist() == [3, 5]

    full = tmp_path / "full.txt"
    full.write_text("4\n3\n2\n")
    s, t = sm_io.read_ground_truth(full)
    assert s.tolist() == [0, 1, 2] and t.tolist() == [4, 3, 2]


def test_metrics_csv_format():
    from smoothmatch.metrics import MetricsReport

    rep = MetricsReport(accuracy=1.5, bijectivity=None, smoothness=0.25, coverage=80.0)
    csv = sm_io.metrics_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "accuracy,bijectivity,smoothness,coverage"
    assert lines[1].split(",")[1] == "n/a"

    rep.conformal = 1.25
    csv = sm_io.metrics_csv(rep, with_conformal=True)
    assert csv.split("\n")[0] == "accuracy,bijectivity,smoothness,coverage,conformal"


# ----------------------------------------------------------------------
# synth command
# ----------------------------------------------------------------------
def test_synth_writes_fixture(tmp_path):
    out = tmp_path / "fix"
    assert main(["synth", "icosphere", "--subdiv", "2", "--jitter", "0.02",
                 "--seed", "3", "--out", str(out)]) == 0
    for name in ("src.off", "tgt.off", "gt.txt", "lm5.txt"):
        assert (out / name).exists()
    src = load_mesh(out / "src.off", normalize=False)
    assert src.n_vertices == 162
    gt_src, gt_tgt = sm_io.read_ground_truth(out / "gt.txt")
    assert np.array_equal(gt_tgt, np.arange(162))
    assert (out / "gt.txt").read_text() == "".join("%d\n" % i for i in range(162))


def test_synth_zero_jitter_identical_files(tmp_path):
    out = tmp_path / "fix0"
    assert main(["synth", "icosphere", "--subdiv", "1", "--jitter", "0",
                 "--out", str(out)]) == 0
    assert (out / "src.off").read_bytes() == (out / "tgt.off").read_bytes()


def test_synth_landmarks_are_farthest_point_sample(tmp_path):
    out = tmp_path / "fix2"
    assert main(["synth", "icosphere", "--subdiv", "2", "--out", str(out)]) == 0
    pairs = sm_io.read_index_pairs(out / "lm5.txt")
    src = load_mesh(out / "src.off", normalize=False)
    expected = farthest_point_indices(src, 5)
    assert np.array_equal(pairs[:, 0], expected)
    assert np.array_equal(pairs[:, 0], pairs[:, 1])
    # well separated: pairwise geodesic distance at least a third of
    # the sphere radius-pi scale
    d = geodesic_distances(src, pairs[:, 0])
    pair_d = [d[a, pairs[b, 0]] for a in range(5) for b in range(5) if a != b]
    assert min(pair_d) > 1.0


def test_synth_unknown_fixture(tmp_path, capsys):
    assert main(["synth", "moebius", "--out", str(tmp_path / "x")]) == 2
    assert "unknown fixture" in capsys.readouterr().err


# ----------------------------------------------------------------------
# refine / eval commands
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "fix"
    assert main(["synth", "icosphere", "--subdiv", "2", "--jitter", "0.02",
                 "--seed", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def refined_dir(fixture_dir, tmp_path_factory):
    run = tmp_path_factory.mktemp("cli_run") / "run"
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(fixture_dir / "lm5.txt"),
        "--energy", "dirichlet", "--k-init", "10", "--k-final", "40",
        "--iters", "4", "--out", str(run), "--gt", str(fixture_dir / "gt.txt"),
    ])
    assert code == 0
    return run


def test_refine_writes_outputs(refined_dir):
    for name in ("map_12.txt", "map_21.txt", "energy_trace.csv",
                 "fmap_12.txt", "fmap_21.txt"):
        assert (refined_dir / name).exists()
    trace = (refined_dir / "energy_trace.csv").read_text().strip().split("\n")
    assert trace[0].startswith("iteration,k,gamma,")
    c = sm_io.read_fmap(refined_dir / "fmap_12.txt")
    assert c.shape == (40, 40)


def test_refine_flat_energy_report(refined_dir):
    lines = (refined_dir / "energy_report.txt").read_text().strip().split("\n")
    keys = {ln.split()[0] for ln in lines}
    assert {"e_bij", "e_couple_spec", "e_dirichlet",
            "e_couple_spatial", "e_total"} <= keys
    for ln in lines:
        float(ln.split()[1])


def test_refine_missing_landmarks(tmp_path, fixture_dir, capsys):
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(tmp_path / "nope.txt"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "nope.txt" in capsys.readouterr().err


def test_refine_print_config(fixture_dir, tmp_path, capsys):
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(fixture_dir / "lm5.txt"),
        "--energy", "rhm", "--k-init", "5", "--k-final", "10", "--iters", "2",
        "--out", str(tmp_path / "o"), "--print-config",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "energy rhm" in out
    assert "beta 1" in out          # per-energy default
    assert "mu 10000" in out
    assert "gamma_init 0.1" in out
    # weights.gamma is schedule-owned and not printed
    assert "gamma" not in [line.split()[0] for line in out.splitlines()]

    # on a 42-vertex mesh the spectral sizes shrink, and the effective ones print
    small = tmp_path / "small"
    assert main(["synth", "icosphere", "--subdiv", "1", "--out", str(small)]) == 0
    capsys.readouterr()
    code = main([
        "refine", "--src", str(small / "src.off"), "--tgt", str(small / "tgt.off"),
        "--landmarks", str(small / "lm5.txt"), "--iters", "1",
        "--out", str(tmp_path / "o_small"), "--print-config",
    ])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "k_final 40" in lines and "k_init 20" in lines
    assert "k_final 100" not in lines


def test_refine_print_config_golden(fixture_dir, tmp_path, capsys):
    # every config field of the default run, so an option change shows here
    src, tgt = fixture_dir / "src.off", fixture_dir / "tgt.off"
    code = main(["refine", "--src", str(src), "--tgt", str(tgt),
                 "--landmarks", str(fixture_dir / "lm5.txt"),
                 "--out", str(tmp_path / "o"), "--print-config"])
    assert code == 0
    assert capsys.readouterr().out.startswith(
        "command refine\n"
        "src %s\n"
        "tgt %s\n"
        "energy dirichlet\n"
        "lam 1\n"
        "mu 10000\n"
        "k_def auto\n"
        "k_init 20\n"
        "k_final 100\n"
        "n_outer 9\n"
        "gamma_init 0.1\n"
        "gamma_final 1\n"
        "exact_pi_step False\n"
        "spectral_bij 1\n"
        "alpha 0.1\n"
        "beta 200\n"
        "normalize True\n"
        "accuracy " % (src, tgt)
    )


def test_refine_rejects_k_def_below_one(fixture_dir, tmp_path, capsys):
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(fixture_dir / "lm5.txt"),
        "--energy", "shells", "--k-def", "-3", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "k_def must be at least 1" in capsys.readouterr().err


def test_refine_rejects_k_def_above_k_final(fixture_dir, tmp_path, capsys):
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(fixture_dir / "lm5.txt"),
        "--energy", "shells", "--k-def", "500", "--k-final", "30", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "k_def=500 exceeds k_final=30" in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [
    (["--alpha", "inf"], "alpha"),
    (["--gamma-init", "nan"], "gamma_init"),
    (["--beta", "nan"], "beta"),
    (["--energy", "arap", "--lam", "nan"], "lam"),
    (["--energy", "rhm", "--mu", "inf"], "mu"),
], ids=["alpha", "gamma_init", "beta", "lam", "mu"])
def test_refine_rejects_non_finite_weights(fixture_dir, tmp_path, capsys, flags, field):
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(fixture_dir / "lm5.txt"), "--out", str(tmp_path / "o"),
    ] + flags)
    assert code == 2
    assert re.search(r"error: .*\b%s must be .*finite" % field, capsys.readouterr().err)


@pytest.mark.parametrize("gt_text, message", [
    ("0 1\n2 x\n", "gt.txt:2: malformed ground-truth line"),
    ("1 999\n", "ground-truth target index out of range"),
], ids=["malformed", "out_of_range"])
def test_refine_bad_ground_truth_fails_before_writing(fixture_dir, tmp_path, capsys,
                                                      gt_text, message):
    gt = tmp_path / "gt.txt"
    gt.write_text(gt_text)
    out = tmp_path / "o"
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(fixture_dir / "lm5.txt"), "--gt", str(gt), "--out", str(out),
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_singular_solve_is_solver_failure(capsys):
    # LinAlgError subclasses ValueError yet is a failed solve, not bad input
    code = _exit_code(lambda args: np.linalg.solve(np.zeros((2, 2)), np.ones(2)), None)
    assert code == 1
    assert "solver error" in capsys.readouterr().err


def test_eval_identity_accuracy_zero(fixture_dir, tmp_path, capsys):
    n = load_mesh(fixture_dir / "src.off").n_vertices
    map_path = tmp_path / "ident.txt"
    sm_io.write_pointwise_map(map_path, PointwiseMap(np.arange(n), n))
    code = main([
        "eval", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "src.off"),
        "--map12", str(map_path), "--map21", str(map_path),
        "--gt", str(fixture_dir / "gt.txt"),
    ])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "accuracy,bijectivity,smoothness,coverage"
    vals = out[1].split(",")
    assert float(vals[0]) == 0.0
    assert float(vals[1]) == 0.0
    assert float(vals[3]) == 100.0


def test_eval_single_direction_na(fixture_dir, refined_dir, capsys):
    code = main([
        "eval", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--map12", str(refined_dir / "map_12.txt"),
    ])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[1].split(",")[1] == "n/a"


def test_eval_length_mismatch(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "short.txt"
    bad.write_text("0\n1\n2\n")
    code = main([
        "eval", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"), "--map12", str(bad),
    ])
    assert code == 2


def test_cli_roundtrip_matches_library(fixture_dir, refined_dir, tmp_path, capsys):
    # metrics computed by eval on refine's outputs equal the library's
    code = main([
        "eval", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--map12", str(refined_dir / "map_12.txt"),
        "--map21", str(refined_dir / "map_21.txt"),
        "--gt", str(fixture_dir / "gt.txt"),
        "--out", str(tmp_path / "report.csv"),
    ])
    assert code == 0
    vals = (tmp_path / "report.csv").read_text().strip().split("\n")[1].split(",")

    m1 = load_mesh(fixture_dir / "src.off")
    m2 = load_mesh(fixture_dir / "tgt.off")
    pi_12 = sm_io.read_pointwise_map(refined_dir / "map_12.txt", m2.n_vertices)
    pi_21 = sm_io.read_pointwise_map(refined_dir / "map_21.txt", m1.n_vertices)
    gt_src, gt_tgt = sm_io.read_ground_truth(fixture_dir / "gt.txt")
    rep = compute_report(pi_12, pi_21, m1, m2, gt_src, gt_tgt)
    # the CLI report is bit-for-bit the library's report
    expected_line = sm_io.metrics_csv(rep).strip().split("\n")[1]
    assert ",".join(vals) == expected_line
    assert float(vals[0]) == pytest.approx(rep.accuracy, abs=1e-6)
    assert float(vals[1]) == pytest.approx(rep.bijectivity, abs=1e-6)


@pytest.mark.parametrize("energy", ["dirichlet", "nicp", "arap", "shells", "rhm"])
def test_refine_every_energy_flag(fixture_dir, tmp_path, energy):
    out = tmp_path / ("run_" + energy)
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(fixture_dir / "lm5.txt"),
        "--energy", energy, "--k-init", "5", "--k-final", "15",
        "--iters", "2", "--out", str(out),
    ])
    assert code == 0
    assert (out / "map_12.txt").exists()


def test_refine_with_init_maps(fixture_dir, tmp_path, rng):
    m1 = load_mesh(fixture_dir / "src.off")
    m2 = load_mesh(fixture_dir / "tgt.off")
    p12 = tmp_path / "i12.txt"
    p21 = tmp_path / "i21.txt"
    sm_io.write_pointwise_map(p12, random_map(rng, m1, m2))
    sm_io.write_pointwise_map(p21, random_map(rng, m2, m1))
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--init-map", str(p12), str(p21),
        "--k-init", "5", "--k-final", "10", "--iters", "2",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0


def test_batch_refine(fixture_dir, tmp_path):
    batch = tmp_path / "pairs.txt"
    out1 = tmp_path / "b1"
    batch.write_text(
        "%s %s %s %s\n" % (fixture_dir / "src.off", fixture_dir / "tgt.off",
                           fixture_dir / "lm5.txt", out1)
    )
    code = main([
        "refine", "--src", "x", "--tgt", "x", "--landmarks", "x",
        "--pairs", str(batch), "--k-init", "5", "--k-final", "10",
        "--iters", "2", "--out", str(tmp_path / "unused"),
    ])
    assert code == 0
    assert (out1 / "map_12.txt").exists()


def test_batch_refine_parallel(fixture_dir, tmp_path):
    batch = tmp_path / "pairs.txt"
    outs = [tmp_path / "p1", tmp_path / "p2"]
    rows = [
        "%s %s %s %s" % (fixture_dir / "src.off", fixture_dir / "tgt.off",
                         fixture_dir / "lm5.txt", out)
        for out in outs
    ]
    batch.write_text("\n".join(rows) + "\n")
    code = main([
        "refine", "--src", "x", "--tgt", "x", "--landmarks", "x",
        "--pairs", str(batch), "--jobs", "2", "--k-init", "5",
        "--k-final", "10", "--iters", "2", "--out", str(tmp_path / "unused"),
    ])
    assert code == 0
    for out in outs:
        assert (out / "map_12.txt").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_failed_pair_does_not_stop_the_rest(fixture_dir, tmp_path, capsys, jobs):
    # no --src/--tgt/--landmarks/--out: the batch file supplies them
    batch = tmp_path / "pairs.txt"
    good = tmp_path / "good"
    batch.write_text(
        "%s %s %s %s\n%s %s %s %s\n" % (
            tmp_path / "missing.off", fixture_dir / "tgt.off", fixture_dir / "lm5.txt",
            tmp_path / "bad",
            fixture_dir / "src.off", fixture_dir / "tgt.off", fixture_dir / "lm5.txt", good,
        )
    )
    code = main([
        "refine", "--pairs", str(batch), "--jobs", jobs,
        "--k-init", "5", "--k-final", "10", "--iters", "2",
    ])
    status = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("pair ")]
    assert code == 2
    assert (good / "map_12.txt").exists()
    assert len(status) == 2
    assert status[0].startswith("pair 1/2 ") and status[0].endswith(": exit 2")
    assert status[1].startswith("pair 2/2 ") and status[1].endswith(": ok")


def test_refine_without_pairs_still_requires_flags(fixture_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["refine", "--src", str(fixture_dir / "src.off")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tgt" in err and "--out" in err and "--landmarks" in err


def test_eval_non_finite_mesh_exits_2(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "bad.off"
    lines = (fixture_dir / "src.off").read_text().splitlines()
    lines[2] = "nan 0 1"             # first vertex line
    bad.write_text("\n".join(lines) + "\n")
    n = load_mesh(fixture_dir / "tgt.off").n_vertices
    map_path = tmp_path / "ident.txt"
    sm_io.write_pointwise_map(map_path, PointwiseMap(np.arange(n), n))
    code = main([
        "eval", "--src", str(bad), "--tgt", str(fixture_dir / "tgt.off"),
        "--map12", str(map_path),
    ])
    assert code == 2
    assert "bad.off:3: non-finite vertex coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("gt_text", ["-1 3\n", "1 999\n", "\n".join(map(str, range(167)))],
                         ids=["negative", "past_target", "full_map_too_long"])
def test_eval_bad_ground_truth_exits_2(fixture_dir, tmp_path, capsys, gt_text):
    n = load_mesh(fixture_dir / "src.off").n_vertices
    map_path = tmp_path / "ident.txt"
    sm_io.write_pointwise_map(map_path, PointwiseMap(np.arange(n), n))
    gt = tmp_path / "gt.txt"
    gt.write_text(gt_text)
    code = main([
        "eval", "--src", str(fixture_dir / "src.off"), "--tgt", str(fixture_dir / "tgt.off"),
        "--map12", str(map_path), "--gt", str(gt),
    ])
    assert code == 2
    assert "error: ground-truth" in capsys.readouterr().err


def test_eval_disconnected_mesh_prints_inf(tmp_path, capsys):
    # a component-swapping map on two disjoint spheres: accuracy and
    # bijectivity are inf, the run still succeeds
    sphere = icosphere(1)
    n = sphere.n_vertices
    write_off(TriMesh(np.vstack([sphere.vertices, sphere.vertices + 3.0]),
                      np.vstack([sphere.faces, sphere.faces + n])), tmp_path / "two.off")
    swap, ident = tmp_path / "swap.txt", tmp_path / "ident.txt"
    sm_io.write_pointwise_map(swap, PointwiseMap((np.arange(2 * n) + n) % (2 * n), 2 * n))
    sm_io.write_pointwise_map(ident, PointwiseMap(np.arange(2 * n), 2 * n))
    mesh = str(tmp_path / "two.off")
    code = main(["eval", "--src", mesh, "--tgt", mesh, "--map12", str(swap),
                 "--map21", str(ident), "--gt", str(ident), "--conformal"])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "accuracy,bijectivity,smoothness,coverage,conformal"
    vals = out[1].split(",")
    assert vals[:2] == ["inf", "inf"]
    assert all(np.isfinite(float(v)) for v in vals[2:])
