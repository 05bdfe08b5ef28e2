import gzip
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import arpack_no_convergence, random_map

from smoothmatch import cli, spectral
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
    assert np.loadtxt(path, skiprows=1, ndmin=2).tobytes() == c.tobytes()


@settings(max_examples=50, deadline=None)
@given(pairs=arrays(np.int64, st.tuples(st.integers(1, 20), st.just(2)),
                    elements=st.integers(0, 2**63 - 1)))
def test_index_pairs_roundtrip(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("pairs") / "pairs.txt"
    sm_io.write_index_pairs(path, pairs)
    back = sm_io.read_index_pairs(path, (2**63, 2**63))
    assert back.shape == pairs.shape and back.tobytes() == pairs.tobytes()


@pytest.mark.parametrize("read, text, suffix", [
    (lambda p: sm_io.read_pointwise_map(p, 5), "0 1\n2 3\n", ": expected one index per line"),
    (lambda p: sm_io.read_index_pairs(p, (5, 5)), "0 1 2\n", ": expected two indices per line"),
    (sm_io.read_ground_truth, "0 1 2\n", ": expected one or two columns"),
], ids=["map_two_columns", "pairs_3_wide", "gt_3_wide"])
def test_reader_shape_errors(tmp_path, read, text, suffix):
    path = tmp_path / "x.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == str(path) + suffix


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
    (lambda p: sm_io.read_index_pairs(p, (10, 10)), "0 1\n2 1.5\n", "index pair"),
    (sm_io.read_ground_truth, "0 1\n2 1.5\n", "ground-truth"),
], ids=["pointwise_map", "index_pairs", "ground_truth"])
def test_integer_file_parse_error_names_file(tmp_path, reader, text, what):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"bad\.txt:2: malformed %s line" % what):
        reader(path)


# tokens that neither the float nor the integer parser accepts
_NOT_NUMBERS = ["x", "1_000", "1,5", "--1", "0x1f"]
_FLOAT_TEXT = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v)


@st.composite
def _valid_file(draw):
    """A valid file in one text format: (name, content lines, index of the
    first data line, leading keyword tokens per data line, reader)."""
    kind = draw(st.sampled_from(["off", "obj", "map", "pairs", "ground_truth"]))
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
    reader = ((lambda p: sm_io.read_index_pairs(p, (n, n))) if kind == "pairs"
              else sm_io.read_ground_truth)
    return kind + ".txt", [row(index, 2) for _ in range(n)], 0, 0, reader


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


def test_valid_files_build_no_line_table(tmp_path):
    # line numbers are counted only to name a bad line
    write_off(icosphere(1), tmp_path / "m.off")
    sm_io.write_pointwise_map(tmp_path / "map.txt", PointwiseMap([2, 0, 1], 3))
    sm_io.write_index_pairs(tmp_path / "pairs.txt", [[0, 1], [2, 2]])
    unused = mock.Mock(side_effect=AssertionError("line table built"))
    with mock.patch.object(sm_io, "_content_lines", unused), \
            mock.patch("smoothmatch.mesh._content_lines", unused):
        assert read_off(tmp_path / "m.off")[0].shape == (42, 3)
        assert sm_io.read_pointwise_map(tmp_path / "map.txt", 3).n_src == 3
        assert sm_io.read_index_pairs(tmp_path / "pairs.txt", (3, 3)).shape == (2, 2)
        assert sm_io.read_ground_truth(tmp_path / "map.txt")[1].tolist() == [2, 0, 1]
    unused.assert_not_called()


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
    # np.loadtxt would gunzip a path ending in .gz, so it reads the text
    text = (tmp_path / "fmap.txt.gz").read_text().splitlines()
    assert np.loadtxt(text, skiprows=1).tobytes() == c.tobytes()
    pairs = np.array([[0, 4], [3, 1]])
    sm_io.write_index_pairs(tmp_path / "pairs.txt.gz", pairs)
    assert np.array_equal(sm_io.read_index_pairs(tmp_path / "pairs.txt.gz", (4, 5)), pairs)
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
    csv = sm_io.metrics_csv(rep)
    assert csv.split("\n")[0] == "accuracy,bijectivity,smoothness,coverage,conformal"


@pytest.mark.parametrize("extra, text_tail, header_tail, values_tail", [
    ({}, "", "", ""),
    ({"conformal": 1.25, "collapsed_faces": 3},
     "\nconformal   1.25 (collapsed faces: 3)", ",conformal", ",1.250000"),
], ids=["four_columns", "conformal"])
def test_report_renderings_golden_bytes(extra, text_tail, header_tail, values_tail):
    from smoothmatch.metrics import MetricsReport

    rep = MetricsReport(accuracy=1.5, bijectivity=None, smoothness=0.25, coverage=80.0,
                        **extra)
    assert rep.as_text() == ("accuracy    1.5\nbijectivity n/a\nsmoothness  0.25\n"
                             "coverage    80" + text_tail)
    assert sm_io.metrics_csv(rep) == (
        "accuracy,bijectivity,smoothness,coverage" + header_tail + "\n"
        "1.500000,n/a,0.250000,80.000000" + values_tail + "\n")


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
    src = load_mesh(out / "src.off", normalize=False)
    pairs = sm_io.read_index_pairs(out / "lm5.txt", (src.n_vertices, src.n_vertices))
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


@pytest.mark.parametrize("flags, flag", [
    (["--landmarks", "0"], "--landmarks"),
    (["--landmarks", "500"], "--landmarks"),
    (["--subdiv", "-3"], "--subdiv"),
    (["--jitter", "-1"], "--jitter"),
    (["--jitter", "nan"], "--jitter"),
    (["--seed", "-1"], "--seed"),
], ids=["landmarks_zero", "landmarks_over", "subdiv_negative", "jitter_negative", "jitter_nan",
        "seed_negative"])
def test_synth_bad_arguments_write_nothing(tmp_path, capsys, flags, flag):
    # every flag is checked before --out is created
    out = tmp_path / "fix"
    assert main(["synth", "icosphere", "--subdiv", "2", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + flag)
    assert not out.exists()


def test_synth_out_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "notadir"
    out.write_text("keep\n")
    assert main(["synth", "icosphere", "--subdiv", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert out.read_text() == "keep\n"


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
    c = np.loadtxt(refined_dir / "fmap_12.txt", skiprows=1)
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
    # gamma follows the gamma_init/gamma_final schedule; no weight holds it
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


def test_refine_rejects_k_init_above_k_final(fixture_dir, tmp_path, capsys):
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(fixture_dir / "lm5.txt"),
        "--k-init", "30", "--k-final", "20", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: need 1 <= k_init <= k_final\n"
    assert not (tmp_path / "o").exists()


def test_refine_rejects_k_def_above_k_final(fixture_dir, tmp_path, capsys):
    out = tmp_path / "o"
    with mock.patch.object(cli, "compute_basis") as basis:
        code = main([
            "refine", "--src", str(fixture_dir / "src.off"),
            "--tgt", str(fixture_dir / "tgt.off"),
            "--landmarks", str(fixture_dir / "lm5.txt"),
            "--energy", "shells", "--k-def", "500", "--k-final", "30", "--out", str(out),
        ])
    assert code == 2
    assert "k_def=500 exceeds k_final=30" in capsys.readouterr().err
    basis.assert_not_called()
    assert not out.exists()


def test_refine_rejects_k_def_above_the_capped_k_final(tmp_path, capsys):
    # 42 vertices cap the spectral sizes at 40, below --k-def; the error
    # comes before the note on the cap and before any basis
    fixture = tmp_path / "fix"
    assert main(["synth", "icosphere", "--subdiv", "1", "--out", str(fixture)]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    with mock.patch.object(cli, "compute_basis") as basis:
        code = main([
            "refine", "--src", str(fixture / "src.off"), "--tgt", str(fixture / "tgt.off"),
            "--landmarks", str(fixture / "lm5.txt"),
            "--energy", "shells", "--k-def", "41", "--out", str(out),
        ])
    assert code == 2
    assert capsys.readouterr().err == "error: k_def=41 exceeds k_final=40\n"
    basis.assert_not_called()
    assert not out.exists()


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


@pytest.mark.parametrize("lm_text, message", [
    ("0 0\n5 9999\n", "lm.txt:2: index pair out of range [0, 162) x [0, 162)"),
    ("# src tgt\n-1 3\n4 4\n", "lm.txt:2: index pair out of range [0, 162) x [0, 162)"),
    ("0 0\n0 5\n9 9\n", "lm.txt: duplicate landmark indices on mesh 1"),
    ("0 0\n", "lm.txt: need at least 2 landmarks"),
], ids=["past_target", "negative", "duplicate", "one_line"])
def test_refine_bad_landmarks_fail_before_the_bases(fixture_dir, tmp_path, capsys,
                                                    lm_text, message):
    lm = tmp_path / "lm.txt"
    lm.write_text(lm_text)
    out = tmp_path / "o"
    with mock.patch.object(cli, "compute_basis") as basis:
        code = main([
            "refine", "--src", str(fixture_dir / "src.off"),
            "--tgt", str(fixture_dir / "tgt.off"),
            "--landmarks", str(lm), "--out", str(out),
        ])
    assert code == 2
    assert capsys.readouterr().err == "error: %s/%s\n" % (tmp_path, message)
    basis.assert_not_called()
    assert not out.exists()


@pytest.mark.parametrize("k_args, message", [
    (["--k-init", "3", "--k-final", "3"], "lm5.txt: 5 landmarks need as many eigenpairs; "
                                          "--k-final is 3"),
    (["--k-init", "1", "--k-final", "1"], "--k-final must be at least 2 (got 1)"),
], ids=["fewer_than_landmarks", "below_two"])
def test_refine_spectral_size_errors_fail_before_the_bases(fixture_dir, tmp_path, capsys,
                                                           k_args, message):
    out = tmp_path / "o"
    with mock.patch.object(cli, "compute_basis") as basis:
        code = main([
            "refine", "--src", str(fixture_dir / "src.off"),
            "--tgt", str(fixture_dir / "tgt.off"),
            "--landmarks", str(fixture_dir / "lm5.txt"), "--out", str(out), *k_args,
        ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n")
    basis.assert_not_called()
    assert not out.exists()


def test_refine_eigensolver_failure_is_solver_failure(fixture_dir, tmp_path, capsys,
                                                      monkeypatch):
    # ARPACK runs only above the dense limit; the fixture has 162 vertices
    monkeypatch.setattr(spectral, "_DENSE_EIGEN_LIMIT", 100)
    monkeypatch.setattr(spectral, "eigsh", arpack_no_convergence)
    out = tmp_path / "o"
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"), "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(fixture_dir / "lm5.txt"), "--k-final", "20", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("solver error: eigensolver failed to converge")
    assert not out.exists()


def test_refine_out_is_a_file_fails_before_the_bases(fixture_dir, tmp_path, capsys):
    out = tmp_path / "notadir"
    out.write_text("keep\n")
    with mock.patch.object(cli, "compute_basis") as basis:
        code = main([
            "refine", "--src", str(fixture_dir / "src.off"),
            "--tgt", str(fixture_dir / "tgt.off"),
            "--landmarks", str(fixture_dir / "lm5.txt"), "--out", str(out),
        ])
    assert code == 2
    assert capsys.readouterr().err == "error: --out: %s exists and is not a directory\n" % out
    basis.assert_not_called()
    assert out.read_text() == "keep\n"


def test_refine_out_below_a_file_fails_before_the_bases(fixture_dir, tmp_path, capsys):
    notadir = tmp_path / "notadir"
    notadir.write_text("keep\n")
    # for notadir/a/b the check walks up past the missing notadir/a
    for out in (notadir / "run", notadir / "a" / "b"):
        with mock.patch.object(cli, "compute_basis") as basis:
            code = main([
                "refine", "--src", str(fixture_dir / "src.off"),
                "--tgt", str(fixture_dir / "tgt.off"),
                "--landmarks", str(fixture_dir / "lm5.txt"), "--out", str(out),
            ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --out: %s is below %s, which is not a directory\n" % (out, notadir))
        basis.assert_not_called()
        assert notadir.read_text() == "keep\n"


def test_refine_out_below_missing_directories_creates_them(fixture_dir, tmp_path):
    out = tmp_path / "fresh" / "a" / "b"
    code = main([
        "refine", "--src", str(fixture_dir / "src.off"),
        "--tgt", str(fixture_dir / "tgt.off"),
        "--landmarks", str(fixture_dir / "lm5.txt"),
        "--k-final", "20", "--iters", "2", "--out", str(out),
    ])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "energy_report.txt", "energy_trace.csv", "fmap_12.txt", "fmap_21.txt",
        "map_12.txt", "map_21.txt"]


def _eval_with_out(fixture_dir, tmp_path, out):
    """``eval`` of an identity map with ``--out``, with ``compute_report`` spied."""
    n = load_mesh(fixture_dir / "src.off").n_vertices
    map_path = tmp_path / "ident.txt"
    map_path.write_text("\n".join(str(i) for i in range(n)) + "\n")
    with mock.patch.object(cli, "compute_report") as report:
        code = main(["eval", "--src", str(fixture_dir / "src.off"),
                     "--tgt", str(fixture_dir / "tgt.off"),
                     "--map12", str(map_path), "--out", str(out)])
    report.assert_not_called()
    return code


def test_eval_out_is_a_directory_exits_2(fixture_dir, tmp_path, capsys):
    out = tmp_path / "report"
    out.mkdir()
    assert _eval_with_out(fixture_dir, tmp_path, out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert out.is_dir() and not any(out.iterdir())


def test_eval_out_below_a_missing_directory_exits_2(fixture_dir, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert _eval_with_out(fixture_dir, tmp_path, out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert not out.parent.exists()


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


@pytest.mark.parametrize("command, flag", [
    ("refine", "--init-map"), ("eval", "--map12"), ("eval", "--map21"),
], ids=["refine_init_map", "eval_map12", "eval_map21"])
def test_map_length_error_names_the_file(fixture_dir, tmp_path, capsys, command, flag):
    n = load_mesh(fixture_dir / "src.off").n_vertices
    good, short = tmp_path / "ident.txt", tmp_path / "short.txt"
    sm_io.write_pointwise_map(good, PointwiseMap(np.arange(n), n))
    sm_io.write_pointwise_map(short, PointwiseMap(np.arange(n - 1), n))
    maps = {"--init-map": ["--init-map", str(short), str(good)],
            "--map12": ["--map12", str(short)],
            "--map21": ["--map12", str(good), "--map21", str(short)]}[flag]
    out = ["--out", str(tmp_path / "o")] if command == "refine" else []
    code = main([command, "--src", str(fixture_dir / "src.off"),
                 "--tgt", str(fixture_dir / "tgt.off")] + maps + out)
    assert code == 2
    assert ("error: %s: %d map entries, mesh has %d vertices\n" % (short, n - 1, n)
            == capsys.readouterr().err)


@pytest.mark.parametrize("command", ["refine", "eval"])
def test_ground_truth_range_error_names_the_file(fixture_dir, tmp_path, capsys, command):
    n = load_mesh(fixture_dir / "src.off").n_vertices
    ident, gt = tmp_path / "ident.txt", tmp_path / "bad_gt.txt"
    sm_io.write_pointwise_map(ident, PointwiseMap(np.arange(n), n))
    gt.write_text("0 0\n%d 3\n" % n)
    maps = (["--init-map", str(ident), str(ident), "--out", str(tmp_path / "o")]
            if command == "refine" else ["--map12", str(ident)])
    code = main([command, "--src", str(fixture_dir / "src.off"),
                 "--tgt", str(fixture_dir / "tgt.off"), "--gt", str(gt)] + maps)
    assert code == 2
    assert ("error: ground-truth source index out of range [0, %d) in %s\n" % (n, gt)
            == capsys.readouterr().err)


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


_REFINE_OUTPUTS = ("map_12.txt", "map_21.txt", "energy_trace.csv", "energy_report.txt",
                   "fmap_12.txt", "fmap_21.txt")


def _two_pair_batch(fixture_dir, tmp_path, first_out, second_out):
    batch = tmp_path / "pairs.txt"
    batch.write_text("".join("%s %s %s %s\n" % (
        fixture_dir / "src.off", fixture_dir / "tgt.off", fixture_dir / "lm5.txt", out)
        for out in (first_out, second_out)))
    return batch


def _batch_status(out):
    return [line for line in out.splitlines() if line.startswith("pair ")]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_out_is_a_file_fails_only_its_pair(fixture_dir, tmp_path, capsys, jobs):
    notadir, good = tmp_path / "notadir", tmp_path / "good"
    notadir.write_text("keep\n")
    batch = _two_pair_batch(fixture_dir, tmp_path, notadir, good)
    code = main(["refine", "--pairs", str(batch), "--jobs", jobs,
                 "--k-init", "5", "--k-final", "10", "--iters", "2"])
    status = _batch_status(capsys.readouterr().out)
    assert code == 2
    assert len(status) == 2
    assert status[0].startswith("pair 1/2 ") and status[0].endswith(": exit 2")
    assert status[1].startswith("pair 2/2 ") and status[1].endswith(": ok")
    assert notadir.read_text() == "keep\n"
    for name in _REFINE_OUTPUTS:
        assert (good / name).exists()


def test_batch_unexpected_error_fails_only_its_pair(fixture_dir, tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    batch = _two_pair_batch(fixture_dir, tmp_path, first, second)
    real = cli._cmd_refine

    def first_raises(sub):
        if sub.out == str(first):
            raise KeyError("planted")
        return real(sub)

    with mock.patch.object(cli, "_cmd_refine", side_effect=first_raises):
        code = main(["refine", "--pairs", str(batch),
                     "--k-init", "5", "--k-final", "10", "--iters", "2"])
    captured = capsys.readouterr()
    status = _batch_status(captured.out)
    assert code == 1
    assert status[0].startswith("pair 1/2 ") and status[0].endswith(": exit 1")
    assert status[1].startswith("pair 2/2 ") and status[1].endswith(": ok")
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.rstrip().endswith("KeyError: 'planted'")
    assert not first.exists() and (second / "map_12.txt").exists()


def test_batch_malformed_line_fails_up_front(fixture_dir, tmp_path, capsys):
    # a valid line, a blank line and a 3-token line: the batch stops
    # before any pair runs, naming the file and line
    batch = tmp_path / "pairs.txt"
    out = tmp_path / "first"
    batch.write_text("%s %s %s %s\n\n%s %s %s\n" % (
        fixture_dir / "src.off", fixture_dir / "tgt.off", fixture_dir / "lm5.txt", out,
        fixture_dir / "src.off", fixture_dir / "tgt.off", fixture_dir / "lm5.txt"))
    code = main(["refine", "--pairs", str(batch), "--k-init", "5", "--k-final", "10",
                 "--iters", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: %s:3: batch lines must be: src tgt landmarks outdir\n" % batch
    assert not out.exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_batch_jobs_below_one_is_an_input_error(fixture_dir, tmp_path, capsys, jobs):
    # rejected before any file is read, and no worker process starts
    batch = tmp_path / "pairs.txt"
    out = tmp_path / "run"
    batch.write_text("%s %s %s %s\n" % (
        fixture_dir / "src.off", fixture_dir / "tgt.off", fixture_dir / "lm5.txt", out))
    with mock.patch.object(cli, "ProcessPoolExecutor", side_effect=AssertionError), \
            mock.patch.object(cli, "_require", side_effect=AssertionError):
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--pairs", str(batch), "--jobs", str(jobs)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: --jobs must be at least 1 (got %d)\n" % jobs)
    assert not out.exists()


def test_refine_one_triangle_meshes_exit_2(tmp_path, capsys):
    mesh = tmp_path / "tri.off"
    mesh.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    lm = tmp_path / "lm.txt"
    lm.write_text("0 0\n1 1\n")
    out = tmp_path / "out"
    code = main(["refine", "--src", str(mesh), "--tgt", str(mesh), "--landmarks", str(lm),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: meshes are too small to refine\n"
    assert not out.exists()


def _edited_target(fixture_dir, tmp_path, edit):
    # the fixture's target with edit(vertices, faces) applied, written out
    tgt = read_off(fixture_dir / "tgt.off")
    path = tmp_path / "edited.off"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        write_off(TriMesh(*edit(*tgt)), path)
    return path


def _refine_edited_target(fixture_dir, tmp_path, edit):
    # refine the fixture against its target with edit(vertices, faces) applied
    path = _edited_target(fixture_dir, tmp_path, edit)
    out = tmp_path / "out"
    code = main(["refine", "--src", str(fixture_dir / "src.off"), "--tgt", str(path),
                 "--landmarks", str(fixture_dir / "lm5.txt"), "--k-final", "20",
                 "--iters", "2", "--out", str(out)])
    return code, path, out


def _unreferenced_vertex(v, f):
    return np.vstack([v, [[0.1, 0.2, 0.3]]]), f


def test_refine_unreferenced_vertex_names_the_file(fixture_dir, tmp_path, capsys):
    # rejected before any basis work, with one isolated-vertex warning
    with mock.patch.object(cli, "compute_basis") as basis, \
            pytest.warns(UserWarning, match="isolated vertices") as warned:
        code, path, out = _refine_edited_target(fixture_dir, tmp_path, _unreferenced_vertex)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: %s: vertex 162 has zero area (it is in no face, or only in zero-area faces)\n"
        % path)
    assert sum("isolated vertices" in str(w.message) for w in warned) == 1
    basis.assert_not_called()
    assert not out.exists()


def test_eval_unreferenced_vertex_names_the_file(fixture_dir, tmp_path, capsys):
    # rejected as refine rejects it, before any metric: the vertex would be
    # a component of its own, and every round trip through it inf
    path = _edited_target(fixture_dir, tmp_path, _unreferenced_vertex)
    n = read_off(fixture_dir / "src.off")[0].shape[0]
    map_12, map_21, out = tmp_path / "m12.txt", tmp_path / "m21.txt", tmp_path / "eval.csv"
    sm_io.write_pointwise_map(map_12, PointwiseMap(np.arange(n), n + 1))
    sm_io.write_pointwise_map(map_21, PointwiseMap(np.append(np.arange(n), 0), n))
    with mock.patch.object(cli, "compute_report") as report, \
            pytest.warns(UserWarning, match="isolated vertices") as warned:
        code = main(["eval", "--src", str(fixture_dir / "src.off"), "--tgt", str(path),
                     "--map12", str(map_12), "--map21", str(map_21),
                     "--gt", str(fixture_dir / "gt.txt"), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", (
        "error: %s: vertex 162 has zero area (it is in no face, or only in zero-area faces)\n"
        % path))
    assert sum("isolated vertices" in str(w.message) for w in warned) == 1
    report.assert_not_called()
    assert not out.exists()


def _flattened(v, f):
    # every vertex on the x axis: every face has zero area
    return v * [1.0, 0.0, 0.0], f


def test_refine_zero_area_mesh_names_the_file(fixture_dir, tmp_path, capsys):
    # the areas are checked before normalizing, so no division by the zero
    # total area warns, and no basis is computed
    with mock.patch.object(cli, "compute_basis") as basis, warnings.catch_warnings():
        warnings.simplefilter("error")
        code, path, out = _refine_edited_target(fixture_dir, tmp_path, _flattened)
    assert code == 2
    assert capsys.readouterr() == ("", (
        "error: %s: vertex 0 has zero area (it is in no face, or only in zero-area faces)\n"
        % path))
    basis.assert_not_called()
    assert not out.exists()


def test_eval_zero_area_mesh_names_the_file(fixture_dir, tmp_path, capsys):
    path = _edited_target(fixture_dir, tmp_path, _flattened)
    n = read_off(fixture_dir / "src.off")[0].shape[0]
    map_12, out = tmp_path / "m12.txt", tmp_path / "eval.csv"
    sm_io.write_pointwise_map(map_12, PointwiseMap(np.zeros(n, dtype=np.int64), n))
    with mock.patch.object(cli, "compute_report") as report, warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eval", "--src", str(fixture_dir / "src.off"), "--tgt", str(path),
                     "--map12", str(map_12), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", (
        "error: %s: vertex 0 has zero area (it is in no face, or only in zero-area faces)\n"
        % path))
    report.assert_not_called()
    assert not out.exists()


def test_eval_overflowing_area_names_the_file(tmp_path, capsys):
    # every vertex area is inf, not zero, so normalizing is what fails
    mesh = tmp_path / "big.off"
    mesh.write_text("OFF\n4 2 0\n0 0 0\n1e200 0 0\n0 1e200 0\n1e200 1e200 0\n"
                    "3 0 1 2\n3 1 3 2\n")
    map_12 = tmp_path / "m12.txt"
    sm_io.write_pointwise_map(map_12, PointwiseMap(np.arange(4), 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # the areas overflow
        code = main(["eval", "--src", str(mesh), "--tgt", str(mesh), "--map12", str(map_12)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: %s: total area is inf; normalizing needs a "
                                       "positive, finite one\n" % mesh)


def _seam(v, f):
    # a copy of vertex f[0, 0] stands in for it in face 0 only
    f = f.copy()
    v = np.vstack([v, v[f[0, 0]]])
    f[0, 0] = len(v) - 1
    return v, f


@pytest.mark.parametrize("edit", [
    _seam,
    lambda v, f: (v, np.vstack([f, f[:1]])),
    lambda v, f: (v, np.vstack([f, np.roll(f[:1], 1, axis=1)])),
], ids=["coincident_vertices", "repeated_face", "repeated_rotated_face"])
def test_refine_accepts_seams_and_repeated_faces(fixture_dir, tmp_path, edit):
    # documented as accepted inputs: a repeated face counts twice in the
    # areas and cotangent weights, and coincident vertices form a seam
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        code, _, out = _refine_edited_target(fixture_dir, tmp_path, edit)
    assert code == 0
    assert (out / "map_12.txt").exists()


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
