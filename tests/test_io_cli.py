import numpy as np
import pytest

from conftest import random_map

from smoothmatch import io as sm_io
from smoothmatch.cli import main
from smoothmatch.mesh import geodesic_distances, load_mesh
from smoothmatch.metrics import compute_report
from smoothmatch.spectral import PointwiseMap
from smoothmatch.synth import farthest_point_indices


# ----------------------------------------------------------------------
# text formats
# ----------------------------------------------------------------------
def test_pointwise_map_roundtrip(tmp_path, rng):
    pi = PointwiseMap(rng.integers(0, 50, 80), 50)
    path = tmp_path / "map.txt"
    sm_io.write_pointwise_map(path, pi)
    back = sm_io.read_pointwise_map(path, 50)
    assert back == pi


def test_fmap_roundtrip(tmp_path, rng):
    c = rng.normal(size=(7, 5))
    path = tmp_path / "fmap.txt"
    sm_io.write_fmap(path, c)
    header = path.read_text().split("\n")[0]
    assert header == "7 5"
    assert np.array_equal(sm_io.read_fmap(path), c)


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
