"""Tests of the benchmark itself, on tiny inputs.

Run with ``python -m pytest bench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.load_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from smoothmatch import solver, spectral  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_selfcheck_covers_every_workload_and_metric(tmp_path, capsys):
    assert run.main(["--selfcheck", "--workdir", str(tmp_path)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines[-1] == {"selfcheck": "ok"}
    results = lines[:-1]
    assert len(results) == 2 * len(SPEC["workloads"])
    for i, res in enumerate(results):
        key = "per_layer" if i % 2 else "end_to_end"
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [m["name"] for m in SPEC[key]]
    for w in SPEC["workloads"]:
        assert (tmp_path / ("trace-%s-seed0.json" % w["name"])).is_file()


def test_workloads_match_benchmark_json():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_follow_the_seed(tmp_path, name):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        inp = workloads.WORKLOADS[name].generate(np.random.default_rng(seed), True, d)
        return {k: Path(p).read_bytes() for k, p in inp.files.items()}

    first = files(5, "a")
    assert files(5, "b") == first
    assert files(6, "c")["tgt"] != first["tgt"]


def test_tracer_patches_imported_names_and_restores():
    original = spectral.nearest_rows
    tr = tracer.Tracer()
    uninstall = tr.install()
    try:
        assert solver.nearest_rows is spectral.nearest_rows
        assert solver.nearest_rows is not original
        solver.nearest_rows(np.zeros((2, 3)), np.ones((4, 3)))
    finally:
        uninstall()
    assert solver.nearest_rows is original and spectral.nearest_rows is original
    (span,) = tr.spans
    assert span["name"] == "spectral.nn" and span["pairdims"] == 2 * 4 * 3


def test_self_times_subtract_direct_children():
    spans = [
        {"id": 0, "name": "solver.pi_step", "rep": 0, "parent": None, "start": 0.0, "end": 10.0,
         "changed": 1, "assigned": 4},
        {"id": 1, "name": "spectral.nn", "rep": 0, "parent": 0, "start": 1.0, "end": 4.0,
         "pairdims": 6},
        {"id": 2, "name": "spectral.nn", "rep": 0, "parent": 0, "start": 5.0, "end": 9.0,
         "pairdims": 6},
    ]
    assert tracer.self_times(spans) == {0: 3.0, 1: 3.0, 2: 4.0}
    layers = tracer.layer_metrics(spans)
    assert layers["solver.pi_step_s"] == 3.0
    assert layers["spectral.nn_s"] == 7.0
    assert layers["spectral.nn_calls"] == 2 and layers["spectral.nn_pairdims"] == 12
    assert layers["solver.reassigned_frac"] == 0.25


def test_gate_rejects_a_changed_map(tmp_path):
    wl = workloads.WORKLOADS["eval-remesh"]
    inp = wl.generate(np.random.default_rng(1), True, tmp_path)
    loaded = wl.setup(inp)
    ref = run.Reference()
    assert run.check(wl, inp, loaded, wl.pair(inp, loaded), ref) == []
    outcome = wl.pair(inp, loaded)
    outcome.pi_12.target_of[0] = (outcome.pi_12.target_of[0] + 1) % outcome.pi_12.n_tgt
    (problem,) = run.check(wl, inp, loaded, outcome, ref)
    assert "digest" in problem


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-remesh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
