#!/usr/bin/env python3
"""Benchmark of smoothmatch map refinement and map evaluation.

Run from the root of a checkout::

    python3 bench/run.py --workload sphere-dirichlet --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --selfcheck     # every workload on tiny inputs, traced

A run generates its inputs from ``--seed`` (never timed), then repeats
set-up plus pair work until ``--seconds`` have passed, at least once.
Every repetition loads its meshes afresh, so no repetition reuses
another's caches.  Set-up is repeated at least three times and for at
least two seconds.  Each workload runs in this one process, with the
BLAS thread count left at its default.

End-to-end metrics (``--trace 0``):

* ``setup_s`` -- median set-up time: loading both meshes and computing
  both 100-eigenpair bases (refine workloads), or loading both meshes
  and reading both maps and the ground truth (``eval-remesh``).
* ``pair_s`` -- median pair time: ``landmark_init`` + ``refine`` +
  ``compute_report`` (refine workloads), or ``compute_report`` with
  conformal distortion (``eval-remesh``).
* ``peak_rss_mb`` -- ``ru_maxrss`` of this process.  glibc's mmap
  threshold is pinned at its 128 KiB default first, so large arrays go
  back to the system when freed; with the dynamic threshold the peak
  varied by one distance matrix between identical runs.

With ``--trace 1`` the same repetitions are run untraced, then again
with every layer's public functions wrapped in spans (see
``tracer.py``), and the per-layer metrics are printed instead.  Times
ending in ``_s`` are self times, except ``solver.refine_s``,
``solver.init_s`` and ``metrics.report_s``, which include their
children.  ``trace.overhead_frac`` is traced over untraced ``pair_s``,
minus one.  ``map.accuracy``, ``map.bijectivity``, ``map.smoothness``,
``map.coverage`` and ``map.conformal`` are the map-quality report; on
the refine workloads the conformal distortion of the refined map is
computed outside the timed region.  Map quality depends on the seed
far more than any bound allows (on these near-symmetric spheres a
refinement from 5 landmarks settles in different basins), so it is
reported, not bounded; the map digest shows whether a change moved the
maps.  The spans and the environment are written to
``<workdir>/trace-<workload>-seed<seed>.json``.

A repetition fails when it raises, when a map has the wrong length or
an index out of range, when its map digest differs from the first
repetition's, when a refined accuracy is not below the landmark-init
accuracy, or when an energy or metric is not finite.  The last line of
standard output is the JSON result; the line before it holds the
digest, the repetition counts, ``failed_frac`` and the environment.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# set-up is repeated at least this often and for at least this long
MIN_SETUPS = 3
MIN_SETUP_S = 2.0
QUALITY = ("accuracy", "bijectivity", "smoothness", "coverage", "conformal")
M_MMAP_THRESHOLD = -3


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import smoothmatch from this checkout's sources, never from elsewhere."""
    package = SRC / "smoothmatch"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing("no smoothmatch sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import smoothmatch

    if Path(smoothmatch.__file__).resolve().parent != package.resolve():
        raise ProgramMissing("smoothmatch was imported from %s" % smoothmatch.__file__)
    return smoothmatch


def pin_mmap_threshold():
    """Fix glibc's mmap threshold, which also stops its dynamic growth."""
    try:
        return bool(ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, 128 * 1024))
    except (OSError, AttributeError):
        return False


def git_commit(root):
    """Commit of a git checkout, read from ``.git`` directly; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, pinned):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "smoothmatch").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "mmap_threshold_pinned": pinned,
    }


def map_digest(outcome):
    h = hashlib.sha256()
    for pi in (outcome.pi_12, outcome.pi_21):
        h.update(pi.target_of.astype("<i8").tobytes())
    return h.hexdigest()[:16]


def timing_summary(values):
    """Median plus the highest percentile with ten samples beyond it
    (the maximum when there are fewer than twenty samples)."""
    out = {"n": len(values), "median": statistics.median(values)}
    for p in (99, 90, 50):
        if len(values) * (100 - p) >= 1000:
            if p != 50:
                out["p%d" % p] = statistics.quantiles(values, n=100)[p - 1]
            return out
    out["max"] = max(values)
    return out


class Reference:
    """What the first good repetition fixes for every later one."""

    def __init__(self):
        self.digest = None
        self.init_accuracy = None
        self.quality = None


def check(wl, inp, loaded, outcome, ref):
    """Correctness gate of one repetition; returns the problems found."""
    from smoothmatch import metrics

    problems = []
    n_1, n_2 = loaded.mesh_1.n_vertices, loaded.mesh_2.n_vertices
    for pi, n_src, n_tgt in ((outcome.pi_12, n_1, n_2), (outcome.pi_21, n_2, n_1)):
        t = pi.target_of
        if t.shape != (n_src,) or t.min() < 0 or t.max() >= n_tgt:
            problems.append("map of wrong length or out of range")
    report = {k: getattr(outcome.report, k) for k in QUALITY}
    if ref.quality is None and not problems:
        # first good repetition: untimed extras
        if wl.refines:
            ref.init_accuracy = metrics.accuracy_metric(outcome.init[0], *inp.gt, loaded.mesh_2)
            report["conformal"] = metrics.conformal_distortion(
                outcome.pi_12, loaded.mesh_1, loaded.mesh_2)
        ref.quality = report
    values = [v for v in report.values() if v is not None] + list(outcome.energies)
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite energy or metric")
    if wl.refines and not report["accuracy"] < ref.init_accuracy:
        problems.append("refined accuracy %.6g not below init %.6g"
                        % (report["accuracy"], ref.init_accuracy))
    digest = map_digest(outcome)
    if ref.digest is None:
        if not problems:
            ref.digest = digest
    elif digest != ref.digest:
        problems.append("map digest %s differs from %s" % (digest, ref.digest))
    return problems


def repeat(wl, inp, seconds, ref, tracer=None):
    """Timed repetitions for ``seconds`` (at least one).

    Returns the set-up and pair times of the repetitions that completed,
    the problems of those that failed, and the number attempted.
    """
    setups, pairs, failures = [], [], []
    attempts = 0
    start = time.perf_counter()
    while not attempts or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.rep = attempts
        attempts += 1
        try:
            t0 = time.perf_counter()
            loaded = wl.setup(inp)
            t1 = time.perf_counter()
            outcome = wl.pair(inp, loaded)
            t2 = time.perf_counter()
            problems = check(wl, inp, loaded, outcome, ref)
        except Exception:
            problems = [traceback.format_exc()]
        else:
            setups.append(t1 - t0)
            pairs.append(t2 - t1)
        loaded = outcome = None
        if problems:
            failures.append(problems)
            print("repetition failed: %s" % "; ".join(problems), file=sys.stderr)
    return setups, pairs, failures, attempts


def run_workload(name, seed, seconds, trace, workdir, tiny=False, pinned=False):
    """One benchmark run; returns ``(detail, e2e_values, layer_values)``."""
    import numpy as np

    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    inputs_dir = Path(tempfile.mkdtemp(prefix=name + "-", dir=workdir))
    try:
        inp = wl.generate(np.random.default_rng(seed), tiny, inputs_dir)
        ref = Reference()
        setups, pairs, failures, attempted = repeat(wl, inp, seconds, ref)
        while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_S:
            t0 = time.perf_counter()
            wl.setup(inp)
            setups.append(time.perf_counter() - t0)
        traced_pairs, layers, spans = [], {}, []
        if trace:
            tr = tracing.Tracer()
            uninstall = tr.install()
            try:
                _, traced_pairs, traced_failures, traced_attempts = repeat(
                    wl, inp, seconds, ref, tr)
            finally:
                uninstall()
            failures += traced_failures
            attempted += traced_attempts
            spans = tr.spans
            per_rep = [tracing.layer_metrics([s for s in spans if s["rep"] == r])
                       for r in sorted({s["rep"] for s in spans})]
            layers = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    if not pairs or (trace and not traced_pairs):
        raise RuntimeError("%s: no repetition completed" % name)

    e2e = {
        "setup_s": statistics.median(setups),
        "pair_s": statistics.median(pairs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if trace:
        layers["trace.overhead_frac"] = statistics.median(traced_pairs) / e2e["pair_s"] - 1.0
        layers.update(("map." + k, v) for k, v in ref.quality.items())
    detail = {
        "workload": name,
        "digest": ref.digest,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "setup_s": timing_summary(setups),
        "pair_s": timing_summary(pairs),
        "map": ref.quality,
        "init_accuracy": ref.init_accuracy,
        "env": environment(seed, pinned),
    }
    if trace:
        detail["traced_pair_s"] = timing_summary(traced_pairs)
        out = workdir / ("trace-%s-seed%d.json" % (name, seed))
        out.write_text(json.dumps({"detail": detail, "layers": layers, "spans": spans}))
    return detail, e2e, layers


def result_line(spec, detail, values, key):
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[key]},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true",
                   help="run every workload on tiny inputs, traced, and check the output")
    p.add_argument("--workdir", type=Path, default=BENCH / ".work",
                   help="generated inputs (removed after the run) and trace files")
    args = p.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    pinned = pin_mmap_threshold()
    try:
        load_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ProgramMissing, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if not args.selfcheck and args.workload not in names:
        print("error: unknown workload %r (expected one of %s)"
              % (args.workload, ", ".join(names)), file=sys.stderr)
        return 2

    if args.selfcheck:
        ok = True
        for name in names:
            detail, e2e, layers = run_workload(name, args.seed, 0, True, args.workdir,
                                             tiny=True, pinned=pinned)
            for key, values in (("end_to_end", e2e), ("per_layer", layers)):
                line = result_line(spec, detail, values, key)
                ok &= line["correct"]
                print(json.dumps(line))
        print(json.dumps({"selfcheck": "ok" if ok else "failed"}))
        return 0 if ok else 1

    try:
        detail, e2e, layers = run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.workdir, pinned=pinned)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in [*e2e.items(), *(("map." + k, v) for k, v in detail["map"].items())]:
        print("%-16s %-12.6g %s" % (name, value, units[name]))
    print(json.dumps(detail))
    key = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(result_line(spec, detail, layers if args.trace else e2e, key)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
