"""Command-line front end: ``refine``, ``eval`` and ``synth``.

Exit codes: 0 on success, 1 on solver failure, 2 on input errors.
"""

import argparse
import dataclasses
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import numpy as np

from . import io as sm_io
from .energies import format_breakdown
from .mesh import load_mesh, write_off
from .metrics import checked_ground_truth, compute_report
from .solver import SolverConfig, check_landmarks, landmark_init, refine
from .spectral import compute_basis, p2p_to_fmap
from .synth import farthest_point_indices, icosphere, jittered_copy
from .variants import VARIANT_KINDS, Variant

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_INPUT = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smoothmatch",
        description="Refine and evaluate vertex-to-vertex maps between triangle meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ref = sub.add_parser("refine", help="refine an initial map pair")
    # --src, --tgt, --out and one of --landmarks/--init-map are required
    # unless --pairs supplies them per line (checked in main)
    p_ref.add_argument("--src", help="source mesh (.off/.obj)")
    p_ref.add_argument("--tgt", help="target mesh (.off/.obj)")
    init = p_ref.add_mutually_exclusive_group()
    init.add_argument("--landmarks", help="landmark pair file (src_idx tgt_idx per line)")
    init.add_argument("--init-map", nargs=2, metavar=("MAP12", "MAP21"),
                      help="initial pointwise map files for both directions")
    p_ref.add_argument("--energy", choices=VARIANT_KINDS, default=Variant.kind)
    p_ref.add_argument("--out", help="output directory")
    p_ref.add_argument("--gt", help="ground-truth file for the 1->2 direction")
    p_ref.add_argument("--k-init", type=int, default=SolverConfig.k_init)
    p_ref.add_argument("--k-final", type=int, default=SolverConfig.k_final)
    p_ref.add_argument("--iters", type=int, default=SolverConfig.n_outer)
    p_ref.add_argument("--gamma-init", type=float, default=SolverConfig.gamma_init)
    p_ref.add_argument("--gamma-final", type=float, default=SolverConfig.gamma_final)
    p_ref.add_argument("--alpha", type=float, default=SolverConfig.alpha,
                       help="spectral coupling weight")
    p_ref.add_argument("--beta", type=float, default=None,
                       help="spatial coupling weight (default: per-energy)")
    p_ref.add_argument("--lam", type=float, default=Variant.lam,
                       help="rigidity weight (arap/shells)")
    p_ref.add_argument("--mu", type=float, default=Variant.mu,
                       help="pointwise bijectivity weight (rhm)")
    p_ref.add_argument("--k-def", type=int, default=None,
                       help="displacement basis size (shells); each iteration uses "
                            "min(k_def, K) for its spectral size K (default: K)")
    p_ref.add_argument("--exact-pi-step", action="store_true",
                       help="use all bijectivity terms in the assignment embedding")
    p_ref.add_argument("--no-normalize", action="store_true",
                       help="skip unit-area normalization of the inputs")
    p_ref.add_argument("--print-config", action="store_true")
    p_ref.add_argument("--conformal", action="store_true",
                       help="add conformal distortion to the printed report")
    p_ref.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for --pairs batch lists")
    p_ref.add_argument("--pairs", help="batch file: src tgt landmarks outdir per line")

    p_eval = sub.add_parser("eval", help="evaluate map files")
    p_eval.add_argument("--src", required=True)
    p_eval.add_argument("--tgt", required=True)
    p_eval.add_argument("--map12", required=True, help="map file mesh1 -> mesh2")
    p_eval.add_argument("--map21", help="map file mesh2 -> mesh1 (enables bijectivity)")
    p_eval.add_argument("--gt", help="ground-truth file (pairs or full map)")
    p_eval.add_argument("--conformal", action="store_true")
    p_eval.add_argument("--out", help="also write the CSV report here")
    p_eval.add_argument("--no-normalize", action="store_true")

    p_syn = sub.add_parser("synth", help="generate synthetic fixtures")
    p_syn.add_argument("fixture", help="fixture name (icosphere)")
    p_syn.add_argument("--subdiv", type=int, default=3)
    p_syn.add_argument("--jitter", type=float, default=0.02,
                       help="vertex noise as a fraction of the bbox diagonal")
    p_syn.add_argument("--landmarks", type=int, default=5)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "refine" and not args.pairs:
        missing = ["--" + name for name in ("src", "tgt", "out") if getattr(args, name) is None]
        if args.landmarks is None and args.init_map is None:
            missing.append("--landmarks or --init-map")
        if missing:
            parser.error("refine: the following arguments are required: " + ", ".join(missing))
    if args.command == "refine" and args.jobs < 1:
        parser.error("--jobs must be at least 1 (got %d)" % args.jobs)
    if args.command == "refine":
        command = _run_batch if args.pairs else _cmd_refine
    else:
        command = _cmd_eval if args.command == "eval" else _cmd_synth
    return _exit_code(command, args)


def _exit_code(command, args):
    """Run one command; input errors exit 2, solver errors exit 1."""
    try:
        return command(args)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError but is a failed solve, not bad input
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError) as exc:
        # OSError: a missing input, or an output path that cannot be written
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


def _require(path, what):
    if not os.path.exists(path):
        raise FileNotFoundError("%s not found: %s" % (what, path))
    return path


def _check_out(path, makedirs):
    """Fail before any work unless ``--out`` can be written.  ``refine``
    creates a directory there (``makedirs``), so the nearest existing path
    on it must be a directory; ``eval`` writes a file there, so it must not
    be a directory and its parent must be an existing one."""
    if os.path.exists(path) and os.path.isdir(path) != makedirs:
        raise ValueError("--out: %s %s" % (
            path, "exists and is not a directory" if makedirs else "is a directory"))
    parent = os.path.dirname(path)
    while makedirs and parent and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if parent and not os.path.isdir(parent):
        raise ValueError("--out: %s is below %s, which %s" % (
            path, parent, "is not a directory" if os.path.exists(parent) else "does not exist"))


def _read_map(path, n_src, n_tgt):
    """The pointwise map in ``path`` from a mesh of ``n_src`` vertices to one of ``n_tgt``."""
    pi = sm_io.read_pointwise_map(_require(path, "map file"), n_tgt)
    if pi.n_src != n_src:
        raise ValueError("%s: %d map entries, mesh has %d vertices" % (path, pi.n_src, n_src))
    return pi


def _read_ground_truth(path, n_src, n_tgt):
    """The checked 1 -> 2 ground truth in ``path``; a bad index names the file."""
    gt = sm_io.read_ground_truth(_require(path, "ground-truth file"))
    try:
        return checked_ground_truth(*gt, n_src, n_tgt)
    except ValueError as exc:
        raise ValueError("%s in %s" % (exc, path)) from None


def _refine_config(args):
    variant = Variant(kind=args.energy, lam=args.lam, mu=args.mu, k_def=args.k_def)
    return SolverConfig(
        k_init=args.k_init, k_final=args.k_final, n_outer=args.iters,
        gamma_init=args.gamma_init, gamma_final=args.gamma_final,
        variant=variant, exact_pi_step=args.exact_pi_step, alpha=args.alpha, beta=args.beta,
    )


def _print_config(config, args):
    print("command refine")
    print("src %s" % args.src)
    print("tgt %s" % args.tgt)
    for obj in (config.variant, config):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                continue
            if isinstance(value, float):
                value = "%g" % value
            print("%s %s" % ("energy" if f.name == "kind" else f.name,
                             "auto" if value is None else value))
    print("normalize %s" % (not args.no_normalize))


def _load_meshes(args):
    """The source and target meshes; ``load_mesh`` names the file of a bad one."""
    return [load_mesh(_require(path, what), normalize=not args.no_normalize)
            for path, what in ((args.src, "source mesh"), (args.tgt, "target mesh"))]


def _cmd_refine(args):
    config = _refine_config(args)
    mesh_1, mesh_2 = _load_meshes(args)
    # every input file is read and checked before any work is done
    if args.landmarks:
        pairs = sm_io.read_index_pairs(_require(args.landmarks, "landmark file"),
                                       (mesh_1.n_vertices, mesh_2.n_vertices))
        try:
            check_landmarks(pairs, mesh_1.n_vertices, mesh_2.n_vertices)
        except ValueError as exc:
            raise ValueError("%s: %s" % (args.landmarks, exc)) from None
    else:
        pi_12 = _read_map(args.init_map[0], mesh_1.n_vertices, mesh_2.n_vertices)
        pi_21 = _read_map(args.init_map[1], mesh_2.n_vertices, mesh_1.n_vertices)
    gt_src = gt_tgt = None
    if args.gt:
        gt_src, gt_tgt = _read_ground_truth(args.gt, mesh_1.n_vertices, mesh_2.n_vertices)
    # --out is created only once the maps exist
    _check_out(args.out, makedirs=True)

    k_mesh = min(mesh_1.n_vertices, mesh_2.n_vertices) - 2
    if k_mesh < 2:
        raise ValueError("meshes are too small to refine")
    if config.k_final < 2:
        raise ValueError("--k-final must be at least 2 (got %d)" % config.k_final)
    k_max = min(config.k_final, k_mesh)
    if args.landmarks and len(pairs) > k_max:
        raise ValueError("%s: %d landmarks need as many eigenpairs; %s" % (
            args.landmarks, len(pairs), "--k-final is %d" % k_max if k_max == config.k_final
            else "these meshes allow %d" % k_max))
    if k_max < config.k_final:
        config = dataclasses.replace(config, k_final=k_max, k_init=min(config.k_init, k_max))
        print("note: spectral sizes reduced to %d for these mesh sizes" % k_max,
              file=sys.stderr)
    if args.print_config:
        _print_config(config, args)
    basis_1 = compute_basis(mesh_1, config.k_final)
    basis_2 = compute_basis(mesh_2, config.k_final)

    if args.landmarks:
        pi_12, pi_21 = landmark_init(pairs, basis_1, basis_2)

    pi_12, pi_21, trace = refine(pi_12, pi_21, mesh_1, mesh_2, basis_1, basis_2, config)

    os.makedirs(args.out, exist_ok=True)
    sm_io.write_pointwise_map(os.path.join(args.out, "map_12.txt"), pi_12)
    sm_io.write_pointwise_map(os.path.join(args.out, "map_21.txt"), pi_21)
    trace.to_csv(os.path.join(args.out, "energy_trace.csv"))
    final = {k: v for k, v in trace.rows[-1].items() if k.startswith("e_")}
    with open(os.path.join(args.out, "energy_report.txt"), "w") as fh:
        fh.write(format_breakdown(final) + "\n")

    k = int(trace.rows[-1]["k"])
    # fmap_NM.txt holds the spectral pull-back of map_NM.txt
    b1, b2 = basis_1.sliced(k), basis_2.sliced(k)
    sm_io.write_fmap(os.path.join(args.out, "fmap_12.txt"), p2p_to_fmap(pi_12, b1, b2))
    sm_io.write_fmap(os.path.join(args.out, "fmap_21.txt"), p2p_to_fmap(pi_21, b2, b1))

    report = compute_report(pi_12, pi_21, mesh_1, mesh_2, gt_src, gt_tgt,
                            with_conformal=args.conformal)
    print(report.as_text())
    return EXIT_OK


def _run_batch(args):
    """Refine every pair of a batch file; one status line per pair.

    A failing pair does not stop the others; the batch exits with the
    worst exit code of its pairs.
    """
    jobs = []
    with open(_require(args.pairs, "batch file"), "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError("%s:%d: batch lines must be: src tgt landmarks outdir"
                                 % (args.pairs, lineno))
            sub = argparse.Namespace(**vars(args))
            sub.src, sub.tgt, sub.landmarks, sub.out = parts
            sub.init_map = None
            sub.pairs = None
            jobs.append(sub)
    parallel = args.jobs > 1 and len(jobs) > 1
    worst = EXIT_OK
    with ProcessPoolExecutor(args.jobs) if parallel else nullcontext() as pool:
        # both maps yield in batch order as the pairs finish
        codes = pool.map(_refine_pair, jobs) if parallel else map(_refine_pair, jobs)
        for i, (sub, code) in enumerate(zip(jobs, codes), start=1):
            print("pair %d/%d %s %s -> %s: %s" % (
                i, len(jobs), sub.src, sub.tgt, sub.out,
                "ok" if code == EXIT_OK else "exit %d" % code), flush=True)
            worst = max(worst, code)
    return worst


def _refine_pair(sub):
    """One batch pair's exit code; an unexpected error fails only this
    pair, as exit 1 with its traceback on stderr."""
    try:
        return _exit_code(_cmd_refine, sub)
    except Exception:
        traceback.print_exc()
        return EXIT_SOLVER


def _cmd_eval(args):
    mesh_1, mesh_2 = _load_meshes(args)
    pi_12 = _read_map(args.map12, mesh_1.n_vertices, mesh_2.n_vertices)
    pi_21 = _read_map(args.map21, mesh_2.n_vertices, mesh_1.n_vertices) if args.map21 else None
    gt_src = gt_tgt = None
    if args.gt:
        gt_src, gt_tgt = _read_ground_truth(args.gt, mesh_1.n_vertices, mesh_2.n_vertices)
    if args.out:
        _check_out(args.out, makedirs=False)

    report = compute_report(pi_12, pi_21, mesh_1, mesh_2, gt_src, gt_tgt,
                            with_conformal=args.conformal)
    csv = sm_io.metrics_csv(report)
    sys.stdout.write(csv)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    return EXIT_OK


def _cmd_synth(args):
    if args.fixture != "icosphere":
        raise ValueError("unknown fixture %r (available: icosphere)" % args.fixture)
    # every flag is checked before --out is created
    if args.seed < 0:
        raise ValueError("--seed must be at least 0 (got %d)" % args.seed)
    try:
        src = icosphere(args.subdiv)
    except ValueError as exc:
        raise ValueError("--subdiv: %s" % exc) from None
    try:
        tgt = jittered_copy(src, args.jitter, seed=args.seed)
    except ValueError as exc:
        raise ValueError("--jitter: %s" % exc) from None
    if not 1 <= args.landmarks <= src.n_vertices:
        raise ValueError("--landmarks must be between 1 and %d (got %d)"
                         % (src.n_vertices, args.landmarks))
    os.makedirs(args.out, exist_ok=True)
    write_off(src, os.path.join(args.out, "src.off"))
    write_off(tgt, os.path.join(args.out, "tgt.off"))
    # dense identity ground truth: vertex i of the source corresponds
    # to vertex i of the jittered copy
    np.savetxt(os.path.join(args.out, "gt.txt"), np.arange(src.n_vertices), fmt="%d")
    lm = farthest_point_indices(src, args.landmarks)
    sm_io.write_index_pairs(os.path.join(args.out, "lm%d.txt" % args.landmarks),
                            np.column_stack([lm, lm]))
    print("wrote %s fixture (%d vertices) to %s" % (args.fixture, src.n_vertices, args.out))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
