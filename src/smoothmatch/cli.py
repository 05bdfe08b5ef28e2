"""Command-line front end: ``refine``, ``eval`` and ``synth``.

Exit codes: 0 on success, 1 on solver failure, 2 on input errors.
"""

import argparse
import dataclasses
import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import numpy as np

from . import io as sm_io
from .energies import EnergyWeights
from .mesh import load_mesh, write_off
from .metrics import checked_ground_truth, compute_report
from .solver import SolverConfig, landmark_init, refine
from .spectral import compute_basis
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
    p_ref.add_argument("--energy", choices=VARIANT_KINDS, default="dirichlet")
    p_ref.add_argument("--out", help="output directory")
    p_ref.add_argument("--gt", help="ground-truth file for the 1->2 direction")
    p_ref.add_argument("--k-init", type=int, default=20)
    p_ref.add_argument("--k-final", type=int, default=100)
    p_ref.add_argument("--iters", type=int, default=9)
    p_ref.add_argument("--gamma-init", type=float, default=0.1)
    p_ref.add_argument("--gamma-final", type=float, default=1.0)
    p_ref.add_argument("--spectral-bij", type=float, default=1.0)
    p_ref.add_argument("--alpha", type=float, default=0.1,
                       help="spectral coupling weight")
    p_ref.add_argument("--beta", type=float, default=None,
                       help="spatial coupling weight (default: per-energy)")
    p_ref.add_argument("--lam", type=float, default=1.0,
                       help="rigidity weight (arap/shells)")
    p_ref.add_argument("--mu", type=float, default=1e4,
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
    except (FileNotFoundError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


def _require(path, what):
    if not os.path.exists(path):
        raise FileNotFoundError("%s not found: %s" % (what, path))
    return path


def _refine_config(args):
    variant = Variant(kind=args.energy, lam=args.lam, mu=args.mu, k_def=args.k_def)
    beta = variant.default_beta if args.beta is None else args.beta
    weights = EnergyWeights(spectral_bij=args.spectral_bij, alpha=args.alpha, beta=beta)
    return SolverConfig(
        k_init=args.k_init, k_final=args.k_final, n_outer=args.iters,
        gamma_init=args.gamma_init, gamma_final=args.gamma_final,
        variant=variant, weights=weights, exact_pi_step=args.exact_pi_step,
    )


def _print_config(config, args):
    print("command refine")
    print("src %s" % args.src)
    print("tgt %s" % args.tgt)
    for obj in (config.variant, config, config.weights):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            # weights.gamma is overwritten by the gamma_init/gamma_final schedule
            if dataclasses.is_dataclass(value) or f.name == "gamma":
                continue
            if isinstance(value, float):
                value = "%g" % value
            print("%s %s" % ("energy" if f.name == "kind" else f.name,
                             "auto" if value is None else value))
    print("normalize %s" % (not args.no_normalize))


def _cmd_refine(args):
    config = _refine_config(args)
    mesh_1 = load_mesh(_require(args.src, "source mesh"), normalize=not args.no_normalize)
    mesh_2 = load_mesh(_require(args.tgt, "target mesh"), normalize=not args.no_normalize)
    # every input file is read and checked before any work is done
    if args.landmarks:
        pairs = sm_io.read_index_pairs(_require(args.landmarks, "landmark file"))
    else:
        path_12, path_21 = args.init_map
        pi_12 = sm_io.read_pointwise_map(_require(path_12, "initial map"), mesh_2.n_vertices)
        pi_21 = sm_io.read_pointwise_map(_require(path_21, "initial map"), mesh_1.n_vertices)
        if pi_12.n_src != mesh_1.n_vertices or pi_21.n_src != mesh_2.n_vertices:
            raise ValueError("initial map length does not match mesh size")
    gt_src = gt_tgt = None
    if args.gt:
        gt_src, gt_tgt = checked_ground_truth(
            *sm_io.read_ground_truth(_require(args.gt, "ground-truth file")),
            mesh_1.n_vertices, mesh_2.n_vertices)

    k_max = min(config.k_final, mesh_1.n_vertices - 2, mesh_2.n_vertices - 2)
    if k_max < 2:
        raise ValueError("meshes are too small to refine")
    if k_max < config.k_final:
        config.k_final = k_max
        config.k_init = min(config.k_init, k_max)
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
    if len(trace):
        from .energies import format_breakdown

        final = {k: v for k, v in trace.rows[-1].items() if k.startswith("e_")}
        with open(os.path.join(args.out, "energy_report.txt"), "w") as fh:
            fh.write(format_breakdown(final) + "\n")

    from .spectral import p2p_to_fmap
    k = int(trace.rows[-1]["k"]) if len(trace) else config.k_final
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
    run = functools.partial(_exit_code, _cmd_refine)
    parallel = args.jobs > 1 and len(jobs) > 1
    worst = EXIT_OK
    with ProcessPoolExecutor(args.jobs) if parallel else nullcontext() as pool:
        # both maps yield in batch order as the pairs finish
        codes = pool.map(run, jobs) if parallel else map(run, jobs)
        for i, (sub, code) in enumerate(zip(jobs, codes), start=1):
            print("pair %d/%d %s %s -> %s: %s" % (
                i, len(jobs), sub.src, sub.tgt, sub.out,
                "ok" if code == EXIT_OK else "exit %d" % code), flush=True)
            worst = max(worst, code)
    return worst


def _cmd_eval(args):
    mesh_1 = load_mesh(_require(args.src, "source mesh"), normalize=not args.no_normalize)
    mesh_2 = load_mesh(_require(args.tgt, "target mesh"), normalize=not args.no_normalize)
    pi_12 = sm_io.read_pointwise_map(_require(args.map12, "map file"), mesh_2.n_vertices)
    if pi_12.n_src != mesh_1.n_vertices:
        raise ValueError("map length %d does not match mesh size %d"
                         % (pi_12.n_src, mesh_1.n_vertices))
    pi_21 = None
    if args.map21:
        pi_21 = sm_io.read_pointwise_map(_require(args.map21, "map file"), mesh_1.n_vertices)
        if pi_21.n_src != mesh_2.n_vertices:
            raise ValueError("map length %d does not match mesh size %d"
                             % (pi_21.n_src, mesh_2.n_vertices))
    gt_src = gt_tgt = None
    if args.gt:
        gt_src, gt_tgt = sm_io.read_ground_truth(_require(args.gt, "ground-truth file"))

    report = compute_report(pi_12, pi_21, mesh_1, mesh_2, gt_src, gt_tgt,
                            with_conformal=args.conformal)
    csv = sm_io.metrics_csv(report, with_conformal=args.conformal)
    sys.stdout.write(csv)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    return EXIT_OK


def _cmd_synth(args):
    if args.fixture != "icosphere":
        raise ValueError("unknown fixture %r (available: icosphere)" % args.fixture)
    os.makedirs(args.out, exist_ok=True)
    src = icosphere(args.subdiv)
    tgt = jittered_copy(src, args.jitter, seed=args.seed)
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
