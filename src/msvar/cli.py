"""Command-line front end.

Subcommands:
  synth    write a phantom image with ground truth to a directory
  segment  run one of the solvers on an image, writing mask/trace/config
  eval     print a CSV metrics row comparing two label maps

Exit codes: 0 success, 1 usage error, 2 I/O or validation error,
3 solver did not converge (outputs are still written).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import _thread_cap, pnm
from .bias import minimize_ms_bias
from .errors import ConvergenceError
from .levelset import segment_levelset
from .metrics import clustering_metrics, overlap_metrics
from .phantoms import PHANTOM_KINDS, make_phantom
from .softseg import MsConfig, hard_mask, minimize_ms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NOCONV = 3

SOLVERS = ("ms", "ms-bias", "levelset")

# Fully resolved parameter set recorded in run.json; a run can be reproduced
# byte-identically from that file alone.
SEGMENT_DEFAULTS = {
    "solver": "ms",
    "input": None,
    "classes": 2,
    "phases": 1,
    "lambda": 1e-3,
    "gamma": 0.1,
    "eta": 0.5,
    "dt": 0.5,
    "eps_h": 1.0,
    "max_iters": 500,
    "rel_tol": 1e-6,
    "tv_eps": 1e-8,
    "seed": 0,
    "init": "random",
}


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 1 for usage errors (argparse uses 2)
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_trace(path, trace, columns):
    lines = [",".join(columns)]
    for i, row in enumerate(np.atleast_2d(trace)):
        lines.append(",".join([str(i)] + [repr(float(v)) for v in row]))
    path.write_text("\n".join(lines) + "\n")


def cmd_synth(args):
    image, labels, bias = make_phantom(args.kind, args.size, args.sigma, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = ["image.pgm", "gt.pgm", "manifest.json"]
    pnm.save_image(out / "image.pgm", image)
    pnm.save_labelmap(out / "gt.pgm", labels)
    if bias is not None:
        pnm.save_field_bin(out / "bias_true.bin", bias)
        files.append("bias_true.bin")
    manifest = {
        "command": "synth",
        "kind": args.kind,
        "size": args.size,
        "noise_sigma": args.sigma,
        "seed": args.seed,
        "files": sorted(files),
    }
    _write_json(out / "manifest.json", manifest)
    for name in sorted(files):
        print(out / name)
    return EXIT_OK


def _resolve_segment_params(args):
    params = dict(SEGMENT_DEFAULTS)
    if args.config is not None:
        loaded = json.loads(Path(args.config).read_text())
        params.update({k: loaded[k] for k in SEGMENT_DEFAULTS if k in loaded})
    flag_map = {
        "solver": args.solver,
        "classes": args.classes,
        "phases": args.phases,
        "lambda": args.lambda_tv,
        "gamma": args.gamma,
        "eta": args.eta,
        "dt": args.dt,
        "eps_h": args.eps_h,
        "max_iters": args.max_iters,
        "rel_tol": args.rel_tol,
        "tv_eps": args.tv_eps,
        "seed": args.seed,
        "init": args.init,
    }
    params.update({k: v for k, v in flag_map.items() if v is not None})
    if len(args.paths) == 2:
        params["input"], out_dir = args.paths
    elif len(args.paths) == 1 and params["input"] is not None:
        out_dir = args.paths[0]
    else:
        raise UsageError("expected INPUT OUT_DIR (or --config with a stored input and OUT_DIR)")
    if params["solver"] not in SOLVERS:
        raise UsageError(f"unknown solver {params['solver']!r}")
    return params, Path(out_dir)


class UsageError(Exception):
    pass


def _hard_region_means(image, labels, num_classes):
    means = np.zeros((num_classes, image.shape[2]))
    for k in range(num_classes):
        sel = labels == k
        if sel.any():
            means[k] = image[sel].mean(axis=0)
    return means


def cmd_segment(args):
    params, out = _resolve_segment_params(args)
    image = pnm.load_image(params["input"])
    out.mkdir(parents=True, exist_ok=True)

    converged = True
    bias_field = None
    if params["solver"] in ("ms", "ms-bias"):
        cfg = MsConfig(
            num_classes=params["classes"],
            lambda_tv=params["lambda"],
            step_size=params["eta"],
            max_iters=params["max_iters"],
            rel_tol=params["rel_tol"],
            tv_eps=params["tv_eps"],
            seed=params["seed"],
        )
        if params["solver"] == "ms":
            columns = ["iter", "loss", "data_term", "tv_term"]
            try:
                seg, centroids, trace = minimize_ms(image, cfg, params["init"])
            except ConvergenceError as err:
                (seg, centroids), trace, converged = err.result, err.trace, False
        else:
            columns = ["iter", "loss", "data_term", "tv_term", "tv_b_term"]
            try:
                seg, bias_field, centroids, trace = minimize_ms_bias(
                    image, cfg, params["gamma"], params["init"]
                )
            except ConvergenceError as err:
                (seg, bias_field, centroids), trace, converged = err.result, err.trace, False
        mask = hard_mask(seg)
    else:
        columns = ["iter", "loss", "data_term", "tv_term"]
        try:
            mask, trace = segment_levelset(
                image,
                phases=params["phases"],
                lambda_tv=params["lambda"],
                dt=params["dt"],
                eps_h=params["eps_h"],
                max_iters=params["max_iters"],
                rel_tol=params["rel_tol"],
                seed=params["seed"],
            )
        except ConvergenceError as err:
            (mask, trace), converged = err.result, False
        centroids = _hard_region_means(image, mask, 2 ** params["phases"])

    pnm.save_labelmap(out / "mask.pgm", mask)
    _write_trace(out / "trace.csv", trace, columns)
    if bias_field is not None:
        pnm.save_field_pgm(out / "bias.pgm", bias_field)
        pnm.save_field_bin(out / "bias.bin", bias_field)
    run = dict(params)
    run["command"] = "segment"
    run["results"] = {
        "converged": converged,
        "iterations": len(trace) - 1,
        "final_loss": float(trace[-1][0]),
        "centroids": [[float(v) for v in row] for row in centroids],
    }
    _write_json(out / "run.json", run)
    if not converged:
        print("solver did not converge; outputs written", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def cmd_eval(args):
    pred = pnm.load_labelmap(args.pred)
    gt = pnm.load_labelmap(args.gt)
    if pred.shape != gt.shape:
        raise ValueError(f"dimension mismatch: pred {pred.shape} vs gt {gt.shape}")
    rc, pri, vi = clustering_metrics(pred, gt)
    if args.positive_class is not None:
        overlap = [repr(v) for v in overlap_metrics(pred, gt, args.positive_class)]
    else:
        overlap = ["", "", "", ""]
    print("iou,dice,precision,recall,rc,pri,vi")
    print(",".join(overlap + [repr(rc), repr(pri), repr(vi)]))
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="msvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a phantom image with ground truth")
    p_synth.add_argument("kind", choices=PHANTOM_KINDS)
    p_synth.add_argument("size", type=int)
    p_synth.add_argument("sigma", type=float)
    p_synth.add_argument("seed", type=int)
    p_synth.add_argument("out_dir")

    p_seg = sub.add_parser("segment", help="segment an image")
    p_seg.add_argument("--solver", choices=SOLVERS)
    p_seg.add_argument("--classes", type=int)
    p_seg.add_argument("--phases", type=int)
    p_seg.add_argument("--lambda", dest="lambda_tv", type=float)
    p_seg.add_argument("--gamma", type=float)
    p_seg.add_argument("--eta", type=float)
    p_seg.add_argument("--dt", type=float)
    p_seg.add_argument("--eps-h", dest="eps_h", type=float)
    p_seg.add_argument("--max-iters", dest="max_iters", type=int)
    p_seg.add_argument("--rel-tol", dest="rel_tol", type=float)
    p_seg.add_argument("--tv-eps", dest="tv_eps", type=float)
    p_seg.add_argument("--seed", type=int)
    p_seg.add_argument("--init", choices=("random", "kmeans"))
    p_seg.add_argument("--config", help="run.json from a previous run; flags override")
    p_seg.add_argument("paths", nargs="+", metavar="INPUT OUT_DIR")

    p_eval = sub.add_parser("eval", help="compare two label maps")
    p_eval.add_argument("pred")
    p_eval.add_argument("gt")
    p_eval.add_argument("--positive-class", dest="positive_class", type=int)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _thread_cap()
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "segment":
            return cmd_segment(args)
        return cmd_eval(args)
    except UsageError as err:
        print(f"msvar: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"msvar: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
