"""Command-line front end.

Subcommands:
  synth    write a phantom image with ground truth to a directory
  segment  run one of the solvers on an image, writing mask/trace/config
  eval     print a CSV metrics row comparing two label maps

Each segment flag is read by the solvers its help names; given to another
solver it is a usage error. run.json records the solver, the input and the
keys that solver read, and --config drops every other key.

Exit codes: 0 success, 1 usage error, 2 I/O or validation error,
3 solver did not converge (outputs are still written).
"""

import argparse
import json
import sys
from pathlib import Path

from . import _thread_cap, pnm
from .bias import minimize_ms_bias
from .errors import ConvergenceError
from .levelset import segment_levelset
from .metrics import ConfusionCounts
from .phantoms import PHANTOM_KINDS, make_phantom
from .softseg import MsConfig, minimize_ms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NOCONV = 3

# The keys each solver reads, with their defaults. The segment flags, the
# config keys and types --config loads, and the keys run.json records are
# views of this table; a run can be reproduced byte-identically from its
# run.json alone.
_MS_READS = {"classes": 2, "lambda": 1e-3, "eta": 0.5, "max_iters": 500, "rel_tol": 1e-6,
             "tv_eps": 1e-8, "seed": 0, "init": "random"}
READS = {"ms": _MS_READS, "ms-bias": {**_MS_READS, "gamma": 0.1},
         "levelset": {"phases": 1, "lambda": 1e-3, "dt": 0.5, "eps_h": 1.0, "max_iters": 500,
                      "rel_tol": 1e-6, "tv_eps": 1e-8, "seed": 0}}
# every key any solver reads, each with one flag
FLAGS = {key: default for reads in READS.values() for key, default in reads.items()}


class _Parser(argparse.ArgumentParser):
    # a flag is taken only as spelled out: argparse would otherwise run
    # --max-it as --max-iters (subcommand parsers are of this class too)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # the exit-code contract reserves 1 for usage errors (argparse uses 2)
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_trace(path, trace):
    # one column per energy term: (loss, data, tv_y[, tv_b])
    columns = ("iter", "loss", "data_term", "tv_term", "tv_b_term")[: trace.shape[1] + 1]
    lines = [",".join(columns)]
    for i, row in enumerate(trace):
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


def _config_value(key, value, default):
    # a stored value has its flag's type (input: a path string); float flags
    # take ints as well, and no flag takes a bool
    kind = str if default is None else type(default)
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _resolve_segment_params(args):
    stored = {}
    if args.config is not None:
        stored = json.loads(Path(args.config).read_text())
        if not isinstance(stored, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
    # the solver comes first (flag, config, "ms"): its keys are the flags it
    # accepts and the config keys it keeps; the config's other keys are dropped
    solver = args.solver or _config_value("solver", stored.get("solver", "ms"), "ms")
    if solver not in READS:
        raise UsageError(f"unknown solver {solver!r}")
    params = {"input": None, **READS[solver]}
    for key in FLAGS:
        if getattr(args, key) is not None and key not in params:
            raise UsageError(f"--{key.replace('_', '-')} is not read by solver {solver!r}")
    params.update({k: _config_value(k, stored[k], params[k]) for k in params if k in stored})
    params.update({k: v for k, v in vars(args).items() if k in params and v is not None})
    if len(args.paths) == 2:
        params["input"], out_dir = args.paths
    elif len(args.paths) == 1 and params["input"] is not None:
        out_dir = args.paths[0]
    else:
        raise UsageError("expected INPUT OUT_DIR (or --config with a stored input and OUT_DIR)")
    for key, allowed in CHOICES.items():
        if key in params and params[key] not in allowed:
            raise UsageError(f"unknown {key} {params[key]!r}")
    return {"solver": solver, **params}, Path(out_dir)


class UsageError(Exception):
    pass


def _ms_config(p):
    return MsConfig(num_classes=p["classes"], lambda_tv=p["lambda"], step_size=p["eta"],
                    max_iters=p["max_iters"], rel_tol=p["rel_tol"], tv_eps=p["tv_eps"],
                    seed=p["seed"])


# Solver name -> call on (image, params). The solvers are looked up as module
# attributes at call time, so a wrapper installed on this module takes effect.
SOLVE = {
    "ms": lambda x, p: minimize_ms(x, _ms_config(p), p["init"]),
    "ms-bias": lambda x, p: minimize_ms_bias(x, _ms_config(p), p["gamma"], p["init"]),
    "levelset": lambda x, p: segment_levelset(
        x, phases=p["phases"], lambda_tv=p["lambda"], dt=p["dt"], eps_h=p["eps_h"],
        max_iters=p["max_iters"], rel_tol=p["rel_tol"], seed=p["seed"], tv_eps=p["tv_eps"]),
}

# Keys whose flag takes only these values; a --config value outside them is a
# usage error like the flag's.
CHOICES = {"init": ("random", "kmeans")}


def cmd_segment(args):
    params, out = _resolve_segment_params(args)
    image = pnm.load_image(params["input"])

    converged = True
    try:
        result = SOLVE[params["solver"]](image, params)
    except ConvergenceError as err:
        result, converged = err.result, False

    # created only now, so a run rejected at validation leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    trace = result.trace
    pnm.save_labelmap(out / "mask.pgm", result.labels)
    _write_trace(out / "trace.csv", trace)
    if result.bias is not None:
        pnm.save_field_pgm(out / "bias.pgm", result.bias)
        pnm.save_field_bin(out / "bias.bin", result.bias)
    run = dict(params)
    run["command"] = "segment"
    run["results"] = {
        "converged": converged,
        "stop": result.stop,
        "iterations": len(trace) - 1,
        "final_loss": float(trace[-1][0]),
        "centroids": [[float(v) for v in row] for row in result.centroids],
    }
    _write_json(out / "run.json", run)
    if not converged:
        print("solver did not converge; outputs written", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def cmd_eval(args):
    pred = pnm.load_labelmap(args.pred)
    gt = pnm.load_labelmap(args.gt)
    counts = ConfusionCounts.from_maps(pred, gt)  # one table for both metric families
    rc, pri, vi = counts.clustering()
    if args.positive_class is not None:
        overlap = [repr(v) for v in counts.overlap(args.positive_class)]
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

    p_seg = sub.add_parser("segment", help="segment an image", description="A flag's help names "
                           "the solvers that read it, with their defaults.")
    p_seg.add_argument("--solver", choices=READS, help="default ms")
    for key, default in FLAGS.items():
        readers = [f"{solver}: {reads[key]}" for solver, reads in READS.items() if key in reads]
        p_seg.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                           choices=CHOICES.get(key), help=", ".join(readers))
    p_seg.add_argument("--config", help="run.json of an earlier run; flags override it, and "
                       "keys its solver does not read are dropped")
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
