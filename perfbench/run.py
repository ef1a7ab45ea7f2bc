"""Benchmark of `msvar segment`: one workload per process, a closed loop of
one caller, every output checked.

    python3 perfbench/run.py --workload ms-4phase-256 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; msvar is imported from ./src. With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a record with machine facts,
per-operation times and (traced) spans goes to perfbench/runs/. See README.md.
"""

import os
import sys

# One caller and no extra threads: BLAS must not start a pool of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import glob
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import kernels  # noqa: E402
import phantom  # noqa: E402
import speed  # noqa: E402
from tracing import ROOT_LAYER, Tracer, layer_totals, self_times  # noqa: E402

# set-up is measured this many times, each in a fresh process
SETUP_REPEATS = 9
# every run makes at least this many timed operations, so that the
# byte-identity check always has a pair to compare
MIN_OPS = 2
WARMUP_SIZE = 64
# after each operation the compute reference runs for this share of its
# time (at least MIN_REFERENCE_S), and for FIRST_REFERENCE_S before the first
REFERENCE_SHARE = 0.1
MIN_REFERENCE_S = 0.05
FIRST_REFERENCE_S = 0.3


@dataclass(frozen=True)
class Workload:
    solver: str
    kind: str
    size: int
    sigma: float
    classes: int
    flags: tuple
    iou_floor: float
    corr_floor: float | None = None
    tv_eps: float = 1e-8
    gamma: float = 0.1


WORKLOADS = {
    "ms-4phase-256": Workload(
        "ms", "four-phase", 256, 0.05, 4,
        ("--solver", "ms", "--classes", "4", "--lambda", "1e-3", "--eta", "0.5",
         "--init", "kmeans", "--seed", "0", "--max-iters", "100"),
        iou_floor=0.90,
    ),
    "bias-ramp-128": Workload(
        "ms-bias", "ramp-bias", 128, 0.02, 2,
        ("--solver", "ms-bias", "--classes", "2", "--lambda", "1e-3", "--eta", "2",
         "--gamma", "0.1", "--tv-eps", "1e-2", "--init", "kmeans", "--seed", "0",
         "--max-iters", "100"),
        iou_floor=0.98, corr_floor=0.5, tv_eps=1e-2,
    ),
    "levelset-2phase-256": Workload(
        "levelset", "two-phase", 256, 0.05, 2,
        ("--solver", "levelset", "--phases", "1", "--lambda", "1e-2", "--dt", "1",
         "--eps-h", "1", "--seed", "0", "--max-iters", "200"),
        iou_floor=0.95,
    ),
    "ms-2phase-1024": Workload(
        "ms", "two-phase", 1024, 0.05, 2,
        ("--solver", "ms", "--classes", "2", "--lambda", "1e-3", "--eta", "0.5",
         "--init", "kmeans", "--seed", "0", "--max-iters", "10"),
        iou_floor=0.99,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s", "segment_s": "s", "peak_rss_mib": "MiB", "mean_iou": "ratio", "final_energy": "energy",
}

# per-layer metric -> traced layer whose self time it reports
LAYER_TIMES = {
    "cli.self_s": ROOT_LAYER,
    "pnm.read_s": "pnm.read",
    "pnm.write_s": "pnm.write",
    "softseg.init_s": "softseg.init",
    "softseg.softmax_s": "softseg.softmax",
    "softseg.centroids_s": "softseg.centroids",
    "softseg.solve_self_s": "softseg.solve",
    "grid.tv_s": "grid.tv",
    "grid.tv_grad_s": "grid.tv_grad",
    "bias.centroids_s": "bias.centroids",
    "bias.grad_b_s": "bias.grad_b",
    "bias.solve_self_s": "bias.solve",
    "levelset.step_s": "levelset.step",
    "levelset.energy_s": "levelset.energy",
    "levelset.solve_self_s": "levelset.solve",
}
LAYER_CALLS = {
    "softseg.softmax_calls": "softseg.softmax",
    "grid.tv_calls": "grid.tv",
    "grid.tv_grad_calls": "grid.tv_grad",
    "levelset.step_calls": "levelset.step",
    "levelset.energy_calls": "levelset.energy",
}
OUTPUTS = {
    "ms": ("mask.pgm", "trace.csv", "run.json"),
    "ms-bias": ("mask.pgm", "trace.csv", "run.json", "bias.pgm", "bias.bin"),
    "levelset": ("mask.pgm", "trace.csv", "run.json"),
}
SOLVER_SPANS = {"ms": "cli.minimize_ms", "ms-bias": "cli.minimize_ms_bias", "levelset": "cli.segment_levelset"}


def import_cli():
    """Import msvar.cli from this checkout's src/, or stop without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import msvar.cli as cli
    except ImportError as err:
        sys.exit(f"perfbench: cannot import msvar from {SRC}: {err}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: msvar was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup_child(workload, seed, directory):
    """Body of one set-up process: import msvar's CLI, synthesise, write inputs."""
    import_cli()
    wl = WORKLOADS[workload]
    directory.mkdir(parents=True, exist_ok=True)
    phantom.write_inputs(phantom.make(wl.kind, wl.size, wl.sigma, seed), directory)
    print(time.monotonic())


def measure_setups(workload, seed, work):
    """SETUP_REPEATS set-ups in fresh interpreters, each between two spawn references.

    Returns (normalised seconds, wall seconds, reference seconds)."""
    refs, wall = [speed.spawn_seconds()], []
    for i in range(SETUP_REPEATS):
        wall.append(speed.spawn_seconds(
            (sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only", str(work / f"setup-{i}"))
        ))
        refs.append(speed.spawn_seconds())
    norm = [speed.normalised(t, refs[i], refs[i + 1], speed.SPAWN_REFERENCE_S) for i, t in enumerate(wall)]
    return norm, wall, refs


def segment(cli, wl, image_path, out_dir, tracer=None):
    """One operation: `msvar segment` through the CLI entry point. Returns (exit code, seconds)."""
    argv = ["segment", *wl.flags, str(image_path), str(out_dir)]
    root = tracer.span("cli.main", ROOT_LAYER) if tracer else contextlib.nullcontext()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            with root:
                code = cli.main(argv)
            return code, time.perf_counter() - start
    except Exception:  # a crash is a failed operation; the loop goes on
        traceback.print_exc()
        return None, float("nan")


def check_operation(cli, wl, ph, inputs, out_dir):
    """Run every output check on one operation. Returns (problems, facts)."""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
    missing = sorted(set(OUTPUTS[wl.solver]) - set(files))
    if missing:
        return [f"outputs missing: {', '.join(missing)}"], {"files": files}
    results = checks.load_results(files["run.json"])
    mask = phantom.read_pgm(out_dir / "mask.pgm")
    problems = checks.check_mask(mask, ph.labels.shape, wl.classes)
    if problems:
        return problems, {"files": files}
    mean_iou = checks.best_mean_iou(mask, ph.labels, wl.classes)
    problems += checks.check_iou(mean_iou, wl.iou_floor)

    argv = ["eval", str(out_dir / "mask.pgm"), str(inputs / "gt.pgm")]
    if wl.classes == 2:
        argv += ["--positive-class", "1"]
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    eval_s = time.perf_counter() - start
    if code != 0:
        problems.append(f"msvar eval exited {code}")
    else:
        problems += checks.check_eval_row(checks.parse_eval(stdout.getvalue()), mask, ph.labels, wl.classes)

    header, rows = checks.parse_trace(files["trace.csv"].decode())
    problems += checks.check_trace(header, rows, results, monotone=wl.solver != "levelset")
    if wl.solver == "levelset":
        problems += checks.check_region_means(results["centroids"], ph.image, mask, wl.classes)
    if wl.solver == "ms-bias":
        b = np.frombuffer(files["bias.bin"], dtype="<f8").reshape(ph.labels.shape)
        problems += checks.check_bias(b, ph.bias, wl.corr_floor)
    facts = {"files": files, "results": results, "mean_iou": mean_iou, "eval_s": eval_s}
    return problems, facts


def check_all(cli, wl, ph, inputs, ops):
    """Check each completed operation; ops are (exit code, seconds, out dir). Returns (problems, facts of the first)."""
    problems, first = [], None
    for code, _, out_dir in ops:
        if code not in (0, 3):
            continue
        op_problems, facts = check_operation(cli, wl, ph, inputs, out_dir)
        if "results" in facts:
            op_problems += checks.check_exit(code, facts["results"])
        if first is None:
            first = facts
        else:
            op_problems += checks.check_identical(first["files"], facts["files"])
        problems += [f"{out_dir.name}: {p}" for p in op_problems]
    return problems, first


def timed_run(cli, wl, seconds, ph, inputs, work, reference):
    ops, refs = [], [reference.per_call(FIRST_REFERENCE_S)]
    start = time.monotonic()
    while len(ops) < MIN_OPS or time.monotonic() - start < seconds:
        out_dir = work / f"op-{len(ops)}"
        ops.append(segment(cli, wl, inputs / "image.pgm", out_dir) + (out_dir,))
        refs.append(reference.per_call(max(MIN_REFERENCE_S, REFERENCE_SHARE * ops[-1][1])))
    problems, first = check_all(cli, wl, ph, inputs, ops)
    done = [speed.normalised(t, refs[i], refs[i + 1], speed.COMPUTE_CALL_S)
            for i, (code, t, _) in enumerate(ops) if code in (0, 3)]
    metrics = {
        "segment_s": statistics.median(done) if done else float("nan"),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if first is not None and "results" in first:
        metrics["mean_iou"] = first["mean_iou"]
        metrics["final_energy"] = first["results"]["final_loss"]
    return ops, problems, metrics, {"reference_s": refs, "segment_s": done}


def traced_run(cli, wl, seconds, ph, inputs, work, reference):
    """Untraced, traced and memory-traced operations, then the standalone kernels."""
    image = inputs / "image.pgm"
    untraced = segment(cli, wl, image, work / "op-0") + (work / "op-0",)
    with Tracer() as tracer:
        traced = segment(cli, wl, image, work / "op-1", tracer) + (work / "op-1",)
    tracemalloc.start()
    try:
        mem = segment(cli, wl, image, work / "op-2") + (work / "op-2",)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ops = [untraced, traced, mem]
    problems, first = check_all(cli, wl, ph, inputs, ops)

    spans = tracer.spans
    roots = [s for s in spans if s.parent is None]
    root_s = roots[0].duration if roots else float("nan")
    if abs(sum(self_times(spans)) - root_s) > 1e-6:
        problems.append("per-layer self times do not add up to the traced segment_s")
    times, calls = layer_totals(spans)
    metrics = {name: times.get(layer, 0.0) for name, layer in LAYER_TIMES.items()}
    metrics.update({name: calls.get(layer, 0) for name, layer in LAYER_CALLS.items()})
    metrics["cli.segment_s"] = root_s
    metrics["trace.overhead_s"] = traced[1] - untraced[1]
    paths = {s.note["path"] for s in spans if "path" in s.note}
    metrics["pnm.bytes"] = sum(os.path.getsize(p) for p in paths if os.path.exists(p))

    results = (first or {}).get("results", {})
    iterations = results.get("iterations", 0)
    if wl.solver == "levelset":
        evals, accepted = calls.get("levelset.energy", 0), calls.get("levelset.step", 0)
    else:
        evals = calls.get("softseg.softmax", 0)
        accepted = sum(1 for s in spans if s.note.get("accepted"))
    solve_s = sum(s.duration for s in spans if s.name == SOLVER_SPANS[wl.solver])
    metrics["solver.iterations"] = iterations
    metrics["solver.loss_evals"] = evals
    metrics["solver.step_accept_ratio"] = accepted / (evals - 1) if evals > 1 else 0.0
    metrics["solver.ms_per_iter"] = (solve_s - times.get("softseg.init", 0.0)) / max(iterations, 1) * 1e3
    metrics["solver.converged"] = int(bool(results.get("converged")))
    metrics["metrics.eval_s"] = (first or {}).get("eval_s", 0.0)
    metrics["mem.traced_peak_mib"] = traced_peak / 2**20

    kernel_metrics, missing_kernels = kernels.time_kernels(
        ph.image, ph.labels, wl.classes, wl.tv_eps, wl.gamma
    )
    metrics.update(kernel_metrics)
    absent = tracer.absent_layers() + missing_kernels
    if absent:
        print(f"absent from this msvar (reported as 0): {', '.join(absent)}", file=sys.stderr)
    record = {
        "absent": absent,
        "missing_targets": tracer.missing,
        "spans": [[s.name, s.layer, s.start, s.end, s.parent] for s in spans],
    }
    return ops, problems, metrics, record


def machine_facts():
    facts = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        read = lambda name: Path(index, name).read_text().strip()  # noqa: E731
        caches.append(f"L{read('level')} {read('type')} {read('size')}")
    facts["caches"] = caches
    np.dot(np.ones((256, 256)), np.ones((256, 256)))  # a BLAS call, then count threads
    if os.path.isdir("/proc/self/task"):
        facts["threads_after_blas_call"] = len(os.listdir("/proc/self/task"))
    return facts


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run each in its own process in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only is not None:
        setup_child(args.workload, args.seed, args.setup_only)
        return 0
    if args.workload == "all":
        return run_all(args)
    cli = import_cli()
    wl = WORKLOADS[args.workload]
    runs = HERE / "runs"
    work = runs / f"work-{args.workload}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        setup_s, setup_wall, setup_refs = measure_setups(args.workload, args.seed, work)
        reference = speed.ComputeReference()
        inputs.mkdir(parents=True)
        ph = phantom.make(wl.kind, wl.size, wl.sigma, args.seed)
        phantom.write_inputs(ph, inputs)

        # warm-up on a small image: first-call imports and lazy set-up
        warm = work / "warmup"
        warm.mkdir()
        phantom.write_inputs(phantom.make(wl.kind, WARMUP_SIZE, wl.sigma, 0), warm)
        warm_code, _ = segment(cli, wl, warm / "image.pgm", warm / "out")
        if warm_code not in (0, 3):
            sys.exit(f"perfbench: warm-up operation exited {warm_code}")

        run = traced_run if args.trace else timed_run
        ops, problems, metrics, record = run(cli, wl, args.seconds, ph, inputs, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_s)
        metrics = {name: metrics.get(name, float("nan")) for name in END_TO_END_UNITS}
    failed = sum(1 for code, _, _ in ops if code not in (0, 3))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(), "setup_s": setup_s, "setup_wall_s": setup_wall,
        "setup_reference_s": setup_refs,
        "operations": [{"exit": code, "wall_s": t} for code, t, _ in ops],
        "problems": problems, "metrics": metrics,
    })
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    result = {
        "correct": not problems and failed < len(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after another; prints '<workload> <result>' lines."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        print(name, last, flush=True)
        result = json.loads(last) if proc.returncode == 0 else {}
        ok = ok and result.get("correct") is True and result.get("failed") == 0
    return 0 if ok else 1


def per_layer_units():
    """Units of the per-layer metrics."""
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_CALLS})
    units.update({
        "cli.segment_s": "s", "trace.overhead_s": "s", "pnm.bytes": "B",
        "solver.iterations": "count", "solver.loss_evals": "count", "solver.step_accept_ratio": "ratio",
        "solver.ms_per_iter": "ms", "solver.converged": "flag", "metrics.eval_s": "s",
        "mem.traced_peak_mib": "MiB",
    })
    for stem, _, _ in kernels.KERNELS:
        units[f"kernel.{stem}_ms"] = "ms"
        units[f"kernel.{stem}_mib"] = "MiB"
    return units


if __name__ == "__main__":
    sys.exit(main())
