"""Which mode the benchmark's compute reference runs in, per workload and tree.

    python3 tools/refmode.py PARENT_CHECKOUT [--seed 1] [--calls 6]

Runs from the root of a source checkout. perfbench/run.py scales each
operation's wall time by a compute reference (perfbench/speed.py) timed right
after it, and that reference has two speeds: glibc serves its 512 KiB
temporaries either from the heap or from a fresh mmap each, which costs
thousands of minor page faults per window. Which one a run gets follows the
process's heap, not the code the run measures.

For each benchmark workload, this checkout and PARENT_CHECKOUT each get a
fresh interpreter that imports msvar from that checkout's src/, with the BLAS
thread variables at 1 before numpy loads, as perfbench/run.py sets them. As
a benchmark run does, it builds the compute reference, writes the workload's
phantom for --seed, runs one warm-up `msvar segment` on a 64^2 phantom, times
the reference once and then makes --calls timed calls on the phantom. After
each call it times per_call(max(0.05, 0.1 * wall)) and counts the minor page
faults of that window. It prints, per workload and side, the medians of the call's wall
time, the reference's time per call and the faults per window. It reads
perfbench/ and writes nothing under it. About a minute.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# one child per (checkout, workload): the same steps as a perfbench/run.py
# timed run, with the reference's faults counted; prints one JSON line
CHILD = """import os, sys
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
import contextlib, io, json, resource, time
from pathlib import Path
src, perfbench, workload, seed, calls, work = sys.argv[1:]
src = Path(src).resolve()
sys.path.insert(0, perfbench)
sys.path.insert(0, str(src))
import phantom, speed
from run import FIRST_REFERENCE_S, MIN_REFERENCE_S, REFERENCE_SHARE, WARMUP_SIZE, WORKLOADS
import msvar.cli as cli
if not Path(cli.__file__).resolve().is_relative_to(src):
    sys.exit(f"msvar was imported from {cli.__file__}, not from {src}")
wl, work = WORKLOADS[workload], Path(work)
inputs, warm = work / "inputs", work / "warmup"
inputs.mkdir()
warm.mkdir()
reference = speed.ComputeReference()
ph = phantom.make(wl.kind, wl.size, wl.sigma, int(seed))  # kept alive, as a benchmark run keeps it
phantom.write_inputs(ph, inputs)
phantom.write_inputs(phantom.make(wl.kind, WARMUP_SIZE, wl.sigma, 0), warm)

def segment(image, out_dir):
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(["segment", *wl.flags, str(image), str(out_dir)])
        return code, time.perf_counter() - start

segment(warm / "image.pgm", warm / "out")
reference.per_call(FIRST_REFERENCE_S)
walls, refs, faults = [], [], []
for i in range(int(calls)):
    code, wall = segment(inputs / "image.pgm", work / f"op-{i}")
    if code not in (0, 3):
        sys.exit(f"msvar segment exited {code}")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    refs.append(reference.per_call(max(MIN_REFERENCE_S, REFERENCE_SHARE * wall)))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    walls.append(wall)
print(json.dumps({"wall_s": walls, "reference_s": refs, "faults": faults}))
"""


def measure(checkout, workload, seed, calls, work):
    """{"wall_s", "reference_s", "faults"} lists of one fresh interpreter."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "-B", "-c", CHILD, str(checkout / "src"), str(PERFBENCH), workload,
            str(seed), str(calls), str(work)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout} {workload}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--seed", type=int, default=1, help="phantom noise seed (default 1)")
    parser.add_argument("--calls", type=int, default=6, help="timed calls per side (default 6)")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "msvar" / "cli.py").is_file():
        parser.error(f"{parent} is not an msvar source checkout")
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    sys.dont_write_bytecode = True  # import perfbench's workload table without caching it there
    sys.path.insert(0, str(PERFBENCH))
    from run import WORKLOADS

    print(f"{'workload':<22}{'side':<8}{'wall_s':>9}{'reference_s':>13}{'faults':>8}", flush=True)
    with tempfile.TemporaryDirectory(prefix="msvar-refmode-") as tmp:
        for name in WORKLOADS:
            for side, checkout in (("parent", parent), ("change", ROOT)):
                work = Path(tmp) / f"{name}-{side}"
                work.mkdir()
                got = measure(checkout, name, args.seed, args.calls, work)
                print(f"{name:<22}{side:<8}{statistics.median(got['wall_s']):>9.4f}"
                      f"{statistics.median(got['reference_s']):>13.3e}"
                      f"{statistics.median(got['faults']):>8.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
