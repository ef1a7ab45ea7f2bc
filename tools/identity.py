"""Byte-identity of `msvar segment` and `msvar eval` outputs between two
source checkouts.

    python3 tools/identity.py PARENT_CHECKOUT

Runs from the root of a source checkout. For each benchmark workload (the
flags and phantoms of perfbench/run.py) and phantom seeds 1 and 2, it writes the
phantom's image.pgm and gt.pgm once, then runs `msvar segment` on it with that
workload's flags from this checkout's src/ and from PARENT_CHECKOUT/src/,
each in a fresh interpreter under MSVAR_THREADS=1. It compares the exit
codes, the set of output files and every file's bytes, except that run.json
is compared as parsed JSON without its `input` key. It then runs
`msvar eval MASK gt.pgm` from both checkouts on this checkout's mask, with
`--positive-class 1` for the two-class workloads as the benchmark does, and
compares the exit codes and stdout bytes. It prints one line per workload
and seed and exits 1 on any difference (2 on a usage error).

Where trace.csv differs it says by how much: the row counts and stop
reasons of both sides, and per energy column the largest |difference| over
the rows both have, relative to the parent's start loss. Where run.json
differs it names the keys that do (results.* for those of its results).
Where mask.pgm differs it counts the pixels that do, out of all; where the
eval row differs it names the columns that do and gives their largest
|difference|.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import phantom  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEEDS = (1, 2)

# one child per run: imports msvar from the src/ given first, refuses any
# other copy, and runs the CLI on the remaining arguments
CHILD = """import sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import msvar.cli as cli
if not Path(cli.__file__).resolve().is_relative_to(src):
    sys.exit(f"msvar was imported from {cli.__file__}, not from {src}")
sys.exit(cli.main(sys.argv[2:]))
"""


def msvar(checkout, args, cwd):
    """Run the msvar CLI on args from checkout/src in a fresh interpreter;
    returns (exit code, stdout bytes, stderr)."""
    env = dict(os.environ, MSVAR_THREADS="1")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "-c", CHILD, str(checkout / "src"), *map(str, args)]
    done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True)
    return done.returncode, done.stdout, done.stderr.decode(errors="replace")


def outputs(out_dir):
    """{file name: contents}, with run.json parsed and its input dropped."""
    files = {}
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        if path.name == "run.json":
            run = json.loads(path.read_text())
            run.pop("input", None)
            files[path.name] = run
        else:
            files[path.name] = path.read_bytes()
    return files


def _flat(run):
    """run.json's keys, with those of its results as results.KEY."""
    flat = {k: v for k, v in run.items() if k != "results"}
    flat.update({f"results.{k}": v for k, v in run.get("results", {}).items()})
    return flat


def _trace(blob):
    """(energy column names, rows of energy values) of a trace.csv."""
    header, *rows = blob.decode().splitlines()
    return header.split(",")[1:], [[float(v) for v in row.split(",")[1:]] for row in rows]


def describe(file, got, want, inputs):
    """One line saying how file differs between this checkout's outputs got
    and the parent's want ({file name: contents} each), written under
    inputs/change and inputs/parent."""
    if file == "run.json":
        new, old = _flat(got[file]), _flat(want[file])
        keys = sorted(k for k in set(new) | set(old) if new.get(k) != old.get(k))
        return f"run.json differs in {', '.join(keys)}"
    if file == "mask.pgm":
        new, old = (phantom.read_pgm(inputs / side / file) for side in ("change", "parent"))
        if new.shape != old.shape:
            return f"mask.pgm differs: shape {old.shape} -> {new.shape}"
        return f"mask.pgm differs in {np.count_nonzero(new != old)} of {new.size} pixels"
    if file != "trace.csv":
        return f"{file} differs"
    columns, rows = _trace(got[file])
    _, parent_rows = _trace(want[file])
    stops = [_flat(side.get("run.json", {})).get("results.stop") for side in (want, got)]
    line = f"trace.csv differs: rows {len(parent_rows)} -> {len(rows)}, stop {stops[0]} -> {stops[1]}"
    if parent_rows and rows and len(columns) == len(parent_rows[0]):
        start = abs(parent_rows[0][0]) or 1.0
        deltas = [max(abs(a[k] - b[k]) for a, b in zip(rows, parent_rows)) / start
                  for k in range(len(columns))]
        line += ", max |delta| / start loss: " + ", ".join(
            f"{name} {delta:.2g}" for name, delta in zip(columns, deltas))
    return line


def compare(name, seed, parent, work):
    """Differences between this checkout's and the parent's outputs, as text lines."""
    wl = WORKLOADS[name]
    inputs = work / f"{name}-seed{seed}"
    inputs.mkdir()
    phantom.write_inputs(phantom.make(wl.kind, wl.size, wl.sigma, seed), inputs)
    sides = {}
    for side, checkout in (("change", ROOT), ("parent", parent)):
        out_dir = inputs / side
        code, _, stderr = msvar(checkout, ["segment", *wl.flags, inputs / "image.pgm", out_dir], inputs)
        if code not in (0, 3):
            return [f"{side} exited {code}: {stderr.strip()}"]
        sides[side] = (code, outputs(out_dir))
    (code, got), (parent_code, want) = sides["change"], sides["parent"]
    problems = [] if code == parent_code else [f"exit code {parent_code} -> {code}"]
    if set(got) != set(want):
        problems.append(f"output files {sorted(want)} -> {sorted(got)}")
    problems += [describe(file, got, want, inputs) for file in sorted(set(got) & set(want))
                 if got[file] != want[file]]

    args = ["eval", inputs / "change" / "mask.pgm", inputs / "gt.pgm"]
    if wl.classes == 2:
        args += ["--positive-class", "1"]
    (code, row, stderr), (parent_code, parent_row, _) = (msvar(c, args, inputs) for c in (ROOT, parent))
    if code != 0:
        problems.append(f"eval exited {code}: {stderr.strip()}")
    elif code != parent_code:
        problems.append(f"eval differs: exit {parent_code} -> {code}")
    elif row != parent_row:
        problems.append(describe_eval(row, parent_row))
    return problems


def describe_eval(row, parent_row):
    """One line naming the columns in which this checkout's eval stdout row
    differs from the parent's parent_row, with their largest |difference|."""
    new, old = (checks.parse_eval(side.decode()) for side in (row, parent_row))
    keys = [k for k in {**new, **old} if new.get(k) != old.get(k)]
    deltas = [abs(new[k] - old[k]) for k in keys if k in new and k in old]
    line = f"eval differs in {', '.join(keys) or 'formatting'}"
    return line + (f", max |delta| {max(deltas):.2g}" if deltas else "")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "msvar" / "cli.py").is_file():
        parser.error(f"{parent} is not an msvar source checkout")
    failed = False
    with tempfile.TemporaryDirectory(prefix="msvar-identity-") as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                problems = compare(name, seed, parent, Path(tmp))
                failed = failed or bool(problems)
                print(f"{name} seed {seed}: {'; '.join(problems) or 'identical, eval identical'}",
                      flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
