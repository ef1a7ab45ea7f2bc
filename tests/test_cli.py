import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import msvar
from msvar import cli, pnm
from msvar.cli import READS, SOLVE, main
from msvar.levelset import initial_state, levelset_energy


def run(argv):
    return main([str(a) for a in argv])


def synth(tmp_path, kind="two-phase", size=48, sigma=0.05, seed=7, name="data"):
    out = tmp_path / name
    assert run(["synth", kind, size, sigma, seed, out]) == 0
    return out


# -------------------------------------------------------------------- synth

def test_synth_writes_files_and_prints_list(tmp_path, capsys):
    out = synth(tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    assert sorted(lines) == sorted(
        str(out / n) for n in ("image.pgm", "gt.pgm", "manifest.json")
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "two-phase" and manifest["seed"] == 7
    assert pnm.load_image(out / "image.pgm").shape == (48, 48, 1)


def test_synth_is_deterministic(tmp_path):
    a = synth(tmp_path, name="a")
    b = synth(tmp_path, name="b")
    assert (a / "image.pgm").read_bytes() == (b / "image.pgm").read_bytes()


def test_synth_ramp_bias_adds_true_field(tmp_path):
    out = synth(tmp_path, kind="ramp-bias", sigma=0.0, seed=0)
    bias = pnm.load_field_bin(out / "bias_true.bin", 48, 48)
    assert bias.min() == pytest.approx(0.7) and bias.max() == pytest.approx(1.3)


def test_synth_validation_error_exits_2(tmp_path):
    assert run(["synth", "two-phase", 8, 0.0, 0, tmp_path / "x"]) == 2


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_synth_rejects_a_non_finite_sigma(tmp_path, capsys, sigma):
    assert run(["synth", "two-phase", 16, sigma, 1, tmp_path / "out"]) == 2
    assert "noise_sigma" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "no-such-kind", 48, 0.0, 0, "x"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["segment", "--solver", "bogus", "a.pgm", "out"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["segment", "--beta", 0.1, "a.pgm", "out"])
    assert exc.value.code == 1


# ------------------------------------------------------------------ segment

def test_segment_ms_outputs(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "run"
    code = run(["segment", "--solver", "ms", "--classes", 2, "--lambda", 1e-3,
                "--init", "kmeans", data / "image.pgm", out])
    assert code == 0
    mask = pnm.load_labelmap(out / "mask.pgm")
    assert set(np.unique(mask)) <= {0, 1}
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "iter,loss,data_term,tv_term"
    losses = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    cfg = json.loads((out / "run.json").read_text())
    assert cfg["solver"] == "ms" and cfg["results"]["converged"] is True
    assert len(cfg["results"]["centroids"]) == 2


def test_segment_ms_bias_outputs(tmp_path):
    data = synth(tmp_path, kind="ramp-bias", sigma=0.02, seed=3)
    out = tmp_path / "run"
    code = run(["segment", "--solver", "ms-bias", "--gamma", 0.1, "--init", "kmeans",
                "--max-iters", 200, "--tv-eps", 1e-2, "--eta", 2.0,
                data / "image.pgm", out])
    assert code == 0
    assert (out / "bias.pgm").exists()
    b = pnm.load_field_bin(out / "bias.bin", 48, 48)
    assert b.mean() == pytest.approx(1.0, abs=1e-12)
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "iter,loss,data_term,tv_term,tv_b_term"


def test_segment_levelset_four_phase(tmp_path):
    data = synth(tmp_path, kind="four-phase", size=64, sigma=0.0, seed=0)
    out = tmp_path / "run"
    code = run(["segment", "--solver", "levelset", "--phases", 2, "--lambda", 1e-2,
                "--dt", 2.0, "--eps-h", 2.0, "--max-iters", 2500, "--seed", 0,
                data / "image.pgm", out])
    assert code in (0, 3)  # non-convergence still writes outputs
    mask = pnm.load_labelmap(out / "mask.pgm")
    assert set(np.unique(mask)) == {0, 1, 2, 3}


def test_segment_levelset_backtracks_past_an_energy_rise(tmp_path):
    # an unguarded dt 2 Euler step raises the energy once on this phantom, and the
    # relative-change test used to stop there: 11 steps, pixel accuracy 0.51
    data = synth(tmp_path, size=256, sigma=0.05, seed=2)
    out = tmp_path / "run"
    code = run(["segment", "--solver", "levelset", "--phases", 1, "--lambda", 1e-2,
                "--dt", 2, "--eps-h", 1, "--max-iters", 150, data / "image.pgm", out])
    assert code in (0, 3)
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.all(np.diff(rows[:, 1]) <= 0)
    mask, gt = pnm.load_labelmap(out / "mask.pgm"), pnm.load_labelmap(data / "gt.pgm")
    assert max(np.mean(mask == gt), np.mean(mask != gt)) >= 0.99


# image, classes (ms, ms-bias), phases (levelset)
EDGE_IMAGES = {
    "1x1": (np.full((1, 1, 1), 0.5), 2, 1),
    "1x9": (np.linspace(0.0, 1.0, 9).reshape(1, 9, 1), 2, 1),
    "9x1": (np.linspace(0.0, 1.0, 9).reshape(9, 1, 1), 2, 1),
    "constant-16": (np.full((16, 16, 1), 0.5), 2, 1),
    "two-valued-8": (np.where(np.arange(64).reshape(8, 8, 1) % 3 == 0, 0.2, 0.8), 4, 2),
}


def _segment_edge_case(tmp_path, solver, case, *flags):
    image, classes, phases = EDGE_IMAGES[case]
    n = 2 ** phases if solver == "levelset" else classes
    pnm.save_image(tmp_path / "image.pgm", image)
    out = tmp_path / "run"
    size = ["--phases", phases] if solver == "levelset" else ["--classes", classes]
    code = run(["segment", "--solver", solver, *size, "--max-iters", 50, *flags,
                tmp_path / "image.pgm", out])
    assert code in (0, 3)
    mask = pnm.load_labelmap(out / "mask.pgm")
    assert mask.shape == image.shape[:2] and mask.max() < n
    results = json.loads((out / "run.json").read_text())["results"]
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    assert results["iterations"] == len(rows) - 1
    assert results["final_loss"] == rows[-1, 1]
    assert len(results["centroids"]) == n
    if solver == "levelset":
        x = pnm.load_image(tmp_path / "image.pgm")[:, :, 0]
        want = [x[mask == k].mean() if np.any(mask == k) else 0.0 for k in range(n)]
        assert np.max(np.abs(np.array(results["centroids"])[:, 0] - want)) <= 1e-12
    assert np.all(np.isfinite(results["centroids"]))
    # exit 0 unless the solver raised: levelset unless it settled, ms and ms-bias when stalled
    fails = ("max_iters", "stalled") if solver == "levelset" else ("stalled",)
    assert results["converged"] == (code == 0) == (results["stop"] not in fails)


@pytest.mark.parametrize("case", sorted(EDGE_IMAGES))
@pytest.mark.parametrize("solver", sorted(SOLVE))
def test_segment_edge_case_outputs(tmp_path, solver, case):
    _segment_edge_case(tmp_path, solver, case)


@pytest.mark.parametrize("case", sorted(EDGE_IMAGES))
@pytest.mark.parametrize("solver", ["ms", "ms-bias"])
def test_segment_kmeans_edge_case_outputs(tmp_path, solver, case):
    _segment_edge_case(tmp_path, solver, case, "--init", "kmeans")


@pytest.mark.parametrize("flag, value", [("--max-iters", 0), ("--rel-tol", -1), ("--tv-eps", 0)])
@pytest.mark.parametrize("solver", sorted(SOLVE))
def test_segment_rejects_invalid_solver_settings(tmp_path, solver, flag, value):
    pnm.save_image(tmp_path / "image.pgm", np.linspace(0.0, 1.0, 64).reshape(8, 8, 1))
    out = tmp_path / "run"
    assert run(["segment", "--solver", solver, flag, value, tmp_path / "image.pgm", out]) == 2
    assert not (out / "mask.pgm").exists()


# each flag with the parameter name the solver's error gives
@pytest.mark.parametrize("solver, flag, name", [
    ("ms", "--lambda", "lambda_tv"), ("ms", "--eta", "step_size"), ("ms", "--rel-tol", "rel_tol"),
    ("ms", "--tv-eps", "tv_eps"), ("ms-bias", "--gamma", "gamma"), ("levelset", "--dt", "dt"),
    ("levelset", "--eps-h", "eps_h"), ("levelset", "--lambda", "lambda_tv"),
    ("levelset", "--rel-tol", "rel_tol"), ("levelset", "--tv-eps", "tv_eps"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_segment_rejects_non_finite_settings(tmp_path, capsys, solver, flag, name, value):
    pnm.save_image(tmp_path / "image.pgm", np.linspace(0.0, 1.0, 64).reshape(8, 8, 1))
    out = tmp_path / "run"
    argv = ["segment", "--solver", solver, "--max-iters", 20, flag, value, tmp_path / "image.pgm"]
    assert run(argv + [out]) == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_segment_levelset_uses_tv_eps(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "run"
    code = run(["segment", "--solver", "levelset", "--lambda", 1e-2, "--tv-eps", 1e-2,
                "--max-iters", 2, data / "image.pgm", out])
    assert code in (0, 3)
    x = pnm.load_image(data / "image.pgm")
    state = initial_state(x.shape[:2], 1, lambda_tv=1e-2)
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[0, 1:].tolist() == list(levelset_energy(x, state, 1e-2))


def test_segment_determinism(tmp_path):
    data = synth(tmp_path)
    args = ["segment", "--solver", "ms", "--classes", 2, "--seed", 4,
            "--max-iters", 60, data / "image.pgm"]
    assert run(args + [tmp_path / "r1"]) == 0
    assert run(args + [tmp_path / "r2"]) == 0
    for name in ("mask.pgm", "trace.csv", "run.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


# the keys each solver reads, written out apart from the CLI's table
MS_KEYS = ["classes", "lambda", "eta", "max_iters", "rel_tol", "tv_eps", "seed", "init"]
SOLVER_KEYS = {"ms": MS_KEYS, "ms-bias": MS_KEYS + ["gamma"],
               "levelset": ["phases", "lambda", "dt", "eps_h", "max_iters", "rel_tol", "tv_eps",
                            "seed"]}
# every key at the default that run.json recorded for every solver before it
# recorded only the keys its solver reads
OLD_DEFAULTS = {"classes": 2, "phases": 1, "lambda": 1e-3, "gamma": 0.1, "eta": 0.5, "dt": 0.5,
                "eps_h": 1.0, "max_iters": 500, "rel_tol": 1e-6, "tv_eps": 1e-8, "seed": 0,
                "init": "random"}
# a value other than the default for every key
NON_DEFAULTS = {"classes": 3, "phases": 2, "lambda": 2e-3, "gamma": 0.25, "eta": 0.25,
                "dt": 0.25, "eps_h": 1.5, "max_iters": 2, "rel_tol": 1e-5, "tv_eps": 1e-3,
                "seed": 3, "init": "kmeans"}
# the number of classes or phases of a short run of each solver
SIZE_FLAGS = {"ms": ["--classes", 2], "ms-bias": ["--classes", 2], "levelset": ["--phases", 1]}


def _flag(key):
    return "--" + key.replace("_", "-")


def _assert_same_outputs(solver, out1, out2):
    for name in ["mask.pgm", "trace.csv"] + (["bias.bin"] if solver == "ms-bias" else []):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("solver", sorted(SOLVER_KEYS))
def test_segment_run_json_round_trip(tmp_path, solver):
    data = synth(tmp_path)
    out1 = tmp_path / "r1"
    assert run(["segment", "--solver", solver, *SIZE_FLAGS[solver], "--seed", 9,
                "--max-iters", 50, data / "image.pgm", out1]) == 0
    out2 = tmp_path / "r2"
    assert run(["segment", "--config", out1 / "run.json", out2]) == 0
    _assert_same_outputs(solver, out1, out2)
    assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()


@pytest.mark.parametrize("solver", sorted(SOLVER_KEYS))
def test_segment_records_every_flag_in_run_json(tmp_path, solver):
    data = synth(tmp_path)
    flags = {"solver": solver, **{k: NON_DEFAULTS[k] for k in SOLVER_KEYS[solver]}}
    assert all(flags[k] != READS[solver][k] for k in SOLVER_KEYS[solver])
    argv = [a for k, v in flags.items() for a in (_flag(k), v)]
    assert run(["segment", *argv, data / "image.pgm", tmp_path / "run"]) in (0, 3)
    stored = json.loads((tmp_path / "run" / "run.json").read_text())
    assert set(stored) == set(flags) | {"input", "command", "results"}
    assert {k: stored[k] for k in flags} == flags
    assert [type(stored[k]) for k in flags] == [type(v) for v in flags.values()]


@pytest.mark.parametrize("solver", sorted(SOLVER_KEYS))
def test_segment_config_with_retired_beta_key_loads(tmp_path, solver):
    data = synth(tmp_path)
    out1 = tmp_path / "r1"
    assert run(["segment", "--solver", solver, *SIZE_FLAGS[solver], "--seed", 9,
                "--max-iters", 20, data / "image.pgm", out1]) == 0
    stored = json.loads((out1 / "run.json").read_text())
    unread = {k: v for k, v in OLD_DEFAULTS.items() if k not in SOLVER_KEYS[solver]}
    assert not set(stored) & set(unread) and "beta" not in stored
    # written by versions that recorded every key, and by those that still had --beta
    stored.update(unread, beta=0.0)
    (tmp_path / "old.json").write_text(json.dumps(stored))
    out2 = tmp_path / "r2"
    assert run(["segment", "--config", tmp_path / "old.json", out2]) == 0
    _assert_same_outputs(solver, out1, out2)
    assert not set(json.loads((out2 / "run.json").read_text())) & {"beta", *unread}


@pytest.mark.parametrize("solver, key", [(s, k) for s in sorted(SOLVER_KEYS)
                                         for k in OLD_DEFAULTS if k not in SOLVER_KEYS[s]])
def test_segment_rejects_a_flag_its_solver_does_not_read(tmp_path, capsys, solver, key):
    data = synth(tmp_path)
    out = tmp_path / "out"
    argv = ["segment", "--solver", solver, _flag(key), NON_DEFAULTS[key], data / "image.pgm"]
    assert run(argv + [out]) == 1
    err = capsys.readouterr().err
    assert _flag(key) in err and f"'{solver}'" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--eps", "2"), ("--max-it", "3")])
def test_segment_takes_no_abbreviated_flag(tmp_path, capsys, flag, value):
    # argparse would otherwise run --eps as --eps-h and --max-it as --max-iters
    data = synth(tmp_path, size=64)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["segment", "--solver", "levelset", flag, value, data / "image.pgm", out])
    assert exc.value.code == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_segment_rejects_a_flag_the_configs_solver_does_not_read(tmp_path, capsys):
    data = synth(tmp_path)
    out1 = tmp_path / "r1"
    assert run(["segment", "--solver", "levelset", "--max-iters", 2, data / "image.pgm",
                out1]) in (0, 3)
    capsys.readouterr()
    out2 = tmp_path / "r2"
    assert run(["segment", "--config", out1 / "run.json", "--classes", 4, out2]) == 1
    err = capsys.readouterr().err
    assert "--classes" in err and "'levelset'" in err
    assert not out2.exists()


def test_readme_flag_table_matches_the_solvers_keys():
    # README's per-solver flag table: one row per key, a default where the solver reads it
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = [line.split("|")[1:-1] for line in text.splitlines() if line.startswith("| `--")]
    table = {}
    for flag, *cells in rows:
        key = flag.split("`")[1][2:].replace("-", "_")
        for solver, cell in zip(["ms", "ms-bias", "levelset"], cells):
            if cell.strip():
                table.setdefault(solver, {})[key] = cell.strip().strip("`")
    assert {s: set(t) for s, t in table.items()} == {s: set(r) for s, r in READS.items()}
    for solver, reads in READS.items():
        for key, default in reads.items():
            value = table[solver][key]
            assert (value == default) if isinstance(default, str) else float(value) == default


class _Recorded(Exception):
    pass


@pytest.mark.parametrize("solver, key", [(s, k) for s in sorted(READS) for k in READS[s]])
def test_segment_every_read_key_reaches_its_solver(tmp_path, monkeypatch, solver, key):
    # a key in the table that no solver call reads would be a knob that does nothing
    calls = []
    for name in ("minimize_ms", "minimize_ms_bias", "segment_levelset"):
        def record(image, *args, name=name, **kwargs):
            calls.append((name, args, kwargs))
            raise _Recorded
        monkeypatch.setattr(cli, name, record)
    pnm.save_image(tmp_path / "image.pgm", np.linspace(0.0, 1.0, 64).reshape(8, 8, 1))
    assert NON_DEFAULTS[key] != READS[solver][key]
    for flags in ([], [_flag(key), NON_DEFAULTS[key]]):
        with pytest.raises(_Recorded):
            run(["segment", "--solver", solver, *flags, tmp_path / "image.pgm", tmp_path / "out"])
    called = {"ms": "minimize_ms", "ms-bias": "minimize_ms_bias", "levelset": "segment_levelset"}
    assert [c[0] for c in calls] == [called[solver]] * 2 and calls[0] != calls[1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, key", [
    ({"classes": "4"}, "classes"),
    ({"classes": 2.5}, "classes"),
    ({"max_iters": True}, "max_iters"),
    ({"lambda": True}, "lambda"),
    ({"input": 123456789}, "input"),  # an int would be opened as a file descriptor
    ("classes", "JSON object"),
    (5, "JSON object"),
    ([1, 2], "JSON object"),
])
def test_segment_rejects_mistyped_config_values(tmp_path, capsys, config, key):
    data = synth(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    paths = [out] if key == "input" else [data / "image.pgm", out]
    assert run(["segment", "--config", tmp_path / "bad.json", *paths]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, flags, code, message", [
    ({"init": "foo"}, [], 1, "unknown init 'foo'"),  # usage error, as the flag --init foo
    ({"solver": "foo"}, [], 1, "unknown solver 'foo'"),
    ({"classes": 1}, [], 2, "num_classes must be >= 2"),  # the solver's own validation
    (None, ["--classes", "1"], 2, "num_classes must be >= 2"),
], ids=["config-init", "config-solver", "config-classes", "flag-classes"])
def test_segment_rejected_at_validation_writes_nothing(tmp_path, capsys, config, flags, code,
                                                       message):
    data = synth(tmp_path)
    argv = ["segment", *flags]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv += ["--config", tmp_path / "c.json"]
    out = tmp_path / "out"
    assert run(argv + [data / "image.pgm", out]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_segment_missing_input_exits_2(tmp_path):
    assert run(["segment", tmp_path / "nope.pgm", tmp_path / "out"]) == 2


def test_segment_without_input_is_usage_error(tmp_path):
    assert run(["segment", tmp_path / "out"]) == 1


# --------------------------------------------------------------------- eval

def test_eval_identity(tmp_path, capsys):
    data = synth(tmp_path)
    capsys.readouterr()
    code = run(["eval", data / "gt.pgm", data / "gt.pgm", "--positive-class", 1])
    assert code == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header == "iou,dice,precision,recall,rc,pri,vi"
    vals = row.split(",")
    assert float(vals[0]) == 1.0 and float(vals[1]) == 1.0
    assert float(vals[6]) == 0.0


def test_eval_without_positive_class_leaves_overlap_empty(tmp_path, capsys):
    data = synth(tmp_path, kind="four-phase", sigma=0.0)
    capsys.readouterr()
    assert run(["eval", data / "gt.pgm", data / "gt.pgm"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    vals = row.split(",")
    assert vals[:4] == ["", "", "", ""]
    assert float(vals[4]) == 1.0 and float(vals[5]) == 1.0


def test_eval_dimension_mismatch_exits_2(tmp_path):
    a = synth(tmp_path, size=48, name="a")
    b = synth(tmp_path, size=32, name="b")
    assert run(["eval", a / "gt.pgm", b / "gt.pgm"]) == 2


def test_eval_holds_under_one_int64_label_plane(tmp_path, capsys):
    # the two loaded maps and np.unique's sorted copy of one are the only
    # image-sized arrays, one byte per pixel each as the PGM stores them: the
    # table is counted in strips, with no image-sized index (three int64
    # planes when the maps were loaded as int64)
    size = 512
    ii, jj = np.mgrid[0:size, 0:size]
    gt = ((ii - size / 2) ** 2 + (jj - size / 2) ** 2 <= (size / 4) ** 2).astype(np.int64)
    pred = np.roll(gt, 3, axis=1)
    pnm.save_labelmap(tmp_path / "pred.pgm", pred)
    pnm.save_labelmap(tmp_path / "gt.pgm", gt)
    plane = size * size * np.dtype(np.int64).itemsize
    args = ["eval", tmp_path / "pred.pgm", tmp_path / "gt.pgm", "--positive-class", 1]
    assert run(args) == 0  # the modules a first call imports (numpy.ma) stay out of the count
    capsys.readouterr()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code = run(args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "iou,dice,precision,recall,rc,pri,vi"
    assert peak < plane, f"traced peak {peak / plane:.2f} int64 planes"


def test_eval_pipeline_two_phase(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "run"
    assert run(["segment", "--solver", "ms", "--classes", 2, "--init", "kmeans",
                data / "image.pgm", out]) == 0
    capsys.readouterr()
    assert run(["eval", out / "mask.pgm", data / "gt.pgm", "--positive-class", 1]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    iou = float(row.split(",")[0])
    assert iou >= 0.99 or iou == 0.0  # class polarity may be flipped
    if iou == 0.0:
        capsys.readouterr()
        mask = pnm.load_labelmap(out / "mask.pgm")
        pnm.save_labelmap(out / "flipped.pgm", 1 - mask)
        assert run(["eval", out / "flipped.pgm", data / "gt.pgm", "--positive-class", 1]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[0]) >= 0.99


# ------------------------------------------------------------------ threads

def test_thread_cap_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("MSVAR_THREADS", "not-a-number")
    assert run(["synth", "two-phase", 48, 0.0, 0, tmp_path / "x"]) == 2
    monkeypatch.setenv("MSVAR_THREADS", "0")
    assert run(["synth", "two-phase", 48, 0.0, 0, tmp_path / "y"]) == 2
    monkeypatch.setenv("MSVAR_THREADS", "2")
    assert run(["synth", "two-phase", 48, 0.0, 0, tmp_path / "z"]) == 0


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_thread_cap_reaches_blas():
    # BLAS sizes its thread pool when numpy is first imported: needs a fresh interpreter
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(msvar.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["MSVAR_THREADS"] = "1"
    code = ("import os, msvar.cli, numpy as np\n"
            "a = np.ones((400, 400)); a @ a\n"
            "print(len(os.listdir('/proc/self/task')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert int(out) == 1


def _outputs_under_one_and_two_blas_threads(tmp_path, data, flags):
    """Run `msvar segment FLAGS` under MSVAR_THREADS=1 and 2, each in a fresh
    interpreter (BLAS sizes its thread pool when numpy is first imported);
    returns the two exit codes and output directories."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(msvar.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    codes = []
    for threads in ("1", "2"):
        env["MSVAR_THREADS"] = threads
        argv = ["segment", *flags, str(data / "image.pgm"), str(tmp_path / threads)]
        codes.append(subprocess.run([sys.executable, "-m", "msvar.cli", *argv], env=env,
                                    capture_output=True, timeout=120).returncode)
    return codes, (tmp_path / "1", tmp_path / "2")


def test_levelset_is_identical_under_one_and_two_blas_threads(tmp_path):
    # the energy's data term must not take a BLAS dot product, whose sum is
    # split across threads
    data = synth(tmp_path, size=128)
    codes, outs = _outputs_under_one_and_two_blas_threads(
        tmp_path, data, ["--solver", "levelset", "--phases", "1", "--lambda", "1e-2", "--dt", "1",
                         "--eps-h", "1", "--max-iters", "30"])
    assert codes[0] in (0, 3) and codes[0] == codes[1]
    for name in ("mask.pgm", "trace.csv", "run.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("kind, classes", [("two-phase", 2), ("four-phase", 4)])
def test_ms_is_identical_under_one_and_two_blas_threads(tmp_path, kind, classes):
    # nor may the Barzilai-Borwein ratios of the one-plane or the N-plane descent
    data = synth(tmp_path, kind=kind, size=128, sigma=0.05, seed=1)
    codes, outs = _outputs_under_one_and_two_blas_threads(
        tmp_path, data, ["--solver", "ms", "--classes", str(classes), "--init", "kmeans",
                         "--max-iters", "100"])
    assert codes == [0, 0]
    assert len((outs[0] / "trace.csv").read_text().splitlines()) > 3  # BB steps were taken
    for name in ("mask.pgm", "trace.csv", "run.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
