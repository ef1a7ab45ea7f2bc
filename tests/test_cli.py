import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msvar
from msvar import pnm
from msvar.cli import main


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


def test_segment_determinism(tmp_path):
    data = synth(tmp_path)
    args = ["segment", "--solver", "ms", "--classes", 2, "--seed", 4,
            "--max-iters", 60, data / "image.pgm"]
    assert run(args + [tmp_path / "r1"]) == 0
    assert run(args + [tmp_path / "r2"]) == 0
    for name in ("mask.pgm", "trace.csv", "run.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_segment_run_json_round_trip(tmp_path):
    data = synth(tmp_path)
    out1 = tmp_path / "r1"
    assert run(["segment", "--solver", "ms", "--classes", 2, "--seed", 9,
                "--max-iters", 50, data / "image.pgm", out1]) == 0
    out2 = tmp_path / "r2"
    assert run(["segment", "--config", out1 / "run.json", out2]) == 0
    assert (out1 / "mask.pgm").read_bytes() == (out2 / "mask.pgm").read_bytes()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_segment_config_with_retired_beta_key_loads(tmp_path):
    data = synth(tmp_path)
    out1 = tmp_path / "r1"
    assert run(["segment", "--solver", "ms", "--classes", 2, "--seed", 9,
                "--max-iters", 20, data / "image.pgm", out1]) == 0
    stored = json.loads((out1 / "run.json").read_text())
    assert "beta" not in stored
    stored["beta"] = 0.0  # written by versions that still had the --beta flag
    (tmp_path / "old.json").write_text(json.dumps(stored))
    out2 = tmp_path / "r2"
    assert run(["segment", "--config", tmp_path / "old.json", out2]) == 0
    assert (out1 / "mask.pgm").read_bytes() == (out2 / "mask.pgm").read_bytes()
    assert "beta" not in json.loads((out2 / "run.json").read_text())


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
