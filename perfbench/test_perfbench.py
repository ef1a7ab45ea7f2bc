"""Tests of the benchmark itself: every output check accepts a right output
of today's msvar and rejects a wrong one, and the tracer survives a wrapped
function that no longer exists.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import kernels  # noqa: E402
import phantom  # noqa: E402
from tracing import ROOT_LAYER, Tracer, layer_totals, self_times  # noqa: E402

from msvar import cli, pnm  # noqa: E402

SOLVER_FLAGS = {
    "ms": ["--solver", "ms", "--classes", "2", "--init", "kmeans", "--max-iters", "20"],
    "ms-bias": ["--solver", "ms-bias", "--classes", "2", "--eta", "2", "--gamma", "0.1",
                "--tv-eps", "1e-2", "--init", "kmeans", "--max-iters", "20"],
    "levelset": ["--solver", "levelset", "--phases", "1", "--lambda", "1e-2", "--dt", "1",
                 "--max-iters", "400"],
}


def _segment(tmp_path, solver, kind="two-phase"):
    ph = phantom.make(kind, 48, 0.02, 5)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    phantom.write_inputs(ph, inputs)
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["segment", *SOLVER_FLAGS[solver], str(inputs / "image.pgm"), str(out)])
    return ph, inputs, out, code


def _eval_row(mask_path, gt_path):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["eval", str(mask_path), str(gt_path), "--positive-class", "1"]) == 0
    return checks.parse_eval(stdout.getvalue())


@pytest.fixture(scope="module")
def ms_output(tmp_path_factory):
    return _segment(tmp_path_factory.mktemp("ms"), "ms")


@pytest.mark.parametrize("solver", sorted(SOLVER_FLAGS))
def test_checks_accept_todays_outputs(tmp_path, solver):
    kind = "ramp-bias" if solver == "ms-bias" else "two-phase"
    ph, inputs, out, code = _segment(tmp_path, solver, kind)
    results = checks.load_results((out / "run.json").read_text())
    mask = phantom.read_pgm(out / "mask.pgm")
    header, rows = checks.parse_trace((out / "trace.csv").read_text())
    assert checks.check_exit(code, results) == []
    assert checks.check_mask(mask, (48, 48), 2) == []
    assert checks.check_iou(checks.best_mean_iou(mask, ph.labels, 2), 0.9) == []
    assert checks.check_eval_row(_eval_row(out / "mask.pgm", inputs / "gt.pgm"), mask, ph.labels, 2) == []
    assert checks.check_trace(header, rows, results, monotone=solver != "levelset") == []
    if solver == "levelset":
        assert checks.check_region_means(results["centroids"], ph.image, mask, 2) == []
    if solver == "ms-bias":
        b = pnm.load_field_bin(out / "bias.bin", 48, 48)
        assert checks.check_bias(b, ph.bias, 0.3) == []


def test_mask_checks_reject_wrong_masks(ms_output):
    ph, _, out, _ = ms_output
    mask = phantom.read_pgm(out / "mask.pgm")
    relabelled = 1 - mask
    assert checks.best_mean_iou(relabelled, ph.labels, 2) == checks.best_mean_iou(mask, ph.labels, 2)
    shuffled = np.random.default_rng(0).permutation(mask.ravel()).reshape(mask.shape)
    assert checks.check_iou(checks.best_mean_iou(shuffled, ph.labels, 2), 0.9)
    degraded = mask.copy()
    degraded[:, :12] = 1 - degraded[:, :12]
    assert checks.check_iou(checks.best_mean_iou(degraded, ph.labels, 2), 0.9)
    assert checks.check_mask(mask[:, :-1], (48, 48), 2)
    assert checks.check_mask(mask + 1, (48, 48), 2)


def test_eval_check_rejects_mismatched_row(ms_output):
    ph, inputs, out, _ = ms_output
    mask = phantom.read_pgm(out / "mask.pgm")
    row = _eval_row(out / "mask.pgm", inputs / "gt.pgm")
    for key in ("rc", "pri", "vi", "iou"):
        bad = dict(row, **{key: row[key] + 1e-9})
        assert checks.check_eval_row(bad, mask, ph.labels, 2), key
    del row["vi"]
    assert checks.check_eval_row(row, mask, ph.labels, 2)


def test_partition_scores_by_hand():
    pred = np.array([[0, 0], [1, 1]])
    gt = np.array([[0, 1], [1, 1]])
    rc, pri, vi = checks.partition_scores(pred, gt)
    # regions {a,b},{c,d} against {a},{b,c,d}; 3 of 6 pairs agree
    assert rc == pytest.approx((1 * 0.5 + 3 * (2 / 3)) / 4)
    assert pri == 0.5
    h_pred = np.log(2)
    h_gt = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
    mutual = (0.25 * np.log(0.25 / (0.5 * 0.25)) + 0.25 * np.log(0.25 / (0.5 * 0.75))
              + 0.5 * np.log(0.5 / (0.5 * 0.75)))
    want_vi = h_pred + h_gt - 2 * mutual
    assert vi == pytest.approx(want_vi)


def test_trace_check_rejects_wrong_traces(ms_output):
    _, _, out, _ = ms_output
    results = checks.load_results((out / "run.json").read_text())
    header, rows = checks.parse_trace((out / "trace.csv").read_text())

    rising = rows.copy()
    rising[5, 2] += 1.0  # data term up, so the loss rises at step 5
    rising[5, 1] = rising[5, 2:].sum()
    assert checks.check_trace(header, rising, results, monotone=True)
    assert checks.check_trace(header, rising, results, monotone=False) == []

    unsummed = rows.copy()
    unsummed[3, 1] += 1e-6
    assert checks.check_trace(header, unsummed, results, monotone=False)

    assert checks.check_trace(header, rows, dict(results, final_loss=results["final_loss"] * 1.001), False)
    assert checks.check_trace(header, rows, dict(results, iterations=results["iterations"] + 1), False)


def test_exit_check_rejects_false_verdicts():
    assert checks.check_exit(0, {"converged": False})
    assert checks.check_exit(3, {"converged": True})
    assert checks.check_exit(2, {"converged": True})
    assert checks.check_exit(3, {"converged": False}) == []


def test_region_means_check_rejects_wrong_centroids():
    image = np.array([[0.2, 0.4], [0.6, 0.8]])
    mask = np.array([[0, 0], [1, 1]])
    assert checks.check_region_means([[0.3], [0.7]], image, mask, 2) == []
    assert checks.check_region_means([[0.3], [0.7 + 1e-9]], image, mask, 2)
    assert checks.check_region_means([[0.5], [0.0]], image, np.zeros_like(mask), 2) == []


def test_bias_check_rejects_off_gauge_and_wrong_field():
    b_true = np.broadcast_to(np.linspace(0.7, 1.3, 32), (32, 32))
    b = b_true / b_true.mean()
    assert checks.check_bias(b, b_true, 0.95) == []
    assert checks.check_bias(b * 1.001, b_true, 0.95)
    flipped = b[:, ::-1]
    assert checks.check_bias(flipped, b_true, 0.95)


def test_identity_check_rejects_changed_bytes():
    first = {"mask.pgm": b"P5 1 1 255 \x00", "trace.csv": b"iter,loss\n"}
    assert checks.check_identical(first, dict(first)) == []
    assert checks.check_identical(first, dict(first, **{"trace.csv": b"iter,loss\n0,1\n"}))
    assert checks.check_identical(first, {"mask.pgm": first["mask.pgm"]})


def test_pgm_round_trip_through_msvar(tmp_path):
    # every gray level, whitespace bytes included
    values = np.arange(256).reshape(16, 16)
    phantom.write_pgm(tmp_path / "a.pgm", values)
    assert np.array_equal(pnm.load_labelmap(tmp_path / "a.pgm"), values)
    assert np.array_equal(phantom.read_pgm(tmp_path / "a.pgm"), values)


def test_tracer_reports_a_vanished_layer_and_self_times_add_up(tmp_path, monkeypatch):
    import msvar.levelset

    original = msvar.softseg.softmax
    monkeypatch.delattr(msvar.levelset, "evolve_step")
    ph = phantom.make("two-phase", 48, 0.02, 5)
    phantom.write_inputs(ph, tmp_path)
    argv = ["segment", *SOLVER_FLAGS["ms"], str(tmp_path / "image.pgm"), str(tmp_path / "out")]
    with Tracer() as tracer:
        with tracer.span("cli.main", ROOT_LAYER) as root:
            assert cli.main(argv) == 0
    assert msvar.softseg.softmax is original
    assert tracer.missing == ["msvar.levelset.evolve_step"]
    assert tracer.absent_layers() == ["levelset.step"]
    times, calls = layer_totals(tracer.spans)
    assert calls["softseg.softmax"] >= 1 and calls["grid.tv"] >= 1
    assert sum(self_times(tracer.spans)) == pytest.approx(root.duration, abs=1e-9)
    assert all(t >= 0 for t in times.values())


def test_kernels_report_a_vanished_kernel(monkeypatch):
    import msvar.supervision

    monkeypatch.setattr(kernels, "MIN_SECONDS", 0.0)
    monkeypatch.delattr(msvar.supervision, "combined_loss")
    ph = phantom.make("four-phase", 32, 0.05, 1)
    metrics, missing = kernels.time_kernels(ph.image, ph.labels, 4, 1e-8, 0.1)
    assert missing == ["msvar.supervision.combined_loss"]
    assert len(metrics) == 2 * len(kernels.KERNELS)
    assert metrics["kernel.combined_loss_ms"] == 0.0
    assert metrics["kernel.softmax_ms"] > 0 and metrics["kernel.softmax_mib"] == 2 * 4 * 32 * 32 * 8 / 2**20


def test_speed_references_scale_a_time_by_the_mean_of_its_references():
    import speed

    assert speed.normalised(2.0, 0.04, 0.06, 0.05) == pytest.approx(2.0)
    assert speed.normalised(2.0, 0.10, 0.10, 0.05) == pytest.approx(1.0)
    assert 0 < speed.ComputeReference().per_call(0.01) < 1
    assert 0 < speed.spawn_seconds() < 60
