"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria execute. Criterion 9 needs user-supplied natural-image crops (see
its docstring) and is skipped when none are present; it is informational and
reports an expected failure rather than a hard one.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from msvar import pnm
from msvar.bias import bias_centroids, bias_loss_grad_b, bias_ms_loss, minimize_ms_bias
from msvar.cli import main as cli_main
from msvar.errors import ConvergenceError
from msvar.grid import tv_smooth, tv_smooth_grad
from msvar.levelset import segment_levelset
from msvar.metrics import clustering_metrics, overlap_metrics
from msvar.phantoms import make_phantom
from msvar.softseg import (
    MsConfig,
    SoftSegmentation,
    fixed_point_step,
    hard_mask,
    minimize_ms,
    ms_loss,
    ms_loss_grad,
    soft_centroids,
    softmax,
)
from msvar.supervision import CombinedLossConfig, combined_loss, cross_entropy

from oracles import (
    best_permutation_ious,
    bias_centroids_loop,
    bias_ms_loss_loop,
    centroids_loop,
    clustering_loop,
    cross_entropy_loop,
    fd_gradient,
    fixed_point_velocity_loop,
    levelset_velocity_loop,
    ms_loss_loop,
    overlap_loop,
    tv_smooth_loop,
)


def report(num, desc, fn):
    try:
        fn()
    except Exception:
        print(f"criterion {num:2d}: FAIL  {desc}")
        raise
    print(f"criterion {num:2d}: PASS  {desc}")


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


# ---------------------------------------------------------------------------

def test_criterion_1_partition_of_unity():
    def body():
        rng = np.random.default_rng(100)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 6))
            h = int(rng.integers(4, 33))
            w = int(rng.integers(4, 33))
            y = softmax(rng.uniform(-40, 40, (n, h, w)))
            worst = max(worst, float(np.max(np.abs(y.sum(axis=0) - 1.0))))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-12, f"partition-of-unity deviation {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    report(1, "partition of unity on 100 random logit fields (<1e-12)", body)


def test_criterion_2_gradient_suite():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(200)
        for k in range(20):
            n = int(rng.integers(2, 5))
            ch = 3 if k % 5 == 0 else 1
            x = rng.random((6, 6, ch))
            z = rng.uniform(-1.5, 1.5, (n, 6, 6))
            b = rng.uniform(0.5, 1.5, (6, 6))
            seg = SoftSegmentation.from_logits(z)
            cfg = MsConfig(num_classes=n, lambda_tv=5e-3, tv_eps=1e-6)
            gamma = 0.2

            # frozen-centroids mode against the frozen objective
            c0 = soft_centroids(x, seg.memberships)

            def frozen_loss(zz):
                y = softmax(zz)
                data = sum(
                    float(np.sum(((x - c0[m]) ** 2).sum(-1) * y[m])) for m in range(n)
                )
                return data + cfg.lambda_tv * sum(
                    tv_smooth(y[m], cfg.tv_eps) for m in range(n)
                )

            g = ms_loss_grad(x, seg, cfg, "frozen-centroids")
            assert rel_err(g, fd_gradient(frozen_loss, z)) < 1e-4

            # full mode against the full objective
            def full_loss(zz):
                return ms_loss(x, SoftSegmentation.from_logits(zz), cfg)[0]

            g = ms_loss_grad(x, seg, cfg, "full")
            assert rel_err(g, fd_gradient(full_loss, z)) < 1e-4

            # bias-model gradient in b, memberships and centroids frozen
            cb = bias_centroids(x, seg.memberships, b)

            def b_loss(bb):
                fitted = bb[None, :, :, None] * cb[:, None, None, :]
                data = float(np.sum(((x[None] - fitted) ** 2).sum(-1) * seg.memberships))
                return data + gamma * tv_smooth(bb, cfg.tv_eps)

            g = bias_loss_grad_b(x, seg.memberships, b, cb, cfg, gamma)
            assert rel_err(g, fd_gradient(b_loss, b)) < 1e-4

            # smoothed-TV gradient
            f = rng.random((6, 6))
            g = tv_smooth_grad(f, 1e-6)
            assert rel_err(g, fd_gradient(lambda v: tv_smooth(v, 1e-6), f)) < 1e-4
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    report(2, "analytic gradients match central finite differences (<1e-4)", body)


def test_criterion_3_oracle_equivalence():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(300)
        for k in range(5):
            n = int(rng.integers(2, 5))
            ch = 3 if k == 2 else 1
            h = int(rng.integers(4, 9))
            w = int(rng.integers(4, 9))
            x = rng.random((h, w, ch))
            z = rng.uniform(-1.5, 1.5, (n, h, w))
            b = rng.uniform(0.5, 1.5, (h, w))
            seg = SoftSegmentation.from_logits(z)
            y = seg.memberships
            cfg = MsConfig(num_classes=n, lambda_tv=3e-3, tv_eps=1e-5)
            gamma = 0.15

            assert np.max(np.abs(soft_centroids(x, y) - centroids_loop(x, y))) < 1e-9
            assert np.max(np.abs(bias_centroids(x, y, b) - bias_centroids_loop(x, y, b))) < 1e-9

            got = ms_loss(x, seg, cfg)
            want = ms_loss_loop(x, y, cfg.lambda_tv, cfg.tv_eps)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-9

            got = bias_ms_loss(x, seg, b, cfg, gamma)
            want = bias_ms_loss_loop(x, y, b, cfg.lambda_tv, gamma, cfg.tv_eps)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-9

            c = soft_centroids(x, y)
            _, info = fixed_point_step(x, seg, cfg)
            want_v = fixed_point_velocity_loop(x, y, c, cfg.lambda_tv, cfg.tv_eps)
            assert np.max(np.abs(info["velocity"] - want_v)) < 1e-9

            # two-level-function evolution velocity
            from msvar.levelset import LevelSetState, evolve_step

            phi = rng.uniform(-2, 2, (2, h, w))
            state = LevelSetState(phi=phi, eps_h=1.1, dt=0.3, lambda_tv=0.05)
            new = evolve_step(x, state)
            v1, v2 = levelset_velocity_loop(x, phi, 1.1, 0.05)
            assert np.max(np.abs((new.phi[0] - phi[0]) / 0.3 - v1)) < 1e-9
            assert np.max(np.abs((new.phi[1] - phi[1]) / 0.3 - v2)) < 1e-9

            labels = rng.integers(0, n, (h, w))
            assert abs(cross_entropy(seg, labels) - cross_entropy_loop(y, labels)) < 1e-9

            pred = rng.integers(0, 4, (h, w))
            gt = rng.integers(0, 3, (h, w))
            got4 = overlap_metrics(pred, gt, 1)
            want4 = overlap_loop(pred, gt, 1)
            assert max(abs(g - w) for g, w in zip(got4, want4)) < 1e-9
            got3 = clustering_metrics(pred, gt)
            want3 = clustering_loop(pred, gt)
            assert max(abs(g - w) for g, w in zip(got3, want3)) < 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"

    report(3, "losses, velocities, CE and all 7 metrics match loop oracles (<1e-9)", body)


def test_criterion_4_unsupervised_convergence():
    def body():
        image, gt, _ = make_phantom("two-phase", 64, 0.05, 7)
        cfg = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=0.5, max_iters=500, seed=0)
        t0 = time.perf_counter()
        seg = minimize_ms(image, cfg, init="kmeans").seg
        elapsed = time.perf_counter() - t0
        ious = best_permutation_ious(hard_mask(seg), gt, 2)
        assert min(ious) >= 0.99, f"two-phase IoU {min(ious):.4f}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

        image4, gt4, _ = make_phantom("four-phase", 64, 0.02, 7)
        cfg4 = MsConfig(num_classes=4, lambda_tv=1e-3, step_size=0.5, max_iters=500, seed=0)
        seg4 = minimize_ms(image4, cfg4, init="kmeans").seg
        ious4 = best_permutation_ious(hard_mask(seg4), gt4, 4)
        assert min(ious4) >= 0.98, f"four-phase per-class IoU {min(ious4):.4f}"

    report(4, "phantom convergence: two-phase IoU>=0.99 (<5s), four-phase >=0.98", body)


def test_criterion_5_bias_correction():
    def body():
        image, gt, btrue = make_phantom("ramp-bias", 64, 0.02, 3)
        cfg = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=2.0, max_iters=1500,
                       seed=0, tv_eps=1e-2)
        result_b = minimize_ms_bias(image, cfg, gamma=0.1, init="kmeans")
        seg_b, b = result_b.seg, result_b.bias
        cfg_p = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=0.5, max_iters=500, seed=0)
        seg_p = minimize_ms(image, cfg_p, init="kmeans").seg
        iou_b = min(best_permutation_ious(hard_mask(seg_b), gt, 2))
        iou_p = min(best_permutation_ious(hard_mask(seg_p), gt, 2))
        assert iou_b >= iou_p, f"bias IoU {iou_b:.4f} < plain IoU {iou_p:.4f}"
        assert abs(b.mean() - 1.0) < 1e-12  # gauge fixed
        corr = float(np.corrcoef(b.ravel(), btrue.ravel())[0, 1])
        assert corr >= 0.95, f"corr(b, b*) = {corr:.4f}"

    report(5, "bias correction: IoU >= plain solver, corr(b, b*) >= 0.95", body)


def _run_levelset(*args, **kwargs):
    try:
        return segment_levelset(*args, **kwargs)
    except ConvergenceError as err:
        return err.result


def test_criterion_6_levelset_baseline():
    def body():
        image, gt, _ = make_phantom("two-phase", 64, 0.0, 0)
        result = _run_levelset(image, phases=1, lambda_tv=1e-2, dt=0.5, max_iters=800, seed=0)
        labels, trace = result.labels, result.trace
        iou = max(overlap_metrics(labels, gt, 1)[0], overlap_metrics(1 - labels, gt, 1)[0])
        assert iou >= 0.98, f"two-phase IoU {iou:.4f}"
        assert np.all(np.diff(trace[:, 0]) <= 1e-6), "energy increased beyond slack"

        image4, gt4, _ = make_phantom("four-phase", 64, 0.0, 0)
        result4 = _run_levelset(image4, phases=2, lambda_tv=1e-2, dt=2.0,
                                eps_h=2.0, max_iters=3000, seed=0)
        labels4, trace4 = result4.labels, result4.trace
        ious = best_permutation_ious(labels4, gt4, 4)
        assert min(ious) >= 0.95, f"four-phase per-class IoU {min(ious):.4f}"
        assert np.all(np.diff(trace4[:, 0]) <= 1e-6), "energy increased beyond slack"

    report(6, "level-set: p=1 IoU>=0.98, p=2 >=0.95, energy non-increasing (1e-6)", body)


def test_criterion_7_monotone_descent():
    def body():
        for seed in range(5):
            image, _, _ = make_phantom("two-phase", 48, 0.05, seed)
            cfg = MsConfig(num_classes=2, max_iters=80, seed=seed)
            trace = minimize_ms(image, cfg, init="random").trace
            assert np.all(np.diff(trace[:, 0]) <= 0), f"ms trace increased (seed {seed})"
        for seed in range(5):
            image, _, _ = make_phantom("ramp-bias", 48, 0.05, seed)
            cfg = MsConfig(num_classes=2, max_iters=60, seed=seed, tv_eps=1e-2)
            trace = minimize_ms_bias(image, cfg, gamma=0.1, init="random").trace
            assert np.all(np.diff(trace[:, 0]) <= 0), f"bias trace increased (seed {seed})"

    report(7, "backtracked descent is non-increasing on 10 seeded phantoms", body)


def test_criterion_8_combined_loss_gate():
    def body():
        rng = np.random.default_rng(800)
        x = rng.random((6, 6, 1))
        seg = SoftSegmentation.from_logits(rng.uniform(-2, 2, (3, 6, 6)))
        labels = rng.integers(0, 3, (6, 6))
        for beta in (0.0, 1e-7, 1e-6):
            ms_cfg = MsConfig(num_classes=3)
            ce_ref = cross_entropy(seg, labels)
            ms_ref = ms_loss(x, seg, ms_cfg)[0]
            total, ce, ms = combined_loss(
                x, seg, labels, CombinedLossConfig(beta=beta, labeled=True, ms=ms_cfg)
            )
            assert abs(total - (ce_ref + beta * ms_ref)) < 1e-12
            total_u, ce_u, _ = combined_loss(
                x, seg, None, CombinedLossConfig(beta=beta, labeled=False, ms=ms_cfg)
            )
            assert ce_u == 0.0
            assert abs(total_u - beta * ms_ref) < 1e-12

    report(8, "combined loss gate: labeled CE + beta*MS, unlabeled beta*MS (<1e-12)", body)


def _natural_image_pairs():
    root = os.environ.get("MSVAR_BSDS_DIR", str(Path(__file__).parent / "data" / "bsds"))
    root = Path(root)
    if not root.is_dir():
        return []
    pairs = []
    for img_path in sorted(root.iterdir()):
        if img_path.suffix not in (".pgm", ".ppm") or img_path.stem.endswith("_gt"):
            continue
        gt_path = img_path.with_name(img_path.stem + "_gt.pgm")
        if gt_path.exists():
            pairs.append((img_path, gt_path))
    return pairs[:10]


def test_criterion_9_natural_image_ordering():
    """Informational: mean region covering of the relaxed solver should beat
    the p=1 level-set baseline on user-supplied natural-image crops.

    Supply up to 10 images as <name>.ppm/.pgm with labels <name>_gt.pgm in
    $MSVAR_BSDS_DIR (or tests/data/bsds); 128x128 center crops are used.
    Marked expected-flaky: an ordering violation reports xfail, not failure.
    """
    pairs = _natural_image_pairs()
    if not pairs:
        pytest.skip("no user-supplied natural-image crops found")

    def crop(a):
        h, w = a.shape[:2]
        i0, j0 = max(0, (h - 128) // 2), max(0, (w - 128) // 2)
        return a[i0 : i0 + 128, j0 : j0 + 128]

    rc_ms, rc_ls = [], []
    for img_path, gt_path in pairs:
        image = crop(pnm.load_image(img_path))
        gt = crop(pnm.load_labelmap(gt_path))
        cfg = MsConfig(num_classes=4, lambda_tv=1e-3, max_iters=300, seed=0)
        seg = minimize_ms(image, cfg, init="kmeans").seg
        rc_ms.append(clustering_metrics(hard_mask(seg), gt)[0])
        labels = _run_levelset(image, phases=1, lambda_tv=1e-2, dt=0.5,
                               max_iters=500, seed=0).labels
        rc_ls.append(clustering_metrics(labels, gt)[0])
    mean_ms, mean_ls = float(np.mean(rc_ms)), float(np.mean(rc_ls))
    line = f"mean RC: relaxed solver {mean_ms:.3f} vs level-set {mean_ls:.3f}"
    if mean_ms > mean_ls:
        print(f"criterion  9: PASS  {line}")
    else:
        print(f"criterion  9: XFAIL {line}")
        pytest.xfail(line)


def test_criterion_10_determinism(tmp_path):
    def body():
        data = tmp_path / "data"
        assert cli_main(["synth", "two-phase", "64", "0.05", "7", str(data)]) == 0
        args = ["segment", "--solver", "ms", "--classes", "2", "--lambda", "1e-3",
                "--eta", "0.5", "--max-iters", "500", "--seed", "0", "--init", "kmeans",
                str(data / "image.pgm")]
        assert cli_main(args + [str(tmp_path / "r1")]) == 0
        assert cli_main(args + [str(tmp_path / "r2")]) == 0
        for name in ("mask.pgm", "trace.csv"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"

    report(10, "criterion-4 CLI run is byte-identical when repeated", body)
