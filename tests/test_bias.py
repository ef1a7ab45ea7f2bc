import numpy as np
import pytest

from msvar.bias import (
    bias_centroids,
    bias_loss_grad_b,
    bias_ms_loss,
    minimize_ms_bias,
)
from msvar.phantoms import make_phantom
from msvar.softseg import (
    MsConfig,
    SoftSegmentation,
    hard_mask,
    minimize_ms,
    ms_loss,
    soft_centroids,
    softmax,
)

from oracles import (
    best_permutation_ious,
    bias_centroids_loop,
    bias_ms_loss_loop,
    fd_gradient,
    tv_smooth_loop,
)


def random_instance(seed, n=3, h=6, w=6, channels=1):
    rng = np.random.default_rng(seed)
    x = rng.random((h, w, channels))
    z = rng.uniform(-1.0, 1.0, (n, h, w))
    b = rng.uniform(0.5, 1.5, (h, w))
    return x, SoftSegmentation.from_logits(z), b


# ----------------------------------------------------------- bias_centroids

def test_unit_bias_reduces_to_soft_centroids():
    x, seg, _ = random_instance(0)
    b = np.ones(x.shape[:2])
    got = bias_centroids(x, seg.memberships, b)
    want = soft_centroids(x, seg.memberships)
    assert np.max(np.abs(got - want)) < 1e-12


def test_pure_bias_times_constant_cancels():
    _, _, bias = make_phantom("ramp-bias", 16, 0.0, 0)
    k = 0.37
    x = (bias * k)[:, :, None]
    y = softmax(np.random.default_rng(1).uniform(-1, 1, (3, 16, 16)))
    c = bias_centroids(x, y, bias)
    assert np.max(np.abs(c - k)) < 1e-9


def test_bias_centroids_match_loop_oracle():
    x, seg, b = random_instance(2, h=8, w=8)
    got = bias_centroids(x, seg.memberships, b)
    want = bias_centroids_loop(x, seg.memberships, b)
    assert np.max(np.abs(got - want)) < 1e-9


def test_bias_centroids_shape_mismatch():
    with pytest.raises(ValueError):
        bias_centroids(np.zeros((4, 4, 1)), np.zeros((2, 4, 4)), np.zeros((5, 5)))


# ------------------------------------------------------------- bias_ms_loss

def test_unit_bias_loss_equals_ms_loss():
    x, seg, _ = random_instance(3)
    cfg = MsConfig(num_classes=3, lambda_tv=2e-3)
    b = np.ones(x.shape[:2])
    loss, data, tv_y, tv_b = bias_ms_loss(x, seg, b, cfg, gamma=0.7)
    base_loss, base_data, base_tv = ms_loss(x, seg, cfg)
    assert tv_b == pytest.approx(0.0, abs=1e-12)
    assert loss == pytest.approx(base_loss, abs=1e-12)
    assert data == pytest.approx(base_data, abs=1e-12)
    assert tv_y == pytest.approx(base_tv, abs=1e-12)


def test_true_bias_and_true_mask_have_tiny_data_term():
    image, labels, bias = make_phantom("ramp-bias", 32, 0.0, 0)
    z = np.zeros((2, 32, 32))
    z[1][labels == 1] = 60.0
    z[0][labels == 0] = 60.0
    seg = SoftSegmentation.from_logits(z)
    _, data, _, _ = bias_ms_loss(image, seg, bias, MsConfig(num_classes=2), gamma=0.1)
    assert data < 1e-9


def test_bias_loss_matches_loop_oracle():
    x, seg, b = random_instance(4, h=7, w=5)
    cfg = MsConfig(num_classes=3, lambda_tv=3e-3, tv_eps=1e-5)
    got = bias_ms_loss(x, seg, b, cfg, gamma=0.2)
    want = bias_ms_loss_loop(x, seg.memberships, b, cfg.lambda_tv, 0.2, cfg.tv_eps)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)


def test_joint_scaling_gauge_freedom():
    # scaling b by a rescales the internally fitted centroids by 1/a, leaving
    # the data term unchanged
    x, seg, b = random_instance(5)
    cfg = MsConfig(num_classes=3, lambda_tv=0.0)
    _, data1, _, _ = bias_ms_loss(x, seg, b, cfg, gamma=0.0)
    _, data2, _, _ = bias_ms_loss(x, seg, 3.7 * b, cfg, gamma=0.0)
    assert data2 == pytest.approx(data1, abs=1e-9)


# ------------------------------------------------------- gradient in b

def test_bias_grad_b_matches_finite_differences():
    x, seg, b = random_instance(6)
    cfg = MsConfig(num_classes=3, lambda_tv=1e-3, tv_eps=1e-6)
    gamma = 0.15
    c = bias_centroids(x, seg.memberships, b)
    y = seg.memberships

    def frozen(bb):
        fitted = bb[None, :, :, None] * c[:, None, None, :]
        data = float(np.sum(((x[None] - fitted) ** 2).sum(-1) * y))
        return data + gamma * tv_smooth_loop(bb, cfg.tv_eps)

    g = bias_loss_grad_b(x, y, b, c, cfg, gamma)
    fd = fd_gradient(frozen, b)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4


# --------------------------------------------------------- minimize_ms_bias

def test_ramp_bias_recovery():
    image, gt, btrue = make_phantom("ramp-bias", 64, 0.02, 3)
    cfg = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=2.0, max_iters=1500,
                   seed=0, tv_eps=1e-2)
    result = minimize_ms_bias(image, cfg, gamma=0.1, init="kmeans")
    seg, b, c, trace = result.seg, result.bias, result.centroids, result.trace
    plain_cfg = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=0.5, max_iters=500, seed=0)
    seg_plain = minimize_ms(image, plain_cfg, init="kmeans").seg
    iou_bias = min(best_permutation_ious(hard_mask(seg), gt, 2))
    iou_plain = min(best_permutation_ious(hard_mask(seg_plain), gt, 2))
    assert iou_bias >= iou_plain
    assert b.mean() == pytest.approx(1.0, abs=1e-12)
    corr = np.corrcoef(b.ravel(), btrue.ravel())[0, 1]
    assert corr >= 0.95
    assert np.all(np.diff(trace[:, 0]) <= 0)


def test_bias_free_phantom_keeps_b_near_one():
    image, _, _ = make_phantom("two-phase", 64, 0.02, 5)
    cfg = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=2.0, max_iters=1500,
                   seed=0, tv_eps=1e-2)
    b = minimize_ms_bias(image, cfg, gamma=0.1, init="kmeans").bias
    assert np.max(np.abs(b - 1.0)) < 0.1


def test_huge_gamma_pins_b_constant():
    image, _, _ = make_phantom("two-phase", 64, 0.02, 5)
    cfg = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=0.5, max_iters=300, seed=0)
    result_b = minimize_ms_bias(image, cfg, gamma=1e6, init="kmeans")
    seg_b, b = result_b.seg, result_b.bias
    seg_p = minimize_ms(image, cfg, init="kmeans").seg
    assert np.max(np.abs(b - b.mean())) < 1e-3
    assert np.array_equal(hard_mask(seg_b), hard_mask(seg_p))


def test_bias_monotone_descent():
    for seed in range(3):
        image, _, _ = make_phantom("ramp-bias", 32, 0.05, seed)
        cfg = MsConfig(num_classes=2, max_iters=60, seed=seed, tv_eps=1e-2)
        trace = minimize_ms_bias(image, cfg, gamma=0.1, init="random").trace
        assert np.all(np.diff(trace[:, 0]) <= 0)


def test_bias_rejects_negative_gamma():
    with pytest.raises(ValueError):
        minimize_ms_bias(np.zeros((20, 20, 1)), MsConfig(), gamma=-1.0)
