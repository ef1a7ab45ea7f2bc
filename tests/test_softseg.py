import numpy as np
import pytest

from msvar import softseg
from msvar.bias import minimize_ms_bias
from msvar.errors import ConvergenceError
from msvar.phantoms import make_phantom
from msvar.softseg import (
    MsConfig,
    SoftSegmentation,
    fixed_point_step,
    hard_mask,
    iterate,
    kmeans_labels,
    minimize_ms,
    ms_loss,
    ms_loss_grad,
    soft_centroids,
    softmax,
)

from oracles import (
    best_permutation_ious,
    centroids_loop,
    fd_gradient,
    fixed_point_velocity_loop,
    kmeans_loop,
    ms_loss_loop,
    softmax_loop,
    tv_smooth_loop,
    wcss_loop,
)


def random_instance(seed, n=3, h=6, w=6, channels=1):
    rng = np.random.default_rng(seed)
    x = rng.random((h, w, channels))
    z = rng.uniform(-1.0, 1.0, (n, h, w))
    return x, SoftSegmentation.from_logits(z)


# ---------------------------------------------------------------- softmax

def test_softmax_symmetric_pair():
    z = np.zeros((2, 1, 1))
    y = softmax(z)
    assert y[0, 0, 0] == pytest.approx(0.5) and y[1, 0, 0] == pytest.approx(0.5)


def test_softmax_closed_form():
    z = np.zeros((2, 1, 1))
    z[0] = np.log(3.0)
    y = softmax(z)
    assert y[0, 0, 0] == pytest.approx(0.75, abs=1e-12)
    assert y[1, 0, 0] == pytest.approx(0.25, abs=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    z = rng.uniform(-2, 2, (4, 5, 5))
    assert np.max(np.abs(softmax(z + 1000.0) - softmax(z))) < 1e-12


def test_softmax_partition_of_unity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.uniform(-50, 50, (3, 8, 8))
        y = softmax(z)
        assert np.max(np.abs(y.sum(axis=0) - 1.0)) < 1e-12


def test_softmax_strictly_interior_at_moderate_logits():
    # float64 saturates to exactly 1.0 once the logit gap exceeds ~36
    rng = np.random.default_rng(1)
    z = rng.uniform(-15, 15, (3, 8, 8))
    y = softmax(z)
    assert y.min() > 0 and y.max() < 1


def test_softmax_matches_loop_oracle():
    rng = np.random.default_rng(2)
    z = rng.uniform(-5, 5, (3, 4, 4))
    assert np.max(np.abs(softmax(z) - softmax_loop(z))) < 1e-12


def test_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        softmax(np.zeros((1, 4, 4)))
    z = np.zeros((2, 4, 4))
    z[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        softmax(z)


# ---------------------------------------------------------- soft_centroids

def test_centroids_uniform_memberships_give_global_mean():
    rng = np.random.default_rng(3)
    x = rng.random((5, 5, 2))
    y = np.full((3, 5, 5), 1.0 / 3.0)
    c = soft_centroids(x, y)
    for n in range(3):
        assert np.allclose(c[n], x.mean(axis=(0, 1)), atol=1e-7)


def test_centroids_hard_partition():
    x = np.array([[[0.0], [0.0], [10.0], [10.0]]])
    y = np.zeros((2, 1, 4))
    y[0, 0, :2] = 1.0
    y[1, 0, 2:] = 1.0
    c = soft_centroids(x, y)
    assert c[0, 0] == pytest.approx(0.0, abs=1e-6)
    assert c[1, 0] == pytest.approx(10.0, abs=1e-6)


def test_centroids_match_loop_oracle():
    rng = np.random.default_rng(4)
    x = rng.random((8, 8, 1))
    y = softmax(rng.uniform(-1, 1, (3, 8, 8)))
    assert np.max(np.abs(soft_centroids(x, y) - centroids_loop(x, y))) < 1e-9


def test_centroids_shape_mismatch():
    with pytest.raises(ValueError):
        soft_centroids(np.zeros((4, 4, 1)), np.zeros((2, 5, 5)))


# ----------------------------------------------------------------- ms_loss

def test_ms_loss_constant_image_constant_logits_is_zero():
    x = np.full((6, 6, 1), 0.3)
    z = np.zeros((2, 6, 6))
    z[1] = 0.7
    loss, data, tv = ms_loss(x, SoftSegmentation.from_logits(z), MsConfig())
    assert data == pytest.approx(0.0, abs=1e-12)
    assert tv == pytest.approx(0.0, abs=1e-12)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_ms_loss_near_hard_correct_partition():
    x = np.array([[[0.0], [0.0], [10.0], [10.0]]])
    z = np.zeros((2, 1, 4))
    z[0, 0, :2] = 20.0
    z[1, 0, 2:] = 20.0
    cfg = MsConfig(lambda_tv=0.0)
    loss, _, _ = ms_loss(x, SoftSegmentation.from_logits(z), cfg)
    assert loss < 1e-6


def test_ms_loss_matches_loop_oracle():
    for seed in range(3):
        x, seg = random_instance(seed, n=3, h=6, w=6)
        cfg = MsConfig(num_classes=3, lambda_tv=2e-3, tv_eps=1e-6)
        got = ms_loss(x, seg, cfg)
        want = ms_loss_loop(x, seg.memberships, cfg.lambda_tv, cfg.tv_eps)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)


def test_ms_loss_shift_invariance():
    x, seg = random_instance(7)
    cfg = MsConfig(num_classes=3)
    base = ms_loss(x, seg, cfg)[0]
    shifted = SoftSegmentation.from_logits(seg.logits + 123.0)
    assert ms_loss(x, shifted, cfg)[0] == pytest.approx(base, abs=1e-9)
    assert np.array_equal(hard_mask(seg), hard_mask(shifted))


def test_ms_loss_permutation_equivariance():
    x, seg = random_instance(8, n=3)
    cfg = MsConfig(num_classes=3)
    perm = [2, 0, 1]
    permuted = SoftSegmentation.from_logits(seg.logits[perm])
    assert ms_loss(x, permuted, cfg)[0] == pytest.approx(ms_loss(x, seg, cfg)[0], abs=1e-9)
    assert np.array_equal(hard_mask(permuted), np.argsort(perm)[hard_mask(seg)])


def test_ms_loss_hard_assignment_equals_wcss():
    rng = np.random.default_rng(9)
    x = rng.random((7, 7, 1))
    labels = rng.integers(0, 3, (7, 7))
    z = np.zeros((3, 7, 7))
    for n in range(3):
        z[n][labels == n] = 30.0
    cfg = MsConfig(num_classes=3, lambda_tv=0.0)
    loss, data, _ = ms_loss(x, SoftSegmentation.from_logits(z), cfg)
    assert data == pytest.approx(wcss_loop(x, labels, 3), abs=1e-6)


# ------------------------------------------------------------ ms_loss_grad

def test_grad_zero_at_constant():
    x = np.full((5, 5, 1), 0.6)
    z = np.zeros((2, 5, 5))
    for mode in ("frozen-centroids", "full"):
        g = ms_loss_grad(x, SoftSegmentation.from_logits(z), MsConfig(), mode)
        assert np.max(np.abs(g)) < 1e-12


def test_grad_frozen_matches_fd_of_frozen_loss():
    x, seg = random_instance(10, n=3)
    cfg = MsConfig(num_classes=3, lambda_tv=1e-2, tv_eps=1e-6)
    c0 = soft_centroids(x, seg.memberships)

    def frozen(zflat):
        y = softmax(zflat)
        data = sum(
            float(np.sum(((x - c0[n]) ** 2).sum(-1) * y[n])) for n in range(3)
        )
        tv = cfg.lambda_tv * sum(tv_smooth_loop(y[n], cfg.tv_eps) for n in range(3))
        return data + tv

    g = ms_loss_grad(x, seg, cfg, "frozen-centroids")
    fd = fd_gradient(frozen, seg.logits)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4


def test_grad_full_matches_fd_of_full_loss():
    x, seg = random_instance(11, n=3)
    cfg = MsConfig(num_classes=3, lambda_tv=1e-2, tv_eps=1e-6)

    def full(zflat):
        return ms_loss(x, SoftSegmentation.from_logits(zflat), cfg)[0]

    g = ms_loss_grad(x, seg, cfg, "full")
    fd = fd_gradient(full, seg.logits)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4


def test_grad_rejects_unknown_mode():
    x, seg = random_instance(12)
    with pytest.raises(ValueError):
        ms_loss_grad(x, seg, MsConfig(num_classes=3), "other")


# -------------------------------------------------------- fixed_point_step

def test_fixed_point_sign_analysis():
    # two-valued image, uniform memberships, centroids supplied explicitly:
    # at a pixel sitting on c1 the velocity raises y1 and lowers y2
    x, labels, _ = make_phantom("two-phase", 16, 0.0, 0)
    z = np.zeros((2, 16, 16))
    seg = SoftSegmentation.from_logits(z)
    cfg = MsConfig(num_classes=2, lambda_tv=1e-3)
    centroids = np.array([[0.8], [0.2]])
    y_new, info = fixed_point_step(x, seg, cfg, centroids=centroids)
    disk = labels == 1
    assert np.all(info["velocity"][0][disk] > 0)
    assert np.all(info["velocity"][1][disk] < 0)
    assert np.all(y_new[0][disk] > 0.5)


def test_fixed_point_zero_velocity_on_constant():
    x = np.full((6, 6, 1), 0.4)
    seg = SoftSegmentation.from_logits(np.zeros((2, 6, 6)))
    _, info = fixed_point_step(x, seg, MsConfig(num_classes=2))
    assert np.max(np.abs(info["velocity"])) < 1e-12


def test_fixed_point_matches_loop_oracle():
    x, seg = random_instance(13, n=3, h=5, w=5)
    cfg = MsConfig(num_classes=3, lambda_tv=5e-3, tv_eps=1e-4, step_size=0.3)
    c = soft_centroids(x, seg.memberships)
    y_new, info = fixed_point_step(x, seg, cfg)
    want = fixed_point_velocity_loop(x, seg.memberships, c, cfg.lambda_tv, cfg.tv_eps)
    assert np.max(np.abs(info["velocity"] - want)) < 1e-9
    assert np.max(np.abs(y_new - (seg.memberships + cfg.step_size * want))) < 1e-12


# --------------------------------------------------------------- hard_mask

def test_hard_mask_tie_breaks_low():
    seg = SoftSegmentation.from_logits(np.zeros((2, 3, 3)))
    assert np.all(hard_mask(seg) == 0)


def test_hard_mask_picks_max():
    z = np.log(np.array([0.1, 0.7, 0.2]))[:, None, None] * np.ones((3, 2, 2))
    seg = SoftSegmentation.from_logits(z)
    assert np.all(hard_mask(seg) == 1)


def test_hard_mask_matches_argmax_oracle():
    rng = np.random.default_rng(14)
    z = rng.uniform(-2, 2, (4, 6, 6))
    seg = SoftSegmentation.from_logits(z)
    mask = hard_mask(seg)
    for i in range(6):
        for j in range(6):
            vals = [seg.memberships[n, i, j] for n in range(4)]
            assert mask[i, j] == vals.index(max(vals))


# ------------------------------------------------------------- minimize_ms

def test_minimize_two_phase_phantom():
    image, gt, _ = make_phantom("two-phase", 64, 0.05, 7)
    cfg = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=0.5, max_iters=500, seed=0)
    seg, _, trace = minimize_ms(image, cfg, init="kmeans")
    ious = best_permutation_ious(hard_mask(seg), gt, 2)
    assert min(ious) >= 0.99
    assert np.all(np.diff(trace[:, 0]) <= 0)


def test_minimize_constant_image_terminates_at_zero():
    x = np.full((24, 24, 1), 0.5)
    cfg = MsConfig(num_classes=2, max_iters=50, seed=1)
    seg, _, trace = minimize_ms(x, cfg, init="kmeans")
    assert np.max(np.abs(trace[:, 0])) < 1e-12
    assert len(trace) - 1 < 50  # stopped by rel_tol, not the iteration cap


def test_minimize_four_phase_phantom():
    image, gt, _ = make_phantom("four-phase", 64, 0.02, 7)
    cfg = MsConfig(num_classes=4, lambda_tv=1e-3, step_size=0.5, max_iters=500, seed=0)
    seg, _, trace = minimize_ms(image, cfg, init="kmeans")
    ious = best_permutation_ious(hard_mask(seg), gt, 4)
    assert min(ious) >= 0.98


def test_minimize_monotone_descent_random_seeds():
    for seed in range(3):
        image, _, _ = make_phantom("two-phase", 32, 0.1, seed)
        cfg = MsConfig(num_classes=2, max_iters=60, seed=seed)
        _, _, trace = minimize_ms(image, cfg, init="random")
        assert np.all(np.diff(trace[:, 0]) <= 0)


def test_minimize_deterministic():
    image, _, _ = make_phantom("two-phase", 32, 0.05, 3)
    cfg = MsConfig(num_classes=2, max_iters=40, seed=5)
    seg1, c1, t1 = minimize_ms(image, cfg, init="random")
    seg2, c2, t2 = minimize_ms(image, cfg, init="random")
    assert np.array_equal(seg1.logits, seg2.logits)
    assert np.array_equal(c1, c2)
    assert np.array_equal(t1, t2)


def test_minimize_validates_config():
    with pytest.raises(ValueError):
        minimize_ms(np.zeros((20, 20, 1)), MsConfig(num_classes=1))
    with pytest.raises(ValueError):
        minimize_ms(np.zeros((20, 20, 1)), MsConfig(step_size=0.0))


# ----------------------------------------------------------------- iterate

def test_iterate_stops_on_rel_tol():
    losses = iter([8.0, 4.0, 4.0 * (1 - 1e-9), 1.0])
    trace, stop = iterate(lambda: (next(losses), 0.0), (16.0, 0.0), 10, 1e-6)
    assert stop == "rel_tol"
    assert trace.shape == (4, 2) and trace[:, 0].tolist() == [16.0, 8.0, 4.0, 4.0 * (1 - 1e-9)]


def test_iterate_stops_when_step_stalls():
    rows = iter([(8.0,), (4.0,), None, (1.0,)])
    trace, stop = iterate(lambda: next(rows), (16.0,), 10, 1e-6)
    assert stop == "stalled"
    assert trace[:, 0].tolist() == [16.0, 8.0, 4.0]  # the stalled step adds no row


def test_iterate_stops_at_max_iters():
    calls = []

    def halve():
        calls.append(1)
        return (16.0 / 2 ** len(calls),)

    trace, stop = iterate(halve, (16.0,), 5, 1e-6)
    assert stop == "max_iters"
    assert len(calls) == 5 and trace.shape == (6, 1) and trace[-1, 0] == 0.5


def _rising_energy(monkeypatch):
    """Make every energy evaluation after the first far worse than the one before."""
    real = softseg.energy
    calls = []

    def rising(*args, **kwargs):
        terms = real(*args, **kwargs)
        calls.append(1)
        return (terms[0] + 1e6 * (len(calls) - 1),) + terms[1:]

    monkeypatch.setattr(softseg, "energy", rising)
    return calls


def test_minimize_ms_raises_with_state_when_backtracking_exhausts(monkeypatch):
    calls = _rising_energy(monkeypatch)
    image, _, _ = make_phantom("two-phase", 16, 0.05, 0)
    with pytest.raises(ConvergenceError) as info:
        minimize_ms(image, MsConfig(num_classes=2, max_iters=20), init="kmeans")
    assert len(calls) == 1 + 31  # the start, then 31 rejected steps
    assert info.value.trace.shape == (1, 3)
    seg, c = info.value.result
    assert seg.memberships.shape == (2, 16, 16) and c.shape == (2, 1)


def test_minimize_ms_bias_raises_with_state_when_every_block_exhausts(monkeypatch):
    calls = _rising_energy(monkeypatch)
    image, _, _ = make_phantom("ramp-bias", 16, 0.02, 0)
    with pytest.raises(ConvergenceError) as info:
        minimize_ms_bias(image, MsConfig(num_classes=2, max_iters=20), 0.1, init="kmeans")
    assert len(calls) == 1 + 31 + 31  # logit block, then bias block
    assert info.value.trace.shape == (1, 4)
    seg, b, c = info.value.result
    assert seg.memberships.shape == (2, 16, 16) and c.shape == (2, 1)
    assert np.array_equal(b, np.ones((16, 16)))


# ----------------------------------------------------------------- kmeans

def test_kmeans_separates_phantom_levels():
    image, gt, _ = make_phantom("four-phase", 32, 0.01, 0)
    labels, centers = kmeans_labels(image, 4, seed=0)
    ious = best_permutation_ious(labels, gt, 4)
    assert min(ious) >= 0.99
    assert sorted(np.round(centers[:, 0], 1).tolist()) == [0.2, 0.4, 0.6, 0.8]


def _assert_matches_kmeans_oracle(x, num_classes, seed):
    labels, centers = kmeans_labels(x, num_classes, seed)
    ref_labels, ref_centers = kmeans_loop(x, num_classes, seed)
    assert np.array_equal(labels, ref_labels)
    assert np.abs(centers - ref_centers).max() <= 1e-12


@pytest.mark.parametrize("kind,num_classes", [("two-phase", 2), ("four-phase", 4)])
@pytest.mark.parametrize("noise_seed", [1, 2, 101])
def test_kmeans_matches_per_pixel_oracle_on_phantoms(kind, num_classes, noise_seed):
    for sigma in (0.05, 0.2):
        image, _, _ = make_phantom(kind, 64, sigma, noise_seed)
        image = np.round(np.clip(image, 0.0, 1.0) * 255) / 255  # as read from a PGM
        for seed in (0, 3):
            _assert_matches_kmeans_oracle(image, num_classes, seed)


def _uniform(shape):
    return np.random.default_rng(7).random(shape)


@pytest.mark.parametrize("x,num_classes", [
    pytest.param(np.round(_uniform((24, 20, 3)) * 3) / 3, 3, id="rgb-quantised"),
    pytest.param(_uniform((20, 30)), 4, id="all-distinct"),
    pytest.param(np.full((8, 8), 0.3), 3, id="constant"),
    pytest.param((_uniform((10, 12)) > 0.5) * 1.0, 4, id="two-values-four-classes"),
    pytest.param(np.array([[0.5]]), 2, id="1x1"),
    pytest.param(_uniform((1, 9)), 3, id="1xN"),
])
def test_kmeans_matches_per_pixel_oracle_on_edge_cases(x, num_classes):
    for seed in (0, 1, 2):
        _assert_matches_kmeans_oracle(x, num_classes, seed)
