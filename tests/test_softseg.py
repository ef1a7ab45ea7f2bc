import tracemalloc

import numpy as np
import pytest

from msvar import bias, grid, softseg
from msvar.bias import bias_loss_grad_b, grad_b, minimize_ms_bias
from msvar.errors import ConvergenceError
from msvar.grid import tv_smooth, tv_smooth_grad
from msvar.levelset import segment_levelset
from msvar.phantoms import make_phantom
from msvar.softseg import (
    MsConfig,
    Result,
    SoftSegmentation,
    energy,
    fixed_point_step,
    hard_mask,
    init_logits,
    iterate,
    kmeans_labels,
    minimize_ms,
    ms_loss,
    ms_loss_grad,
    soft_centroids,
    softmax,
    sq_residual,
    weighted_means,
)

from oracles import (
    best_permutation_ious,
    bias_ms_loss_loop,
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


def test_softmax_rejects_a_trial_that_overflows():
    u, d = np.zeros((2, 3, 3)), np.zeros((2, 3, 3))
    u[1, 2, 1], d[1, 2, 1] = 1e308, -1e308  # u - d * eta = 2e308
    with pytest.raises(ValueError, match="non-finite"):
        softmax(u, d, 1.0)
    d[1, 2, 1] = 1e308
    assert np.array_equal(softmax(u, d, 1.0), np.full((2, 3, 3), 0.5))
    with pytest.raises(ValueError, match="non-finite"):
        softmax(u, d, np.inf)
    with pytest.raises(ValueError, match="C-contiguous"):
        softmax(u, d, 1.0, np.empty((2, 3, 6))[:, :, ::2])


def _softmax_whole(z):
    """The whole-stack softmax formula the strip kernels must reproduce."""
    e = z - z.max(axis=0, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def _chain_softmax_whole(y, g):
    inner = g[0] * y[0]
    for n in range(1, y.shape[0]):
        inner += g[n] * y[n]
    return (g - inner) * y


# Strip lengths in pixels (elements for the in-place step): the default, 25
# (13x8 and N x 13 x 8 do not divide) and fewer than a row.
@pytest.mark.parametrize("strip", [softseg.STRIP, 25, 5])
@pytest.mark.parametrize("shape", [(13, 8), (1, 9), (9, 1), (1, 1)],
                         ids=["13x8", "1x9", "9x1", "1x1"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_strip_kernels_equal_the_whole_stack_formulas(monkeypatch, strip, shape, n):
    monkeypatch.setattr(softseg, "STRIP", strip)  # the binding the kernels read
    rng = np.random.default_rng(7)
    u = rng.uniform(-40.0, 40.0, (n,) + shape)
    d = rng.uniform(-9.0, 9.0, (n,) + shape)
    eta = 0.3711
    trial = u - d * eta
    assert np.array_equal(softmax(u), _softmax_whole(u))
    assert np.array_equal(softmax(u, d, eta), _softmax_whole(trial))
    out = np.full_like(u, np.nan)
    assert softmax(u, d, eta, out) is out and np.array_equal(out, _softmax_whole(trial))
    y, g = softmax(u), rng.uniform(-3.0, 3.0, u.shape)
    want = _chain_softmax_whole(y, g)
    assert softseg._chain_softmax(y, g) is g and np.array_equal(g, want)
    moved = u.copy()
    assert softseg._step(moved, d, eta, moved) is moved  # the in-place step
    assert np.array_equal(moved, trial)


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hard_mask_equals_argmax_on_stacks_with_exact_ties(n):
    # logits from a small set, so many pixels tie between two or more classes,
    # at the maximum and below it; equal logits give equal memberships
    seg = SoftSegmentation.from_logits(np.random.default_rng(n).integers(0, 3, (n, 9, 11)))
    y = seg.memberships
    assert (y == y.max(axis=0)).sum(axis=0).max() == n
    mask = hard_mask(seg)
    assert mask.dtype == np.intp and np.array_equal(mask, np.argmax(y, axis=0))


# ------------------------------------------------------------- minimize_ms

def test_minimize_two_phase_phantom():
    image, gt, _ = make_phantom("two-phase", 64, 0.05, 7)
    cfg = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=0.5, max_iters=500, seed=0)
    result = minimize_ms(image, cfg, init="kmeans")
    seg, trace = result.seg, result.trace
    ious = best_permutation_ious(hard_mask(seg), gt, 2)
    assert min(ious) >= 0.99
    assert np.all(np.diff(trace[:, 0]) <= 0)


def test_minimize_constant_image_terminates_at_zero():
    x = np.full((24, 24, 1), 0.5)
    cfg = MsConfig(num_classes=2, max_iters=50, seed=1)
    trace = minimize_ms(x, cfg, init="kmeans").trace
    assert np.max(np.abs(trace[:, 0])) < 1e-12
    assert len(trace) - 1 < 50  # stopped by rel_tol, not the iteration cap


def test_minimize_four_phase_phantom():
    image, gt, _ = make_phantom("four-phase", 64, 0.02, 7)
    cfg = MsConfig(num_classes=4, lambda_tv=1e-3, step_size=0.5, max_iters=500, seed=0)
    result = minimize_ms(image, cfg, init="kmeans")
    seg, trace = result.seg, result.trace
    ious = best_permutation_ious(hard_mask(seg), gt, 4)
    assert min(ious) >= 0.98


def test_minimize_monotone_descent_random_seeds():
    for seed in range(3):
        image, _, _ = make_phantom("two-phase", 32, 0.1, seed)
        cfg = MsConfig(num_classes=2, max_iters=60, seed=seed)
        trace = minimize_ms(image, cfg, init="random").trace
        assert np.all(np.diff(trace[:, 0]) <= 0)


def test_minimize_deterministic():
    image, _, _ = make_phantom("two-phase", 32, 0.05, 3)
    cfg = MsConfig(num_classes=2, max_iters=40, seed=5)
    r1 = minimize_ms(image, cfg, init="random")
    r2 = minimize_ms(image, cfg, init="random")
    seg1, c1, t1 = r1.seg, r1.centroids, r1.trace
    seg2, c2, t2 = r2.seg, r2.centroids, r2.trace
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
    """Make every energy evaluation after the first far worse than the one before,
    energy's (softseg's and bias's bindings) and two_class_energy's (the
    two-class ms descent's) alike."""
    calls = []

    def rising(real):
        def evaluated(*args, **kwargs):
            terms = real(*args, **kwargs)
            calls.append(1)
            return (terms[0] + 1e6 * (len(calls) - 1),) + terms[1:]

        return evaluated

    for module, name in ((softseg, "energy"), (softseg, "two_class_energy"), (bias, "energy")):
        monkeypatch.setattr(module, name, rising(getattr(module, name)))
    return calls


def test_minimize_ms_raises_with_state_when_backtracking_exhausts(monkeypatch):
    calls = _rising_energy(monkeypatch)
    image, _, _ = make_phantom("two-phase", 16, 0.05, 0)
    with pytest.raises(ConvergenceError) as info:
        minimize_ms(image, MsConfig(num_classes=2, max_iters=20), init="kmeans")
    assert len(calls) == 1 + 31  # the start, then 31 rejected steps
    assert info.value.result.trace.shape == (1, 3)
    seg, c = info.value.result.seg, info.value.result.centroids
    assert seg.memberships.shape == (2, 16, 16) and c.shape == (2, 1)


def test_minimize_ms_bias_raises_with_state_when_every_block_exhausts(monkeypatch):
    calls = _rising_energy(monkeypatch)
    image, _, _ = make_phantom("ramp-bias", 16, 0.02, 0)
    with pytest.raises(ConvergenceError) as info:
        minimize_ms_bias(image, MsConfig(num_classes=2, max_iters=20), 0.1, init="kmeans")
    # the start, the logit block, the bias block, and the gradient in the
    # memberships that the bias block builds at the state it leaves
    assert len(calls) == 1 + 31 + 31 + 1
    assert info.value.result.trace.shape == (1, 4)
    seg, b, c = info.value.result.seg, info.value.result.bias, info.value.result.centroids
    assert seg.memberships.shape == (2, 16, 16) and c.shape == (2, 1)
    assert np.array_equal(b, np.ones((16, 16)))


def test_a_stalled_ms_bias_result_is_gauge_fixed(monkeypatch):
    # both blocks of the fourth iteration (calls 6 and 7) exhaust, so the run
    # stalls after three; the Result it raises with still has mean(b) = 1, and
    # the fit b c_n, through the data term, is the one the descent reached
    calls = []
    _recording_descend(monkeypatch, calls, exhaust=range(6, 8))
    image, _, _ = make_phantom("ramp-bias", 32, 0.02, 0)
    cfg = MsConfig(num_classes=2, step_size=2.0, max_iters=20, tv_eps=1e-2)
    with pytest.raises(ConvergenceError) as info:
        minimize_ms_bias(image, cfg, 0.1, init="kmeans")
    result = info.value.result
    assert len(calls) == 8 and result.stop == "stalled" and len(result.trace) == 4
    assert result.bias.mean() == pytest.approx(1.0, rel=0.0, abs=1e-12)
    y, c, b = result.seg.memberships, result.centroids, result.bias
    assert energy(image, y, c, 0.0, cfg.tv_eps, b)[1] == pytest.approx(result.trace[-1, 1], rel=1e-12)


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


def _quantised_phantom(kind, size, sigma, seed):
    image, _, _ = make_phantom(kind, size, sigma, seed)
    return np.round(np.clip(image, 0.0, 1.0) * 255) / 255  # as read from a PGM


@pytest.mark.parametrize("kind,num_classes", [("two-phase", 2), ("four-phase", 4)])
@pytest.mark.parametrize("noise_seed", [1, 2, 101])
def test_kmeans_matches_per_pixel_oracle_on_phantoms(kind, num_classes, noise_seed):
    for sigma in (0.05, 0.2):
        image = _quantised_phantom(kind, 64, sigma, noise_seed)
        for seed in (0, 3):
            _assert_matches_kmeans_oracle(image, num_classes, seed)


def test_kmeans_stops_at_its_fixed_point(monkeypatch):
    x = np.where(np.arange(12 * 10).reshape(12, 10) % 7 < 3, 0.2, 0.9)
    sweeps = []
    real_once, real_sq = softseg._kmeans_once, softseg.sq_residual

    def once(*args):
        sweeps.append(0)
        return real_once(*args)

    def sq_residual(pts, c, b=None):
        # a Lloyd assignment: both centres against the (P, 1, C) distinct
        # values, not a k-means++ seed distance or a pass over the image
        if pts.shape[1] == 1 and len(c) == 2:
            sweeps[-1] += 1
        return real_sq(pts, c, b)

    monkeypatch.setattr(softseg, "_kmeans_once", once)
    monkeypatch.setattr(softseg, "sq_residual", sq_residual)
    _assert_matches_kmeans_oracle(x, 2, 0)
    assert len(sweeps) == softseg.KMEANS_RESTARTS
    assert max(sweeps) <= 2


@pytest.mark.parametrize("kind,num_classes", [("two-phase", 2), ("four-phase", 4)])
@pytest.mark.parametrize("seed", [0, 3])
def test_kmeans_depends_only_on_the_histogram(kind, num_classes, seed, monkeypatch):
    # seeds, sweeps and the choice of restart see only the distinct values and
    # their counts, which a pixel permutation keeps; the image itself is read
    # by the label pass alone, one _residual_sums call per class
    image = _quantised_phantom(kind, 64, 0.05, 1)
    perm = np.random.default_rng(5).permutation(image.size)
    shuffled = image.reshape(-1)[perm].reshape(image.shape)
    passes = []
    real_sums = softseg._residual_sums

    def residual_sums(x, *args, **kwargs):
        if np.may_share_memory(x, image) or np.may_share_memory(x, shuffled):
            passes.append(0)
        return real_sums(x, *args, **kwargs)

    monkeypatch.setattr(softseg, "_residual_sums", residual_sums)
    labels, centers = kmeans_labels(image, num_classes, seed)
    assert len(passes) == num_classes
    got_labels, got_centers = kmeans_labels(shuffled, num_classes, seed)
    assert len(passes) == 2 * num_classes
    assert got_centers.tobytes() == centers.tobytes()
    assert np.array_equal(got_labels.reshape(-1), labels.reshape(-1)[perm])


def _uniform(shape):
    return np.random.default_rng(7).random(shape)


@pytest.mark.parametrize("shape, levels", [((24, 20, 3), 3), ((40, 33, 3), 255), ((9, 7, 2), 5)])
def test_distinct_rows_match_unique_on_rows(shape, levels):
    pts = (np.round(_uniform(shape) * levels) / levels).reshape(-1, shape[2])
    want = np.unique(pts, axis=0, return_counts=True)
    got = softseg._distinct_rows(pts)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("kind,num_classes", [("two-phase", 2), ("four-phase", 4)])
def test_kmeans_matches_per_pixel_oracle_at_256(kind, num_classes):
    _assert_matches_kmeans_oracle(_quantised_phantom(kind, 256, 0.05, 1), num_classes, 0)


def _draw_cases():
    rng = np.random.default_rng(20)
    for size in (1, 2, 3, 17, 1000, 65537, 200000):
        w = rng.random(size) ** 3
        w[rng.random(size) < 0.3] = 0.0  # zero weights are never drawn
        if not w.any():
            w[-1] = 0.25
        yield w
        single = np.zeros(size)
        single[rng.integers(size)] = rng.random() + 1e-3
        yield single
    yield np.array([1e-300, 0.0, 3e-310, 2.0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draw_is_rng_choice(seed):
    # the same index from the same generator state, and the same state after
    for w in _draw_cases():
        for trial in range(3):
            want_rng = np.random.default_rng([seed, trial, len(w)])
            got_rng = np.random.default_rng([seed, trial, len(w)])
            want = want_rng.choice(len(w), p=w / w.sum())
            got = softseg._draw(w, np.empty(len(w)), got_rng)
            assert got == want and w[got] > 0
            assert got_rng.integers(2**62) == want_rng.integers(2**62)


def test_draw_of_zero_weights_is_uniform_and_of_infinite_ones_raises():
    want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
    assert softseg._draw(np.zeros(7), np.empty(7), got_rng) == want_rng.integers(7)
    with pytest.raises(ValueError):
        softseg._draw(np.array([1.0, np.inf]), np.empty(2), got_rng)


def test_kmeans_with_overflowing_distances_raises():
    # the squared distance of 1e200 to -1e200 overflows, and with it the
    # total of the k-means++ weights over the distinct values; _draw raises
    # on it, as rng.choice does on the NaN probabilities such a total makes
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        kmeans_labels(np.array([[1e200, -1e200], [0.0, 5.0]]), 2, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_running_minimum_equals_argmin_on_stacks_with_exact_ties(n):
    stack = np.random.default_rng(n).integers(0, 3, (n, 9, 11)) / 2.0
    assert (stack == stack.min(axis=0)).sum(axis=0).max() == n
    labels, least = softseg._first_extreme(stack, np.less, np.minimum)
    assert labels.dtype == np.intp and np.array_equal(labels, np.argmin(stack, axis=0))
    assert np.array_equal(least, stack.min(axis=0))
    def refilled():  # one buffer for every plane, as kmeans_labels hands them
        buf = np.empty(stack.shape[1:])
        for plane in stack:
            buf[...] = plane
            yield buf

    assert np.array_equal(softseg._first_extreme(refilled(), np.less, np.minimum)[0], labels)


@pytest.mark.parametrize("kind,num_classes", [("two-phase", 2), ("four-phase", 4), ("two-phase", 3)])
def test_kmeans_logits_are_the_scattered_gap(kind, num_classes):
    image = _quantised_phantom(kind, 64, 0.1, 2)
    cfg = MsConfig(num_classes=num_classes, seed=4)
    labels, _ = kmeans_labels(image, num_classes, cfg.seed)
    want = np.zeros((num_classes,) + image.shape)
    for n in range(num_classes):
        want[n][labels == n] = softseg.KMEANS_LOGIT_GAP
    assert init_logits(image, cfg, "kmeans").tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,num_classes", [("two-phase", 2), ("four-phase", 4)])
def test_traced_peak_of_kmeans_init(kind, num_classes):
    # the logits (num_classes planes) are written while the labels (one
    # plane) are held; k-means itself holds about three planes at its peak,
    # in its one pass over the image (a running minimum, the labels it forms
    # and a distance buffer): seeds and sweeps hold only arrays the size of
    # the histogram. Traced: 3.15 planes for two classes, 5.00 for four. A
    # per-pixel index into the distinct values, the distances of all classes
    # as one stack, or a temporary plane per class while the logits are
    # written would raise it.
    image = _quantised_phantom(kind, 256, 0.05, 1)
    cfg = MsConfig(num_classes=num_classes, seed=0)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        init_logits(image, cfg, "kmeans")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 5.2 * image.nbytes, f"traced peak {peak / image.nbytes:.2f} planes"


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


@pytest.mark.parametrize("solve, soft, biased", [
    (lambda x: minimize_ms(x, MsConfig(num_classes=2, max_iters=5)), True, False),
    (lambda x: minimize_ms_bias(x, MsConfig(num_classes=2, max_iters=5), 0.1), True, True),
    (lambda x: segment_levelset(x, max_iters=5), False, False),
], ids=["ms", "ms-bias", "levelset"])
def test_every_solver_returns_one_record(solve, soft, biased):
    image, _, _ = make_phantom("two-phase", 16, 0.05, 0)
    try:
        result = solve(image)
    except ConvergenceError as err:  # levelset: the energy did not settle in 5 steps
        result = err.result
    assert isinstance(result, Result) and result.stop == "max_iters"
    assert result.labels.shape == (16, 16) and result.centroids.shape == (2, 1)
    assert len(result.trace) == 6 and result.trace.shape[1] == (4 if biased else 3)
    assert (result.seg is not None) == soft and (result.bias is not None) == biased
    if soft:
        assert np.array_equal(result.labels, hard_mask(result.seg))


# ------------------------------------------------- in-place kernels and memory

@pytest.mark.parametrize("biased", [False, True], ids=["no-bias", "bias"])
@pytest.mark.parametrize("channels", [1, 3])
def test_kernels_leave_their_inputs_unchanged(channels, biased):
    rng = np.random.default_rng(23)
    x = rng.random((7, 9, channels))
    z = rng.uniform(-2.0, 2.0, (3, 7, 9))
    seg = SoftSegmentation.from_logits(z)
    y = seg.memberships
    c = rng.random((3, channels))
    b = rng.uniform(0.5, 1.5, (7, 9)) if biased else None
    cfg = MsConfig(num_classes=3, lambda_tv=0.1, tv_eps=1e-2)
    calls = {
        "softmax": lambda: softmax(z),
        "tv_smooth": lambda: tv_smooth(y[0], 1e-2),
        "tv_smooth_grad": lambda: tv_smooth_grad(y[1], 1e-2),
        "sq_residual": lambda: sq_residual(x, c, b),
        "energy": lambda: energy(x, y, c, 0.1, 1e-2, b, 0.5),
        "energy-grad_out": lambda: energy(x, y, c, 0.1, 1e-2, b, 0.5, grad_out=np.empty_like(y)),
        "ms_loss_grad-frozen": lambda: ms_loss_grad(x, seg, cfg, "frozen-centroids"),
        "ms_loss_grad-full": lambda: ms_loss_grad(x, seg, cfg, "full"),
        "fixed_point_step": lambda: fixed_point_step(x, seg, cfg),
        "fixed_point_step-centroids": lambda: fixed_point_step(x, seg, cfg, centroids=c),
    }
    inputs = {"x": x, "z": z, "y": y, "c": c}
    if biased:
        inputs["b"] = b
        calls.update({
            "tv_smooth-b": lambda: tv_smooth(b, 1e-2),
            "tv_smooth_grad-b": lambda: tv_smooth_grad(b, 1e-2),
            "grad_b": lambda: grad_b(x, y, b, c, 1e-2, 0.5),
            "bias_loss_grad_b": lambda: bias_loss_grad_b(x, y, b, c, cfg, 0.5),
        })
    before = {name: a.tobytes() for name, a in inputs.items()}
    for call_name, call in calls.items():
        call()
        changed = [name for name, a in inputs.items() if a.tobytes() != before[name]]
        assert not changed, f"{call_name} wrote into {changed}"


@pytest.mark.parametrize("quantised, biased", [
    (True, False), (False, False), (True, True), (False, True),
], ids=["pgm", "float", "bias-pgm", "bias-float"])
def test_minimize_ms_peak_memory_in_membership_stacks(quantised, biased):
    # the descent holds four stacks of shape (N, H, W): the logits, the step
    # direction, and a trial's memberships and membership gradient, written
    # into the stacks of the memberships and of the last direction (about 4.6
    # stacks traced with the image and the strip buffers; 6.6 when each trial
    # built its logits and new stacks, 7.5 before the kernels worked in place).
    # Two classes without a bias field descend one logit plane: u, the
    # direction, the one gradient plane (which the last direction becomes)
    # and the two membership planes, five (H, W) planes with the image
    # outside the count, with strip buffers on top (about 2.9 stacks traced on
    # the PGM-quantised input; 3.9 with a two-plane gradient and a trial u).
    # On unquantised input k-means clusters every pixel value and its
    # temporaries set the peak at about 6.6 stacks. With a bias field, a bias
    # trial holds the logits, the last direction, the memberships, b, its
    # gradient and the trial b, and weighted_means forms the products of y and
    # b as whole stacks, which sets the peak at about 6.0 stacks on either
    # input (7.0 while the bias block kept its last b and gradient through its
    # trials).
    size, classes = 256, 2
    image, _, _ = make_phantom("ramp-bias" if biased else "two-phase", size, 0.05, 0)
    if quantised:
        image = np.round(np.clip(image, 0.0, 1.0) * 255) / 255  # as read from a PGM
    stack = classes * size * size * np.dtype(np.float64).itemsize
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        if biased:
            cfg = MsConfig(num_classes=classes, step_size=2.0, max_iters=5, tv_eps=1e-2)
            minimize_ms_bias(image, cfg, 0.1, init="kmeans")
        else:
            minimize_ms(image, MsConfig(num_classes=classes, max_iters=5), init="kmeans")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    bound = 6.5 if biased else 3.25 if quantised else 6.75
    assert peak < bound * stack, f"traced peak {peak / stack:.2f} stacks"


def test_bias_trials_reuse_the_memberships(monkeypatch):
    softmax_calls, trials = [], []
    real_softmax, real_descend = softseg.softmax, softseg._descend

    def counting_softmax(z, *args):
        softmax_calls.append(1)
        return real_softmax(z, *args)

    def counting_descend(state_eval, step0, loss_now):
        count = [0]

        def counted(eta):
            count[0] += 1
            return state_eval(eta)

        result = real_descend(counted, step0, loss_now)
        trials.append(count[0])
        return result

    monkeypatch.setattr(softseg, "softmax", counting_softmax)
    for module in (softseg, bias):  # the logit trials', then the bias trials' binding
        monkeypatch.setattr(module, "_descend", counting_descend)
    image, _, _ = make_phantom("ramp-bias", 32, 0.02, 0)
    cfg = MsConfig(num_classes=2, step_size=2.0, max_iters=15, tv_eps=1e-2)
    result = minimize_ms_bias(image, cfg, 0.1, init="kmeans")
    member, bias_block = trials[0::2], trials[1::2]  # each iteration runs both blocks, logits first
    assert len(member) == len(bias_block) == len(result.trace) - 1
    assert sum(bias_block) > len(bias_block)  # the bias block backtracked
    assert len(softmax_calls) == 1 + sum(member)  # the start, then one per logit trial


def test_logit_trials_write_into_the_memberships_and_the_last_direction(monkeypatch):
    # the start builds the memberships and the gradient; every logit trial
    # writes its memberships into that one stack, and its gradient into the
    # stack of the direction before last, so two gradient stacks take turns
    softmax_calls, grads = [], []
    real_softmax, real_energy = softseg.softmax, softseg.energy

    def recording_softmax(z, *args):
        y = real_softmax(z, *args)
        softmax_calls.append((args, y))
        return y

    def recording_energy(*args, **kwargs):
        grads.append(kwargs.get("grad_out", args[8] if len(args) > 8 else None))
        return real_energy(*args, **kwargs)

    monkeypatch.setattr(softseg, "softmax", recording_softmax)
    monkeypatch.setattr(softseg, "energy", recording_energy)
    image, _, _ = make_phantom("four-phase", 24, 0.05, 0)
    result = minimize_ms(image, MsConfig(num_classes=3, max_iters=6), init="kmeans")
    assert len(result.trace) == 7 and len(softmax_calls) > 6
    (start_args, y), trials = softmax_calls[0], softmax_calls[1:]
    assert start_args == ()
    for args, out in trials:
        d, eta, buf = args
        assert buf is y and out is y and d.shape == y.shape and eta > 0
    assert result.seg.memberships is y
    assert np.array_equal(y, softmax(result.seg.logits))
    assert all(g is not None for g in grads)
    assert len({id(g) for g in grads}) == 2


def _exhausting_descend(monkeypatch, exhaust, seen):
    """Wrap _descend, softseg's (logit trials) and bias's (bias trials): the
    calls numbered in exhaust run their trials, then report exhaustion. Every
    trial's candidate's first two arrays are copied into seen: (u, y) for a
    logit trial, (b, c) for a bias trial."""
    real_descend, calls = softseg._descend, []

    def descend(state_eval, step0, loss_now):
        def recorded(eta):
            cand, terms = state_eval(eta)
            seen.append((len(calls), cand[0].copy(), cand[1].copy()))
            return cand, terms

        result = real_descend(recorded, step0, loss_now)
        calls.append(result[2])
        return (None, None, True, None) if len(calls) - 1 in exhaust else result

    for module in (softseg, bias):
        monkeypatch.setattr(module, "_descend", descend)
    return calls


def test_an_exhausted_logit_block_restores_the_memberships(monkeypatch):
    seen = []
    calls = _exhausting_descend(monkeypatch, {2}, seen)
    image, _, _ = make_phantom("four-phase", 24, 0.05, 0)
    with pytest.raises(ConvergenceError) as info:
        minimize_ms(image, MsConfig(num_classes=3, max_iters=6), init="kmeans")
    assert calls == [False, False, False]  # the third was accepted, then refused
    result = info.value.result
    assert len(result.trace) == 3 and result.stop == "stalled"
    last_u, last_y = [(u, y) for k, u, y in seen if k == 2][-1]
    assert np.array_equal(result.seg.logits, last_u)  # a trial does not move u
    assert not np.array_equal(result.seg.memberships, last_y)
    assert np.array_equal(result.seg.memberships, softmax(result.seg.logits))
    assert np.array_equal(result.labels, hard_mask(result.seg))


def test_the_bias_block_goes_on_after_an_exhausted_logit_block(monkeypatch):
    # calls alternate logit and bias block; the second logit block (call 2) exhausts
    seen = []
    calls = _exhausting_descend(monkeypatch, {2}, seen)
    image, _, _ = make_phantom("ramp-bias", 32, 0.02, 0)
    cfg = MsConfig(num_classes=2, step_size=2.0, max_iters=4, tv_eps=1e-2)
    result = minimize_ms_bias(image, cfg, 0.1, init="kmeans")
    assert len(calls) == 8 and len(result.trace) == 5
    u = [u for k, u, _ in seen if k == 2][-1]  # a trial does not move u
    bias_trials = [(b, c) for k, b, c in seen if k == 3]
    assert bias_trials
    for b, c in bias_trials:  # the bias block tries b on the restored memberships
        assert np.array_equal(c, weighted_means(image, softmax(u), b))
    assert np.array_equal(result.seg.memberships, softmax(result.seg.logits))


def test_minimize_ms_keeps_a_class_empty_at_the_start_finite():
    x = np.where(np.arange(64).reshape(8, 8) % 3 == 0, 0.2, 0.8)
    cfg = MsConfig(num_classes=4, max_iters=50)
    start = np.argmax(init_logits(x, cfg, "kmeans"), axis=0)
    assert len(np.unique(start)) < cfg.num_classes  # some class owns no pixel
    try:
        result = minimize_ms(x, cfg, init="kmeans")
        assert result.stop in ("rel_tol", "max_iters")
    except ConvergenceError as err:
        result = err.result
        assert result.stop == "stalled"
    assert result.centroids.shape == (4, 1) and np.all(np.isfinite(result.centroids))
    assert np.all(np.isfinite(result.trace)) and np.all(np.diff(result.trace[:, 0]) <= 0)
    assert np.array_equal(result.labels, hard_mask(result.seg))


# ------------------------------------------------ fused loss-and-gradient pass

def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _counting_steps(monkeypatch, calls):
    """Count softseg._step calls in calls["_step"], and those that move u in
    place (out is u) in calls["_step in place"]."""
    real = softseg._step

    def counted(u, d, eta, out):
        key = "_step in place" if out is u else "_step"
        calls[key] = calls.get(key, 0) + 1
        return real(u, d, eta, out)

    monkeypatch.setattr(softseg, "_step", counted)


# Strip lengths in elements: the default, 3 rows of a width-8 field (13 rows do
# not divide), and fewer elements than a row (one row per strip).
@pytest.mark.parametrize("strip", [grid.STRIP, 25, 5])
@pytest.mark.parametrize("shape, channels, biased, lam", [
    ((13, 8), 1, False, 2e-3),
    ((13, 8), 3, False, 2e-3),
    ((13, 8), 3, True, 2e-3),
    ((1, 9), 1, False, 0.1),
    ((9, 1), 1, True, 0.1),
    ((13, 8), 1, True, 0.0),
], ids=["plain", "rgb", "rgb-bias", "1xW", "Hx1-bias", "lambda0-bias"])
def test_energy_builds_the_membership_gradient(monkeypatch, strip, shape, channels, biased, lam):
    monkeypatch.setattr(grid, "STRIP", strip)
    monkeypatch.setattr(softseg, "STRIP", strip)
    rng = np.random.default_rng(41)
    x = rng.random(shape + (channels,))
    y = softmax(rng.uniform(-2.0, 2.0, (3,) + shape))
    b = rng.uniform(0.5, 1.5, shape) if biased else None
    c = weighted_means(x, y, b)
    g = np.full_like(y, np.nan)
    got = energy(x, y, c, lam, 1e-3, b, 0.3, grad_out=g)
    want_g = sq_residual(x, c, b) + np.stack([lam * tv_smooth_grad(yn, 1e-3) for yn in y])
    assert np.array_equal(g, want_g)
    if biased:
        want = bias_ms_loss_loop(x, y, b, lam, 0.3, 1e-3)
    else:
        want = ms_loss_loop(x, y, lam, 1e-3)
    for term, w in zip(got[1:], want[1:]):
        assert term == pytest.approx(w, rel=1e-14, abs=1e-300)
    assert got[0] == pytest.approx(energy(x, y, c, lam, 1e-3, b, 0.3)[0], rel=1e-14)
    assert got == energy(x, y, c, lam, 1e-3, b, 0.3)  # one data-term formula


@pytest.mark.parametrize("noise_seed, init", [(1, "kmeans"), (0, "random")])
def test_minimize_ms_trace_ends_on_the_loss_of_its_result(noise_seed, init):
    image, _, _ = make_phantom("two-phase", 256, 0.05, noise_seed)
    cfg = MsConfig(num_classes=2, max_iters=10)
    result = minimize_ms(image, cfg, init=init)
    assert tuple(result.trace[-1]) == ms_loss(image, result.seg, cfg)


# ------------------------------------------------- two classes on one plane

def _bits_of_softmax_of_zero_and(u):
    return softmax(np.stack([np.zeros_like(u), u])).tobytes()


def test_two_class_memberships_are_the_softmax_of_zero_and_u_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(24)
    u = rng.normal(0.0, 30.0, (256, 256))
    u.flat[:10] = [700.0, -700.0, 1e-17, -1e-17, 0.0, -0.0, 745.5, -745.5, 1e308, -1e308]
    assert softseg.two_class_memberships(u).tobytes() == _bits_of_softmax_of_zero_and(u)
    out = np.full((2,) + u.shape, np.nan)
    assert softseg.two_class_memberships(u, out=out) is out
    assert out.tobytes() == _bits_of_softmax_of_zero_and(u)
    small = rng.uniform(-40.0, 40.0, (13, 8))
    small.flat[:4] = [700.0, -1e-17, -0.0, -700.0]
    for strip in (25, 5):  # strips that do not divide the plane, and shorter than a row
        monkeypatch.setattr(softseg, "STRIP", strip)
        assert softseg.two_class_memberships(small).tobytes() == _bits_of_softmax_of_zero_and(small)
    for bad in (np.inf, -np.inf, np.nan):
        u = np.zeros((13, 8))
        u[12, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            softseg.two_class_memberships(u)
        with pytest.raises(ValueError, match="non-finite"):
            softmax(np.stack([np.zeros_like(u), u]))


def _two_plane_descent(x, cfg, init):
    """The N-plane softmax descent on two classes, as the reference: block_descent
    over both logit planes with softmax memberships, evaluated by energy. It
    keeps the default dot, so its Barzilai-Borwein dots are np.einsum's:
    np.vdot rounds by the BLAS thread count, which alone moved its 1024^2
    seed-1 trace by 2.7e-12 of the start loss between 1 and 2 OpenBLAS
    threads. softmax takes each trial's logits strip by strip, rounded as the
    in-place step rounds them, and the direction is formed in a copy of g,
    which the trials then take."""

    def evaluate(y, g, _):
        c = weighted_means(x, y)
        return c, energy(x, y, c, cfg.lambda_tv, cfg.tv_eps, grad_out=g)

    (z, y, c), trace, stop = softseg.block_descent(
        cfg, init_logits(x, cfg, init), softmax,
        lambda z, y, c, g: softseg._chain_softmax(y, g.copy()), evaluate)
    return hard_mask(SoftSegmentation(z, y)), trace, stop


# two-phase 1024^2 read from a PGM with the ms-2phase-1024 benchmark flags,
# two-phase 256^2 with criterion 4's settings, and criterion 4's own 64^2 image
WORKLOAD = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=0.5, max_iters=10, seed=0)
CRITERION_4 = MsConfig(num_classes=2, lambda_tv=1e-3, step_size=0.5, max_iters=500, seed=0)


@pytest.mark.parametrize("size, noise_seed, cfg, quantised", [
    (1024, 1, WORKLOAD, True), (1024, 2, WORKLOAD, True),
    (256, 1, CRITERION_4, False), (64, 7, CRITERION_4, False),
], ids=["1024-seed1", "1024-seed2", "256-seed1", "64-seed7"])
def test_two_class_ms_follows_the_two_plane_descent(size, noise_seed, cfg, quantised):
    # one plane u = z_1 - z_0, stepped by 2 eta, is the two-plane descent in
    # exact arithmetic; rounding must not change the labels, the iteration
    # count or the stop, nor move a trace row by more than 1e-12 of the start
    # loss
    image, _, _ = make_phantom("two-phase", size, 0.05, noise_seed)
    if quantised:
        image = np.round(np.clip(image, 0.0, 1.0) * 255) / 255
    result = minimize_ms(image, cfg, init="kmeans")
    labels, trace, stop = _two_plane_descent(image, cfg, "kmeans")
    assert np.array_equal(result.labels, labels)
    assert result.trace.shape == trace.shape and result.stop == stop
    assert np.max(np.abs(result.trace - trace)) <= 1e-12 * abs(trace[0, 0])
    assert result.seg.logits.shape == (2, size, size) and not result.seg.logits[0].any()
    assert np.array_equal(result.seg.memberships, softmax(result.seg.logits))


def test_two_class_ms_takes_one_tv_stencil_per_evaluation_and_moves_u_in_place_per_step(
        monkeypatch):
    # each evaluation takes its TV value and gradient from one stencil on y_1;
    # no trial u is formed: two_class_memberships takes each trial strip by
    # strip, and an accepted step moves u in place by _step(u, d, eta, u);
    # softmax forms only the result's memberships from its logits (0, u)
    calls, trials, trial_members = {}, [], []
    for name in ("tv_smooth", "tv_smooth_grad", "softmax", "_chain_softmax"):
        _counting(monkeypatch, softseg, name, calls)
    _counting_steps(monkeypatch, calls)
    real_descend, real_members = softseg._descend, softseg.two_class_memberships

    def counting_descend(state_eval, step0, loss_now):
        def counted(eta):
            trials.append(eta)
            return state_eval(eta)

        return real_descend(counted, step0, loss_now)

    def recording_members(u, d=None, eta=0.0, out=None):
        if d is not None:
            trial_members.append(eta)
        return real_members(u, d, eta, out)

    monkeypatch.setattr(softseg, "_descend", counting_descend)
    monkeypatch.setattr(softseg, "two_class_memberships", recording_members)
    image, _, _ = make_phantom("two-phase", 24, 0.05, 0)
    result = minimize_ms(image, MsConfig(num_classes=2, max_iters=4), init="kmeans")
    assert len(result.trace) == 5 and len(trials) >= 4
    assert calls == {"tv_smooth": 1 + len(trials), "softmax": 1,
                     "_step in place": len(result.trace) - 1}
    assert trial_members == trials  # every trial's memberships, from u, d and eta
    assert trials[0] == 2 * MsConfig().step_size  # a step of eta on (z_0, z_1) moves u by 2 eta


def _residual_sums_whole(x, c, b=None, weights=None):
    """The plane-wise residual sums the strip kernel must reproduce: one
    (H, W) plane per class and channel, in the kernel's operand order."""
    out = np.empty(c.shape[:1] + x.shape[:2])
    for n in range(c.shape[0]):
        for ch in range(c.shape[1]):
            r = x[:, :, ch] - (c[n, ch] if b is None else b * c[n, ch])
            r = r * (r if weights is None else weights[n, ch])
            out[n] = r if ch == 0 else out[n] + r
    return out


# Strip lengths in elements: 7 and 64, which divide none of the plane sizes
# 143, 9 and 16637, and the default, which 16637 exceeds without dividing it.
@pytest.mark.parametrize("strip", [7, 64, softseg.STRIP])
@pytest.mark.parametrize("shape", [(13, 11), (1, 9), (131, 127)], ids=["13x11", "1x9", "131x127"])
def test_strip_mined_passes_equal_the_whole_plane_formulas(monkeypatch, strip, shape):
    monkeypatch.setattr(softseg, "STRIP", strip)
    rng = np.random.default_rng(27)
    for channels in (1, 3):
        x = rng.random(shape + (channels,))
        c = rng.uniform(-0.5, 1.5, (3, channels))
        b = rng.uniform(0.5, 1.5, shape)
        w = rng.uniform(-2.0, 2.0, (3, channels))
        for bias in (None, b):
            for weights in (None, w):
                want = _residual_sums_whole(x, c, bias, weights)
                got = softseg._residual_sums(x, c, bias, weights)
                assert got.tobytes() == want.tobytes()
                out = np.full_like(want, np.nan)
                assert softseg._residual_sums(x, c, bias, weights, out) is out
                assert out.tobytes() == want.tobytes()
    y = softseg.two_class_memberships(rng.uniform(-30.0, 30.0, shape))
    for channels in (1, 3):
        x = rng.random(shape + (channels,))
        c = rng.uniform(-0.5, 1.5, (2, channels))
        f = _residual_sums_whole(x, c)
        # the direction, formed in the one gradient plane, is g_1 - g_0 pulled back
        g = rng.uniform(-3.0, 3.0, shape)
        want = ((g - f[0]) * y[0] * y[1]).tobytes()
        assert softseg._chain_two_class(x, y, c, g) is g and g.tobytes() == want
        # the evaluation writes g_1 = f_1 + 2 lambda grad TV(y_1) and takes the
        # data term of both planes from strips
        g = np.full(shape, np.nan)
        loss, data, tv = softseg.two_class_energy(x, y, c, 1e-2, 1e-3, g)
        assert g.tobytes() == (f[1] + 2e-2 * tv_smooth_grad(y[1], 1e-3)).tobytes()
        assert data == pytest.approx(np.einsum("i,i->", f.ravel(), y.ravel()), rel=1e-14)
        assert tv == softseg.two_class_tv(y, 1e-2, 1e-3) and loss == data + tv
        assert softseg.two_class_energy(x, y, c, 1e-2, 1e-3) == (loss, data, tv)
    # a trial's memberships, taken strip by strip from u, d and eta, are those
    # of the trial u - d * eta formed as a whole, and leave u and d unchanged
    u, d, eta = rng.uniform(-40.0, 40.0, shape), rng.uniform(-9.0, 9.0, shape), 0.3711
    u.flat[0], d.flat[-1] = 700.0, -1e-17
    before = u.tobytes(), d.tobytes()
    out = np.full((2,) + shape, np.nan)
    assert softseg.two_class_memberships(u, d, eta, out) is out
    assert out.tobytes() == softseg.two_class_memberships(u - d * eta).tobytes()
    assert (u.tobytes(), d.tobytes()) == before
    for bad in (np.inf, -np.inf, np.nan):  # a trial that is not finite raises
        d_bad = d.copy()
        d_bad.flat[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            softseg.two_class_memberships(u, d_bad, eta, out)
    with pytest.raises(ValueError, match="non-finite"):  # u - d * eta overflows
        softseg.two_class_memberships(u, np.full(shape, -1e308), 10.0, out)
    want = u - d * eta
    trial = np.full_like(u, np.nan)
    assert softseg._step(u, d, eta, trial) is trial and trial.tobytes() == want.tobytes()
    assert softseg._step(u, d, eta, u) is u and u.tobytes() == want.tobytes()  # in place


def test_two_class_ms_labels_are_the_first_maximum_of_its_memberships(monkeypatch):
    # the labels are y_1 > y_0 of the result's memberships, which one softmax
    # call writes over the descent's final y; u = 0 and +-1e-17 give two equal
    # memberships (exp(-1e-17) rounds to 1), and such a tie goes to class 0
    ties = [0.0, -0.0, 1e-17, -1e-17]
    real_descent = softseg.block_descent

    def tied_descent(*args, **kwargs):
        (u, y, c), trace, stop = real_descent(*args, **kwargs)
        u.flat[:4] = ties
        softseg.two_class_memberships(u, out=y)
        return (u, y, c), trace, stop

    monkeypatch.setattr(softseg, "block_descent", tied_descent)
    calls = {}
    _counting(monkeypatch, softseg, "softmax", calls)
    image, _, _ = make_phantom("two-phase", 48, 0.05, 3)
    result = minimize_ms(image, MsConfig(num_classes=2, max_iters=5), init="kmeans")
    assert calls == {"softmax": 1}
    y = result.seg.memberships
    assert np.array_equal(y[0].flat[:4], y[1].flat[:4]) and not result.labels.flat[:4].any()
    assert result.labels.dtype == hard_mask(result.seg).dtype
    assert np.array_equal(result.labels, hard_mask(result.seg))
    assert result.labels.any() and not result.labels.all()
    assert np.array_equal(y, softmax(result.seg.logits))


@pytest.mark.parametrize("kind, size, channels", [
    ("two-phase", 64, 1), ("four-phase", 40, 1), ("four-phase", 24, 3),
], ids=["two-phase", "four-phase", "rgb"])
def test_two_class_kmeans_start_is_the_difference_of_the_kmeans_logits(monkeypatch, kind, size,
                                                                        channels):
    image, _, _ = make_phantom(kind, size, 0.05, 5)
    if channels > 1:
        image = np.concatenate([image, 1.0 - image, image * image], axis=-1)
    cfg = MsConfig(num_classes=2, max_iters=2, seed=3)
    x = softseg.as_image(image)
    want = softseg._logit_difference(init_logits(x, cfg, "kmeans"))
    assert set(np.unique(want)) == {-4.0, 4.0}
    assert softseg._two_class_start(x, cfg, "kmeans").tobytes() == want.tobytes()
    random = softseg._logit_difference(init_logits(x, cfg, "random"))
    assert softseg._two_class_start(x, cfg, "random").tobytes() == random.tobytes()
    starts, real_descent = [], softseg.block_descent

    def recording_descent(cfg, u, *args, **kwargs):
        starts.append(u.copy())
        return real_descent(cfg, u, *args, **kwargs)

    monkeypatch.setattr(softseg, "block_descent", recording_descent)
    minimize_ms(image, cfg, init="kmeans")
    assert len(starts) == 1 and starts[0].tobytes() == want.tobytes()


def test_energy_with_gradient_needs_the_tv_term():
    x, seg = random_instance(0)
    y = seg.memberships
    with pytest.raises(ValueError, match="tv_y"):
        energy(x, y, weighted_means(x, y), 0.1, 1e-3, tv_y=0.5, grad_out=np.empty_like(y))


def test_zero_weights_skip_the_tv_work(monkeypatch):
    calls = {}
    for module in (softseg, bias):  # bias's binding takes grad_b's TV(b) term
        _counting(monkeypatch, module, "tv_smooth", calls)
    x, seg = random_instance(3)
    y = seg.memberships
    b = np.random.default_rng(3).uniform(0.5, 1.5, x.shape[:2])
    c = weighted_means(x, y, b)
    g = np.empty_like(y)
    assert energy(x, y, c, 0.0, 1e-3, grad_out=g)[2] == 0.0
    assert np.array_equal(g, sq_residual(x, c))
    assert energy(x, y, c, 0.0, 1e-3, b, 0.0)[2:] == (0.0, 0.0)
    minimize_ms(x, MsConfig(num_classes=3, lambda_tv=0.0, max_iters=5), init="kmeans")
    minimize_ms_bias(x, MsConfig(num_classes=3, lambda_tv=0.0, max_iters=5), 0.0, init="kmeans")
    assert calls == {}
    energy(x, y, c, 0.1, 1e-3, b, 0.0)
    assert calls == {"tv_smooth": 3}  # the memberships' TV only


def test_ms_iterations_take_the_gradient_from_the_trial_evaluation(monkeypatch):
    # each evaluation of a trial (and of the start) takes the TV value and the
    # TV gradient of every class in one tv_smooth call; no pass of its own
    calls, trials = {}, []
    _counting(monkeypatch, softseg, "tv_smooth", calls)
    _counting(monkeypatch, softseg, "tv_smooth_grad", calls)
    real_descend = softseg._descend

    def counting_descend(state_eval, step0, loss_now):
        def counted(eta):
            trials.append(eta)
            return state_eval(eta)

        return real_descend(counted, step0, loss_now)

    monkeypatch.setattr(softseg, "_descend", counting_descend)
    image, _, _ = make_phantom("four-phase", 24, 0.05, 0)
    result = minimize_ms(image, MsConfig(num_classes=3, max_iters=3), init="kmeans")
    assert len(result.trace) == 4 and len(trials) >= 3
    assert calls == {"tv_smooth": 3 * (1 + len(trials))}


def test_ms_bias_directions_take_the_gradient_at_the_state_the_bias_step_left(monkeypatch):
    # a bias step moves b and the means after the logit trials, so the gradient
    # the next direction pulls back is built at the new state, never reused
    chained, fields = [], []
    real_chain, real_grad_b = bias._chain_softmax, bias.grad_b

    def recording_chain(y, g):
        chained.append((y.copy(), g.copy()))  # the call overwrites g
        return real_chain(y, g)

    def recording_grad_b(x, y, b, *args):
        fields.append(b.copy())
        return real_grad_b(x, y, b, *args)

    monkeypatch.setattr(bias, "_chain_softmax", recording_chain)
    monkeypatch.setattr(bias, "grad_b", recording_grad_b)
    image, _, _ = make_phantom("ramp-bias", 32, 0.02, 0)
    cfg = MsConfig(num_classes=2, step_size=2.0, max_iters=6, tv_eps=1e-2)
    result = minimize_ms_bias(image, cfg, 0.1, init="kmeans")
    assert len(chained) == len(fields) == len(result.trace) - 1
    assert not np.array_equal(fields[1], fields[0])  # the bias block moved b
    for (y, g), b in zip(chained, fields):  # each grad_b call follows its direction
        c = weighted_means(image, y, b)
        want = sq_residual(image, c, b) + np.stack(
            [cfg.lambda_tv * tv_smooth_grad(yn, cfg.tv_eps) for yn in y])
        assert np.array_equal(g, want)


def test_logit_trials_reuse_the_tv_of_b(monkeypatch):
    # a logit trial leaves b as it is and passes gamma TV(b) on, so TV(b) is
    # taken only at the start, by each iteration's gradient in b and by each
    # bias trial
    bias_fields, seen = [], []
    real_tv = softseg.tv_smooth

    def recording_tv(f, *args):
        if f.base is None or f.base.ndim != 3:  # not a row of the membership stack
            bias_fields.append(1)
        return real_tv(f, *args)

    for module in (softseg, bias):  # energy's binding, and grad_b's
        monkeypatch.setattr(module, "tv_smooth", recording_tv)
    calls = _exhausting_descend(monkeypatch, set(), seen)
    image, _, _ = make_phantom("ramp-bias", 32, 0.02, 0)
    cfg = MsConfig(num_classes=2, step_size=2.0, max_iters=6, tv_eps=1e-2)
    result = minimize_ms_bias(image, cfg, 0.1, init="kmeans")
    iterations = len(result.trace) - 1
    assert calls == [False] * (2 * iterations)  # no block exhausted
    bias_trials = sum(1 for k, _, _ in seen if k % 2)  # calls alternate logit and bias block
    assert len(bias_fields) == 1 + iterations + bias_trials


# ------------------------------------------------ Barzilai-Borwein trial steps

def _recording_descend(monkeypatch, calls, exhaust=()):
    """Wrap _descend, softseg's and bias's; per call, append (first trial step,
    accepted step or None). The calls numbered in exhaust report exhaustion
    without a trial."""
    real_descend = softseg._descend

    def recording_descend(state_eval, step0, loss_now):
        first = []

        def counted(eta):
            first.append(eta)
            return state_eval(eta)

        if len(calls) in exhaust:
            result = None, None, True, None
        else:
            result = real_descend(counted, step0, loss_now)
            assert first[0] == step0
        calls.append((step0, None if result[2] else result[3]))
        return result

    for module in (softseg, bias):
        monkeypatch.setattr(module, "_descend", recording_descend)


def _recording(monkeypatch, name, record, module=softseg):
    """Wrap module.<name>; append a copy of each result, with the b it was given for grad_b."""
    real = getattr(module, name)

    def recorded(*args):
        out = real(*args)
        record.append((args[2].copy(), out.copy()) if name == "grad_b" else out.copy())
        return out

    monkeypatch.setattr(module, name, recorded)


def test_bb_step_falls_back_on_a_bad_ratio():
    assert softseg._bb_step(3.0, 2.0, 0.7) == 1.5
    for s_s, s_dg in [(1.0, 0.0), (1.0, -2.0), (np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan),
                      (1e300, 1e-300)]:
        assert softseg._bb_step(s_s, s_dg, 0.7) == 0.7


def test_logit_trial_steps_are_the_bb_ratio_of_the_last_step(monkeypatch):
    # with s = -eta d' and dg = d - d', s.s / s.dg = eta ||d'||^2 / (||d'||^2 - d'.d)
    calls, dirs = [], []
    _recording_descend(monkeypatch, calls)
    _recording(monkeypatch, "_chain_softmax", dirs)
    image, _, _ = make_phantom("four-phase", 24, 0.05, 0)
    cfg = MsConfig(num_classes=3, max_iters=6)
    result = minimize_ms(image, cfg, init="kmeans")
    assert len(dirs) == len(calls) == len(result.trace) - 1 == 6
    assert calls[0][0] == cfg.step_size
    for (_, eta), (step0, _), d_prev, d in zip(calls, calls[1:], dirs, dirs[1:]):
        dd, dp = np.vdot(d_prev, d_prev), np.vdot(d_prev, d)
        assert dd - dp > 0
        assert step0 == pytest.approx(eta * dd / (dd - dp), rel=1e-12)
    assert calls[1][0] != cfg.step_size


def test_logit_step_reuses_the_last_step_on_a_non_positive_curvature(monkeypatch):
    # the third direction is twice the second: ||d'||^2 - d'.d = -||d'||^2 < 0
    calls, dirs = [], []
    _recording_descend(monkeypatch, calls)
    real_chain = softseg._chain_softmax

    def doubled_third(y, grad_y):
        d = real_chain(y, grad_y)
        dirs.append(d.copy())
        return 2.0 * dirs[1] if len(dirs) == 3 else d

    monkeypatch.setattr(softseg, "_chain_softmax", doubled_third)
    image, _, _ = make_phantom("four-phase", 24, 0.05, 0)
    cfg = MsConfig(num_classes=3, max_iters=3)
    minimize_ms(image, cfg, init="kmeans")
    assert calls[1][1] not in (None, cfg.step_size)
    assert calls[2][0] == calls[1][1]


def test_a_block_restarts_from_step_size_after_it_exhausts(monkeypatch):
    # calls alternate logit and bias block; the bias block's third one exhausts
    calls = []
    _recording_descend(monkeypatch, calls, exhaust={5})
    image, _, _ = make_phantom("ramp-bias", 32, 0.02, 0)
    cfg = MsConfig(num_classes=2, step_size=2.0, max_iters=6, tv_eps=1e-2)
    minimize_ms_bias(image, cfg, 0.1, init="kmeans")
    assert calls[5] == (calls[5][0], None)
    assert [step0 == cfg.step_size for step0, _ in calls[1::2]] == [True, False, False, True, False, False]
    assert all(step0 != cfg.step_size for step0, _ in calls[2::2])  # the logit block keeps its ratio


def test_bias_trial_steps_use_the_clamped_change_in_b(monkeypatch):
    # random init on a zero-and-0.8 image drives b below B_MIN on some pixels
    calls, grads = [], []
    _recording_descend(monkeypatch, calls)
    _recording(monkeypatch, "grad_b", grads, bias)
    x = np.where(np.arange(64).reshape(8, 8, 1) % 3 == 0, 0.0, 0.8)
    cfg = MsConfig(num_classes=2, max_iters=15)
    minimize_ms_bias(x, cfg, 0.1, init="random")
    bias_block = calls[1::2]  # each iteration runs both blocks, logits first
    assert len(bias_block) == len(grads) == 15 and bias_block[0][0] == cfg.step_size
    clamped = 0
    pairs = zip(bias_block, bias_block[1:], grads, grads[1:])
    for (_, eta), (step0, _), (b_prev, g_prev), (b, g) in pairs:
        assert eta is not None
        db, dg = b - b_prev, g - g_prev
        want = np.vdot(db, db) / np.vdot(db, dg) if np.vdot(db, dg) > 0 else eta
        assert step0 == pytest.approx(want, rel=1e-12)
        unclamped = -eta * g_prev
        if not np.allclose(db, unclamped, rtol=0.0, atol=1e-12):
            clamped += 1
            assert np.min(b) == bias.B_MIN
            s_dg = np.vdot(unclamped, dg)
            assert step0 != pytest.approx(np.vdot(unclamped, unclamped) / s_dg, rel=1e-9)
    assert clamped > 0


def test_levelset_trials_start_at_dt(monkeypatch):
    # the level-set Euler step keeps its fixed trial length: no BB ratio is taken
    calls, ratios = [], []
    _recording_descend(monkeypatch, calls)
    monkeypatch.setattr(softseg, "_bb_step", lambda *args: ratios.append(args))
    image, _, _ = make_phantom("four-phase", 32, 0.05, 0)
    try:
        segment_levelset(image, phases=2, lambda_tv=0.01, dt=4.0, eps_h=2.0, max_iters=60)
    except ConvergenceError:
        pass
    assert len(calls) >= 2 and ratios == []
    assert all(step0 == 4.0 for step0, _ in calls)
    assert any(eta != 4.0 for _, eta in calls)  # some steps were halved


def test_minimize_ms_four_phase_stops_on_rel_tol():
    # The fixed trial step this replaced ran all 300 iterations on this phantom
    # and reached a per-class IoU of 0.911 at worst and 0.935 on average.
    image, gt, _ = make_phantom("four-phase", 128, 0.05, 0)
    result = minimize_ms(image, MsConfig(num_classes=4, max_iters=300), init="kmeans")
    assert result.stop == "rel_tol" and len(result.trace) - 1 < 300
    ious = best_permutation_ious(result.labels, gt, 4)
    assert min(ious) >= 0.911 and np.mean(ious) >= 0.935
    assert np.all(np.diff(result.trace[:, 0]) <= 0)


def test_minimize_ms_bias_survives_saturating_logits():
    # uniform noise has no piecewise-constant structure; BB steps drive the
    # logits of this run to |z| of several million as the softmax saturates
    x = np.random.default_rng(0).random((64, 64))
    result = minimize_ms_bias(x, MsConfig(num_classes=4, max_iters=2000), 0.1, init="random")
    assert result.stop in ("rel_tol", "max_iters")
    assert np.all(np.isfinite(result.seg.logits)) and np.all(np.isfinite(result.bias))
    assert np.all(np.isfinite(result.trace)) and np.all(np.diff(result.trace[:, 0]) <= 0)
