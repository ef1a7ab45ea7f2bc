import tracemalloc
import warnings

import numpy as np
import pytest

from msvar import levelset, softseg
from msvar.errors import ConvergenceError
from msvar.grid import tv_smooth, tv_smooth_grad
from msvar.levelset import (
    LevelSetState,
    curvature_central,
    delta_eps,
    evolve_step,
    hard_labels,
    heaviside_eps,
    levelset_energy,
    memberships,
    region_means,
    segment_levelset,
)
from msvar.phantoms import make_phantom

from oracles import (
    best_permutation_ious,
    centroids_loop,
    curvature_central_loop,
    curvature_central_planes,
    heaviside_loop,
    levelset_descent_loop,
    levelset_velocity_loop,
)
from test_cli import EDGE_IMAGES


def iou_binary(pred, gt):
    from msvar.metrics import overlap_metrics

    return max(overlap_metrics(pred, gt, 1)[0], overlap_metrics(1 - pred, gt, 1)[0])


# --------------------------------------------------- heaviside / delta

def test_heaviside_at_zero():
    assert heaviside_eps(np.zeros(1), 2.0)[0] == pytest.approx(0.5)
    assert delta_eps(np.zeros(1), 2.0)[0] == pytest.approx(1.0 / (np.pi * 2.0))


def test_heaviside_saturation_bound():
    eps = 0.7
    h = heaviside_eps(np.array([10 * eps, -10 * eps]), eps)
    assert abs(h[0] - 1.0) < 0.032
    assert abs(h[1] - 0.0) < 0.032


def test_delta_integrates_to_one():
    eps = 1.3
    t = np.linspace(-100 * eps, 100 * eps, 200001)
    integral = np.trapezoid(delta_eps(t, eps), t)
    assert abs(integral - 1.0) < 1e-2


def test_delta_is_derivative_of_heaviside():
    rng = np.random.default_rng(0)
    phi = rng.uniform(-3, 3, 50)
    eps, h = 0.9, 1e-6
    fd = (heaviside_eps(phi + h, eps) - heaviside_eps(phi - h, eps)) / (2 * h)
    d = delta_eps(phi, eps)
    assert np.max(np.abs(d - fd) / np.abs(fd)) < 1e-6


def test_nonpositive_eps_rejected():
    for eps in (0.0, -1.0, float("nan"), float("inf")):
        for fn in (heaviside_eps, delta_eps):
            with pytest.raises(ValueError, match="eps_h must be finite"):
                fn(np.zeros(3), eps)


# -------------------------------------------------------- region means

def test_region_means_degenerate_outside_class():
    rng = np.random.default_rng(1)
    x = rng.random((10, 10, 1))
    state = LevelSetState(phi=np.full((1, 10, 10), 1e15))
    c = region_means(x, state)
    assert c[1, 0] == pytest.approx(x.mean(), abs=1e-9)
    assert abs(c[0, 0]) < 1e-3  # guarded empty class reports ~0


def test_region_means_disk_signed_distance():
    # sharp smoothing: the atan tails decay like eps/phi, so the 1e-3
    # tolerance needs eps_h well below a pixel
    image, labels, _ = make_phantom("two-phase", 64, 0.0, 0)
    ii, jj = np.mgrid[0:64, 0:64].astype(float)
    sdf = 16.0 - np.sqrt((ii - 31.5) ** 2 + (jj - 31.5) ** 2)
    state = LevelSetState(phi=sdf[None], eps_h=0.005)
    c = region_means(image, state)
    assert c[1, 0] == pytest.approx(0.8, abs=1e-3)
    assert c[0, 0] == pytest.approx(0.2, abs=1e-3)


def test_region_means_match_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.random((6, 6, 1))
    phi = rng.uniform(-2, 2, (2, 6, 6))
    state = LevelSetState(phi=phi, eps_h=1.4)
    h1 = heaviside_loop(phi[0], 1.4)
    h2 = heaviside_loop(phi[1], 1.4)
    chi = np.stack([(1 - h1) * (1 - h2), (1 - h1) * h2, h1 * (1 - h2), h1 * h2])
    want = centroids_loop(x, chi)
    assert np.max(np.abs(region_means(x, state) - want)) < 1e-9
    assert np.max(np.abs(memberships(state) - chi)) < 1e-12


@pytest.mark.parametrize("phases", [1, 2])
def test_memberships_write_into_out_as_the_stacked_formulas(phases):
    phi = np.random.default_rng(4).uniform(-3.0, 3.0, (phases, 7, 5))
    h = heaviside_eps(phi, 1.3)
    if phases == 1:
        want = np.stack([1.0 - h[0], h[0]])
    else:
        h1, h2 = h
        want = np.stack([(1 - h1) * (1 - h2), (1 - h1) * h2, h1 * (1 - h2), h1 * h2])
    state = LevelSetState(phi=phi, eps_h=1.3)
    assert np.array_equal(memberships(state), want)
    out = np.full_like(want, np.nan)
    assert memberships(state, out) is out and np.array_equal(out, want)


def test_four_phase_memberships_across_strips_equal_the_stacked_formulas():
    # 300 columns make row strips of 54 rows, so 70 rows take a full and a short strip
    phi = np.random.default_rng(5).uniform(-3.0, 3.0, (2, 70, 300))
    h1, h2 = heaviside_eps(phi, 0.9)
    want = np.stack([(1 - h1) * (1 - h2), (1 - h1) * h2, h1 * (1 - h2), h1 * h2])
    assert np.array_equal(memberships(LevelSetState(phi=phi, eps_h=0.9)), want)


# --------------------------------------------------------- evolve_step

def test_curvature_matches_loop_oracle():
    rng = np.random.default_rng(3)
    phi = rng.uniform(-1, 1, (7, 7))
    assert np.max(np.abs(curvature_central(phi) - curvature_central_loop(phi))) < 1e-9


@pytest.mark.parametrize(
    "shape",
    [(70, 300), (3, 20000), (1, 9), (9, 1), (1, 1), (256, 256)],
    ids=["two-strips-last-short", "one-row-per-strip", "1x9", "9x1", "1x1", "256x256"],
)
def test_strip_mined_curvature_equals_the_whole_plane_formula(shape):
    rng = np.random.default_rng(11)
    phi = rng.uniform(-1, 1, shape)
    before = phi.copy()
    assert np.array_equal(curvature_central(phi), curvature_central_planes(phi))
    assert np.array_equal(phi, before)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_curvature_of_an_empty_field_is_an_empty_plane(shape):
    kappa = curvature_central(np.zeros(shape))
    assert kappa.shape == shape


def test_curvature_wrap_columns_stay_warning_free():
    # the stencil passes run over the flattened padded strip, so they also
    # span the columns where one padded row wraps into the next; on this ramp
    # the wrap differences, left in place, overflow in the denominator
    phi = np.tile(np.arange(300) * 1e101, (8, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = curvature_central(phi)
        assert np.array_equal(kappa, curvature_central_planes(phi))


def test_curvature_across_strips_matches_loop_oracle():
    phi = np.random.default_rng(12).uniform(-1, 1, (70, 300))
    assert np.max(np.abs(curvature_central(phi) - curvature_central_loop(phi))) < 1e-9


def test_constant_image_curvature_motion_shrinks_tv():
    x = np.full((32, 32, 1), 0.5)
    rng = np.random.default_rng(4)
    ii, jj = np.mgrid[0:32, 0:32].astype(float)
    phi = np.sin(np.pi * (ii + rng.uniform(0, 8)) / 8.0) * np.sin(np.pi * jj / 8.0)
    state = LevelSetState(phi=phi[None], lambda_tv=0.1, dt=0.5)
    prev = tv_smooth(heaviside_eps(state.phi[0], state.eps_h))
    for _ in range(10):
        state = evolve_step(x, state)
        cur = tv_smooth(heaviside_eps(state.phi[0], state.eps_h))
        assert cur <= prev + 1e-9
        prev = cur


def test_two_phase_velocity_matches_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.random((6, 6, 1))
    phi = rng.uniform(-2, 2, (2, 6, 6))
    state = LevelSetState(phi=phi, eps_h=1.2, dt=0.4, lambda_tv=0.05)
    new = evolve_step(x, state)
    got_v1 = (new.phi[0] - phi[0]) / state.dt
    got_v2 = (new.phi[1] - phi[1]) / state.dt
    want_v1, want_v2 = levelset_velocity_loop(x, phi, 1.2, 0.05)
    assert np.max(np.abs(got_v1 - want_v1)) < 1e-9
    assert np.max(np.abs(got_v2 - want_v2)) < 1e-9


def test_disk_grows_from_small_circle():
    image, gt, _ = make_phantom("two-phase", 64, 0.0, 0)
    ii, jj = np.mgrid[0:64, 0:64].astype(float)
    sdf = 5.0 - np.sqrt((ii - 31.5) ** 2 + (jj - 31.5) ** 2)
    state = LevelSetState(phi=np.clip(sdf, -1, 1)[None], dt=0.5, lambda_tv=1e-2)
    for _ in range(300):
        state = evolve_step(image, state)
    assert iou_binary(hard_labels(state), gt) >= 0.98


def test_p2_decouples_when_phi2_and_image_constant():
    x = np.full((8, 8, 1), 0.5)
    rng = np.random.default_rng(6)
    phi1 = rng.uniform(-1, 1, (8, 8))
    phi2 = np.full((8, 8), 0.7)
    joint = LevelSetState(phi=np.stack([phi1, phi2]), dt=0.5, lambda_tv=0.05)
    single = LevelSetState(phi=phi1[None], dt=0.5, lambda_tv=0.05)
    new_joint = evolve_step(x, joint)
    new_single = evolve_step(x, single)
    assert np.max(np.abs(new_joint.phi[0] - new_single.phi[0])) < 1e-9


def test_cfl_guard():
    state = LevelSetState(phi=np.zeros((1, 8, 8)), dt=0.5, lambda_tv=1.0)
    with pytest.raises(ValueError):
        evolve_step(np.zeros((8, 8, 1)), state)


# ---------------------------------------------------- segment_levelset

def run_segment(*args, **kwargs):
    try:
        return segment_levelset(*args, **kwargs), True
    except ConvergenceError as err:
        return err.result, False


def test_segment_two_phase():
    image, gt, _ = make_phantom("two-phase", 64, 0.0, 0)
    result, _ = run_segment(image, phases=1, lambda_tv=1e-2, dt=0.5, max_iters=800, seed=0)
    labels, trace = result.labels, result.trace
    assert iou_binary(labels, gt) >= 0.98
    assert np.all(np.diff(trace[:, 0]) <= 1e-6)


def test_segment_four_phase():
    image, gt, _ = make_phantom("four-phase", 64, 0.0, 0)
    result, _ = run_segment(
        image, phases=2, lambda_tv=1e-2, dt=2.0, eps_h=2.0, max_iters=3000, seed=0
    )
    labels, trace = result.labels, result.trace
    assert min(best_permutation_ious(labels, gt, 4)) >= 0.95
    assert np.all(np.diff(trace[:, 0]) <= 1e-6)


def test_segment_constant_image():
    # pure curvature motion: needs a small dt*lambda product to stay
    # monotone through the cell-collapse events, and many steps to finish
    x = np.full((24, 24, 1), 0.5)
    result, _ = run_segment(x, phases=1, lambda_tv=0.1, dt=0.05, max_iters=30000, seed=0)
    labels, trace = result.labels, result.trace
    assert np.all(np.diff(trace[:, 0]) <= 1e-6)
    assert len(np.unique(labels)) == 1


@pytest.mark.parametrize("dt", [0.5, 2.0])
@pytest.mark.parametrize("phases", [1, 2])
@pytest.mark.parametrize("case", sorted(EDGE_IMAGES))
def test_segment_edge_images_keep_the_stop_contract(case, phases, dt):
    # at the CLI's lambda these runs end in all three stop reasons
    image = EDGE_IMAGES[case][0]
    result, converged = run_segment(image, phases=phases, lambda_tv=1e-3, dt=dt)
    assert result.labels.shape == image.shape[:2]
    assert 0 <= result.labels.min() and result.labels.max() < 2 ** phases
    assert result.centroids.shape == (2 ** phases, 1)
    assert np.all(np.isfinite(result.centroids)) and np.all(np.isfinite(result.trace))
    assert converged == (result.stop == "rel_tol")


def test_segment_rejects_bad_phases():
    with pytest.raises(ValueError):
        segment_levelset(np.zeros((16, 16, 1)), phases=3)


# phantom, noise seed, phases, lambda, dt, eps_h, max_iters, rel_tol; dt a power of two
DESCENT_CASES = {
    "one-phase": ("two-phase", 0, 1, 1e-2, 0.5, 1.0, 60, 1e-6),
    "two-phase": ("four-phase", 0, 2, 1e-2, 2.0, 2.0, 60, 1e-6),
    "rejected-step": ("four-phase", 2, 2, 1e-2, 8.0, 2.0, 40, 1e-6),
}


@pytest.mark.parametrize("case", sorted(DESCENT_CASES))
def test_segment_matches_step_by_step_oracle(case):
    kind, noise_seed, phases, lam, dt, eps_h, max_iters, rel_tol = DESCENT_CASES[case]
    image, _, _ = make_phantom(kind, 32, 0.05, noise_seed)
    args = dict(phases=phases, lambda_tv=lam, dt=dt, eps_h=eps_h, max_iters=max_iters,
                rel_tol=rel_tol)
    result, converged = run_segment(image, **args)
    labels, trace, stop, trials = levelset_descent_loop(image, **args)
    assert np.array_equal(result.labels, labels)
    assert np.array_equal(result.trace, trace)
    assert result.stop == stop and converged == (stop == "rel_tol")
    assert (trials > len(trace) - 1) == (case == "rejected-step")


def count_calls(monkeypatch, counts, module, name):
    """Wrap module.name so that each call adds 1 to counts[name]."""
    real = getattr(module, name)
    counts.setdefault(name, 0)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_segment_evaluates_each_accepted_step_once(monkeypatch):
    counts = {}
    count_calls(monkeypatch, counts, softseg, "weighted_means")
    count_calls(monkeypatch, counts, levelset, "memberships")
    image, _, _ = make_phantom("two-phase", 64, 0.05, 0)
    result, _ = run_segment(image, phases=1, lambda_tv=1e-2, dt=0.5, max_iters=50, rel_tol=1e-12)
    assert len(result.trace) == 51  # no step rejected
    assert counts == {"weighted_means": 51, "memberships": 51}


def test_the_traced_tv_term_descends_along_the_curvature_velocity(monkeypatch):
    # For p = 1, chi_0 = 1 - H and chi_1 = H have the same TV, so sum_n TV(chi_n)
    # counts every boundary twice; the traced weight lambda / 2 makes the TV
    # term's gradient, pulled back through H, the velocity's curvature term.
    lam = 1e-2
    seen = []
    real = levelset.block_descent

    def recording(x, cfg, u, *args, **kwargs):
        seen.append((cfg, u.copy()))
        return real(x, cfg, u, *args, **kwargs)

    monkeypatch.setattr(levelset, "block_descent", recording)
    image, _, _ = make_phantom("two-phase", 128, 0.05, 0)
    run_segment(image, phases=1, lambda_tv=lam, max_iters=1)
    (cfg, phi), = seen
    state = LevelSetState(phi, lambda_tv=lam)
    chi = memberships(state)
    delta = delta_eps(phi[0], state.eps_h)
    pulled = delta * cfg.lambda_tv * (tv_smooth_grad(chi[1], cfg.tv_eps)
                                      - tv_smooth_grad(chi[0], cfg.tv_eps))
    curvature = delta * lam * curvature_central(phi[0])
    sel = np.abs(curvature) > 0.1 * np.abs(curvature).max()
    assert 0.8 <= np.median(-pulled[sel] / curvature[sel]) <= 1.25
    # the two planes share their TV, and the term takes it from chi_1 alone
    tv = levelset_energy(image, state, cfg.tv_eps)[2]
    assert tv == lam * tv_smooth(chi[1], cfg.tv_eps)
    with pytest.raises(ValueError, match="got -0.01$"):  # the weight given, not the traced one
        segment_levelset(image, lambda_tv=-lam)


def test_the_one_plane_tv_term_equals_the_two_plane_form_to_rounding():
    # TV(1 - H) and TV(H) differ only in how 1 - H rounds, so lambda TV(chi_1)
    # is (lambda / 2)(TV(chi_0) + TV(chi_1)) to within about one rounding
    rng = np.random.default_rng(18)
    x = rng.random((20, 24, 1))
    lam = 1e-2
    for _ in range(200):
        phi = rng.uniform(-3.0, 3.0, (1, 20, 24)) * rng.uniform(0.1, 10.0)
        state = LevelSetState(phi, eps_h=rng.uniform(0.5, 2.0), lambda_tv=lam)
        chi = memberships(state)
        two_planes = (0.5 * lam) * (tv_smooth(chi[0]) + tv_smooth(chi[1]))
        assert levelset_energy(x, state)[2] == pytest.approx(two_planes, rel=4.5e-16, abs=0.0)


@pytest.mark.parametrize("phases, per_evaluation", [(1, 1), (2, 4)])
def test_each_evaluation_takes_one_tv_stencil_per_distinct_plane(monkeypatch, phases,
                                                                 per_evaluation):
    calls = {}
    for module in (softseg, levelset):
        count_calls(monkeypatch, calls, module, "tv_smooth")
    count_calls(monkeypatch, calls, softseg, "weighted_means")
    image, _, _ = make_phantom("four-phase", 32, 0.05, 0)
    state = LevelSetState(np.random.default_rng(1).uniform(-1.0, 1.0, (phases, 32, 32)))
    levelset_energy(image, state)
    assert calls["tv_smooth"] == per_evaluation
    calls["tv_smooth"] = 0
    run_segment(image, phases=phases, lambda_tv=1e-2, dt=8.0, eps_h=2.0, max_iters=20)
    assert calls["weighted_means"] > 1
    assert calls["tv_smooth"] == per_evaluation * calls["weighted_means"]


@pytest.mark.parametrize("phases", [1, 2])
def test_the_direction_is_the_negated_velocity_formula_bit_for_bit(phases):
    # on the zero image every fit is 0, so the flat rows (zero curvature) have
    # a zero velocity, whose negation must carry the sign the formula gives it
    rng = np.random.default_rng(19)
    phi = rng.uniform(-2.0, 2.0, (phases, 30, 40))
    phi[:, :4] = 0.0
    eps_h, lam = 1.1, 0.05
    for x in (rng.random((30, 40, 1)), np.zeros((30, 40, 1))):
        sq = softseg.sq_residual(x, region_means(x, LevelSetState(phi, eps_h)))
        if phases == 1:
            comps = [sq[1] - sq[0]]
        else:
            h1, h2 = heaviside_eps(phi, eps_h)
            comps = [(sq[3] - sq[1]) * h2 + (sq[2] - sq[0]) * (1.0 - h2),
                     (sq[3] - sq[2]) * h1 + (sq[1] - sq[0]) * (1.0 - h1)]
        want = -np.stack([delta_eps(phi[m], eps_h) * (lam * curvature_central(phi[m]) - comps[m])
                          for m in range(phases)])
        before = phi.copy()
        d = levelset._direction(phi, sq, eps_h, lam)
        assert d.shape == phi.shape and np.array_equal(phi, before)
        assert d.tobytes() == want.tobytes()  # signed zeros included


@pytest.mark.parametrize("phases", [1, 2])
def test_each_evaluation_builds_the_residual_once_and_moves_phi_in_place_per_step(
        monkeypatch, phases):
    # the velocity reads the residual its accepted evaluation built; each
    # trial's level functions are formed once, in the memberships' last p
    # planes, where its Heavisides are then taken, and an accepted step moves
    # phi in place
    calls, trials, moves, trial_members = {}, [], [], []
    for name in ("_residual_sums", "weighted_means"):
        count_calls(monkeypatch, calls, softseg, name)
    real_step, real_memberships = softseg._step, levelset.memberships

    def step(u, d, eta, out):
        (moves if out is u else trials).append(out)
        return real_step(u, d, eta, out)

    def recording_memberships(state, out=None):
        if trials and state.phi is trials[-1]:
            planes = out[-phases:]
            trial_members.append(state.phi.ctypes.data == planes.ctypes.data
                                 and state.phi.shape == planes.shape)
        return real_memberships(state, out)

    for module in (softseg, levelset):
        monkeypatch.setattr(module, "_step", step)
    monkeypatch.setattr(levelset, "memberships", recording_memberships)
    image, _, _ = make_phantom("four-phase", 32, 0.05, 2)
    result, _ = run_segment(image, phases=phases, lambda_tv=1e-2, dt=8.0, eps_h=2.0,
                            max_iters=20)
    assert calls["weighted_means"] >= len(result.trace)
    assert calls["_residual_sums"] == calls["weighted_means"]
    assert len(trials) == calls["weighted_means"] - 1  # one per trial
    assert len(trial_members) == len(trials) and all(trial_members)  # in the memberships' planes
    assert len(moves) == len(result.trace) - 1  # one per accepted step
    if phases == 2:
        assert calls["weighted_means"] > len(result.trace)  # a trial was rejected


@pytest.mark.parametrize("phases, kind, dt, eps_h, bound",
                         [(1, "two-phase", 1.0, 1.0, 7.75), (2, "four-phase", 2.0, 2.0, 18.5)])
def test_traced_peak_of_a_level_set_solve(phases, kind, dt, eps_h, bound):
    # u, the direction, the memberships (whose last p planes take each trial
    # u) and the residual they build are the (H, W) planes a step holds, 6 for
    # p = 1, with the stencils' strip buffers on top (7.54 planes traced); a
    # step holds no trial plane. For p = 2 the peak is reached while the
    # velocity is formed (15.5 planes traced)
    size = 256
    image, _, _ = make_phantom(kind, size, 0.05, 0)
    plane = size * size * np.dtype(np.float64).itemsize
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_segment(image, phases=phases, lambda_tv=1e-2, dt=dt, eps_h=eps_h, max_iters=20)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= bound * plane, f"traced peak {peak / plane:.2f} planes"
