"""Classical multiphase piecewise-constant level-set segmentation.

p level functions encode 2^p classes through their sign pattern; the smooth
Heaviside surrogate H_eps(phi) = (1 + (2/pi) atan(phi/eps)) / 2 makes region
memberships differentiable and its derivative delta_eps localizes the
updates near the zero level sets. Evolution is explicit Euler on the
curvature + region-competition velocities, with region means refreshed every
step and the step halved while the energy rises.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError
from .grid import as_image
from .softseg import Result, _descend, energy, iterate, sq_residual, weighted_means

# Not called here; bound only so that perfbench/tracing.py's per-module targets resolve.
from .grid import tv_smooth  # noqa: F401

# Added to |grad phi|^3 in the curvature denominator.
CURVATURE_GUARD = 1e-8


def heaviside_eps(phi, eps_h):
    """Smoothed Heaviside H_eps(phi) = 0.5 (1 + (2/pi) atan(phi/eps_h))."""
    if eps_h <= 0:
        raise ValueError(f"eps_h must be > 0, got {eps_h}")
    return 0.5 * (1.0 + (2.0 / np.pi) * np.arctan(np.asarray(phi, dtype=np.float64) / eps_h))


def delta_eps(phi, eps_h):
    """Smoothed Dirac delta, the exact derivative of heaviside_eps."""
    if eps_h <= 0:
        raise ValueError(f"eps_h must be > 0, got {eps_h}")
    phi = np.asarray(phi, dtype=np.float64)
    return (eps_h / np.pi) / (eps_h * eps_h + phi * phi)


@dataclass
class LevelSetState:
    """p level functions plus the evolution parameters.

    Class index convention: bit m of the index is 1 where phi_m > 0, with
    phi_0 the most significant bit (p <= 2, i.e. 2 or 4 classes).
    """

    phi: np.ndarray  # (p, H, W)
    eps_h: float = 1.0
    dt: float = 0.5
    lambda_tv: float = 0.01

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if self.phi.ndim != 3 or self.phi.shape[0] not in (1, 2):
            raise ValueError(f"phi must be (p, H, W) with p in {{1, 2}}, got {self.phi.shape}")
        if self.eps_h <= 0 or self.dt <= 0:
            raise ValueError("eps_h and dt must be positive")
        if self.lambda_tv < 0:
            raise ValueError(f"lambda_tv must be >= 0, got {self.lambda_tv}")

    @property
    def num_classes(self):
        return 2 ** self.phi.shape[0]


def memberships(state):
    """Smoothed characteristic functions of the 2^p classes, shape (N, H, W)."""
    h = heaviside_eps(state.phi, state.eps_h)
    if state.phi.shape[0] == 1:
        return np.stack([1.0 - h[0], h[0]])
    h1, h2 = h[0], h[1]
    return np.stack(
        [(1 - h1) * (1 - h2), (1 - h1) * h2, h1 * (1 - h2), h1 * h2]
    )


def region_means(x, state):
    """Membership-weighted mean of each Heaviside-encoded region, per channel."""
    return weighted_means(as_image(x), memberships(state))


def curvature_central(phi):
    """div(grad phi / |grad phi|) by central differences, replicate boundary.

    CURVATURE_GUARD is added to the |grad phi|^3 denominator.
    """
    p = np.pad(np.asarray(phi, dtype=np.float64), 1, mode="edge")
    fx = 0.5 * (p[1:-1, 2:] - p[1:-1, :-2])
    fy = 0.5 * (p[2:, 1:-1] - p[:-2, 1:-1])
    fxx = p[1:-1, 2:] - 2.0 * p[1:-1, 1:-1] + p[1:-1, :-2]
    fyy = p[2:, 1:-1] - 2.0 * p[1:-1, 1:-1] + p[:-2, 1:-1]
    fxy = 0.25 * (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2])
    num = fxx * fy * fy - 2.0 * fx * fy * fxy + fyy * fx * fx
    mag2 = fx * fx + fy * fy
    return num / (mag2 ** 1.5 + CURVATURE_GUARD)


def evolve_step(x, state):
    """One explicit Euler step of the region-competition evolution.

    Region means are recomputed from the current state; dt * lambda_tv must
    stay <= 0.25 (CFL-style safety).
    """
    x = as_image(x)
    if state.dt * state.lambda_tv > 0.25:
        raise ValueError(
            f"dt * lambda_tv = {state.dt * state.lambda_tv:g} violates the 0.25 safety bound"
        )
    c = region_means(x, state)
    sq = sq_residual(x, c)
    lam = state.lambda_tv
    if state.phi.shape[0] == 1:
        phi = state.phi[0]
        # competition: own-region fit against the complement, c[1] inside
        force = lam * curvature_central(phi) - (sq[1] - sq[0])
        new_phi = phi + state.dt * delta_eps(phi, state.eps_h) * force
        return replace(state, phi=new_phi[None, :, :])
    phi1, phi2 = state.phi[0], state.phi[1]
    h1 = heaviside_eps(phi1, state.eps_h)
    h2 = heaviside_eps(phi2, state.eps_h)
    comp1 = (sq[3] - sq[1]) * h2 + (sq[2] - sq[0]) * (1.0 - h2)
    comp2 = (sq[3] - sq[2]) * h1 + (sq[1] - sq[0]) * (1.0 - h1)
    v1 = delta_eps(phi1, state.eps_h) * (lam * curvature_central(phi1) - comp1)
    v2 = delta_eps(phi2, state.eps_h) * (lam * curvature_central(phi2) - comp2)
    return replace(state, phi=np.stack([phi1 + state.dt * v1, phi2 + state.dt * v2]))


def levelset_energy(x, state, tv_eps=1e-8):
    """Piecewise-constant energy of the smoothed partition.

    data = sum_n sum_r ||x - c_n||^2 chi_n, tv = lambda * sum_n TV(chi_n);
    returns (energy, data, tv).
    """
    x = as_image(x)
    chi = memberships(state)
    return energy(x, chi, weighted_means(x, chi), state.lambda_tv, tv_eps)


def hard_labels(state):
    """Class index per pixel from the level-function signs."""
    bits = state.phi > 0
    if state.phi.shape[0] == 1:
        return bits[0].astype(np.int64)
    return (2 * bits[0] + bits[1]).astype(np.int64)


# Half-period, in pixels, of the sinusoidal seed pattern.
INIT_PERIOD = 16.0


def initial_state(shape, phases, eps_h=1.0, dt=0.5, lambda_tv=0.01, seed=0):
    """Checkerboard-sinusoid level functions with seeded phase offsets.

    Successive level functions are shifted against each other by half a
    period so their sign patterns start decorrelated (all 2^p sign classes
    populated); the seed randomizes the global offset.
    """
    rng = np.random.default_rng(seed)
    ii, jj = np.mgrid[0 : shape[0], 0 : shape[1]].astype(np.float64)
    phi = np.empty((phases,) + tuple(shape))
    for m in range(phases):
        oi, oj = rng.uniform(0.0, 2.0 * INIT_PERIOD, size=2)
        phi[m] = np.sin(np.pi * (ii + oi) / INIT_PERIOD) * np.sin(np.pi * (jj + oj) / INIT_PERIOD)
    return LevelSetState(phi=phi, eps_h=eps_h, dt=dt, lambda_tv=lambda_tv)


def segment_levelset(
    x, phases=1, lambda_tv=0.01, dt=0.5, eps_h=1.0, max_iters=500, rel_tol=1e-6, seed=0
):
    """Evolve a seeded sinusoid initialization until the energy settles.

    Each step is an Euler step of trial length dt, halved while the energy
    rises (softseg._descend), so the trace is non-increasing. Returns a
    Result with the sign-pattern labels, their plain per-region means and
    trace rows (energy, data, tv). Unless the relative energy change drops
    below rel_tol, raises ConvergenceError carrying that Result.
    """
    x = as_image(x)
    if phases not in (1, 2):
        raise ValueError(f"phases must be 1 or 2, got {phases}")
    state = initial_state(x.shape[:2], phases, eps_h=eps_h, dt=dt, lambda_tv=lambda_tv, seed=seed)
    terms = levelset_energy(x, state)

    def trial(eta):
        cand = evolve_step(x, replace(state, dt=eta))
        return cand, levelset_energy(x, cand)

    def step():
        nonlocal state, terms
        cand, cand_terms, exhausted = _descend(trial, dt, terms[0])
        if exhausted:
            return None
        state, terms = cand, cand_terms
        return terms

    trace, stop = iterate(step, terms, max_iters, rel_tol)
    labels = hard_labels(state)
    means = np.zeros((state.num_classes, x.shape[2]))
    for k in range(state.num_classes):
        sel = labels == k
        if sel.any():
            means[k] = x[sel].mean(axis=0)
    result = Result(labels, means, trace, stop)
    if stop != "rel_tol":
        raise ConvergenceError(f"energy did not settle: {stop} after {len(trace) - 1} steps", result)
    return result
