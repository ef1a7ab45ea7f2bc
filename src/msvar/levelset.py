"""Classical multiphase piecewise-constant level-set segmentation.

p level functions encode 2^p classes through their sign pattern; the smooth
Heaviside surrogate H_eps(phi) = (1 + (2/pi) atan(phi/eps)) / 2 makes region
memberships differentiable and its derivative delta_eps localizes the
updates near the zero level sets. Evolution is explicit Euler on the
curvature + region-competition velocities, with region means refreshed every
step and the step halved while the energy rises. That energy is the softseg
one with the TV weight lambda / 2: each boundary enters the TV of the two
regions it separates, and the velocity descends lambda times its length. For
p = 1 the two regions, 1 - H and H, share their TV, so the term is taken as
lambda TV(H), one stencil instead of two.

A step builds each plane once: each trial phi - d * eta is formed in the
planes of the stack the descent reuses where its Heavisides are then taken
in place, the velocity reads the squared residuals that the accepted step's
energy evaluation built, and it is formed in place, negated and with the
delta folded in, as the descent direction; an accepted step moves phi in
place. Every operation keeps the operands and order of the plain formulas,
so the results are theirs bit for bit.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, check_number
from .grid import as_image, strip_rows, tv_smooth
from .softseg import (MsConfig, Result, _step, block_descent, energy, sq_residual,
                      two_class_tv, weighted_means)

# Added to |grad phi|^3 in the curvature denominator.
CURVATURE_GUARD = 1e-8


def _heaviside(phi, eps_h, out):
    """H_eps(phi) written into out, rounded as 0.5 (1 + (2/pi) atan(phi/eps_h))."""
    np.divide(phi, eps_h, out=out)
    np.arctan(out, out=out)
    out *= 2.0 / np.pi
    out += 1.0
    out *= 0.5
    return out


def _delta(phi, eps_h, out, sign=1.0):
    """sign * delta_eps(phi) written into out, rounded as
    (sign eps_h/pi) / (eps_h^2 + phi^2); a sign of -1 negates it exactly."""
    np.multiply(phi, phi, out=out)
    out += eps_h * eps_h
    return np.divide(sign * (eps_h / np.pi), out, out=out)


def heaviside_eps(phi, eps_h):
    """Smoothed Heaviside H_eps(phi) = 0.5 (1 + (2/pi) atan(phi/eps_h))."""
    check_number("eps_h", eps_h, positive=True)
    phi = np.asarray(phi, dtype=np.float64)
    return _heaviside(phi, eps_h, np.empty(phi.shape))[()]  # [()]: a scalar for a scalar


def delta_eps(phi, eps_h):
    """Smoothed Dirac delta, the exact derivative of heaviside_eps."""
    check_number("eps_h", eps_h, positive=True)
    phi = np.asarray(phi, dtype=np.float64)
    return _delta(phi, eps_h, np.empty(phi.shape))[()]


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
        _check_evolution(self.eps_h, self.dt, self.lambda_tv)


def _check_evolution(eps_h, dt, lambda_tv):
    check_number("eps_h", eps_h, positive=True)
    check_number("dt", dt, positive=True)
    check_number("lambda_tv", lambda_tv, positive=False)


def memberships(state, out=None):
    """Smoothed characteristic functions of the 2^p classes, shape (N, H, W),
    written into out when given.

    The Heavisides are formed in place in out's last p planes, which may hold
    phi itself (the descent forms its trials there). For p = 2 the four
    products of h1, h2 and their complements g = 1 - h are taken in row strips
    of grid.STRIP elements, with g2 in one strip-sized buffer.
    """
    phi, eps_h = state.phi, state.eps_h
    if out is None:
        out = np.empty((2 ** phi.shape[0],) + phi.shape[1:])
    if phi.shape[0] == 1:
        _heaviside(phi[0], eps_h, out[1])
        np.subtract(1.0, out[1], out=out[0])
        return out
    # out[2] = h1 and out[3] = h2 until their strip's products overwrite them
    _heaviside(phi[0], eps_h, out[2])
    _heaviside(phi[1], eps_h, out[3])
    h, w = phi.shape[1:]
    rows = strip_rows(w)
    buf = np.empty((min(rows, h), w))
    for i0 in range(0, h, rows):
        gg, gh, hg, hh = out[:, i0 : i0 + rows]
        g2 = np.subtract(1.0, hh, out=buf[: len(hh)])
        np.subtract(1.0, hg, out=gg)
        np.multiply(gg, hh, out=gh)
        gg *= g2
        np.multiply(hg, hh, out=hh)
        hg *= g2
    return out


def region_means(x, state):
    """Membership-weighted mean of each Heaviside-encoded region, per channel."""
    return weighted_means(as_image(x), memberships(state))


def curvature_central(phi):
    """div(grad phi / |grad phi|) by central differences, replicate boundary.

    The denominator is mag2 sqrt(mag2) + CURVATURE_GUARD, mag2 = |grad phi|^2;
    a product and a root cost less than mag2 ** 1.5. The field is
    walked in row strips of grid.STRIP elements: each strip is copied into a
    buffer padded by its edge columns and by the rows above and below it (the
    field's own edge rows at its top and bottom). Every stencil product is
    one 1-D pass over the flattened padded strip, whose rows are w + 2 long,
    and is taken in the order of the whole-plane formula, so the result does
    not depend on the strip length. Such a pass also spans the two columns
    where one padded row wraps into the next; each x-difference (fx, fxx,
    fxy) is set to 0 there as soon as it is taken, so those columns hold
    values no larger than the valid ones, and only the final divide reads the
    valid (r, w) part.
    """
    phi = np.asarray(phi, dtype=np.float64)
    h, w = phi.shape
    out = np.empty((h, w))
    if out.size == 0:
        return out
    rows = min(strip_rows(w), h)
    pad = np.empty((rows + 2, w + 2))
    # row i, column j of a buffer is padded row i + 1, column j + 1
    fx, fy, a, b = (np.empty((rows, w + 2)) for _ in range(4))
    for i0 in range(0, h, rows):
        i1 = min(i0 + rows, h)
        r = i1 - i0
        p = pad[: r + 2]
        p[1:-1, 1:-1] = phi[i0:i1]
        p[0, 1:-1] = phi[max(i0 - 1, 0)]
        p[-1, 1:-1] = phi[min(i1, h - 1)]
        p[:, 0] = p[:, 1]
        p[:, -1] = p[:, -2]
        # the pass covers padded rows 1..r from column 1 to column w; the
        # 3x3 neighbours of its elements start at these offsets of q
        q, s, n = p.reshape(-1), w + 2, r * (w + 2) - 2
        nw, up, ne, west, mid, east, sw, down, se = (
            q[k : k + n] for k in (0, 1, 2, s, s + 1, s + 2, 2 * s, 2 * s + 1, 2 * s + 2)
        )
        sx, sy, sa, sb = (buf[:r].reshape(-1)[:n] for buf in (fx, fy, a, b))
        fx_wraps, a_wraps = fx[:r, w:], a[:r, w:]
        # fx = 0.5 (E - W), fy = 0.5 (S - N)
        np.subtract(east, west, out=sx)
        fx_wraps[...] = 0.0
        sx *= 0.5
        np.subtract(down, up, out=sy)
        sy *= 0.5
        # sb = 2 fx fy fxy with fxy = 0.25 (SE - SW - NE + NW)
        np.subtract(se, sw, out=sa)
        sa -= ne
        sa += nw
        a_wraps[...] = 0.0
        sa *= 0.25
        np.multiply(sx, 2.0, out=sb)
        sb *= sy
        sb *= sa
        # num = fxx fy fy - 2 fx fy fxy + fyy fx fx, fxx = (E - 2 C) + W
        np.multiply(mid, 2.0, out=sa)
        np.subtract(east, sa, out=sa)
        sa += west
        a_wraps[...] = 0.0
        sa *= sy
        sa *= sy
        sa -= sb
        np.multiply(mid, 2.0, out=sb)
        np.subtract(down, sb, out=sb)
        sb += up
        sb *= sx
        sb *= sx
        sa += sb
        # mag2 = fx fx + fy fy, then mag2 sqrt(mag2) with the root in sy
        np.multiply(sx, sx, out=sb)
        sy *= sy
        sb += sy
        np.sqrt(sb, out=sy)
        sb *= sy
        sb += CURVATURE_GUARD
        np.divide(a[:r, :w], b[:r, :w], out=out[i0:i1])
    return out


def _check_cfl(dt, lambda_tv):
    if dt * lambda_tv > 0.25:
        raise ValueError(f"dt * lambda_tv = {dt * lambda_tv:g} violates the 0.25 safety bound")


def _direction(phi, sq, eps_h, lam):
    """Minus the curvature + region-competition velocity of each level
    function, shape (p, H, W), from the squared residuals sq = ||x - c_n||^2
    of the 2^p classes, which it overwrites.

    The velocity delta_eps(phi) (lam curvature - competition) is formed in
    place, with the sign folded into the delta: for p = 1 in the curvature's
    own plane, for p = 2 in a new stack, with sq as the workspace. Each
    operation takes the operands of that formula in its order, so the result
    is its negation bit for bit.
    """
    if phi.shape[0] == 1:
        # competition: own-region fit against the complement, c[1] inside
        force = curvature_central(phi[0])
        force *= lam
        force -= np.subtract(sq[1], sq[0], out=sq[1])
        force *= _delta(phi[0], eps_h, sq[0], -1.0)
        return force[None]
    s0, s1, s2, s3 = sq
    d = np.empty(phi.shape)
    # comp1 = (s3 - s1) h2 + (s2 - s0)(1 - h2), comp2 = (s3 - s2) h1 + (s1 - s0)(1 - h1):
    # each is a h + b (1 - h), a in d[m], b and then h in the planes of sq it frees
    np.subtract(s3, s1, out=d[0])
    np.subtract(s3, s2, out=d[1])
    np.subtract(s2, s0, out=s3)
    np.subtract(s1, s0, out=s2)
    for a, b, h, phi_h in ((d[0], s3, s1, phi[1]), (d[1], s2, s0, phi[0])):
        a *= _heaviside(phi_h, eps_h, h)
        b *= np.subtract(1.0, h, out=h)
        a += b
    for m in range(2):
        force = curvature_central(phi[m])
        force *= lam
        np.subtract(force, d[m], out=d[m])
        d[m] *= _delta(phi[m], eps_h, s0, -1.0)
    return d


def evolve_step(x, state):
    """One explicit Euler step of the region-competition evolution.

    Region means are recomputed from the current state; dt * lambda_tv must
    stay <= 0.25 (CFL-style safety).
    """
    x = as_image(x)
    _check_cfl(state.dt, state.lambda_tv)
    sq = sq_residual(x, region_means(x, state))
    d = _direction(state.phi, sq, state.eps_h, state.lambda_tv)
    return replace(state, phi=state.phi - state.dt * d)


def _energy_terms(x, chi, lambda_tv, tv_eps, sq=None):
    """(c, (energy, data, tv)) of memberships chi: their means c,
    softseg.energy's data term at c, with the squared residual built in sq
    when given, and tv = (lambda / 2) sum_n TV(chi_n), 0 when lambda is. For
    p = 1, chi_0 = 1 - chi_1 has the same TV, so tv is softseg.two_class_tv's
    lambda TV(chi_1), one stencil."""
    c = weighted_means(x, chi)
    loss, data, _ = energy(x, chi, c, 0.0, tv_eps, grad_out=sq)
    if chi.shape[0] == 2:
        tv = two_class_tv(chi, 0.5 * lambda_tv, tv_eps)
    elif lambda_tv == 0.0:
        tv = 0.0
    else:
        tv = 0.5 * lambda_tv * sum(tv_smooth(plane, tv_eps) for plane in chi)
    return c, (loss + tv, data, tv)


def levelset_energy(x, state, tv_eps=1e-8):
    """Piecewise-constant energy of the smoothed partition.

    data = sum_n sum_r ||x - c_n||^2 chi_n, tv = (lambda / 2) * sum_n TV(chi_n);
    returns (energy, data, tv). Every boundary between two regions enters the
    TV of both characteristic functions, so the weight lambda / 2 makes tv
    lambda times the boundary length, the length term the curvature velocity
    descends (Chan & Vese 2001; Vese & Chan 2002). For p = 1, tv is taken as
    lambda TV(chi_1).
    """
    return _energy_terms(as_image(x), memberships(state), state.lambda_tv, tv_eps)[1]


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


def segment_levelset(x, phases=1, lambda_tv=0.01, dt=0.5, eps_h=1.0, max_iters=500,
                     rel_tol=1e-6, seed=0, tv_eps=1e-8):
    """Evolve a seeded sinusoid initialization until the energy settles.

    softseg.block_descent over the level functions, with Heaviside memberships
    and the negated velocity as direction, which reads the squared residuals
    of the descent's last accepted evaluation: each step is an Euler step of
    trial length dt, halved while the energy rises, so the trace is
    non-increasing. Each trial phi - d * eta is formed in the memberships'
    planes that its Heavisides then take, and an accepted step moves phi in
    place.
    Returns a Result with the sign-pattern labels, their plain per-region means
    and trace rows (energy, data, tv), as levelset_energy gives them. Unless
    the relative energy change drops below rel_tol, raises ConvergenceError
    carrying that Result.
    """
    x = as_image(x)
    if phases not in (1, 2):
        raise ValueError(f"phases must be 1 or 2, got {phases}")
    _check_evolution(eps_h, dt, lambda_tv)  # before cfg, which names dt step_size
    cfg = MsConfig(num_classes=2 ** phases, lambda_tv=lambda_tv, step_size=dt,
                   max_iters=max_iters, rel_tol=rel_tol, tv_eps=tv_eps, seed=seed)
    cfg.validate()
    _check_cfl(dt, lambda_tv)

    def members(phi, d=None, eta=0.0, out=None):
        # a trial is formed in the planes where memberships takes its Heavisides
        if d is not None:
            phi = _step(phi, d, eta, out[-phases:])
        return memberships(LevelSetState(phi, eps_h), out)

    # the initial level functions are passed inline so that no frame keeps them alive
    (phi, _, _), trace, stop = block_descent(
        cfg,
        initial_state(x.shape[:2], phases, eps_h=eps_h, dt=dt, lambda_tv=lambda_tv, seed=seed).phi,
        members, lambda phi, y, c, sq: _direction(phi, sq, eps_h, lambda_tv),
        lambda chi, sq, _: _energy_terms(x, chi, lambda_tv, tv_eps, sq), fixed_step=True)
    labels = hard_labels(LevelSetState(phi, eps_h))
    means = np.zeros((cfg.num_classes, x.shape[2]))
    for k in range(cfg.num_classes):
        sel = labels == k
        if sel.any():
            means[k] = x[sel].mean(axis=0)
    result = Result(labels, means, trace, stop)
    if stop != "rel_tol":
        raise ConvergenceError(f"energy did not settle: {stop} after {len(trace) - 1} steps", result)
    return result
