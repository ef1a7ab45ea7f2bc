"""Piecewise-constant segmentation by direct minimization over per-pixel logits.

The discrete labeling is relaxed through a softmax: memberships y_n are the
softmax of logit fields z_n, which keeps the partition-of-unity constraint
satisfied by construction. The objective is

    sum_n sum_r ||x(r) - c_n||^2 y_n(r)  +  lambda * sum_n TV(y_n)

with c_n the membership-weighted class means, minimized by alternating
centroid refreshes with gradient steps on the logits.

The bias and level-set solvers minimise the same energy (fit b(r) c_n;
Heaviside memberships, with TV weight lambda / 2); it and the one iteration
driver, block_descent, live here. Each solver hands the driver its own
evaluation, and ms-bias its bias block too (see bias). energy is also the
one formula of its gradient in the memberships: energy(..., grad_out=g)
builds the g that the directions of ms and ms-bias read, and the one
ms_loss_grad pulls back; the level set, whose velocity is not an energy
gradient, is handed the residual of its data term alone.

The kernels on the descent path work in place, one class (and channel) at
a time, over strips of grid.STRIP elements: they allocate what they return
and strip-sized buffers, never an (N, H, W, C) residual, and leave their
inputs unchanged (the two chain rules overwrite the gradient they are given).
The residual sums, softmax, both chain rules and the trial step
u - (d * eta) (_step) give each element the operands of the whole-plane
formula in its order, so the strip length does not show in their bits. The
fused loss-and-gradient pass, energy(..., grad_out=g), builds the residual
in g: the data term is one np.einsum dot of the residual and the
memberships, with or without g, and the TV value and gradient are taken
over strips too. No trial is formed as a whole array of its own:
softmax(u, d, eta, out) and two_class_memberships take a logit trial strip
by strip, into the memberships' stack the descent reuses, the level set
forms its trial in the planes of that stack that its Heavisides then take,
and an accepted step moves u in place (see block_descent).

Two classes without a bias field descend one plane, u = z_1 - z_0:
softmax((0, u)) is two_class_memberships(u), the two TV terms are
two_class_tv's one stencil, and two_class_energy keeps one gradient plane,
f_1 + 2 lambda grad TV(y_1), in which the direction is formed in place
(f_0 is formed again per strip). Its trials, like the N planes', are taken
strip by strip by two_class_memberships(u, d, eta, out), and an accepted
step moves u in place, so the descent holds six (H, W) planes: the image,
u, the direction, the gradient and the two memberships. The result's labels
are y_1 > y_0 of its memberships, and a k-means start is +-KMEANS_LOGIT_GAP
straight from the labels (see minimize_ms).
"""

import bisect
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, check_number
from .grid import EPS_DEN, STRIP, as_image, tv_smooth, tv_smooth_grad


@dataclass
class MsConfig:
    """Solver settings; defaults are the package defaults, not tuned per image."""

    num_classes: int = 2
    lambda_tv: float = 1e-3
    step_size: float = 0.5
    max_iters: int = 500
    rel_tol: float = 1e-6
    tv_eps: float = 1e-8
    seed: int = 0

    def validate(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        check_number("lambda_tv", self.lambda_tv, positive=False)
        check_number("step_size", self.step_size, positive=True)
        check_number("rel_tol", self.rel_tol, positive=True)
        check_number("tv_eps", self.tv_eps, positive=True)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported by the isfinite check
def softmax(logits, d=None, eta=0.0, out=None):
    """Per-pixel softmax over the class axis of an (N, H, W) logit stack u, or,
    given a direction d of its shape, of the trial logits u - d * eta, which
    are never formed as a whole.

    Walks column strips of STRIP pixels: each strip takes t = u - (d * eta),
    checks that it is finite, subtracts its per-pixel max (so large logits
    cannot overflow), exponentiates and divides by the sum over classes, in
    the order and rounding of the whole-stack formula. The result goes into
    out when given: a C-contiguous (N, H, W) stack that aliases neither input.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 3 or z.shape[0] < 2:
        raise ValueError(f"expected (N, H, W) logits with N >= 2, got shape {z.shape}")
    if out is None:
        out = np.empty(z.shape)
    elif out.shape != z.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous stack of shape {z.shape}")
    n = z.shape[0]
    z = z.reshape(n, -1)
    if d is not None:
        d = d.reshape(n, -1)
    t_all = out.reshape(n, -1)
    s_all = np.empty(min(STRIP, z.shape[1]))  # per-pixel max, then sum
    for i in range(0, z.shape[1], STRIP):
        j = min(i + STRIP, z.shape[1])
        t, s = t_all[:, i:j], s_all[: j - i]
        if d is None:
            t[...] = z[:, i:j]
        else:
            np.subtract(z[:, i:j], np.multiply(d[:, i:j], eta, out=t), out=t)
        if not np.isfinite(t).all():
            raise ValueError("logits contain non-finite values")
        t -= np.max(t, axis=0, out=s)
        np.exp(t, out=t)
        t /= np.sum(t, axis=0, out=s)
    return out


@np.errstate(over="ignore", invalid="ignore")  # a non-finite trial is reported by the isfinite check
def two_class_memberships(u, d=None, eta=0.0, out=None):
    """Memberships (y_0, y_1) = softmax((0, u)) of one (H, W) logit difference
    u = z_1 - z_0, as a (2, H, W) stack, written into out when given; or,
    given a direction d of u's shape, those of the trial u - (d * eta), which
    is never formed as a whole and rounds as _step rounds it.

    Walks strips of STRIP pixels with softmax's own operations on the logits
    (0, t), t the strip of u or of the trial: m = max(t, 0), e_0 = exp(-m),
    e_1 = exp(t - m) (so one of the two is exp(0) = 1 at each pixel) and
    y_n = e_n / (e_0 + e_1), which are softmax(np.stack([0 * t, t])) bit for
    bit. A non-finite t raises ValueError, as softmax does.
    """
    u = np.asarray(u, dtype=np.float64)
    if out is None:
        out = np.empty((2,) + u.shape)
    u, y = u.reshape(-1), out.reshape(2, -1)
    if d is not None:
        d = d.reshape(-1)
    s_all = np.empty(min(STRIP, u.size))  # e_0 + e_1
    for i in range(0, u.size, STRIP):
        j = min(i + STRIP, u.size)
        t, s, y0, y1 = u[i:j], s_all[: j - i], y[0, i:j], y[1, i:j]
        if d is not None:
            t = np.subtract(t, np.multiply(d[i:j], eta, out=y1), out=y1)
        np.maximum(t, 0.0, out=y0)
        np.subtract(t, y0, out=y1)
        if not np.isfinite(np.min(y1)):  # t - max(t, 0) is -inf or nan where t is not finite
            raise ValueError("logits contain non-finite values")
        np.negative(y0, out=y0)
        np.exp(y0, out=y0)
        np.exp(y1, out=y1)
        np.add(y0, y1, out=s)
        y0 /= s
        y1 /= s
    return out


def _chain_two_class(x, y, c, g):
    """dE/du = y_0 y_1 (g - f_0), with f_0 = ||x - c_0||^2 and g the gradient
    plane of two_class_energy (g - f_0 is g_1 - g_0 of the two-plane
    gradient), formed in g and returned, STRIP elements at a time. f_0 is
    formed again per strip by _residual_sums, so it has the bits of the
    two-plane gradient's g_0."""
    xs, y2, d = x.reshape(-1, x.shape[2]), y.reshape(2, -1), g.reshape(-1)
    f0 = np.empty((1, min(STRIP, d.size)))
    for i in range(0, d.size, STRIP):
        j = min(i + STRIP, d.size)
        ds = d[i:j]
        ds -= _residual_sums(xs[i:j, None], c[:1], out=f0[:, : j - i])[0]
        ds *= y2[0, i:j]
        ds *= y2[1, i:j]
    return g


def _step(u, d, eta, out):
    """out = u - (d * eta), STRIP elements at a time, in a C-contiguous out of
    u's shape. out may be u itself (the in-place step); d * eta then goes
    through one strip buffer, otherwise through out's own strip."""
    u, d, o = u.reshape(-1), d.reshape(-1), out.reshape(-1)
    buf = np.empty(min(STRIP, u.size)) if np.may_share_memory(u, o) else None
    for i in range(0, u.size, STRIP):
        j = min(i + STRIP, u.size)
        t = np.multiply(d[i:j], eta, out=o[i:j] if buf is None else buf[: j - i])
        np.subtract(u[i:j], t, out=o[i:j])
    return out


@dataclass(frozen=True)
class SoftSegmentation:
    """Logit fields plus the memberships derived from them.

    Memberships are always the softmax of the logits; build instances through
    from_logits, or from one block_descent state, so the two never drift apart.
    """

    logits: np.ndarray       # (N, H, W)
    memberships: np.ndarray  # (N, H, W), rows sum to 1 per pixel

    @classmethod
    def from_logits(cls, logits):
        y = softmax(logits)
        return cls(logits=np.asarray(logits, dtype=np.float64), memberships=y)


@dataclass(frozen=True)
class Result:
    """What every solver returns and every ConvergenceError carries.

    trace rows are the energy terms (loss first) of the start and of each
    accepted step; stop is the reason iterate gave. seg is None for the
    level-set solver, bias is None unless a bias field was estimated.
    """

    labels: np.ndarray  # (H, W)
    centroids: np.ndarray  # (N, C)
    trace: np.ndarray
    stop: str
    seg: SoftSegmentation | None = None
    bias: np.ndarray | None = None


def weighted_means(x, y, b=None):
    """Class means of the fit x ~ b c_n under memberships y, per channel:
    c[n, ch] = sum_r b x_ch y_n / (sum_r b^2 y_n + EPS_DEN); b = None is b = 1."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 3 or y.shape[1:] != x.shape[:2] or (b is not None and b.shape != x.shape[:2]):
        bias = "" if b is None else f", bias {b.shape}"
        raise ValueError(f"shape mismatch: image {x.shape}, memberships {y.shape}{bias}")
    if b is None:
        num, den = np.tensordot(y, x, axes=([1, 2], [0, 1])), y.sum(axis=(1, 2))
    else:
        num = np.tensordot(y * b[None, :, :], x, axes=([1, 2], [0, 1]))
        den = np.sum(y * (b * b)[None, :, :], axis=(1, 2))
    return num / (den + EPS_DEN)[:, None]  # (N, C)


def soft_centroids(x, memberships):
    """Membership-weighted mean value of each class, per channel.

    c[n, ch] = sum_r x(r, ch) y_n(r) / (sum_r y_n(r) + EPS_DEN); the guard
    keeps (near-)empty classes finite.
    """
    return weighted_means(as_image(x), memberships)


def _residual_sums(x, c, b=None, weights=None, out=None):
    """sum_ch w_n,ch (x_ch(r) - b(r) c_n,ch) per class, shape (N, H, W); with
    weights None the residual is squared instead (w = the residual itself).
    b = None is b = 1. Built STRIP pixels at a time, class by class and
    channel by channel, in out (C-contiguous) when given; a channel after the
    first goes through one strip buffer."""
    num, chans = c.shape
    if out is None:
        out = np.empty((num,) + x.shape[:2])
    xs, o = x.reshape(-1, chans), out.reshape(num, -1)
    bs = None if b is None else b.reshape(-1)
    buf = np.empty(min(STRIP, len(xs))) if chans > 1 else None
    for i in range(0, len(xs), STRIP):
        j = min(i + STRIP, len(xs))
        for n in range(num):
            for ch in range(chans):
                r = buf[: j - i] if ch else o[n, i:j]
                if bs is None:
                    np.subtract(xs[i:j, ch], c[n, ch], out=r)
                else:
                    np.subtract(xs[i:j, ch], np.multiply(bs[i:j], c[n, ch], out=r), out=r)
                r *= r if weights is None else weights[n, ch]
                if ch:
                    o[n, i:j] += r
    return out


def sq_residual(x, c, b=None):
    """||x(r) - b(r) c_n||^2 summed over channels, shape (N, H, W)."""
    return _residual_sums(x, c, b)


def energy(x, y, c, lambda_tv, tv_eps, b=None, gamma=0.0, tv_y=None, grad_out=None, tv_b=None):
    """sum_n sum_r ||x - b c_n||^2 y_n + lambda_tv sum_n TV(y_n) [+ gamma TV(b)]
    as (loss, data, tv_y), with tv_b appended when b is given. A known
    lambda_tv sum_n TV(y_n) may be passed as tv_y, and a known gamma TV(b) as
    tv_b; they are then not recomputed. A zero lambda_tv or gamma skips its TV
    term, which is then exactly 0.

    Given an (N, H, W) grad_out (and no tv_y), the same pass writes into it the
    gradient in the memberships with c (and b) frozen,
    ||x - b c_n||^2 + lambda_tv grad TV(y_n). The data term is one dot
    product of the residual and the memberships, with or without grad_out;
    the residual is built in grad_out when given, so no (N, H, W) product is
    formed. The dot is np.einsum's, not BLAS ddot's (np.vdot), which splits
    its sum across BLAS threads and so rounds by the thread count.
    """
    if grad_out is not None and tv_y is not None:
        raise ValueError("grad_out needs the TV term computed, not passed as tv_y")
    residual = _residual_sums(x, c, b, out=grad_out)
    data = float(np.einsum("i,i->", residual.reshape(-1), y.reshape(-1)))
    del residual
    if tv_y is None:
        tv_y = 0.0
        if lambda_tv != 0.0:
            grads = [None] * y.shape[0] if grad_out is None else grad_out
            tv_y = lambda_tv * sum(tv_smooth(y[n], tv_eps, grads[n], lambda_tv)
                                   for n in range(y.shape[0]))
    if b is None:
        return data + tv_y, data, tv_y
    if tv_b is None:
        tv_b = gamma * tv_smooth(b, tv_eps) if gamma != 0.0 else 0.0
    return data + tv_y + tv_b, data, tv_y, tv_b


def two_class_tv(y, lambda_tv, tv_eps, grad_out=None):
    """lambda_tv (TV(y_0) + TV(y_1)) of two memberships that sum to 1, taken
    as 2 lambda_tv TV(y_1): y_0 = 1 - y_1 has the same TV, so one stencil
    gives the term, equal to the two-plane sum to within about one rounding.
    Given an (H, W) grad_out, adds the term's gradient, 2 lambda_tv
    grad TV(y_1), into it. A zero lambda_tv gives exactly 0.
    """
    if lambda_tv == 0.0:
        return 0.0
    w = 2.0 * lambda_tv
    return w * tv_smooth(y[1], tv_eps, grad_out, w)


def _two_class_data(x, y, c, f1=None):
    """The data term sum_r f_0 y_0 + f_1 y_1 of two memberships, with
    f_n = ||x - c_n||^2, taken STRIP pixels at a time, one np.einsum dot per
    class and strip. f_0, and f_1 unless an (H, W) plane f1 is given to take
    it, are formed in strip buffers, which are freed on return."""
    xs, y2 = x.reshape(-1, x.shape[2]), y.reshape(2, -1)
    buf = np.empty((2, min(STRIP, len(xs))))
    plane = None if f1 is None else f1.reshape(1, -1)
    data = 0.0
    for i in range(0, len(xs), STRIP):
        j = min(i + STRIP, len(xs))
        f0s = _residual_sums(xs[i:j, None], c[:1], out=buf[:1, : j - i])[0]
        out = buf[1:, : j - i] if plane is None else plane[:, i:j]
        f1s = _residual_sums(xs[i:j, None], c[1:], out=out)[0]
        data += np.einsum("i,i->", f0s, y2[0, i:j]) + np.einsum("i,i->", f1s, y2[1, i:j])
    return float(data)


def two_class_energy(x, y, c, lambda_tv, tv_eps, grad_out=None):
    """energy's (loss, data, tv_y) of two memberships that sum to 1: the data
    term is _two_class_data's and the TV term two_class_tv's. Given an (H, W)
    grad_out, the same pass writes into it the one gradient plane the
    two-class direction reads, f_1 + 2 lambda_tv grad TV(y_1); the
    gradient's other plane, f_0, is not kept (see _chain_two_class).
    ms_loss and the two-class descent take their terms from here.
    """
    data = _two_class_data(x, y, c, grad_out)
    tv_y = two_class_tv(y, lambda_tv, tv_eps, grad_out)
    return data + tv_y, data, tv_y


def ms_loss(x, seg, cfg):
    """Relaxed piecewise-constant loss; returns (loss, data_term, tv_term).

    Centroids are recomputed internally from the current memberships. Two
    classes take their terms from two_class_energy, as minimize_ms descends
    them.
    """
    x = as_image(x)
    y = seg.memberships
    c = weighted_means(x, y)
    if y.shape[0] == 2:
        return two_class_energy(x, y, c, cfg.lambda_tv, cfg.tv_eps)
    return energy(x, y, c, cfg.lambda_tv, cfg.tv_eps)


def _chain_softmax(y, grad_y):
    """Pull a gradient w.r.t. memberships back through the softmax Jacobian,
    y_n (g_n - sum_m g_m y_m), computed in (and returned as) grad_y, over
    column strips of STRIP pixels."""
    n = y.shape[0]
    y2, g2 = y.reshape(n, -1), grad_y.reshape(n, -1)
    inner, plane = (np.empty(min(STRIP, y2.shape[1])) for _ in range(2))
    for i in range(0, y2.shape[1], STRIP):
        j = min(i + STRIP, y2.shape[1])
        ys, gs, s, p = y2[:, i:j], g2[:, i:j], inner[: j - i], plane[: j - i]
        np.multiply(gs[0], ys[0], out=s)
        for k in range(1, n):
            s += np.multiply(gs[k], ys[k], out=p)
        gs -= s
        gs *= ys
    return grad_y


def ms_loss_grad(x, seg, cfg, mode="frozen-centroids"):
    """Analytic gradient of ms_loss with respect to the logits.

    mode "frozen-centroids" treats the centroids as constants (the
    alternating-scheme gradient); mode "full" adds the chain-rule term
    through the centroid formula as well. Both go through the softmax
    Jacobian.
    """
    if mode not in ("frozen-centroids", "full"):
        raise ValueError(f"unknown gradient mode {mode!r}")
    x = as_image(x)
    y = seg.memberships
    c = weighted_means(x, y)
    grad_y = np.empty_like(y)
    energy(x, y, c, cfg.lambda_tv, cfg.tv_eps, grad_out=grad_y)
    if mode == "full":
        # d data / d c_n = -2 sum_r (x - c_n) y_n, nonzero only through the
        # EPS_DEN guard since c_n is the exact weighted mean otherwise.
        sum_y = y.sum(axis=(1, 2))
        resid = np.tensordot(y, x, axes=([1, 2], [0, 1])) - c * sum_y[:, None]  # (N, C)
        coeff = -2.0 * resid / (sum_y + EPS_DEN)[:, None]
        # dc_n/dy_n(r) = (x(r) - c_n) / (sum y_n + EPS_DEN), applied per channel
        grad_y += _residual_sums(x, c, weights=coeff)
    return _chain_softmax(y, grad_y)


def fixed_point_step(x, seg, cfg, centroids=None):
    """One explicit step of the relaxed Euler-Lagrange fixed-point update.

    velocity_n = lambda * div(grad y_n / |grad y_n|)
                 + sum_i (-1)^{delta(n,i)} ||x - c_i||^2

    and y_n <- y_n + step_size * velocity_n. The returned memberships are NOT
    re-projected onto the simplex; callers must renormalize or prefer
    minimize_ms. Centroids default to soft_centroids of the current state but
    may be supplied explicitly.

    Returns (y_new, info) with info holding the per-term fields
    ("curvature_term", "data_term", "velocity").
    """
    x = as_image(x)
    y = seg.memberships
    if y.shape[1:] != x.shape[:2]:
        raise ValueError(f"segmentation {y.shape} does not match image {x.shape}")
    c = weighted_means(x, y) if centroids is None else np.asarray(centroids, dtype=np.float64)
    sq = sq_residual(x, c)
    # (-1)^{delta(n,i)}: -1 for the own class, +1 for every competitor
    competition = sq.sum(axis=0, keepdims=True) - 2.0 * sq
    # div(grad y_n / |grad y_n|) is the negative TV gradient
    curvature = -cfg.lambda_tv * np.stack([tv_smooth_grad(yn, cfg.tv_eps) for yn in y])
    velocity = curvature + competition
    info = {"curvature_term": curvature, "data_term": competition, "velocity": velocity}
    return y + cfg.step_size * velocity, info


def _first_extreme(planes, beats, keep):
    """(labels, extreme) over equal-shaped planes: per element, the index of
    the first plane that holds the extreme, and that value.

    A running extreme: a plane takes an element only where beats(plane, best)
    holds strictly, so a tie keeps the lower index, as np.argmax and np.argmin
    over axis 0 do. planes may be any iterable, also a generator that
    refills one buffer: only the running extreme is copied.
    """
    planes = iter(planes)
    best = np.array(next(planes))
    labels = np.zeros(best.shape, dtype=np.intp)
    wins = np.empty(best.shape, dtype=bool)
    for n, plane in enumerate(planes, 1):
        beats(plane, best, out=wins)
        keep(best, plane, out=best)
        np.copyto(labels, n, where=wins)
    return labels, best


def hard_mask(seg):
    """Per-pixel argmax over memberships; ties go to the lowest class index.

    A running first maximum over the classes (np.argmax(axis=0) would copy
    the whole stack first).
    """
    return _first_extreme(seg.memberships, np.greater, np.maximum)[0]


# Most Lloyd sweeps per k-means restart (a restart stops earlier at its fixed
# point), and seeded restarts per kmeans_labels call.
KMEANS_ITERS, KMEANS_RESTARTS = 20, 8


def _nearest(x, centers, plane):
    """Per pixel of x, the index of the nearest center, ties to the lowest.
    The distances are sq_residual's, taken one center at a time in plane, a
    (1, H, W) buffer."""
    dists = (_residual_sums(x, centers[n:n + 1], out=plane)[0] for n in range(len(centers)))
    return _first_extreme(dists, np.less, np.minimum)[0]


def _draw(d2, cdf, rng):
    """The index rng.choice(d2.size, p=d2 / d2.sum()) draws, by numpy's rule
    for it: the first i with cdf[i] / cdf[-1] > rng.random(), where cdf, formed
    in the buffer of that name, is the cumulative sum of p. A zero total draws
    uniformly; a non-finite one raises, as choice does on the NaNs it would
    be handed."""
    total = d2.sum()
    if not np.isfinite(total):
        raise ValueError("k-means++ seed distances have no finite total")
    if not total > 0:
        return rng.integers(d2.size)
    np.cumsum(np.divide(d2, total, out=cdf), out=cdf)
    last = cdf[-1]
    return bisect.bisect_right(cdf, rng.random(), key=lambda c: c / last)


def _kmeans_once(vals, counts, num_classes, rng, buf):
    # k-means++ seeding, then count-weighted Lloyd sweeps, over the P distinct
    # values as a (P, 1, C) image. A value is drawn with weight count * d^2 to
    # its nearest seed so far; the first by count alone, _draw's rule on the
    # counts' cdf in buf[3]. buf[:3] holds those weights, one seed's distances
    # and the draw's cdf. Returns the final centers and their weighted SSE.
    pts = vals[:, None, :]
    weights, dist, cdf, count_cdf = buf
    centers = np.empty((num_classes, vals.shape[1]))
    centers[0] = vals[bisect.bisect_right(count_cdf, rng.random(), key=lambda c: c / count_cdf[-1])]
    for k in range(1, num_classes):
        # count * min d^2, bit for bit, as the minimum of count * d^2: a
        # positive factor keeps the order of the rounded products
        d = weights if k == 1 else dist
        _residual_sums(pts, centers[k - 1:k], out=d[None, :, None])
        d *= counts
        if k > 1:
            np.minimum(weights, d, out=weights)
        centers[k] = vals[_draw(weights, cdf, rng)]
    # once an assignment repeats the last one, so would every later sweep's
    prev = None
    for sweep in range(KMEANS_ITERS + 1):
        labels, d_min = _first_extreme(sq_residual(pts, centers)[:, :, 0], np.less, np.minimum)
        if sweep == KMEANS_ITERS or np.array_equal(labels, prev):
            return centers, np.einsum("i,i->", counts, d_min)
        prev = labels
        del d_min  # freed before the update's gathers, not after the next sweep
        for k in range(num_classes):
            sel = labels == k
            if sel.any():
                # np.average(vals[sel], axis=0, weights=counts[sel]) without
                # its checks: the same products summed over axis 0, over the
                # total count (a sum of integers, exact in any order)
                w = counts[sel]
                centers[k] = (vals[sel] * w[:, None]).sum(axis=0) / w.sum()


def _distinct_rows(pts):
    """np.unique(pts, axis=0, return_counts=True) of a (P, C) array, through
    1-D uniques only (unique on rows sorts a void dtype).

    Each channel is ranked on its own and folded into an int64 key that orders
    the rows lexicographically; from the third channel on the key is re-ranked
    before each fold, so it stays below P times the channel's distinct values.
    """
    if pts.shape[1] == 1:
        vals, counts = np.unique(pts[:, 0], return_counts=True)
        return vals[:, None], counts
    key = np.zeros(len(pts), dtype=np.int64)
    for ch in range(pts.shape[1]):
        codes, rank = np.unique(pts[:, ch], return_inverse=True)
        if ch > 1:
            key = np.unique(key, return_inverse=True)[1]
        key = key * len(codes) + rank
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return pts[first], counts


def kmeans_labels(x, num_classes, seed):
    """Lloyd's algorithm on pixel values: the best of KMEANS_RESTARTS seeded
    restarts of at most KMEANS_ITERS sweeps each. A restart stops once an
    assignment repeats the previous one: its centers then repeat bit for bit.

    All but the labels works on the histogram (the distinct values and their
    pixel counts), so the result depends on it alone. Each restart draws its
    k-means++ seeds over the values, with the distribution of a draw over the
    pixels, runs count-weighted Lloyd sweeps over them and takes its
    within-cluster SSE from its last sweep; the labels equal those of the same
    algorithm run on every pixel (centers agree up to rounding). Returns
    (labels, centers) of the restart with the lowest SSE (the first wins a
    tie), the labels from one pass over the image, one center at a time;
    deterministic for a fixed seed. Empty clusters keep their previous center.
    """
    x = as_image(x)
    vals, counts = _distinct_rows(x.reshape(-1, x.shape[2]))
    counts = counts.astype(np.float64)
    rng = np.random.default_rng(seed)
    buf = np.empty((4, len(vals)))
    np.cumsum(np.divide(counts, counts.sum(), out=buf[3]), out=buf[3])  # as _draw forms it
    ends = [_kmeans_once(vals, counts, num_classes, rng, buf) for _ in range(KMEANS_RESTARTS)]
    best = min(ends, key=lambda end: end[1])[0]
    return _nearest(x, best, np.empty((1,) + x.shape[:2])), best


# Logit magnitude given to the assigned class by the k-means initializer.
KMEANS_LOGIT_GAP = 4.0


def init_logits(x, cfg, init="random"):
    """Initial logit stack: i.i.d. uniform in [-0.1, 0.1], or near-one-hot
    logits from kmeans_labels: KMEANS_LOGIT_GAP for the assigned class and 0
    for the others, each plane written once, with no temporary plane."""
    x = as_image(x)
    shape = (cfg.num_classes,) + x.shape[:2]
    if init == "random":
        rng = np.random.default_rng(cfg.seed)
        return rng.uniform(-0.1, 0.1, size=shape)
    if init == "kmeans":
        labels, _ = kmeans_labels(x, cfg.num_classes, cfg.seed)
        # z[n] = gap[n, labels]; mode "clip" (the labels are in range) lets
        # take write into z without buffering it
        gap = KMEANS_LOGIT_GAP * np.eye(cfg.num_classes)
        return np.take(gap, labels, axis=1, out=np.empty(shape), mode="clip")
    raise ValueError(f"unknown init {init!r}")


def iterate(step, terms, max_iters, rel_tol):
    """Call step() until a stopping rule fires; returns (trace, stop).

    trace is the array of terms and every row step() returned (loss first);
    step() returns None when it could not move. stop is "rel_tol" (relative
    loss change below rel_tol), "stalled" (None; no row added) or "max_iters".
    """
    trace = [terms]
    for _ in range(max_iters):
        row = step()
        if row is None:
            return np.array(trace), "stalled"
        prev = trace[-1][0]
        trace.append(row)
        if abs(prev - row[0]) < rel_tol * max(abs(prev), 1e-30):
            return np.array(trace), "rel_tol"
    return np.array(trace), "max_iters"


def _descend(state_eval, step0, loss_now):
    """Backtracking helper: returns (state, terms, exhausted, eta).

    state_eval(eta) evaluates the candidate at step eta against the full
    objective (centroids refreshed); the step is accepted when the loss does
    not increase, and eta is the step accepted. Halves the step from step0 up
    to 30 times, then reports exhaustion as (None, None, True, None).
    """
    eta = step0
    for _ in range(31):
        cand, terms = state_eval(eta)
        if terms[0] <= loss_now:
            return cand, terms, False, eta
        cand = None  # free the rejected trial before the next one is built
        eta *= 0.5
    return None, None, True, None


def _bb_step(s_s, s_dg, last):
    """Barzilai-Borwein step s.s / s.dg, or last when s.dg <= 0 or the ratio is
    not finite."""
    if s_dg > 0:
        step = s_s / s_dg
        if np.isfinite(step):
            return float(step)
    return last


def _dot(a, b):
    """a.b over all elements, by np.einsum, which rounds alike under any BLAS
    thread count (np.vdot, BLAS ddot, splits its sum across threads)."""
    return np.einsum("i,i->", a.reshape(-1), b.reshape(-1))


def block_descent(cfg, u, members, direction, evaluate, block=None, fixed_step=False, dot=_dot):
    """Block-coordinate descent on an objective over memberships
    y = members(u).

    Per iteration: a backtracked step u - eta * direction(u, y, c, g) (see
    _descend), then one of block, when given. A block whose backtracking
    exhausts is skipped; when every block does, the run stops as "stalled".
    Returns ((u, y, c), trace, stop), c the means.

    evaluate(y, g, terms) returns (c, terms') for memberships y: their means
    and the objective's terms (loss first); given g, it writes there the
    gradient the direction reads. terms are the current state's, whose parts
    a logit trial leaves unchanged (None at the start, whose evaluation
    builds g: one plane where u has fewer axes than y, else one per
    membership).

    members(u, d=None, eta=0.0, out=None) gives the memberships of u, or of
    the trial u - (d * eta), rounded as _step rounds it, into out. The trials
    write into the memberships' stack, which members(u) restores if the block
    exhausts; an accepted step moves u in place by _step(u, d, eta, u). The
    direction may overwrite g and returns a new array or g itself. Without
    block every trial builds g: where the direction read it, or, where the
    direction returned that array as d, into the array of d' once its dots
    are taken (a new one at the first step). block moves the means that g
    depends on, so with it the trials build none.

    block(state, terms, step0, memo) takes the state (u, y, c, g) and terms
    the logit step left, its first trial step and what it kept of its last
    accepted step, which the driver hands over without keeping. It returns
    (state, terms, eta, memo), with g built at the new means, or
    (state, None, None, None) when it exhausts.

    A block's first trial step is cfg.step_size at the start, after it
    exhausts and always under fixed_step (the level-set Euler step, whose
    direction is not the objective's gradient). Otherwise u's is the
    Barzilai-Borwein ratio eta ||d'||^2 / (||d'||^2 - d'.d), d' the direction
    u last moved along by eta, its dots taken by dot, or the last accepted
    step where the denominator is not positive or the ratio is not finite.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)

    def member_block(state, terms, step0, spare):
        u, y, c, g = state
        d = direction(u, y, c, g)
        if spare is not None:
            dd, dp = dot(spare, spare), dot(spare, d)
            step0 = _bb_step(step0 * dd, dd - dp, step0)
        if block is not None:
            g = None
        elif d is g:
            g = np.empty_like(d) if spare is None else spare
        del spare

        def trial(eta):
            c, terms_eta = evaluate(members(u, d, eta, y), g, terms)
            return (u, y, c, g), terms_eta

        cand, cand_terms, exhausted, eta = _descend(trial, step0, terms[0])
        if exhausted:  # y holds a trial's memberships
            return (u, members(u, out=y), c, None), None, None, None
        _step(u, d, eta, u)
        return cand, cand_terms, eta, d

    blocks = (member_block,) if block is None else (member_block, block)
    # per block: its last accepted step, and what its BB ratio keeps of that step
    steps, memos = [cfg.step_size] * len(blocks), {}
    y = members(u)
    g = np.empty_like(u if u.ndim < y.ndim else y)
    c, terms = evaluate(y, g, None)
    state = (u, y, c, g)
    del c, g  # the state holds them, and the blocks replace them

    def step():
        nonlocal state, terms
        moved = False
        for k, run in enumerate(blocks):
            state, cand_terms, eta, memo = run(state, terms, steps[k], memos.pop(k, None))
            if eta is None:
                steps[k] = cfg.step_size
            else:
                terms, moved = cand_terms, True
                if not fixed_step:
                    steps[k], memos[k] = eta, memo
        return terms if moved else None

    trace, stop = iterate(step, terms, cfg.max_iters, cfg.rel_tol)
    return state[:3], trace, stop


def _logit_difference(z):
    """u = z_1 - z_0 of a two-class logit stack: softmax(z) is
    two_class_memberships(u)."""
    return z[1] - z[0]


def _two_class_start(x, cfg, init):
    """_logit_difference(init_logits(x, cfg, init)) bit for bit. A k-means
    start takes u = +-KMEANS_LOGIT_GAP (gap - 0 and 0 - gap) straight from
    the labels, with no logit stack; any other init goes through init_logits,
    so a random start draws the same stream."""
    if init != "kmeans":
        return _logit_difference(init_logits(x, cfg, init))
    labels, _ = kmeans_labels(x, 2, cfg.seed)
    return np.take(np.array([-KMEANS_LOGIT_GAP, KMEANS_LOGIT_GAP]), labels)


def minimize_ms(x, cfg, init="random"):
    """Alternating minimization: refresh centroids, gradient-step the logits.

    Stops when the relative loss change drops below rel_tol or max_iters is
    reached. Every accepted step is non-increasing in the full objective;
    exhausted backtracking raises ConvergenceError with the Result attached.
    Returns a Result with trace rows (loss, data_term, tv_term), evaluated as
    ms_loss evaluates them, and the argmax of the memberships as labels.

    Two classes descend the one plane u = z_1 - z_0 from _two_class_start,
    with memberships two_class_memberships(u) = softmax((0, u)), the terms of
    two_class_energy and the direction dE/du = y_0 y_1 (g_1 - g_0), formed in
    place in its one gradient plane. A step of eta on (z_0, z_1) moves u by
    2 eta along dE/du, so the steps are twice cfg.step_size (the BB ratios
    are scale-free) and the run follows the two-plane descent up to rounding.
    The Result carries the logits (0, u) and their softmax, written over the
    descent's final memberships (the same bits), and labels y_1 > y_0.
    """
    x = as_image(x)
    cfg.validate()
    terms_of = two_class_energy if cfg.num_classes == 2 else energy

    def evaluate(y, g, _):
        c = weighted_means(x, y)
        return c, terms_of(x, y, c, cfg.lambda_tv, cfg.tv_eps, grad_out=g)

    # the initial arrays are passed inline so that no frame keeps them alive
    if cfg.num_classes == 2:
        (u, y, c), trace, stop = block_descent(
            replace(cfg, step_size=2.0 * cfg.step_size), _two_class_start(x, cfg, init),
            two_class_memberships, lambda u, y, c, g: _chain_two_class(x, y, c, g), evaluate)
        z = np.empty((2,) + u.shape)
        z[0], z[1] = 0.0, u
        del u
        # perfbench's tracer test expects this softmax call; y_1 > y_0 is
        # hard_mask's first maximum over two planes (a tie goes to class 0)
        seg = SoftSegmentation(logits=z, memberships=softmax(z, out=y))
        labels = np.greater(y[1], y[0]).astype(np.intp)
    else:
        (z, y, c), trace, stop = block_descent(
            cfg, init_logits(x, cfg, init), softmax, lambda z, y, c, g: _chain_softmax(y, g),
            evaluate)
        seg = SoftSegmentation(logits=z, memberships=y)
        labels = hard_mask(seg)
    result = Result(labels, c, trace, stop, seg)
    if stop == "stalled":
        raise ConvergenceError("backtracking exhausted in every block", result)
    return result
