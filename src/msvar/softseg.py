"""Piecewise-constant segmentation by direct minimization over per-pixel logits.

The discrete labeling is relaxed through a softmax: memberships y_n are the
softmax of logit fields z_n, which keeps the partition-of-unity constraint
satisfied by construction. The objective is

    sum_n sum_r ||x(r) - c_n||^2 y_n(r)  +  lambda * sum_n TV(y_n)

with c_n the membership-weighted class means, minimized by alternating
centroid refreshes with gradient steps on the logits.

The bias and level-set solvers minimise the same energy (fit b(r) c_n,
Heaviside memberships); it and the one iteration driver, iterate, live here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .grid import EPS_DEN, as_image, tv_smooth, tv_smooth_grad

# b is clamped into this range after every update to rule out the degenerate
# zero-bias collapse.
B_MIN, B_MAX = 0.05, 20.0


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
        if self.lambda_tv < 0:
            raise ValueError(f"lambda_tv must be >= 0, got {self.lambda_tv}")
        if self.step_size <= 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.tv_eps <= 0:
            raise ValueError(f"tv_eps must be > 0, got {self.tv_eps}")


def softmax(logits):
    """Per-pixel softmax over the class axis of an (N, H, W) logit stack.

    Computed with max-subtraction so large logits cannot overflow.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 3 or z.shape[0] < 2:
        raise ValueError(f"expected (N, H, W) logits with N >= 2, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits contain non-finite values")
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


@dataclass(frozen=True)
class SoftSegmentation:
    """Logit fields plus the memberships derived from them.

    Memberships are always the softmax of the logits; build instances through
    from_logits so the two can never drift apart.
    """

    logits: np.ndarray       # (N, H, W)
    memberships: np.ndarray  # (N, H, W), rows sum to 1 per pixel

    @classmethod
    def from_logits(cls, logits):
        y = softmax(logits)
        return cls(logits=np.asarray(logits, dtype=np.float64), memberships=y)

    @property
    def num_classes(self):
        return self.logits.shape[0]


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


def residual(x, c, b=None):
    """Fit residual x(r) - b(r) c_n per channel, shape (N, H, W, C); b = None is b = 1."""
    fitted = c[:, None, None, :] if b is None else b[None, :, :, None] * c[:, None, None, :]
    return x[None, :, :, :] - fitted


def sq_residual(x, c, b=None):
    """||x(r) - b(r) c_n||^2 summed over channels, shape (N, H, W)."""
    diff = residual(x, c, b)
    return np.einsum("nijc,nijc->nij", diff, diff)


def energy(x, y, c, lambda_tv, tv_eps, b=None, gamma=0.0):
    """sum_n sum_r ||x - b c_n||^2 y_n + lambda_tv sum_n TV(y_n) [+ gamma TV(b)]
    as (loss, data, tv_y), with tv_b appended when b is given."""
    data = float(np.sum(sq_residual(x, c, b) * y))
    tv_y = lambda_tv * sum(tv_smooth(y[n], tv_eps) for n in range(y.shape[0]))
    if b is None:
        return data + tv_y, data, tv_y
    tv_b = gamma * tv_smooth(b, tv_eps)
    return data + tv_y + tv_b, data, tv_y, tv_b


def ms_loss(x, seg, cfg):
    """Relaxed piecewise-constant loss; returns (loss, data_term, tv_term).

    Centroids are recomputed internally from the current memberships.
    """
    x = as_image(x)
    y = seg.memberships
    return energy(x, y, weighted_means(x, y), cfg.lambda_tv, cfg.tv_eps)


def _chain_softmax(y, grad_y):
    """Pull a gradient w.r.t. memberships back through the softmax Jacobian."""
    inner = np.sum(grad_y * y, axis=0, keepdims=True)
    return y * (grad_y - inner)


def _tv_grads(y, tv_eps):
    """Per-class gradient of TV(y_n), shape (N, H, W)."""
    return np.stack([tv_smooth_grad(y[n], tv_eps) for n in range(y.shape[0])])


def grad_memberships(x, y, c, cfg, b=None):
    """Gradient of the energy in the memberships, class means (and b) frozen."""
    g = sq_residual(x, c, b)
    if cfg.lambda_tv != 0.0:
        g = g + cfg.lambda_tv * _tv_grads(y, cfg.tv_eps)
    return g


def grad_b(x, y, b, c, tv_eps, gamma):
    """Gradient of the energy in b, memberships and class means frozen.

    d data / d b(r) = -2 sum_n y_n(r) sum_ch c_n,ch (x_ch(r) - b(r) c_n,ch),
    plus the TV-of-b adjoint weighted by gamma.
    """
    data_grad = -2.0 * np.sum(y * np.einsum("nc,nijc->nij", c, residual(x, c, b)), axis=0)
    return data_grad + gamma * tv_smooth_grad(b, tv_eps)


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
    grad_y = grad_memberships(x, y, c, cfg)
    if mode == "full":
        # d data / d c_n = -2 sum_r (x - c_n) y_n, nonzero only through the
        # EPS_DEN guard since c_n is the exact weighted mean otherwise.
        sum_y = y.sum(axis=(1, 2))
        resid = np.tensordot(y, x, axes=([1, 2], [0, 1])) - c * sum_y[:, None]  # (N, C)
        coeff = -2.0 * resid / (sum_y + EPS_DEN)[:, None]
        # dc_n/dy_n(r) = (x(r) - c_n) / (sum y_n + EPS_DEN), applied per channel
        grad_y = grad_y + np.einsum("nc,nijc->nij", coeff, residual(x, c))
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
    curvature = -cfg.lambda_tv * _tv_grads(y, cfg.tv_eps)
    velocity = curvature + competition
    info = {"curvature_term": curvature, "data_term": competition, "velocity": velocity}
    return y + cfg.step_size * velocity, info


def hard_mask(seg):
    """Per-pixel argmax over memberships; ties go to the lowest class index."""
    return np.argmax(seg.memberships, axis=0)


def _kmeans_once(vals, weights, inverse, num_classes, rng, iters):
    # k-means++ style seeding over pixels (the same draws as a per-pixel k-means),
    # then count-weighted Lloyd iterations over the distinct values
    centers = np.empty((num_classes, vals.shape[1]))
    centers[0] = vals[inverse[rng.integers(len(inverse))]]
    d2 = np.sum((vals - centers[0]) ** 2, axis=1)
    for k in range(1, num_classes):
        d2_pix = d2[inverse]
        total = d2_pix.sum()
        if total > 0:
            idx = rng.choice(len(inverse), p=d2_pix / total)
        else:
            idx = rng.integers(len(inverse))
        centers[k] = vals[inverse[idx]]
        d2 = np.minimum(d2, np.sum((vals - centers[k]) ** 2, axis=1))
    for _ in range(iters):
        dists = ((vals[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(dists, axis=1)
        for k in range(num_classes):
            sel = labels == k
            if sel.any():
                centers[k] = np.average(vals[sel], axis=0, weights=weights[sel])
    dists = ((vals[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(dists, axis=1)
    # pixel-level SSE, summed in pixel order, so restart ties resolve as per pixel
    sse = float(dists.min(axis=1)[inverse].sum())
    return labels, centers, sse


def kmeans_labels(x, num_classes, seed, iters=20, restarts=8):
    """Lloyd's algorithm on pixel values, best of several seeded restarts.

    Clusters the distinct values weighted by their pixel counts, which gives
    the labels of the same algorithm run on every pixel (centers agree up to
    rounding). Returns (labels, centers) of the restart with the lowest
    within-cluster SSE; deterministic for a fixed seed. Empty clusters keep
    their previous center.
    """
    x = as_image(x)
    pts = x.reshape(-1, x.shape[2])
    # one channel is uniqued as a 1-D float array: on (P, 1) rows unique sorts a void dtype
    flat = pts[:, 0] if pts.shape[1] == 1 else pts
    vals, inverse, counts = np.unique(flat, axis=0, return_inverse=True, return_counts=True)
    vals, inverse = vals.reshape(len(counts), -1), inverse.reshape(-1)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        labels, centers, sse = _kmeans_once(vals, counts, inverse, num_classes, rng, iters)
        if best is None or sse < best[2]:
            best = (labels, centers, sse)
    return best[0][inverse].reshape(x.shape[:2]), best[1]


# Logit magnitude given to the assigned class by the k-means initializer.
KMEANS_LOGIT_GAP = 4.0


def init_logits(x, cfg, init="random"):
    """Initial logit stack: i.i.d. uniform in [-0.1, 0.1], or near-one-hot
    logits from a seeded k-means on the pixel values."""
    x = as_image(x)
    shape = (cfg.num_classes,) + x.shape[:2]
    if init == "random":
        rng = np.random.default_rng(cfg.seed)
        return rng.uniform(-0.1, 0.1, size=shape)
    if init == "kmeans":
        labels, _ = kmeans_labels(x, cfg.num_classes, cfg.seed)
        z = np.zeros(shape)
        for n in range(cfg.num_classes):
            z[n][labels == n] = KMEANS_LOGIT_GAP
        return z
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
    """Backtracking helper: returns (state, terms, exhausted).

    state_eval(eta) evaluates the candidate at step eta against the full
    objective (centroids refreshed); the step is accepted when the loss does
    not increase. Halves the step up to 30 times, then reports exhaustion.
    """
    eta = step0
    for _ in range(31):
        cand, terms = state_eval(eta)
        if terms[0] <= loss_now:
            return cand, terms, False
        eta *= 0.5
    return None, None, True


def block_descent(x, cfg, z, b=None, gamma=0.0):
    """Block-coordinate descent on the energy from logits z (and bias field b).

    Per iteration: a backtracked step on the logits, then, exactly when b is
    given, one on b clamped to [B_MIN, B_MAX] (see _descend). A block whose
    backtracking exhausts is skipped; when every block does, the run stops as
    "stalled". Returns (seg, c, b, trace, stop), stop as from iterate.
    """

    def evaluate(z, b):
        seg = SoftSegmentation.from_logits(z)
        c = weighted_means(x, seg.memberships, b)
        return (seg, c, b), energy(x, seg.memberships, c, cfg.lambda_tv, cfg.tv_eps, b, gamma)

    def logit_block(seg, c, b):
        g = _chain_softmax(seg.memberships, grad_memberships(x, seg.memberships, c, cfg, b))
        return lambda eta: evaluate(seg.logits - eta * g, b)

    def bias_block(seg, c, b):
        g = grad_b(x, seg.memberships, b, c, cfg.tv_eps, gamma)
        return lambda eta: evaluate(seg.logits, np.clip(b - eta * g, B_MIN, B_MAX))

    blocks = (logit_block,) if b is None else (logit_block, bias_block)
    state, terms = evaluate(z, b)
    del z, b  # state holds the current arrays; let the initial ones be freed

    def step():
        nonlocal state, terms
        moved = False
        for block in blocks:
            cand, cand_terms, exhausted = _descend(block(*state), cfg.step_size, terms[0])
            if not exhausted:
                state, terms, moved = cand, cand_terms, True
        return terms if moved else None

    trace, stop = iterate(step, terms, cfg.max_iters, cfg.rel_tol)
    seg, c, b = state
    return seg, c, b, trace, stop


def minimize_ms(x, cfg, init="random"):
    """Alternating minimization: refresh centroids, gradient-step the logits.

    Stops when the relative loss change drops below rel_tol or max_iters is
    reached. Every accepted step is non-increasing in the full objective;
    exhausted backtracking raises ConvergenceError (trace attached). Returns
    (seg, centroids, trace) with trace rows (loss, data_term, tv_term).
    """
    x = as_image(x)
    cfg.validate()
    seg, c, _, trace, stop = block_descent(x, cfg, init_logits(x, cfg, init))
    if stop == "stalled":
        raise ConvergenceError(
            "backtracking exhausted without a non-increasing step", trace=trace, result=(seg, c)
        )
    return seg, c, trace
