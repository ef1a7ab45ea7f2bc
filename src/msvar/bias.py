"""Joint segmentation and multiplicative bias-field estimation.

Extends the relaxed piecewise-constant model to x(r) ~ b(r) * c_n inside
class n, where b is a channel-shared, slowly varying field kept smooth by
its own total-variation penalty:

    sum_n sum_r ||x(r) - b(r) c_n||^2 y_n(r)
        + lambda * sum_n TV(y_n) + gamma * TV(b)

Minimized by block-coordinate descent over (centroids, logits, b), the
softseg driver with its bias block switched on. The product b*c_n is only
determined up to a scale, so the result is gauge-fixed to mean(b) = 1 after
convergence.
"""

from dataclasses import replace

import numpy as np

from .errors import check_number
from .grid import as_image
from .softseg import _softmax_descent, energy, grad_b, weighted_means

# Not called here; bound only so that perfbench/tracing.py's per-module targets resolve.
from .grid import tv_smooth, tv_smooth_grad  # noqa: F401
from .softseg import _descend, init_logits  # noqa: F401


def bias_centroids(x, memberships, b):
    """Bias-weighted class means: c_n = sum(b x y_n) / (sum(b^2 y_n) + guard)."""
    return weighted_means(as_image(x), memberships, np.asarray(b, dtype=np.float64))


def bias_ms_loss(x, seg, b, cfg, gamma):
    """Bias-corrected loss; returns (loss, data_term, tv_y_term, tv_b_term).

    Centroids are recomputed internally via bias_centroids. With b identically
    1 this reduces to ms_loss (with tv_b_term = 0): exactly for three or more
    classes, and up to about one rounding in the TV term for two, where
    ms_loss takes it as two_class_tv's 2 lambda TV(y_1) and this sums
    lambda TV(y_n) over both planes.
    """
    x = as_image(x)
    y = seg.memberships
    b = np.asarray(b, dtype=np.float64)
    return energy(x, y, weighted_means(x, y, b), cfg.lambda_tv, cfg.tv_eps, b, gamma)


def bias_loss_grad_b(x, memberships, b, centroids, cfg, gamma):
    """Gradient of the bias-corrected loss in b, centroids and memberships frozen.

    d data / d b(r) = -2 sum_n y_n(r) sum_ch c_n,ch (x_ch(r) - b(r) c_n,ch),
    plus the TV-of-b adjoint weighted by gamma.
    """
    y = np.asarray(memberships, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return grad_b(as_image(x), y, b, np.asarray(centroids, dtype=np.float64), cfg.tv_eps, gamma)


def minimize_ms_bias(x, cfg, gamma, init="random"):
    """Block-coordinate descent over centroids, logits, and the bias field.

    Per iteration: refresh centroids, backtracked gradient step on the
    logits, backtracked gradient step on b (clamped to [0.05, 20]). A block
    whose backtracking exhausts is skipped for that iteration; if every block
    stalls, ConvergenceError is raised with the Result reached. After
    convergence the gauge is fixed by rescaling to mean(b) = 1 (centroids
    scaled inversely).

    Returns a Result with the bias field and trace rows
    (loss, data_term, tv_y_term, tv_b_term).
    """
    x = as_image(x)
    cfg.validate()
    check_number("gamma", gamma, positive=False)
    result = _softmax_descent(x, cfg, init, gamma)
    scale = float(result.bias.mean())
    return replace(result, bias=result.bias / scale, centroids=result.centroids * scale)
