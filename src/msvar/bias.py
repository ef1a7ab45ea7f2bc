"""Joint segmentation and multiplicative bias-field estimation.

Extends the relaxed piecewise-constant model to x(r) ~ b(r) * c_n inside
class n, where b is a channel-shared, slowly varying field kept smooth by
its own total-variation penalty:

    sum_n sum_r ||x(r) - b(r) c_n||^2 y_n(r)
        + lambda * sum_n TV(y_n) + gamma * TV(b)

Minimized by block-coordinate descent over (centroids, logits, b): the
softseg driver steps the logits, evaluating them at the current b, and the
bias block here steps b, clamped to [B_MIN, B_MAX]. The product b*c_n is
only determined up to a scale, so the result is gauge-fixed to mean(b) = 1.
"""

import numpy as np

from . import softseg
from .errors import ConvergenceError, check_number
from .grid import as_image, tv_smooth
from .softseg import (Result, SoftSegmentation, _bb_step, _chain_softmax, _descend,
                      _residual_sums, block_descent, energy, hard_mask, init_logits,
                      weighted_means)

# Not called here; bound only so that perfbench/tracing.py's per-module targets resolve.
from .grid import tv_smooth_grad  # noqa: F401

# b is clamped into this range after every update to rule out the degenerate
# zero-bias collapse.
B_MIN, B_MAX = 0.05, 20.0


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


def grad_b(x, y, b, c, tv_eps, gamma):
    """Gradient of the energy in b, memberships and class means frozen.

    d data / d b(r) = -2 sum_n y_n(r) sum_ch c_n,ch (x_ch(r) - b(r) c_n,ch),
    plus the TV-of-b adjoint weighted by gamma.
    """
    fit = _residual_sums(x, c, b, c)
    data_grad = np.sum(np.multiply(y, fit, out=fit), axis=0)
    del fit  # before the TV term's strip buffers
    data_grad *= -2.0
    if gamma != 0.0:
        tv_smooth(b, tv_eps, data_grad, gamma)
    return data_grad


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
    logits, backtracked gradient step on b (clamped to [B_MIN, B_MAX]), whose
    first trial step is the Barzilai-Borwein ratio db.db / db.dg of the last
    accepted change db in b and the change dg in the gradient in b across it.
    The dots of both blocks are np.vdot's (BLAS ddot), whose rounding follows
    the BLAS thread count. A block whose backtracking exhausts is skipped for
    that iteration; if every block stalls, ConvergenceError is raised with
    the Result reached. The gauge is fixed by rescaling to mean(b) = 1
    (centroids scaled inversely), on a stall too.

    Returns a Result with the bias field and trace rows
    (loss, data_term, tv_y_term, tv_b_term).
    """
    x = as_image(x)
    cfg.validate()
    check_number("gamma", gamma, positive=False)
    z = init_logits(x, cfg, init)  # before b, whose plane k-means' peak need not hold
    b = np.ones(x.shape[:2])

    def evaluate(y, g, terms):
        # a logit trial leaves b, and so gamma TV(b), as they are
        c = weighted_means(x, y, b)
        tv_b = None if terms is None else terms[3]
        return c, energy(x, y, c, cfg.lambda_tv, cfg.tv_eps, b, gamma, grad_out=g, tv_b=tv_b)

    def bias_block(state, terms, step0, memo):
        nonlocal b
        u, y, c, _ = state
        g = grad_b(x, y, b, c, cfg.tv_eps, gamma)
        if memo is not None:  # b and its gradient before the last accepted step
            db, dg = b - memo[0], g - memo[1]
            step0 = _bb_step(np.vdot(db, db), np.vdot(db, dg), step0)
            del db, dg
        del memo  # not kept through the trials

        def trial(eta):
            # a bias trial leaves y, and so lambda sum_n TV(y_n), as they are
            b_eta = np.clip(b - eta * g, B_MIN, B_MAX)
            c = weighted_means(x, y, b_eta)
            return (b_eta, c), energy(x, y, c, cfg.lambda_tv, cfg.tv_eps, b_eta, gamma, terms[2])

        cand, cand_terms, exhausted, eta = _descend(trial, step0, terms[0])
        memo = None
        if not exhausted:
            memo, (b, c) = (b, g), cand
        # the logit trials built no gradient in the memberships: built here, at
        # the means this block leaves, for the next logit direction
        g = np.empty_like(y)
        energy(x, y, c, cfg.lambda_tv, cfg.tv_eps, b, grad_out=g)
        return (u, y, c, g), cand_terms, eta, memo

    # softmax is softseg's binding, which perfbench/tracing.py wraps
    (z, y, c), trace, stop = block_descent(
        cfg, z, softseg.softmax, lambda z, y, c, g: _chain_softmax(y, g), evaluate, bias_block,
        dot=np.vdot)
    seg = SoftSegmentation(logits=z, memberships=y)
    scale = float(b.mean())
    result = Result(hard_mask(seg), c * scale, trace, stop, seg, b / scale)
    if stop == "stalled":
        raise ConvergenceError("backtracking exhausted in every block", result)
    return result
