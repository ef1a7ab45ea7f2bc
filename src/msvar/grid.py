"""Regular-grid fields, finite differences, and smoothed total variation.

Conventions used everywhere in this package:

* a scalar field is a float64 array of shape (H, W),
* an image is a float64 array of shape (H, W, C) with C >= 1,
* grid spacing is 1, so integrals over the domain are plain pixel sums,
* gradients are forward differences with replicate (Neumann) boundary,
  i.e. the difference in the last row/column is 0.
"""

import numpy as np

# Denominator guard for membership-weighted means (empty-class safety).
EPS_DEN = 1e-8


def as_field(f):
    """Validate and return a scalar field as a float64 (H, W) array."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"scalar field must be 2-D, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("scalar field contains non-finite values")
    return f


def as_image(x):
    """Validate an image, promoting (H, W) to a single channel (H, W, 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    if x.ndim != 3 or x.shape[0] < 1 or x.shape[1] < 1 or x.shape[2] < 1:
        raise ValueError(f"image must have shape (H, W, C), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("image contains non-finite values")
    return x


def grad_forward(f):
    """Forward-difference gradient (gx, gy) of a scalar field.

    gx(i, j) = f(i, j+1) - f(i, j) with gx = 0 in the last column; gy is the
    analogous row difference with gy = 0 in the last row.
    """
    f = as_field(f)
    gx = np.zeros_like(f)
    gy = np.zeros_like(f)
    gx[:, :-1] = f[:, 1:] - f[:, :-1]
    gy[:-1, :] = f[1:, :] - f[:-1, :]
    return gx, gy


def div_backward(qx, qy):
    """Backward-difference divergence, the negative adjoint of grad_forward.

    div(q)(i, j) = qx(i, j) - qx(i, j-1) + qy(i, j) - qy(i-1, j), with the
    out-of-range terms taken as 0.
    """
    div = np.array(qx, dtype=np.float64, copy=True)
    div[:, 1:] -= qx[:, :-1]
    div += qy
    div[1:, :] -= qy[:-1, :]
    return div


def _tv_pointwise(f, eps):
    """Forward differences (gx, gy) of f and w = sqrt(gx^2 + gy^2 + eps^2)."""
    if eps <= 0:
        raise ValueError(f"tv smoothing eps must be positive, got {eps}")
    gx, gy = grad_forward(f)
    return gx, gy, np.sqrt(gx * gx + gy * gy + eps * eps)


def tv_smooth(f, eps=1e-8):
    """Smoothed isotropic total variation of a scalar field.

    Returns sum_r sqrt(gx^2 + gy^2 + eps^2) - H*W*eps; the subtraction makes
    the value of a constant field exactly 0.
    """
    w = _tv_pointwise(f, eps)[2]
    return float(np.sum(w) - w.size * eps)


def tv_smooth_grad(f, eps=1e-8):
    """Exact gradient of tv_smooth with respect to the field values.

    Divergence-form adjoint of the forward-difference stencil:
    grad = -div(gx/w, gy/w) with w = sqrt(gx^2 + gy^2 + eps^2).
    """
    gx, gy, w = _tv_pointwise(f, eps)
    return -div_backward(gx / w, gy / w)
