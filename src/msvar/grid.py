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
    np.subtract(f[:, 1:], f[:, :-1], out=gx[:, :-1])
    np.subtract(f[1:, :], f[:-1, :], out=gy[:-1, :])
    return gx, gy


def _tv_differences(f, eps):
    """Check eps and return the forward differences (gx, gy) of f, two fresh
    buffers the TV kernels then overwrite in place."""
    if eps <= 0:
        raise ValueError(f"tv smoothing eps must be positive, got {eps}")
    return grad_forward(f)


def tv_smooth(f, eps=1e-8):
    """Smoothed isotropic total variation of a scalar field.

    Returns sum_r sqrt(gx^2 + gy^2 + eps^2) - H*W*eps; the subtraction makes
    the value of a constant field exactly 0.
    """
    w, gy = _tv_differences(f, eps)
    w *= w
    w += np.multiply(gy, gy, out=gy)
    w += eps * eps
    np.sqrt(w, out=w)
    return float(np.sum(w) - w.size * eps)


def tv_smooth_grad(f, eps=1e-8):
    """Exact gradient of tv_smooth with respect to the field values.

    Divergence-form adjoint of the forward-difference stencil:
    grad = -div(gx/w, gy/w) with w = sqrt(gx^2 + gy^2 + eps^2) and the
    backward-difference divergence div(q)(i, j) = qx(i, j) - qx(i, j-1)
    + qy(i, j) - qy(i-1, j), out-of-range terms taken as 0.
    """
    gx, gy = _tv_differences(f, eps)
    out = np.multiply(gy, gy)  # the returned buffer; holds gy^2 until w is formed
    w = np.multiply(gx, gx)
    w += out
    w += eps * eps
    np.sqrt(w, out=w)
    gx /= w
    gy /= w
    out[...] = gx
    out[:, 1:] -= gx[:, :-1]
    out += gy
    out[1:, :] -= gy[:-1, :]
    return np.negative(out, out=out)
