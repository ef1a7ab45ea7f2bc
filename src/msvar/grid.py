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


# Elements per row strip (whole rows, at least one) of the two strip-mined
# kernels, the TV stencil here and levelset.curvature_central; three strip
# buffers take 384 KiB and stay in a 2 MiB L2 cache. Measured on the flat
# kernels with the square-root curvature denominator (2-vCPU Xeon KVM guest,
# 1 thread, median of 9 interleaved rounds, two runs), against 16384: at 8192
# the curvature spends 3-22 % more per call and TV with its gradient 4-16 %
# more, at each of 128^2, 256^2 and 1024^2; at 32768 they move by -4..+4 %
# and -7..+9 %, and the traced peak of minimize_ms on a 256^2 PGM-quantised
# two-phase image rises from 4.4 to 4.8 (N, H, W) stacks. Each run first
# frees an 8 MiB block, as a solve frees its planes, so that glibc serves the
# strip buffers from its heap; without it, a buffer of 128 KiB or more is
# mapped afresh on every call (163 page faults per curvature call at 128^2).
STRIP = 16384


def strip_rows(w):
    """Rows per strip of a field w columns wide: STRIP elements, at least one row."""
    return max(1, STRIP // max(w, 1))


def _forward_x(flat, out):
    """gx of a strip into its (r, w) buffer out, from the strip's flattened rows.

    One pass of flat[1:] - flat[:-1]; the row wraps it also takes land in
    out's last column, which is then set to 0 (the replicate boundary).
    """
    np.subtract(flat[1:], flat[:-1], out=out.reshape(-1)[:-1])
    out[:, -1:] = 0.0


@np.errstate(over="ignore", invalid="ignore")  # a bad field is reported by the check at the end
def tv_smooth(f, eps=1e-8, grad_out=None, scale=1.0):
    """Smoothed isotropic total variation of a scalar field.

    Returns sum_r sqrt(gx^2 + gy^2 + eps^2) - H*W*eps; the subtraction makes
    the value of a constant field 0 up to rounding. Given an (H, W) grad_out,
    it also adds scale * tv_smooth_grad(f, eps) into it, from the same
    differences.

    The field is processed in row strips of about STRIP elements, so every
    temporary is strip-sized; the divergence of a strip's first row takes
    the last row of the strip above (a one-row halo). Each x-difference is
    one 1-D pass over the strip's flattened rows: gx is flat[1:] - flat[:-1],
    whose row wraps (a row's last value to the next row's first) land in the
    last column and are zeroed before use, and the divergence's x-part is
    qx.flat[1:] - qx.flat[:-1], exact at a row's first column because it
    subtracts that zeroed column (x - 0 = x). Every valid element sees the
    operands of the 2-D stencil in the same order, so the strip length and
    the flattening do not show in the result.

    Raises ValueError when the total is not finite: on an inf or nan value
    (every pixel of a field of two or more enters a difference; a lone pixel
    is checked itself), and on a huge finite field whose differences or their
    squares overflow. grad_out may then hold part of the gradient.
    """
    if eps <= 0:
        raise ValueError(f"tv smoothing eps must be positive, got {eps}")
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"scalar field must be 2-D, got shape {f.shape}")
    h, w = f.shape
    rows = strip_rows(w)
    gx = np.empty((min(rows, h), w))
    gy, mag = np.empty_like(gx), np.empty_like(gx)
    halo = np.zeros(w)  # qy of the row above the strip
    total = 0.0
    for i0 in range(0, h, rows):
        i1 = min(i0 + rows, h)
        sx, sy, m = gx[: i1 - i0], gy[: i1 - i0], mag[: i1 - i0]
        flat = f[i0:i1].reshape(-1)  # a strip-sized copy only if f's rows are not contiguous
        # forward differences, 0 in the last column and in the field's last row
        _forward_x(flat, sx)
        inner = min(i1, h - 1) - i0
        np.subtract(f[i0 + 1 : i1 + 1], f[i0 : i0 + inner], out=sy[:inner])
        if i1 == h:
            sy[inner:] = 0.0
        np.multiply(sy, sy, out=m)
        sx *= sx
        m += sx  # gy^2 + gx^2 rounds exactly as gx^2 + gy^2
        m += eps * eps
        total += float(np.sqrt(m, out=m).sum())
        if grad_out is None:
            continue
        # grad = -div(gx/w, gy/w) with w the smoothed magnitude and div the
        # backward-difference divergence, out-of-range terms taken as 0;
        # gx is taken again (sx holds its square) and -div is formed in m
        _forward_x(flat, sx)
        sx /= m
        sy /= m
        qx, mx = sx.reshape(-1), m.reshape(-1)
        mx[:1] = qx[:1]
        np.subtract(qx[1:], qx[:-1], out=mx[1:])
        m += sy
        m[1:] -= sy[:-1]
        m[0] -= halo
        halo[...] = sy[-1]
        m *= -scale
        grad_out[i0:i1] += m
    if not np.isfinite(total) or (f.size == 1 and not np.isfinite(f[0, 0])):
        raise ValueError("scalar field contains non-finite values, or its differences overflow")
    return total - h * w * eps


def tv_smooth_grad(f, eps=1e-8):
    """Exact gradient of tv_smooth with respect to the field values.

    Divergence-form adjoint of the forward-difference stencil:
    grad = -div(gx/w, gy/w) with w = sqrt(gx^2 + gy^2 + eps^2) and the
    backward-difference divergence div(q)(i, j) = qx(i, j) - qx(i, j-1)
    + qy(i, j) - qy(i-1, j), out-of-range terms taken as 0.
    """
    out = np.zeros(np.shape(f))
    tv_smooth(f, eps, grad_out=out)
    return out
