"""Synthetic test images with known ground truth.

Three kinds:

* ``two-phase``   disk of intensity 0.8 on a 0.2 background,
* ``four-phase``  quadrant blocks at 0.2 / 0.4 / 0.6 / 0.8,
* ``ramp-bias``   the two-phase image multiplied by a horizontal linear
                  ramp running from 0.7 to 1.3 (the true bias field).

Gaussian noise with the given sigma is added, and values are clamped to
[0, 1]. Deterministic for a fixed (kind, size, sigma, seed).
"""

import numpy as np

from .errors import check_number

PHANTOM_KINDS = ("two-phase", "four-phase", "ramp-bias")


def make_phantom(kind, size, noise_sigma=0.0, seed=0):
    """Build a phantom image.

    Returns (image, labels, bias) where image is (size, size, 1) float64,
    labels is (size, size) int, and bias is the true ramp field for
    ``ramp-bias`` (None otherwise).
    """
    if kind not in PHANTOM_KINDS:
        raise ValueError(f"unknown phantom kind {kind!r}, expected one of {PHANTOM_KINDS}")
    if size < 16:
        raise ValueError(f"phantom size must be >= 16, got {size}")
    check_number("noise_sigma", noise_sigma, positive=False)

    ii, jj = np.mgrid[0:size, 0:size].astype(np.float64)
    bias = None

    if kind in ("two-phase", "ramp-bias"):
        center = (size - 1) / 2.0
        radius = size / 4.0
        disk = (ii - center) ** 2 + (jj - center) ** 2 <= radius**2
        clean = np.where(disk, 0.8, 0.2)
        labels = disk.astype(np.int64)
        if kind == "ramp-bias":
            bias = 0.7 + 0.6 * jj / (size - 1)
            clean = clean * bias
    else:  # four-phase
        half = size // 2
        labels = 2 * (ii >= half).astype(np.int64) + (jj >= half).astype(np.int64)
        levels = np.array([0.2, 0.4, 0.6, 0.8])
        clean = levels[labels]

    rng = np.random.default_rng(seed)
    noisy = clean + noise_sigma * rng.standard_normal(clean.shape)
    image = np.clip(noisy, 0.0, 1.0)[:, :, None]
    return image, labels, bias
