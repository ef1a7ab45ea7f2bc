"""Seeded phantoms with ground truth, and 8-bit PGM I/O.

Written independently of msvar, so that the output checks compare the
program against inputs and formulas it did not produce itself.

* ``two-phase``   disk of 0.8 on a 0.2 background,
* ``four-phase``  quadrant blocks at 0.2 / 0.4 / 0.6 / 0.8,
* ``ramp-bias``   the two-phase image times a horizontal ramp 0.7 -> 1.3.

Gaussian noise of the given sigma is added and the result clamped to
[0, 1]; the image the program sees is that value quantised to 8 bits.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Phantom:
    image: np.ndarray        # (H, W) float64, exactly the PGM values / 255
    labels: np.ndarray       # (H, W) int64 ground truth
    bias: np.ndarray | None  # (H, W) true multiplicative field, ramp-bias only


def make(kind, size, sigma, seed):
    """Build a phantom; the same (kind, size, sigma, seed) gives the same bytes."""
    ii, jj = np.mgrid[0:size, 0:size].astype(np.float64)
    bias = None
    if kind in ("two-phase", "ramp-bias"):
        centre = (size - 1) / 2.0
        labels = ((ii - centre) ** 2 + (jj - centre) ** 2 <= (size / 4.0) ** 2).astype(np.int64)
        clean = np.where(labels == 1, 0.8, 0.2)
        if kind == "ramp-bias":
            bias = 0.7 + 0.6 * jj / (size - 1)
            clean = clean * bias
    elif kind == "four-phase":
        half = size // 2
        labels = 2 * (ii >= half).astype(np.int64) + (jj >= half).astype(np.int64)
        clean = np.array([0.2, 0.4, 0.6, 0.8])[labels]
    else:
        raise ValueError(f"unknown phantom kind {kind!r}")
    noisy = clean + sigma * np.random.default_rng(seed).standard_normal(clean.shape)
    quantised = np.rint(np.clip(noisy, 0.0, 1.0) * 255.0)
    return Phantom(image=quantised / 255.0, labels=labels, bias=bias)


def write_pgm(path, values):
    """Write an (H, W) array of integers 0..255 as binary P5."""
    values = np.asarray(values)
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(values.astype(np.uint8).tobytes())


def read_pgm(path):
    """Read a binary P5 file with a plain 'P5 W H 255' header as an int64 array."""
    data = Path(path).read_bytes()
    fields = data.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit P5 file")
    w, h = int(fields[1]), int(fields[2])
    raster = data[len(data) - w * h:]
    if len(raster) != w * h:
        raise ValueError(f"{path}: raster truncated")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).astype(np.int64)


def write_inputs(phantom, directory):
    """Write image.pgm, gt.pgm and, for ramp-bias, bias_true.bin into directory."""
    write_pgm(directory / "image.pgm", np.rint(phantom.image * 255.0))
    write_pgm(directory / "gt.pgm", phantom.labels)
    if phantom.bias is not None:
        np.asarray(phantom.bias, dtype="<f8").tofile(directory / "bias_true.bin")
