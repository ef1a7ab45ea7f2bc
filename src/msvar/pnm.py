"""Binary PGM/PPM image I/O and raw sidecar formats.

Images travel as 8-bit P5 (1 channel) or P6 (3 channels) with maxval 255,
mapped linearly to/from [0, 1]. Label maps reuse P5 with the class index
stored directly as the gray level (ignore index 255, no scaling). Bias
fields round-trip exactly through a flat little-endian float64 sidecar.
"""

import numpy as np


def _read_header(data):
    """Parse a PNM header, returning (magic, width, height, maxval, offset)."""
    # Tokens are separated by whitespace; '#' starts a comment to end of line.
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise ValueError("truncated PNM header")
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    # Exactly one whitespace byte separates maxval from the raster.
    pos += 1
    magic = tokens[0].decode("ascii")
    width, height, maxval = (int(t) for t in tokens[1:4])
    if magic not in ("P5", "P6"):
        raise ValueError(f"unsupported PNM magic {magic!r}")
    if width <= 0 or height <= 0:
        raise ValueError(f"PNM size must be positive, got {width}x{height}")
    if not (0 < maxval <= 255):
        raise ValueError(f"only 8-bit PNM supported, got maxval {maxval}")
    return magic, width, height, maxval, pos


def _read_raster(path):
    with open(path, "rb") as fh:
        data = fh.read()
    magic, width, height, maxval, offset = _read_header(data)
    channels = 3 if magic == "P6" else 1
    count = width * height * channels
    if len(data) - offset < count:
        raise ValueError(f"PNM raster truncated in {path}")
    raster = np.frombuffer(data, dtype=np.uint8, count=count, offset=offset)
    if raster.max() > maxval:
        raise ValueError(f"PNM sample {raster.max()} above maxval {maxval} in {path}")
    return raster.reshape(height, width, channels), maxval


def load_image(path):
    """Load a P5/P6 file as a float64 (H, W, C) image in [0, 1]."""
    raster, maxval = _read_raster(path)
    return raster.astype(np.float64) / maxval


def save_image(path, image):
    """Write an (H, W, 1) image as P5 or (H, W, 3) as P6, maxval 255."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        image = image[:, :, None]
    if image.ndim != 3 or image.shape[2] not in (1, 3):
        raise ValueError(f"expected (H, W, 1) or (H, W, 3) image, got {image.shape}")
    h, w, c = image.shape
    raster = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    magic = b"P6" if c == 3 else b"P5"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(raster.tobytes())


def load_labelmap(path):
    """Load a P5 file as an (H, W) int label map (gray level = class index),
    in the raster's one-byte integers (uint8)."""
    raster, _ = _read_raster(path)
    if raster.shape[2] != 1:
        raise ValueError("label maps must be single channel (P5)")
    return raster[:, :, 0].copy()  # a writable array, not a view of the file's bytes


def save_labelmap(path, labels):
    """Write an (H, W) int label map as P5 with the index as gray level."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"label map must be 2-D, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("label indices must lie in [0, 255] for PGM export")
    h, w = labels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(labels.astype(np.uint8).tobytes())


def save_field_pgm(path, field):
    """Write a scalar field as P5 after an affine min-max rescale to 0..255."""
    field = np.asarray(field, dtype=np.float64)
    lo, hi = field.min(), field.max()
    scaled = np.zeros_like(field) if hi == lo else (field - lo) / (hi - lo)
    save_image(path, scaled[:, :, None])


def save_field_bin(path, field):
    """Write a scalar field as flat little-endian float64, row-major."""
    np.asarray(field, dtype="<f8").tofile(path)


def load_field_bin(path, height, width):
    """Read a scalar field written by save_field_bin."""
    values = np.fromfile(path, dtype="<f8")
    if values.size != height * width:
        raise ValueError(f"expected {height * width} values in {path}, got {values.size}")
    return values.reshape(height, width)
