"""Standalone per-call timings of msvar's public kernels at a workload's shapes.

Bytes moved are computed, not measured: the sizes of the array arguments
read plus the arrays returned, each counted once. Cache misses and
temporaries are not in that figure.
"""

import dataclasses
import importlib
import statistics
import time

import numpy as np

# Each kernel is timed for at least this long (and at least once).
MIN_SECONDS = 0.1
MAX_CALLS = 50

# (metric stem, module, attribute)
KERNELS = (
    ("softmax", "msvar.softseg", "softmax"),
    ("soft_centroids", "msvar.softseg", "soft_centroids"),
    ("ms_loss", "msvar.softseg", "ms_loss"),
    ("ms_loss_grad", "msvar.softseg", "ms_loss_grad"),
    ("tv_smooth", "msvar.grid", "tv_smooth"),
    ("tv_smooth_grad", "msvar.grid", "tv_smooth_grad"),
    ("bias_ms_loss", "msvar.bias", "bias_ms_loss"),
    ("bias_loss_grad_b", "msvar.bias", "bias_loss_grad_b"),
    ("evolve_step", "msvar.levelset", "evolve_step"),
    ("levelset_energy", "msvar.levelset", "levelset_energy"),
    ("kmeans_labels", "msvar.softseg", "kmeans_labels"),
    ("combined_loss", "msvar.supervision", "combined_loss"),
    ("clustering_metrics", "msvar.metrics", "clustering_metrics"),
)


def _arguments(image, labels, num_classes, tv_eps, gamma):
    """Arguments of each kernel at the workload's image size and class count."""
    from msvar.levelset import initial_state
    from msvar.softseg import MsConfig, SoftSegmentation, soft_centroids
    from msvar.supervision import CombinedLossConfig

    x = image[:, :, None]
    rng = np.random.default_rng(0)
    z = rng.uniform(-2.0, 2.0, (num_classes,) + image.shape)
    seg = SoftSegmentation.from_logits(z)
    y = seg.memberships
    c = soft_centroids(x, y)
    b = np.broadcast_to(np.linspace(0.7, 1.3, image.shape[1]), image.shape).copy()
    cfg = MsConfig(num_classes=num_classes, tv_eps=tv_eps)
    # 2 or 4 classes are 1 or 2 level functions; dt * lambda stays within 0.25
    state = initial_state(image.shape, 2 if num_classes == 4 else 1, dt=2.0, lambda_tv=1e-2)
    mask = np.argmax(y, axis=0)
    return {
        "softmax": (z,),
        "soft_centroids": (x, y),
        "ms_loss": (x, seg, cfg),
        "ms_loss_grad": (x, seg, cfg),
        "tv_smooth": (y[0], tv_eps),
        "tv_smooth_grad": (y[0], tv_eps),
        "bias_ms_loss": (x, seg, b, cfg, gamma),
        "bias_loss_grad_b": (x, y, b, c, cfg, gamma),
        "evolve_step": (x, state),
        "levelset_energy": (x, state),
        "kmeans_labels": (x, num_classes, 0),
        "combined_loss": (x, seg, labels, CombinedLossConfig(ms=cfg)),
        "clustering_metrics": (mask, labels),
    }


def array_bytes(obj):
    """Total nbytes of the arrays in obj, looking into tuples and dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(array_bytes(o) for o in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def time_kernels(image, labels, num_classes, tv_eps, gamma):
    """{metric: value} with kernel.<name>_ms (median per call) and kernel.<name>_mib,
    and the list of kernels that no longer exist (reported as 0)."""
    args = _arguments(image, labels, num_classes, tv_eps, gamma)
    metrics, missing = {}, []
    for stem, module_name, attr in KERNELS:
        try:
            fn = getattr(importlib.import_module(module_name), attr, None)
        except ImportError:
            fn = None
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            metrics[f"kernel.{stem}_ms"] = metrics[f"kernel.{stem}_mib"] = 0.0
            continue
        times = []
        start = time.perf_counter()
        while len(times) < MAX_CALLS and (not times or time.perf_counter() - start < MIN_SECONDS):
            t0 = time.perf_counter()
            out = fn(*args[stem])
            times.append(time.perf_counter() - t0)
        if len(times) >= 3:
            times = times[1:]  # the first call warms up
        metrics[f"kernel.{stem}_ms"] = statistics.median(times) * 1e3
        metrics[f"kernel.{stem}_mib"] = (array_bytes(args[stem]) + array_bytes(out)) / 2**20
    return metrics, missing
