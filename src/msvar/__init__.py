"""Variational image segmentation on regular grids.

Softmax-relaxed piecewise-constant (Mumford-Shah style) minimization over
per-pixel logits, optional multiplicative bias-field correction, a classical
multiphase level-set solver, supervised loss arithmetic, and an evaluation
metric suite.
"""

import os


def _thread_cap():
    """MSVAR_THREADS as a positive int, or None when unset; ValueError otherwise."""
    raw = os.environ.get("MSVAR_THREADS")
    if raw is not None and not (raw.strip().isdecimal() and int(raw) > 0):
        raise ValueError(f"MSVAR_THREADS must be a positive integer, got {raw!r}")
    return None if raw is None else int(raw)


# BLAS and OpenMP size their thread pools when numpy is first imported, so the
# cap is exported before any submodule imports numpy; cli.main reports a bad one.
try:
    _cap = _thread_cap()
except ValueError:
    _cap = None
if _cap is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = str(_cap)

from .bias import bias_centroids, bias_ms_loss, minimize_ms_bias
from .errors import ConvergenceError
from .grid import grad_forward, tv_smooth, tv_smooth_grad
from .levelset import (
    LevelSetState,
    delta_eps,
    evolve_step,
    heaviside_eps,
    levelset_energy,
    region_means,
    segment_levelset,
)
from .metrics import ConfusionCounts, clustering_metrics, overlap_metrics
from .phantoms import make_phantom
from .softseg import (
    MsConfig,
    Result,
    SoftSegmentation,
    fixed_point_step,
    hard_mask,
    minimize_ms,
    ms_loss,
    ms_loss_grad,
    soft_centroids,
    softmax,
)
from .supervision import CombinedLossConfig, combined_loss, cross_entropy

__version__ = "0.1.0"

__all__ = [
    "CombinedLossConfig",
    "ConfusionCounts",
    "ConvergenceError",
    "LevelSetState",
    "MsConfig",
    "Result",
    "SoftSegmentation",
    "bias_centroids",
    "bias_ms_loss",
    "clustering_metrics",
    "combined_loss",
    "cross_entropy",
    "delta_eps",
    "evolve_step",
    "fixed_point_step",
    "grad_forward",
    "hard_mask",
    "heaviside_eps",
    "levelset_energy",
    "make_phantom",
    "minimize_ms",
    "minimize_ms_bias",
    "ms_loss",
    "ms_loss_grad",
    "overlap_metrics",
    "region_means",
    "segment_levelset",
    "soft_centroids",
    "softmax",
    "tv_smooth",
    "tv_smooth_grad",
]
