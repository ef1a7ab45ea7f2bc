"""Span tracing of one `msvar segment` call, from outside the program.

The tracer replaces public functions of msvar's modules, as the calling
module sees them, with wrappers that record a span (name, layer, start, end,
parent). Nothing in msvar changes. A target that no longer exists, because
it was renamed or fused away, is skipped and its layer reported as absent.

A layer's time is the self time of its spans: span duration minus the time
covered by its direct child spans. Self times of all spans add up to the
root span, which the benchmark opens around `cli.main`.
"""

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field


def _path_note(args, kwargs, result):
    return {"path": str(args[0])} if args else {}


def _descend_note(args, kwargs, result):
    # _descend returns (state, terms, exhausted); a step is accepted unless exhausted
    return {"accepted": not result[2]}


# (module, attribute, layer, note); the attribute is looked up in the module
# that calls it, so each binding site is wrapped separately.
TARGETS = (
    ("msvar.pnm", "load_image", "pnm.read", _path_note),
    ("msvar.pnm", "save_labelmap", "pnm.write", _path_note),
    ("msvar.pnm", "save_field_pgm", "pnm.write", _path_note),
    ("msvar.pnm", "save_field_bin", "pnm.write", _path_note),
    ("msvar.cli", "minimize_ms", "softseg.solve", None),
    ("msvar.cli", "minimize_ms_bias", "bias.solve", None),
    ("msvar.cli", "segment_levelset", "levelset.solve", None),
    ("msvar.softseg", "init_logits", "softseg.init", None),
    ("msvar.bias", "init_logits", "softseg.init", None),
    ("msvar.softseg", "kmeans_labels", "softseg.init", None),
    ("msvar.softseg", "softmax", "softseg.softmax", None),
    ("msvar.softseg", "soft_centroids", "softseg.centroids", None),
    ("msvar.softseg", "_descend", "softseg.solve", _descend_note),
    ("msvar.bias", "_descend", "bias.solve", _descend_note),
    ("msvar.softseg", "tv_smooth", "grid.tv", None),
    ("msvar.bias", "tv_smooth", "grid.tv", None),
    ("msvar.levelset", "tv_smooth", "grid.tv", None),
    ("msvar.softseg", "tv_smooth_grad", "grid.tv_grad", None),
    ("msvar.bias", "tv_smooth_grad", "grid.tv_grad", None),
    ("msvar.bias", "bias_centroids", "bias.centroids", None),
    ("msvar.bias", "bias_loss_grad_b", "bias.grad_b", None),
    ("msvar.levelset", "evolve_step", "levelset.step", None),
    ("msvar.levelset", "levelset_energy", "levelset.energy", None),
)

ROOT_LAYER = "cli"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    note: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Installs wrappers on enter and restores the original functions on exit."""

    def __init__(self):
        self.spans = []
        self.missing = []  # "module.attr" of targets that could not be wrapped
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, layer, note in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(fn, name, layer, note))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def absent_layers(self):
        """Layers none of whose targets could be wrapped."""
        present = {layer for m, a, layer, _ in TARGETS if f"{m}.{a}" not in self.missing}
        return sorted({layer for _, _, layer, _ in TARGETS} - present)

    def _wrap(self, fn, name, layer, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer) as span:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.note = note(args, kwargs, result)
                return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name, layer):
        span = Span(name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_totals(spans):
    """{layer: summed self time} and {layer: number of spans}."""
    times, calls = {}, {}
    for s, t in zip(spans, self_times(spans)):
        times[s.layer] = times.get(s.layer, 0.0) + t
        calls[s.layer] = calls.get(s.layer, 0) + 1
    return times, calls
