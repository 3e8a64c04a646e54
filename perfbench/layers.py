"""Trace mode: per-layer spans recorded around calls into the program.

The program is not edited: :func:`install` replaces each layer's entry
point, wherever a loaded module or class holds it, with a wrapper that
opens a span.  Spans nest on one stack; a layer's *self time* is its
spans' duration minus what their child spans cover, so the self times of
all layers plus ``other`` add up to the operation's wall time.

Only totals per layer are kept (self seconds and calls): the Clark-max
layer alone opens hundreds of thousands of spans per run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: (module, attribute path, layer) -- the entry point of every layer.
LAYERS = (
    ("repro.timing.graph", "TimingView.__init__", "view_build"),
    ("repro.timing.graph", "TimingView.nominal_delays", "nominal_delay"),
    ("repro.timing.graph", "TimingView.load_caps", "nominal_delay"),
    ("repro.timing.ssta", "gate_delay_canonicals", "canonicals"),
    ("repro.timing.canonical", "Canonical.maximum_with_tightness", "clark_max"),
    ("repro.timing.ssta", "run_ssta", "ssta_propagate"),
    ("repro.timing.sta", "run_sta", "sta"),
    ("repro.power.statistical", "analyze_statistical_leakage", "leakage"),
    ("repro.core.sizing", "minimize_delay", "initial_sizing"),
    ("repro.core.engine", "GreedyEngine._collect_candidates", "candidates"),
    ("repro.core.engine", "GreedyEngine._validate_and_rollback", "validate"),
)

#: ``run_ssta`` asks for the primary outputs once, right after the forward
#: (Clark-max propagation) loop and before the criticality backward pass;
#: that call splits the SSTA span into its two layers.
SPLIT_AT = ("repro.timing.graph", "TimingView.primary_output_indices")
SPLIT_FROM, SPLIT_TO = "ssta_propagate", "ssta_criticality"

#: Layer names in report order; ``other`` is operation time no span covers.
LAYER_NAMES = (
    "view_build", "nominal_delay", "canonicals", "clark_max",
    "ssta_propagate", "ssta_criticality", "sta", "leakage",
    "initial_sizing", "candidates", "validate",
)


class Tracer:
    """Span stack plus per-layer totals."""

    def __init__(self) -> None:
        #: Spans are recorded only while this is set: around the timed
        #: operation, not around the benchmark's own input building and
        #: output checks, which call some of the same functions.
        self.recording = False
        # Each open span: [layer, segment start, seconds of the segment
        # covered by child spans].  A split starts a new segment.
        self.stack: List[list] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def span(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        stack, self_seconds, calls = self.stack, self.self_seconds, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            calls[layer] += 1
            start = clock()
            frame = [layer, start, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_seconds[frame[0]] += end - frame[1] - frame[2]
                if stack:
                    stack[-1][2] += end - start

        return wrapper

    def splitter(self, fn: Callable) -> Callable:
        stack, self_seconds = self.stack, self.self_seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == SPLIT_FROM:
                frame, now = stack[-1], clock()
                self_seconds[SPLIT_FROM] += now - frame[1] - frame[2]
                frame[:] = [SPLIT_TO, now, 0.0]
            return fn(*args, **kwargs)

        return wrapper


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level name that holds ``original``: ``from x
    import f`` copies the reference into the importer, the benchmark's own
    modules included."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _patch(module: str, path: str, make: Callable[[Callable], Callable]) -> None:
    try:
        owner, attr = _resolve(module, path)
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError):
        # A refactored program keeps the benchmark running; the layer reads 0.
        print(f"perfbench: no {module}.{path} to trace", file=sys.stderr)
        return
    if isinstance(owner, type):
        setattr(owner, attr, make(original))
    else:
        _replace_everywhere(original, make(original))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point for the rest of the process."""
    for module, path, layer in LAYERS:
        _patch(module, path, functools.partial(tracer.span, layer))
    _patch(*SPLIT_AT, tracer.splitter)
