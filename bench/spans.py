"""Span recorder for the traced benchmark run.

`Tracer.installed()` replaces the public names that `qnoise.cli` and
`qnoise.accelerometer` bind (and `AccelerometerModel.budget`) with wrappers
that record one span per call, and puts the originals back on exit.  Spans
live in memory; per-layer self time (span duration minus the time covered
by its direct children) and call counts are accumulated as calls return.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, bound name) -> layer.  One layer per qnoise module.
WRAPPED_NAMES = {
    "qnoise.cli": {
        "run": "cli.run",
        "parse_netlist": "netlist.parse",
        "capacitor_impedance": "network.stamp",
        "inductor_impedance": "network.stamp",
        "impedance_matrix": "network.stamp",
        "scattering_from_impedance": "network.solve",
        "symmetrized_occupation": "spectra.occupation",
        "opamp_scattering": "amplifier.opamp",
        "recombine_noise_sources": "amplifier.recombine",
        "build_accelerometer": "accelerometer.build",
        "sensitivity_report": "accelerometer.report",
        "normalize_estimator": "estimator.normalize",
        "added_noise_spectrum": "estimator.budget",
        "integrate_budget": "estimator.integrate",
    },
    "qnoise.accelerometer": {
        "capacitor_impedance": "network.stamp",
        "opamp_scattering": "amplifier.opamp",
        "recombine_noise_sources": "amplifier.recombine",
        "build_accelerometer": "accelerometer.build",
        "normalize_estimator": "estimator.normalize",
        "added_noise_spectrum": "estimator.budget",
    },
}
LAYERS = sorted(set(name for names in WRAPPED_NAMES.values()
                    for name in names.values())
                | {"accelerometer.budget"})

# A span: (layer, start, end, parent span index or -1, run id).
Span = Tuple[str, float, float, int, int]


def _occupation_elements(args, kwargs) -> int:
    omega = args[0] if args else kwargs["omega"]
    temperature = args[1] if len(args) > 1 else kwargs["temperature"]
    return np.broadcast(np.asarray(omega), np.asarray(temperature)).size


def _solve_key(args, kwargs):
    """Identity of the (network, omega) pair a solve works on: the
    impedance matrix at omega plus the terminating lines."""
    z_matrix = args[0] if args else kwargs["z_matrix"]
    lines = args[1] if len(args) > 1 else kwargs["lines"]
    return (np.asarray(z_matrix, dtype=complex).tobytes(),
            tuple((ln.label, ln.resistance, ln.temperature) for ln in lines))


class Tracer:
    """Records spans for every wrapped call and accumulates, per layer,
    self time and call count, plus two layer-specific measures:
    occupation array elements and distinct (network, omega) solves."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[list] = []   # [span index, child time]
        self._run_id = 0
        self.reset()

    def reset(self):
        """Start a new pass: clear spans and per-layer totals."""
        self.spans = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.occupation_elements = 0
        self.solve_keys = set()

    def _call(self, layer: str, fn: Callable, hook: Optional[Callable],
              args, kwargs):
        if hook is not None:
            # Kept out of every span's self time: it is tracing cost.
            began = time.perf_counter()
            hook(args, kwargs)
            if self._stack:
                self._stack[-1][1] += time.perf_counter() - began
        if not self._stack:
            self._run_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[index] = (layer, start, end, parent, self._run_id)
            self.self_s[layer] += duration - frame[1]
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def _wrap(self, fn: Callable, layer: str,
              hook: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(layer, fn, hook, args, kwargs)
        return traced

    def _hook(self, name: str) -> Optional[Callable]:
        if name == "symmetrized_occupation":
            def count(args, kwargs):
                self.occupation_elements += _occupation_elements(args, kwargs)
            return count
        if name == "scattering_from_impedance":
            return lambda args, kwargs: self.solve_keys.add(
                _solve_key(args, kwargs))
        return None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in WRAPPED_NAMES for the duration of the block.
        A name the module no longer binds is skipped and reports no calls."""
        model = getattr(importlib.import_module("qnoise.accelerometer"),
                        "AccelerometerModel", None)
        saved = []
        try:
            for module_name, names in WRAPPED_NAMES.items():
                module = importlib.import_module(module_name)
                for name, layer in names.items():
                    original = getattr(module, name, None)
                    if original is None:
                        continue
                    saved.append((module, name, original))
                    setattr(module, name, self._wrap(
                        original, layer, self._hook(name)))
            original = getattr(model, "budget", None)
            if original is not None:
                saved.append((model, "budget", original))
                model.budget = self._wrap(original, "accelerometer.budget")
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
