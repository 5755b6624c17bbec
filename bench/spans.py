"""Per-module spans around qmono's public functions, from outside the program.

The tracer replaces each public function under every name a caller looks
it up by: a from-import binds the function into the importing module too,
so `hermitian_eigensystem` is wrapped both in qmono.linalg and in
qmono.measures.  Each span records its layer, start, end and parent; a
layer's self time is its spans' durations minus the time their direct
child spans cover, so the self times of all layers add up to the time of
the outermost calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import pkgutil
from time import perf_counter

import numpy as np

# Layer of every traced function, keyed "module:qualname" of the original.
LAYERS = {
    "cli.self": ["qmono.cli:main"],
    "states.sample": ["qmono.states:sample_haar_batch", "qmono.states:sample_haar",
                      "qmono.states:sample_canonical", "qmono.states:RngState.__init__",
                      "qmono.states:RngState.uniforms", "qmono.states:RngState.gaussians"],
    "states.build": ["qmono.states:make_ghz", "qmono.states:make_w",
                     "qmono.states:make_bell_product", "qmono.states:make_canonical_a",
                     "qmono.states:make_canonical_b", "qmono.states:StateFamilySpec.build",
                     "qmono.states:validate", "qmono.states:read_state_file"],
    "linalg.partial_trace": ["qmono.linalg:partial_trace", "qmono.linalg:partial_trace_single"],
    "linalg.eigensolve": ["qmono.linalg:hermitian_eigensystem",
                          "qmono.linalg:hermitian_eigenvalues"],
    "measures.lambda_spectrum": ["qmono.measures:lambda_spectrum", "qmono.measures:concurrence_raw",
                                 "qmono.measures:concurrence_mixed",
                                 "qmono.measures:spin_flip_two_qubit"],
    "measures.bipartition": ["qmono.measures:bipartition_c2_raw",
                             "qmono.measures:concurrence_bipartition",
                             "qmono.measures:pivot_pairs"],
    "inequalities.table": ["qmono.inequalities:monogamy_table", "qmono.inequalities:build_report",
                           "qmono.inequalities:fei_rhs_values",
                           "qmono.inequalities:tight_rhs_values"],
    "inequalities.classify": ["qmono.inequalities:classify", "qmono.inequalities:classify_gaps"],
    "experiments.rows": ["qmono.experiments:run_ensemble", "qmono.experiments:run_scan",
                         "qmono.experiments:run_figure", "qmono.experiments:summarize"],
    "experiments.validate": ["qmono.experiments:validate_rows"],
    "experiments.write": ["qmono.experiments:write_rows"],
    "experiments.discrepancy": ["qmono.experiments:run_discrepancy"],
    "closed_forms.candidates": ["qmono.closed_forms:canonical_a_candidates",
                                "qmono.closed_forms:canonical_b_candidates",
                                "qmono.closed_forms:bell_product_closed_forms"],
    "svgplot.render": ["qmono.svgplot:render_svg", "qmono.svgplot:Series.__init__"],
}
_LAYER_OF = {key: layer for layer, keys in LAYERS.items() for key in keys}
_NAMES = list(LAYERS)


def _leading(a, core):
    return math.prod(np.shape(a)[:-core])


# Work done by one call, measured from its arguments after the call ends.
_WORK = {
    "qmono.linalg:hermitian_eigensystem": lambda args: _leading(args[0], 2),
    "qmono.linalg:hermitian_eigenvalues": lambda args: _leading(args[0], 2),
    "qmono.inequalities:monogamy_table": lambda args: _leading(args[0], 1),
    "qmono.experiments:write_rows": lambda args: os.path.getsize(args[0]),
}

# (metric, layer, what) of the per-layer counters: "entries" counts calls
# into the layer from outside it, "work" sums _WORK over the layer's calls.
COUNTERS = [
    ("states.sample_calls", "states.sample", "entries"),
    ("linalg.eigensolve_calls", "linalg.eigensolve", "entries"),
    ("linalg.eigensolve_matrices", "linalg.eigensolve", "work"),
    ("inequalities.table_calls", "inequalities.table", "entries"),
    ("inequalities.table_states", "inequalities.table", "work"),
    ("inequalities.classify_calls", "inequalities.classify", "entries"),
    ("experiments.write_bytes", "experiments.write", "work"),
]


def _key(fn):
    return f"{getattr(fn, '__module__', '')}:{getattr(fn, '__qualname__', '')}"


class Tracer:
    """Installs span-recording wrappers into qmono; totals survive uninstall."""

    def __init__(self, package="qmono"):
        pkg = importlib.import_module(package)
        modules = [pkg] + [importlib.import_module(f"{package}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        owners = list(modules)
        for mod in modules:
            owners += [v for v in vars(mod).values()
                       if inspect.isclass(v) and v.__module__.startswith(package) and v not in owners]
        self._patches = [(owner, name, value) for owner in owners
                         for name, value in vars(owner).items()
                         if callable(value) and _key(value) in _LAYER_OF]
        self._wrappers = {}
        self._spans = []
        self._stack = [-1]
        self.self_s = np.zeros(len(_NAMES))
        self.entries = np.zeros(len(_NAMES), dtype=np.int64)
        self.work = np.zeros(len(_NAMES), dtype=np.int64)
        self.root_s = 0.0

    def _wrap(self, fn):
        key = _key(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        layer = _NAMES.index(_LAYER_OF[key])
        work = _WORK.get(key)
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (layer, t0, t1, parent, work(args) if work else 0)

        self._wrappers[key] = traced
        return traced

    def install(self):
        for owner, name, value in self._patches:
            setattr(owner, name, self._wrap(value))

    def uninstall(self):
        for owner, name, value in self._patches:
            setattr(owner, name, value)
        self._collect()

    def _collect(self):
        """Fold the recorded spans into the per-layer totals and drop them."""
        if not self._spans:
            return
        layer, t0, t1, parent, work = (np.array(c) for c in zip(*self._spans))
        dur = t1 - t0
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        entry = ~nested | (layer != layer[np.where(nested, parent, 0)])
        n = len(_NAMES)
        self.self_s += np.bincount(layer, weights=dur - child, minlength=n)
        self.entries += np.bincount(layer[entry], minlength=n)
        self.work += np.bincount(layer, weights=work, minlength=n).astype(np.int64)
        self.root_s += float(np.sum(dur[~nested]))
        self._spans.clear()

    def metrics(self, rounds: int) -> dict:
        """Per-layer self time and counters, per traced round."""
        out = {f"{name}_s": (float(self.self_s[i]) / rounds, "s") for i, name in enumerate(_NAMES)}
        for metric, name, what in COUNTERS:
            total = (self.entries if what == "entries" else self.work)[_NAMES.index(name)]
            out[metric] = (int(total) / rounds, "bytes" if metric.endswith("bytes") else "count")
        return out
