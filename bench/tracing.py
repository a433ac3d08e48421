"""Aggregating span tracer and the wrappers it patches onto ppmkit.

Hot calls (``log_posterior`` and the kernels under it) run hundreds of
thousands of times per fit, so spans are not stored one by one: each
closed span adds its count, inclusive time and self time to an in-memory
table keyed by (name, parent name).  Self time is the span's duration
minus the time covered by its direct child spans.

Wrappers are installed only for a traced run.  They replace every binding
of a wrapped function in every loaded ppmkit module, because modules look
names up in their own namespace (``cli`` binds ``fit``, ``inference``
binds ``mean_values``), and class methods are replaced on their class.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (module, attribute) of every module-level function to wrap; the span is
# named "<module>.<attribute>".
FUNCTIONS = {
    "inference": ("fit", "log_posterior", "compute_diagnostics", "plug_in_fit"),
    "distributions": (
        "normal_logpdf", "bernoulli_logpmf", "sample_values", "sample_truncated",
    ),
    "functions": ("mean_values", "apply_link", "sigma_values"),
    "prediction": (
        "posterior_predictive", "plug_in_predictive", "interval", "prob_exceeds",
        "average_predictions", "pi_width_curve",
    ),
    "uncertainty": (
        "propagate_test_error", "classify_predictive", "decompose_uncertainty",
        "decision_boundary_band", "pool_ensemble_predictions", "generate_datasets",
    ),
    "simulate": ("simulate_dataset", "simulate_classification", "subsample_every_kth"),
    "cli": ("main", "cmd_report"),
}

# (module, class, method, span name) of every method to wrap.
METHODS = (
    ("distributions", "DistributionSpec", "log_density", "distributions.log_density"),
    ("inference", "PosteriorDraws", "from_csv", "inference.draws_from_csv"),
    ("inference", "PosteriorDraws", "to_csv_text", "inference.draws_to_csv"),
    ("simulate", "Dataset", "from_csv", "simulate.dataset_from_csv"),
    ("simulate", "Dataset", "to_csv_text", "simulate.dataset_to_csv"),
)


class Tracer:
    """Nested spans aggregated per (name, parent): [count, total_s, self_s]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, start, child_time]
        self.stats = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        key = (name, parent[0] if parent is not None else None)
        entry = self.stats.get(key)
        if entry is None:
            self.stats[key] = [1, duration, duration - child]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def totals(self, name: str, parent: str | None = ...) -> tuple[int, float, float]:
        """(count, total_s, self_s) of ``name``, over all parents by default."""
        count, total, self_time = 0, 0.0, 0.0
        for (n, p), (c, t, s) in self.stats.items():
            if n == name and (parent is ... or p == parent):
                count += c
                total += t
                self_time += s
        return count, total, self_time


def _wrap(tracer: Tracer, func, name: str):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return func(*args, **kwargs)
        finally:
            exit_()

    return wrapper


class Patched:
    """Context manager that installs tracing wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []  # (owner, attribute, original value)

    def __enter__(self):
        for mod_name in FUNCTIONS:
            importlib.import_module(f"ppmkit.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n == "ppmkit" or n.startswith("ppmkit.")]
        for mod_name, names in FUNCTIONS.items():
            home = sys.modules[f"ppmkit.{mod_name}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = _wrap(self.tracer, original, f"{mod_name}.{attr}")
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"ppmkit.{mod_name}"], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(self.tracer, raw.__func__, span))
            else:
                new = _wrap(self.tracer, raw, span)
            self._set(cls, attr, new)
        return self.tracer

    def _set(self, owner, attr, value):
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False
