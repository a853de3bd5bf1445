"""Spans around the public functions of each rtbm layer, recorded from outside.

The package is not modified: a wrapper replaces a function at each name
under which a caller binds it (``from .theta import log_theta_many`` binds
``rtbm.density.log_theta_many``, so that name is wrapped). A span is
(name, start, end, parent, info) and is kept in memory; ``write`` dumps the
spans when the run ends and ``layer_metrics`` reduces them. A layer's self
time is its span's duration minus that of its direct child spans.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

# (module, attribute, span name) for every binding wrapped by install().
_BINDINGS = (
    ("rtbm.density", "log_theta_many", "theta"),
    ("rtbm.sampling", "log_theta_many", "theta"),
    ("rtbm.density", "log_pdf_many", "density.log_pdf_many"),
    ("rtbm.fit", "log_pdf_many", "density.log_pdf_many"),
    ("rtbm.cli", "log_pdf_many", "density.log_pdf_many"),
    ("rtbm.density", "condition_on", "density.condition_on"),
    ("rtbm.cli", "condition_on", "density.condition_on"),
    ("rtbm.density", "log_marginal", "density.log_marginal"),
    ("rtbm.density", "validate", "model.validate"),
    ("rtbm.fit", "validate", "model.validate"),
    ("rtbm.cli", "validate", "model.validate"),
    ("rtbm.cli", "load_model", "model.files"),
    ("rtbm.cli", "save_model", "model.files"),
    ("rtbm.fit", "fit_density", "fit.fit_density"),
    ("rtbm.cli", "fit_density", "fit.fit_density"),
    ("rtbm.sampling", "hidden_distribution", "sampling.hidden_distribution"),
    ("rtbm.sampling", "sample_visible", "sampling.sample_visible"),
    ("rtbm.cli", "sample_visible", "sampling.sample_visible"),
    ("rtbm.cli", "sample_student", "oracle"),
    ("rtbm.cli", "student_conditional", "oracle"),
    ("rtbm.cli", "conditional_logpdf", "oracle"),
    ("rtbm.cli", "run_command", "cli"),
    ("rtbm.cma", "minimize", "cma"),
)


class Tracer:
    """Records nested spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, info]
        self._stack = []
        self._patches = []

    def _call(self, name, func, args, kwargs, info=None):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, info])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except Exception as exc:
            self.spans[index][4] = {"raised": type(exc).__name__, **(info or {})}
            raise
        finally:
            self.spans[index][1] = start
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
        return index, result

    def _wrap(self, name, func):
        if name == "theta":
            def wrapper(zs, *args, **kwargs):
                rows = len(zs) if getattr(zs, "ndim", 2) == 2 else 1
                label = "theta.wide" if rows > 1 else "theta.b1"
                return self._call(label, func, (zs,) + args, kwargs, {"rows": rows})[1]
        elif name == "cma":
            def wrapper(objective, *args, **kwargs):
                index, result = self._call(
                    "cma", func, (self._objective(objective),) + args, kwargs)
                self.spans[index][4] = {"generations": len(getattr(result, "trace", ()))}
                return result
        else:
            def wrapper(*args, **kwargs):
                return self._call(name, func, args, kwargs)[1]
        return wrapper

    def _objective(self, objective):
        def traced(x):
            index, value = self._call("fit.objective", objective, (x,), {})
            self.spans[index][4] = {"finite": math.isfinite(float(value))}
            return value
        return traced

    def install(self, modules):
        for module_name, attr, name in _BINDINGS:
            module = modules[module_name]
            func = getattr(module, attr)
            self._patches.append((module, attr, func))
            setattr(module, attr, self._wrap(name, func))

    def remove(self):
        while self._patches:
            module, attr, func = self._patches.pop()
            setattr(module, attr, func)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, info]) + "\n")

    def layer_metrics(self):
        """Per-layer counts and self times, keyed by the benchmark's names."""
        child_time = [0.0] * len(self.spans)
        has_pdf_child = [False] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                has_pdf_child[parent] |= name == "density.log_pdf_many"
        calls = defaultdict(int)
        self_s = defaultdict(float)
        wall_s = defaultdict(float)
        rows = generations = truncations = feasible = 0
        for i, (name, start, end, _, info) in enumerate(self.spans):
            calls[name] += 1
            wall_s[name] += end - start
            self_s[name] += end - start - child_time[i]
            info = info or {}
            if name == "theta.wide":
                rows += info["rows"]
            if info.get("raised") == "ThetaTruncationError" and name.startswith("theta"):
                truncations += 1
            if name == "cma":
                generations += info.get("generations", 0)
            if name == "fit.objective" and info.get("finite") and has_pdf_child[i]:
                feasible += 1

        def ratio(num, den):
            return num / den if den else 0.0

        evals = calls["fit.objective"]
        return {
            "theta.wide.calls": calls["theta.wide"],
            "theta.wide.rows": rows,
            "theta.wide.self_s": self_s["theta.wide"],
            "theta.wide.us_per_row": 1e6 * ratio(self_s["theta.wide"], rows),
            "theta.b1.calls": calls["theta.b1"],
            "theta.b1.self_s": self_s["theta.b1"],
            "theta.b1.ms_per_call": 1e3 * ratio(self_s["theta.b1"], calls["theta.b1"]),
            "theta.truncation_errors": truncations,
            "density.log_pdf_many.calls": calls["density.log_pdf_many"],
            "density.log_pdf_many.self_s": self_s["density.log_pdf_many"],
            "density.condition_on.calls": calls["density.condition_on"],
            "density.condition_on.self_s": self_s["density.condition_on"],
            "density.log_marginal.self_s": self_s["density.log_marginal"],
            "model.validate.calls": calls["model.validate"],
            "model.validate.self_s": self_s["model.validate"],
            "model.files.self_s": self_s["model.files"],
            "fit.objective.calls": evals,
            "fit.objective.self_s": self_s["fit.objective"],
            "fit.feasible_ratio": ratio(feasible, evals),
            "fit.fit_s": ratio(wall_s["fit.fit_density"], calls["fit.fit_density"]),
            "fit.evals_per_s": ratio(evals, wall_s["fit.fit_density"]),
            "cma.generations": generations,
            "cma.evals": evals,
            "cma.self_s": self_s["cma"],
            "cma.ms_per_generation": 1e3 * ratio(self_s["cma"], generations),
            "sampling.hidden_distribution.self_s": self_s["sampling.hidden_distribution"],
            "sampling.sample_visible.self_s": self_s["sampling.sample_visible"],
            "cli.commands": calls["cli"],
            "cli.self_s": self_s["cli"],
            "oracle.self_s": self_s["oracle"],
        }
