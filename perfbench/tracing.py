"""In-memory span recorder, the wrap points inside kgwell, and the per-layer
metrics computed from the recorded spans.

kgwell binds most functions with `from .module import name`, so a span has
to wrap the name in the namespace of the module that calls it (for example
`kgwell.dynamics.coupling_vectors`, which `step` looks up), not the defining
module alone. Every wrap point is listed in TRACE_POINTS.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

#: (module, attribute looked up by the caller, span name). The span name is
#: "<layer>.<function>", with the layers named after kgwell's modules.
TRACE_POINTS = (
    ("kgwell.cli", "prepare", "dynamics.prepare"),
    ("kgwell.cli", "simulate", "dynamics.simulate"),
    ("kgwell.cli", "write_trajectory_csv", "dynamics.write_csv"),
    ("kgwell.cli", "line_plot", "svgplot.line_plot"),
    ("kgwell.diagnostics", "well_monitor", "diagnostics.check.well"),
    ("kgwell.diagnostics", "check_equivalence", "diagnostics.check.equivalence"),
    ("kgwell.diagnostics", "check_dissipation", "diagnostics.check.dissipation"),
    ("kgwell.diagnostics", "check_decay_bound", "diagnostics.check.decay_bound"),
    ("kgwell.dynamics", "build_interval_mesh", "geometry.build_mesh"),
    ("kgwell.dynamics", "build_rectangle_mesh", "geometry.build_mesh"),
    ("kgwell.dynamics", "classify_boundary", "geometry.classify"),
    ("kgwell.dynamics", "assemble_operators", "assembly.assemble"),
    ("kgwell.dynamics", "compute_well_constants", "constants.compute"),
    ("kgwell.dynamics", "first_eigenpair", "constants.eigenpair"),
    ("kgwell.constants", "first_eigenpair", "constants.eigenpair"),
    ("kgwell.constants", "embedding_constant", "constants.embedding"),
    ("kgwell.constants", "trace_constant", "constants.trace"),
    ("kgwell.dynamics", "step", "dynamics.step"),
    ("kgwell.dynamics", "coupling_vectors", "assembly.coupling_vectors"),
    ("kgwell.diagnostics", "full_sample", "diagnostics.full_sample"),
    ("kgwell.diagnostics", "coupling_energy", "assembly.coupling_energy"),
)

#: The two top-level calls an untraced run times.
TOP_LEVEL_POINTS = TRACE_POINTS[:2]

ROOT = "cli.main"
CHECKS = ("well", "equivalence", "dissipation", "decay_bound")


class Tracer:
    """Spans of one run: [name, start_ns, end_ns, parent index], appended in
    start order. Single-threaded, like kgwell itself."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self, points) -> None:
        """Wrap every point that exists. A point a refactor removed is
        skipped, so its metrics read 0 instead of the run failing."""
        for module_name, attr, span in points:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(span, getattr(module, attr)))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,index,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{parent},{name},{start},{end}\n")


def read_spans(path) -> list[tuple[str, int, int, int]]:
    """(name, start_ns, end_ns, parent) per span, in file order."""
    spans = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            _, _, parent, name, start, end = line.rstrip("\n").split(",")
            spans.append((name, int(start), int(end), int(parent)))
    return spans


def self_times(spans) -> list[float]:
    """Seconds of each span not covered by its child spans. Children of one
    span run one after another, so their durations add up."""
    own = [(end - start) * 1e-9 for _, start, end, _ in spans]
    out = list(own)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            out[parent] -= own[i]
    return out


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced run: {metric: (value, unit)}. A span
    name that never occurred counts as 0 calls and 0 seconds."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] = total.get(name, 0.0) + (end - start) * 1e-9
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    step_us = [(end - start) * 1e-3 for name, start, end, _ in spans
               if name == "dynamics.step"] or [0.0]
    later = step_us[1:] or step_us
    steps = n("dynamics.step")
    coupling_in_step = sum(
        1 for name, _, _, parent in spans
        if name == "assembly.coupling_vectors" and spans[parent][0] == "dynamics.step")
    checks = {c: t(f"diagnostics.check.{c}") for c in CHECKS}

    return {
        "geometry.build_mesh_s": (t("geometry.build_mesh"), "s"),
        "geometry.classify_s": (t("geometry.classify"), "s"),
        "assembly.assemble_s": (t("assembly.assemble"), "s"),
        "assembly.coupling_vectors_calls": (n("assembly.coupling_vectors"), "count"),
        "assembly.coupling_vectors_s": (t("assembly.coupling_vectors"), "s"),
        "assembly.coupling_vectors_us_per_call": (
            1e6 * t("assembly.coupling_vectors") / max(n("assembly.coupling_vectors"), 1), "us"),
        "assembly.coupling_energy_calls": (n("assembly.coupling_energy"), "count"),
        "assembly.coupling_energy_s": (t("assembly.coupling_energy"), "s"),
        "constants.compute_s": (t("constants.compute"), "s"),
        "constants.eigenpair_calls": (n("constants.eigenpair"), "count"),
        "constants.eigenpair_s": (t("constants.eigenpair"), "s"),
        "constants.embedding_calls": (n("constants.embedding"), "count"),
        "constants.embedding_s": (t("constants.embedding"), "s"),
        "constants.trace_calls": (n("constants.trace"), "count"),
        "constants.trace_s": (t("constants.trace"), "s"),
        "dynamics.prepare_self_s": (own.get("dynamics.prepare", 0.0), "s"),
        "dynamics.step_calls": (steps, "count"),
        "dynamics.first_step_s": (step_us[0] * 1e-6, "s"),
        "dynamics.step_p50_us": (percentile(later, 50), "us"),
        "dynamics.step_p99_us": (percentile(later, 99), "us"),
        "dynamics.step_self_s": (own.get("dynamics.step", 0.0), "s"),
        "dynamics.fixed_point_iters_per_step": (
            (coupling_in_step - steps) / max(steps, 1), "count"),
        "dynamics.simulate_self_s": (own.get("dynamics.simulate", 0.0), "s"),
        "dynamics.write_csv_s": (t("dynamics.write_csv"), "s"),
        "diagnostics.full_sample_calls": (n("diagnostics.full_sample"), "count"),
        "diagnostics.full_sample_self_s": (own.get("diagnostics.full_sample", 0.0), "s"),
        "diagnostics.checks_s": (sum(checks.values()), "s"),
        **{f"diagnostics.check_{c}_s": (v, "s") for c, v in checks.items()},
        "svgplot.line_plot_s": (t("svgplot.line_plot"), "s"),
        "cli.run_self_s": (own[ROOT], "s"),
    }


#: Metrics of layer_metrics that count work; they must repeat exactly
#: between runs of one config.
COUNT_METRICS = (
    "assembly.coupling_vectors_calls",
    "assembly.coupling_energy_calls",
    "constants.eigenpair_calls",
    "constants.embedding_calls",
    "constants.trace_calls",
    "dynamics.step_calls",
    "dynamics.fixed_point_iters_per_step",
    "diagnostics.full_sample_calls",
)
