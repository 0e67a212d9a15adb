"""Span recording for the traced in-process run, and per-layer metrics.

The recorder wraps public functions and methods of the flatchains
modules wherever the name is bound (the defining module and
`flatchains.cli`), so calls made through a module global, a CLI import
or a call-time import are all seen.  Each span holds its name, start,
end, parent span index and call id; spans stay in memory until the run
ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, Optional

Span = list  # [name, start, end, parent index or -1, call id]


def _cells(cx) -> int:
    return sum(cx.num_cells(d) for d in cx.dims())


def _payload_items(cf) -> int:
    if cf.carrier == "abstract":
        return _cells(cf.payload[0])
    return len(cf.payload.items) if cf.carrier == "curves" else len(cf.payload)


def _search_vars(args, out):
    chain = args[0]
    return {"flatnorm.search_vars": chain.complex.num_cells(chain.dim + 1)}


def _flat_counts(args, out):
    counts = {"flatnorm.calls": 1, "flatnorm.unproved": 0 if out.exact else 1}
    counts.update(_search_vars(args, out))
    bound = getattr(out, "bound", None)  # the integral search's box; it may go away
    if bound is not None:
        counts.update({"flatnorm.int_solves": 1, "flatnorm.int_bound_sum": bound})
    return counts


def _curve_items(args, out):
    x = args[0]  # a CurveSystem or a 1-chain
    return {"curves.items": len(x) if hasattr(x, "__len__") else len(x.items())}


# (metric-owning module, object path, counter(args, result) -> {name: amount},
#  count only when called from the CLI rather than from another traced span)
TARGETS = (
    ("fileio", "load_chainfile",
     lambda a, out: {"fileio.in_bytes": os.path.getsize(a[0]),
                     "fileio.items": _payload_items(out)}, False),
    ("core", "Complex.__init__", lambda a, out: {"core.complex_cells": _cells(a[0])}, False),
    ("core", "IntChain.boundary", None, False),
    ("core", "IntChain.mass", None, False),
    ("core", "IntChain.mass_p", None, False),
    ("boxes", "arrangement_complex",
     lambda a, out: {"boxes.compiled_cells": _cells(out[0])}, False),
    ("boxes", "compile_chain", lambda a, out: {"boxes.compiled_cells": _cells(out[0])}, False),
    ("boxes", "slice_mass_star", None, False),
    ("boxes", "slice_mass_integral", None, False),
    ("boxes", "BoxChain.__init__", None, False),
    ("boxes", "BoxChain.slice", None, False),
    ("boxes", "BoxChain.restrict", None, False),
    ("boxes", "BoxChain.iterated_slice", None, False),
    ("boxes", "deform", None, False),
    ("flatnorm", "flat_norm_mod_p", _flat_counts, False),
    ("flatnorm", "flat_norm_int", _flat_counts, False),
    ("flatnorm", "fill_mod_p", _search_vars, False),
    ("flatnorm", "isoperimetric_ratio", None, False),
    ("flatnorm", "flat_norm_under_refinement", None, False),
    ("curves", "preprocess", _curve_items, True),
    ("curves", "extract_cycle_indices", _curve_items, True),
    ("curves", "decompose_paths_loops", _curve_items, True),
    ("curves", "cycle_representative", _curve_items, True),
    ("cone", "cone", lambda a, out: {"cone.simplices": len(a[1])}, True),
    ("cone", "cone_mass_report", lambda a, out: {"cone.simplices": len(a[1])}, True),
)

# Per-layer metric -> (span names whose self times it sums, unit).
SELF_TIMES = {
    "cli.main_self_s": ("cli.main",),
    "fileio.load_s": ("fileio.load_chainfile",),
    "core.complex_s": ("core.Complex.__init__",),
    "core.boundary_s": ("core.IntChain.boundary",),
    "core.mass_s": ("core.IntChain.mass", "core.IntChain.mass_p"),
    "boxes.compile_s": ("boxes.arrangement_complex", "boxes.compile_chain"),
    "boxes.slice_mass_s": ("boxes.slice_mass_star", "boxes.slice_mass_integral"),
    "boxes.chain_new_s": ("boxes.BoxChain.__init__",),
    "boxes.deform_s": ("boxes.deform",),
    "boxes.restrict_slice_s": ("boxes.BoxChain.restrict", "boxes.BoxChain.slice",
                               "boxes.BoxChain.iterated_slice"),
    "flatnorm.modp_s": ("flatnorm.flat_norm_mod_p",),
    "flatnorm.int_s": ("flatnorm.flat_norm_int",),
    "flatnorm.fill_s": ("flatnorm.fill_mod_p", "flatnorm.isoperimetric_ratio"),
    "flatnorm.refine_s": ("flatnorm.flat_norm_under_refinement",),
    "curves.preprocess_s": ("curves.preprocess",),
    "curves.cyclecut_s": ("curves.extract_cycle_indices",),
    "curves.decompose_s": ("curves.decompose_paths_loops",),
    "curves.cyclerep_s": ("curves.cycle_representative",),
    "cone.cone_s": ("cone.cone",),
    "cone.report_s": ("cone.cone_mass_report",),
}
SPAN_COUNTS = {
    "core.boundary_calls": "core.IntChain.boundary",
    "boxes.slice_calls": "boxes.BoxChain.slice",
    "boxes.chain_new_calls": "boxes.BoxChain.__init__",
}
COUNTERS = ("cli.out_bytes", "fileio.in_bytes", "fileio.items", "core.complex_cells",
            "boxes.compiled_cells", "flatnorm.search_vars", "flatnorm.unproved",
            "flatnorm.calls", "curves.items", "cone.simplices")


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {"cli.import_s": "s"}
    units.update({name: "s" for name in SELF_TIMES})
    units.update({name: "count" for name in (*SPAN_COUNTS, *COUNTERS)})
    units.update({"flatnorm.int_bound": "count",  # mean final bound B per integral solve
                  "flatnorm.fill_per_isoratio": "ratio", "trace.overhead_frac": "ratio"})
    return units


class Recorder:
    """Spans and counters of one traced pass; install() wraps, remove() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.call_id = -1
        self.counts: dict = defaultdict(int)
        self._patches: list[tuple] = []  # (owner, attribute, original value)

    def span(self, name: str, fn: Callable, counter: Optional[Callable] = None,
             outer_only: bool = False) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else -1
            span = [name, 0.0, 0.0, parent, rec.call_id]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if counter is not None and (not outer_only or parent < 0
                                        or rec.spans[parent][0] == "cli.main"):
                for key, amount in counter(args, out).items():
                    rec.counts[key] += amount
            return out
        return traced

    def install(self, cli_module) -> None:
        """Wrap every target in its defining module and in the CLI module.

        A target the program no longer has is skipped, and its metrics read 0.
        """
        for module_name, path, counter, outer_only in TARGETS:
            module = importlib.import_module(f"flatchains.{module_name}")
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
                if owner is not None and hasattr(owner, attr):
                    self._patch(owner, attr, self.span(name, getattr(owner, attr), counter,
                                                       outer_only))
                continue
            original = getattr(module, path, None)
            if original is None:
                continue
            wrapped = self.span(name, original, counter, outer_only)
            self._patch(module, path, wrapped)
            if getattr(cli_module, path, None) is original:
                self._patch(cli_module, path, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patches:
            setattr(*self._patches.pop())


def self_times(spans: list[Span]) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[Span], counts: dict, commands: list) -> dict:
    """Per-layer values of one traced pass; `commands` maps call id to subcommand."""
    own = self_times(spans)
    by_name: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    fills_in_isoratio = 0
    for (name, _, _, _, call_id), t in zip(spans, own):
        by_name[name] += t
        calls[name] += 1
        if name == "flatnorm.fill_mod_p" and commands[call_id] == "isoratio":
            fills_in_isoratio += 1
    out = {metric: sum(by_name[n] for n in names) for metric, names in SELF_TIMES.items()}
    out.update({metric: calls[name] for metric, name in SPAN_COUNTS.items()})
    out.update({name: counts.get(name, 0) for name in COUNTERS})
    solves = counts.get("flatnorm.int_solves", 0)
    out["flatnorm.int_bound"] = counts.get("flatnorm.int_bound_sum", 0) / solves if solves else 0
    isoratios = commands.count("isoratio")
    out["flatnorm.fill_per_isoratio"] = fills_in_isoratio / isoratios if isoratios else 0
    return out
