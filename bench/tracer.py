"""Per-layer spans for one traced CLI invocation, recorded from outside the package.

    python bench/tracer.py SPANS.json JOB_ID -- <covergeo CLI arguments>

imports ``covergeo.cli``, installs wrappers on the public layer functions in
every ``covergeo`` module namespace that binds them (and on scipy's
``maximum_flow`` and ``breadth_first_order`` as bound in
``covergeo.flatnorm``), calls ``covergeo.cli.main`` with the arguments,
removes the wrappers, checks that every original binding is back, and writes
the spans to SPANS.json.  The exit code is the CLI's.  Needs ``src`` on
``PYTHONPATH``.

A span records its layer name, start and end (``perf_counter_ns``), the
index of the span that was open when it started (-1 for none), the job id,
and the work counts read from the wrapped call's arguments and result.
``layer_metrics`` turns the spans of a job into the per-layer metrics: a
layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _partition_counts(args, kwargs, result) -> dict:
    return {"regions": result.region_count, "cells": result.base.count}


def _labels_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _text_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _table_bytes(args, kwargs, result) -> dict:
    # the CLI writes the table exactly this way
    return {"bytes": len(json.dumps(result, sort_keys=True, indent=2)) + 1}


def _mc_counts(args, kwargs, result) -> dict:
    return {"trials": result.trials, "points": result.trials * result.n_samples}


def _cut_counts(args, kwargs, result) -> dict:
    graph = args[0] if args else kwargs["csgraph"]
    return {"nodes": int(graph.shape[0])}


# (module searched for the original, attribute) -> (layer, counts from the call)
LAYERS: dict[tuple[str, str], tuple[str, object]] = {
    ("covergeo.grid", "opening_stability_radius"): ("grid.opening_stability", None),
    ("covergeo.grid", "closing_stability_radius"): ("grid.closing_stability", None),
    ("covergeo.grid", "perimeter"): ("grid.perimeter", None),
    ("covergeo.grid", "diameter"): ("grid.diameter", None),
    ("covergeo.grid", "erode"): ("grid.erode", None),
    ("covergeo.grid", "read_mask"): ("grid.mask_io", None),
    ("covergeo.grid", "write_mask"): ("grid.mask_io", None),
    ("covergeo.partition", "good_partition"): ("partition.build", _partition_counts),
    ("covergeo.partition", "partition_with_eta"): ("partition.build", _partition_counts),
    ("covergeo.partition", "certify_good"): ("partition.certify", None),
    ("covergeo.partition", "certify_almost"): ("partition.certify", None),
    ("covergeo.partition", "restrict_partition"): ("partition.restrict", None),
    ("covergeo.partition", "write_labels"): ("partition.export", _labels_bytes),
    ("covergeo.partition", "read_labels"): ("partition.export", None),
    ("covergeo.partition", "region_table"): ("partition.export", _table_bytes),
    ("covergeo.partition", "certificate_json"): ("partition.export", _text_bytes),
    ("covergeo.bounds", "bound_reach"): ("bounds", None),
    ("covergeo.bounds", "bound_regions"): ("bounds", None),
    ("covergeo.bounds", "bound_U_minus_A"): ("bounds", None),
    ("covergeo.bounds", "bound_flatnorm"): ("bounds", None),
    ("covergeo.bounds", "invert_for_N"): ("bounds", None),
    ("covergeo.bounds", "reach_constant"): ("bounds", None),
    ("covergeo.montecarlo", "estimate_probability"): ("montecarlo.verdict", _mc_counts),
    ("covergeo.montecarlo", "sample_uniform"): ("montecarlo.sample", None),
    ("covergeo.flatnorm", "flatnorm_minimize"): ("flatnorm.graph", None),
    ("covergeo.flatnorm", "lambda_threshold"): ("flatnorm.threshold", None),
    ("covergeo.flatnorm", "minimizer_reach_check"): ("flatnorm.reach_check", None),
    ("covergeo.flatnorm", "maximum_flow"): ("flatnorm.maxflow", _cut_counts),
    ("covergeo.flatnorm", "breadth_first_order"): ("flatnorm.extract", None),
    ("covergeo.render", "render_labels"): ("render", _text_bytes),
    ("covergeo.render", "render_mask"): ("render", _text_bytes),
    ("covergeo.render", "render_overlay"): ("render", _text_bytes),
    ("covergeo.render", "render_samples"): ("render", _text_bytes),
}

SELF_TIME_LAYERS = tuple(dict.fromkeys(layer for layer, _ in LAYERS.values()))

# every per-layer metric a traced run reports, with its unit
PER_LAYER_METRICS: dict[str, str] = {
    **{f"{layer}.s": "s" for layer in SELF_TIME_LAYERS},
    "grid.opening_stability.calls": "count",
    "grid.closing_stability.calls": "count",
    "grid.perimeter.calls": "count",
    "grid.diameter.calls": "count",
    "partition.regions": "count",
    "partition.cells": "count",
    "partition.export.bytes": "B",
    "montecarlo.trials": "count",
    "montecarlo.points": "count",
    "montecarlo.ms_per_trial": "ms",
    "flatnorm.cuts": "count",
    "flatnorm.cut_nodes": "count",
    "flatnorm.threshold.probes": "count",
    "flatnorm.threshold.wall_s": "s",
    "render.bytes": "B",
    "cli.process.s": "s",
    "cli.cpu_s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs and removes the layer wrappers and holds the spans."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, counts):
        spans, open_spans, job = self.spans, self._open, self.job

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": layer, "fn": fn.__name__, "job": job,
                    "parent": open_spans[-1] if open_spans else -1}
            open_spans.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                open_spans.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "covergeo" or name.startswith("covergeo."))]
        for (home, attr), (layer, counts) in LAYERS.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(original, layer, counts)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, name, original))
                        setattr(module, name, wrapper)

    def remove(self) -> None:
        for module, name, original in reversed(self._bindings):
            setattr(module, name, original)

    def restored(self) -> bool:
        """Every binding the wrappers replaced holds its original again."""
        return bool(self._bindings) and all(
            getattr(module, name) is original for module, name, original in self._bindings
        )


def layer_metrics(invocations: list[list[dict]]) -> dict[str, float]:
    """Per-layer sums for one job from the spans of each of its invocations.

    Returns the self time of every layer, the work counts, and ``spans_s``,
    the time covered by top-level spans (the sum of all self times).
    """
    m = {key: 0.0 for key in PER_LAYER_METRICS}
    spans_ns = 0
    verdict_ns = 0
    for spans in invocations:
        child_ns = [0] * len(spans)
        for s in spans:
            duration = s["end"] - s["start"]
            if s["parent"] >= 0:
                child_ns[s["parent"]] += duration
            else:
                spans_ns += duration
        for k, s in enumerate(spans):
            duration = s["end"] - s["start"]
            m[f"{s['name']}.s"] += (duration - child_ns[k]) / 1e9
            calls = f"{s['name']}.calls"
            if calls in m:
                m[calls] += 1
            if s["name"] == "partition.build":
                m["partition.regions"] += s.get("regions", 0)
                m["partition.cells"] += s.get("cells", 0)
            elif s["name"] == "partition.export":
                m["partition.export.bytes"] += s.get("bytes", 0)
            elif s["name"] == "montecarlo.verdict":
                m["montecarlo.trials"] += s.get("trials", 0)
                m["montecarlo.points"] += s.get("points", 0)
                verdict_ns += duration
            elif s["name"] == "flatnorm.maxflow":
                m["flatnorm.cuts"] += 1
                m["flatnorm.cut_nodes"] += s.get("nodes", 0)
                if _inside(spans, k, "flatnorm.threshold"):
                    m["flatnorm.threshold.probes"] += 1
            elif s["name"] == "flatnorm.threshold":
                m["flatnorm.threshold.wall_s"] += duration / 1e9
            elif s["name"] == "render":
                m["render.bytes"] += s.get("bytes", 0)
    if m["montecarlo.trials"]:
        m["montecarlo.ms_per_trial"] = verdict_ns / 1e6 / m["montecarlo.trials"]
    m["spans_s"] = spans_ns / 1e9
    return m


def _inside(spans: list[dict], k: int, layer: str) -> bool:
    parent = spans[k]["parent"]
    while parent >= 0:
        if spans[parent]["name"] == layer:
            return True
        parent = spans[parent]["parent"]
    return False


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json JOB_ID -- <covergeo CLI arguments>", file=sys.stderr)
        return 1
    spans_path, job, cli_args = argv[0], int(argv[1]), argv[3:]
    import covergeo.cli

    tracer = Tracer(job)
    tracer.install()
    try:
        rc = covergeo.cli.main(cli_args)
    finally:
        tracer.remove()
        with open(spans_path, "w") as fh:
            json.dump({"restored": tracer.restored(), "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
