"""Run the markovcoord CLI with spans around the public functions of each layer.

Usage: python perfbench/traced_cli.py TRACE_FILE KIND --config CFG --out DIR --seed N

The wrappers are installed from outside the package after it is imported.
Every module-level function is replaced at every name the package binds it
to (``harness`` imports ``run_scheme`` by name, ``kernels`` imports
``uniforms`` by name, and so on); methods are replaced on their class.  A
target that no longer exists is listed as missing instead of failing the run.

Each span holds a name, start, end, parent span and the counts taken from
the call's arguments and return value; all spans of one run share the run
id stored with them.  Spans stay in memory and are written to TRACE_FILE as
JSON when the CLI returns; ``layer_metrics`` turns that file into per-layer
metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import uuid
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

# Errors a counter raises when a refactor changed the arguments it reads.
_COUNT_ERRORS = (IndexError, KeyError, AttributeError, TypeError, ValueError)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _markov_path(a, k, r):
    return {"symbols": int(np.size(_arg(a, k, 0, "x_seq")))}


def _word_symbols(a, k, r):
    inputs = sum(int(np.size(_arg(a, k, i, name)))
                 for i, name in enumerate(("keys", "row_idx", "cdf_rows")))
    # 8-byte keys, indices, cdf entries and symbols; derived from shapes
    return {"cells": int(r.size), "bytes_computed": 8 * (inputs + int(r.size))}


def _offset_counts(a, k, r):
    words = int(np.size(_arg(a, k, 0, "words")))
    base = int(np.size(_arg(a, k, 1, "base")))
    return {"cells": words, "bytes_computed": 8 * (words + base + int(r.size))}


def _aep_enumerate(a, k, r):
    return {"pairs": len(_arg(a, k, 0, "xdig")) * len(_arg(a, k, 1, "ydig"))}


def _uniforms(a, k, r):
    return {"draws": int(_arg(a, k, 1, "n"))}


def _uniform_grid(a, k, r):
    return {"draws": int(np.size(_arg(a, k, 0, "keys"))) * int(_arg(a, k, 1, "n"))}


def _decode_block(a, k, r):
    return {r.status.value: 1}


def _w_rows(a, k, r):  # (self, m, lo, hi)
    return {"rows": int(_arg(a, k, 3, "hi")) - int(_arg(a, k, 2, "lo"))}


def _encode_block(a, k, r):
    if r is None:  # failure: the scan ran to its limit
        limit = a[4] if len(a) > 4 else k.get("scan_limit")
        default = sys.modules["markovcoord.codec"].DEFAULT_SCAN_LIMIT
        depth = min(_arg(a, k, 2, "cb").m_count, limit or default)
    else:
        depth = int(r) + 1
    return {"hit": int(r is not None), "scan_depth": depth, "scan_depth_max": depth}


def _emit_report(a, k, r):
    return {"bytes": sum(os.path.getsize(p) for p in r.values())}


# (span name, attribute path under the package, counter or None)
SPANS: List[Tuple[str, str, Optional[Callable]]] = [
    ("cli.main", "cli.main", None),
    ("harness.load_config", "harness.load_config", None),
    ("harness.run_experiment", "harness.run_experiment", None),
    ("harness.emit_report", "harness.emit_report", _emit_report),
    ("codec.SchemeConfig.init", "codec.SchemeConfig.__init__", None),
    ("codec.run_scheme", "codec.run_scheme", None),
    ("codec.Codebook.materialize_x", "codec.Codebook.materialize_x", None),
    ("codec.Codebook.w_rows", "codec.Codebook.w_rows", _w_rows),
    ("codec.encode_block", "codec.encode_block", _encode_block),
    ("codec.channel_block", "codec.channel_block", None),
    ("codec.decode_block", "codec.decode_block", _decode_block),
    ("region.optimize_auxiliary", "region.optimize_auxiliary", None),
    ("region.assemble_inner", "region.assemble_inner", None),
    ("probability.stationary_dist", "probability.stationary_dist", None),
    ("probability.cond_mutual_info", "probability.cond_mutual_info", None),
    ("typicality.aep_audit", "typicality.aep_audit", None),
    ("typicality.triplet_type", "typicality.triplet_type", None),
    ("typicality.sequence_log_prob", "typicality.sequence_log_prob", None),
    ("typicality.full_type", "typicality.full_type", None),
    ("kernels.markov_path", "kernels.markov_path", _markov_path),
    ("kernels.word_symbols", "kernels.word_symbols", _word_symbols),
    ("kernels.offset_counts", "kernels.offset_counts", _offset_counts),
    ("kernels.aep_enumerate", "kernels.aep_enumerate", _aep_enumerate),
    ("rng.uniforms", "rng.uniforms", _uniforms),
    ("rng.uniform_grid", "rng.uniform_grid", _uniform_grid),
]

# Call counts without a span, for functions too small to time: (name, path, field)
COUNTS: List[Tuple[str, str, str]] = [
    ("rng.derive_key", "rng.derive_key", "calls"),
    ("probability.JointDist", "probability.JointDist.__post_init__", "constructed"),
]

# One span per sweep row, around each entry of the harness's kind -> runner table.
ROW_SPAN, ROW_TABLE = "harness.row", "harness._RUNNERS"

TARGET_NAMES: Set[str] = {name for name, _, _ in SPANS} | {name for name, _, _ in COUNTS}


class Tracer:
    """Spans of one traced CLI run, kept in memory until `dump`."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: List[list] = []   # [name, start, end, parent index, counts]
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        self.count_failed: Counter = Counter()
        self.missing: List[str] = []

    def span(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    rec[4] = count(args, kwargs, result)
                except _COUNT_ERRORS:
                    self.count_failed[name] += 1
            return result
        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for name, path, count in SPANS:
            self._replace(package, modules, name, path,
                          lambda fn, name=name, count=count: self.span(name, fn, count))
        for name, path, field in COUNTS:
            key = f"{name}.{field}"
            self.counters[key] = 0
            self._replace(package, modules, name, path,
                          lambda fn, key=key: self.counter(key, fn))
        table = _resolve(package, ROW_TABLE.split("."))
        if isinstance(table, dict):
            for kind, runner in list(table.items()):
                table[kind] = self.span(ROW_SPAN, runner)
        else:
            self.missing.append(ROW_SPAN)

    def _replace(self, package, modules, name, path, make) -> None:
        *owner_path, attr = path.split(".")
        owner = _resolve(package, owner_path)
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(name)
                return
            setattr(owner, attr, make(original))
            return
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapped = make(original)
        for module in modules:  # every name the package binds this function to
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "missing": self.missing,
                       "count_failed": dict(self.count_failed),
                       "counters": dict(self.counters), "spans": self.spans}, fh)


def _resolve(obj, parts):
    for part in parts:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _nearest_rank(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    i = max(0, min(len(sorted_values) - 1, int(np.ceil(q * len(sorted_values))) - 1))
    return sorted_values[i]


def layer_metrics(trace: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer calls, self time and summed counts from a TRACE_FILE's contents.

    Self time is a span's duration minus the durations of its child spans;
    the run is single-threaded, so children never overlap.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name: Dict[str, Dict[str, float]] = {}
    rows: List[float] = []
    for i, (name, start, end, _, counts) in enumerate(spans):
        agg = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        for key, value in (counts or {}).items():
            if key.endswith("_max"):
                agg[key] = max(agg.get(key, value), value)
            else:
                agg[key] = agg.get(key, 0) + value
        if name == ROW_SPAN:
            rows.append(end - start)
    metrics: Dict[str, float] = dict(trace["counters"])
    for name, agg in per_name.items():
        for key, value in agg.items():
            metrics[f"{name}.{key}"] = value
    enc = per_name.get("codec.encode_block")
    if enc:
        metrics["codec.encode_block.hit_ratio"] = enc.get("hit", 0) / enc["calls"]
        metrics["codec.encode_block.scan_depth_mean"] = enc.get("scan_depth", 0) / enc["calls"]
    rows.sort()
    metrics.update({
        "harness.row_s.p50": _nearest_rank(rows, 0.5),
        "harness.row_s.p90": _nearest_rank(rows, 0.9),
        "harness.row_s.max": rows[-1] if rows else 0.0,
        "harness.row_s.count": len(rows),
    })
    return metrics


def main(argv: List[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    import markovcoord.cli  # imports every module the CLI uses

    tracer = Tracer()
    tracer.install(markovcoord)
    try:
        return markovcoord.cli.main(cli_argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
