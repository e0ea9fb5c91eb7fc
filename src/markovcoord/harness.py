"""Experiment orchestration: JSON configs, seeded Monte-Carlo sweeps,
record aggregation, and diff-friendly report emission.

A config names an experiment kind, a finite-alphabet instance (source
pmf, channel kernel, auxiliary and decoder kernels), sweep lists, and a
trial count.  Every sweep point x trial gets a seed derived from a hash
of (master_seed, point parameters, trial index), so records are stable
under sweep reordering and fully determined by (config, master_seed).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .codec import (
    DecodeStatus,
    SchemeConfig,
    joint_packing_event,
    message_count,
    run_scheme,
)
from .probability import AssumptionViolated, ConvergenceError, Dist, Kernel
from .region import InnerCandidate, optimize_auxiliary
from .rng import derive_key
from .typicality import aep_audit, prop1_gaps, sample_pairs

KINDS = ("region", "simulate", "typicality-audit", "aep-audit", "packing-probe")

DEFAULTS: Dict[str, Any] = {
    "trials": 1,
    "master_seed": 0,
    "output_path": "out",
    "options": {
        "cover_eps": None,       # simulate: covering radius (defaults to eps)
        "scan_limit": None,      # simulate: covering-search cap
        "optimizer_budget": 30,  # region: coordinate-ascent sweeps
        "optimizer_starts": 16,  # region: multi-start count
        "optimize": True,        # region: run the auxiliary search
        "audit_max_pairs": 10_000_000,   # aep-audit enumeration guard
        "audit_sample_size": 20_000,     # aep-audit fallback sample size
    },
    "sweep_defaults": {"eps": [0.05, 0.1, 0.2]},
}

_SWEEP_KEYS = {
    "region": ("w_size",),
    "simulate": ("n", "num_blocks", "rate", "eps"),
    "typicality-audit": ("n", "eps"),
    "aep-audit": ("n", "eps"),
    "packing-probe": ("n", "rate", "eps"),
}


class ParseError(RuntimeError):
    """Config file failed to parse; carries line/column diagnostics."""


class ValidationError(RuntimeError):
    """Config parsed but is invalid; `fields` lists the offenders."""

    def __init__(self, fields: List[str]):
        super().__init__("invalid config: " + "; ".join(fields))
        self.fields = fields


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    kind: str
    candidate: InnerCandidate   # the instance; every row shares what it derives
    y0: int                     # channel state before the first block
    sweep: Dict[str, List[Any]]
    trials: int
    master_seed: int
    output_path: str
    options: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        c = self.candidate
        instance = {
            "u_pmf": c.p_u.pmf.tolist(), "x_pmf": c.p_x.pmf.tolist(),
            "channel": c.channel.table.tolist(),
            "w_given_ux": c.p_w_given_ux.table.tolist(),
            "v_given_yxw": c.p_v_given_yxw.table.tolist(), "y0": self.y0,
        }
        return {
            "kind": self.kind, "instance": instance,
            "sweep": {k: list(v) for k, v in sorted(self.sweep.items())},
            "trials": self.trials, "master_seed": self.master_seed,
            "output_path": self.output_path,
            "options": dict(sorted(self.options.items())),
        }


def default_config(kind: str) -> dict:
    """Template config with every default applied (--print-defaults)."""
    sweep = {k: [] for k in _SWEEP_KEYS[kind]}
    if "eps" in sweep:
        sweep["eps"] = list(DEFAULTS["sweep_defaults"]["eps"])
    return {
        "kind": kind,
        "instance": {
            "u_pmf": [0.5, 0.5], "x_pmf": [0.5, 0.5],
            "channel": [[[0.75, 0.25], [0.71, 0.29]],
                        [[0.25, 0.75], [0.29, 0.71]]],
            "w_given_ux": [[[0.94, 0.06], [0.94, 0.06]],
                           [[0.86, 0.14], [0.86, 0.14]]],
            "v_given_yxw": [[[[0.9, 0.1], [0.1, 0.9]], [[0.9, 0.1], [0.1, 0.9]]],
                            [[[0.1, 0.9], [0.9, 0.1]], [[0.1, 0.9], [0.9, 0.1]]]],
            "y0": 0,
        },
        "sweep": sweep,
        "trials": DEFAULTS["trials"],
        "master_seed": DEFAULTS["master_seed"],
        "output_path": DEFAULTS["output_path"],
        "options": dict(DEFAULTS["options"]),
    }


def read_config(path: str) -> dict:
    """Parse a JSON config file into a dict; raises ParseError with position."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return raw


def load_config(path: str, kind: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    `kind` from the CLI subcommand overrides/substitutes the file's kind;
    a mismatch between the two is a validation error.
    """
    return config_from_dict(read_config(path), kind=kind)


# `type(v) is int` also rejects JSON true/false, which Python counts as ints
_POSITIVE_INT = (lambda v: type(v) is int and v >= 1, "a positive integer")
_POSITIVE_REAL = (lambda v: type(v) in (int, float) and 0 < v < math.inf,
                  "a finite positive number")

# (accepts, description) of every top-level scalar, sweep value and option
_CHECKS: Dict[str, Tuple[Any, str]] = {
    "trials": _POSITIVE_INT,
    "master_seed": (lambda v: type(v) is int and v >= 0, "a nonnegative integer"),
    "output_path": (lambda v: isinstance(v, str) and v != "", "a nonempty string"),
    "n": _POSITIVE_INT,
    "num_blocks": (lambda v: type(v) is int and v >= 2, "an integer >= 2"),
    "rate": (lambda v: type(v) in (int, float) and 0 <= v < math.inf,
             "a finite nonnegative number"),
    "eps": _POSITIVE_REAL,
    "w_size": _POSITIVE_INT,
    "cover_eps": (lambda v: v is None or _POSITIVE_REAL[0](v), "null or " + _POSITIVE_REAL[1]),
    "scan_limit": (lambda v: v is None or _POSITIVE_INT[0](v), "null or " + _POSITIVE_INT[1]),
    "optimizer_budget": _POSITIVE_INT,
    "optimizer_starts": _POSITIVE_INT,
    "optimize": (lambda v: isinstance(v, bool), "true or false"),
    "audit_max_pairs": _POSITIVE_INT,
    "audit_sample_size": _POSITIVE_INT,
}


def _valid(field: str, key: str, value: Any, problems: List[str]) -> bool:
    accepts, description = _CHECKS[key]
    if not accepts(value):
        problems.append(f"{field}: must be {description}, got {value!r}")
    return accepts(value)


def _build_candidate(inst: dict, problems: List[str]) -> Optional[InnerCandidate]:
    """The instance's InnerCandidate, or None with every fault in `problems`."""
    parts = {}
    for fname, build in [("u_pmf", Dist), ("x_pmf", Dist), ("channel", Kernel),
                         ("w_given_ux", Kernel), ("v_given_yxw", Kernel)]:
        if fname not in inst:
            problems.append(f"instance.{fname}: missing")
            continue
        try:
            parts[fname] = build(np.asarray(inst[fname], dtype=float))
        except (ValueError, TypeError) as e:
            problems.append(f"instance.{fname}: {e}")
    if len(parts) < 5:
        return None
    try:
        candidate = InnerCandidate(
            p_u=parts["u_pmf"], p_x=parts["x_pmf"], p_w_given_ux=parts["w_given_ux"],
            channel=parts["channel"], p_v_given_yxw=parts["v_given_yxw"])
    except (ValueError, AssumptionViolated, ConvergenceError) as e:
        problems.append(f"instance: {e}")
        return None
    ny, y0 = candidate.channel.output_size, inst.get("y0", 0)
    if not (type(y0) is int and 0 <= y0 < ny):
        problems.append(f"instance.y0: must be a state index in [0, {ny}), got {y0!r}")
        return None
    return candidate


def config_from_dict(raw: dict, kind: Optional[str] = None) -> ExperimentConfig:
    problems: List[str] = []
    file_kind = raw.get("kind")
    if kind is not None and file_kind is not None and kind != file_kind:
        problems.append(f"kind: file says {file_kind!r}, command says {kind!r}")
    eff_kind = kind or file_kind
    if eff_kind not in KINDS:
        problems.append(f"kind: must be one of {KINDS}, got {eff_kind!r}")
        raise ValidationError(problems)

    not_objects = [k for k in ("instance", "sweep", "options")
                   if not isinstance(raw.get(k, {}), dict)]
    if not_objects:
        raise ValidationError(problems + [f"{k}: must be an object" for k in not_objects])
    inst_raw = raw.get("instance", {})
    candidate = _build_candidate(inst_raw, problems)

    sweep_raw = raw.get("sweep", {})
    sweep: Dict[str, List[Any]] = {}
    for key in _SWEEP_KEYS[eff_kind]:
        values = sweep_raw.get(key)
        if values is None and key in DEFAULTS["sweep_defaults"]:
            values = list(DEFAULTS["sweep_defaults"][key])
        if not values or not isinstance(values, list):
            problems.append(f"sweep.{key}: missing, empty or not a list")
        elif all([_valid(f"sweep.{key}", key, v, problems) for v in values]):
            sweep[key] = list(values)
    for key in sweep_raw:
        if key not in _SWEEP_KEYS[eff_kind]:
            problems.append(f"sweep.{key}: not a sweep parameter of kind {eff_kind!r}")

    scalars = {key: raw.get(key, DEFAULTS[key])
               for key in ("trials", "master_seed", "output_path")}
    for key, value in scalars.items():
        _valid(key, key, value, problems)

    options = dict(DEFAULTS["options"])
    for k, v in raw.get("options", {}).items():
        if k not in options:
            problems.append(f"options.{k}: unknown option")
        elif _valid(f"options.{k}", k, v, problems):
            options[k] = v

    if problems:
        raise ValidationError(problems)
    return ExperimentConfig(
        kind=eff_kind, candidate=candidate, y0=inst_raw.get("y0", 0), sweep=sweep,
        options=options, **scalars,
    )


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the canonical config dict; stable under field reordering."""
    canon = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def point_seed(master_seed: int, point: Dict[str, Any], trial: int) -> int:
    """Per-trial seed from a hash of (master seed, point params, trial)."""
    canon = json.dumps(point, sort_keys=True)
    h = int.from_bytes(hashlib.sha256(canon.encode()).digest()[:8], "big")
    return derive_key(master_seed, h, trial)


@dataclass(eq=False)
class RecordSet:
    """Rows of (parameters, metrics) pairs plus run metadata."""

    rows: List[Dict[str, Any]]
    metadata: Dict[str, Any]

    @property
    def param_names(self) -> List[str]:
        names: set = set()
        for row in self.rows:
            names.update(row["params"].keys())
        return sorted(names)

    @property
    def metric_names(self) -> List[str]:
        names: set = set()
        for row in self.rows:
            names.update(row["metrics"].keys())
        return sorted(names)

    @property
    def has_errors(self) -> bool:
        return any(row["error"] for row in self.rows)


def _sweep_points(sweep: Dict[str, List[Any]]):
    # canonical row order: sorted by parameter name, then value
    keys = sorted(sweep.keys())
    for combo in itertools.product(*(sorted(sweep[k]) for k in keys)):
        yield dict(zip(keys, combo))


def run_experiment(cfg: ExperimentConfig) -> RecordSet:
    """Execute all sweep points x trials; failures become error rows."""
    runner = _RUNNERS[cfg.kind]
    rows: List[Dict[str, Any]] = []
    for point in _sweep_points(cfg.sweep):
        for trial in range(cfg.trials):
            seed = point_seed(cfg.master_seed, point, trial)
            params = dict(point, trial=trial, seed=seed)
            try:
                metrics = runner(cfg, point, seed)
                rows.append({"params": params, "metrics": metrics, "error": ""})
            except Exception as e:  # error rows never abort the sweep
                rows.append({"params": params, "metrics": {}, "error": f"{type(e).__name__}: {e}"})
    metadata = {
        "kind": cfg.kind,
        "config_hash": config_hash(cfg),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return RecordSet(rows=rows, metadata=metadata)


def _run_region(cfg, point, seed):
    cand = cfg.candidate
    metrics = {
        "i_channel": cand.i_channel,
        "i_auxiliary": cand.i_auxiliary,
        "candidate_slack": cand.i_channel - cand.i_auxiliary,
    }
    if cfg.options["optimize"]:
        _, report = optimize_auxiliary(
            cand.target, w_size=int(point["w_size"]),
            budget=int(cfg.options["optimizer_budget"]),
            seed=seed, starts=int(cfg.options["optimizer_starts"]))
        metrics.update(
            best_slack=report.slack, best_feasible=int(report.feasible),
            best_marginal_gap=report.marginal_gap)
    return metrics


def _run_simulate(cfg, point, seed):
    scfg = SchemeConfig(
        candidate=cfg.candidate, n=int(point["n"]),
        num_blocks=int(point["num_blocks"]), rate=float(point["rate"]),
        eps=float(point["eps"]), cover_eps=cfg.options["cover_eps"],
        y0=cfg.y0, seed=seed, scan_limit=cfg.options["scan_limit"])
    r = run_scheme(scfg)
    b = r.num_blocks
    return {
        "tv_all": r.tv_all, "tv_coord": r.tv_coord,
        "mixing_gap": r.mixing_gap(), "mixing_bound": r.mixing_bound(),
        "mixing_exact": int(r.mixing_identity_exact()),
        "rate_a": float(r.event_a.sum() / (b - 1)),
        "rate_b": float(r.event_b.sum() / b),
        "rate_c": float(r.event_c.sum() / (b - 1)),
        "m_count": message_count(scfg.n, scfg.rate),
        "decode_none": r.decode_status.count(DecodeStatus.NONE.value),
        "decode_ambiguous": r.decode_status.count(DecodeStatus.AMBIGUOUS.value),
    }


def _run_typicality_audit(cfg, point, seed):
    cand, y0 = cfg.candidate, cfg.y0
    n, eps = int(point["n"]), float(point["eps"])
    (x_seq,), (y_seq,) = sample_pairs(seed, n, cand.p_x, cand.channel, y0)
    gaps = prop1_gaps(x_seq, y_seq, y0, cand.p_x, cand.channel, pi=cand.equilibrium)
    joint_typical = gaps["joint"] <= eps
    slop = 1e-9  # independent rounding of the separate gap summations
    projections_ok = (not joint_typical) or (
        gaps["x"] <= eps + slop and gaps["pair"] <= eps + slop
        and gaps["conditional"] <= 2 * eps + slop
        and gaps["joint"] <= 2 * eps + slop)
    return {
        "joint_gap": gaps["joint"], "x_gap": gaps["x"], "pair_gap": gaps["pair"],
        "conditional_gap": gaps["conditional"],
        "joint_typical": int(joint_typical), "projections_ok": int(projections_ok),
    }


def _run_aep_audit(cfg, point, seed):
    cand = cfg.candidate
    report = aep_audit(
        int(point["n"]), float(point["eps"]), cand.p_x, cand.channel,
        y0=cfg.y0, max_pairs=int(cfg.options["audit_max_pairs"]),
        sample_size=int(cfg.options["audit_sample_size"]), seed=seed)
    d = report.to_dict()
    d["exact"] = int(d.pop("mode") == "exact")
    for key in ("sandwich_ok", "all_pass"):
        d[key] = int(d[key])
    d["cardinality_ok"] = -1 if d["cardinality_ok"] is None else int(d["cardinality_ok"])
    d["typical_count"] = -1 if d["typical_count"] is None else d["typical_count"]
    for drop in ("n", "eps", "y0"):
        d.pop(drop)
    return d


def _run_packing_probe(cfg, point, seed):
    out = joint_packing_event(
        cfg.candidate, int(point["n"]), float(point["rate"]),
        float(point["eps"]), cfg.y0, seed)
    return {
        "event": int(out["event"]), "m_count": out["m_count"],
        "wrong_candidates": out["wrong_candidates"],
        "i_channel_threshold": cfg.candidate.i_channel,
    }


_RUNNERS = {
    "region": _run_region,
    "simulate": _run_simulate,
    "typicality-audit": _run_typicality_audit,
    "aep-audit": _run_aep_audit,
    "packing-probe": _run_packing_probe,
}


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def emit_report(rs: RecordSet, outdir: str) -> Dict[str, str]:
    """Write records.csv, summary.json, and long.csv under outdir.

    records.csv holds one row per (sweep point, trial) with a fixed
    header; long.csv is the plot-ready long format (one metric per row);
    summary.json aggregates each metric per sweep point and is strict
    JSON: a non-finite aggregate is written as null.  Apart from the
    timestamp inside summary.json, emission is byte-deterministic.
    """
    os.makedirs(outdir, exist_ok=True)
    params = rs.param_names
    metrics = rs.metric_names
    paths = {
        "records": os.path.join(outdir, "records.csv"),
        "summary": os.path.join(outdir, "summary.json"),
        "long": os.path.join(outdir, "long.csv"),
    }

    with open(paths["records"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(params + metrics + ["error"])
        for row in rs.rows:
            writer.writerow(
                [_fmt(row["params"].get(p, "")) for p in params]
                + [_fmt(row["metrics"][m]) if m in row["metrics"] else ""
                   for m in metrics]
                + [row["error"]])

    with open(paths["long"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(params + ["metric", "value"])
        for row in rs.rows:
            for m in metrics:
                if m in row["metrics"]:
                    writer.writerow(
                        [_fmt(row["params"].get(p, "")) for p in params]
                        + [m, _fmt(row["metrics"][m])])

    summary = {"metadata": rs.metadata, "points": []}
    groups: Dict[str, Dict[str, Any]] = {}
    point_keys = [p for p in params if p not in ("trial", "seed")]
    for row in rs.rows:
        key = json.dumps({p: row["params"].get(p) for p in point_keys}, sort_keys=True)
        groups.setdefault(key, {"rows": [], "errors": 0})
        groups[key]["rows"].append(row)
        groups[key]["errors"] += bool(row["error"])
    for key in sorted(groups):
        rows = groups[key]["rows"]
        agg: Dict[str, Any] = {"params": json.loads(key), "trials": len(rows),
                               "errors": groups[key]["errors"], "metrics": {}}
        for m in metrics:
            values = [r["metrics"][m] for r in rows if m in r["metrics"]]
            if values and all(isinstance(v, (int, float)) for v in values):
                arr = np.asarray(values, dtype=float)
                with np.errstate(invalid="ignore"):  # inf - inf between +-inf values
                    stats = {"mean": arr.mean(), "median": np.median(arr),
                             "q10": np.quantile(arr, 0.1), "q90": np.quantile(arr, 0.9)}
                agg["metrics"][m] = {k: float(v) if np.isfinite(v) else None
                                     for k, v in stats.items()}
        summary["points"].append(agg)
    with open(paths["summary"], "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_fmt,
                  allow_nan=False)
        fh.write("\n")
    return paths
