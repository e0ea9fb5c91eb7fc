"""Benchmark of the markovcoord CLI on four pinned workloads.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every workload runs ``python -m markovcoord.cli <kind> --config ... --out ...
--seed N`` in fresh child processes, with ``src/`` of this checkout on
PYTHONPATH and the BLAS/OpenMP thread variables set to 1.

``--trace 0`` (end to end, tracing off): the config is loaded in
SETUP_PROBES short children to time set-up, then the CLI runs repeatedly
until ``--seconds`` is used up.  Reported per workload, as medians with
their sample counts: ``wall_s`` (child start to exit), ``setup_s`` (child
start until ``harness.load_config`` returned), ``rows_per_s`` (sweep rows
over wall_s - setup_s), ``peak_rss_mb`` (the child's ru_maxrss) and
``failed_frac`` (failed rows over attempted rows).

``--trace 1`` (per layer): one untraced and one traced run of the CLI;
the traced run goes through ``traced_cli.py``, which wraps the public
functions of each module.  Reported: per-layer calls, self time and counts,
and ``trace.overhead_s`` (traced wall time minus untraced wall time).

Every run checks the outputs (see ``workloads.check_outputs``), prints the
digest of the pinned columns, the environment, and, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from traced_cli import TARGET_NAMES, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, check_outputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# The program is single-threaded; one BLAS/OpenMP thread keeps runs steady.
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150.0

# Imports the package and loads the config the way the CLI does, then reports
# the monotonic clock (shared with the parent on Linux) and the environment.
_SETUP_PROBE = """
import json, platform, sys, time
import markovcoord, markovcoord.cli
markovcoord.harness.load_config(sys.argv[1], kind=sys.argv[2])
loaded = time.monotonic()
import numpy
print(json.dumps({"loaded": loaded, "module": markovcoord.__file__,
                  "numpy": numpy.__version__, "python": platform.python_version()}))
"""


class BenchError(RuntimeError):
    """The program under test cannot be run at all."""


@dataclass
class Child:
    started: float   # time.monotonic() just before the spawn
    wall_s: float
    returncode: int
    rss_mb: float
    stdout: str


def _child_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREADS)


def spawn(argv: List[str], workdir: str) -> Child:
    """Run one child to completion; wall time from spawn to reap."""
    out_path = os.path.join(workdir, "child.out")
    with open(out_path, "wb") as out, open(os.path.join(workdir, "child.err"), "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    return Child(started, wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout)


def probe_setup(w: Workload, workdir: str) -> Tuple[float, dict]:
    child = spawn([sys.executable, "-c", _SETUP_PROBE, w.config, w.kind], workdir)
    if child.returncode != 0:
        with open(os.path.join(workdir, "child.err")) as fh:
            raise BenchError(f"cannot load markovcoord from {SRC}: {fh.read()[-400:]}")
    info = json.loads(child.stdout.strip().splitlines()[-1])
    if not Path(info["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"markovcoord was imported from {info['module']}, not {SRC}")
    return info["loaded"] - child.started, info


@dataclass
class Invocation:
    child: Child
    digest: str
    rows: int
    failed: int
    problems: List[str]
    nonfinite: int
    backend: str


def _summary_probe(outdir: str) -> Tuple[int, str]:
    """NaN/Infinity tokens in summary.json (invalid strict JSON) and the backend."""
    tokens = []
    try:
        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.load(fh, parse_constant=lambda t: tokens.append(t) or 0.0)
    except (OSError, ValueError):
        return 0, "unknown"
    return len(tokens), str(summary.get("metadata", {}).get("backend", "unknown"))


def invoke(w: Workload, seed: int, workdir: str, trace_file: Optional[str] = None) -> Invocation:
    outdir = tempfile.mkdtemp(prefix="out-", dir=workdir)
    cli = [w.kind, "--config", w.config, "--out", outdir, "--seed", str(seed)]
    if trace_file is None:
        argv = [sys.executable, "-m", "markovcoord.cli", *cli]
    else:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), trace_file, *cli]
    child = spawn(argv, workdir)
    digest, error_rows, problems = check_outputs(w, outdir, seed)
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}")
    nonfinite, backend = _summary_probe(outdir)
    shutil.rmtree(outdir)
    failed = w.rows if problems else error_rows
    return Invocation(child, digest, w.rows, failed, problems, nonfinite, backend)


def _tail(values: List[float]) -> str:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return f"n={n}; no tail percentile below 20 samples"
    p = (100 * (n - 10)) // n
    ranked = sorted(values)
    return f"n={n}; p{p}={ranked[-11]:.6g}"


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "markovcoord").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(info: dict, backend: str) -> dict:
    return {
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "nproc": os.cpu_count(), "python": info["python"], "numpy": info["numpy"],
        "backend": backend, "threads": THREADS,
    }


def _result(name: str, invs: List[Invocation], spec: List[dict], values: dict) -> dict:
    """The result object; prints every output problem of the invocations."""
    ok = True
    for i, inv in enumerate(invs):
        for problem in inv.problems:
            print(f"{name}: invocation {i}: {problem}")
            ok = False
        if inv.digest != invs[0].digest:
            print(f"{name}: invocation {i}: digest differs from invocation 0")
            ok = False
    failed = sum(inv.failed for inv in invs)
    return {"correct": ok and failed == 0, "attempted": sum(inv.rows for inv in invs),
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in spec}}


def run_untraced(w: Workload, seed: int, seconds: float, workdir: str,
                 spec: List[dict]) -> Tuple[dict, dict]:
    t_start = time.monotonic()
    _, info = probe_setup(w, workdir)  # untimed: fills the bytecode cache
    setups = [probe_setup(w, workdir)[0] for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(setups)
    invs: List[Invocation] = []
    while True:
        invs.append(invoke(w, seed, workdir))
        typical = statistics.median(inv.child.wall_s for inv in invs)
        if time.monotonic() - t_start + typical > seconds:
            break
    samples = {
        "wall_s": [inv.child.wall_s for inv in invs],
        "setup_s": setups,
        "rows_per_s": [inv.rows / (inv.child.wall_s - setup_s) for inv in invs],
        "peak_rss_mb": [inv.child.rss_mb for inv in invs],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    result = _result(w.name, invs, spec, values)
    print(f"{w.name}: seed={seed} invocations={len(invs)} digest={invs[0].digest} "
          f"check={'pinned digest' if seed == DEFAULT_SEED else 'identities'} "
          f"{'ok' if result['correct'] else 'FAILED'}")
    for m in spec:
        print(f"{w.name} {m['name']:<12} {values[m['name']]:12.6g} {m['unit']:<5} "
              f"(median; {_tail(samples[m['name']])})")
    print(f"{w.name} wall_s samples: " + " ".join(f"{x:.3f}" for x in samples["wall_s"]))
    failed, attempted = result["failed"], result["attempted"]
    print(f"{w.name} {'failed_frac':<12} {failed / attempted:12.6g} ratio "
          f"({failed} of {attempted} rows)")
    print(f"{w.name} harness.summary_nonfinite {invs[0].nonfinite} "
          "(NaN/Infinity tokens in summary.json; not counted as a failure)")
    return result, environment(info, invs[0].backend)


def run_traced(w: Workload, seed: int, workdir: str, spec: List[dict]) -> Tuple[dict, dict]:
    _, info = probe_setup(w, workdir)  # untimed: fills the bytecode cache
    plain = invoke(w, seed, workdir)
    trace_file = os.path.join(workdir, "trace.json")
    traced = invoke(w, seed, workdir, trace_file)
    invs = [plain, traced]
    try:
        with open(trace_file) as fh:
            trace = json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"traced run wrote no trace: {e}") from e
    metrics = layer_metrics(trace)
    metrics["harness.summary_nonfinite"] = traced.nonfinite
    metrics["trace.overhead_s"] = traced.child.wall_s - plain.child.wall_s
    values = {}
    for m in spec:
        name = m["name"]
        if name not in metrics and name.rsplit(".", 1)[0] not in TARGET_NAMES:
            raise BenchError(f"BENCHMARK.json names {name}, which no wrapper measures")
        values[name] = metrics.get(name, 0)  # 0: never called, or target missing
    result = _result(w.name, invs, spec, values)
    print(f"{w.name}: seed={seed} traced run {trace['run_id']}, {len(trace['spans'])} spans, "
          f"digest={traced.digest} {'ok' if result['correct'] else 'FAILED'}")
    if trace["missing"]:
        print(f"{w.name}: wrap targets missing: {', '.join(sorted(trace['missing']))}")
    if trace["count_failed"]:
        print(f"{w.name}: counts unreadable on: {', '.join(sorted(trace['count_failed']))}")
    top = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
    print(f"{w.name}: largest self time: "
          + ", ".join(f"{k[:-len('.self_s')]} {v:.3f}s" for v, k in top[:4]))
    for m in spec:
        print(f"{w.name} {m['name']:<40} {values[m['name']]:14.6g} {m['unit']}")
    return result, environment(info, traced.backend)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        if not (SRC / "markovcoord" / "__init__.py").is_file():
            raise BenchError(f"no markovcoord package under {SRC}")
    except (OSError, ValueError, BenchError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    results = {}
    try:
        for name in names:
            w = WORKLOADS[name]
            if args.trace:
                results[name], env = run_traced(w, args.seed, workdir, spec)
            else:
                results[name], env = run_untraced(w, args.seed, seconds, workdir, spec)
            print(f"{name}: env {json.dumps(env, sort_keys=True)}")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
