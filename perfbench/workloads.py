"""The pinned benchmark workloads and the check of their CLI outputs.

Each workload is one JSON config under ``configs/`` run through
``python -m markovcoord.cli <kind>``.  The output check hashes
``records.csv`` and ``long.csv`` restricted to the columns pinned here, so
columns added later do not change the digest, and checks identities that
hold for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

# The seed whose digests are pinned below; any other seed is checked by identities.
DEFAULT_SEED = 1

_SIM_PARAMS = ["eps", "n", "num_blocks", "rate", "seed", "trial"]
_SIM_METRICS = ["m_count", "mixing_bound", "mixing_exact", "mixing_gap", "rate_a",
                "rate_b", "rate_c", "tv_all", "tv_coord"]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    rows: int                       # sweep rows one invocation writes
    params: List[str]               # pinned parameter columns
    metrics: List[str]              # pinned metric columns
    identities: Dict[str, str]      # column -> value required on every row
    digest: str                     # sha256 of the pinned columns at DEFAULT_SEED

    @property
    def config(self) -> str:
        return os.path.join(CONFIG_DIR, self.name + ".json")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        name="sim-channel", kind="simulate", rows=100,
        params=_SIM_PARAMS, metrics=_SIM_METRICS,
        identities={"mixing_exact": "1"},
        digest="3fd3d468ce34b86aba5595e1850e3fa570d3bfc01f011cbb2b30ecf5a03684f8"),
    Workload(
        name="sim-codebook", kind="simulate", rows=2,
        params=_SIM_PARAMS, metrics=_SIM_METRICS,
        identities={"mixing_exact": "1"},
        digest="df733501ac1437acbd603d359b83f38092eee92c80973cb057f8e5ba6da5ceb9"),
    Workload(
        name="region-search", kind="region", rows=1,
        params=["seed", "trial", "w_size"],
        metrics=["best_feasible", "best_marginal_gap", "best_slack",
                 "candidate_slack", "i_auxiliary", "i_channel"],
        identities={},
        digest="c9a075f92e76406f5432ac5ab81b0c9a96ed3b6b3341f877a4d6e03e5bbcdde3"),
    Workload(
        name="aep-audit", kind="aep-audit", rows=2,
        params=["eps", "n", "seed", "trial"],
        metrics=["all_pass", "boundary", "cardinality_log2_bound", "cardinality_ok",
                 "delta", "exact", "h_rate", "l_w", "l_x", "nll_max", "nll_min",
                 "pairs_checked", "pairs_total", "prob_mass_checked", "sandwich_ok",
                 "typical_count", "typical_prob"],
        identities={"sandwich_ok": "1", "all_pass": "1"},
        digest="1faad8594897781b44a9831e70af8b633c47d112876692a77a96f11b6e30d60d"),
]}


def _read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(w: Workload, outdir: str, seed: int) -> Tuple[str, int, List[str]]:
    """Digest of the pinned columns, rows that recorded an error, and problems.

    A problem is anything that makes the whole invocation count as failed:
    a missing file or pinned column, a wrong row count, a broken identity,
    or (at DEFAULT_SEED) a digest that differs from the pinned one.
    """
    try:
        records = _read_csv(os.path.join(outdir, "records.csv"))
        long_rows = _read_csv(os.path.join(outdir, "long.csv"))
    except OSError as e:
        return "", 0, [f"cannot read outputs: {e}"]
    problems: List[str] = []
    if len(records) != w.rows:
        problems.append(f"records.csv has {len(records)} rows, expected {w.rows}")
    error_rows = sum(bool(r.get("error")) for r in records)
    for column, want in w.identities.items():
        bad = sum(r.get(column) != want for r in records)
        if bad:
            problems.append(f"{column} != {want} on {bad} row(s)")
    h = hashlib.sha256()
    try:
        for r in records:
            h.update(("\x1f".join(r[c] for c in w.params + w.metrics + ["error"])
                      + "\n").encode())
        h.update(b"long.csv\n")
        for r in long_rows:
            if r["metric"] in w.metrics:
                h.update(("\x1f".join(r[c] for c in w.params + ["metric", "value"])
                          + "\n").encode())
    except KeyError as e:
        return "", error_rows, problems + [f"pinned column {e.args[0]} missing"]
    digest = h.hexdigest()
    if seed == DEFAULT_SEED and digest != w.digest:
        problems.append(f"digest {digest[:16]} differs from pinned {w.digest[:16]}")
    return digest, error_rows, problems
