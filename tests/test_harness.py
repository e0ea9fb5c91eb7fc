import contextlib
import csv
import io
import json
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from markovcoord import harness, probability
from markovcoord.cli import main as cli_main
from markovcoord.codec import run_scheme
from markovcoord.harness import (
    KINDS,
    ParseError,
    RecordSet,
    ValidationError,
    config_from_dict,
    config_hash,
    default_config,
    emit_report,
    load_config,
    point_seed,
    run_experiment,
)


def _simulate_raw(**overrides):
    raw = default_config("simulate")
    raw["sweep"] = {"n": [80], "num_blocks": [4], "rate": [0.0166], "eps": [0.24]}
    raw["options"]["cover_eps"] = 0.17
    raw["trials"] = 2
    raw.update(overrides)
    return raw


_SWEEPS = {"region": {"w_size": [2]}, "typicality-audit": {"n": [20], "eps": [0.3]},
           "aep-audit": {"n": [6], "eps": [0.8]},
           "packing-probe": {"n": [20], "rate": [0.05], "eps": [0.3]}}


def _valid_raw(kind):
    """A small config of `kind` that validates."""
    return _simulate_raw() if kind == "simulate" else dict(
        default_config(kind), sweep={k: list(v) for k, v in _SWEEPS[kind].items()})


def test_default_configs_validate():
    for kind in KINDS:
        raw = default_config(kind)
        for key in raw["sweep"]:
            if not raw["sweep"][key]:
                raw["sweep"][key] = [2] if key == "w_size" else [40]
        if kind == "simulate":
            raw["sweep"].setdefault("num_blocks", [3])
        cfg = config_from_dict(raw)
        assert cfg.kind == kind


def test_load_config_round_trip(tmp_path):
    raw = _simulate_raw()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(str(path))
    canon = cfg.to_dict()
    # dump(load(x)) is a fixed point
    path2 = tmp_path / "cfg2.json"
    path2.write_text(json.dumps(canon))
    assert load_config(str(path2)).to_dict() == canon


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  \"kind\": simulate\n}")
    with pytest.raises(ParseError, match=r":2:"):
        load_config(str(path))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_tokens_fail_to_parse(tmp_path, capsys, value):
    # Python's json reads NaN, Infinity and -Infinity; a config may not
    raw = _simulate_raw()
    raw["instance"]["u_pmf"] = [value, 1.0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    token = json.dumps(value)
    with pytest.raises(ParseError, match=f"{token} is not a finite number"):
        load_config(str(path))
    assert cli_main(["simulate", "--config", str(path)]) == 2
    assert f"{token} is not a finite number" in capsys.readouterr().err


def test_config_that_is_not_utf8_fails_to_parse(tmp_path, capsys):
    # a 0xff byte inside a string is a parse error, not a decoding traceback
    text = json.dumps(_simulate_raw(output_path="out-X")).encode()
    path = tmp_path / "cfg.json"
    path.write_bytes(text.replace(b"out-X", b"out-\xff"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_config(str(path))
    assert cli_main(["simulate", "--config", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_largest_master_seed_is_accepted():
    assert config_from_dict(_simulate_raw(master_seed=2 ** 64 - 1)).master_seed == 2 ** 64 - 1


def test_validation_error_names_bad_pmf_row():
    raw = _simulate_raw()
    raw["instance"]["u_pmf"] = [0.5, 0.4]  # sums to 0.9
    with pytest.raises(ValidationError) as exc:
        config_from_dict(raw)
    assert any("u_pmf" in f for f in exc.value.fields)


def test_validation_error_on_kind_and_sweep():
    raw = _simulate_raw()
    raw["kind"] = "bogus"
    with pytest.raises(ValidationError):
        config_from_dict(raw)
    raw = _simulate_raw()
    raw["sweep"].pop("rate")
    with pytest.raises(ValidationError, match="rate"):
        config_from_dict(raw)
    raw = _simulate_raw()
    raw["sweep"]["w_size"] = [2]  # not a simulate parameter
    with pytest.raises(ValidationError, match="w_size"):
        config_from_dict(raw)


@pytest.mark.parametrize("kind,path,value", [
    ("simulate", ("trials",), True),
    ("simulate", ("options",), []),
    ("simulate", ("sweep",), [80]),
    ("simulate", ("master_seed",), True),
    ("simulate", ("instance", "y0"), 2),
    ("simulate", ("options", "scan_limit"), 0),
    ("simulate", ("options", "cover_eps"), "x"),
    ("simulate", ("sweep", "n"), [0]),
    ("simulate", ("sweep", "n"), ["abc"]),
    ("simulate", ("sweep", "eps"), [-0.1]),
    ("simulate", ("sweep", "num_blocks"), [1]),
    ("region", ("sweep", "w_size"), [0]),
    ("region", ("options", "optimizer_budget"), 0),
    ("region", ("options", "optimizer_starts"), 2.5),
    ("region", ("options", "optimizer_budget"), "yes"),
    ("aep-audit", ("options", "audit_max_pairs"), -1),
    ("aep-audit", ("options", "audit_sample_size"), "10"),
    ("simulate", ("instance", "v_given_yxw"), np.full((2, 2, 3, 2), 0.5).tolist()),
    ("simulate", ("master_seed",), 2 ** 64),
    ("simulate", ("instance", "u_pmf"), [True, False]),
    ("simulate", ("instance", "channel"), [[[True, 0.0], [0.71, 0.29]],
                                           [[0.25, 0.75], [0.29, 0.71]]]),
    ("simulate", ("instance", "x_pmf"), [float("nan"), 1.0]),
    ("simulate", ("instance", "w_given_ux"), [[[float("inf"), 0.0]] * 2] * 2),
    ("aep-audit", ("options", "audit_max_pairs"), 10 ** 7 + 1),
    ("simulate", ("instance", "w_given_ux"), [[[1.0]]]),  # shapes that disagree
    ("simulate", ("instance", "channel"), [[[1.0]]]),
])
def test_validation_error_names_bad_value(kind, path, value):
    # bad values fail at load, naming the field, instead of becoming error rows
    raw = _valid_raw(kind)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ValidationError) as exc:
        config_from_dict(raw)
    assert len(exc.value.fields) == 1 and exc.value.fields[0].startswith(".".join(path) + ": ")


# Each kind's own sweep keys and options, written out here rather than read
# from the harness, so a key that moves between kinds fails this test.
_OWN_KEYS = {
    "region": ({"w_size"}, {"optimizer_budget", "optimizer_starts"}),
    "simulate": ({"n", "num_blocks", "rate", "eps"}, {"cover_eps", "scan_limit"}),
    "typicality-audit": ({"n", "eps"}, set()),
    "aep-audit": ({"n", "eps"}, {"audit_max_pairs", "audit_sample_size"}),
    "packing-probe": ({"n", "rate", "eps"}, set()),
}
# a valid value of every key, so only its kind can make it fail
_VALUES = {"w_size": [2], "n": [20], "num_blocks": [3], "rate": [0.05], "eps": [0.3],
           "optimizer_budget": 5, "optimizer_starts": 4, "cover_eps": 0.2,
           "scan_limit": 100, "audit_max_pairs": 1000, "audit_sample_size": 100,
           "optimize": True}
_ALL_SWEEP = set().union(*(sweep for sweep, _ in _OWN_KEYS.values()))
_ALL_OPTIONS = {"optimize"}.union(*(options for _, options in _OWN_KEYS.values()))
_FOREIGN = ([(kind, "sweep", key) for kind, (sweep, _) in _OWN_KEYS.items()
             for key in sorted(_ALL_SWEEP - sweep)]
            + [(kind, "options", key) for kind, (_, options) in _OWN_KEYS.items()
               for key in sorted(_ALL_OPTIONS - options)])


@pytest.mark.parametrize("kind", KINDS)
def test_default_config_lists_only_its_own_keys(kind):
    raw = default_config(kind)
    assert set(raw["sweep"]) == _OWN_KEYS[kind][0]
    assert set(raw["options"]) == _OWN_KEYS[kind][1]


@pytest.mark.parametrize("kind,section,key", _FOREIGN)
def test_keys_of_another_kind_exit_2_naming_the_field(kind, section, key, tmp_path, capsys):
    raw = _valid_raw(kind)
    raw[section][key] = _VALUES[key]
    with pytest.raises(ValidationError) as exc:
        config_from_dict(raw)
    kind_of = "a sweep parameter" if section == "sweep" else "an option"
    assert exc.value.fields == [f"{section}.{key}: not {kind_of} of kind {kind!r}"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli_main([kind, "--config", str(path)]) == 2
    assert f"{section}.{key}: not" in capsys.readouterr().err


def test_config_hash_stable_under_reordering():
    raw = _simulate_raw()
    cfg1 = config_from_dict(raw)
    reordered = dict(reversed(list(raw.items())))
    cfg2 = config_from_dict(reordered)
    assert config_hash(cfg1) == config_hash(cfg2)


def test_point_seeds_distinct_and_order_free():
    points = [{"n": n, "eps": e} for n in (50, 100) for e in (0.1, 0.2)]
    seeds = [point_seed(7, p, t) for p in points for t in range(3)]
    assert len(set(seeds)) == len(seeds)
    assert point_seed(7, {"eps": 0.1, "n": 50}, 0) == point_seed(
        7, {"n": 50, "eps": 0.1}, 0)


def test_run_experiment_single_row_and_determinism():
    cfg = config_from_dict(_simulate_raw(trials=1))
    rs1 = run_experiment(cfg)
    assert len(rs1.rows) == 1
    assert not rs1.has_errors
    rs2 = run_experiment(cfg)
    assert rs1.rows == rs2.rows
    assert rs1.metadata["config_hash"] == rs2.metadata["config_hash"]


def test_run_experiment_assembles_the_instance_once(monkeypatch):
    from markovcoord import region

    cfg = config_from_dict(_simulate_raw(trials=3))
    calls = []
    original = region.assemble_inner
    monkeypatch.setattr(region, "assemble_inner",
                        lambda c: calls.append(c) or original(c))
    assert len(run_experiment(cfg).rows) == 3
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore:rate")
def test_run_experiment_error_isolation():
    # rate 0.5 at n=300 wants a 2^150-word table: that sweep point fails
    # with MemoryGuard while every other row is unaffected
    good = config_from_dict(_simulate_raw(trials=1))
    raw = _simulate_raw(trials=1)
    raw["sweep"]["rate"] = [0.0166, 0.5]
    raw["sweep"]["n"] = [80, 300]
    mixed = config_from_dict(raw)
    rs = run_experiment(mixed)
    assert rs.has_errors
    errors = [r for r in rs.rows if r["error"]]
    assert all("MemoryGuard" in r["error"] for r in errors)
    good_rows = run_experiment(good).rows
    surviving = [r for r in rs.rows
                 if not r["error"] and r["params"]["n"] == 80
                 and r["params"]["rate"] == 0.0166]
    assert surviving == good_rows


@pytest.mark.filterwarnings("ignore:rate")
def test_memory_guard_error_stays_short_past_the_float_range():
    # n=300, rate=5.0 wants 2^1500 codewords; the error column names the
    # guard with the size as a power of two, not as a 455-digit integer
    raw = _simulate_raw(trials=1)
    raw["sweep"].update(n=[300], rate=[5.0], num_blocks=[2])
    (row,) = run_experiment(config_from_dict(raw)).rows
    assert row["error"].startswith("MemoryGuard") and len(row["error"]) < 200


def test_region_kind_runs():
    raw = default_config("region")
    raw["sweep"] = {"w_size": [2]}
    raw["options"]["optimizer_budget"] = 5
    raw["options"]["optimizer_starts"] = 4
    cfg = config_from_dict(raw)
    rs = run_experiment(cfg)
    assert not rs.has_errors
    m = rs.rows[0]["metrics"]
    assert m["best_marginal_gap"] <= 1e-6
    assert m["best_slack"] <= m["i_channel"] + 1e-9
    assert m["candidate_slack"] == pytest.approx(m["i_channel"] - m["i_auxiliary"])


def test_typicality_audit_kind_runs():
    raw = default_config("typicality-audit")
    raw["sweep"] = {"n": [200], "eps": [0.2]}
    raw["trials"] = 20
    cfg = config_from_dict(raw)
    rs = run_experiment(cfg)
    assert not rs.has_errors
    assert all(r["metrics"]["projections_ok"] == 1 for r in rs.rows)


def test_typicality_audit_rows_reuse_the_candidate_equilibrium(monkeypatch):
    calls = []  # one ChainStructure per analysis, whoever imported chain_structure
    build = probability.ChainStructure
    monkeypatch.setattr(probability, "ChainStructure",
                        lambda **fields: calls.append(fields) or build(**fields))
    raw = default_config("typicality-audit")
    raw["sweep"] = {"n": [200], "eps": [0.2]}
    raw["trials"] = 5
    assert not run_experiment(config_from_dict(raw)).has_errors
    assert len(calls) == 1


def test_aep_audit_kind_runs():
    raw = default_config("aep-audit")
    raw["sweep"] = {"n": [6], "eps": [0.8]}
    cfg = config_from_dict(raw)
    rs = run_experiment(cfg)
    assert not rs.has_errors
    m = rs.rows[0]["metrics"]
    assert m["exact"] == 1 and m["all_pass"] == 1


def test_summary_json_is_strict(tmp_path):
    # a sampled audit has a NaN metric; summary.json writes it as null
    raw = default_config("aep-audit")
    raw["sweep"] = {"n": [6], "eps": [0.8]}
    raw["options"].update(audit_max_pairs=100, audit_sample_size=300)
    rs = run_experiment(config_from_dict(raw))
    assert np.isnan(rs.rows[0]["metrics"]["prob_mass_checked"])
    paths = emit_report(rs, str(tmp_path))

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(paths["summary"]) as fh:
        summary = json.load(fh, parse_constant=reject)
    stats = summary["points"][0]["metrics"]["prob_mass_checked"]
    assert set(stats.values()) == {None}


def test_summary_of_a_point_without_typical_pairs(tmp_path):
    # no typical pair: nll_min = inf and nll_max = -inf, whose quantiles
    # compute inf - inf; the aggregates are written as null, with no warning
    raw = default_config("aep-audit")
    raw["sweep"] = {"n": [10], "eps": [0.05]}
    rs = run_experiment(config_from_dict(raw))
    m = rs.rows[0]["metrics"]
    assert m["typical_count"] == 0 and m["nll_min"] == np.inf and m["nll_max"] == -np.inf
    paths = emit_report(rs, str(tmp_path))
    with open(paths["summary"]) as fh:
        stats = json.load(fh)["points"][0]["metrics"]
    assert set(stats["nll_min"].values()) == set(stats["nll_max"].values()) == {None}


def test_packing_probe_single_codeword_never_fires():
    raw = default_config("packing-probe")
    raw["sweep"] = {"n": [100], "rate": [0.0], "eps": [0.3]}
    raw["trials"] = 10
    cfg = config_from_dict(raw)
    rs = run_experiment(cfg)
    assert len(rs.rows) == 10
    assert all(r["metrics"]["event"] == 0 for r in rs.rows)
    assert all(r["metrics"]["m_count"] == 1 for r in rs.rows)
    assert all(r["metrics"]["i_channel_threshold"] == cfg.candidate.i_channel
               for r in rs.rows)


def test_packing_probe_overpacked_rate_fires():
    # rate above I(X;Y|Y'): collisions near-certain at moderate blocklength
    raw = default_config("packing-probe")
    raw["sweep"] = {"n": [60], "rate": [0.24], "eps": [0.4]}
    raw["trials"] = 10
    cfg = config_from_dict(raw)
    rs = run_experiment(cfg)
    assert not rs.has_errors
    freq = np.mean([r["metrics"]["event"] for r in rs.rows])
    assert freq >= 0.9


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def test_emit_report_empty_recordset(tmp_path):
    rs = RecordSet(rows=[], metadata={"kind": "simulate", "timestamp": "x"})
    paths = emit_report(rs, str(tmp_path))
    lines = open(paths["records"]).read().splitlines()
    assert lines == ["error"]  # header only


def test_emit_report_fixed_columns_and_redeterminism(tmp_path):
    cfg = config_from_dict(_simulate_raw(trials=3))
    rs = run_experiment(cfg)
    paths = emit_report(rs, str(tmp_path / "a"))
    rows = open(paths["records"]).read().splitlines()
    ncols = rows[0].count(",")
    assert all(r.count(",") == ncols for r in rows)
    # re-emission is byte-identical apart from the summary timestamp
    paths2 = emit_report(rs, str(tmp_path / "b"))
    assert open(paths["records"], "rb").read() == open(paths2["records"], "rb").read()
    assert open(paths["long"], "rb").read() == open(paths2["long"], "rb").read()
    s1 = json.load(open(paths["summary"]))
    s2 = json.load(open(paths2["summary"]))
    s1["metadata"].pop("timestamp")
    s2["metadata"].pop("timestamp")
    assert s1 == s2


def test_emit_report_twelve_significant_digits(tmp_path):
    rs = RecordSet(
        rows=[{"params": {"n": 1, "trial": 0, "seed": 1},
               "metrics": {"value": 1.0 / 3.0}, "error": ""}],
        metadata={"timestamp": "t"})
    paths = emit_report(rs, str(tmp_path))
    content = open(paths["records"]).read()
    assert "0.333333333333" in content


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_print_defaults(capsys):
    assert cli_main(["simulate", "--print-defaults"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["kind"] == "simulate"


@pytest.mark.filterwarnings("ignore:rate")
def test_cli_exit_codes(tmp_path, capsys):
    # config failure -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["simulate", "--config", str(bad)]) == 2

    raw = _simulate_raw(trials=1)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(good), "--out", str(out)]) == 0
    assert (out / "records.csv").exists()

    # kind mismatch between file and subcommand -> 2
    assert cli_main(["region", "--config", str(good)]) == 2

    # bad values from the command line or the file -> 2, naming the field
    for argv, field in [(["--trials", "0"], "trials"),
                        (["--trials", "-3", "--seed", "-5"], "master_seed")]:
        assert cli_main(["simulate", "--config", str(good),
                         "--out", str(tmp_path / "o"), *argv]) == 2
        assert field in capsys.readouterr().err
    bad_value = tmp_path / "bad_value.json"
    bad_value.write_text(json.dumps(dict(raw, options={"scan_limit": 0})))
    assert cli_main(["simulate", "--config", str(bad_value)]) == 2
    assert "scan_limit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

    # an output path that cannot be a directory -> 2, before any row runs
    for unusable in (str(good), "/dev/null/x"):
        assert cli_main(["simulate", "--config", str(good), "--out", unusable]) == 2
        assert "config error: output_path:" in capsys.readouterr().err
    assert json.loads(good.read_text()) == raw

    # an error row -> 1
    raw_err = _simulate_raw(trials=1)
    raw_err["sweep"]["rate"] = [0.5]
    raw_err["sweep"]["n"] = [300]
    err_cfg = tmp_path / "err.json"
    err_cfg.write_text(json.dumps(raw_err))
    assert cli_main(["simulate", "--config", str(err_cfg),
                     "--out", str(tmp_path / "out2")]) == 1
    capsys.readouterr()


def test_cli_seed_and_trials_override(tmp_path):
    raw = _simulate_raw(trials=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert cli_main(["simulate", "--config", str(path), "--out", str(out1),
                     "--trials", "2", "--seed", "99"]) == 0
    rows = open(out1 / "records.csv").read().splitlines()
    assert len(rows) == 3  # header + 2 trials
    assert cli_main(["simulate", "--config", str(path), "--out", str(out2),
                     "--trials", "2", "--seed", "99"]) == 0
    assert open(out1 / "records.csv").read() == open(out2 / "records.csv").read()


def test_region_feasible_requires_the_marginal_match():
    # w_size 1 is a constant W: the slack stays I(X;Y|Y') but the target is missed
    raw = default_config("region")
    raw["sweep"] = {"w_size": [1]}
    raw["master_seed"] = 1
    m = run_experiment(config_from_dict(raw)).rows[0]["metrics"]
    assert m["best_marginal_gap"] > 1e-6
    assert m["best_slack"] == pytest.approx(m["i_channel"])
    assert m["best_feasible"] == 0


def test_simulate_records_count_decode_outcomes(monkeypatch):
    runs = []

    def recording_run_scheme(scfg):
        runs.append(run_scheme(scfg))
        return runs[-1]

    monkeypatch.setattr(harness, "run_scheme", recording_run_scheme)
    raw = _simulate_raw(trials=4)
    raw["sweep"]["num_blocks"] = [6]
    rows = run_experiment(config_from_dict(raw)).rows
    assert len(rows) == len(runs) == 4
    for row, r in zip(rows, runs):
        m = row["metrics"]
        decoded = r.decode_status[1:]
        assert m["decode_none"] == decoded.count("none")
        assert m["decode_ambiguous"] == decoded.count("ambiguous")
        assert m["decode_none"] + m["decode_ambiguous"] + decoded.count("ok") == 5
    assert sum(row["metrics"]["decode_none"] for row in rows) > 0


@pytest.mark.filterwarnings("ignore:rate")
@pytest.mark.parametrize("kind", ["simulate", "packing-probe"])
@pytest.mark.parametrize("rate", [1e300, 1e308])
def test_huge_rate_is_a_memory_guard_row(kind, rate):
    # n R past the float range, or past what an exact int of the codebook
    # size may hold, is the MemoryGuard row that a smaller huge rate gives
    raw = _valid_raw(kind)
    raw["sweep"]["rate"] = [rate]
    rows = run_experiment(config_from_dict(raw)).rows
    assert rows and all(row["error"].startswith("MemoryGuard: ") for row in rows)


# One small valid config per kind for the property test below: n <= 64,
# trials <= 2, num_blocks <= 4, w_size <= 2 and optimizer budgets <= 2.
_SMALL = {"simulate": {"n": [40], "num_blocks": [3], "rate": [0.05], "eps": [0.3]},
          "typicality-audit": {"n": [40], "eps": [0.3]},
          "packing-probe": {"n": [40], "rate": [0.05], "eps": [0.3]}}
_SMALL_OPTIONS = {"region": {"optimizer_budget": 2, "optimizer_starts": 2},
                  "aep-audit": {"audit_max_pairs": 10 ** 4, "audit_sample_size": 50}}


def _small_raw(kind):
    raw = _valid_raw(kind)
    raw["sweep"].update(_SMALL.get(kind, {}))
    raw["options"].update(_SMALL_OPTIONS.get(kind, {}))
    raw["trials"] = 2
    return raw


def _fields(raw):
    """Paths of every field a mutation may touch: the top-level scalars but
    output_path (the run writes where --out says), the instance tables and
    y0, and each sweep key and option."""
    return ([("kind",), ("trials",), ("master_seed",)]
            + [("instance", k) for k in sorted(raw["instance"])]
            + [(part, k) for part in ("sweep", "options") for k in sorted(raw[part])])


_MUTATIONS = st.one_of(
    st.tuples(st.just("swap"), st.sampled_from(["x", None, True, [], {}, [[1]]])),
    st.tuples(st.just("remove"), st.none()),
    st.tuples(st.just("number"), st.sampled_from([-1, 0, 1e300])),
    st.tuples(st.just("foreign"), st.sampled_from(sorted(_ALL_SWEEP | _ALL_OPTIONS))))


def _mutate(raw, path, mutation):
    """raw with one field changed; returns the key that a load error must name
    (None for a "foreign" key the kind has, which changes nothing)."""
    how, value = mutation
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if how == "foreign":  # a key the kind does not have, in its sweep or options
        part = "sweep" if value in _ALL_SWEEP else "options"
        if value in raw[part]:
            return None
        raw[part][value] = [1] if part == "sweep" else 1
        return value
    if how == "remove":
        del parent[path[-1]]
    elif how == "swap":
        parent[path[-1]] = value
    else:  # a number in place of a sweep value, a first table entry or a scalar
        old = parent[path[-1]]
        if path[0] == "sweep":
            parent[path[-1]] = [value]
        elif isinstance(old, list):
            leaf = old
            while isinstance(leaf[0], list):
                leaf = leaf[0]
            leaf[0] = value
        else:
            parent[path[-1]] = value
    return path[-1]


@pytest.mark.filterwarnings("ignore:rate")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(KINDS), st.data(), _MUTATIONS)
def test_one_bad_field_fails_at_load_or_runs_to_strict_json(tmp_path, kind, data, mutation):
    # one mutated field either exits 2 naming that field, or the run exits 0,
    # or 1 with only guard error rows, and writes strict JSON
    raw = _small_raw(kind)
    path = data.draw(st.sampled_from(_fields(raw)))
    name = _mutate(raw, path, mutation)
    out = tempfile.mkdtemp(dir=tmp_path)
    cfg = f"{out}/config.json"
    with open(cfg, "w") as fh:
        json.dump(raw, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([kind, "--config", cfg, "--out", f"{out}/run"])
    if code == 2:
        assert name is not None and re.search(rf"\b{name}\b", err.getvalue())
        return
    assert code in (0, 1), code

    def no_constant(token):
        raise ValueError(f"{token} in summary.json")

    with open(f"{out}/run/summary.json") as fh:
        json.loads(fh.read(), parse_constant=no_constant)
    with open(f"{out}/run/records.csv", newline="") as fh:
        errors = [row["error"] for row in csv.DictReader(fh) if row["error"]]
    assert (code == 1) == bool(errors)
    assert all(e.startswith(("MemoryGuard: ", "EnumerationTooLarge: ")) for e in errors), errors
