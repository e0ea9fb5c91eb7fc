"""Golden bytes: one small config per CLI kind runs through `cli.main`, and
the sha256 of its records.csv and long.csv must equal the value recorded
before the change under test.  summary.json is left out because it holds
a timestamp.  A change that moves these bytes on purpose records new
values and says why.

The configs cover y0 = 1, a 3-symbol alphabet (simulate and
typicality-audit), exact and sampled aep-audit rows, and a MemoryGuard
error row (packing-probe at rate 0.2 and n = 150, ~2^30 codewords)."""

import hashlib
import json

import pytest

from markovcoord.cli import main as cli_main
from markovcoord.harness import KINDS, default_config


def _ternary_instance():
    """Three symbols on every alphabet but W; full-support channel rows."""
    return {
        "u_pmf": [0.5, 0.3, 0.2], "x_pmf": [0.4, 0.35, 0.25],
        "channel": [[[0.7, 0.2, 0.1], [0.6, 0.25, 0.15], [0.5, 0.3, 0.2]],
                    [[0.2, 0.6, 0.2], [0.1, 0.7, 0.2], [0.25, 0.5, 0.25]],
                    [[0.1, 0.2, 0.7], [0.15, 0.15, 0.7], [0.2, 0.2, 0.6]]],
        "w_given_ux": [[[0.9, 0.1], [0.85, 0.15], [0.8, 0.2]],
                       [[0.3, 0.7], [0.35, 0.65], [0.4, 0.6]],
                       [[0.6, 0.4], [0.55, 0.45], [0.5, 0.5]]],
        "v_given_yxw": [[[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]]] * 3,
                        [[[0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]] * 3,
                        [[[0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]] * 3],
        "y0": 1,
    }


def _config(kind):
    raw = default_config(kind)
    raw["instance"]["y0"] = 1
    raw["master_seed"] = 3
    raw["trials"] = 2
    if kind == "region":
        raw["sweep"] = {"w_size": [1, 2]}
        raw["options"].update(optimizer_budget=4, optimizer_starts=4)
    elif kind == "simulate":
        raw["instance"] = _ternary_instance()
        raw["sweep"] = {"n": [60, 150], "num_blocks": [2, 5], "rate": [0.0166, 0.05],
                        "eps": [0.5]}
        raw["options"]["cover_eps"] = 0.4
    elif kind == "typicality-audit":
        raw["instance"] = _ternary_instance()
        raw["sweep"] = {"n": [50, 300], "eps": [0.1, 0.3]}
    elif kind == "aep-audit":  # n = 5 and 9 enumerate, n = 16 samples
        raw["sweep"] = {"n": [5, 9, 16], "eps": [0.3, 0.6]}
        raw["options"].update(audit_max_pairs=300_000, audit_sample_size=2000)
    else:  # packing-probe; rate 0.2 at n = 150 trips the MemoryGuard
        raw["sweep"] = {"n": [60, 150], "rate": [0.02, 0.1, 0.2], "eps": [0.3]}
    return raw


# kind -> (sha256 of records.csv, sha256 of long.csv)
_GOLDEN = {
    "region": ("ad4d9756c6bc58eca0051df78c04f4453a13bf2950012d6ac8744ec226427e37",
               "5d172c14cd90e3ec2bb327ae753bf373ce86157c7f603e48a732174a3ebee912"),
    "simulate": ("adac472e54fcf8f00c2a13d950cb4e62886b55d6bbb54618b567780fbd65016a",
                 "54027d6fdd14d85dd8eb1d0732b4f84449b079ada93c77643fdf73d782477c29"),
    "typicality-audit": ("ab7e12aa2419a0a2c1cfd5221a8e84335baba2032d23838567ac909604b08320",
                         "e0ffd05fd1b18491cf9e88a132e467e3d3c12cce78641272d51d7648e5b308c0"),
    "aep-audit": ("e82fb4ec81184859ed7e6eab123bfc1681508857bfdf7bad44582a5688272d61",
                  "3c6faad6fa80bd91c6bb2ea1abdeb60e23a692d56e3ee23320c16a12fa35b270"),
    "packing-probe": ("e5bdf93ab3bd7066734e7403b0d5047cd168e37b323f9eff8656a4384fa84e06",
                      "802a367467e9bc69e1da72d9d0000845405fa0fdd8b70273d5aa5c2a34758ca4"),
}


def _run(kind, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_config(kind)))
    out = tmp_path / "out"
    code = cli_main([kind, "--config", str(cfg), "--out", str(out)])
    return code, tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                       for name in ("records.csv", "long.csv"))


@pytest.mark.filterwarnings("ignore:rate .* outside the coding window:UserWarning")
@pytest.mark.parametrize("kind", KINDS)
def test_cli_output_bytes_are_pinned(kind, tmp_path):
    code, digests = _run(kind, tmp_path)
    assert code == (1 if kind == "packing-probe" else 0)  # only the guard row errs
    assert digests == _GOLDEN[kind]
