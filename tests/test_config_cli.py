"""Config serialization round-trips and the command-line contract
(subcommands, report documents, exit codes)."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equicheck
from equicheck import cli
from equicheck.builtins import BUILTINS
from equicheck.cli import run
from equicheck.config import (
    FIELDS, build_network, from_dict, from_json, load, to_dict, to_json, validate,
)
from equicheck.errors import ConfigError
from equicheck.group import GroupKind, act_full, act_spatial, elements
from equicheck.layers import (
    Layer, LayerKind, Move, Network, check_layer, circle_crop, forward, seed_network,
    walk_shapes,
)
from equicheck.metrics import SYMMETRIES, commutation_rows, rotation_commutation
from equicheck.tensor import random_feature_map


def mirror_commutation(i, k, s):
    """The oracle's row for one (i, k, s) triple under the mirror, the
    counterpart of ``rotation_commutation``."""
    return commutation_rows([(i, k, s)], SYMMETRIES["mirror"])[0]


@st.composite
def valid_configs(draw):
    """Small configs whose group-axis chain is valid by construction."""
    group = draw(st.sampled_from(list(GroupKind)))

    def kernel_layer(kind):
        conv = kind is not LayerKind.MAXPOOL  # max pooling takes no padding or channels
        return Layer(
            kind,
            k=draw(st.integers(1, 4)),
            s=draw(st.integers(1, 3)),
            p=draw(st.integers(0, 2)) if conv else 0,
            out_channels=draw(st.integers(1, 2)) if conv else None,
        )

    body = LayerKind.CONV2D if group is GroupKind.Z2 else LayerKind.GCONV
    layers = [] if group is GroupKind.Z2 else [kernel_layer(LayerKind.GCONV_LIFT)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([body, LayerKind.MAXPOOL, LayerKind.RELU, LayerKind.CIRCLE_CROP]))
        if kind in (LayerKind.RELU, LayerKind.CIRCLE_CROP):
            layers.append(Layer(kind))
        else:
            layers.append(kernel_layer(kind))
    if group is not GroupKind.Z2 and draw(st.booleans()):
        layers.append(Layer(LayerKind.COSET_MAXPOOL))
    if draw(st.booleans()):
        layers.append(Layer(LayerKind.GLOBAL_AVG_POOL))
    if not layers or draw(st.booleans()):
        layers.append(Layer(LayerKind.DENSE, out_channels=draw(st.integers(1, 2))))
    return Network(group, tuple(layers), draw(st.integers(1, 16)), name="generated")


#: The benchmark's p4m variant of p4cnn, a config file rather than a built-in.
P4MCNN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "p4mcnn.json")

#: The README, whose Library section shows the public names in use.
README_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

#: sha256 of the canonical config JSON, the ``config_digest`` of every report
#: on these networks; a change to how an architecture is held must not move it.
CONFIG_DIGESTS = {
    "toy41": "ef770f7b8f588e57ed72ea501500d7b309698dcc9eb6595cd2be97593bbb73f4",
    "p4cnn": "1fca93ef5925942d6daf636ea9d467b906334f00f625c921055af3cdf3092185",
    "z2cnn": "b6e857739f40fe515e8592b7271f40ee3bffa231c5e8c64a3450e86b12016578",
    "fig1-maxpool": "66acdaffa36a34d457617b5e9642fff2a6ca30fadd27e937c1adeb1e4a89525e",
    "p4mcnn": "befd9a821c9210c947f40d0e8fc585d03c2d08d160a9412d3e03bdfba7e5e4b6",
}


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_round_trips(self, name):
        cfg = BUILTINS[name]
        assert from_json(to_json(cfg)) == cfg
        assert cli._config_digest(cfg) == CONFIG_DIGESTS[name]

    def test_p4mcnn_file_round_trips(self):
        net = load(P4MCNN_PATH)
        assert from_json(to_json(net)) == net
        assert cli._config_digest(net) == CONFIG_DIGESTS["p4mcnn"]

    def test_in_channels_round_trips_with_its_own_digest(self):
        planar = BUILTINS["p4cnn"]
        rgb = replace(planar, in_channels=3)
        assert from_json(to_json(rgb)) == rgb
        assert cli._config_digest(rgb) != cli._config_digest(planar)
        assert "in_channels" not in to_dict(planar) and to_dict(rgb)["in_channels"] == 3

    @pytest.mark.parametrize("value", [0, "3", True])
    def test_bad_in_channels_rejected(self, value):
        data = {**to_dict(BUILTINS["toy41"]), "in_channels": value}
        with pytest.raises(ConfigError, match="in_channels"):
            from_json(json.dumps(data))
        with pytest.raises(ConfigError, match="in_channels"):
            validate(replace(BUILTINS["toy41"], in_channels=value))

    @pytest.mark.parametrize("name", [None, 7, ["p4cnn"]])
    def test_non_string_name_rejected(self, name):
        data = {**to_dict(BUILTINS["toy41"]), "name": name}
        with pytest.raises(ConfigError, match="name must be a string"):
            from_json(json.dumps(data))

    @pytest.mark.parametrize("extra, named", [
        ({"in_chanels": 3}, "['in_chanels']"),
        ({"layer": [], "Name": "x"}, "['Name', 'layer']"),
        ({7: 1}, "[7]"),
    ])
    def test_unknown_top_level_field_rejected(self, extra, named):
        data = {**to_dict(BUILTINS["toy41"]), **extra}
        with pytest.raises(ConfigError, match=re.escape(f"unknown fields {named}")):
            from_dict(data)

    def test_every_field_to_dict_writes_is_known(self):
        rgb = replace(BUILTINS["p4cnn"], in_channels=3)
        assert set(to_dict(rgb)) == FIELDS
        assert from_dict(to_dict(rgb)) == rgb

    @pytest.mark.parametrize("kind, field, value", [
        ("relu", "k", [1]), ("relu", "s", "x"), ("relu", "p", 1),
        ("relu", "out_channels", 2), ("maxpool", "out_channels", 2),
    ])
    def test_field_the_kind_does_not_take_rejected(self, kind, field, value):
        layer = {"kind": kind, "k": 2, "s": 2} if kind == "maxpool" else {"kind": kind}
        text = json.dumps({
            "schema_version": 1, "name": "bad", "group": "z2", "input_size": 8,
            "layers": [{"kind": "conv2d", "k": 1, "out_channels": 1}, {**layer, field: value}],
        })
        with pytest.raises(ConfigError, match=f"layer 1: {kind} takes no '{field}'"):
            from_json(text)

    def test_unknown_kind_rejected(self):
        text = json.dumps(
            {
                "schema_version": 1,
                "name": "bad",
                "group": "p4",
                "input_size": 9,
                "layers": [{"kind": "gconv9", "k": 3, "out_channels": 1}],
            }
        )
        with pytest.raises(ConfigError, match="gconv9"):
            from_json(text)

    def test_group_chain_validated(self):
        text = json.dumps(
            {
                "schema_version": 1,
                "name": "bad",
                "group": "z2",
                "input_size": 9,
                "layers": [{"kind": "gconv_lift", "k": 3, "out_channels": 1}],
            }
        )
        with pytest.raises(ConfigError):
            from_json(text)

    def test_chain_error_after_truncating_layer_rejected(self):
        # the 5x5 lift outruns the 3x3 input; the planar conv after it still
        # sees a group axis and must be rejected
        text = json.dumps(
            {
                "schema_version": 1,
                "name": "bad",
                "group": "p4",
                "input_size": 3,
                "layers": [
                    {"kind": "gconv_lift", "k": 5, "out_channels": 1},
                    {"kind": "conv2d", "k": 1, "out_channels": 1},
                ],
            }
        )
        with pytest.raises(ConfigError, match="layer 1"):
            from_json(text)

    def test_rectangular_input_rejected(self):
        text = json.dumps(
            {
                "schema_version": 1,
                "name": "bad",
                "group": "z2",
                "input_size": [28, 27],
                "layers": [{"kind": "relu"}],
            }
        )
        with pytest.raises(ConfigError, match="square"):
            from_json(text)

    @pytest.mark.parametrize("size", [0, -3])
    def test_resized_network_is_validated(self, size):
        with pytest.raises(ConfigError, match=f"input_size .* must be >= 1, got {size}"):
            build_network(BUILTINS["p4cnn"], size)


class TestGeneratedConfigs:
    @settings(max_examples=50, deadline=None)
    @given(valid_configs())
    def test_generated_config_round_trips(self, cfg):
        assert from_json(to_json(cfg)) == cfg

    @settings(max_examples=25, deadline=None)
    @given(valid_configs())
    def test_shape_walk_matches_forward(self, cfg):
        for size in range(1, 11):
            net = build_network(cfg, size)
            steps = list(walk_shapes(net.kind, net.layers, size))
            if any(step.out_shape[2] == 0 for step in steps):
                continue
            x = random_feature_map(size, 1, 1, size, size, integer_valued=True)
            acts = forward(seed_network(net, size, integer_valued=True), x)
            assert [act.shape for act in acts] == [
                (c, g, side, side) for c, g, side in (step.out_shape for step in steps)
            ]


def conv2d_stem(k, group=GroupKind.P4):
    """A small invariant group network at 9 with a conv2d stem of kernel k
    before its lift."""
    return Network(group, (
        Layer(LayerKind.CONV2D, k=k, out_channels=2),
        Layer(LayerKind.GCONV_LIFT, k=3, out_channels=2),
        Layer(LayerKind.GLOBAL_AVG_POOL),
        Layer(LayerKind.COSET_MAXPOOL),
        Layer(LayerKind.DENSE, out_channels=2),
    ), 9, name="stem")


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "structured")
    return code, json.loads(out)


class TestAnalyzeCommand:
    def test_exact_builtin_exits_zero(self, capsys):
        code, out = run_cli(capsys, "analyze", "p4cnn")
        assert code == 0
        assert "verdict: exact" in out

    @pytest.mark.parametrize("ref,line", [
        ("p4cnn", "exact sizes: i ≥ 28, i ≡ 0 (mod 2)"),
        ("toy41", "exact sizes: i ≥ 1, i ≡ 1 (mod 2)"),
    ])
    def test_text_states_the_lattice(self, capsys, ref, line):
        _, out = run_cli(capsys, "analyze", ref, "--input-size", "27")
        assert line in out.splitlines()

    def test_text_says_when_no_size_is_exact(self, capsys, tmp_path):
        path = tmp_path / "none.json"
        path.write_text(json.dumps({
            "schema_version": 1, "name": "none", "group": "z2", "input_size": 8,
            "layers": [{"kind": "global_avg_pool"}, {"kind": "maxpool", "k": 2, "s": 2}],
        }))
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert "exact sizes: none" in out.splitlines()

    def test_lattice_past_the_digit_limit_is_spelled_by_its_length(
            self, capsys, tmp_path, monkeypatch):
        # the exact sizes of 5000 stride-10 pools repeat every 10^5000
        path = tmp_path / "deep-pool.json"
        path.write_text(json.dumps({
            "name": "deep-pool", "group": "z2", "input_size": 10,
            "layers": [{"kind": "maxpool", "k": 1, "s": 10}] * 5000,
        }))
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert "exact sizes: i ≥ 1, i ≡ 1 (mod <a 5001-digit integer>)" in out.splitlines()
        # a document is printed without building the text
        monkeypatch.setattr(cli, "_analysis_text", None)
        code, doc = run_json(capsys, "analyze", str(path))
        assert code == 1
        assert doc["result"]["violations"] == [0]

    @pytest.mark.parametrize("digits", [1, 4300, 4301, 5001])
    def test_integers_past_the_digit_limit_are_spelled_by_their_length(self, digits):
        limit = sys.get_int_max_str_digits()
        for n in (10 ** (digits - 1), 10 ** digits - 1):
            want = str(n) if not limit or digits <= limit else f"<a {digits}-digit integer>"
            assert cli._int_text(n) == want

    def test_approximate_exits_one(self, capsys):
        code, doc = run_json(capsys, "analyze", "p4cnn", "--input-size", "27")
        assert code == 1
        result = doc["result"]
        assert result["exact"] is False
        pool = next(t["index"] for t in result["trace"] if t["kind"] == "maxpool")
        assert pool in result["violations"]
        assert 28 in result["suggested_sizes"]

    def test_malformed_config_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "name": "bad",
                    "group": "p4",
                    "input_size": 9,
                    "layers": [{"kind": "gconv9", "k": 3, "out_channels": 1}],
                }
            )
        )
        code = run(["analyze", str(path)])
        assert code == 2

    def test_unknown_reference_exits_two(self):
        assert run(["analyze", "no-such-thing"]) == 2

    def test_custom_config_file(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(to_json(BUILTINS["toy41"]))
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0

    def test_no_ansi_when_not_a_tty(self, capsys):
        _, out = run_cli(capsys, "analyze", "p4cnn")
        assert "\033[" not in out

    @pytest.mark.parametrize("k, want", [(3, 1), (1, 0)], ids=["k3-stem", "k1-stem"])
    def test_conv2d_stem_verdicts_agree(self, capsys, tmp_path, k, want):
        # a k3 conv2d's filters are never transformed, so the stem breaks p4
        # at every size; a k1 one mixes channels pointwise
        path = tmp_path / "stem.json"
        path.write_text(to_json(conv2d_stem(k)))
        assert run_cli(capsys, "analyze", str(path))[0] == want
        assert run_cli(capsys, "measure", str(path))[0] == want
        assert run_cli(capsys, "measure", str(path), "--integer-weights")[0] == want
        assert run_cli(capsys, "sweep", str(path), "--angle-step", "90",
                       "--integer-weights")[0] == want
        _, doc = run_json(capsys, "suggest", str(path), "1", "20")
        assert doc["result"]["exact_sizes"] == ([] if want else list(range(3, 21)))


class TestSuggestCommand:
    def test_p4cnn_window(self, capsys):
        code, doc = run_json(capsys, "suggest", "p4cnn", "26", "30")
        assert code == 0
        sizes = doc["result"]["exact_sizes"]
        assert 28 in sizes and 27 not in sizes and 29 not in sizes

    def test_toy_window(self, capsys):
        code, doc = run_json(capsys, "suggest", "toy41", "30", "35")
        assert code == 0
        sizes = doc["result"]["exact_sizes"]
        assert 33 in sizes and 32 not in sizes

    def test_empty_result_still_exits_zero(self, capsys):
        code, doc = run_json(capsys, "suggest", "fig1-maxpool", "3", "3")
        assert code == 0
        assert doc["result"]["exact_sizes"] == []


class TestOracleCommand:
    def test_default_grid_agrees(self, capsys):
        code, doc = run_json(capsys, "oracle")
        assert code == 0
        assert doc["result"]["agreement"] == 1.0

    def test_mirror_grid_identical_verdicts(self, capsys):
        code_r, doc_r = run_json(capsys, "oracle", "--symmetry", "rot")
        code_m, doc_m = run_json(capsys, "oracle", "--symmetry", "mirror")
        assert code_r == code_m == 0
        rot = [(c["i"], c["k"], c["s"], c["holds"]) for c in doc_r["result"]["cells"]]
        mir = [(c["i"], c["k"], c["s"], c["holds"]) for c in doc_m["result"]["cells"]]
        assert rot == mir

    def test_single_cell_counterexample(self, capsys):
        code, doc = run_json(
            capsys, "oracle", "--i-range", "5:5", "--k-range", "2:2", "--s-range", "2:2"
        )
        assert code == 0  # verdict and rule agree that it breaks
        (cell,) = doc["result"]["cells"]
        assert cell["holds"] is False
        assert "counterexample" in cell

    def test_degenerate_range_exits_two(self):
        assert run(["oracle", "--i-range", "5:4"]) == 2

    @pytest.mark.parametrize("symmetry", ["rot", "mirror"])
    @pytest.mark.parametrize("ranges", [("2:12", "1:4", "1:3"), ("7:9", "3:9", "2:5")])
    def test_document_matches_per_triple_calls(self, capsys, symmetry, ranges):
        (i_lo, i_hi), (k_lo, k_hi), (s_lo, s_hi) = (map(int, r.split(":")) for r in ranges)
        oracle = {"rot": rotation_commutation, "mirror": mirror_commutation}[symmetry]
        cells = []
        for i in range(i_lo, i_hi + 1):
            for k in range(k_lo, min(k_hi, i) + 1):
                for s in range(s_lo, s_hi + 1):
                    row, condition = oracle(i, k, s), check_layer(i, k, s, 0)
                    cell = {"i": i, "k": k, "s": s, "holds": row is None,
                            "condition": condition, "agree": (row is None) == condition}
                    if row is not None:
                        cell["counterexample"] = {
                            "output_index": list(row[0:2]),
                            "via_output": [list(row[2:4]), list(row[4:6])],
                            "via_input": [list(row[6:8]), list(row[8:10])],
                        }
                    cells.append(cell)
        agreement = sum(c["agree"] for c in cells) / len(cells)
        payload = {
            "symmetry": symmetry,
            "i_range": [i_lo, i_hi], "k_range": [k_lo, k_hi], "s_range": [s_lo, s_hi],
            "cells": cells,
            "total": len(cells),
            "holds_count": sum(c["holds"] for c in cells),
            "agreement": agreement,
        }
        expected = json.dumps(cli._document("oracle", payload), indent=2) + "\n"
        argv = ["oracle", "--i-range", ranges[0], "--k-range", ranges[1],
                "--s-range", ranges[2], "--symmetry", symmetry, "--format", "structured"]
        assert run(argv) == (0 if agreement == 1.0 else 1)
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "ranges",
        [(2, 12, 1, 4, 1, 3), (7, 9, 3, 9, 2, 5), (1, 3, 5, 9, 1, 2), (30, 40, 1, 3, 4, 9),
         (5, 5, 5, 5, 1, 1), (1, 20, 4, 8, 3, 3), (2, 40, 1, 7, 1, 5)],
    )
    def test_triple_count_is_exact(self, ranges):
        i_lo, i_hi, k_lo, k_hi, s_lo, s_hi = ranges
        brute = sum(1 for i in range(i_lo, i_hi + 1)
                    for k in range(k_lo, min(k_hi, i) + 1) for s in range(s_lo, s_hi + 1))
        assert cli._oracle_triples(*ranges) == brute

    def test_triple_bound_is_inclusive(self, monkeypatch, capsys):
        argv = ["oracle", "--i-range", "2:12", "--k-range", "1:4", "--s-range", "1:3"]
        monkeypatch.setattr(cli, "MAX_ORACLE_TRIPLES", cli._oracle_triples(2, 12, 1, 4, 1, 3))
        assert run(argv) == 0
        monkeypatch.setattr(cli, "MAX_ORACLE_TRIPLES", cli.MAX_ORACLE_TRIPLES - 1)
        assert run(argv) == 2
        assert "triples" in capsys.readouterr().err

    def test_cell_bound_is_inclusive(self, monkeypatch, capsys):
        argv = ["oracle", "--i-range", "2:12", "--k-range", "1:4", "--s-range", "1:3"]
        cells = sum(((i - k) // s + 1) ** 2 for i in range(2, 13)
                    for k in range(1, min(4, i) + 1) for s in range(1, 4))
        monkeypatch.setattr(cli, "MAX_ORACLE_CELLS", cells)
        assert run(argv) == 0
        monkeypatch.setattr(cli, "MAX_ORACLE_CELLS", cli.MAX_ORACLE_CELLS - 1)
        assert run(argv) == 2
        assert "output cells" in capsys.readouterr().err


class TestMeasureCommand:
    def test_exact_toy_integer_mode(self, capsys):
        code, doc = run_json(capsys, "measure", "toy41", "--integer-weights")
        assert code == 0
        assert doc["result"]["max_error"] == 0.0
        assert all(e["error"] == 0.0 for e in doc["result"]["entries"])

    def test_broken_toy_exits_one(self, capsys):
        code, doc = run_json(
            capsys, "measure", "toy41", "--input-size", "32", "--integer-weights"
        )
        assert code == 1
        assert doc["result"]["max_error"] > 0

    def test_deterministic_for_seed(self, capsys):
        _, doc_a = run_json(capsys, "measure", "toy41", "--seed", "5")
        _, doc_b = run_json(capsys, "measure", "toy41", "--seed", "5")
        assert doc_a == doc_b

    def test_elements_flag(self, capsys):
        code, doc = run_json(
            capsys, "measure", "toy41", "--integer-weights", "--elements", "r,r2"
        )
        assert code == 0
        assert doc["result"]["elements"] == ["r", "r2"]

    def test_mirror_element_needs_p4m(self):
        assert run(["measure", "toy41", "--elements", "m"]) == 2

    def test_truncating_size_gives_partial_report(self, capsys):
        code, doc = run_json(
            capsys, "measure", "p4cnn", "--input-size", "27", "--integer-weights"
        )
        assert code == 1
        result = doc["result"]
        assert result["truncated_at"] == 13
        assert {e["layer"] for e in result["entries"]} == set(range(13))
        assert result["max_error"] > 0


class TestSweepCommand:
    @pytest.mark.parametrize("size, extra, layer", [
        ("27", ("--integer-weights", "--angle-step", "90"), 13),
        ("1", (), 0),
    ], ids=["size-27", "size-1"])
    def test_truncating_size_gives_partial_report(self, capsys, monkeypatch, size, extra, layer):
        def no_forward(*args):
            raise AssertionError("a truncated sweep must not run the network")

        monkeypatch.setattr(cli, "invariance_sweep", no_forward)
        code, doc = run_json(capsys, "sweep", "p4cnn", "--input-size", size, *extra)
        assert code == 1
        result = doc["result"]
        assert result["truncated_at"] == layer
        assert result["rows"] == [] and result["max_discrepancy_90s"] is None
        _, analysis = run_json(capsys, "analyze", "p4cnn", "--input-size", size)
        assert analysis["result"]["truncated_at"] == layer
        code, text = run_cli(capsys, "sweep", "p4cnn", "--input-size", size, *extra)
        assert code == 1
        assert f"truncated at layer {layer}" in text and "no forward pass" in text

    def test_exact_toy(self, capsys):
        code, doc = run_json(
            capsys, "sweep", "toy41", "--integer-weights", "--angle-step", "90"
        )
        assert code == 0
        rows = doc["result"]["rows"]
        assert rows[0]["angle"] == 0.0 and rows[0]["discrepancy"] == 0.0
        assert len(rows) == 4

    @pytest.mark.parametrize("step", ["50", "0.7", repr(90 / 39)])
    @pytest.mark.parametrize("size,want", [("32", 1), ("33", 0)])
    def test_steps_that_miss_a_quarter_turn(self, capsys, step, size, want):
        # the verdict must not rest on the 0-degree row alone
        code, doc = run_json(capsys, "sweep", "toy41", "--integer-weights",
                             "--angle-step", step, "--input-size", size)
        assert code == want
        angles = [row["angle"] for row in doc["result"]["rows"]]
        assert angles == sorted(angles)
        assert {90.0, 180.0, 270.0} <= set(angles)

    def test_step_that_hits_the_quarter_turns_adds_no_row(self, capsys):
        _, doc = run_json(capsys, "sweep", "toy41", "--integer-weights", "--angle-step", "30")
        assert [row["angle"] for row in doc["result"]["rows"]] == [30.0 * i for i in range(12)]

    def test_head_validation(self, capsys, tmp_path):
        cfg = {
            "schema_version": 1,
            "name": "headless",
            "group": "p4",
            "input_size": 9,
            "layers": [{"kind": "gconv_lift", "k": 3, "out_channels": 1}],
        }
        path = tmp_path / "headless.json"
        path.write_text(json.dumps(cfg))
        assert run(["sweep", str(path)]) == 2


class TestReportDocument:
    def test_round_trips_losslessly(self, capsys):
        _, doc = run_json(capsys, "analyze", "p4cnn")
        assert json.loads(json.dumps(doc)) == doc
        assert doc["schema_version"] == 1
        assert doc["tool_version"]
        assert doc["config_digest"]

    def test_out_flag_writes_document(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _ = run_cli(capsys, "analyze", "toy41", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == "analyze"
        assert doc["result"]["exact"] is True

    def test_analyze_keys_follow_readme_schema(self, capsys):
        _, doc = run_json(capsys, "analyze", "p4cnn", "--input-size", "27")
        result = doc["result"]
        assert list(result) == [
            "name", "group", "input_size", "exact", "violations",
            "truncated_at", "suggested_sizes", "trace",
        ]
        for t in result["trace"]:
            assert list(t) == [
                "index", "kind", "input_size", "padded_size", "output_size",
                "condition_ok", "note",
            ]

    def test_list_builtins(self, capsys):
        code, doc = run_json(capsys, "list-builtins")
        assert code == 0
        names = {b["name"] for b in doc["result"]["builtins"]}
        assert names == {"toy41", "p4cnn", "z2cnn", "fig1-maxpool"}


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "p4cnn", "--input-size", "0"],
        ["suggest", "p4cnn", "0", "10"],
        ["suggest", "p4cnn", "10", "5"],
        ["suggest", "p4cnn", "1", "1000000000"],
        ["oracle", "--s-range", "1:1000000000"],
        ["oracle", "--i-range", "10000000000000000000:10000000000000000000",
         "--k-range", "1:1", "--s-range", "10000000000000000000:10000000000000000000"],
        ["oracle", "--i-range", "5:5", "--s-range", "9223372036854775808:9223372036854775808"],
        ["measure", "p4cnn", "--elements", "foo"],
        ["measure", "p4cnn", "--elements", "r,r"],
        ["sweep", "toy41", "--angle-step", "nan"],
        ["sweep", "toy41", "--angle-step", "1e-300"],
        ["sweep", "toy41", "--angle-step", "1e-6"],
        ["oracle", "--i-range", "1:200", "--k-range", "1:1", "--s-range", "200:1200"],
        ["measure", "p4cnn", "--seed", "-1"],
        ["sweep", "toy41", "--seed", "-1"],
        ["measure", "p4cnn", "--input-size", "100000"],
        ["sweep", "p4cnn", "--input-size", "100000"],
        ["measure", "HUGE_DENSE"],
        ["measure", "p4cnn", "--input-size", "-3"],
        ["measure", "p4cnn", "--input-size", "0"],
        ["sweep", "p4cnn", "--input-size", "0"],
        ["sweep", "p4cnn", "--input-size", "-2"],
        ["analyze", "NOT_UTF8"],
        ["measure", "NOT_UTF8"],
        ["analyze", "TOO_DEEP"],
        ["measure", "TOO_DEEP"],
        ["analyze", "RELU_K"],
        ["analyze", "NULL_NAME"],
        ["analyze", "MISSPELLED"],
        ["measure", "MISSPELLED"],
        ["analyze", "BIG_INT"],
    ],
)
def test_bad_input_exits_two_with_message(capsys, tmp_path, argv):
    for name, content in BAD_FILES.items():
        (tmp_path / name).write_bytes(content)
    assert run([str(tmp_path / a) if a in BAD_FILES else a for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


#: 2.07e7 activation elements, under the forward bound, but its dense layer
#: would draw a 16777216 x 4000000 matrix.
HUGE_DENSE = Network(GroupKind.Z2, (Layer(LayerKind.DENSE, out_channels=1 << 24),), 2000,
                     name="huge-dense")

#: Config files the bad-input cases name by key: one too big to draw, one
#: that is not UTF-8, one nested past the JSON parser's recursion limit, a
#: ReLU given a kernel size, a network whose name is null, one whose
#: ``in_channels`` is misspelled, and one whose input size has more digits
#: than Python converts to an int.
BAD_FILES = {
    "HUGE_DENSE": to_json(HUGE_DENSE).encode(),
    "NOT_UTF8": b"\xff\xfe",
    "TOO_DEEP": b"[" * 100_000,
    "RELU_K": json.dumps({"name": "bad", "group": "z2", "input_size": 4,
                          "layers": [{"kind": "relu", "k": [1], "s": "x"}]}).encode(),
    "NULL_NAME": json.dumps({"name": None, "group": "z2", "input_size": 4,
                             "layers": [{"kind": "relu"}]}).encode(),
    "MISSPELLED": json.dumps({"name": "rgb", "group": "z2", "input_size": 4, "in_chanels": 3,
                              "layers": [{"kind": "conv2d", "k": 1, "out_channels": 1}]}).encode(),
    "BIG_INT": b'{"name": "big", "group": "z2", "input_size": ' + b"9" * 5000
               + b', "layers": [{"kind": "relu"}]}',
}


def test_integer_past_the_digit_limit_is_invalid_json():
    with pytest.raises(ConfigError, match="^invalid JSON: "):
        from_json(BAD_FILES["BIG_INT"].decode())
    # a ConfigError of the config's own fields keeps its message
    with pytest.raises(ConfigError, match="^name must be a string, got None$"):
        from_json(BAD_FILES["NULL_NAME"].decode())


@pytest.mark.parametrize("command", ["measure", "sweep"])
def test_forward_size_bound_is_inclusive(monkeypatch, capsys, command):
    # toy41 at 33: the input, then 4x17x17 after the lift and three 1x1 maps
    held = 33 * 33 + 4 * 17 * 17 + 4 + 1 + 2
    argv = [command, "toy41", "--integer-weights"]
    monkeypatch.setattr(cli, "MAX_FORWARD_ELEMENTS", held)
    assert run(argv) == 0
    monkeypatch.setattr(cli, "MAX_FORWARD_ELEMENTS", held - 1)
    assert run(argv) == 2
    assert capsys.readouterr().err.endswith(f"holds {held} activation elements, "
                                            f"more than {held - 1}\n")


@pytest.mark.parametrize("command", ["measure", "sweep"])
def test_weight_bound_is_inclusive(monkeypatch, capsys, tmp_path, command):
    # an 8 x 1 x 1 x 2 x 2 lift and a 3 x 8 dense matrix draw 56 weights; the
    # forward holds 4 + 32 + 8 + 8 + 3 = 55 activation elements, under both bounds
    cfg = Network(GroupKind.P4, (
        Layer(LayerKind.GCONV_LIFT, k=2, out_channels=8), Layer(LayerKind.COSET_MAXPOOL),
        Layer(LayerKind.GLOBAL_AVG_POOL), Layer(LayerKind.DENSE, out_channels=3),
    ), 2, name="wide")
    path = tmp_path / "wide.json"
    path.write_text(to_json(cfg))
    drawn = 8 * 1 * 1 * 2 * 2 + 3 * 8
    argv = [command, str(path), "--integer-weights"]
    monkeypatch.setattr(cli, "MAX_FORWARD_ELEMENTS", drawn)
    assert run(argv) == 0
    monkeypatch.setattr(cli, "MAX_FORWARD_ELEMENTS", drawn - 1)
    assert run(argv) == 2
    assert capsys.readouterr().err.endswith(f"draws {drawn} weight elements, "
                                            f"more than {drawn - 1}\n")


#: A p4 lift and eleven 3x3 gconvs of 10 channels, then the invariant head:
#: exact from 25 on.  Its float reports once failed at every seed.
DEEP12 = Network(GroupKind.P4, (
    Layer(LayerKind.GCONV_LIFT, k=3, out_channels=10), Layer(LayerKind.RELU),
    *(Layer(LayerKind.GCONV, k=3, out_channels=10) for _ in range(11)),
    Layer(LayerKind.COSET_MAXPOOL), Layer(LayerKind.GLOBAL_AVG_POOL),
    Layer(LayerKind.DENSE, out_channels=10),
), 32, name="deep12")

P4MCNN = Network(GroupKind.P4M, BUILTINS["p4cnn"].layers, 28, name="p4mcnn")


class TestFloatVerdictsOfExactNetworks:
    """A network exact at every layer reads exactly 0.0 in float mode too,
    at any depth, so measure and sweep exit 0 on every seed.  So does deep12
    in integer mode, whose sums pass 2**53 from layer 8 on."""

    @pytest.mark.parametrize("config, seeds, flags", [
        (DEEP12, range(8), ()), (BUILTINS["p4cnn"], (2,), ()), (P4MCNN, (0, 21), ()),
        (DEEP12, range(8), ("--integer-weights",)),
    ], ids=["deep12", "p4cnn", "p4mcnn", "deep12-integer"])
    def test_measure_and_right_angle_sweep_read_zero(self, capsys, tmp_path, config, seeds,
                                                      flags):
        path = tmp_path / "config.json"
        path.write_text(to_json(config))
        for seed in map(str, seeds):
            code, doc = run_json(capsys, "measure", str(path), "--seed", seed, *flags)
            assert (code, doc["result"]["max_error"]) == (0, 0.0)
            code, doc = run_json(capsys, "sweep", str(path), "--angle-step", "90",
                                 "--seed", seed, *flags)
            assert (code, doc["result"]["max_discrepancy_90s"]) == (0, 0.0)


#: Integer activations that pass the float64 range at depth, though the
#: analyzer calls both networks exact at 4: 250 planar 1x1 convs of 64
#: channels, and a p4 lift and 300 1x1 gconvs of 32, each with a head.
DEEP_Z2 = Network(GroupKind.Z2, (
    *(Layer(LayerKind.CONV2D, k=1, out_channels=64) for _ in range(250)),
    Layer(LayerKind.GLOBAL_AVG_POOL), Layer(LayerKind.DENSE, out_channels=2),
), 4, name="deep-z2")

DEEP_P4 = Network(GroupKind.P4, (
    Layer(LayerKind.GCONV_LIFT, k=1, out_channels=32),
    *(Layer(LayerKind.GCONV, k=1, out_channels=32) for _ in range(300)),
    Layer(LayerKind.COSET_MAXPOOL), Layer(LayerKind.GLOBAL_AVG_POOL),
    Layer(LayerKind.DENSE, out_channels=2),
), 4, name="deep-p4")


class TestActivationOverflow:
    """A forward stops at the first layer whose integer activations are not
    finite; measure profiles the depths before it and keeps their verdict,
    sweep reports the truncation and exits 1, and neither ends in a
    traceback."""

    @staticmethod
    def base_stop(net, cropped):
        seeded = seed_network(net, 0, True)
        x = random_feature_map([0, 1], 1, 1, 4, 4, True)
        acts = forward(seeded, circle_crop(x) if cropped else x)
        assert len(acts) < len(net.layers)
        # the layer the forward stopped at overflows on its own as well, and
        # a forward that stops at its first layer returns no activation
        stop = len(acts)
        alone = replace(seeded, layers=seeded.layers[stop:stop + 1],
                        weights=seeded.weights[stop:stop + 1], input_size=acts[-1].height)
        assert forward(alone, acts[-1]) == []
        return stop

    @pytest.mark.parametrize("net", [DEEP_Z2, DEEP_P4], ids=["z2", "p4"])
    def test_measure_gives_a_partial_report(self, capsys, tmp_path, net):
        path = tmp_path / "deep.json"
        path.write_text(to_json(net))
        assert run(["analyze", str(path)]) == 0
        capsys.readouterr()
        stop = self.base_stop(net, cropped=False)
        code, doc = run_json(capsys, "measure", str(path), "--integer-weights")
        assert code == 0
        result = doc["result"]
        assert result["truncated_at"] == stop and result["max_error"] == 0.0
        group_depths = set(range(stop)) if net.kind is GroupKind.P4 else set()
        assert {e["layer"] for e in result["entries"]} == group_depths
        code, text = run_cli(capsys, "measure", str(path), "--integer-weights")
        assert code == 0
        assert f"truncated at layer {stop}: activations overflow float64 at layer {stop}" in text

    @pytest.mark.parametrize("net", [DEEP_Z2, DEEP_P4], ids=["z2", "p4"])
    def test_sweep_reports_the_truncation(self, capsys, tmp_path, net):
        path = tmp_path / "deep.json"
        path.write_text(to_json(net))
        stop = self.base_stop(net, cropped=True)
        argv = ("sweep", str(path), "--integer-weights", "--angle-step", "90")
        code, doc = run_json(capsys, *argv)
        assert code == 1
        result = doc["result"]
        assert result["truncated_at"] == stop
        assert result["rows"] == [] and result["max_discrepancy_90s"] is None
        code, text = run_cli(capsys, *argv)
        assert code == 1
        assert f"activations overflow float64 at layer {stop}" in text

    @pytest.mark.parametrize("net, stop", [(DEEP_Z2, 234), (DEEP_P4, 211)], ids=["z2", "p4"])
    def test_forwards_stop_at_the_same_layer(self, net, stop):
        # only convs, dense layers and global pools scan their outputs, as no
        # other layer makes a value that is not finite of finite ones; the
        # plain and cropped forwards stop where they did when every layer
        # scanned its output (seed 0)
        assert self.base_stop(net, cropped=False) == self.base_stop(net, cropped=True) == stop

    def test_moved_forward_of_a_shorter_base_stops_where_it_overflows(self):
        # the base forward stops before the network's end, so the moved
        # forward computes the layer the base stopped at, and stops there too
        seeded = seed_network(DEEP_P4, 0, True)
        x = random_feature_map([0, 1], 1, 1, 4, 4, True)
        base = forward(seeded, x)
        for g in elements(GroupKind.P4):
            moved = forward(seeded, act_spatial(g, x), moved=Move(g, x, base))
            plain = forward(seeded, act_spatial(g, x))
            assert len(moved) == len(plain) == len(base) < len(DEEP_P4.layers), g.name
            for d, (a, b) in enumerate(zip(moved, plain)):
                want = act_full(g, base[d], GroupKind.P4) if a is None else a
                assert want.values.tobytes() == b.values.tobytes(), (g.name, d)

    def test_float_weights_stay_finite(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(to_json(DEEP_P4))
        code, doc = run_json(capsys, "measure", str(path))
        assert code == 0 and "truncated_at" not in doc["result"]


def test_oracle_range_past_int64_is_named(capsys):
    big = str(2**63)
    assert run(["oracle", "--i-range", f"{big}:{big}", "--k-range", "1:1"]) == 2
    assert capsys.readouterr().err == (
        f"error: --i-range bound {big} exceeds the int64 limit {2**63 - 1}\n")
    top = str(2**63 - 1)
    argv = ["oracle", "--i-range", f"{top}:{top}", "--k-range", "1:1", "--s-range", f"{top}:{top}"]
    assert run(argv) == 0


#: One command of every subcommand, usage errors and --version among them.
PARSER_ARGVS = [
    ["analyze", "p4cnn"],
    ["analyze", "p4cnn", "--input-size", "27", "--format", "structured"],
    ["suggest", "toy41", "1", "40"],
    ["oracle", "--i-range", "2:9", "--symmetry", "mirror", "--format", "structured"],
    ["measure", "toy41", "--integer-weights", "--seed", "3"],
    ["sweep", "toy41", "--angle-step", "45", "--format", "structured"],
    ["list-builtins"],
    ["measure", "p4cnn", "--seed", "x"],
    ["sweep"],
    ["oracle", "--symmetry", "flip"],
    ["frobnicate"],
    ["--version"],
    [],
]


def test_shared_parser_answers_as_a_fresh_one(monkeypatch, capsys):
    def answers():
        out = []
        for argv in PARSER_ARGVS:
            code = run(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    assert cli._build_parser() is cli._build_parser()
    assert run(["measure", "p4cnn", "--input-size", "big"]) == 2  # an argparse error first
    capsys.readouterr()
    shared = answers()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    fresh = answers()
    assert [code for code, _, _ in shared] == [0, 1, 0, 0, 0, 0, 0, 2, 2, 2, 2, 0, 2]
    assert shared == fresh


#: Runs ``python -m equicheck`` on the package under test, installed or not.
PACKAGE_PARENT = os.path.dirname(os.path.dirname(equicheck.__file__))


class TestConsoleEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "equicheck", "analyze", "p4cnn"],
            capture_output=True,
            cwd=PACKAGE_PARENT,
            text=True,
        )
        assert proc.returncode == 0
        assert "verdict: exact" in proc.stdout

    def test_usage_error_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "equicheck", "frobnicate"],
            capture_output=True,
            cwd=PACKAGE_PARENT,
            text=True,
        )
        assert proc.returncode == 2


def test_readme_library_block_runs_as_written(capsys):
    # a name the README shows cannot disappear unnoticed
    with open(README_PATH, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.S | re.M).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the sizes its comment lists; i=5, k=2, s=2 breaks and p4cnn is exact at 30,
    # so the moved forward takes the moved lift and its logits are the base's
    assert lines[1] == "[28, 30, 32, 34, 36, 38, 40]"
    assert lines[2].startswith("False ") and lines[3] == "0.0" and lines[4] == "True True"


def test_readme_cli_block_runs_as_documented(monkeypatch, tmp_path, capsys):
    # each line exits with the code its "# exit N" comment gives, 0 without one
    with open(README_PATH, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", text, re.S | re.M).group(1)
    deep = Network(GroupKind.Z2, (
        *(Layer(LayerKind.CONV2D, k=1, out_channels=64) for _ in range(250)),
        Layer(LayerKind.GLOBAL_AVG_POOL), Layer(LayerKind.DENSE, out_channels=2),
    ), 4, name="deep")
    (tmp_path / "deep.json").write_text(to_json(deep))
    (tmp_path / "stem.json").write_text(to_json(conv2d_stem(3)))
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    assert len(lines) == 17
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "equicheck"
        want = re.match(r" exit (\d)", comment)
        assert run(argv[1:]) == (int(want.group(1)) if want else 0), line
        capsys.readouterr()


def run_captured(*argv):
    """Exit code, stdout and stderr of one ``cli.run``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCliContract:
    """Clauses of the CLI contract that hold on every generated network:
    ``cli.run`` never raises, each exit code agrees with its document, and
    a network the analyzer calls exact passes ``measure``."""

    @settings(max_examples=150, deadline=None)
    @given(valid_configs(), st.integers(1, 24), st.integers(0, 50), st.booleans())
    def test_exit_codes_agree_with_documents(self, cfg, size, seed, integer):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(to_json(cfg))
            common = [path, "--input-size", str(size), "--format", "structured"]
            seeded = [*common, "--seed", str(seed)] + (["--integer-weights"] if integer else [])
            code, out, _ = run_captured("analyze", *common)
            exact = json.loads(out)["result"]["exact"]
            assert code == (0 if exact else 1)
            code, out, _ = run_captured("measure", *seeded)
            assert code in (0, 1)
            assert code == 1 or json.loads(out)["result"]["max_error"] == 0.0
            assert code == 0 or not exact
            code, out, err = run_captured("sweep", *seeded, "--angle-step", "90")
            if code == 2:
                assert err.startswith("error: ") and "invariant head" in err
            else:
                worst = json.loads(out)["result"]["max_discrepancy_90s"]
                assert code == (0 if worst == 0.0 else 1)
