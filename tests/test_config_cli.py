"""Config serialization round-trips and the command-line contract
(subcommands, report documents, exit codes)."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equicheck
from equicheck import cli
from equicheck.builtins import BUILTINS
from equicheck.cli import run
from equicheck.config import ArchitectureConfig, build_network, from_json, to_json
from equicheck.errors import ConfigError
from equicheck.layers import Layer, LayerKind, check_layer, forward, seed_network, walk_shapes
from equicheck.metrics import mirror_commutation, rotation_commutation
from equicheck.tensor import random_feature_map


@st.composite
def valid_configs(draw):
    """Small configs whose group-axis chain is valid by construction."""
    group = draw(st.sampled_from(["z2", "p4", "p4m"]))

    def kernel_layer(kind):
        conv = kind is not LayerKind.MAXPOOL  # max pooling takes no padding or channels
        return Layer(
            kind,
            k=draw(st.integers(1, 4)),
            s=draw(st.integers(1, 3)),
            p=draw(st.integers(0, 2)) if conv else 0,
            out_channels=draw(st.integers(1, 2)) if conv else None,
        )

    body = LayerKind.CONV2D if group == "z2" else LayerKind.GCONV
    layers = [] if group == "z2" else [kernel_layer(LayerKind.GCONV_LIFT)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([body, LayerKind.MAXPOOL, LayerKind.RELU, LayerKind.CIRCLE_CROP]))
        if kind in (LayerKind.RELU, LayerKind.CIRCLE_CROP):
            layers.append(Layer(kind))
        else:
            layers.append(kernel_layer(kind))
    if group != "z2" and draw(st.booleans()):
        layers.append(Layer(LayerKind.COSET_MAXPOOL))
    if draw(st.booleans()):
        layers.append(Layer(LayerKind.GLOBAL_AVG_POOL))
    if not layers or draw(st.booleans()):
        layers.append(Layer(LayerKind.DENSE, out_channels=draw(st.integers(1, 2))))
    return ArchitectureConfig("generated", group, draw(st.integers(1, 16)), tuple(layers))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_round_trips(self, name):
        cfg = BUILTINS[name]
        assert from_json(to_json(cfg)) == cfg

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
                    verdict, condition = oracle(i, k, s), check_layer(i, k, s, 0)
                    cell = {"i": i, "k": k, "s": s, "holds": verdict.holds,
                            "condition": condition, "agree": verdict.holds == condition}
                    if verdict.counterexample is not None:
                        ce = verdict.counterexample
                        cell["counterexample"] = {
                            "output_index": list(ce.output_index),
                            "via_output": [list(ce.patch_via_output.top_left),
                                           list(ce.patch_via_output.bottom_right)],
                            "via_input": [list(ce.patch_via_input.top_left),
                                          list(ce.patch_via_input.bottom_right)],
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
        [(2, 12, 1, 4, 1, 3), (7, 9, 3, 9, 2, 5), (1, 3, 5, 9, 1, 2), (30, 40, 1, 3, 4, 9)],
    )
    def test_cell_count_is_exact(self, ranges):
        i_lo, i_hi, k_lo, k_hi, s_lo, s_hi = ranges
        brute = sum(
            ((i - k) // s + 1) ** 2
            for i in range(i_lo, i_hi + 1)
            for k in range(k_lo, min(k_hi, i) + 1)
            for s in range(s_lo, s_hi + 1)
        )
        assert cli._oracle_cells(*ranges) == brute

    def test_cell_bound_is_inclusive(self, monkeypatch, capsys):
        argv = ["oracle", "--i-range", "2:12", "--k-range", "1:4", "--s-range", "1:3"]
        monkeypatch.setattr(cli, "MAX_ORACLE_CELLS", cli._oracle_cells(2, 12, 1, 4, 1, 3))
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
        ["measure", "p4cnn", "--elements", "foo"],
        ["sweep", "toy41", "--angle-step", "nan"],
        ["sweep", "toy41", "--angle-step", "1e-300"],
        ["sweep", "toy41", "--angle-step", "1e-6"],
    ],
)
def test_bad_input_exits_two_with_message(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
