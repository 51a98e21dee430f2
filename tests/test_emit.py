"""Structured documents: the join-built encoder of ``cli`` against the stdlib
``json`` it stands in for, and the bytes each command writes."""

import hashlib
import io
import json
import math
import os
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicheck import cli, metrics
from equicheck.analyzer import check_layer
from equicheck.cli import (
    EXIT_INEXACT,
    EXIT_OK,
    MAX_ORACLE_CELLS,
    MAX_ORACLE_TRIPLES,
    _document,
    _mark,
    _oracle_triples,
    _parse_range,
    run,
)
from equicheck.errors import EquicheckError
from equicheck.metrics import SYMMETRIES, commutation_grid

#: Strings json escapes: control characters, DEL, the two line separators
#: JavaScript treats as newlines, non-ASCII, astral and lone surrogates.
AWKWARD = ["\x00", "\x1f", "\x7f", "\n\t\"\\/", "\u2028", "\u2029", "\xe9", "\U0001f600",
           "\ud800"]

texts = st.text() | st.lists(st.sampled_from(AWKWARD), max_size=4).map("".join)

floats = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
          | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
                             math.nan, math.inf, -math.inf]))

scalars = (st.none() | st.booleans() | texts
           | st.integers() | st.integers(-(2**200), 2**200)
           | floats | floats.map(np.float64))

keys = texts | st.integers() | floats | st.booleans() | st.none()

values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(keys, children, max_size=4)),
    max_leaves=24,
)


#: Values of only the exact types _indent2 encodes itself: no subclasses, str keys.
exact_values = st.recursive(
    st.none() | st.booleans() | texts | st.integers() | st.integers(-(2**200), 2**200) | floats,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(texts, children, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(exact_values)
def test_join_text_equals_stdlib_indent2(value):
    assert cli._indent2(value) == json.dumps(value, indent=2)


@settings(max_examples=400, deadline=None)
@given(values)
def test_text_equals_stdlib_indent2(value):
    assert cli._dumps_indent2(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    np.int64(3), {1, 2}, {(1, 2): 3}, [1, {"a": [object()]}],
    {"ok": 1, (1,): np.int64(2)},  # the bad key comes before the bad value
], ids=["np-int64", "set", "tuple-key", "nested-object", "key-then-value"])
def test_unserializable_raises_stdlib_type_error(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        cli._dumps_indent2(value)
    assert str(got.value) == str(want.value)


def test_cycle_raises_stdlib_error():
    cycle: list = []
    cycle.append(cycle)
    with pytest.raises(ValueError, match="Circular reference detected"):
        cli._dumps_indent2(cycle)


def _outcome(dumps, value):
    """The text ``dumps`` gives for ``value``, or the type of its error."""
    try:
        return dumps(value)
    except RecursionError as e:
        return type(e)


@pytest.mark.parametrize("share", [2, 1], ids=["half-limit", "limit"])
def test_deep_nesting_gives_the_stdlib_outcome(share):
    # _indent2 takes two frames a level where its list comprehension has a
    # frame of its own and one where the interpreter inlines it, and json's
    # encoder takes its own count; whichever of them runs out first,
    # _dumps_indent2 gives the text or the error the stdlib gives
    deep: list = []
    for _ in range(sys.getrecursionlimit() // share):
        deep = [deep]
    if share == 1:
        with pytest.raises(RecursionError):
            cli._indent2(deep)
    assert (_outcome(cli._dumps_indent2, deep)
            == _outcome(lambda v: json.dumps(v, indent=2), deep))


STRUCTURED_COMMANDS = [
    ["oracle"],
    ["oracle", "--i-range", "3:3", "--k-range", "2:2", "--s-range", "2:2"],
    ["measure", "p4cnn", "--integer-weights"],
    ["measure", "p4cnn", "--input-size", "27", "--integer-weights"],
    ["sweep", "toy41", "--angle-step", "30", "--integer-weights"],
    ["sweep", "p4cnn", "--angle-step", "90", "--seed", "2"],
    ["analyze", "p4cnn", "--input-size", "27"],
    ["suggest", "p4cnn", "1", "64"],
    ["list-builtins"],
]


@pytest.mark.parametrize("argv", STRUCTURED_COMMANDS, ids=" ".join)
def test_document_is_stdlib_indent2_and_a_newline(capsys, argv):
    run(argv + ["--format", "structured"])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["oracle"], ["measure", "p4cnn", "--integer-weights"],
], ids=" ".join)
def test_out_file_holds_the_structured_stdout_bytes(capsys, tmp_path, argv):
    path = tmp_path / "doc.json"
    run(argv + ["--format", "structured", "--out", str(path)])
    assert path.read_bytes() == capsys.readouterr().out.encode()


RULE_GRID = ["--i-range", "2:40", "--k-range", "1:7", "--s-range", "1:5"]
CI_GRID = ["--i-range", "2:64", "--k-range", "1:9", "--s-range", "1:6"]


@pytest.mark.parametrize("grid, symmetry, digest", [
    (RULE_GRID, "rot", "41015df92de0e66b03d6e036b03b97e6afb71d646bf5272f9a056937d2f0df41"),
    (RULE_GRID, "mirror", "fa14268413e7ad24ebe85cff5fbd4b4f4513f993668318e940cddcdc0d8484d2"),
    (CI_GRID, "rot", "ca0e89789360f4e5e4c018a59e2c26bcdabbc51b6734bea516a3e3e5b7198802"),
    (CI_GRID, "mirror", "23c0e1660c1deec66df649aa2c7c5b09d6509ca7ad62cdef5ec8ecccd1a9f93b"),
], ids=["rule-rot", "rule-mirror", "ci-rot", "ci-mirror"])
def test_oracle_documents_keep_their_bytes(capsys, grid, symmetry, digest):
    # digests recorded with the scalar-rebuild oracle: how the grid is
    # chunked, and where a counterexample is read from, move no byte
    assert run(["oracle", *grid, "--symmetry", symmetry, "--format", "structured"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


P4MCNN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "p4mcnn.json")


#: (argv, exit code, sha256 of the structured document) of documents in
#: integer mode, or in float mode where every value is 0.0, so that no byte
#: depends on the BLAS thread count.
MEASURE_AND_SWEEP_DOCUMENTS = [
    (["measure", "p4cnn"], 0,
     "2acc38c65a686354f7e466b41f20a165e513961bcbab38ee744a73ea45395488"),
    (["measure", "p4cnn", "--integer-weights", "--input-size", "29"], 1,
     "ac473ad090a29be7d56cd01aa618045aeb5b9be519f0d835a9477f7616e0b1e7"),
    (["measure", "toy41", "--input-size", "32", "--integer-weights"], 1,
     "d5643006c9cff03af1a65e0699fd66254a6c337947ca1c74d4ac3f58a2244461"),
    (["measure", P4MCNN, "--input-size", "29", "--integer-weights", "--elements", "m,mr3"], 1,
     "916f370c7b7c7cf3f7cca289bd9369bec81ece6ffb37048e163d2b5bf7be62be"),
    (["measure", "z2cnn", "--integer-weights"], 0,
     "8474c91731a6b10d0f438367ff4297e599f5d0dc4692439f5bea5255d27817eb"),
    (["sweep", "p4cnn", "--angle-step", "90"], 0,
     "7c18b908b4ed2c7d6060dab6d3127bde14a3c54a25eacedcaa73ca4b6dfd1993"),
    (["sweep", "p4cnn", "--input-size", "29", "--angle-step", "90", "--integer-weights"], 1,
     "1de35e8b2f194b0986c6cc6c2c9c2374a2c85e52f453e3c1243964cc7fbc0444"),
    (["sweep", "toy41", "--input-size", "32", "--angle-step", "90", "--integer-weights"], 1,
     "64a112cca4de0b93e4851da78ea17f448790cb78ce57a5e7cfdd92e71e7b8ec0"),
    (["sweep", P4MCNN, "--input-size", "29", "--angle-step", "90", "--integer-weights"], 1,
     "61933ae0817a870393fe1b4267963c05aaca6824739298821a0ceac56cf66032"),
]


@pytest.mark.parametrize("argv, code, digest", MEASURE_AND_SWEEP_DOCUMENTS,
                         ids=[" ".join(argv).replace(P4MCNN, "p4mcnn.json")
                              for argv, _, _ in MEASURE_AND_SWEEP_DOCUMENTS])
def test_measure_and_sweep_documents_keep_their_bytes(capsys, argv, code, digest):
    # the CI runs this under 1 and 2 BLAS threads
    assert run(argv + ["--format", "structured"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_the_rule_grid_oracle_command_stays_small(capsys):
    # the whole command: grid, cell texts, document text and the captured
    # output, about 2.01 MiB; a first run also builds the parser, so it
    # runs untraced
    argv = ["oracle", *RULE_GRID, "--format", "structured"]
    run(argv)
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out) > 400_000
    assert peak <= 2.6 * 2**20


def test_encoding_the_rule_grid_document_stays_small(capsys):
    # the nested joins peak at about 1.44 MiB on this 0.46 MB document; one
    # flat list of pieces joined once would take over 3 MiB
    run(["oracle", *RULE_GRID, "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    tracemalloc.start()
    try:
        text = cli._dumps_indent2(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == json.dumps(doc, indent=2)
    assert peak <= 1.6 * 2**20


class _CountingJson:
    """A stand-in for ``cli.json`` that records each ``dump``, as a profiler
    timing emission would wrap it."""

    def __init__(self):
        self.dump_calls = 0

    def dump(self, *args, **kwargs):
        self.dump_calls += 1
        return json.dump(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


def test_each_document_is_written_by_json_dump(monkeypatch, capsys, tmp_path):
    proxy = _CountingJson()
    monkeypatch.setattr(cli, "json", proxy)
    path = tmp_path / "doc.json"
    assert run(["analyze", "toy41", "--format", "structured", "--out", str(path)]) == 0
    assert proxy.dump_calls == 2
    assert path.read_text() == capsys.readouterr().out


def reference_oracle_document(args):
    """The ``cmd_oracle`` body from before each cell was written as text,
    kept verbatim but for its end: a dict per cell and a nested list per
    corner pair, encoded by walking them.  Returns the document, the text
    form and the exit code instead of emitting them."""
    i_lo, i_hi = _parse_range(args.i_range, "--i-range")
    k_lo, k_hi = _parse_range(args.k_range, "--k-range")
    s_lo, s_hi = _parse_range(args.s_range, "--s-range")
    # k <= i, so the i and s bounds cap every index the cell arrays hold
    limit = int(np.iinfo(np.int64).max)
    for field, hi in (("--i-range", i_hi), ("--s-range", s_hi)):
        if hi > limit:
            raise EquicheckError(f"{field} bound {hi} exceeds the int64 limit {limit}")
    if _oracle_triples(i_lo, i_hi, k_lo, k_hi, s_lo, s_hi) > MAX_ORACLE_TRIPLES:
        raise EquicheckError(
            f"oracle ranges hold more than {MAX_ORACLE_TRIPLES} (i, k, s) triples"
        )
    triples = [(i, k, s) for i in range(i_lo, i_hi + 1)
               for k in range(k_lo, min(k_hi, i) + 1) for s in range(s_lo, s_hi + 1)]
    if sum(((i - k) // s + 1) ** 2 for i, k, s in triples) > MAX_ORACLE_CELLS:
        raise EquicheckError(
            f"oracle ranges hold more than {MAX_ORACLE_CELLS} output cells to compare"
        )
    cells = []
    agreements = 0
    for (i, k, s), verdict in zip(triples, commutation_grid(triples, SYMMETRIES[args.symmetry])):
        condition = check_layer(i, k, s, 0)
        agree = verdict.holds == condition
        agreements += agree
        cell = {"i": i, "k": k, "s": s, "holds": verdict.holds,
                "condition": condition, "agree": agree}
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
    if not cells:
        raise EquicheckError("the requested ranges contain no valid (i, k, s) cells")
    agreement = agreements / len(cells)
    holds = sum(c["holds"] for c in cells)
    payload = {
        "symmetry": args.symmetry,
        "i_range": [i_lo, i_hi], "k_range": [k_lo, k_hi], "s_range": [s_lo, s_hi],
        "cells": cells,
        "total": len(cells),
        "holds_count": holds,
        "agreement": agreement,
    }
    lines = [
        f"{args.symmetry} commutation oracle over i in [{i_lo},{i_hi}], "
        f"k in [{k_lo},{k_hi}], s in [{s_lo},{s_hi}]",
        f"cells: {len(cells)}  commuting: {holds}  broken: {len(cells) - holds}",
        f"agreement with (i - k) mod s = 0 rule: {agreement:.1%} {_mark(agreement == 1.0)}",
    ]
    for c in cells:
        if not c["agree"]:
            lines.append(f"  DISAGREES: i={c['i']} k={c['k']} s={c['s']}")
    if len(cells) == 1 and "counterexample" in cells[0]:
        ce = cells[0]["counterexample"]
        lines.append(f"counterexample at output index {tuple(ce['output_index'])}: "
                     f"{ce['via_output']} vs {ce['via_input']}")
    return (_document("oracle", payload), "\n".join(lines),
            EXIT_OK if agreement == 1.0 else EXIT_INEXACT)


def _no_verdict_objects(*args, **kwargs):
    raise AssertionError("the oracle command built a per-triple verdict object")


def test_the_oracle_command_builds_no_verdict_objects(monkeypatch, capsys):
    # cells and the counterexample line are filled from commutation rows;
    # the reference reads verdicts, so it runs before the patch
    single = ["oracle", "--i-range", "3:3", "--k-range", "2:2", "--s-range", "2:2"]
    want = [reference_oracle_document(cli._build_parser().parse_args(argv))
            for argv in (["oracle", *RULE_GRID], single)]
    for name in ("IndexPatch", "Counterexample", "CommutationVerdict"):
        monkeypatch.setattr(metrics, name, _no_verdict_objects)
    assert run(["oracle", *RULE_GRID, "--format", "structured"]) == want[0][2]
    assert capsys.readouterr().out == cli._dumps_indent2(want[0][0]) + "\n"
    assert run(single) == want[1][2]
    assert capsys.readouterr().out == want[1][1] + "\n"
    assert "counterexample at output index (0, 0)" in want[1][1]


@st.composite
def oracle_grids(draw):
    """Oracle ranges over i 1-48, k 1-9 and s 1-6, a third of them a single
    (i, k, s) triple, with a symmetry."""
    single = draw(st.integers(0, 2)) == 0
    ranges = []
    for flag, top in (("--i-range", 48), ("--k-range", 9), ("--s-range", 6)):
        lo = draw(st.integers(1, top))
        hi = lo if single else draw(st.integers(lo, top))
        ranges += [flag, f"{lo}:{hi}"]
    return ["oracle", *ranges, "--symmetry", draw(st.sampled_from(sorted(SYMMETRIES)))]


def _no_stdlib_fallback(*args, **kwargs):
    raise AssertionError("an oracle document reached the stdlib encoder")


@settings(max_examples=60, deadline=None)
@given(oracle_grids())
def test_oracle_matches_the_dict_building_reference(argv):
    out, err = io.StringIO(), io.StringIO()
    # the cell texts are str subclasses, which the stdlib would quote: a
    # document that holds them must never reach _dumps_indent2's fallback
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.object(cli.json, "dumps", _no_stdlib_fallback):
        try:
            want = reference_oracle_document(cli._build_parser().parse_args(argv))
        except EquicheckError as exc:
            want = exc
        code = run(argv + ["--format", "structured"])
        structured = out.getvalue()
        out.seek(0)
        out.truncate()
        assert run(argv) == code
        if isinstance(want, EquicheckError):
            assert code == 2 and structured == out.getvalue() == ""
            assert err.getvalue() == f"error: {want}\n" * 2
            return
        doc, text, exit_code = want
        assert code == exit_code
        assert structured == cli._dumps_indent2(doc) + "\n"
    assert out.getvalue() == text + "\n"
    assert err.getvalue() == ""
