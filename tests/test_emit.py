"""Structured documents: the join-built encoder of ``cli`` against the stdlib
``json`` it stands in for, and the bytes each command writes."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicheck import cli
from equicheck.cli import run

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
