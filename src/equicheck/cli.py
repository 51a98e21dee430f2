"""Command-line front end.

Subcommands: analyze, suggest, oracle, measure, sweep, list-builtins.
Exit codes are a stable contract: 0 for exact/pass, 1 for an
approximate/inexact finding, 2 for usage or validation errors.  Reports are
rendered as text tables or as a versioned JSON document (--format
structured); --out always writes the JSON document to a file.  Set NO_COLOR
to disable color in text output.

A structured document is exactly ``json.dumps(doc, indent=2)`` and a
newline, written in one call.  The stdlib encodes an indented document in
pure Python, one generator token at a time, which made emission a large
share of an ``oracle`` command; ``_indent2`` builds the same text with
``str.join`` for the exact JSON types a document holds and leaves any
other value to the stdlib.  ``json.dump`` stays the call that writes a
document (it is handed an encoder class that returns the text as one
chunk), so anything that wraps ``cli.json`` to time emission, as
perfbench/tracing.py does, still sees every document written.

An ``oracle`` document is built in one pass: each cell's indent-2 text is
one %-template, for a cell that holds or for one that breaks, filled from
(i, k, s), its three booleans and, for a broken cell, the ten ints of its
commutation row (``metrics.commutation_rows``), in document order; no
verdict or patch object is built per triple.  The text form's
counterexample line is read from the same row.
_indent2 lays both templates out once, at import, from a model cell, so
the layout is still the encoder's.  Each cell enters the ``cells`` list as
a ``_Fragment``, a str subclass that _indent2 emits verbatim.  The one
condition on a fragment: it never reaches the stdlib, which would encode
it as a JSON string, so a document that holds one must not take
``_dumps_indent2``'s fallback.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, replace
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from . import __version__
from .analyzer import (
    AnalysisReport,
    SizeLattice,
    analyze,
    check_layer,
    exact_size_lattice,
    suggest_input_sizes,
    walk_shapes,
)
from .builtins import BUILTINS
from .config import build_network, load, to_dict
from .errors import ActivationOverflow, EquicheckError
from .group import GroupElement, GroupKind, elements
from .layers import Network, weight_shape
from .metrics import (
    SYMMETRIES,
    commutation_rows,
    invariance_sweep,
    profile_equivariance,
)

EXIT_OK = 0
EXIT_INEXACT = 1
EXIT_ERROR = 2

#: Most angles one sweep may run (one forward pass each): steps under 0.1 degree.
MAX_SWEEP_ANGLES = 3600

#: Most input sizes one suggest range may span: the answer is a list of sizes.
MAX_SUGGEST_SIZES = 1_000_000

#: Most output cells one oracle grid may compare, summed over its (i, k, s)
#: triples once MAX_ORACLE_TRIPLES has bounded how many there are.
MAX_ORACLE_CELLS = 1 << 21

#: Most (i, k, s) triples one oracle grid may hold: each one costs about 2.6 KB
#: of peak memory in a structured report, 0.6 KB of it document text, however
#: few cells it has.
MAX_ORACLE_TRIPLES = 1 << 15

#: Most activation elements one forward pass may hold, summed over the input
#: and every layer output, and most weight elements one network may draw,
#: summed over its layers: 2^25 float64 values are 256 MB.
MAX_FORWARD_ELEMENTS = 1 << 25


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _mark(ok: bool) -> str:
    mark = "✓" if ok else "✗"
    if _use_color():
        return f"\033[32m{mark}\033[0m" if ok else f"\033[31m{mark}\033[0m"
    return mark


def _resolve_config(ref: str) -> Network:
    if ref in BUILTINS:
        return BUILTINS[ref]
    if os.path.exists(ref):
        return load(ref)
    raise EquicheckError(
        f"{ref!r} is neither a built-in ({', '.join(sorted(BUILTINS))}) nor a readable file"
    )


def _config_digest(net: Network) -> str:
    canonical = json.dumps(to_dict(net), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _document(command: str, result: dict, net: Network | None = None,
              seed: int | None = None) -> dict:
    return {
        "schema_version": 1,
        "tool": "equicheck",
        "tool_version": __version__,
        "command": command,
        "config_digest": _config_digest(net) if net else None,
        "seed": seed,
        "result": result,
    }


def _float_text(f: float) -> str:
    """A float as json spells it: NaN and the infinities by name, else repr."""
    if f != f:
        return "NaN"
    if f == math.inf:
        return "Infinity"
    if f == -math.inf:
        return "-Infinity"
    return float.__repr__(f)


class _Fragment(str):
    """JSON text already laid out at its place in a document, which _indent2
    emits verbatim.  The stdlib would encode it as a JSON string, so a
    document that holds one must never reach the stdlib fallback."""


#: The text of each JSON scalar, looked up by exact type.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    _Fragment: lambda f: f,
}


class _OffTable(Exception):
    """A value _indent2 leaves to the stdlib: a type outside _SCALAR_TEXT and
    the three containers (such as np.float64), or a dict key that is not a str."""


def _indent2(o, pad: str = "\n") -> str:
    """The text of ``json.dumps(o, indent=2)``, each container built with one
    ``str.join``; ``pad`` is a newline and the indent of ``o``'s own level.

    Only exact types are encoded here: the scalars of _SCALAR_TEXT, lists,
    tuples and str-keyed dicts.  Anything else raises _OffTable.  The loops
    look scalars up inline and recurse only for anything else.
    """
    cls = type(o)
    text = _SCALAR_TEXT.get(cls)
    if text is not None:
        return text(o)
    inner = pad + "  "
    scalar = _SCALAR_TEXT.get
    if cls is list or cls is tuple:
        if not o:
            return "[]"
        parts = [text(v) if (text := scalar(type(v))) else _indent2(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if cls is not dict:
        raise _OffTable
    if not o:
        return "{}"
    parts = []
    for k, v in o.items():
        if type(k) is not str:
            raise _OffTable
        text = scalar(type(v))
        parts.append(encode_basestring_ascii(k) + ": " + (text(v) if text else _indent2(v, inner)))
    return "{" + inner + ("," + inner).join(parts) + pad + "}"


def _dumps_indent2(o) -> str:
    """``json.dumps(o, indent=2)``: by _indent2, or by the stdlib for a value
    _indent2 leaves to it, a cycle or nesting past the recursion limit, so
    the text and any error are the stdlib's own."""
    try:
        return _indent2(o)
    except (_OffTable, RecursionError):
        return json.dumps(o, indent=2)


class _DocumentEncoder(json.JSONEncoder):
    """Hands ``json.dump`` a whole document and its newline as one chunk, so
    ``json.dump`` stays the one call that writes a document and a wrapper on
    ``cli.json.dump`` times each emission, encoding included."""

    def iterencode(self, o, _one_shot=False):
        return [_dumps_indent2(o) + "\n"]


def _emit(doc: dict, text: Callable[[], str], args) -> None:
    """Write the document to ``--out`` and print it or the text, which is
    built only when it is printed."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, cls=_DocumentEncoder)
    if args.format == "structured":
        json.dump(doc, sys.stdout, cls=_DocumentEncoder)
    else:
        print(text())


def _parse_elements(raw: str | None, kind: GroupKind) -> tuple[GroupElement, ...]:
    if raw is None:
        return tuple(g for g in elements(kind) if g != GroupElement(0))
    out = []
    for name in raw.split(","):
        g = GroupElement.from_name(name.strip())
        if g.mirrored and kind is not GroupKind.P4M:
            raise EquicheckError(f"element {g.name!r} needs a p4m network")
        if g in out:
            raise EquicheckError(f"element {g.name!r} is given twice")
        out.append(g)
    return tuple(out)


def _int_text(n: int) -> str:
    """A non-negative int in decimal, or by its digit count when it has more
    digits than Python turns into text."""
    limit = sys.get_int_max_str_digits()
    if not limit or n < 10 ** limit:
        return str(n)
    digits = int(n.bit_length() * math.log10(2)) + 1  # the count, or one more
    if n < 10 ** (digits - 1):
        digits -= 1
    return f"<a {digits}-digit integer>"


def _lattice_text(lattice: SizeLattice | None) -> str:
    if lattice is None:
        return "exact sizes: none"
    return (f"exact sizes: i ≥ {_int_text(lattice.minimum)}, "
            f"i ≡ {_int_text(lattice.residue)} (mod {_int_text(lattice.modulus)})")


def _analysis_text(net: Network, report: AnalysisReport,
                   lattice: SizeLattice | None) -> str:
    lines = [
        f"architecture: {net.name}  group: {net.kind.value}  "
        f"input: {report.input_size}x{report.input_size}",
        f"{'#':>3}  {'layer':<16} {'in':>5} {'padded':>7} {'out':>5}  eq",
    ]
    for t in report.trace:
        note = f"  {t.note}" if t.note else ""
        lines.append(
            f"{t.index:>3}  {t.kind:<16} {t.input_size:>5} {t.padded_size:>7} "
            f"{t.output_size:>5}  {_mark(t.condition_ok)}{note}"
        )
    if report.exact:
        lines.append("verdict: exact")
    else:
        lines.append(f"verdict: approximate (violations at layers {list(report.violations)})")
        if report.suggested_sizes:
            sizes = ", ".join(str(s) for s in report.suggested_sizes)
            lines.append(f"exact input sizes nearby: {sizes}")
    lines.append(_lattice_text(lattice))
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    net = _resolve_config(args.config)
    input_size = net.input_size if args.input_size is None else args.input_size
    report = analyze(net, input_size)
    payload = {"name": net.name, "group": net.kind.value, **asdict(report)}
    doc = _document("analyze", payload, net)
    _emit(doc, lambda: _analysis_text(net, report, exact_size_lattice(net)), args)
    return EXIT_OK if report.exact else EXIT_INEXACT


def cmd_suggest(args) -> int:
    if args.hi - args.lo + 1 > MAX_SUGGEST_SIZES:
        raise EquicheckError(
            f"suggest range [{args.lo}, {args.hi}] spans more than {MAX_SUGGEST_SIZES} sizes"
        )
    net = _resolve_config(args.config)
    sizes = suggest_input_sizes(net, args.lo, args.hi)
    payload = {"name": net.name, "lo": args.lo, "hi": args.hi, "exact_sizes": sizes}
    text = (
        f"exact input sizes for {net.name} in [{args.lo}, {args.hi}]: "
        + (", ".join(str(s) for s in sizes) if sizes else "none")
    )
    _emit(_document("suggest", payload, net), lambda: text, args)
    return EXIT_OK


def _parse_range(raw: str, field: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = raw.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise EquicheckError(f"{field} must look like LO:HI, got {raw!r}")
    if lo > hi or lo < 1:
        raise EquicheckError(f"{field} is degenerate: {raw!r}")
    return lo, hi


def _oracle_triples(i_lo: int, i_hi: int, k_lo: int, k_hi: int, s_lo: int, s_hi: int) -> int:
    """Triples (i, k, s) of the oracle grid, those with k <= i, counted in
    closed form from the range bounds."""
    # each i in [k_lo, k_hi] pairs with k_lo..i, an arithmetic series; each
    # larger i pairs with the whole k range
    lo, hi = max(i_lo, k_lo), min(i_hi, k_hi)
    pairs = (lo - k_lo + 1 + hi - k_lo + 1) * (hi - lo + 1) // 2 if lo <= hi else 0
    pairs += max(0, i_hi - max(i_lo, k_hi + 1) + 1) * (k_hi - k_lo + 1)
    return pairs * (s_hi - s_lo + 1)


def _oracle_cell_templates() -> tuple[str, str]:
    """The %-templates of an oracle cell that holds and of one that breaks,
    laid out by _indent2 where a cell sits, in ``doc["result"]["cells"]``.
    Both take i, k, s and the texts of holds, condition and agree; the second
    then takes the ten ints of the counterexample in document order."""
    d, b = _Fragment("%d"), _Fragment("%s")
    cell = {"i": d, "k": d, "s": d, "holds": b, "condition": b, "agree": b}
    corners = [[d, d], [d, d]]
    broken = {**cell, "counterexample": {
        "output_index": [d, d], "via_output": corners, "via_input": corners}}
    pad = "\n" + "  " * 3  # the indent of the cells list's items
    return _indent2(cell, pad), _indent2(broken, pad)


_HOLDS_CELL, _BROKEN_CELL = _oracle_cell_templates()


def cmd_oracle(args) -> int:
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
    if not triples:
        raise EquicheckError("the requested ranges contain no valid (i, k, s) cells")
    rows = commutation_rows(triples, SYMMETRIES[args.symmetry])
    json_bool = _SCALAR_TEXT[bool]
    cells, disagreements, holds = [], [], 0
    for (i, k, s), row in zip(triples, rows):
        commutes = row is None
        condition = check_layer(i, k, s, 0)
        agree = commutes == condition
        flags = json_bool(commutes), json_bool(condition), json_bool(agree)
        if commutes:
            cell = _HOLDS_CELL % (i, k, s, *flags)
        else:
            cell = _BROKEN_CELL % (i, k, s, *flags, *row)
        cells.append(_Fragment(cell))
        holds += commutes
        if not agree:
            disagreements.append((i, k, s))
    agreement = (len(cells) - len(disagreements)) / len(cells)
    payload = {
        "symmetry": args.symmetry,
        "i_range": [i_lo, i_hi], "k_range": [k_lo, k_hi], "s_range": [s_lo, s_hi],
        "cells": cells,
        "total": len(cells),
        "holds_count": holds,
        "agreement": agreement,
    }

    def text() -> str:
        lines = [
            f"{args.symmetry} commutation oracle over i in [{i_lo},{i_hi}], "
            f"k in [{k_lo},{k_hi}], s in [{s_lo},{s_hi}]",
            f"cells: {len(cells)}  commuting: {holds}  broken: {len(cells) - holds}",
            f"agreement with (i - k) mod s = 0 rule: {agreement:.1%} {_mark(agreement == 1.0)}",
        ]
        lines += [f"  DISAGREES: i={i} k={k} s={s}" for i, k, s in disagreements]
        if len(cells) == 1 and (row := rows[0]) is not None:
            lines.append(f"counterexample at output index {row[:2]}: "
                         f"{[list(row[2:4]), list(row[4:6])]} vs "
                         f"{[list(row[6:8]), list(row[8:10])]}")
        return "\n".join(lines)

    _emit(_document("oracle", payload), text, args)
    return EXIT_OK if agreement == 1.0 else EXIT_INEXACT


def _truncation_text(truncated_at: int, what: str, overflow: bool = False) -> str:
    cause = (f"activations overflow float64 at layer {truncated_at}" if overflow
             else "its kernel outruns the input")
    return f"truncated at layer {truncated_at}: {cause}, so {what}"


def _seeded_command_network(args):
    """(declared, net, truncated_at) of a ``measure`` or ``sweep``: the
    network as declared, that network at the command's input size, and the
    first layer whose kernel outruns its input there, or None; checked for
    the seed, forward size and weight count before anything is drawn."""
    if args.seed < 0:
        raise EquicheckError(f"--seed must be non-negative, got {args.seed}")
    declared = _resolve_config(args.config)
    net = build_network(declared, args.input_size)
    steps = list(walk_shapes(net.kind, net.layers, net.input_size, net.in_channels))
    held = net.in_channels * net.input_size**2 + sum(
        c * g * side * side for c, g, side in (step.out_shape for step in steps))
    if held > MAX_FORWARD_ELEMENTS:
        raise EquicheckError(
            f"a forward pass at input size {net.input_size} holds {held} activation "
            f"elements, more than {MAX_FORWARD_ELEMENTS}"
        )
    drawn = sum(math.prod(shape) for shape in map(weight_shape, steps) if shape)
    if drawn > MAX_FORWARD_ELEMENTS:
        raise EquicheckError(
            f"the network at input size {net.input_size} draws {drawn} weight "
            f"elements, more than {MAX_FORWARD_ELEMENTS}"
        )
    truncated_at = next((idx for idx, step in enumerate(steps) if not step.out_shape[2]), None)
    return declared, net, truncated_at


def cmd_measure(args) -> int:
    declared, net, truncated_at = _seeded_command_network(args)
    # a kernel that outruns the input ends the network; profile what is before it
    if truncated_at is not None:
        net = replace(net, layers=net.layers[:truncated_at])
    group_elements = _parse_elements(args.elements, net.kind)
    profile = profile_equivariance(net, args.seed, group_elements, args.integer_weights)
    payload = {
        "name": net.name,
        "input_size": net.input_size,
        "seed": args.seed,
        "integer_weights": args.integer_weights,
        "elements": [g.name for g in group_elements],
        "entries": [
            {"layer": e.layer_index, "element": e.element.name, "error": e.error}
            for e in profile.entries
        ],
        "max_error": profile.max_error(),
    }
    # an overflow comes before any layer the walk cut, as only those ran
    overflow = profile.overflow_at is not None
    stop = profile.overflow_at if overflow else truncated_at
    if stop is not None:
        payload["truncated_at"] = stop
    lines = [
        f"equivariance profile: {net.name} at {net.input_size}x{net.input_size}, "
        f"seed {args.seed}, {'integer' if args.integer_weights else 'float'} weights",
        f"{'layer':>5}  {'element':<8} {'error':>12}",
    ]
    for e in profile.entries:
        lines.append(f"{e.layer_index:>5}  {e.element.name:<8} {e.error:>12.6g}")
    if not profile.entries:
        lines.append("  (no group-valued depths in this network)")
    lines.append(f"max error: {profile.max_error():.6g}")
    if stop is not None:
        lines.append(_truncation_text(stop, "only the layers before it were profiled", overflow))
    _emit(_document("measure", payload, declared, args.seed), lambda: "\n".join(lines), args)
    # an overflow leaves the verdict to the depths before it; a kernel that
    # outruns the input is itself a break
    if truncated_at is not None or profile.max_error() != 0.0:
        return EXIT_INEXACT
    return EXIT_OK


def cmd_sweep(args) -> int:
    declared, net, truncated_at = _seeded_command_network(args)
    if not (math.isfinite(args.angle_step) and args.angle_step > 0):
        raise EquicheckError(f"--angle-step must be finite and positive, got {args.angle_step}")
    # ceil(360 / step) > MAX_SWEEP_ANGLES, without ceil overflowing on a tiny step
    if 360.0 / args.angle_step > MAX_SWEEP_ANGLES:
        raise EquicheckError(
            f"--angle-step {args.angle_step} asks for more than {MAX_SWEEP_ANGLES} angles; "
            f"use a step of at least {360 / MAX_SWEEP_ANGLES}"
        )
    angles = list(np.arange(0.0, 360.0, args.angle_step))
    # the verdict rests on the right angles, so a step that misses one (50,
    # 0.7, or 90/39 whose arange lands on 89.99999999999999) still gets it
    for quarter in (90.0, 180.0, 270.0):
        if quarter not in angles:
            bisect.insort(angles, quarter)
    # the sweep compares network outputs, so a kernel that outruns the input
    # leaves nothing to run
    points, overflow = [], False
    if truncated_at is None:
        try:
            points = invariance_sweep(net, args.seed, angles, args.integer_weights)
        except ActivationOverflow as exc:
            truncated_at, overflow = exc.layer, True
    grid_aligned = [p for p in points if p.angle % 90 == 0]
    worst_aligned = max((p.discrepancy for p in grid_aligned), default=0.0)
    payload = {
        "name": net.name,
        "input_size": net.input_size,
        "seed": args.seed,
        "integer_weights": args.integer_weights,
        "rows": [{"angle": float(p.angle), "discrepancy": p.discrepancy} for p in points],
        "max_discrepancy_90s": None if truncated_at is not None else worst_aligned,
    }
    lines = [
        f"invariance sweep: {net.name} at {net.input_size}x{net.input_size}, "
        f"seed {args.seed} (inputs circle-cropped)",
        f"{'angle':>7}  {'discrepancy':>12}",
    ]
    for p in points:
        lines.append(f"{p.angle:>7.1f}  {p.discrepancy:>12.6g}")
    if truncated_at is not None:
        payload["truncated_at"] = truncated_at
        what = "no output was compared" if overflow else "no forward pass was run"
        lines.append(_truncation_text(truncated_at, what, overflow))
    else:
        lines.append(f"max discrepancy at multiples of 90: {worst_aligned:.6g}")
    _emit(_document("sweep", payload, declared, args.seed), lambda: "\n".join(lines), args)
    if truncated_at is None and worst_aligned == 0.0:
        return EXIT_OK
    return EXIT_INEXACT


def cmd_list_builtins(args) -> int:
    rows = [
        {"name": net.name, "group": net.kind.value, "input_size": net.input_size,
         "layers": len(net.layers)}
        for net in BUILTINS.values()
    ]
    payload = {"builtins": rows}
    lines = [f"{'name':<14} {'group':<5} {'input':>5} {'layers':>7}"]
    for r in rows:
        lines.append(f"{r['name']:<14} {r['group']:<5} {r['input_size']:>5} {r['layers']:>7}")
    _emit(_document("list-builtins", payload), lambda: "\n".join(lines), args)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it and
    leaves it as it was, so every ``run`` shares it."""
    parser = argparse.ArgumentParser(
        prog="equicheck",
        description="Check whether subsampling layers keep a network exactly "
                    "equivariant to quarter-turn rotations and mirrors.",
    )
    parser.add_argument("--version", action="version", version=f"equicheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("config", help="built-in name or path to a config JSON")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--out", help="also write the structured JSON document here")

    p = sub.add_parser("analyze", help="size trace and exactness verdict")
    common(p)
    p.add_argument("--input-size", type=int, help="override the config's input side")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("suggest", help="input sizes in a range that are exact")
    common(p)
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.set_defaults(func=cmd_suggest)

    p = sub.add_parser("oracle", help="brute-force index commutation vs the modular rule")
    common(p, needs_config=False)
    p.add_argument("--i-range", default="2:24", help="input sides LO:HI")
    p.add_argument("--k-range", default="1:5", help="kernel sizes LO:HI")
    p.add_argument("--s-range", default="1:4", help="strides LO:HI")
    p.add_argument("--symmetry", choices=("rot", "mirror"), default="rot")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("measure", help="per-depth equivariance error, random weights")
    common(p)
    p.add_argument("--input-size", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--integer-weights", action="store_true",
                   help="draw small integer weights/inputs so errors are exact")
    p.add_argument("--elements", help="comma list, e.g. r,r2,r3 or m,mr")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="output discrepancy under rotated inputs")
    common(p)
    p.add_argument("--input-size", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--integer-weights", action="store_true")
    p.add_argument("--angle-step", type=float, default=30.0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("list-builtins", help="embedded example architectures")
    common(p, needs_config=False)
    p.set_defaults(func=cmd_list_builtins)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EquicheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())
