"""Outside-in tracing of equicheck and the per-layer metrics derived from it.

The program is not edited.  ``Tracer.install`` replaces public functions in
the module namespace where their callers look them up (``equicheck.cli``
for the analyzer/profiler/oracle entry points, ``equicheck.metrics`` for
``forward``/``seed_network``/``act_*``/``rotate_bilinear``,
``equicheck.layers`` for the layer functions, ``FeatureMap.__init__``) with
wrappers that record one span per call: name, start, end, parent span and
round id, plus an optional tag computed from the arguments.  Spans stay in
memory until the run ends.  ``uninstall`` restores the originals, so
untraced rounds run the program exactly as shipped.

The per-cell oracle helpers (``index_patch``, ``rotate_index``,
``rotate_patch``, ``mirror_*``) are deliberately not wrapped: a ``rule``
round examines ~3e5 output cells with several helper calls each, so spans
there would swamp the round.  ``metrics.oracle_cells`` is derived from the
verdicts instead.

No layer of equicheck has a queue, so there is no wait-time metric: every
call runs to completion on the calling thread.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict

# ---------------------------------------------------------------------------
# Which end-to-end metric each per-layer metric should move, and on which
# workload, keyed by metric name.  Names, units and directions are declared
# once, in BENCHMARK.json; run.py checks that both name the same metrics.

_FWD = "round_s_p50/verdicts_per_s on measure and sweep; no change on rule"
_SWEEP = "round_s_p50 on sweep, then measure; no change on rule"
_RULE = "round_s_p50/verdicts_per_s on rule only"
_SETUP = "setup_s on every workload, and round_s_p50 on rule"

MOVES = {
    "layers.conv2d.calls": _FWD,
    "layers.conv2d.self_ms": _FWD,
    "layers.gconv.self_ms": _FWD,
    "layers.gconv_lift.self_ms": _FWD,
    "layers.transform_filters.calls": "round_s_p50 on sweep, and setup_s",
    "layers.transform_filters.ms": "round_s_p50 on sweep, and setup_s",
    "layers.transform_filters.reuse_ratio":
        "distinct (bank, g) pairs over calls; round_s_p50 on sweep",
    "layers.maxpool.self_ms": _FWD,
    "layers.relu.self_ms": _FWD,
    "layers.circle_crop.self_ms": "round_s_p50 on sweep only",
    "layers.dense.self_ms": _FWD,
    "layers.global_avg_pool.self_ms": _FWD,
    "layers.coset_maxpool.self_ms": _FWD,
    "layers.forward.calls": "round_s_p50 on sweep (batch axis)",
    "layers.forward.self_ms": _FWD,
    "layers.seed_network.ms": _FWD,
    "layers.conv2d.macs": "computed from shapes; " + _FWD,
    "layers.conv2d.bytes": "computed from shapes; " + _FWD,
    "layers.conv2d.gmac_per_s": "computed macs over conv2d self time; " + _FWD,
    "layers.guard_ms_est":
        "conv2d self ms, integer minus float p4cnn; round_s_p50 on measure and sweep",
    "layers.guard_share": "guard_ms_est over the integer p4cnn commands' time; "
                           "round_s_p50 on measure and sweep",
    "metrics.profile_equivariance.self_ms": "round_s_p50 on measure",
    "metrics.invariance_sweep.self_ms": _SWEEP,
    "metrics.forwards_per_verdict": _SWEEP,
    "metrics.rotate_bilinear.calls": _SWEEP,
    "metrics.rotate_bilinear.ms": _SWEEP,
    "metrics.equivariance_error.ms": "round_s_p50 on measure",
    "metrics.rotation_commutation.calls": _RULE,
    "metrics.rotation_commutation.ms": _RULE,
    "metrics.mirror_commutation.calls": _RULE,
    "metrics.mirror_commutation.ms": _RULE,
    "metrics.oracle_cells": "derived from verdicts; " + _RULE,
    "metrics.oracle_us_per_cell": _RULE,
    "group.act_spatial.calls": "round_s_p50 on measure",
    "group.act_spatial.ms": "round_s_p50 on measure",
    "group.act_full.calls": "round_s_p50 on measure",
    "group.act_full.ms": "round_s_p50 on measure",
    "analyzer.analyze.calls": _RULE,
    "analyzer.analyze.ms": _RULE,
    "analyzer.suggest_input_sizes.calls": _RULE,
    "analyzer.suggest_input_sizes.ms": _RULE,
    "analyzer.check_layer.calls": _RULE,
    "analyzer.check_layer.ms": _RULE,
    "analyzer.layer_checks": "sizes scanned x layers, computed; " + _RULE,
    "config.build_network.calls": _SETUP,
    "config.build_network.ms": _SETUP,
    "config.shape_specs.calls": _SETUP,
    "config.shape_specs.ms": _SETUP,
    "config.validate.calls": _SETUP,
    "cli.run.self_ms": "round_s_p50 on every workload",
    "cli.emit.ms": _RULE,
    "cli.emit_bytes": _RULE,
    "cli.measure.ms": "round_s_p50 on measure",
    "cli.sweep.ms": "round_s_p50 on sweep",
    "cli.oracle.ms": _RULE,
    "cli.suggest.ms": _RULE,
    "cli.analyze.ms": _RULE,
    "tensor.FeatureMap.inits": "round_s_p50 on sweep and measure",
    "tensor.FeatureMap.init_ms": "round_s_p50 on sweep and measure",
    "tensor.FeatureMap.bytes_copied": "round_s_p50 on sweep and measure",
    "trace.overhead_ratio": "traced over untraced round p50, minus 1",
    "fail_ratio": "failed over attempted commands; 0 on every workload once the verdicts "
                  "are right",
}

#: The three deep stacks: (net, lifting kind, conv kind).  Their conv and
#: pool layers sit at the same indices; p4mcnn shares p4cnn's layer list.
_STACKS = (("p4cnn", "gconv_lift", "gconv"), ("p4mcnn", "gconv_lift", "gconv"),
           ("z2cnn", "conv2d", "conv2d"))



def _stack_moves():
    out = {}
    for net, lift, conv in _STACKS:
        workloads = "measure and sweep" if net == "p4cnn" else "measure"
        kinds = [(0, lift), (2, conv), (4, "maxpool")] + [(i, conv) for i in (5, 7, 9, 11, 13)]
        for idx, kind in kinds:
            for suffix in ("self_ms", "ms"):
                out[f"layers.{net}.{idx}.{kind}.{suffix}"] = (
                    f"round_s_p50 on {workloads}; no change on rule")
    return out


MOVES.update(_stack_moves())

#: Layer functions applied once per layer by ``forward``; the n-th of them
#: called directly under a ``forward`` span is layer n.
LAYER_SPANS = frozenset(
    f"layers.{k}" for k in ("gconv_lift", "gconv", "conv2d", "maxpool", "relu",
                            "coset_maxpool", "global_avg_pool", "circle_crop", "dense")
)

#: (integer-mode label, float-mode label) pairs on the same shapes whose
#: conv2d self-time difference estimates the integer exactness guard.
GUARD_PAIRS = [
    ("measure p4cnn --integer-weights", "measure p4cnn"),
    ("sweep p4cnn --angle-step 5 --integer-weights", "sweep p4cnn --angle-step 5"),
]

# ---------------------------------------------------------------------------
# Tags computed from a wrapped call's arguments.  They must never raise: a
# later version of the program may change a signature.

_TAG_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _conv_work(args, kwargs):
    """(MACs, bytes moved) of one conv2d call, computed from shapes."""
    fm, bank = _arg(args, kwargs, 0, "fm"), _arg(args, kwargs, 1, "filters")
    s, p = _arg(args, kwargs, 2, "s", 1), _arg(args, kwargs, 3, "p", 0)
    c, g, n, _ = fm.values.shape
    o, _, _, k, _ = bank.values.shape
    side = (n + 2 * p - k) // s + 1
    macs = o * c * g * k * k * side * side
    moved = 8 * (c * g * (n + 2 * p) ** 2 + bank.values.size + o * side * side)
    return (macs, moved)


def _bank_slot(args, kwargs):
    # The bank object itself is kept so its id cannot be reused in the run.
    return (_arg(args, kwargs, 1, "filters"), str(_arg(args, kwargs, 0, "g")))


def _net_name(args, kwargs):
    return _arg(args, kwargs, 0, "net").name


def _fm_bytes(args, kwargs):
    return args[0].values.nbytes


def _analyze_checks(args, kwargs):
    from equicheck import analyzer
    arch, size = _arg(args, kwargs, 0, "arch"), _arg(args, kwargs, 1, "input_size")
    window = _arg(args, kwargs, 2, "suggest_window")
    if window is None:
        radius = getattr(analyzer, "DEFAULT_SUGGEST_RADIUS", 4)
        window = (max(1, size - radius), size + radius)
    lo, hi = window
    return (1 + max(0, hi - max(1, lo) + 1)) * len(arch)


def _suggest_checks(args, kwargs):
    arch, lo, hi = (_arg(args, kwargs, i, n) for i, n in enumerate(("arch", "lo", "hi")))
    return max(0, hi - lo + 1) * len(arch)


def _safe(tag):
    def safe(args, kwargs):
        try:
            return tag(args, kwargs)
        except _TAG_ERRORS:
            return None
    return safe


class _JsonProxy:
    """Stands in for the ``json`` module in ``equicheck.cli`` so that the
    document dump can be timed without naming a private function."""

    def __init__(self, real, dump):
        self._real = real
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """In-memory span recorder.  A span is the tuple
    ``(name, start_ns, end_ns, parent_index, round_id, tag)``."""

    def __init__(self):
        self.spans: list = []
        self.round = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list = []

    def wrap(self, name, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.round,
                              tag(args, kwargs) if tag else None)

        return traced

    def root(self, label, fn, *args):
        """Run one CLI command as the root span of its subtree."""
        return self.wrap("cli.run", fn, lambda a, k: label)(*args)

    def install(self):
        from equicheck import cli, config, group, layers, metrics, tensor

        points = [
            (cli, "analyze", "analyzer.analyze", _analyze_checks),
            (cli, "suggest_input_sizes", "analyzer.suggest_input_sizes", _suggest_checks),
            (cli, "check_layer", "analyzer.check_layer", None),
            (cli, "build_network", "config.build_network", None),
            (cli, "shape_specs", "config.shape_specs", None),
            (cli, "profile_equivariance", "metrics.profile_equivariance", None),
            (cli, "invariance_sweep", "metrics.invariance_sweep", None),
            (cli, "rotation_commutation", "metrics.rotation_commutation", None),
            (cli, "mirror_commutation", "metrics.mirror_commutation", None),
            (config, "validate", "config.validate", None),
            (metrics, "forward", "layers.forward", _net_name),
            (metrics, "seed_network", "layers.seed_network", None),
            (metrics, "act_full", "group.act_full", None),
            (metrics, "act_spatial", "group.act_spatial", None),
            (group, "act_spatial", "group.act_spatial", None),
            (metrics, "rotate_bilinear", "metrics.rotate_bilinear", None),
            (metrics, "circle_crop", "layers.circle_crop", None),
            (metrics, "equivariance_error", "metrics.equivariance_error", None),
            (layers, "conv2d", "layers.conv2d", _conv_work),
            (layers, "transform_filters", "layers.transform_filters", _bank_slot),
            (tensor.FeatureMap, "__init__", "tensor.FeatureMap.init", _fm_bytes),
        ]
        points += [(layers, name.split(".")[1], name, None)
                   for name in sorted(LAYER_SPANS - {"layers.conv2d"})]
        for owner, attr, name, tag in points:
            if attr not in vars(owner):
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, tag and _safe(tag)))
        if "json" in vars(cli):
            real = cli.json
            self._installed.append((cli, "json", real))
            cli.json = _JsonProxy(real, self.wrap("cli.emit", real.dump))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, rnd, tag in self.spans:
                if name == "layers.transform_filters" and tag is not None:
                    tag = [id(tag[0]), tag[1]]
                fh.write(json.dumps([name, start, end, parent, rnd, tag]))
                fh.write("\n")


# ---------------------------------------------------------------------------
# Aggregation


def per_round_totals(spans):
    """Per-round sums over spans.

    Returns ``(totals, by_command)``.  ``totals[round]`` maps
    ``<span>.calls``/``.ms``/``.self_ms``, the per-layer-index
    ``layers.<net>.<idx>.<kind>.ms``/``.self_ms`` and the tag sums
    ``layers.conv2d.macs``/``.bytes``, ``tensor.FeatureMap.bytes_copied``,
    ``analyzer.layer_checks`` and ``transform_filters.distinct``.
    ``by_command[round][label]`` maps ``ms`` (the command's wall time) and
    each span name to its self time inside that command."""
    n = len(spans)
    child_ns = [0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    root = [0] * n
    layer_pos = [0] * n  # next layer index under each forward span
    totals: dict = defaultdict(lambda: defaultdict(float))
    by_command: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    pairs: dict = defaultdict(set)
    for i, (name, start, end, parent, rnd, tag) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        ms = (end - start) / 1e6
        self_ms = ms - child_ns[i] / 1e6
        t = totals[rnd]
        t[name + ".calls"] += 1
        t[name + ".ms"] += ms
        t[name + ".self_ms"] += self_ms
        cmd = by_command[rnd][spans[root[i]][5]]
        if name == "cli.run":
            cmd["ms"] += ms
        cmd[name] += self_ms
        if name in LAYER_SPANS and parent >= 0 and spans[parent][0] == "layers.forward":
            idx = layer_pos[parent]
            layer_pos[parent] += 1
            key = f"layers.{spans[parent][5]}.{idx}.{name.split('.', 1)[1]}"
            t[key + ".ms"] += ms
            t[key + ".self_ms"] += self_ms
        if tag is None:
            continue
        if name == "layers.conv2d":
            t["layers.conv2d.macs"] += tag[0]
            t["layers.conv2d.bytes"] += tag[1]
        elif name == "layers.transform_filters":
            pairs[rnd].add((id(tag[0]), tag[1]))
        elif name == "tensor.FeatureMap.init":
            t["tensor.FeatureMap.bytes_copied"] += tag
        elif name.startswith("analyzer."):
            t["analyzer.layer_checks"] += tag
    for rnd, seen in pairs.items():
        totals[rnd]["transform_filters.distinct"] = len(seen)
    return totals, by_command


def _ratio(a, b):
    return a / b if b else 0.0


def round_metrics(t, commands, info):
    """Per-layer metric values of one traced round from its span totals
    ``t``, its per-command totals and the harness's own counts ``info``
    (verdicts, emitted bytes, oracle cells)."""
    g = t.get
    m = {name: g(name, 0.0) for name in MOVES}
    m["layers.conv2d.gmac_per_s"] = _ratio(g("layers.conv2d.macs", 0.0),
                                           g("layers.conv2d.self_ms", 0.0) * 1e6)
    m["layers.transform_filters.reuse_ratio"] = _ratio(
        g("transform_filters.distinct", 0.0), g("layers.transform_filters.calls", 0.0))
    guard = int_ms = 0.0
    for int_label, float_label in GUARD_PAIRS:
        if int_label in commands and float_label in commands:
            guard += (commands[int_label]["layers.conv2d"]
                      - commands[float_label]["layers.conv2d"])
            int_ms += commands[int_label]["ms"]
    m["layers.guard_ms_est"] = guard
    m["layers.guard_share"] = _ratio(guard, int_ms)
    m["metrics.forwards_per_verdict"] = _ratio(g("layers.forward.calls", 0.0), info["verdicts"])
    m["metrics.oracle_cells"] = info["oracle_cells"]
    m["metrics.oracle_us_per_cell"] = _ratio(
        (g("metrics.rotation_commutation.ms", 0.0) + g("metrics.mirror_commutation.ms", 0.0))
        * 1000.0, info["oracle_cells"])
    m["cli.emit_bytes"] = info["emit_bytes"]
    for sub in ("measure", "sweep", "oracle", "suggest", "analyze"):
        m[f"cli.{sub}.ms"] = sum(c["ms"] for label, c in commands.items()
                                 if label.split(" ", 1)[0] == sub)
    m["tensor.FeatureMap.inits"] = g("tensor.FeatureMap.init.calls", 0.0)
    m["tensor.FeatureMap.init_ms"] = g("tensor.FeatureMap.init.ms", 0.0)
    return m


def layer_metrics(declared, spans, round_info, overhead_ratio, fail_ratio):
    """Median over traced rounds of every declared per-layer metric;
    ``declared`` is BENCHMARK.json's per_layer list."""
    totals, by_command = per_round_totals(spans)
    per_round = [round_metrics(totals.get(r, {}), by_command.get(r, {}), info)
                 for r, info in sorted(round_info.items())]
    out = {}
    for entry in declared:
        name = entry["name"]
        if name == "trace.overhead_ratio":
            value = overhead_ratio
        elif name == "fail_ratio":
            value = fail_ratio
        else:
            value = statistics.median(m.get(name, 0.0) for m in per_round)
        out[name] = {"value": value, "unit": entry["unit"]}
    return out
