"""One workload's client, run in a fresh interpreter by ``run.py``.

It imports equicheck from the checkout's ``src``, runs one untimed warm-up
round, prints ``setup-done`` (the parent times set-up up to that line), and
unless it is a set-up probe runs timed rounds: a single-threaded closed
loop, each command starting only when the previous one returned.  The last
line it prints is one JSON object with the run's figures.

Times are reported at reference speed (see ``reference_time``): the speed of a
shared host's vCPU drifts by up to 1.6x over minutes, and a round's wall time
would measure that drift more than the program.

Usage (by run.py): python3 perfbench/worker.py '<job as JSON>'
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import tracing
import workloads
from workloads import EXACT, EXACT_CLASS


def _import_equicheck(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import equicheck
    from equicheck import cli
    if not os.path.abspath(equicheck.__file__).startswith(src + os.sep):
        raise SystemExit(f"equicheck imported from {equicheck.__file__}, not from {src}")
    return equicheck, cli


def run_once(run, cmd, tracer=None):
    """Run one command with stdout and stderr captured, as the root span of
    its subtree when a tracer is given.

    Returns ``(exit code or None, seconds, stdout text, error text)``; the
    code is None when the program let an exception escape."""
    out, err = io.StringIO(), io.StringIO()
    argv = list(cmd.argv) + ["--format", "structured"]
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = tracer.root(cmd.label, run, argv) if tracer else run(argv)
    except Exception as exc:  # counted as a failed command, and the run goes on
        seconds = time.perf_counter() - start
        return None, seconds, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue().strip()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_document(cmd, code, text, tolerance) -> list[str]:
    """Contradictions between a command's exit code and its own document.

    These mean the program's output cannot be trusted, unlike a verdict
    that disagrees with the documented answer, which is a failed command."""
    if code not in (0, 1):
        return []
    try:
        doc = json.loads(text)
        result = doc["result"]
        if doc["tool"] != "equicheck" or doc["command"] != cmd.subcommand:
            return [f"{cmd.label}: document names tool {doc['tool']!r}, "
                    f"command {doc['command']!r}"]
        sub = cmd.subcommand
        problems = []
        if sub == "measure":
            verdict = result["max_error"] <= tolerance
            if result["integer_weights"] and code == 0 and result["max_error"] != 0.0:
                problems.append(f"{cmd.label}: integer mode passed with a nonzero error")
        elif sub == "sweep":
            verdict = result["max_discrepancy_90s"] <= tolerance
        elif sub == "oracle":
            verdict = result["agreement"] == 1.0
        elif sub == "analyze":
            verdict = result["exact"]
        else:  # suggest: the documented sizes must be listed exactly when exact
            verdict = True
            sizes = set(result["exact_sizes"])
            for (arch, size), exact in EXACT.items():
                if arch == result["name"] and (size in sizes) != exact:
                    problems.append(f"{cmd.label}: size {size} listed={size in sizes}, "
                                    f"documented exact={exact}")
        if verdict != (code == 0):
            problems.append(f"{cmd.label}: exit {code} contradicts its document")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{cmd.label}: malformed document ({type(exc).__name__}: {exc})"]


def oracle_cells(text: str) -> int:
    """Output cells the oracle examined: o^2 for a cell that commutes, else
    the row-major position of its counterexample plus one."""
    total = 0
    for cell in json.loads(text)["result"]["cells"]:
        o = (cell["i"] - cell["k"]) // cell["s"] + 1
        if cell["holds"]:
            total += o * o
        else:
            x, y = cell["counterexample"]["output_index"]
            total += y * o + x + 1
    return total


def activation_digests(eq, seed: int) -> dict:
    """sha256 of the integer-mode per-layer activations of each built-in in
    ACTIVATION_NETS, through the public seed_network and forward."""
    from equicheck.builtins import BUILTINS
    out = {}
    for name in workloads.ACTIVATION_NETS:
        net = eq.build_network(BUILTINS[name])
        seeded = eq.seed_network(net, seed, True)
        x = eq.random_feature_map([seed, 1], net.in_channels, 1, net.input_size,
                                  net.input_size, True)
        h = hashlib.sha256()
        for act in eq.forward(seeded, x):
            h.update(repr(act.shape).encode())
            h.update(act.values.tobytes())
        out[name] = h.hexdigest()
    return out


#: About the fastest ``reference_time`` ran on the 2-vCPU machine (Intel
#: Xeon, 2.0 GHz) the benchmark was written on, so that times at reference
#: speed read close to that machine's times when its host is quiet.
REFERENCE_S = 10.0e-3

_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((64, 64)) / 8.0


def reference_time() -> float:
    """Seconds a fixed piece of work takes now: an integer loop, small
    matrix products, and building, dumping and parsing a list of small
    dicts, like equicheck's own mix of numpy, interpreter and JSON work.

    It runs before every command of a round and after the last one, the
    warm-up round included, outside the commands' timing.  A round's time ``t`` is reported at
    reference speed as ``t * REFERENCE_S / r``, where ``r`` is the mean of
    the reference times measured around its commands.  The speed of each
    vCPU of a shared host changes every few seconds and its slow share
    drifts over minutes; the program and this work slow down together, so
    the ratio is steady where ``t`` alone is not.  A change to the program
    changes ``t`` and not ``r``."""
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    m = _REFERENCE_MATRIX
    for _ in range(80):
        m = np.tanh(_REFERENCE_MATRIX @ m)
    cells = [{"i": i, "k": i % 7, "s": i % 5, "holds": i % 3 == 0, "at": [i, i + 1]}
             for i in range(1500)]
    json.loads(json.dumps({"cells": cells}))
    return time.perf_counter() - start


def tail(values):
    """(value, percentile) of the highest percentile with at least
    min(10, n // 4) rounds beyond it: ten rounds once a run has forty, and
    never below the 75th percentile in a shorter run."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def main() -> int:
    job = json.loads(sys.argv[1])
    workload, seed, seconds = job["workload"], job["seed"], job["seconds"]
    eq, cli = _import_equicheck(job["root"])
    tolerance = getattr(cli, "FLOAT_TOLERANCE", 1e-9)
    commands = workloads.script(workload, seed)

    problems: list[str] = []
    reference: dict[str, str] = {}
    oracle_docs = []
    setup_refs = []
    for cmd in commands:
        setup_refs.append(reference_time())
        code, _, text, _ = run_once(cli.run, cmd)
        found = check_document(cmd, code, text, tolerance)
        problems += found
        reference[cmd.label] = _sha(text)
        if cmd.subcommand == "oracle" and code in (0, 1) and not found:
            oracle_docs.append(text)
    setup_refs.append(reference_time())
    print("setup-done", flush=True)
    # The parent takes the reference time out of the set-up it measured
    # and scales the rest like a round, by the median reference time: the
    # first call in a fresh interpreter runs ~30% slow.
    setup = {"setup_reference_s": sum(setup_refs),
             "setup_scale": REFERENCE_S / statistics.median(setup_refs)}
    if job["probe"]:
        print(json.dumps(setup), flush=True)
        return 0
    cells = sum(oracle_cells(text) for text in oracle_docs)  # per round
    del oracle_docs

    tracer = tracing.Tracer() if job["trace"] else None
    rounds = []  # (wall seconds, seconds at reference speed, traced, verdicts)
    round_info = {}
    latencies = {c.label: [] for c in commands}  # untraced wall seconds
    failures: dict[str, list] = {}  # label -> [count, how the first one failed]
    executions = 0

    def record(cmd, code, error) -> None:
        nonlocal executions
        executions += 1
        if code != cmd.expected_exit:
            entry = failures.setdefault(cmd.label, [0, f"exit {code}: {error}".strip()])
            entry[0] += 1

    started = time.perf_counter()
    while True:
        n = len(rounds)
        if n >= 2 and (time.perf_counter() - started
                       + statistics.median(r[0] for r in rounds) > seconds):
            break
        gc.collect()  # every round starts from the same collector state
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.round = n
            tracer.install()
        refs, results = [], []
        for cmd in commands:
            refs.append(reference_time())
            results.append(run_once(cli.run, cmd, tracer if traced else None))
        refs.append(reference_time())
        if traced:
            tracer.uninstall()

        round_verdicts = emit_bytes = 0
        for cmd, (code, secs, text, error) in zip(commands, results):
            record(cmd, code, error)
            if not traced:
                latencies[cmd.label].append(secs)
            if code in (0, 1):
                round_verdicts += 1
                emit_bytes += len(text)
            if cmd.digest_class == EXACT_CLASS and _sha(text) != reference[cmd.label]:
                problems.append(f"{cmd.label}: output differs from the warm-up round "
                                f"in round {n}")
        wall = sum(secs for _, secs, _, _ in results)
        rounds.append((wall, wall * REFERENCE_S / statistics.mean(refs), traced, round_verdicts))
        if traced:
            round_info[n] = {"verdicts": round_verdicts, "emit_bytes": emit_bytes,
                             "oracle_cells": cells}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untimed = workloads.untimed_checks(workload, seed)
    for cmd in untimed:
        code, _, text, error = run_once(cli.run, cmd)
        record(cmd, code, error)
        problems += check_document(cmd, code, text, tolerance)
        reference[cmd.label] = _sha(text)

    plain = [r for r in rounds if not r[2]]
    scaled = [s for _, s, _, _ in plain]
    walls = [w for w, _, _, _ in plain]
    tail_value, tail_pct = tail(scaled)
    result = {
        "rounds": len(plain),
        "round_s": scaled,
        "round_s_p50": statistics.median(scaled),
        "round_s_tail": tail_value,
        "round_s_tail_percentile": tail_pct,
        "verdicts_per_s": statistics.median(v / s for _, s, _, v in plain),
        "round_wall_s": walls,
        "round_wall_s_p50": statistics.median(walls),
        "round_wall_s_tail": tail(walls)[0],
        **setup,
        "peak_rss_mb": peak_rss_mb,
        # A command is attempted once per run however many rounds fit in it,
        # and failed if any of its executions failed, so both counts depend
        # on the seed and the program, not on the machine's speed.
        "attempted": len(commands) + len(untimed),
        "failed": len(failures),
        "fail_ratio": len(failures) / (len(commands) + len(untimed)),
        "executions": executions,
        "failed_executions": sum(count for count, _ in failures.values()),
        "failures_by_command": failures,
        "problems": problems,
        "command_wall_ms_p50": {k: 1000.0 * statistics.median(v) for k, v in latencies.items()},
        "digests": {
            "commands": reference,
            "exact": _sha("".join(reference[c.label] for c in commands
                                  if c.digest_class == EXACT_CLASS)),
            "float": _sha("".join(reference[c.label] for c in commands
                                  if c.digest_class != EXACT_CLASS)),
            "activations": activation_digests(eq, seed),
        },
    }
    if tracer is not None:
        traced_rounds = [s for _, s, t, _ in rounds if t]
        overhead = statistics.median(traced_rounds) / result["round_s_p50"] - 1.0
        result["traced_rounds"] = len(traced_rounds)
        result["trace_overhead_ratio"] = overhead
        result["trace_missing"] = tracer.missing
        result["per_layer"] = tracing.layer_metrics(job["per_layer"], tracer.spans, round_info,
                                                    overhead, result["fail_ratio"])
        result["spans"] = len(tracer.spans)
        tracer.write(job["spans_path"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
