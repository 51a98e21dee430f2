"""equicheck benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {measure,sweep,rule} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout.  It drives the public CLI in-process
(``equicheck.cli.run(argv + ["--format", "structured"])``) from a worker
process of its own, one single-threaded closed-loop client, with the BLAS
thread count capped at the number of usable CPUs.

--trace 0 measures the end-to-end metrics.  Set-up is timed in three fresh
interpreters (two probes and the measuring worker), from process start to
the end of the untimed warm-up round, and its median is reported.  Every
time is reported at reference speed (worker.reference_time).
--trace 1 alternates untraced and traced rounds in one worker and reports
the per-layer metrics plus the tracing overhead.

Every metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Details (round
times, failures by command, output digests, behaviour changes against
perfbench/digests.json) go to ``.bench_out/`` in the checkout, and spans of
a traced run to ``.bench_out/spans-*.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 2

#: A run must end within 180 s; workers still alive at this point are killed.
DEADLINE_S = 170.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _load_manifest() -> dict:
    """BENCHMARK.json, which alone declares the metrics' names, units and
    directions.  Every per-layer metric it declares must have a note in
    tracing.MOVES, and every note must name a declared metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    declared = {m["name"] for m in manifest["per_layer"]}
    if declared != set(tracing.MOVES):
        raise BenchError("BENCHMARK.json per_layer and tracing.MOVES differ: "
                         + ", ".join(sorted(declared ^ set(tracing.MOVES))))
    names = [w["name"] for w in manifest["workloads"]]
    if sorted(names) != sorted(workloads.SCRIPTS):
        raise BenchError(f"BENCHMARK.json workloads {names} != {sorted(workloads.SCRIPTS)}")
    return manifest


def _worker_env() -> tuple[dict, int]:
    cpus = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), cpus) if current.isdigit() and int(current) > 0 else cpus)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env, int(env["OPENBLAS_NUM_THREADS"])


def _run_worker(job: dict, env: dict, deadline: float) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, the JSON object it printed
    last).

    Set-up ends when the worker's ``setup-done`` line arrives.  A worker
    still running at ``deadline`` is killed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT)
    out = b""
    setup = None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError("worker ran past the deadline")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if setup is None and b"setup-done\n" in out:
                setup = time.perf_counter() - start
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup is None:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup, json.loads(out.decode().strip().splitlines()[-1])


def _print_metric(name: str, value: float, unit: str) -> None:
    print(f"{name:<44} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SCRIPTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "equicheck", "__init__.py")):
        raise BenchError(f"no equicheck sources under {os.path.join(ROOT, 'src')}")
    manifest = _load_manifest()
    env, blas_threads = _worker_env()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = {"root": ROOT, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": bool(args.trace), "probe": False,
           "per_layer": manifest["per_layer"],
           "spans_path": os.path.join(out_dir, f"spans-{stem}.jsonl.gz")}
    deadline = started + DEADLINE_S

    def at_reference_speed(setup: float, out: dict) -> float:
        return (setup - out["setup_reference_s"]) * out["setup_scale"]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(at_reference_speed(*_run_worker(dict(job, probe=True), env, deadline)))
    setup, res = _run_worker(job, env, deadline)
    setups.append(at_reference_speed(setup, res))

    digests = res["digests"]
    changes, unchecked = behaviour_changes(args.workload, args.seed, digests)
    correct = not res["problems"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas threads {blas_threads}  untraced rounds {res['rounds']}")
    print(f"round wall time, not at reference speed: median {res['round_wall_s_p50']:.4g} s, "
          f"p{res['round_s_tail_percentile']:.0f} {res['round_wall_s_tail']:.4g} s")
    for problem in res["problems"]:
        print(f"INCORRECT: {problem}")
    for label, (count, how) in sorted(res["failures_by_command"].items()):
        print(f"failed: {label} x{count} ({how})")
    print("behaviour changes: " + (", ".join(changes) if changes else "none"))
    if unchecked:
        print(f"not checked (no reference digests for seed {args.seed}): "
              + ", ".join(unchecked))
    if args.trace:
        metrics = res["per_layer"]
        if res["trace_missing"]:
            print("not traced (absent): " + ", ".join(res["trace_missing"]))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "round_s_p50": res["round_s_p50"],
            "round_s_tail": res["round_s_tail"],
            "verdicts_per_s": res["verdicts_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in manifest["end_to_end"]}
        _print_metric("fail_ratio", res["fail_ratio"], "ratio")
    for name, m in metrics.items():
        _print_metric(name, m["value"], m["unit"])

    detail = dict(res, workload=args.workload, seed=args.seed, trace=args.trace,
                  blas_threads=blas_threads, setup_s=setups, behaviour_changes=changes,
                  not_checked=unchecked, metrics=metrics)
    with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def behaviour_changes(workload: str, seed: int, digests: dict) -> tuple[list[str], list[str]]:
    """``(changed, unchecked)``: names of outputs whose digest differs from
    perfbench/digests.json, and names of the parts that file holds no
    reference for at this seed (``rule`` is recorded once, for any seed)."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    pairs, unchecked = [], []
    commands = refs[workload].get("any") or refs[workload].get(str(seed))
    if commands is None:
        unchecked.append(f"{workload} documents")
    else:
        pairs += [(name, sha, digests["commands"].get(name, ""))
                  for name, sha in commands.items()]
    activations = refs["activations"].get(str(seed))
    if activations is None:
        unchecked.append("activations")
    else:
        pairs += [(f"activations {name}", sha, digests["activations"].get(name, ""))
                  for name, sha in activations.items()]
    return sorted(name for name, ref, now in pairs if now[:len(ref)] != ref), unchecked


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
