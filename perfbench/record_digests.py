"""Rewrite perfbench/digests.json, the reference output digests.

    python3 perfbench/record_digests.py

For ``measure`` and ``sweep`` it records, for every seed in ``SEEDS``, the
sha256 (first 16 hex digits) of every integer-mode structured document and
of the integer-mode activations of the built-ins in
``workloads.ACTIVATION_NETS``; ``rule`` is seed-independent and recorded
once.  Float-mode documents are not recorded: they may move by rounding.
``run.py`` names every output whose digest differs as a behaviour change,
and names the parts it could not check on a seed outside ``SEEDS``.
Run this only after a change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import os

import workloads
from worker import _import_equicheck, _sha, activation_digests, run_once

HERE = os.path.dirname(os.path.abspath(__file__))
DIGITS = 16

#: Seeds with reference digests: wide enough for every seed a set of runs
#: is likely to pass; the file stays ~100 KB.
SEEDS = range(128)


def _command_digests(cli, commands) -> dict:
    return {c.label: _sha(run_once(cli.run, c)[2])[:DIGITS]
            for c in commands if c.digest_class == workloads.EXACT_CLASS}


def main() -> None:
    eq, cli = _import_equicheck(os.path.dirname(HERE))
    out = {"rule": {"any": _command_digests(cli, workloads.script("rule", 0))},
           "measure": {}, "sweep": {}, "activations": {}}
    for seed in SEEDS:
        for workload in ("measure", "sweep"):
            commands = workloads.script(workload, seed) + workloads.untimed_checks(workload, seed)
            out[workload][str(seed)] = _command_digests(cli, commands)
        out["activations"][str(seed)] = {
            name: sha[:DIGITS] for name, sha in activation_digests(eq, seed).items()}
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
