"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are part of the contract: integer-mode equivariance is
asserted with zero tolerance, bilinear consistency at 1e-9.
"""

import time

import numpy as np

from equicheck.analyzer import analyze, check_layer
from equicheck.builtins import BUILTINS, P4CNN, TOY41
from equicheck.config import build_network
from equicheck.group import GroupElement, GroupKind, ROT90, act_full, act_spatial, elements
from equicheck.layers import (
    circle_crop,
    coset_maxpool,
    forward,
    global_avg_pool,
    relu,
    seed_network,
)
from equicheck.metrics import (
    equivariance_error,
    invariance_sweep,
    mirror_commutation,
    profile_equivariance,
    rotate_bilinear,
    rotation_commutation,
)
from equicheck.tensor import FeatureMap, max_abs_diff, random_feature_map

GRID = [
    (i, k, s)
    for i in range(2, 25)
    for k in range(1, 6)
    for s in range(1, 5)
    if k <= i
]


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_theorem_equivalence_exhaustive():
    start = time.perf_counter()
    mismatches = []
    for i, k, s in GRID:
        rot = rotation_commutation(i, k, s).holds
        mir = mirror_commutation(i, k, s).holds
        rule = (i - k) % s == 0
        if rot != rule or mir != rot:
            mismatches.append((i, k, s, rot, mir, rule))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    _report(1, f"theorem equivalence, {len(GRID)} cells in {elapsed:.2f}s", ok)


def test_criterion_2_paper_arithmetic():
    ok = (
        check_layer(33, 3, 2) is True
        and check_layer(32, 3, 2) is False
        and check_layer(5, 2, 2) is False
    )
    _report(2, "modular arithmetic of the documented cases", ok)


def test_criterion_3_p4cnn_input_size_facts():
    start = time.perf_counter()
    r28 = analyze(P4CNN, 28)
    r27 = analyze(P4CNN, 27)
    r29 = analyze(P4CNN, 29)
    elapsed = time.perf_counter() - start
    pool = next(t.index for t in r28.trace if t.kind == "maxpool")
    ok = (
        r28.exact
        and not r27.exact
        and not r29.exact
        # the stride-2 pool is the only condition violation; at 27 the tail
        # 4x4 conv additionally runs out of pixels and truncates the trace
        and set(r27.violations) - {r27.truncated_at} == {pool}
        and r29.violations == (pool,)
        and elapsed < 1.0
    )
    _report(3, f"p4cnn exact@28, approx@27/29 in {elapsed:.3f}s", ok)


def test_criterion_4_exact_builtins_zero_error():
    start = time.perf_counter()
    p4_elements = elements(GroupKind.P4)
    checked = []
    worst = 0.0
    for name, cfg in BUILTINS.items():
        if not analyze(cfg, cfg.input_size).exact:
            continue
        net = build_network(cfg)
        for seed in range(5):
            profile = profile_equivariance(net, seed, p4_elements, integer_valued=True)
            worst = max(worst, profile.max_error())
        checked.append(name)
    elapsed = time.perf_counter() - start
    ok = worst == 0.0 and set(checked) == {"toy41", "p4cnn", "z2cnn"} and elapsed < 30.0
    _report(4, f"exact builtins {checked} error 0.0, 5 seeds, {elapsed:.1f}s", ok)


def test_criterion_5_toy_network_distinguishes_rotations():
    def final_discrepancies(size):
        net = build_network(TOY41, input_size=size)
        out = []
        for seed in range(10):
            seeded = seed_network(net, seed, integer_valued=True)
            x = random_feature_map([seed, 1], 1, 1, size, size, integer_valued=True)
            base = forward(seeded, x)[-1]
            moved = forward(seeded, act_spatial(ROT90, x))[-1]
            out.append(max_abs_diff(base, moved))
        return out

    at_32 = final_discrepancies(32)
    at_33 = final_discrepancies(33)
    ok = any(d > 0 for d in at_32) and all(d == 0.0 for d in at_33)
    _report(
        5,
        f"toy net at 32 distinguishes rotation ({sum(d > 0 for d in at_32)}/10 seeds), at 33 never",
        ok,
    )


def test_criterion_6_layer_commutation_suite():
    kind = GroupKind.P4M
    all_eight = elements(kind)
    worst = 0.0
    for seed in range(20):
        fm = random_feature_map(seed, 2, 8, 6, 6, integer_valued=True)
        for g in all_eight:
            moved = act_full(g, fm, kind)
            worst = max(
                worst,
                max_abs_diff(relu(moved), act_full(g, relu(fm), kind)),
                max_abs_diff(coset_maxpool(moved), act_spatial(g, coset_maxpool(fm))),
                max_abs_diff(global_avg_pool(moved), act_full(g, global_avg_pool(fm), kind)),
                max_abs_diff(circle_crop(moved), act_full(g, circle_crop(fm), kind)),
            )
    ok = worst == 0.0
    _report(6, "relu/coset/avg/crop commute with all 8 actions, 20 maps", ok)


def test_criterion_7_bilinear_consistency():
    worst = 0.0
    for n in (7, 8):
        fm = random_feature_map(100 + n, 1, 1, n, n)
        worst = max(worst, max_abs_diff(rotate_bilinear(fm, 0.0), fm))
        for quarters, angle in ((1, 90.0), (2, 180.0), (3, 270.0)):
            expected = act_spatial(GroupElement(quarters), fm)
            worst = max(worst, max_abs_diff(rotate_bilinear(fm, angle), expected))
    sweep = invariance_sweep(build_network(TOY41), 0, [0.0], integer_valued=True)
    ok = worst <= 1e-9 and sweep[0].discrepancy == 0.0
    _report(7, f"bilinear right angles within 1e-9 (worst {worst:.2e}), sweep@0 exact", ok)


def test_criterion_8_error_measure_unit_check():
    zeros = FeatureMap(np.zeros((1, 4, 2, 2)))
    ones = FeatureMap(np.ones((1, 4, 2, 2)))
    value = equivariance_error(zeros, ones)
    ok = value == 0.25
    _report(8, f"error of zeros-vs-ones (1,4,2,2) = {value}", ok)
