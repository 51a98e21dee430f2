"""Commutation oracles, the error measure, per-depth profiles, bilinear
rotation and the invariance sweep."""

import functools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_config_cli import mirror_commutation
from test_layers import reuse_stacks, scaled

from equicheck import metrics
from equicheck.analyzer import output_size
from equicheck.builtins import P4CNN, TOY41
from equicheck.config import build_network
from equicheck.errors import ConfigError, DimensionError, PatchError, ShapeError
from equicheck.group import (
    GroupElement,
    GroupKind,
    IndexPatch,
    act_full,
    act_spatial,
    check_corner_order,
    elements,
    mirror_corners,
    mirror_index,
    rotate_corners,
    rotate_index,
)
from equicheck.layers import Layer, LayerKind, Network, circle_crop, forward, seed_network
from equicheck.metrics import (
    SYMMETRIES,
    CommutationVerdict,
    Counterexample,
    equivariance_error,
    invariance_sweep,
    profile_equivariance,
    Symmetry,
    rotation_commutation,
)
from equicheck.tensor import FeatureMap, max_abs_diff, random_feature_map


# The scalar patch maps the oracle once rebuilt its counterexamples with,
# kept verbatim as the per-cell reference: one IndexPatch per call.


def _patch_corners(x, y, k, s) -> tuple:
    """Corners (x1, y1, x2, y2) of the patch read for output cell (x, y),
    elementwise on ints or int arrays; PatchError if they are out of order."""
    x1, y1 = s * x, s * y
    corners = (x1, y1, x1 + (k - 1), y1 + (k - 1))
    check_corner_order(*corners)
    return corners


def index_patch(x: int, y: int, k: int, s: int) -> IndexPatch:
    """Input indices read by a stride-s, size-k kernel for output cell (x, y)."""
    if x < 0 or y < 0:
        raise ValueError(f"output index must be non-negative, got ({x}, {y})")
    x1, y1, x2, y2 = _patch_corners(x, y, k, s)
    return IndexPatch((x1, y1), (x2, y2))


def rotate_patch(n: int, patch: IndexPatch) -> IndexPatch:
    """Quarter-turn map on a whole patch, via :func:`rotate_corners`."""
    x1, y1, x2, y2 = rotate_corners(n, *patch.top_left, *patch.bottom_right)
    return IndexPatch((x1, y1), (x2, y2))


def mirror_patch(n: int, patch: IndexPatch) -> IndexPatch:
    """Horizontal mirror of a whole patch, via :func:`mirror_corners`."""
    x1, y1, x2, y2 = mirror_corners(n, *patch.top_left, *patch.bottom_right)
    return IndexPatch((x1, y1), (x2, y2))


class TestIndexPatch:
    def test_origin_cell(self):
        assert index_patch(0, 0, 2, 2) == IndexPatch((0, 0), (1, 1))

    def test_strided_cell(self):
        assert index_patch(1, 0, 2, 2) == IndexPatch((2, 0), (3, 1))

    def test_cardinality_is_k_squared(self):
        for (x, y, k, s) in [(0, 0, 3, 1), (2, 1, 4, 2), (5, 5, 1, 3)]:
            patch = index_patch(x, y, k, s)
            (x1, y1), (x2, y2) = patch.top_left, patch.bottom_right
            cells = {(u, v) for v in range(y1, y2 + 1) for u in range(x1, x2 + 1)}
            assert len(cells) == k * k


class TestCommutationOracles:
    def test_five_two_two_breaks(self):
        verdict = rotation_commutation(5, 2, 2)
        assert verdict.holds is False
        assert verdict.counterexample is not None

    def test_four_two_two_holds(self):
        verdict = rotation_commutation(4, 2, 2)
        assert verdict.holds is True
        assert verdict.counterexample is None

    def test_paper_toy_sizes(self):
        assert rotation_commutation(33, 3, 2).holds is True
        assert rotation_commutation(32, 3, 2).holds is False

    def test_mirror_small_cases(self):
        assert mirror_commutation(5, 2, 2).holds is False
        assert mirror_commutation(4, 2, 2).holds is True

    def test_mirror_matches_rotation_on_grid(self):
        for i in range(2, 25):
            for k in range(1, min(5, i) + 1):
                for s in range(1, 5):
                    assert mirror_commutation(i, k, s).holds == rotation_commutation(i, k, s).holds

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            rotation_commutation(3, 4, 1)


def per_cell_commutation(i, k, s, index_map, patch_map):
    """Reference oracle: one scalar patch comparison per output cell, in
    row-major order, stopping at the first mismatch."""
    o = output_size(i, k, s)
    for y in range(o):
        for x in range(o):
            ox, oy = index_map(o, x, y)
            via_output = index_patch(ox, oy, k, s)
            via_input = patch_map(i, index_patch(x, y, k, s))
            if via_output != via_input:
                return CommutationVerdict(False, Counterexample((x, y), via_output, via_input))
    return CommutationVerdict(True)


ORACLES = [
    pytest.param(rotation_commutation, rotate_index, rotate_patch, id="rot"),
    pytest.param(mirror_commutation, mirror_index, mirror_patch, id="mirror"),
]


def planted_corners(n, x1, y1, x2, y2):
    """The quarter turn, one column off for the patches at (7, 1) and (2, 3)."""
    hit = ((x1 == 7) & (y1 == 1)) | ((x1 == 2) & (y1 == 3))
    rx1, ry1, rx2, ry2 = rotate_corners(n, x1, y1, x2, y2)
    return rx1 + hit, ry1, rx2 + hit, ry2


def planted_patch(n, patch):
    rx1, ry1, rx2, ry2 = planted_corners(n, *patch.top_left, *patch.bottom_right)
    return IndexPatch((rx1, ry1), (rx2, ry2))


PLANTED = Symmetry(rotate_index, planted_corners)


class TestOracleMatchesPerCellLoop:
    """The array oracle against the per-cell loop, verdict and counterexample
    alike."""

    @pytest.mark.parametrize("oracle, index_map, patch_map", ORACLES)
    def test_grid(self, oracle, index_map, patch_map):
        for i in range(1, 41):
            for k in range(1, min(i, 9) + 1):
                for s in range(1, 10):
                    expected = per_cell_commutation(i, k, s, index_map, patch_map)
                    assert oracle(i, k, s) == expected, (i, k, s)

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("oracle, index_map, patch_map", ORACLES)
    def test_small_blocks(self, monkeypatch, block, oracle, index_map, patch_map):
        monkeypatch.setattr(metrics, "ORACLE_BLOCK", block)
        for i in range(1, 16):
            for k in range(1, min(i, 4) + 1):
                for s in range(1, 5):
                    expected = per_cell_commutation(i, k, s, index_map, patch_map)
                    assert oracle(i, k, s) == expected, (i, k, s)

    @pytest.mark.parametrize("block", [1, 3, 7, metrics.ORACLE_BLOCK])
    def test_first_mismatch_in_a_later_block(self, monkeypatch, block):
        # With the true maps every broken triple already fails at cell (0, 0),
        # so plant mismatches further on: the quarter turn of the patches of
        # cells (7, 1) and (2, 3) lands one column off.  (7, 1) comes first in
        # row-major order, (2, 3) in column-major order.
        monkeypatch.setattr(metrics, "ORACLE_BLOCK", block)
        expected = per_cell_commutation(9, 1, 1, rotate_index, planted_patch)
        assert expected.counterexample.output_index == (7, 1)
        (got,) = metrics.commutation_grid([(9, 1, 1)], PLANTED)
        assert got == expected

    @pytest.mark.parametrize("oracle, index_map, patch_map", ORACLES)
    @pytest.mark.parametrize(
        "args, error",
        [((5, 0, 1), PatchError), ((3, 4, 1), ShapeError), ((5, 2, 0), ShapeError)],
    )
    def test_invalid_triples_raise_like_the_loop(
        self, oracle, index_map, patch_map, args, error
    ):
        with pytest.raises(error) as expected:
            per_cell_commutation(*args, index_map, patch_map)
        with pytest.raises(error) as got:
            oracle(*args)
        assert str(got.value) == str(expected.value)

    def test_grid_memory_stays_bounded(self):
        # every side here is at most 40, so each chunk is small.  The verdicts
        # peak at about 0.57 MiB on a first call.  The rows they are built
        # from, measured second, peak at about 0.17 MiB, most of it the 695
        # ten-int rows of the broken triples
        triples = [(i, k, s) for i in range(2, 41) for k in range(1, min(i, 7) + 1)
                   for s in range(1, 6)]
        peaks = []
        for oracle in (metrics.commutation_grid, metrics.commutation_rows):
            tracemalloc.start()
            try:
                got = oracle(triples, SYMMETRIES["rot"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(got) == 1290
        assert peaks[0] < 4 * 2**20
        assert peaks[1] < 0.25 * 2**20

    def test_memory_stays_bounded(self):
        # one full o*o int64 array would be 2049**2 * 8 bytes = 33.6 MB
        tracemalloc.start()
        try:
            holds = rotation_commutation(2049, 1, 1).holds
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert holds is True
        assert peak < 16 * 2**20


GRID = tuple((i, k, s) for i in range(1, 41) for k in range(1, min(i, 9) + 1) for s in range(1, 10))
SMALL_GRID = tuple(
    (i, k, s) for i in range(1, 17) for k in range(1, min(i, 4) + 1) for s in range(1, 5)
)
SYMMETRY_MAPS = [
    pytest.param("rot", rotate_index, rotate_patch, id="rot"),
    pytest.param("mirror", mirror_index, mirror_patch, id="mirror"),
]


@functools.cache
def per_cell_grid(triples, index_map, patch_map):
    return [per_cell_commutation(*t, index_map, patch_map) for t in triples]


class TestCommutationGrid:
    """One grid call over many triples against the per-cell loop on each."""

    @pytest.mark.parametrize("block", [50, metrics.ORACLE_BLOCK])
    @pytest.mark.parametrize("symmetry, index_map, patch_map", SYMMETRY_MAPS)
    def test_matches_per_cell_loop(self, monkeypatch, block, symmetry, index_map, patch_map):
        monkeypatch.setattr(metrics, "ORACLE_BLOCK", block)
        got = metrics.commutation_grid(GRID, SYMMETRIES[symmetry])
        assert got == per_cell_grid(GRID, index_map, patch_map)

    # blocks this small take seconds on GRID, so they run on a smaller one
    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("symmetry, index_map, patch_map", SYMMETRY_MAPS)
    def test_small_blocks_split_triples(self, monkeypatch, block, symmetry, index_map, patch_map):
        monkeypatch.setattr(metrics, "ORACLE_BLOCK", block)
        got = metrics.commutation_grid(SMALL_GRID, SYMMETRIES[symmetry])
        assert got == per_cell_grid(SMALL_GRID, index_map, patch_map)

    @pytest.mark.parametrize("block", [1, 3, 7, 20, 50, metrics.ORACLE_BLOCK])
    def test_each_triple_reports_its_own_first_mismatch(self, monkeypatch, block):
        # joined cells: (4, 1, 1) is 0..15, (3, 1, 1) 16..24 and (9, 1, 1)
        # 25..105.  The planted cells break (4, 1, 1) at (2, 3) (cell 14) and
        # (9, 1, 1) at (7, 1) (cell 41) and (2, 3) (cell 54); (3, 1, 1) has
        # neither and holds.  Below 81 the last triple straddles a block
        # boundary.
        monkeypatch.setattr(metrics, "ORACLE_BLOCK", block)
        triples = [(4, 1, 1), (3, 1, 1), (9, 1, 1)]
        got = metrics.commutation_grid(triples, PLANTED)
        assert got == [per_cell_commutation(*t, rotate_index, planted_patch) for t in triples]
        assert [v.counterexample.output_index if v.counterexample else None for v in got] == [
            (2, 3), None, (7, 1)
        ]

    def test_broken_triple_stops_at_its_first_mismatching_block(self, monkeypatch):
        # (21, 2, 2) has 100 cells and breaks at its first, so only its first
        # band of 10 cells reaches the corner map; (4, 2, 2) holds
        cells = []

        def counting_corners(n, *corners):
            cells.append(math.prod(np.broadcast_shapes(*map(np.shape, (n, *corners)))))
            return rotate_corners(n, *corners)

        monkeypatch.setattr(metrics, "ORACLE_BLOCK", 10)
        counting = Symmetry(rotate_index, counting_corners)
        got = metrics.commutation_grid([(21, 2, 2), (4, 2, 2)], counting)
        assert [v.holds for v in got] == [False, True]
        assert cells == [10, 4]

    @pytest.mark.parametrize("symmetry, index_map, patch_map", SYMMETRY_MAPS)
    @pytest.mark.parametrize(
        "args, error",
        [((5, 0, 1), PatchError), ((3, 4, 1), ShapeError), ((5, 2, 0), ShapeError)],
    )
    def test_invalid_triple_after_valid_ones(self, symmetry, index_map, patch_map, args, error):
        with pytest.raises(error) as expected:
            per_cell_commutation(*args, index_map, patch_map)
        with pytest.raises(error) as got:
            metrics.commutation_grid([(4, 2, 2), (5, 2, 2), (9, 3, 1), args], SYMMETRIES[symmetry])
        assert str(got.value) == str(expected.value)

    def test_empty_grid(self):
        assert metrics.commutation_grid([], SYMMETRIES["rot"]) == []
        assert metrics.commutation_rows([], SYMMETRIES["rot"]) == []

    def test_triple_past_int64_raises_where_its_chunk_runs(self):
        # each chunk's int array is built when the chunk runs, so a triple
        # past int64 raises only when its side is reached: side 6 runs first
        with pytest.raises(PatchError) as expected:
            per_cell_commutation(5, 0, 1, rotate_index, rotate_patch)
        with pytest.raises(PatchError) as got:
            metrics.commutation_rows([(5, 0, 1), (2**64, 1, 1)], SYMMETRIES["rot"])
        assert str(got.value) == str(expected.value)
        with pytest.raises(OverflowError):
            metrics.commutation_rows([(4, 2, 2), (2**64, 1, 1)], SYMMETRIES["rot"])

    @pytest.mark.parametrize("symmetry, index_map, patch_map", SYMMETRY_MAPS)
    def test_first_invalid_triple_of_the_first_side_raises(self, symmetry, index_map, patch_map):
        # sides 2, 6 and 2: side 2 runs first, so (1, 0, 1) raises although
        # (5, 0, 1) comes before it in the list
        with pytest.raises(PatchError) as expected:
            per_cell_commutation(1, 0, 1, index_map, patch_map)
        with pytest.raises(PatchError) as other:
            per_cell_commutation(5, 0, 1, index_map, patch_map)
        with pytest.raises(PatchError) as got:
            metrics.commutation_grid([(4, 2, 2), (5, 0, 1), (1, 0, 1)], SYMMETRIES[symmetry])
        assert str(got.value) == str(expected.value) != str(other.value)

    def test_wide_triple_runs_in_small_bands(self):
        # (2049, 1, 1) runs in bands of 3 rows (6147 cells) and peaks at about
        # 0.11 MiB; bands of eight times the cells peak at 0.27 MiB
        tracemalloc.start()
        try:
            (verdict,) = metrics.commutation_grid([(2049, 1, 1)], SYMMETRIES["rot"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.holds is True
        assert peak < 0.25 * 2**20


@st.composite
def triple_lists(draw):
    """Up to six (i, k, s) triples whose output sides, 1 to 70, come from a
    pool of at most three, so sides repeat; any i in [s(o-1)+k, so+k) has
    side o."""
    sides = draw(st.lists(st.integers(1, 70), min_size=1, max_size=3))
    triples = []
    for _ in range(draw(st.integers(0, 6))):
        o, k, s = draw(st.sampled_from(sides)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        triples.append((s * (o - 1) + k + draw(st.integers(0, s - 1)), k, s))
    return tuple(triples)


class TestGridProperty:
    """Random triple lists and chunk bounds against the per-cell loop."""

    @pytest.mark.parametrize("symmetry, index_map, patch_map", [
        pytest.param(SYMMETRIES["rot"], rotate_index, rotate_patch, id="rot"),
        pytest.param(SYMMETRIES["mirror"], mirror_index, mirror_patch, id="mirror"),
        pytest.param(PLANTED, rotate_index, planted_patch, id="planted"),
    ])
    @settings(max_examples=100, deadline=None)
    @given(triples=triple_lists(), block=st.integers(1, 256) | st.just(metrics.ORACLE_BLOCK))
    def test_matches_per_cell_loop(self, symmetry, index_map, patch_map, triples, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "ORACLE_BLOCK", block)
            got = metrics.commutation_grid(triples, symmetry)
        assert got == per_cell_grid(triples, index_map, patch_map)


def disordered_corners(n, x1, y1, x2, y2):
    """The quarter turn, with the columns of its corners swapped for the
    patch at (7, 1): out of order wherever that patch is wider than one."""
    hit = (x1 == 7) & (y1 == 1)
    rx1, ry1, rx2, ry2 = rotate_corners(n, x1, y1, x2, y2)
    return np.where(hit, rx2, rx1), ry1, np.where(hit, rx1, rx2), ry2


def disordered_patch(n, patch):
    x1, y1, x2, y2 = disordered_corners(n, *patch.top_left, *patch.bottom_right)
    return IndexPatch((int(x1), int(y1)), (int(x2), int(y2)))


class TestCommutationRows:
    """The rows are the grid's one implementation: its verdicts are built
    from them, and they keep the corner-order check a patch makes."""

    @pytest.mark.parametrize("symmetry", [
        pytest.param(SYMMETRIES["rot"], id="rot"),
        pytest.param(SYMMETRIES["mirror"], id="mirror"),
        pytest.param(PLANTED, id="planted"),
    ])
    @settings(max_examples=100, deadline=None)
    @given(triples=triple_lists(), block=st.integers(1, 256) | st.just(metrics.ORACLE_BLOCK))
    def test_verdicts_are_the_rows(self, symmetry, triples, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "ORACLE_BLOCK", block)
            got = metrics.commutation_grid(triples, symmetry)
            rows = metrics.commutation_rows(triples, symmetry)
        assert got == [metrics._verdict(row) for row in rows]
        assert all(row is None or (len(row) == 10 and all(type(v) is int for v in row))
                   for row in rows)

    @pytest.mark.parametrize("block", [1, 7, metrics.ORACLE_BLOCK])
    def test_out_of_order_via_input_corners_raise_like_a_patch(self, monkeypatch, block):
        # (9, 2, 1) holds but for the planted cell (7, 1), whose via-input
        # corners come out as (2, 0) and (1, 1); (4, 2, 2) holds
        monkeypatch.setattr(metrics, "ORACLE_BLOCK", block)
        with pytest.raises(PatchError) as expected:
            per_cell_commutation(9, 2, 1, rotate_index, disordered_patch)
        assert str(expected.value) == "corners out of order: (2, 0) vs (1, 1)"
        disordered = Symmetry(rotate_index, disordered_corners)
        for oracle in (metrics.commutation_rows, metrics.commutation_grid):
            with pytest.raises(PatchError) as got:
                oracle([(4, 2, 2), (9, 2, 1)], disordered)
            assert str(got.value) == str(expected.value)


class TestEquivarianceError:
    def test_zero_iff_equal(self):
        a = random_feature_map(0, 2, 4, 3, 3)
        assert equivariance_error(a, a) == 0.0

    def test_hand_computed_quarter(self):
        # 16 cells differing by 1: sqrt(16) / 16 = 0.25
        zeros = FeatureMap(np.zeros((1, 4, 2, 2)))
        ones = FeatureMap(np.ones((1, 4, 2, 2)))
        assert equivariance_error(zeros, ones) == 0.25

    def test_symmetry(self):
        a = random_feature_map(1, 1, 4, 5, 5)
        b = random_feature_map(2, 1, 4, 5, 5)
        assert equivariance_error(a, b) == equivariance_error(b, a)

    @pytest.mark.parametrize("c", [2.0, -1.0])
    def test_scales_linearly(self, c):
        a = random_feature_map(3, 1, 4, 4, 4)
        b = random_feature_map(4, 1, 4, 4, 4)
        ca = FeatureMap(c * a.values)
        cb = FeatureMap(c * b.values)
        assert equivariance_error(ca, cb) == pytest.approx(abs(c) * equivariance_error(a, b), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            equivariance_error(FeatureMap(np.zeros((1, 1, 2, 2))),
                               FeatureMap(np.zeros((1, 1, 3, 3))))


def stride1_p4_net(input_size):
    return Network(
        kind=GroupKind.P4,
        layers=[
            Layer(LayerKind.GCONV_LIFT, k=3, s=1, p=0, out_channels=2),
            Layer(LayerKind.RELU),
            Layer(LayerKind.GCONV, k=3, s=1, p=1, out_channels=2),
        ],
        input_size=input_size,
        name="stride1",
    )


def p4m_lift_net(input_size):
    return Network(
        kind=GroupKind.P4M,
        layers=[Layer(LayerKind.GCONV_LIFT, k=3, s=2, p=0, out_channels=2)],
        input_size=input_size,
        name="p4m-lift",
    )


class TestProfileEquivariance:
    def test_exact_toy_is_identically_zero(self):
        net = build_network(TOY41)
        for seed in range(3):
            profile = profile_equivariance(net, seed, integer_valued=True)
            assert profile.entries and profile.max_error() == 0.0

    def test_stride_one_net_zero_at_any_size(self):
        for size in (9, 10, 11):
            profile = profile_equivariance(stride1_p4_net(size), 1, integer_valued=True)
            assert profile.entries and profile.max_error() == 0.0

    def test_broken_toy_has_positive_error(self):
        net = build_network(TOY41, input_size=32)
        positives = sum(
            profile_equivariance(net, seed, integer_valued=True).max_error() > 0
            for seed in range(10)
        )
        assert positives >= 1

    def test_deterministic_for_fixed_seed(self):
        net = build_network(TOY41, input_size=32)
        a = profile_equivariance(net, 7, integer_valued=True)
        b = profile_equivariance(net, 7, integer_valued=True)
        assert a == b

    def test_mirror_verdict_tracks_rotation_verdict(self):
        # p4m lift, exact size: every mirror element is exact too
        mirrors = tuple(GroupElement(a, True) for a in range(4))
        exact = profile_equivariance(p4m_lift_net(9), 2, mirrors, integer_valued=True)
        assert exact.max_error() == 0.0
        positives = sum(
            profile_equivariance(p4m_lift_net(10), seed, mirrors, integer_valued=True).max_error() > 0
            for seed in range(10)
        )
        assert positives >= 1

    def test_entries_follow_depth_then_element_order(self):
        # elements out of canonical order, one repeated: entries keep the
        # requested order at every depth, as when all forwards were held
        net, seed = stride1_p4_net(9), 4
        order = (GroupElement(3), GroupElement(1), GroupElement(3))
        profile = profile_equivariance(net, seed, order)
        seeded = seed_network(net, seed)
        x = random_feature_map([seed, 1], 1, 1, 9, 9)
        base = forward(seeded, x)
        moved = {g: forward(seeded, act_spatial(g, x)) for g in order}
        expected = [(d, g, equivariance_error(moved[g][d], act_full(g, base[d], net.kind)))
                    for d in range(len(base)) for g in order]
        assert [(e.layer_index, e.element, e.error) for e in profile.entries] == expected

    @pytest.mark.parametrize("kind", [GroupKind.P4, GroupKind.P4M])
    def test_float_errors_are_zero_iff_the_rule_holds(self, kind):
        # p4cnn keeps the rule at 28; at 29 its pool breaks it
        exact = replace(build_network(P4CNN), kind=kind)
        inexact = replace(build_network(P4CNN, input_size=29), kind=kind)
        for seed in range(3):
            assert profile_equivariance(exact, seed).max_error() == 0.0
            assert profile_equivariance(inexact, seed).max_error() > 0.0

    def test_trivial_group_profiles_empty(self):
        net = Network(
            kind=GroupKind.Z2,
            layers=[Layer(LayerKind.CONV2D, k=3, s=1, p=0, out_channels=2)],
            input_size=8,
        )
        assert profile_equivariance(net, 0).entries == ()

    @pytest.mark.parametrize("integer", [False, True], ids=["float", "integer"])
    def test_exact_network_compares_only_pooled_depths(self, integer):
        # at 28 the moved forwards take every conv, relu and global pool
        # from the moved base maps, so only the max-pooled depths, which
        # are computed, are compared
        net = build_network(P4CNN)
        compared = []

        def recording(a, b):
            compared.append(a.shape)
            return equivariance_error(a, b)

        with mock.patch.object(metrics, "equivariance_error", recording):
            profile = profile_equivariance(net, 3, integer_valued=integer)
        assert profile.max_error() == 0.0 and profile.overflow_at is None
        pools = [d for d, layer in enumerate(net.layers) if layer.kind is LayerKind.MAXPOOL]
        assert len(compared) == 3 * len(pools) > 0


PROFILE_TAILS = (
    (), (Layer(LayerKind.CIRCLE_CROP),), (Layer(LayerKind.GLOBAL_AVG_POOL),),
    (Layer(LayerKind.RELU), Layer(LayerKind.CIRCLE_CROP), Layer(LayerKind.GLOBAL_AVG_POOL)),
    (Layer(LayerKind.COSET_MAXPOOL), Layer(LayerKind.GLOBAL_AVG_POOL),
     Layer(LayerKind.DENSE, out_channels=2)),
)


@st.composite
def profiled_stacks(draw):
    """A generated p4 or p4m stack of test_layers, exact or not, with one
    of PROFILE_TAILS appended; a seed; and the operands to draw: float,
    integer, integer scaled past the Hoelder bound, or an all-zero input
    whose zeros carry the signs of a seeded input."""
    net, seed = draw(reuse_stacks())
    tail = draw(st.sampled_from(PROFILE_TAILS))
    operands = draw(st.sampled_from(["float", "integer", "scaled", "zero float", "zero integer"]))
    return replace(net, layers=net.layers + tail), seed, operands


def reference_profile(seeded, x, group_elements):
    """(depth, element, error bytes) per group-valued depth and element,
    from plain forwards of the moved inputs and the moved base maps."""
    base = forward(seeded, x)
    moved = {g: forward(seeded, act_spatial(g, x)) for g in group_elements}
    return [(d, g, equivariance_error(moved[g][d], act_full(g, act, seeded.kind)).hex())
            for d, act in enumerate(base) if act.group_size > 1 for g in group_elements]


class TestProfileMatchesPlainForwards:
    """The profile moves each base map once per element and hands the moved
    maps to the moved forward; its errors are those of plain forwards,
    float bytes and all."""

    @settings(max_examples=80, deadline=None)
    @given(profiled_stacks())
    def test_entries_are_those_of_plain_forwards(self, case):
        net, seed, operands = case
        integer = operands != "float" and operands != "zero float"
        seeded = seed_network(net, seed, integer)
        x = random_feature_map([seed, 1], net.in_channels, 1, net.input_size,
                               net.input_size, integer)
        if operands == "scaled":
            seeded, x = scaled(seeded, 2.0**20), FeatureMap(x.values * 2.0**40)
        elif operands.startswith("zero"):
            x = FeatureMap(x.values * 0.0)  # -0.0 where x is negative
        group_elements = elements(net.kind)  # the identity included
        with mock.patch.object(metrics, "seed_network", lambda *args: seeded), \
                mock.patch.object(metrics, "random_feature_map", lambda *args: x):
            profile = profile_equivariance(net, seed, group_elements, integer)
        assert profile.overflow_at is None
        assert [(e.layer_index, e.element, e.error.hex()) for e in profile.entries] == \
            reference_profile(seeded, x, group_elements)


def rotate_one(fm, angle_degrees):
    """``fm`` rotated by one angle: the one-angle case of the rotation pass."""
    return FeatureMap(metrics._rotate_values(fm.values, [angle_degrees])[:, :, 0])


class TestRotateBilinear:
    def test_zero_angle_is_bitwise_identity(self):
        fm = random_feature_map(0, 2, 1, 7, 7)
        out = rotate_one(fm, 0.0)
        assert np.array_equal(out.values, fm.values)

    def test_full_turn(self):
        fm = random_feature_map(5, 1, 1, 6, 6)
        assert max_abs_diff(rotate_one(fm, 360.0), fm) <= 1e-9

    def test_off_grid_angle_stays_finite_and_bounded(self):
        fm = random_feature_map(6, 1, 1, 9, 9)
        out = rotate_one(fm, 30.0)
        assert np.all(np.isfinite(out.values))
        assert np.max(np.abs(out.values)) <= np.max(np.abs(fm.values)) + 1e-12

    def test_non_square_rejected(self):
        # a map is square by construction, so a non-square one is never rotated
        with pytest.raises(DimensionError, match="square"):
            rotate_one(random_feature_map(0, 1, 1, 2, 3), 10.0)


def reference_rotate_bilinear(fm, angle_degrees):
    """The rotation from before off-grid angles were rotated together, kept
    verbatim: one angle per call."""
    if angle_degrees % 90 == 0:
        return act_spatial(GroupElement(int(angle_degrees // 90) % 4), fm)
    n = fm.height
    theta = math.radians(angle_degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    c = (n - 1) / 2.0
    xs = np.arange(n, dtype=np.float64)
    u = xs[np.newaxis, :] - c  # target col offset
    v = xs[:, np.newaxis] - c  # target row offset
    src_x = c + u * cos_t - v * sin_t
    src_y = c + u * sin_t + v * cos_t

    x0 = np.floor(src_x).astype(np.intp)
    y0 = np.floor(src_y).astype(np.intp)
    wx = src_x - x0
    wy = src_y - y0

    vals = fm.values
    out = np.zeros_like(vals)
    for dy, dx, w in (
        (0, 0, (1 - wx) * (1 - wy)),
        (0, 1, wx * (1 - wy)),
        (1, 0, (1 - wx) * wy),
        (1, 1, wx * wy),
    ):
        xi = x0 + dx
        yi = y0 + dy
        valid = (xi >= 0) & (xi < n) & (yi >= 0) & (yi < n)
        gathered = vals[:, :, yi.clip(0, n - 1), xi.clip(0, n - 1)]
        out += np.where(valid, w, 0.0) * np.where(valid, gathered, 0.0)
    return FeatureMap(out)


#: Off-grid angles: below 0, past 360, next to a right angle (the float
#: below 90 that np.arange(0, 360, 90/39) lands on) and the sweep's own.
OFF_GRID = [-725.5, -30.0, -0.001, 0.5, 5.0, 30.0, 45.0, 89.99999999999999, 90.00000000000001,
            135.0, 200.0, 355.0, 359.9, 361.0, 725.0, 1e6 + 0.25]


class TestRotationPass:
    """The off-grid angles of a sweep are rotated and cropped together, in
    chunks, by the one body that also rotates a single angle."""

    @pytest.mark.parametrize("c, g, n", [(1, 1, 7), (1, 1, 8), (2, 4, 9), (3, 8, 6), (1, 1, 28)])
    def test_one_pass_matches_per_angle_rotation(self, c, g, n):
        fm = random_feature_map([c, g, n], c, g, n, n)
        together = metrics._rotate_values(fm.values, OFF_GRID)
        assert together.shape == (c, g, len(OFF_GRID), n, n)
        for j, angle in enumerate(OFF_GRID):
            want = reference_rotate_bilinear(fm, angle).values.tobytes()
            assert together[:, :, j].tobytes() == want
            assert rotate_one(fm, angle).values.tobytes() == want

    @pytest.mark.parametrize("budget", [1, 100, 3 * 49, metrics.ROTATION_CHUNK_ELEMENTS])
    @pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
    def test_chunks_match_per_angle_crops(self, monkeypatch, budget, integer):
        monkeypatch.setattr(metrics, "ROTATION_CHUNK_ELEMENTS", budget)
        fm = random_feature_map(4, 1, 1, 7, 7, integer)
        got = list(metrics._cropped_rotations(fm, OFF_GRID))
        assert len(got) == len(OFF_GRID)
        for moved, angle in zip(got, OFF_GRID):
            want = circle_crop(reference_rotate_bilinear(fm, angle))
            assert moved.values.tobytes() == want.values.tobytes()
            assert moved.values.flags.c_contiguous and not moved.values.flags.writeable

    def test_no_angles_no_maps(self):
        assert list(metrics._cropped_rotations(random_feature_map(0, 1, 1, 5, 5), [])) == []

    def test_working_set_stays_bounded(self):
        # 356 angles at 28x28: one pass over all of them peaks at about 36 MiB,
        # chunks of twice the budget at 2.2 MiB, and chunks of 10 angles (the
        # budget) at 1.1 MiB
        fm = random_feature_map(1, 1, 1, 28, 28)
        angles = [a for a in np.arange(0.0, 360.0, 1.0) if a % 90 != 0]
        tracemalloc.start()
        try:
            count = sum(1 for _ in metrics._cropped_rotations(fm, angles))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 356
        assert peak < 2 * 2**20


def per_angle_sweep(net, seed, angles, integer_valued, off_grid_fixed_order):
    """The sweep's rows as one loop over the angles, kept as a reference:
    every angle, 0 included, is rotated by the per-angle reference rotation,
    cropped and run through its own forward; off-grid forwards take
    ``fixed_order=off_grid_fixed_order``, right angles the fixed order."""
    seeded = seed_network(net, seed, integer_valued)
    x = random_feature_map(
        [seed, 1], net.in_channels, 1, net.input_size, net.input_size, integer_valued
    )
    base = forward(seeded, circle_crop(x))[-1]
    return [max_abs_diff(base, forward(seeded, circle_crop(reference_rotate_bilinear(x, a)),
                                       fixed_order=off_grid_fixed_order or a % 90 == 0)[-1])
            for a in angles]


class TestInvarianceSweep:
    @pytest.mark.parametrize("budget", [1, metrics.ROTATION_CHUNK_ELEMENTS])
    @pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
    @pytest.mark.parametrize("config", [P4CNN, TOY41], ids=["p4cnn", "toy41"])
    def test_rows_match_per_angle_rotations(self, monkeypatch, config, integer, budget):
        monkeypatch.setattr(metrics, "ROTATION_CHUNK_ELEMENTS", budget)
        net, seed = build_network(config), 7
        angles = sorted(set(np.arange(0.0, 360.0, 5.0).tolist() + OFF_GRID))
        points = invariance_sweep(net, seed, angles, integer)
        expected = per_angle_sweep(net, seed, angles, integer, False)
        assert [p.discrepancy.hex() for p in points] == [want.hex() for want in expected]

    @pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
    @pytest.mark.parametrize("config", [P4CNN, TOY41], ids=["p4cnn", "toy41"])
    def test_rows_match_fixed_order_forwards(self, config, integer):
        net, seed, angles = build_network(config), 5, [15.0 * i for i in range(24)]
        points = invariance_sweep(net, seed, angles, integer)
        expected = per_angle_sweep(net, seed, angles, integer, True)
        assert [p.angle for p in points] == angles
        for p, want in zip(points, expected):
            if p.angle % 90 == 0:  # the rows a verdict reads: bit for bit
                assert p.discrepancy.hex() == want.hex()
            else:  # BLAS order: the last bits may move
                assert math.isclose(p.discrepancy, want, rel_tol=1e-12, abs_tol=0.0)

    @settings(max_examples=80, deadline=None)
    @given(reuse_stacks())
    def test_right_angle_rows_of_generated_stacks_match_fixed_order_forwards(self, case):
        net, seed = case
        net = replace(net, layers=net.layers + PROFILE_TAILS[-1])
        angles = [0.0, 90.0, 180.0, 270.0]
        for integer in (False, True):
            points = invariance_sweep(net, seed, angles, integer)
            expected = per_angle_sweep(net, seed, angles, integer, True)
            assert [p.discrepancy.hex() for p in points] == [want.hex() for want in expected]

    def test_only_off_grid_forwards_leave_the_fixed_order(self, monkeypatch):
        orders, moves = [], []

        def recording_forward(net, fm, *, fixed_order=True, moved=None):
            orders.append(fixed_order)
            moves.append(None if moved is None else moved.g)
            return forward(net, fm, fixed_order=fixed_order, moved=moved)

        monkeypatch.setattr(metrics, "forward", recording_forward)
        angles = [0.0, 45.0, 90.0, 360.0, 200.0, 270.0, 450.0]
        points = invariance_sweep(build_network(TOY41), 2, angles)
        # base, then 90 and 270 as moves of the base, then 45 and 200; the
        # rows at 0 and 360 reuse the base forward, the row at 450 the one
        # at 90: one forward per distinct quarter turn
        assert orders == [True, True, True, False, False]
        assert moves == [None, GroupElement(1), GroupElement(3), None, None]
        assert points[0].discrepancy == points[3].discrepancy == 0.0
        assert points[6].discrepancy == points[2].discrepancy

    def test_angle_zero_is_exactly_zero(self):
        net = build_network(TOY41)
        points = invariance_sweep(net, 0, [0.0], integer_valued=True)
        assert points[0].discrepancy == 0.0

    def test_exact_net_invariant_at_right_angles(self):
        net = build_network(TOY41)
        points = invariance_sweep(net, 1, [90.0, 180.0, 270.0], integer_valued=True)
        assert all(p.discrepancy <= 1e-9 for p in points)

    def test_broken_net_detects_rotation(self):
        net = build_network(TOY41, input_size=32)
        positives = sum(
            invariance_sweep(net, seed, [90.0], integer_valued=True)[0].discrepancy > 1e-9
            for seed in range(10)
        )
        assert positives >= 1

    def test_non_invariant_head_rejected(self):
        with pytest.raises(ConfigError):
            invariance_sweep(stride1_p4_net(9), 0, [0.0])
