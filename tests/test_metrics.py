"""Commutation oracles, the error measure, per-depth profiles, bilinear
rotation and the invariance sweep."""

import tracemalloc

import numpy as np
import pytest

from equicheck import metrics
from equicheck.analyzer import output_size
from equicheck.builtins import TOY41
from equicheck.config import build_network
from equicheck.errors import ConfigError, PatchError, ShapeError
from equicheck.group import (
    GroupElement,
    GroupKind,
    IndexPatch,
    act_spatial,
    mirror_index,
    mirror_patch,
    rotate_corners,
    rotate_index,
    rotate_patch,
)
from equicheck.layers import Layer, LayerKind, Network
from equicheck.metrics import (
    CommutationVerdict,
    Counterexample,
    equivariance_error,
    index_patch,
    invariance_sweep,
    mirror_commutation,
    profile_equivariance,
    rotate_bilinear,
    rotation_commutation,
)
from equicheck.tensor import FeatureMap, make_feature_map, max_abs_diff, random_feature_map


class TestIndexPatch:
    def test_origin_cell(self):
        assert index_patch(0, 0, 2, 2) == IndexPatch((0, 0), (1, 1))

    def test_strided_cell(self):
        assert index_patch(1, 0, 2, 2) == IndexPatch((2, 0), (3, 1))

    def test_cardinality_is_k_squared(self):
        for (x, y, k, s) in [(0, 0, 3, 1), (2, 1, 4, 2), (5, 5, 1, 3)]:
            assert len(index_patch(x, y, k, s).indices()) == k * k


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
        def corner_map(n, x1, y1, x2, y2):
            hit = ((x1 == 7) & (y1 == 1)) | ((x1 == 2) & (y1 == 3))
            rx1, ry1, rx2, ry2 = rotate_corners(n, x1, y1, x2, y2)
            return rx1 + hit, ry1, rx2 + hit, ry2

        def patch_map(n, patch):
            rx1, ry1, rx2, ry2 = corner_map(n, *patch.top_left, *patch.bottom_right)
            return IndexPatch((rx1, ry1), (rx2, ry2))

        monkeypatch.setattr(metrics, "ORACLE_BLOCK", block)
        expected = per_cell_commutation(9, 1, 1, rotate_index, patch_map)
        assert expected.counterexample.output_index == (7, 1)
        got = metrics._commutation(9, 1, 1, rotate_index, corner_map, patch_map)
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


class TestEquivarianceError:
    def test_zero_iff_equal(self):
        a = random_feature_map(0, 2, 4, 3, 3)
        assert equivariance_error(a, a) == 0.0

    def test_hand_computed_quarter(self):
        # 16 cells differing by 1: sqrt(16) / 16 = 0.25
        zeros = make_feature_map(1, 4, 2, 2, 0.0)
        ones = make_feature_map(1, 4, 2, 2, 1.0)
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
            equivariance_error(make_feature_map(1, 1, 2, 2, 0.0), make_feature_map(1, 1, 3, 3, 0.0))


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

    def test_trivial_group_profiles_empty(self):
        net = Network(
            kind=GroupKind.Z2,
            layers=[Layer(LayerKind.CONV2D, k=3, s=1, p=0, out_channels=2)],
            input_size=8,
        )
        assert profile_equivariance(net, 0).entries == ()


class TestRotateBilinear:
    def test_zero_angle_is_bitwise_identity(self):
        fm = random_feature_map(0, 2, 1, 7, 7)
        out = rotate_bilinear(fm, 0.0)
        assert np.array_equal(out.values, fm.values)

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("quarters", [1, 2, 3])
    def test_right_angles_match_grid_action(self, n, quarters):
        """Quarter turns are the exact grid action, bit for bit."""
        fm = random_feature_map(n, 1, 1, n, n)
        out = rotate_bilinear(fm, 90.0 * quarters)
        expected = act_spatial(GroupElement(quarters), fm)
        assert max_abs_diff(out, expected) == 0.0

    def test_full_turn(self):
        fm = random_feature_map(5, 1, 1, 6, 6)
        assert max_abs_diff(rotate_bilinear(fm, 360.0), fm) <= 1e-9

    def test_off_grid_angle_stays_finite_and_bounded(self):
        fm = random_feature_map(6, 1, 1, 9, 9)
        out = rotate_bilinear(fm, 30.0)
        assert np.all(np.isfinite(out.values))
        assert np.max(np.abs(out.values)) <= np.max(np.abs(fm.values)) + 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            rotate_bilinear(random_feature_map(0, 1, 1, 2, 3), 10.0)


class TestInvarianceSweep:
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
