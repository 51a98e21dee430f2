"""Layer semantics: convolution sizes, group convolutions, poolings, crop,
and exactness of whole-network equivariance in integer mode."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicheck.errors import ExactnessOverflowError, GroupKindError, LayerError, ShapeError
from equicheck.group import (
    IDENTITY,
    MIRROR,
    ROT90,
    GroupElement,
    GroupKind,
    act_full,
    act_spatial,
    compose,
    elements,
    inverse,
)
from equicheck.layers import (
    Layer,
    LayerKind,
    Network,
    circle_crop,
    conv2d,
    coset_maxpool,
    dense,
    forward,
    gconv,
    gconv_lift,
    global_avg_pool,
    infer_shapes,
    maxpool,
    relu,
    seed_network,
    transform_filters,
)
from equicheck.tensor import (
    FeatureMap,
    FilterBank,
    make_feature_map,
    max_abs_diff,
    random_feature_map,
    random_filter_bank,
)

P4 = list(elements(GroupKind.P4))
P4M = list(elements(GroupKind.P4M))


class TestConv2d:
    def test_output_side_five_two_two(self):
        fm = random_feature_map(0, 1, 1, 5, 5)
        w = random_filter_bank(1, 1, 1, 1, 2)
        out = conv2d(fm, w, s=2, p=0)
        assert out.shape == (1, 1, 2, 2)

    def test_identity_one_by_one_filter(self):
        fm = random_feature_map(1, 1, 1, 4, 4)
        w = FilterBank(np.ones((1, 1, 1, 1, 1)))
        assert max_abs_diff(conv2d(fm, w), fm) == 0.0

    def test_all_ones_sum(self):
        fm = make_feature_map(1, 1, 3, 3, 1.0)
        w = FilterBank(np.ones((1, 1, 1, 3, 3)))
        out = conv2d(fm, w)
        assert out.shape == (1, 1, 1, 1)
        assert out.values[0, 0, 0, 0] == 9.0

    def test_kernel_exceeds_padded_input(self):
        fm = make_feature_map(1, 1, 2, 2, 1.0)
        w = FilterBank(np.ones((1, 1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            conv2d(fm, w)

    def test_matches_direct_loop(self):
        # independent re-computation with explicit Python loops
        fm = random_feature_map(5, 2, 4, 6, 6, integer_valued=True)
        w = random_filter_bank(6, 3, 2, 4, 3, integer_valued=True)
        s, p = 2, 1
        out = conv2d(fm, w, s=s, p=p)
        padded = np.pad(fm.values, ((0, 0), (0, 0), (p, p), (p, p)))
        o = (6 + 2 * p - 3) // s + 1
        for oc in range(3):
            for y in range(o):
                for x in range(o):
                    acc = 0.0
                    for ic in range(2):
                        for g in range(4):
                            for dy in range(3):
                                for dx in range(3):
                                    acc += (
                                        padded[ic, g, s * y + dy, s * x + dx]
                                        * w.values[oc, ic, g, dy, dx]
                                    )
                    assert out.values[oc, 0, y, x] == acc


class TestGconvLift:
    def test_identity_slot_is_plain_conv(self):
        fm = random_feature_map(2, 1, 1, 6, 6)
        w = random_filter_bank(3, 2, 1, 1, 3)
        lifted = gconv_lift(fm, w, GroupKind.P4)
        plain = conv2d(fm, w)
        assert np.array_equal(lifted.values[:, 0], plain.values[:, 0])

    def test_symmetric_filter_gives_equal_slots(self):
        fm = random_feature_map(4, 1, 1, 5, 5)
        w = FilterBank(np.full((1, 1, 1, 3, 3), 0.5))
        lifted = gconv_lift(fm, w, GroupKind.P4)
        for slot in range(1, 4):
            assert np.array_equal(lifted.values[:, slot], lifted.values[:, 0])

    @pytest.mark.parametrize("kind", [GroupKind.P4, GroupKind.P4M])
    def test_equivariance_exact_when_condition_holds(self, kind):
        # i=9, k=3, s=2, p=0 satisfies (9 - 3) mod 2 = 0
        fm = random_feature_map(8, 1, 1, 9, 9, integer_valued=True)
        w = random_filter_bank(9, 2, 1, 1, 3, integer_valued=True)
        for g in elements(kind):
            lhs = gconv_lift(act_spatial(g, fm), w, kind, s=2)
            rhs = act_full(g, gconv_lift(fm, w, kind, s=2), kind)
            assert max_abs_diff(lhs, rhs) == 0.0

    def test_rejects_group_valued_input(self):
        fm = random_feature_map(0, 1, 4, 5, 5)
        w = random_filter_bank(1, 1, 1, 1, 3)
        with pytest.raises(ShapeError):
            gconv_lift(fm, w, GroupKind.P4)


class TestGconv:
    def test_delta_identity_filter_is_identity(self):
        fm = random_feature_map(12, 2, 4, 6, 6)
        w = np.zeros((2, 2, 4, 3, 3))
        for c in range(2):
            w[c, c, 0, 1, 1] = 1.0  # slot 0 = identity element, kernel center
        out = gconv(fm, FilterBank(w), GroupKind.P4, s=1, p=1)
        assert max_abs_diff(out, fm) == 0.0

    def test_equivariance_exact_at_paper_size(self):
        # (33 + 2*1 - 3) mod 2 = 0, the exact variant of the toy setting
        fm = random_feature_map(21, 1, 4, 33, 33, integer_valued=True)
        w = random_filter_bank(22, 1, 1, 4, 3, integer_valued=True)
        for g in P4:
            lhs = gconv(act_full(g, fm, GroupKind.P4), w, GroupKind.P4, s=2, p=1)
            rhs = act_full(g, gconv(fm, w, GroupKind.P4, s=2, p=1), GroupKind.P4)
            assert max_abs_diff(lhs, rhs) == 0.0

    def test_equivariance_broken_at_off_by_one_size(self):
        # (32 + 2*1 - 3) mod 2 = 1: some random draw must break equivariance
        positives = 0
        for seed in range(10):
            fm = random_feature_map([seed, 2], 1, 4, 32, 32, integer_valued=True)
            w = random_filter_bank([seed, 3], 1, 1, 4, 3, integer_valued=True)
            lhs = gconv(act_full(ROT90, fm, GroupKind.P4), w, GroupKind.P4, s=2, p=1)
            rhs = act_full(ROT90, gconv(fm, w, GroupKind.P4, s=2, p=1), GroupKind.P4)
            positives += max_abs_diff(lhs, rhs) > 0
        assert positives >= 1

    def test_p4m_equivariance(self):
        fm = random_feature_map(31, 2, 8, 7, 7, integer_valued=True)
        w = random_filter_bank(32, 2, 2, 8, 3, integer_valued=True)
        for g in P4M:
            lhs = gconv(act_full(g, fm, GroupKind.P4M), w, GroupKind.P4M, s=2)
            rhs = act_full(g, gconv(fm, w, GroupKind.P4M, s=2), GroupKind.P4M)
            assert max_abs_diff(lhs, rhs) == 0.0

    def test_group_size_mismatch(self):
        fm = random_feature_map(0, 1, 1, 5, 5)
        w = random_filter_bank(1, 1, 1, 4, 3)
        with pytest.raises(ShapeError):
            gconv(fm, w, GroupKind.P4)


def per_position_reference(vals: np.ndarray, w: np.ndarray, s: int) -> np.ndarray:
    """The float loop the convolutions used to run, kept verbatim: strided
    cross-correlation of a padded (C, G, n, n) array with a (O, C, G, k, k)
    bank, contracting channels and group; returns (O, o, o).

    Accumulates kernel position by kernel position in a fixed order.
    """
    k = w.shape[-1]
    n = vals.shape[-1]
    o = (n - k) // s + 1
    hi = s * (o - 1) + 1
    out = np.zeros((w.shape[0], o, o), dtype=np.float64)
    for dy in range(k):
        for dx in range(k):
            win = vals[:, :, dy : dy + hi : s, dx : dx + hi : s]
            out += np.einsum("cgyx,ocg->oyx", win, w[:, :, :, dy, dx])
    return out


def per_slot_reference(fm, w, kind, s, p):
    """The per-slot composition every conv used to run: pad, then one
    per-kernel-position correlation per transformed bank."""
    vals = np.pad(fm.values, ((0, 0), (0, 0), (p, p), (p, p)))
    banks = [w] if kind is GroupKind.Z2 else [transform_filters(g, w, kind) for g in elements(kind)]
    return np.stack([per_position_reference(vals, b.values, s) for b in banks], axis=1)


def run_conv(fn, kind, fm, w, s, p):
    return conv2d(fm, w, s, p) if fn is conv2d else fn(fm, w, kind, s, p)


@st.composite
def conv_cases(draw):
    """(layer function, kind, in-group size) plus small valid shapes; up to
    12 channels in and out, so reductions run over as many as 96 (c, g)
    terms."""
    fn, kind = draw(st.sampled_from([
        (conv2d, GroupKind.Z2),
        (gconv_lift, GroupKind.P4), (gconv_lift, GroupKind.P4M),
        (gconv, GroupKind.P4), (gconv, GroupKind.P4M),
    ]))
    if fn is conv2d:
        group = draw(st.sampled_from([1, 4, 8]))  # group-valued conv2d included
    else:
        group = 1 if fn is gconv_lift else kind.size
    c, o, k = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    s, p = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    side = draw(st.integers(max(1, k - 2 * p), k - 2 * p + 7))
    seed, integer = draw(st.integers(0, 10_000)), draw(st.booleans())
    fm = random_feature_map([seed, 0], c, group, side, side, integer)
    w = random_filter_bank([seed, 1], o, c, group, k, integer)
    return fn, kind, fm, w, s, p


#: (layer function, kind, in channels, in group, side, out channels, k, s, p)
#: of the built-in layers: p4cnn layer 2, its p4m variant's layer 2, z2cnn
#: layer 2 and the toy41 lift.
BUILTIN_CONVS = [
    (gconv, GroupKind.P4, 10, 4, 26, 10, 3, 1, 0),
    (gconv, GroupKind.P4M, 10, 8, 26, 10, 3, 1, 0),
    (conv2d, GroupKind.Z2, 20, 1, 26, 20, 3, 1, 0),
    (gconv_lift, GroupKind.P4, 1, 1, 33, 1, 3, 2, 1),
]


class TestContractionPaths:
    """Integer operands take one tensordot, float operands the flattened-row
    einsum; both must give exactly what the per-slot composition gives."""

    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    def test_stacked_body_matches_per_slot_loop(self, case):
        fn, kind, fm, w, s, p = case
        assert np.array_equal(run_conv(*case).values, per_slot_reference(fm, w, kind, s, p))

    @pytest.mark.parametrize("fn, kind, c, g, side, o, k, s, p", BUILTIN_CONVS)
    def test_float_builtin_shapes_match_per_slot_loop(self, fn, kind, c, g, side, o, k, s, p):
        fm = random_feature_map([side, c], c, g, side, side)
        w = random_filter_bank([side, o], o, c, g, k)
        out = run_conv(fn, kind, fm, w, s, p).values
        ref = per_slot_reference(fm, w, kind, s, p)
        assert out.shape == ref.shape
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))


#: (kind, in-group size): planar and group-valued banks of p4 and p4m.
BANK_KINDS = [(GroupKind.P4, 1), (GroupKind.P4, 4), (GroupKind.P4M, 1), (GroupKind.P4M, 8)]


class TestTransformFilters:
    """transform_filters is a group action on banks, planar or group-valued."""

    @pytest.mark.parametrize("kind, group", BANK_KINDS)
    def test_composition(self, kind, group):
        w = random_filter_bank([group, 3], 2, 3, group, 3)
        for a in elements(kind):
            for b in elements(kind):
                lhs = transform_filters(a, transform_filters(b, w, kind), kind)
                rhs = transform_filters(compose(a, b), w, kind)
                assert np.array_equal(lhs.values, rhs.values)

    @pytest.mark.parametrize("kind, group", BANK_KINDS)
    def test_inverse_round_trip(self, kind, group):
        w = random_filter_bank([group, 5], 2, 3, group, 2)
        for g in elements(kind):
            back = transform_filters(inverse(g), transform_filters(g, w, kind), kind)
            assert np.array_equal(back.values, w.values)

    def test_group_axis_needs_the_element_in_the_group(self):
        with pytest.raises(GroupKindError):
            transform_filters(MIRROR, random_filter_bank(0, 1, 1, 4, 3), GroupKind.P4)
        with pytest.raises(GroupKindError):
            transform_filters(ROT90, random_filter_bank(0, 1, 1, 4, 3), GroupKind.Z2)


class TestNonSquareMaps:
    """Inputs are square; a non-square map is refused before any contraction,
    whichever path its values would take."""

    @pytest.mark.parametrize("integer", [True, False])
    @pytest.mark.parametrize("height, width", [(7, 5), (5, 7)])
    @pytest.mark.parametrize("fn, kind, group", [
        (conv2d, GroupKind.Z2, 1), (gconv_lift, GroupKind.P4, 1), (gconv, GroupKind.P4, 4),
    ])
    def test_rejected(self, fn, kind, group, height, width, integer):
        fm = random_feature_map(0, 1, group, height, width, integer)
        w = random_filter_bank(1, 1, 1, group, 3, integer)
        with pytest.raises(ShapeError, match="square"):
            run_conv(fn, kind, fm, w, 1, 0)


def spike_case(fill_all, group=1):
    """3x3 integer input at 2**45 (one spike in slot 0 or everywhere), all
    weights 32; ``group`` is the length of both group axes."""
    vals = np.full((1, group, 3, 3), 2.0**45) if fill_all else np.zeros((1, group, 3, 3))
    vals[0, 0, 1, 1] = 2.0**45
    return FeatureMap(vals), FilterBank(np.full((1, 1, group, 3, 3), 32.0))


class TestExactnessGuard:
    @pytest.mark.parametrize("fn, kind", [(conv2d, GroupKind.Z2), (gconv, GroupKind.P4M)],
                             ids=["conv2d", "p4m-gconv"])
    def test_loose_hoelder_bound_falls_back_to_exact_sum(self, fn, kind):
        # max|x| * ||w||_1 = 2**45 * 288 * |G_in| > 2**53, but each cell sums
        # to 2**50; the p4m gconv checks its stacked, permuted bank
        fm, w = spike_case(fill_all=False, group=kind.size)
        out = run_conv(fn, kind, fm, w, 1, 1)
        assert np.all(out.values == 2.0**50)
        assert np.array_equal(out.values, per_slot_reference(fm, w, kind, 1, 1))

    def test_exact_sum_past_two_to_53_raises(self):
        fm, w = spike_case(fill_all=True)
        with pytest.raises(ExactnessOverflowError):
            conv2d(fm, w)
        net = Network(kind=GroupKind.Z2, layers=(Layer(LayerKind.CONV2D, k=3, out_channels=1),),
                      input_size=3, weights=(w,))
        with pytest.raises(LayerError, match="layer 0"):
            forward(net, fm)

    def test_first_slot_past_two_to_53_is_reported(self):
        # a corner spike of 2**45 meets a different filter corner in each p4
        # slot: 1, 256, 512 and 384 times the spike, so slots 1-3 overflow and
        # slot 1, at exactly 2**53, is named, not the largest bound
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 0, 0] = 2.0**45
        w = np.zeros((1, 1, 1, 3, 3))
        w[..., 0, 0], w[..., 0, 2], w[..., 2, 2], w[..., 2, 0] = 1, 256, 512, 384
        fm, bank = FeatureMap(x), FilterBank(w)
        bounds = per_slot_reference(fm, bank, GroupKind.P4, 1, 0).max(axis=(0, 2, 3))
        assert bounds.tolist() == [2.0**45, 2.0**53, 2.0**54, 1.5 * 2.0**53]
        with pytest.raises(ExactnessOverflowError, match=re.escape(f"bound {2.0**53:.3e} ")):
            gconv_lift(fm, bank, GroupKind.P4)


class TestMaxpool:
    def test_constant_map(self):
        fm = make_feature_map(1, 4, 6, 6, 2.5)
        out = maxpool(fm, 2, 2)
        assert out.shape == (1, 4, 3, 3)
        assert np.all(out.values == 2.5)

    def test_two_by_two(self):
        fm = FeatureMap(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = maxpool(fm, 2, 2)
        assert out.values.tolist() == [[[[4.0]]]]

    def test_five_wide_pool_breaks_rotation(self):
        # stride-2 pooling of a 5-wide map reads different cells after a turn
        fm = random_feature_map(1, 1, 1, 5, 5, integer_valued=True)
        pooled_then_rotated = act_spatial(ROT90, maxpool(fm, 2, 2))
        rotated_then_pooled = maxpool(act_spatial(ROT90, fm), 2, 2)
        assert max_abs_diff(pooled_then_rotated, rotated_then_pooled) > 0

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            maxpool(make_feature_map(1, 1, 2, 2, 0.0), 3, 1)


class TestCosetMaxpool:
    def test_equal_slots(self):
        fm = make_feature_map(2, 4, 3, 3, 1.25)
        out = coset_maxpool(fm)
        assert out.shape == (2, 1, 3, 3)
        assert np.all(out.values == 1.25)

    def test_slot_values(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)
        assert coset_maxpool(FeatureMap(vals)).values[0, 0, 0, 0] == 4.0

    def test_commutes_with_group_action(self):
        fm = random_feature_map(41, 2, 8, 5, 5, integer_valued=True)
        for g in P4M:
            lhs = coset_maxpool(act_full(g, fm, GroupKind.P4M))
            rhs = act_spatial(g, coset_maxpool(fm))
            assert max_abs_diff(lhs, rhs) == 0.0

    def test_planar_input_rejected(self):
        with pytest.raises(ShapeError):
            coset_maxpool(make_feature_map(1, 1, 2, 2, 0.0))


class TestGlobalAvgPool:
    def test_constant(self):
        out = global_avg_pool(make_feature_map(1, 4, 5, 5, 3.5))
        assert out.shape == (1, 4, 1, 1)
        assert np.all(out.values == 3.5)

    def test_mean_value(self):
        fm = FeatureMap(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert global_avg_pool(fm).values[0, 0, 0, 0] == 2.5

    def test_spatially_invariant_exact(self):
        fm = random_feature_map(43, 2, 4, 7, 7, integer_valued=True)
        for g in P4:
            lhs = global_avg_pool(act_spatial(g, fm))
            rhs = global_avg_pool(fm)
            assert max_abs_diff(lhs, rhs) == 0.0


class TestRelu:
    def test_pointwise(self):
        fm = FeatureMap(np.array([[[[0.0, -3.0], [2.0, -0.5]]]]))
        assert relu(fm).values.tolist() == [[[[0.0, 0.0], [2.0, 0.0]]]]

    def test_commutes_with_full_action(self):
        fm = random_feature_map(47, 2, 8, 4, 4)
        for g in P4M:
            lhs = relu(act_full(g, fm, GroupKind.P4M))
            rhs = act_full(g, relu(fm), GroupKind.P4M)
            assert max_abs_diff(lhs, rhs) == 0.0


class TestCircleCrop:
    def test_one_by_one_unchanged(self):
        fm = make_feature_map(1, 1, 1, 1, 7.0)
        assert max_abs_diff(circle_crop(fm), fm) == 0.0

    def test_two_by_two_unchanged(self):
        # all four pixel centers sit at distance sqrt(0.5) <= 1 from center
        c, r2 = 0.5, 1.0
        for x in range(2):
            for y in range(2):
                assert (x - c) ** 2 + (y - c) ** 2 <= r2
        fm = random_feature_map(0, 1, 1, 2, 2)
        assert max_abs_diff(circle_crop(fm), fm) == 0.0

    def test_corners_zeroed_for_larger_even_sizes(self):
        fm = make_feature_map(1, 1, 4, 4, 1.0)
        out = circle_crop(fm)
        assert out.values[0, 0, 0, 0] == 0.0
        assert out.values[0, 0, 1, 1] == 1.0

    def test_idempotent(self):
        fm = random_feature_map(51, 1, 4, 9, 9)
        once = circle_crop(fm)
        assert max_abs_diff(circle_crop(once), once) == 0.0

    def test_commutes_with_all_eight_actions(self):
        for n in (4, 5, 8):
            fm = random_feature_map(53 + n, 2, 1, n, n)
            for g in P4M:
                lhs = circle_crop(act_spatial(g, fm))
                rhs = act_spatial(g, circle_crop(fm))
                assert max_abs_diff(lhs, rhs) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            circle_crop(random_feature_map(0, 1, 1, 2, 3))


class TestDense:
    def test_matrix_apply(self):
        fm = FeatureMap(np.arange(4.0).reshape(1, 1, 2, 2))
        w = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        out = dense(fm, w)
        assert out.shape == (2, 1, 1, 1)
        assert out.values.ravel().tolist() == [0.0, 6.0]

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            dense(make_feature_map(1, 1, 2, 2, 0.0), np.ones((2, 5)))

    def test_loose_hoelder_bound_falls_back_to_exact_sum(self):
        # max|x| * ||w_o||_1 = 2**45 * 512 > 2**53, but each row sums to 2**52
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 0, 0] = 2.0**45
        out = dense(FeatureMap(x), np.full((2, 4), 128.0))
        assert out.values.ravel().tolist() == [2.0**52, 2.0**52]

    def test_exact_sum_past_two_to_53_raises(self):
        fm, w = FeatureMap(np.full((1, 1, 2, 2), 2.0**45)), np.full((1, 4), 128.0)
        with pytest.raises(ExactnessOverflowError):
            dense(fm, w)
        net = Network(kind=GroupKind.Z2, layers=(Layer(LayerKind.DENSE, out_channels=1),),
                      input_size=2, weights=(w,))
        with pytest.raises(LayerError, match=re.escape("layer 0 (dense)")):
            forward(net, fm)


LAYER_OUTPUTS = [
    pytest.param(lambda fm: conv2d(fm, random_filter_bank(1, 2, 4, 4, 3), 2, 1), id="conv2d"),
    pytest.param(lambda fm: conv2d(fm, random_filter_bank(1, 2, 4, 4, 3, True), 2, 1),
                 id="conv2d-integer"),
    pytest.param(lambda fm: gconv(fm, random_filter_bank(2, 2, 4, 4, 3), GroupKind.P4), id="gconv"),
    pytest.param(lambda fm: maxpool(fm, 2, 2), id="maxpool"),
    pytest.param(coset_maxpool, id="coset_maxpool"),
    pytest.param(global_avg_pool, id="global_avg_pool"),
    pytest.param(relu, id="relu"),
    pytest.param(circle_crop, id="circle_crop"),
    pytest.param(lambda fm: dense(fm, np.ones((3, 4 * 4 * 7 * 7))), id="dense"),
]


@pytest.mark.parametrize("layer", LAYER_OUTPUTS)
def test_layer_output_is_read_only(layer):
    fm = random_feature_map(0, 4, 4, 7, 7, integer_valued=True)
    out = layer(fm)
    assert not out.values.flags.writeable
    with pytest.raises(ValueError):
        out.values[(0,) * 4] = 1.0
    assert not fm.values.flags.writeable


def toy_net(input_size):
    return Network(
        kind=GroupKind.P4,
        layers=[
            Layer(LayerKind.GCONV_LIFT, k=3, s=2, p=1, out_channels=1),
            Layer(LayerKind.GLOBAL_AVG_POOL),
            Layer(LayerKind.COSET_MAXPOOL),
            Layer(LayerKind.DENSE, out_channels=2),
        ],
        input_size=input_size,
        name="toy",
    )


class TestForward:
    def test_empty_network_returns_input(self):
        net = Network(kind=GroupKind.Z2, layers=[], input_size=4)
        fm = random_feature_map(0, 1, 1, 4, 4)
        acts = forward(net, fm)
        assert len(acts) == 1 and acts[0] is fm

    def test_toy_network_yields_two_logits(self):
        net = seed_network(toy_net(33), 0)
        acts = forward(net, random_feature_map(1, 1, 1, 33, 33))
        assert len(acts) == len(net.layers)
        assert acts[-1].shape == (2, 1, 1, 1)

    def test_layer_error_carries_index(self):
        net = seed_network(toy_net(33), 0)
        bad = random_feature_map(2, 1, 1, 33, 33)
        net = replace(net, weights=(None,) + net.weights[1:])
        with pytest.raises(LayerError, match="layer 0"):
            forward(net, bad)

    def test_input_size_checked(self):
        net = seed_network(toy_net(33), 0)
        with pytest.raises(ShapeError):
            forward(net, random_feature_map(0, 1, 1, 32, 32))

    def test_infer_shapes(self):
        assert infer_shapes(toy_net(33)) == [(1, 4, 17), (1, 4, 1), (1, 1, 1), (2, 1, 1)]

    def test_seed_network_deterministic(self):
        a = seed_network(toy_net(33), 9, integer_valued=True)
        b = seed_network(toy_net(33), 9, integer_valued=True)
        assert np.array_equal(a.weights[0].values, b.weights[0].values)
        assert np.array_equal(a.weights[3], b.weights[3])


class TestWholeNetworkEquivariance:
    def test_exact_network_commutes_at_every_group_depth(self):
        net = seed_network(toy_net(33), 4, integer_valued=True)
        x = random_feature_map(5, 1, 1, 33, 33, integer_valued=True)
        base = forward(net, x)
        for g in P4:
            moved = forward(net, act_spatial(g, x))
            for depth, act in enumerate(base):
                if act.group_size > 1:
                    assert max_abs_diff(moved[depth], act_full(g, act, GroupKind.P4)) == 0.0

    def test_condition_violation_breaks_some_seed(self):
        positives = 0
        for seed in range(10):
            net = seed_network(toy_net(32), seed, integer_valued=True)
            x = random_feature_map([seed, 1], 1, 1, 32, 32, integer_valued=True)
            pre_pool = forward(net, x)[0]
            moved = forward(net, act_spatial(ROT90, x))[0]
            err = max_abs_diff(moved, act_full(ROT90, pre_pool, GroupKind.P4))
            positives += err > 0
        assert positives >= 1
