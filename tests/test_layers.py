"""Layer semantics: convolution sizes, group convolutions, poolings, crop,
and exactness of whole-network equivariance in integer and float mode."""

import contextlib
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from test_config_cli import P4MCNN_PATH, run_cli, valid_configs

from equicheck import layers, metrics, tensor
from equicheck.analyzer import exact_size_lattice
from equicheck.builtins import P4CNN, Z2CNN
from equicheck.config import build_network
from equicheck.errors import DimensionError, GroupKindError, LayerError, ShapeError
from equicheck.group import (
    IDENTITY,
    MIRROR,
    ROT90,
    GroupElement,
    GroupKind,
    act_full,
    act_spatial,
    act_values,
    compose,
    elements,
    inverse,
    slot_index,
)
from equicheck.layers import (
    Layer,
    LayerKind,
    Move,
    Network,
    _base_correlate,
    _check_conv_args,
    _contract,
    _is_integral,
    _pad,
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
)
from equicheck.tensor import (
    FeatureMap,
    FilterBank,
    max_abs_diff,
    random_feature_map,
    random_values,
)

P4 = list(elements(GroupKind.P4))
P4M = list(elements(GroupKind.P4M))


def random_filter_bank(seed, o, c, g, k, integer_valued=False):
    """Seeded (o, c, g, k, k) bank, drawn as random_feature_map draws a map."""
    return FilterBank(random_values(np.random.default_rng(seed), (o, c, g, k, k), integer_valued))


def assert_close(actual, expected):
    """The same function summed in another order: equal to within 1e-12 of
    the expected map's largest magnitude."""
    scale = np.abs(expected).max(initial=0.0)
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


def assert_equivariant_bytes(fn, kind, fm, w, s, p):
    """The layer of g*x is g times the layer of x, byte for byte, for every
    element g of ``kind``.  A planar conv2d is checked as slot e of the p4m
    lift of its bank, which it equals byte for byte."""
    if fn is conv2d:
        plain = conv2d(fm, w, s, p).values
        assert plain.tobytes() == gconv_lift(fm, w, GroupKind.P4M, s, p).values[:, :1].tobytes()
        fn, kind = gconv_lift, GroupKind.P4M
    out = run_conv(fn, kind, fm, w, s, p)
    for g in elements(kind):
        moved = act_spatial(g, fm) if fm.group_size == 1 else act_full(g, fm, kind)
        assert run_conv(fn, kind, moved, w, s, p).values.tobytes() == \
            act_full(g, out, kind).values.tobytes()


def moved_forward(net, g, x, base):
    """The forward of g * x that names its move against ``base``."""
    return forward(net, act_spatial(g, x), moved=Move(g, x, base))


def assert_plain_bytes(moved, computed, base, g, kind):
    """The moved forward of g * x gives the bytes of the plain one,
    ``computed``, at every depth, and marks None only a depth where those
    are g times the base map's."""
    assert len(moved) == len(computed)
    for d, (a, b) in enumerate(zip(moved, computed)):
        want = act_full(g, base[d], kind) if a is None else a
        assert want.values.tobytes() == b.values.tobytes(), (g.name, d)


def assert_forward_equivariant_bytes(net, x):
    """Every group-valued layer of forward(g*x) is g times that layer of
    forward(x), byte for byte, for every element g of the network's group.
    The forward of g*x runs twice: naming its move, so that a layer whose
    input agrees with its base input takes g times its base map and reads
    None, and plainly, so that every product is computed; the first gives
    the second's bytes at every other layer."""
    base = forward(net, x)
    for g in elements(net.kind):
        computed = forward(net, act_spatial(g, x))
        assert_plain_bytes(moved_forward(net, g, x, base), computed, base, g, net.kind)
        for depth, act in enumerate(base):
            if act.group_size > 1:
                want = act_full(g, act, net.kind).values.tobytes()
                assert computed[depth].values.tobytes() == want, (g.name, depth)


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
        fm = FeatureMap(np.ones((1, 1, 3, 3)))
        w = FilterBank(np.ones((1, 1, 1, 3, 3)))
        out = conv2d(fm, w)
        assert out.shape == (1, 1, 1, 1)
        assert out.values[0, 0, 0, 0] == 9.0

    def test_kernel_exceeds_padded_input(self):
        fm = FeatureMap(np.ones((1, 1, 2, 2)))
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
        # each slot sums its terms in its own order, so the slots agree to
        # rounding; the lift commutes with every element byte for byte
        fm = random_feature_map(4, 1, 1, 5, 5)
        w = FilterBank(np.full((1, 1, 1, 3, 3), 0.5))
        lifted = gconv_lift(fm, w, GroupKind.P4)
        assert_close(lifted.values, per_slot_reference(fm, w, GroupKind.P4, 1, 0))
        for slot in range(1, 4):
            assert_close(lifted.values[:, slot], lifted.values[:, 0])
        assert_equivariant_bytes(gconv_lift, GroupKind.P4, fm, w, 1, 0)

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
    banks = [w.values] if kind is GroupKind.Z2 else [
        act_values(g, w.values, kind) for g in elements(kind)]
    return np.stack([per_position_reference(vals, b, s) for b in banks], axis=1)


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
    seed = draw(st.integers(0, 10_000))
    integer_fm, integer_w = draw(st.booleans()), draw(st.booleans())  # mixed pairs take floats
    fm = random_feature_map([seed, 0], c, group, side, side, integer_fm)
    w = random_filter_bank([seed, 1], o, c, group, k, integer_w)
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
    """Integer operands take one BLAS product and give exactly what the per-slot
    composition gives.  Float operands are summed in the base bank's
    coordinates: the same function to rounding, and byte-exact equivariance
    wherever the layer keeps the rule."""

    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    def test_stacked_body_matches_per_slot_loop(self, case):
        fn, kind, fm, w, s, p = case
        out, ref = run_conv(*case).values, per_slot_reference(fm, w, kind, s, p)
        if _is_integral(fm.values) and _is_integral(w.values):
            assert np.array_equal(out, ref)
        else:
            assert_close(out, ref)
        # a group-valued conv2d has no group action on its output
        if (fm.height + 2 * p - w.k) % s == 0 and (fn is not conv2d or fm.group_size == 1):
            assert_equivariant_bytes(*case)

    @pytest.mark.parametrize("fn, kind, c, g, side, o, k, s, p", BUILTIN_CONVS)
    def test_float_builtin_shapes_match_per_slot_loop(self, fn, kind, c, g, side, o, k, s, p):
        fm = random_feature_map([side, c], c, g, side, side)
        w = random_filter_bank([side, o], o, c, g, k)
        out = run_conv(fn, kind, fm, w, s, p).values
        ref = per_slot_reference(fm, w, kind, s, p)
        assert out.shape == ref.shape
        assert_close(out, ref)
        assert_equivariant_bytes(fn, kind, fm, w, s, p)


def reference_contract(vals, bank, s):
    """The BLAS contraction from before it built its window matrix itself,
    kept verbatim: one tensordot over a strided sliding-window view."""
    windows = sliding_window_view(vals, bank.shape[-2:], axis=(2, 3))[:, :, ::s, ::s]
    return np.tensordot(bank, windows, axes=([2, 3, 4, 5], [0, 1, 4, 5]))


@st.composite
def contract_cases(draw):
    """A padded (C, G, n, n) input and a stacked (|G|, O, C, G, k, k) bank,
    float or integer-valued each, with n >= k."""
    slots, g = draw(st.sampled_from([1, 4, 8])), draw(st.sampled_from([1, 4, 8]))
    c, o, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    s, p = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    n = draw(st.integers(max(1, k - 2 * p), 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.integers(-4, 5, (c, g, n, n)) if draw(st.booleans()) else rng.uniform(-1, 1, (c, g, n, n))
    bank = (rng.integers(-4, 5, (slots, o, c, g, k, k)) if draw(st.booleans())
            else rng.uniform(-1, 1, (slots, o, c, g, k, k)))
    return _pad(np.asarray(x, dtype=np.float64), p), np.asarray(bank, dtype=np.float64), s


class TestContract:
    """``_contract`` gives the operands to BLAS exactly as tensordot did, so
    its results are the tensordot's, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(contract_cases())
    def test_matches_tensordot_body(self, case):
        vals, bank, s = case
        want = reference_contract(vals, bank, s)
        got = _contract(vals, bank, s)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_reads_read_only_maps_and_banks(self):
        vals = random_feature_map(2, 3, 4, 11, 11).values
        bank = random_filter_bank(3, 5, 3, 4, 3).values[np.newaxis]
        assert not vals.flags.writeable and not bank.flags.writeable
        for s in (1, 2, 3):
            assert _contract(vals, bank, s).tobytes() == reference_contract(vals, bank, s).tobytes()


def reversed_axes(g, n):
    """(rows, cols): whether act_values(g, .) reads its input backwards along
    each axis of its output, found on an n x n index grid."""
    moved = act_values(g, np.arange(n * n, dtype=np.float64).reshape(1, n, n))[0]
    return bool(moved[1, 0] < moved[0, 0]), bool(moved[0, 1] < moved[0, 0])


def reference_base_correlate(vals, w, kind, s):
    """The base-coordinate sum from before it kept one accumulator and one
    product buffer per call, kept verbatim: a fresh product per kernel
    position, added into a (O, o*m) accumulator."""
    o_ch, c, g, k, _ = w.shape
    n = vals.shape[-1]
    o = (n - k) // s + 1
    m = s * (o - 1) + k
    span = (o - 1) * m + o
    read = vals[..., :m, :m]
    taps = w.transpose(3, 4, 0, 1, 2).reshape(k * k, o_ch, c * g)
    out = np.empty((o_ch, kind.size, o, o))
    acc = np.empty((o_ch, o * m))
    # numpy's matmul takes an inner dimension of 1 through its own loop, not BLAS
    product = np.dot if c * g == 1 else np.matmul
    for q in elements(kind):
        flat = np.ascontiguousarray(act_values(inverse(q), read, kind)).reshape(c * g, m * m)
        for t in range(k * k):
            start = (t // k) * m + t % k
            prod = product(taps[t], flat[:, start : start + s * (span - 1) + 1 : s])
            if t:
                acc[:, :span] += prod
            else:
                acc[:, :span] = prod
        out[:, slot_index(q)] = act_values(q, acc.reshape(o_ch, o, m)[..., :o])
    return out


@st.composite
def base_correlate_cases(draw):
    """A padded (C, G, n, n) input and an (O, C, G, k, k) bank for a group
    kind, planar or group-valued, float or integer-valued each, with n >= k;
    a stride that does not divide n - k cuts the input."""
    kind = draw(st.sampled_from(list(GroupKind)))
    g = draw(st.sampled_from(sorted({1, kind.size})))
    c, o, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    s, p = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    n = draw(st.integers(max(1, k - 2 * p), 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (rng.integers(-4, 5, (c, g, n, n)) if draw(st.booleans())
         else rng.uniform(-1, 1, (c, g, n, n)))
    w = (rng.integers(-4, 5, (o, c, g, k, k)) if draw(st.booleans())
         else rng.uniform(-1, 1, (o, c, g, k, k)))
    return _pad(np.asarray(x, dtype=np.float64), p), np.asarray(w, dtype=np.float64), kind, s


class TestBaseCoordinates:
    """Slot q of a float conv is q applied to the correlation of the input
    moved by q^-1 with the untransformed bank, the moved input cropped by
    r = (n - k) mod s at the start of each axis q^-1 reverses."""

    def test_reversed_axes_of_every_element(self):
        expected = {"e": (False, False), "r": (True, False), "r2": (True, True),
                    "r3": (False, True), "m": (False, True), "mr": (False, False),
                    "mr2": (True, False), "mr3": (True, True)}
        assert {g.name: reversed_axes(g, 4) for g in P4M} == expected

    @pytest.mark.parametrize("g", P4M, ids=str)
    @pytest.mark.parametrize("group", [1, 8])
    def test_slot_correlates_the_cropped_moved_input(self, g, group):
        for n, k, s in ((8, 3, 2), (9, 2, 3), (7, 3, 3), (10, 4, 3), (6, 3, 1)):
            r = (n - k) % s
            vals = random_feature_map([n, k, s], 2, group, n, n, True).values
            w = random_filter_bank([n, k], 3, 2, group, k, True).values
            moved = act_values(inverse(g), vals, GroupKind.P4M)
            rows, cols = reversed_axes(inverse(g), n)
            y0, x0 = r * rows, r * cols
            cropped = moved[..., y0 : y0 + n - r, x0 : x0 + n - r]
            expected = act_values(g, per_position_reference(cropped, w, s))
            got = _base_correlate(vals, w, GroupKind.P4M, s)[:, slot_index(g)]
            # integer values, so every summation order gives the same numbers
            assert np.array_equal(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(base_correlate_cases())
    def test_matches_the_per_position_products(self, case):
        vals, w, kind, s = case
        want = reference_base_correlate(vals, w, kind, s)
        got = _base_correlate(vals, w, kind, s)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


#: (kind, in-group size): planar and group-valued banks of p4 and p4m.
BANK_KINDS = [(GroupKind.P4, 1), (GroupKind.P4, 4), (GroupKind.P4M, 1), (GroupKind.P4M, 8)]


class TestTransformFilters:
    """act_values on banks, which ``_stacked`` stacks, is a group action,
    planar or group-valued."""

    @pytest.mark.parametrize("kind, group", BANK_KINDS)
    def test_composition(self, kind, group):
        w = random_filter_bank([group, 3], 2, 3, group, 3).values
        for a in elements(kind):
            for b in elements(kind):
                lhs = act_values(a, act_values(b, w, kind), kind)
                assert np.array_equal(lhs, act_values(compose(a, b), w, kind))

    @pytest.mark.parametrize("kind, group", BANK_KINDS)
    def test_inverse_round_trip(self, kind, group):
        w = random_filter_bank([group, 5], 2, 3, group, 2).values
        for g in elements(kind):
            assert np.array_equal(act_values(inverse(g), act_values(g, w, kind), kind), w)

    def test_group_axis_needs_the_element_in_the_group(self):
        w = random_filter_bank(0, 1, 1, 4, 3).values
        with pytest.raises(GroupKindError):
            act_values(MIRROR, w, GroupKind.P4)
        with pytest.raises(GroupKindError):
            act_values(ROT90, w, GroupKind.Z2)


class TestNonSquareMaps:
    """Inputs are square; a non-square map is refused when it is built, so
    it never reaches a contraction, whichever path its values would take."""

    @pytest.mark.parametrize("integer", [True, False])
    @pytest.mark.parametrize("height, width", [(7, 5), (5, 7)])
    @pytest.mark.parametrize("fn, kind, group", [
        (conv2d, GroupKind.Z2, 1), (gconv_lift, GroupKind.P4, 1), (gconv, GroupKind.P4, 4),
    ])
    def test_rejected(self, fn, kind, group, height, width, integer):
        w = random_filter_bank(1, 1, 1, group, 3, integer)
        with pytest.raises(DimensionError, match="square"):
            run_conv(fn, kind, random_feature_map(0, 1, group, height, width, integer), w, 1, 0)


def spike_case(fill_all, group=1):
    """3x3 integer input at 2**45 (one spike in slot 0 or everywhere), all
    weights 32; ``group`` is the length of both group axes."""
    vals = np.full((1, group, 3, 3), 2.0**45) if fill_all else np.zeros((1, group, 3, 3))
    vals[0, 0, 1, 1] = 2.0**45
    return FeatureMap(vals), FilterBank(np.full((1, 1, group, 3, 3), 32.0))


class TestExactnessGuard:
    """The Hoelder bound max|x| * max_o ||w_o||_1 < 2**53 guards the BLAS
    route of an integer conv; past it the conv sums in the base bank's
    coordinates, which is exact for the verdict at any magnitude."""

    @pytest.mark.parametrize("fn, kind", [(conv2d, GroupKind.Z2), (gconv, GroupKind.P4M)],
                             ids=["conv2d", "p4m-gconv"])
    def test_loose_hoelder_bound_falls_back_to_exact_sum(self, fn, kind):
        # max|x| * ||w||_1 = 2**45 * 288 * |G_in| > 2**53, so the conv sums
        # in base coordinates; each cell sums to 2**50, which it adds exactly
        fm, w = spike_case(fill_all=False, group=kind.size)
        out = run_conv(fn, kind, fm, w, 1, 1)
        assert np.all(out.values == 2.0**50)
        assert np.array_equal(out.values, per_slot_reference(fm, w, kind, 1, 1))

    def test_integer_conv_past_two_to_53_commutes_byte_for_byte(self):
        fm, w = spike_case(fill_all=True)
        assert conv2d(fm, w).values.tolist() == [[[[288 * 2.0**45]]]]
        # (9 + 2 - 3) mod 2 = 0; cells sum far past 2**53 and round, alike
        # for x and g * x
        fm = FeatureMap(random_feature_map(3, 2, 8, 9, 9, True).values * 2.0**50)
        w = random_filter_bank(4, 3, 2, 8, 3, True)
        assert np.abs(gconv(fm, w, GroupKind.P4M, 2, 1).values).max() >= 2.0**53
        assert_equivariant_bytes(gconv, GroupKind.P4M, fm, w, 2, 1)

    def test_hoelder_bound_picks_the_contraction(self, monkeypatch):
        calls = []

        def recording(name):
            real = getattr(layers, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("_contract", "_base_correlate"):
            monkeypatch.setattr(layers, name, recording(name))
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 0, 0] = 2.0**45
        fm = FeatureMap(x)
        # max|x| * ||w||_1 is 255 * 2**45 under 2**53, and 256 * 2**45 meets it
        for l1, route in ((255.0, "_contract"), (256.0, "_base_correlate")):
            w = np.zeros((1, 1, 1, 3, 3))
            w[..., 0, 0] = l1
            calls.clear()
            conv2d(fm, FilterBank(w))
            gconv_lift(fm, FilterBank(w), GroupKind.P4)
            assert calls == [route, route]


def reference_group_conv(fm, filters, kind, s, p):
    """The conv body from before banks were stacked once: it stacks the
    transformed bank on every call.  Integer operands take the BLAS
    contraction as then; floats take the per-slot, per-position einsum over the
    transformed banks, the order every float conv ran in before float convs
    summed in the base bank's coordinates."""
    _check_conv_args(fm, filters, s, p)
    vals = _pad(fm.values, p)
    bank = np.stack([act_values(g, filters.values, kind) for g in elements(kind)])
    if _is_integral(fm.values) and _is_integral(filters.values):
        return FeatureMap._from_layer(_contract(vals, bank, s).transpose(1, 0, 2, 3))
    return FeatureMap._from_layer(np.stack([per_position_reference(vals, b, s) for b in bank], 1))


def reference_maxpool(fm, k, s):
    """The pool from before strided maxima, kept verbatim: one reduction of
    the sliding-window view."""
    if k < 1 or s < 1:
        raise ShapeError(f"pool needs k >= 1 and s >= 1, got k={k}, s={s}")
    if fm.height < k:
        raise ShapeError(f"pool kernel {k} exceeds input {fm.height}x{fm.height}")
    windows = sliding_window_view(fm.values, (k, k), axis=(2, 3))
    return FeatureMap._from_layer(windows[:, :, ::s, ::s].max(axis=(4, 5)))


#: The built-in stacks of every group kind: z2cnn, p4cnn and p4cnn as p4m.
SEEDED_NETS = [
    pytest.param(build_network(Z2CNN), id="z2cnn"),
    pytest.param(build_network(P4CNN), id="p4cnn"),
    pytest.param(replace(build_network(P4CNN), kind=GroupKind.P4M), id="p4mcnn"),
]


def stacked_kinds(bank):
    """The group kinds a bank's memo holds a stacked bank for."""
    return {key for key in bank._memo if isinstance(key, GroupKind)}


class TestStackedBanks:
    """Each bank the BLAS route reads is stacked once per group kind and
    held read-only on the FilterBank; integer forwards stay bit-identical to
    per-call stacking, float forwards agree with it to rounding and are
    equivariant bit for bit."""

    @pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
    @pytest.mark.parametrize("net", SEEDED_NETS)
    def test_forward_matches_per_call_stacking(self, monkeypatch, net, integer):
        seed = 3
        seeded = seed_network(net, seed, integer)
        x = random_feature_map([seed, 1], 1, 1, net.input_size, net.input_size, integer)
        first, again = forward(seeded, x), forward(seeded, x)  # memo filled, then reused
        assert [a.values.tobytes() for a in again] == [a.values.tobytes() for a in first]
        if not integer:
            assert_forward_equivariant_bytes(seeded, x)
        monkeypatch.setattr(layers, "_group_conv", reference_group_conv)
        monkeypatch.setattr(layers, "maxpool", reference_maxpool)
        expected = forward(seed_network(net, seed, integer), x)
        if integer:
            assert [a.values.tobytes() for a in first] == [e.values.tobytes() for e in expected]
        else:
            for a, e in zip(first, expected):
                assert_close(a.values, e.values)

    @pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
    def test_one_bank_under_several_kinds(self, integer):
        fm = random_feature_map(4, 2, 1, 9, 9, integer)
        lift = random_filter_bank(5, 3, 2, 1, 3, integer)
        for kind in (GroupKind.P4, GroupKind.P4M, GroupKind.P4):
            fresh = FilterBank(lift.values)
            out = gconv_lift(fm, lift, kind, 2, 1).values
            assert out.tobytes() == gconv_lift(fm, fresh, kind, 2, 1).values.tobytes()
            assert_equivariant_bytes(gconv_lift, kind, fm, lift, 2, 1)
        # only the BLAS route stacks a bank; float forwards sum in base coordinates
        assert stacked_kinds(lift) == ({GroupKind.P4, GroupKind.P4M} if integer else set())
        # a p4-valued bank read as a group-valued conv2d and as a gconv
        fm4 = random_feature_map(6, 2, 4, 7, 7, integer)
        bank4 = random_filter_bank(7, 2, 2, 4, 3, integer)
        for fn, kind in ((conv2d, GroupKind.Z2), (gconv, GroupKind.P4)):
            out = run_conv(fn, kind, fm4, bank4, 1, 0).values
            ref = reference_group_conv(fm4, bank4, kind, 1, 0).values
            if integer:
                assert out.tobytes() == ref.tobytes()
            else:
                assert_close(out, ref)
        assert_equivariant_bytes(gconv, GroupKind.P4, fm4, bank4, 1, 0)
        assert stacked_kinds(bank4) == ({GroupKind.Z2, GroupKind.P4} if integer else set())

    def test_memo_is_read_only(self):
        w = random_filter_bank(8, 2, 1, 1, 3, integer_valued=True)
        gconv_lift(random_feature_map(9, 1, 1, 6, 6), w, GroupKind.P4M)
        assert stacked_kinds(w) == set()
        gconv_lift(random_feature_map(9, 1, 1, 6, 6, integer_valued=True), w, GroupKind.P4M)
        stacked = w._memo[GroupKind.P4M]
        assert stacked.shape == (8, 2, 1, 1, 3, 3)
        for g in P4M:
            assert np.array_equal(stacked[slot_index(g)], act_values(g, w.values, GroupKind.P4M))
        with pytest.raises(ValueError):
            stacked[(0,) * 6] = 1.0

    def test_hand_built_network_runs_forward(self):
        net = toy_net(33)
        weights = (random_filter_bank(1, 1, 1, 1, 3, integer_valued=True), None, None,
                   np.array([[2.0], [-3.0]]))
        hand_built = Network(kind=net.kind, layers=net.layers, input_size=33, weights=weights)
        x = random_feature_map(2, 1, 1, 33, 33, integer_valued=True)
        lifted = reference_group_conv(x, weights[0], GroupKind.P4, 2, 1)
        acts = forward(hand_built, x)
        assert acts[0].values.tobytes() == lifted.values.tobytes()
        assert acts[-1].shape == (2, 1, 1, 1)


class TestMaxpool:
    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("s", range(1, 5))
    def test_strided_maxima_match_window_reduction(self, k, s):
        rng = np.random.default_rng([k, s])
        for _ in range(4):
            n = rng.integers(k, k + 9)
            # few distinct values, so windows tie; zeros of both signs
            vals = rng.integers(-2, 3, size=(2, 4, n, n)) * rng.choice([-1.0, 1.0], size=(n, n))
            out = maxpool(FeatureMap(vals), k, s).values
            assert np.array_equal(out, reference_maxpool(FeatureMap(vals), k, s).values)
            positive_zeros = FeatureMap(vals + 0.0)  # -0.0 + 0.0 is +0.0
            out = maxpool(positive_zeros, k, s).values
            assert out.tobytes() == reference_maxpool(positive_zeros, k, s).values.tobytes()

    @pytest.mark.parametrize("k, s", [(0, 1), (2, 0), (-1, 2)])
    def test_bad_kernel_or_stride(self, k, s):
        with pytest.raises(ShapeError):
            maxpool(FeatureMap(np.zeros((1, 1, 4, 4))), k, s)

    def test_constant_map(self):
        fm = FeatureMap(np.full((1, 4, 6, 6), 2.5))
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
            maxpool(FeatureMap(np.zeros((1, 1, 2, 2))), 3, 1)


class TestCosetMaxpool:
    def test_equal_slots(self):
        fm = FeatureMap(np.full((2, 4, 3, 3), 1.25))
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
            coset_maxpool(FeatureMap(np.zeros((1, 1, 2, 2))))


class TestGlobalAvgPool:
    def test_constant(self):
        out = global_avg_pool(FeatureMap(np.full((1, 4, 5, 5), 3.5)))
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
        fm = FeatureMap(np.full((1, 1, 1, 1), 7.0))
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
        fm = FeatureMap(np.ones((1, 1, 4, 4)))
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
        # a map is square by construction, so a non-square one is never cropped
        with pytest.raises(DimensionError, match="square"):
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
            dense(FeatureMap(np.zeros((1, 1, 2, 2))), np.ones((2, 5)))

    def test_loose_hoelder_bound_falls_back_to_exact_sum(self):
        # max|x| * ||w_o||_1 = 2**45 * 512 > 2**53, but each row sums to 2**52
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 0, 0] = 2.0**45
        out = dense(FeatureMap(x), np.full((2, 4), 128.0))
        assert out.values.ravel().tolist() == [2.0**52, 2.0**52]

    def test_sum_past_two_to_53_is_the_matrix_product(self):
        fm, w = FeatureMap(np.full((1, 1, 2, 2), 2.0**45)), np.full((1, 4), 128.0)
        assert dense(fm, w).values.ravel().tolist() == [2.0**54]
        net = Network(kind=GroupKind.Z2, layers=(Layer(LayerKind.DENSE, out_channels=1),),
                      input_size=2, weights=(w,))
        assert forward(net, fm)[-1].values.tobytes() == (w @ fm.values.reshape(-1)).tobytes()


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

    def test_only_layers_that_can_overflow_scan_their_outputs(self):
        # relu, max pool, coset pool and circle crop of finite maps are
        # finite; a conv, dense layer or global pool may overflow
        net = seed_network(build_network(P4CNN), 0)
        x = random_feature_map(0, 1, 1, 28, 28)
        real, scans = tensor._checked, []

        def checked(arr, ndim, what, scan=True):
            scans.append(scan)
            return real(arr, ndim, what, scan)

        with mock.patch.object(tensor, "_checked", checked):
            acts = forward(net, x)
        may_overflow = layers.CONV_KINDS | {LayerKind.DENSE, LayerKind.GLOBAL_AVG_POOL}
        assert len(scans) == len(acts) == len(net.layers)
        assert scans.count(True) == sum(lay.kind in may_overflow for lay in net.layers) == 9

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


def scaled(net, factor):
    """The seeded network with every weight multiplied by ``factor``."""
    return replace(net, weights=tuple(
        FilterBank(w.values * factor) if isinstance(w, FilterBank) else
        None if w is None else w * factor
        for w in net.weights))


@st.composite
def exact_group_networks(draw):
    """A generated p4 or p4m network at an input side from its lattice of
    exact sizes (at most 40), and a seed."""
    cfg = draw(valid_configs().filter(lambda c: c.kind is not GroupKind.Z2))
    lattice = exact_size_lattice(cfg)
    sizes = lattice.sizes(1, 40) if lattice else range(0)
    assume(len(sizes) > 0)
    return build_network(cfg, draw(st.sampled_from(sizes))), draw(st.integers(0, 10_000))


class TestWholeNetworkEquivariance:
    @settings(max_examples=60, deadline=None)
    @given(exact_group_networks())
    def test_rule_exact_networks_commute_byte_for_byte(self, case):
        net, seed = case
        for integer in (False, True):
            x = random_feature_map([seed, 1], 1, 1, net.input_size, net.input_size, integer)
            assert_forward_equivariant_bytes(seed_network(net, seed, integer), x)
        # integers scaled past the Hoelder bound at the first conv already
        x = random_feature_map([seed, 1], 1, 1, net.input_size, net.input_size, True)
        big = scaled(seed_network(net, seed, True), 2.0**20)
        assert_forward_equivariant_bytes(big, FeatureMap(x.values * 2.0**40))

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

    def test_condition_violation_past_two_to_53_breaks_some_seed(self):
        # the lift's Hoelder bound is past 2**53, so it sums in base
        # coordinates, which keep the broken layer's error
        positives = 0
        for seed in range(10):
            net = scaled(seed_network(toy_net(32), seed, integer_valued=True), 2.0**20)
            x = random_feature_map([seed, 1], 1, 1, 32, 32, integer_valued=True)
            x = FeatureMap(x.values * 2.0**40)
            pre_pool = forward(net, x)[0]
            assert np.abs(pre_pool.values).max() >= 2.0**53
            moved = forward(net, act_spatial(ROT90, x))[0]
            positives += max_abs_diff(moved, act_full(ROT90, pre_pool, GroupKind.P4)) > 0
        assert positives >= 1




@contextlib.contextmanager
def counted_reuses():
    """A list that gets one entry, the conv's input, for every conv of a
    moved forward whose activation is None: the moved base map it took
    instead of computing its slots.  Counted on the output of ``forward``,
    wherever it is called."""
    reused = []
    real = layers.forward

    def counting(net, fm, **kwargs):
        acts = real(net, fm, **kwargs)
        reused.extend(acts[d - 1] if d else fm for d, (layer, act) in
                      enumerate(zip(net.layers, acts))
                      if layer.kind in layers.CONV_KINDS and act is None)
        return acts

    with mock.patch.object(layers, "forward", counting), \
            mock.patch.object(metrics, "forward", counting), \
            mock.patch.object(sys.modules[__name__], "forward", counting):
        yield reused


@st.composite
def reuse_stacks(draw):
    """A p4 or p4m stack: a lift, then gconv, maxpool and relu layers with
    k <= 3, s <= 2 and p <= 1 (pools unpadded), at a side of 6 to 15,
    exact or not; and a seed."""
    kind = draw(st.sampled_from([GroupKind.P4, GroupKind.P4M]))

    def kernel_layer(lk):
        conv = lk is not LayerKind.MAXPOOL
        return Layer(lk, k=draw(st.integers(1, 3)), s=draw(st.integers(1, 2)),
                     p=draw(st.integers(0, 1)) if conv else 0,
                     out_channels=draw(st.integers(1, 3)) if conv else None)

    stack = [kernel_layer(LayerKind.GCONV_LIFT)]
    for _ in range(draw(st.integers(0, 4))):
        lk = draw(st.sampled_from([LayerKind.GCONV, LayerKind.MAXPOOL, LayerKind.RELU]))
        stack.append(Layer(lk) if lk is LayerKind.RELU else kernel_layer(lk))
    net = Network(kind, tuple(stack), draw(st.integers(6, 15)), draw(st.integers(1, 2)))
    try:
        infer_shapes(net)
    except LayerError:
        assume(False)
    return net, draw(st.integers(0, 10_000))


def one_conv_network(fn, kind, w, side):
    """A network of the one conv ``fn`` (k 3, stride 1, unpadded) with bank ``w``."""
    lk = {conv2d: LayerKind.CONV2D, gconv_lift: LayerKind.GCONV_LIFT}[fn]
    return Network(kind, (Layer(lk, k=3, out_channels=w.values.shape[0]),), side, weights=(w,))


class TestSlotReuse:
    """A conv of a forward that names its move ``Move(g, x, base)`` takes
    its moved base map, and reads None, only when its cut padded input is g
    times the base call's, byte for byte, so the forward gives the bytes of
    the plain forward, which computes every product."""

    @staticmethod
    def seeded_input(net, seed, integer):
        """The seeded network and input; integer mode is scaled past the
        Hoelder bound, so its convs sum in base coordinates too."""
        seeded = seed_network(net, seed, integer)
        x = random_feature_map([seed, 1], net.in_channels, 1, net.input_size,
                               net.input_size, integer)
        if integer:
            return scaled(seeded, 2.0**20), FeatureMap(x.values * 2.0**40)
        return seeded, x

    @settings(max_examples=80, deadline=None)
    @given(reuse_stacks())
    def test_moved_forwards_match_plain_forwards(self, case):
        net, seed = case
        for integer in (False, True):
            seeded, x = self.seeded_input(net, seed, integer)
            with counted_reuses() as reused:
                base = forward(seeded, x)
                for g in elements(net.kind):
                    moved = moved_forward(seeded, g, x, base)
                    computed = forward(seeded, act_spatial(g, x))
                    assert_plain_bytes(moved, computed, base, g, net.kind)
            # the identity's lift at least reads the base lift's bytes; an
            # integer lift whose weights drew all zeros stays within the bound
            assert reused or layers._exact_in_any_order(x.values, seeded.weights[0])

    @settings(max_examples=60, deadline=None)
    @given(reuse_stacks(), st.booleans())
    def test_no_reuse_is_lost(self, case, symmetric):
        """Brute force: a call is reused exactly when each of its slots q
        stages the bytes slot g^-1 q of the base call staged, for the g its
        forward named.  A symmetric input, the largest of its eight moves,
        makes many slots agree."""
        net, seed = case
        real = layers._moves_base_call
        looked_up = []

        def brute_force(fm, x0, layer, kind, g):
            got = real(fm, x0, layer, kind, g)
            k, s, vals, base = layer.k, layer.s, _pad(fm.values, layer.p), _pad(x0.values, layer.p)
            m = s * ((vals.shape[-1] - k) // s) + k

            def operands(padded):
                cut = padded[..., :m, :m]
                return {q: np.ascontiguousarray(act_values(inverse(q), cut, kind)).tobytes()
                        for q in elements(kind)}

            new, old = operands(vals), operands(base)
            assert got == (g in elements(kind) and all(
                new[q] == old[compose(inverse(g), q)] for q in elements(kind)))
            looked_up.append(got)
            return got

        for integer in (False, True):
            seeded, x = self.seeded_input(net, seed, integer)
            if symmetric:
                x = FeatureMap(np.max([act_spatial(g, x).values for g in P4M], axis=0))
            looked_up.clear()
            with mock.patch.object(layers, "_moves_base_call", brute_force):
                base = forward(seeded, x)
                for g in elements(net.kind):
                    moved = moved_forward(seeded, g, x, base)
                    computed = forward(seeded, act_spatial(g, x))
                    assert_plain_bytes(moved, computed, base, g, net.kind)
            assert looked_up or layers._exact_in_any_order(x.values, seeded.weights[0])

    @settings(max_examples=60, deadline=None)
    @given(reuse_stacks())
    def test_convs_taken_without_a_byte_check_pass_it(self, case):
        """A conv takes its moved map without comparing bytes only where
        the comparison, run on its input moved by ``act_full``, passes, and
        every moved forward gives the plain one's bytes at every depth."""
        net, seed = case
        real = layers._moves_base_call
        for integer in (False, True):
            seeded, x = self.seeded_input(net, seed, integer)
            base = forward(seeded, x)
            for g in elements(net.kind):
                compared = []

                def recording(fm, x0, *args):
                    compared.append(x0)
                    return real(fm, x0, *args)

                with mock.patch.object(layers, "_moves_base_call", recording):
                    moved = moved_forward(seeded, g, x, base)
                computed = forward(seeded, act_spatial(g, x))
                assert len(base) == len(computed)
                assert_plain_bytes(moved, computed, base, g, net.kind)
                for d, (layer, a) in enumerate(zip(seeded.layers, moved)):
                    x0 = base[d - 1] if d else x
                    if layer.kind in layers.CONV_KINDS and a is None and \
                            not any(c is x0 for c in compared):
                        fm = act_full(g, x0, net.kind)
                        assert real(fm, x0, layer, net.kind, g), (g.name, d)

    @pytest.mark.parametrize("side, compared", [(28, [0, 5]), (29, [0, 5, 7, 9, 11, 13])])
    def test_rule_proves_the_convs_after_a_take(self, side, compared):
        # a conv after a layer that took its moved map, at a side that keeps
        # the rule, takes its own without comparing bytes.  p4cnn compares
        # the lift's input and the one after the max pool, which is
        # computed; at 29 the max pool breaks the rule, so no later conv
        # takes and each compares its input
        net = seed_network(build_network(P4CNN, side), 2)
        x = random_feature_map([2, 1], 1, 1, side, side)
        base = forward(net, x)
        depths = []
        real = layers._moves_base_call

        def recording(fm, x0, *args):
            depths.append(0 if x0 is x else next(d + 1 for d, a in enumerate(base) if a is x0))
            return real(fm, x0, *args)

        for g in P4[1:]:
            depths.clear()
            with mock.patch.object(layers, "_moves_base_call", recording):
                moved_forward(net, g, x, base)
            assert depths == compared, g.name

    @pytest.mark.parametrize("argv, reused", [
        (["measure", "p4cnn"], 21),
        (["measure", "p4cnn", "--input-size", "29"], 6),
        (["measure", P4MCNN_PATH], 49),
        (["sweep", "p4cnn", "--angle-step", "90"], 21),
        (["sweep", "p4cnn", "--angle-step", "90", "--input-size", "29"], 6),
        (["measure", "p4cnn", "--integer-weights"], 21),
        (["measure", "p4cnn", "--input-size", "29", "--integer-weights"], 6),
        (["measure", P4MCNN_PATH, "--integer-weights"], 49),
        (["sweep", "p4cnn", "--angle-step", "90", "--integer-weights"], 21),
    ], ids=["measure-28", "measure-29", "measure-p4mcnn", "sweep-28", "sweep-29",
            "measure-28-integer", "measure-29-integer", "measure-p4mcnn-integer",
            "sweep-28-integer"])
    def test_builtin_reuse_counts(self, capsys, argv, reused):
        # at 28 every conv of every moved forward, 7 convs times 3 elements
        # on p4cnn and 7 times 7 on p4mcnn; at 29 only the lift and the gconv
        # before the broken pool.  Integer convs within the Hoelder bound,
        # which take the BLAS route, are reused alike.  Each command runs
        # one forward per group element, and a reused conv never enters a
        # conv function
        entered = []

        def entering(fn):
            def conv(fm, *args, **kwargs):
                entered.append(fm)
                return fn(fm, *args, **kwargs)
            return conv

        with counted_reuses() as calls, mock.patch.multiple(
                layers, **{fn.__name__: entering(fn) for fn in (conv2d, gconv_lift, gconv)}):
            run_cli(capsys, *argv, "--seed", "0")
        assert len(calls) == reused
        assert len(entered) == 7 * (8 if P4MCNN_PATH in argv else 4) - reused
        assert not {id(fm) for fm in calls} & {id(fm) for fm in entered}

    @pytest.mark.parametrize("argv, moves", [
        (["sweep", "p4cnn", "--angle-step", "90"], 6),
        (["sweep", "p4cnn", "--angle-step", "90", "--input-size", "29"], 3),
        (["measure", "p4cnn"], 9),
    ], ids=["sweep-28", "sweep-29", "measure-28"])
    def test_maps_are_moved_on_first_use(self, capsys, argv, moves):
        # only a layer that is computed, or a conv whose input is compared
        # byte for byte, moves the map the layer before took, and measure
        # moves each depth it compares.  A right-angle row of p4cnn at 28
        # moves two, the relu's before the max pool and the global pool's
        # before the coset pool; at 29 one, the relu's before the broken
        # pool, after which no layer takes.  measure also compares the max
        # pool's output with its moved map, so it moves three per element
        with mock.patch.object(layers, "act_full", wraps=act_full) as moved, \
                mock.patch.object(metrics, "act_full", moved):
            run_cli(capsys, *argv, "--seed", "0")
        assert moved.call_count == moves

    @pytest.mark.parametrize("integer", [False, True], ids=["float", "integer"])
    def test_moved_forward_returns_the_moved_maps(self, integer):
        # at 28 every conv, relu and global pool of a moved p4cnn forward
        # takes its moved base map and reads None; the pools are computed
        net = seed_network(build_network(P4CNN), 2, integer)
        x = random_feature_map([2, 1], 1, 1, 28, 28, integer)
        base = forward(net, x)
        shared = {LayerKind.GCONV_LIFT, LayerKind.GCONV, LayerKind.RELU,
                  LayerKind.GLOBAL_AVG_POOL}
        for g in P4[1:]:
            moved = moved_forward(net, g, x, base)
            assert_plain_bytes(moved, forward(net, act_spatial(g, x)), base, g, net.kind)
            for d, layer in enumerate(net.layers):
                assert (moved[d] is None) == (layer.kind in shared), (g.name, d)

    @pytest.mark.parametrize("fill", [0.0, -1.5], ids=["zero", "constant"])
    def test_constant_inputs(self, fill):
        # every map of the base forward is constant, so each moved input is
        # the base input moved, and every conv of every element is reused
        net = seed_network(replace(build_network(P4CNN), kind=GroupKind.P4M), 5)
        x = FeatureMap(np.full((1, 1, 28, 28), fill))
        with counted_reuses() as reused:
            base = forward(net, x)
            for g in P4M:
                moved = moved_forward(net, g, x, base)
                assert_plain_bytes(moved, forward(net, act_spatial(g, x)), base, g, net.kind)
        convs = sum(isinstance(w, FilterBank) for w in net.weights)
        assert len(reused) == len(P4M) * convs

    @pytest.mark.parametrize("spike", [5.0, -0.0])
    def test_other_bytes_are_computed(self, spike):
        # the spiked input is r * zeros but for entry 1, which holds 5.0 or
        # -0.0.  -0.0 equals 0.0 but is other bytes, so it is not reused
        # either.  The weights are not integers, so the lift sums in base
        # coordinates.
        w = FilterBank(np.full((2, 1, 1, 3, 3), -0.5))
        net = one_conv_network(gconv_lift, GroupKind.P4, w, 20)
        zeros = FeatureMap(np.zeros((1, 1, 20, 20)))
        spiked = np.zeros((1, 1, 20, 20))
        spiked[0, 0, 0, 1] = spike
        base = forward(net, zeros)
        move = Move(ROT90, zeros, base)
        with counted_reuses() as reused:
            got = forward(net, FeatureMap(spiked), moved=move)[0]
        assert reused == []
        computed = forward(net, FeatureMap(spiked))[0]
        assert got.values.tobytes() == computed.values.tobytes()
        assert (got.values.tobytes() != base[0].values.tobytes()) == (spike != 0.0)
        with counted_reuses() as reused:
            again = forward(net, zeros, moved=move)[0]
        assert len(reused) == 1
        assert again is None  # taken, not moved

    @pytest.mark.parametrize("fn, kind, g", [(conv2d, GroupKind.Z2, ROT90),
                                             (gconv_lift, GroupKind.P4, MIRROR)],
                             ids=["z2-r", "p4-m"])
    def test_element_outside_the_group_is_computed(self, fn, kind, g):
        # the whole input is read, so the moved input is g times the base
        # one; but g is not in the network's group, so no slot of the moved
        # call reads a base slot's bytes, and forward computes it
        net = one_conv_network(fn, kind, random_filter_bank(3, 2, 1, 1, 3), 8)
        x = random_feature_map(4, 1, 1, 8, 8)
        base = forward(net, x)
        with counted_reuses() as reused:
            got = moved_forward(net, g, x, base)[0]
        assert reused == []
        computed = forward(net, act_spatial(g, x))[0]
        assert got.values.tobytes() == computed.values.tobytes()

    @pytest.mark.parametrize("net", SEEDED_NETS)
    def test_memo_holds_only_stacked_banks_and_the_bound(self, net):
        # plain and moved forwards in both modes leave no activation in any
        # bank's memo
        for integer in (False, True):
            seeded = seed_network(net, 6, integer)
            x = random_feature_map([6, 1], 1, 1, 28, 28, integer)
            base = forward(seeded, x)
            moved_forward(seeded, ROT90, x, base)
            for w in seeded.weights:
                if isinstance(w, FilterBank):
                    assert set(w._memo) - stacked_kinds(w) == {layers._INTEGER_L1}

    def test_forward_without_moved_runs_every_product(self):
        # the same input again, and every moved input without its move
        # named: each conv computes its slots
        net = seed_network(replace(build_network(P4CNN), kind=GroupKind.P4M), 6)
        x = random_feature_map([6, 1], 1, 1, 28, 28)
        with mock.patch.object(layers, "_base_correlate", wraps=_base_correlate) as correlate:
            forward(net, x)
            forward(net, x)
            for g in P4M:
                forward(net, act_spatial(g, x))
        convs = sum(isinstance(w, FilterBank) for w in net.weights)
        assert correlate.call_count == convs * (2 + len(P4M))
