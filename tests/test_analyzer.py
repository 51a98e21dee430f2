"""Static size tracing, the subsampling exactness condition, and the
closed-form lattice of exact input sizes, pinned against the built-in
architectures and against a per-size walk on generated ones."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_config_cli import conv2d_stem, valid_configs

from equicheck.analyzer import (
    SizeLattice,
    analyze,
    check_layer,
    exact_size_lattice,
    output_size,
    suggest_input_sizes,
)
from equicheck.builtins import BUILTINS, P4CNN
from equicheck.errors import ShapeError
from equicheck.group import GroupKind
from equicheck.layers import Layer, LayerKind, Network, walk_shapes
from equicheck.metrics import rotation_commutation

MAXPOOL_ONLY = Network(GroupKind.Z2, (Layer(LayerKind.MAXPOOL, k=2, s=2),), 5, name="maxpool")

STRIDE1_STACK = Network(GroupKind.P4, (
    Layer(LayerKind.GCONV_LIFT, k=3, s=1, p=0, out_channels=1),
    Layer(LayerKind.RELU),
    Layer(LayerKind.GCONV, k=3, s=1, p=1, out_channels=1),
), 9, name="stride1")


def per_size_reference(net, lo, hi):
    """Exact sizes in [lo, hi] found by walking every size: the search the
    lattice replaced, kept as its reference."""
    return [i for i in range(lo, hi + 1)
            if all(step.condition_ok for step in walk_shapes(net.kind, net.layers, i))]


def lattice_sizes(config, lo, hi):
    lattice = exact_size_lattice(config)
    return list(lattice.sizes(lo, hi)) if lattice else []


@st.composite
def headed_stacks(draw):
    """Planar stacks with global pools and dense layers anywhere, so that
    strided layers also follow a head that has fixed the side at 1."""
    layers = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from([LayerKind.CONV2D, LayerKind.MAXPOOL, LayerKind.RELU,
                                     LayerKind.GLOBAL_AVG_POOL, LayerKind.DENSE]))
        if kind is LayerKind.CONV2D:
            layers.append(Layer(kind, k=draw(st.integers(1, 4)), s=draw(st.integers(1, 4)),
                                p=draw(st.integers(0, 3)), out_channels=1))
        elif kind is LayerKind.MAXPOOL:
            layers.append(Layer(kind, k=draw(st.integers(1, 4)), s=draw(st.integers(1, 4))))
        elif kind is LayerKind.DENSE:
            layers.append(Layer(kind, out_channels=1))
        else:
            layers.append(Layer(kind))
    return Network(GroupKind.Z2, tuple(layers), 1, name="headed")


class TestOutputSize:
    @pytest.mark.parametrize(
        "i,k,s,p,o",
        [(5, 2, 2, 0, 2), (28, 3, 1, 0, 26), (33, 3, 2, 1, 17)],
    )
    def test_values(self, i, k, s, p, o):
        assert output_size(i, k, s, p) == o

    def test_kernel_exceeds_padded_input(self):
        # and a stride below 1; check_layer raises the same error on the same inputs
        for args, message in (((3, 4, 1, 0), "kernel 4 exceeds padded input 3"),
                              ((5, 3, 0, 1), "stride must be >= 1, got 0")):
            for fn in (output_size, check_layer):
                with pytest.raises(ShapeError, match=message):
                    fn(*args)


class TestCheckLayer:
    def test_exact_at_33(self):
        assert check_layer(33, 3, 2, 1) is True

    def test_inexact_at_32(self):
        assert check_layer(32, 3, 2, 1) is False

    def test_inexact_five_wide_pool(self):
        assert check_layer(5, 2, 2, 0) is False

    def test_padding_enters_the_condition(self):
        # (6 + 2*1 - 3) mod 2 = 1 but (6 - 3) mod 3 = 0 without padding
        assert check_layer(6, 3, 3, 0) is True
        assert check_layer(6, 3, 2, 1) is False

    def test_agrees_with_brute_force_oracle(self):
        for i in range(2, 25):
            for k in range(1, min(5, i) + 1):
                for s in range(1, 5):
                    assert check_layer(i, k, s, 0) == (rotation_commutation(i, k, s) is None)


class TestAnalyze:
    def test_p4cnn_exact_at_28(self):
        report = analyze(P4CNN, 28)
        assert report.exact is True
        assert report.violations == ()
        assert report.truncated_at is None
        # conv sizes 28 -> 26 -> 24 -> pool 12 -> 10 -> 8 -> 6 -> 4 -> 1
        conv_outs = [t.output_size for t in report.trace if t.kind in ("gconv_lift", "gconv", "maxpool")]
        assert conv_outs == [26, 24, 12, 10, 8, 6, 4, 1]

    def test_p4cnn_approx_at_27_blames_the_pool(self):
        report = analyze(P4CNN, 27)
        assert report.exact is False
        pool_idx = next(t.index for t in report.trace if t.kind == "maxpool")
        assert pool_idx in report.violations
        # the first conv pair shrinks 27 -> 25 -> 23 and (23 - 2) mod 2 = 1
        pool_trace = report.trace[pool_idx]
        assert (pool_trace.input_size, pool_trace.condition_ok) == (23, False)
        # final 4x4 conv no longer fits; recorded, not raised
        assert report.truncated_at is not None
        assert set(report.violations) == {pool_idx, report.truncated_at}

    def test_p4cnn_approx_at_29(self):
        report = analyze(P4CNN, 29)
        assert report.exact is False
        assert report.truncated_at is None
        assert [report.trace[i].kind for i in report.violations] == ["maxpool"]

    def test_trace_chains_sizes(self):
        report = analyze(P4CNN, 28)
        for prev, nxt in zip(report.trace, report.trace[1:]):
            assert nxt.input_size == prev.output_size

    def test_non_spatial_layers_always_ok(self):
        report = analyze(STRIDE1_STACK, 9)
        assert report.trace[1].condition_ok is True
        assert report.trace[1].note != ""

    def test_stride_one_layers_never_violate(self):
        for size in range(7, 40):
            report = analyze(STRIDE1_STACK, size)
            assert report.exact is True

    def test_rejects_nonpositive_input(self):
        with pytest.raises(ShapeError):
            analyze(MAXPOOL_ONLY, 0)

    def test_suggestions_in_default_window(self):
        report = analyze(P4CNN, 27)
        assert report.suggested_sizes == (28, 30)


class TestSuggestInputSizes:
    def test_p4cnn_window(self):
        sizes = suggest_input_sizes(P4CNN, 26, 30)
        assert 28 in sizes
        assert 27 not in sizes and 29 not in sizes
        assert sizes == [28, 30]

    def test_single_maxpool_even_sizes(self):
        assert suggest_input_sizes(MAXPOOL_ONLY, 2, 9) == [2, 4, 6, 8]

    def test_stride_one_net_accepts_every_feasible_size(self):
        sizes = suggest_input_sizes(STRIDE1_STACK, 7, 20)
        assert sizes == list(range(7, 21))

    def test_empty_result_is_valid(self):
        assert suggest_input_sizes(MAXPOOL_ONLY, 3, 3) == []

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            suggest_input_sizes(MAXPOOL_ONLY, 5, 4)


CONV2D_AFTER_COSET = Network(GroupKind.P4, (
    Layer(LayerKind.GCONV_LIFT, k=3, out_channels=2),
    Layer(LayerKind.COSET_MAXPOOL),
    Layer(LayerKind.CONV2D, k=3, out_channels=2),
    Layer(LayerKind.GLOBAL_AVG_POOL),
    Layer(LayerKind.DENSE, out_channels=2),
), 9, name="conv2d-after-coset")


class TestUntransformedConv2d:
    """A conv2d's filters are never transformed, so in a p4 or p4m network
    one with k > 1 is not equivariant at any size; a k1 conv2d mixes
    channels pointwise and is."""

    @pytest.mark.parametrize("net, layer", [
        (conv2d_stem(3), 0), (conv2d_stem(2, GroupKind.P4M), 0), (CONV2D_AFTER_COSET, 2),
    ], ids=["p4-k3-stem", "p4m-k2-stem", "k3-after-coset"])
    def test_flagged_at_every_size(self, net, layer):
        report = analyze(net, 9)
        assert not report.exact
        assert report.violations == (layer,)
        assert "filters never transformed" in report.trace[layer].note
        assert exact_size_lattice(net) is None
        assert suggest_input_sizes(net, 1, 40) == []
        assert per_size_reference(net, 1, 40) == []

    def test_stride_note_is_kept(self):
        net = Network(GroupKind.P4, (Layer(LayerKind.CONV2D, k=3, s=2, out_channels=1),), 8)
        assert analyze(net, 8).trace[0].note == (
            "(8 - 3) mod 2 = 1; filters never transformed, so a k3 conv2d breaks p4")

    def test_k1_stem_stays_exact(self):
        net = conv2d_stem(1)
        assert analyze(net, 9).exact
        assert exact_size_lattice(net) == SizeLattice(0, 1, 3)
        assert suggest_input_sizes(net, 1, 20) == list(range(3, 21))


class TestExactSizeLattice:
    @pytest.mark.parametrize("name,lattice", [
        ("p4cnn", SizeLattice(0, 2, 28)),
        ("z2cnn", SizeLattice(0, 2, 28)),
        ("toy41", SizeLattice(1, 2, 1)),
        ("fig1-maxpool", SizeLattice(0, 2, 2)),
    ])
    def test_builtin_lattices(self, name, lattice):
        assert exact_size_lattice(BUILTINS[name]) == lattice
        assert lattice_sizes(BUILTINS[name], 1, 1024) == per_size_reference(BUILTINS[name], 1, 1024)

    def test_p4cnn_sizes(self):
        assert suggest_input_sizes(P4CNN, 1, 36) == [28, 30, 32, 34, 36]

    def test_stride_after_global_pool_leaves_no_size(self):
        # the pool sees side 1 at every input size, and (1 - 2) mod 2 = 1
        cfg = Network(GroupKind.Z2, input_size=8, layers=(
            Layer(LayerKind.CONV2D, k=3, s=2, p=1, out_channels=1),
            Layer(LayerKind.GLOBAL_AVG_POOL),
            Layer(LayerKind.MAXPOOL, k=2, s=2),
        ))
        assert exact_size_lattice(cfg) is None
        assert per_size_reference(cfg, 1, 300) == []
        assert suggest_input_sizes(cfg, 1, 300) == []
        assert analyze(cfg, 8).suggested_sizes == ()

    def test_kernel_wider_than_a_head_leaves_no_size(self):
        # (1 + 2 - 3) mod 2 = 0 holds, but the 5x5 conv needs a side of 5
        cfg = Network(GroupKind.Z2, input_size=8, layers=(
            Layer(LayerKind.DENSE, out_channels=1),
            Layer(LayerKind.CONV2D, k=3, s=2, p=1, out_channels=1),
            Layer(LayerKind.CONV2D, k=5, s=1, out_channels=1),
        ))
        assert exact_size_lattice(cfg) is None
        assert per_size_reference(cfg, 1, 300) == []

    def test_strides_after_a_head_can_hold(self):
        # the lattice comes from the layers before the pool alone
        cfg = Network(GroupKind.Z2, input_size=8, layers=(
            Layer(LayerKind.MAXPOOL, k=3, s=3),
            Layer(LayerKind.GLOBAL_AVG_POOL),
            Layer(LayerKind.CONV2D, k=3, s=2, p=1, out_channels=1),
            Layer(LayerKind.CONV2D, k=1, s=4, p=2, out_channels=1),
        ))
        assert exact_size_lattice(cfg) == SizeLattice(0, 3, 3)
        assert lattice_sizes(cfg, 1, 300) == per_size_reference(cfg, 1, 300)

    def test_no_spatial_layer_admits_every_size(self):
        cfg = Network(GroupKind.Z2, (Layer(LayerKind.RELU),
                                     Layer(LayerKind.DENSE, out_channels=2)), 4)
        assert exact_size_lattice(cfg) == SizeLattice(0, 1, 1)
        assert suggest_input_sizes(cfg, 1, 9) == list(range(1, 10))

    def test_minimum_is_where_kernels_fit(self):
        # size 1 satisfies (1 - 3) mod 2 = 0, but the 3x3 pool outruns it
        cfg = Network(GroupKind.Z2, (Layer(LayerKind.MAXPOOL, k=3, s=2),), 5)
        assert exact_size_lattice(cfg) == SizeLattice(1, 2, 3)
        assert suggest_input_sizes(cfg, 1, 8) == [3, 5, 7]
        assert exact_size_lattice(STRIDE1_STACK) == SizeLattice(0, 1, 3)

    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_matches_per_size_walk(self, cfg):
        assert lattice_sizes(cfg, 1, 300) == per_size_reference(cfg, 1, 300)

    @settings(max_examples=200, deadline=None)
    @given(headed_stacks())
    def test_matches_per_size_walk_with_heads_mid_stack(self, cfg):
        assert lattice_sizes(cfg, 1, 300) == per_size_reference(cfg, 1, 300)

    @settings(max_examples=50, deadline=None)
    @given(valid_configs(), st.integers(1, 300), st.integers(0, 300))
    def test_any_window(self, cfg, lo, width):
        assert suggest_input_sizes(cfg, lo, lo + width) == per_size_reference(cfg, lo, lo + width)
