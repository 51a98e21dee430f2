"""Static size tracing, the subsampling exactness condition, and input-size
search, pinned against the built-in architectures."""

import pytest

from equicheck.analyzer import (
    analyze,
    check_layer,
    output_size,
    suggest_input_sizes,
)
from equicheck.builtins import P4CNN
from equicheck.config import ArchitectureConfig
from equicheck.errors import ShapeError
from equicheck.layers import Layer, LayerKind
from equicheck.metrics import rotation_commutation

MAXPOOL_ONLY = ArchitectureConfig("maxpool", "z2", 5, (Layer(LayerKind.MAXPOOL, k=2, s=2),))

STRIDE1_STACK = ArchitectureConfig("stride1", "p4", 9, (
    Layer(LayerKind.GCONV_LIFT, k=3, s=1, p=0, out_channels=1),
    Layer(LayerKind.RELU),
    Layer(LayerKind.GCONV, k=3, s=1, p=1, out_channels=1),
))


class TestOutputSize:
    @pytest.mark.parametrize(
        "i,k,s,p,o",
        [(5, 2, 2, 0, 2), (28, 3, 1, 0, 26), (33, 3, 2, 1, 17)],
    )
    def test_values(self, i, k, s, p, o):
        assert output_size(i, k, s, p) == o

    def test_kernel_exceeds_padded_input(self):
        with pytest.raises(ShapeError):
            output_size(3, 4, 1, 0)


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
                    assert check_layer(i, k, s, 0) == rotation_commutation(i, k, s).holds


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
