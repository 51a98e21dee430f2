"""Feature-map container: construction, seeded randomness, diff metric."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicheck.errors import DimensionError, ShapeError
from equicheck.tensor import (
    FeatureMap,
    FilterBank,
    max_abs_diff,
    random_feature_map,
    random_values,
)


class TestMakeFeatureMap:
    """Construction of feature maps, constant-filled ones among them."""

    def test_constant_fill(self):
        fm = FeatureMap(np.zeros((1, 1, 2, 2)))
        assert fm.shape == (1, 1, 2, 2)
        assert np.all(fm.values == 0.0)

    def test_size_and_fill(self):
        fm = FeatureMap(np.ones((1, 4, 3, 3)))
        assert fm.values.size == 36
        assert np.all(fm.values == 1.0)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            FeatureMap(np.zeros((1, 1, 0, 5)))

    @pytest.mark.parametrize("construct", [FeatureMap, FeatureMap._from_layer, FeatureMap._moved],
                             ids=["public", "from_layer", "moved"])
    def test_non_square_rejected(self, construct):
        # every map is square, so no function that takes one checks again
        for rows, cols in ((2, 3), (3, 2), (1, 5)):
            with pytest.raises(DimensionError, match="square"):
                construct(np.zeros((1, 4, rows, cols)))

    def test_bad_group_size_rejected(self):
        with pytest.raises(DimensionError):
            FeatureMap(np.zeros((1, 3, 2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(np.full((1, 1, 2, 2), np.nan))

    def test_values_read_only(self):
        fm = FeatureMap(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            fm.values[0, 0, 0, 0] = 1.0

    def test_public_constructor_copies_its_source(self):
        source = np.zeros((1, 1, 2, 2))
        fm = FeatureMap(source)
        source[0, 0, 0, 0] = 5.0
        assert fm.values[0, 0, 0, 0] == 0.0
        assert source.flags.writeable

    def test_trusted_constructor_keeps_the_checks(self):
        with pytest.raises(ValueError):
            FeatureMap._from_layer(np.full((1, 1, 2, 2), np.inf))
        with pytest.raises(DimensionError):
            FeatureMap._from_layer(np.zeros((1, 3, 2, 2)))
        with pytest.raises(DimensionError):
            FeatureMap._from_layer(np.zeros((1, 2, 2)))

    def test_moved_constructor_keeps_the_shape_checks_but_not_the_scan(self):
        with pytest.raises(DimensionError):
            FeatureMap._moved(np.zeros((1, 3, 2, 2)))
        with pytest.raises(DimensionError):
            FeatureMap._moved(np.zeros((1, 2, 2)))
        flipped = np.arange(16.0).reshape(1, 4, 2, 2)[..., ::-1]
        with mock.patch.object(np, "isfinite", side_effect=AssertionError("scanned")):
            fm = FeatureMap._moved(flipped)
        assert fm.values.flags.c_contiguous and not fm.values.flags.writeable
        assert np.array_equal(fm.values, flipped)

    def test_trusted_constructor_takes_a_contiguous_array_as_is(self):
        built = np.zeros((1, 4, 2, 2))
        fm = FeatureMap._from_layer(built)
        assert fm.values is built and not built.flags.writeable
        strided = np.zeros((4, 1, 2, 2)).transpose(1, 0, 2, 3)
        assert FeatureMap._from_layer(strided).values.flags.c_contiguous


class TestRandomFeatureMap:
    def test_same_seed_bitwise_identical(self):
        a = random_feature_map(7, 2, 4, 5, 5)
        b = random_feature_map(7, 2, 4, 5, 5)
        assert np.array_equal(a.values, b.values)

    def test_integer_mode_range(self):
        fm = random_feature_map(3, 1, 1, 16, 16, integer_valued=True)
        assert np.all(fm.values == np.rint(fm.values))
        assert fm.values.min() >= -4 and fm.values.max() <= 4

    def test_different_seeds_differ(self):
        a = random_feature_map(1, 1, 1, 8, 8)
        b = random_feature_map(2, 1, 1, 8, 8)
        assert np.any(a.values != b.values)

    def test_filter_bank_variant(self):
        # a seeded bank is the same draw in five axes
        w, again = (FilterBank(random_values(np.random.default_rng(5), (3, 2, 4, 3, 3), True))
                    for _ in range(2))
        assert w.values.shape == (3, 2, 4, 3, 3)
        assert np.all(np.abs(w.values) <= 4)
        assert np.array_equal(w.values, again.values)


class TestFilterBank:
    def test_non_square_kernel_rejected(self):
        with pytest.raises(DimensionError):
            FilterBank(np.zeros((1, 1, 1, 2, 3)))

    def test_properties(self):
        fb = FilterBank(np.zeros((3, 2, 4, 5, 5)))
        assert (fb.out_channels, fb.in_channels, fb.in_group_size, fb.k) == (3, 2, 4, 5)


class TestMaxAbsDiff:
    def test_identity_is_zero(self):
        m = random_feature_map(0, 1, 4, 3, 3)
        assert max_abs_diff(m, m) == 0.0

    def test_constant_difference(self):
        zeros = FeatureMap(np.zeros((1, 1, 2, 2)))
        ones = FeatureMap(np.ones((1, 1, 2, 2)))
        assert max_abs_diff(zeros, ones) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            max_abs_diff(FeatureMap(np.zeros((1, 1, 2, 2))), FeatureMap(np.zeros((1, 1, 3, 3))))

    @given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=30, derandomize=True)
    def test_metric_properties(self, s1, s2, s3):
        a = random_feature_map(s1, 1, 1, 4, 4)
        b = random_feature_map(s2, 1, 1, 4, 4)
        c = random_feature_map(s3, 1, 1, 4, 4)
        assert max_abs_diff(a, b) == max_abs_diff(b, a)
        assert (max_abs_diff(a, b) == 0.0) == np.array_equal(a.values, b.values)
        assert max_abs_diff(a, c) <= max_abs_diff(a, b) + max_abs_diff(b, c) + 1e-15
