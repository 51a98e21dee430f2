"""Group algebra, index maps, patch maps and feature-map actions.

The index-map tests double as the oracle layer for everything above them:
the array-level actions are checked against per-index application of the
same maps, so the two routes stay independent.
"""

from unittest import mock

import numpy as np
import pytest

from equicheck.errors import DimensionError, GroupKindError, PatchError, ShapeError
from equicheck.group import (
    IDENTITY,
    MIRROR,
    ROT90,
    GroupElement,
    GroupKind,
    act_full,
    act_spatial,
    act_values,
    check_corner_order,
    compose,
    elements,
    group_permutation,
    inverse,
    mirror_corners,
    mirror_index,
    rotate_corners,
    rotate_index,
    slot_index,
)
from equicheck.tensor import FeatureMap, max_abs_diff, random_feature_map

P4M = list(elements(GroupKind.P4M))


def all_patches(n):
    """Every patch of an n-sized grid, as its corners (x1, y1, x2, y2)."""
    for x1 in range(n):
        for y1 in range(n):
            for x2 in range(x1, n):
                for y2 in range(y1, n):
                    yield (x1, y1, x2, y2)


def cells(patch):
    """Every (col, row) pair a patch covers."""
    x1, y1, x2, y2 = patch
    return {(x, y) for y in range(y1, y2 + 1) for x in range(x1, x2 + 1)}


class TestIndexMaps:
    def test_rotate_corner(self):
        assert rotate_index(3, 0, 0) == (0, 2)

    def test_rotate_center_fixed_odd(self):
        assert rotate_index(5, 2, 2) == (2, 2)

    def test_rotate_four_times_identity(self):
        p = (1, 3)
        for _ in range(4):
            p = rotate_index(7, *p)
        assert p == (1, 3)

    def test_rotate_order_four_all_small_grids(self):
        for n in range(1, 65):
            for x in range(n):
                for y in range(n):
                    p = (x, y)
                    for _ in range(4):
                        p = rotate_index(n, *p)
                    assert p == (x, y)

    def test_mirror_example(self):
        assert mirror_index(4, 0, 1) == (3, 1)

    def test_mirror_center_column_fixed(self):
        assert mirror_index(5, 2, 3) == (2, 3)

    def test_mirror_involution_all_small_grids(self):
        for n in range(1, 65):
            for x in range(n):
                for y in range(n):
                    assert mirror_index(n, *mirror_index(n, x, y)) == (x, y)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            rotate_index(3, 3, 0)
        with pytest.raises(IndexError):
            mirror_index(3, 0, -1)


class TestPatchMaps:
    """The corner maps on whole patches."""

    def test_rotate_patch_example(self):
        assert rotate_corners(5, 0, 0, 1, 1) == (0, 3, 1, 4)

    def test_full_patch_invariant(self):
        full = (0, 0, 2, 2)
        assert rotate_corners(3, *full) == full
        assert mirror_corners(3, *full) == full

    def test_rotate_order_four_exhaustive(self):
        for n in range(1, 9):
            for patch in all_patches(n):
                p = patch
                for _ in range(4):
                    p = rotate_corners(n, *p)
                assert p == patch

    def test_mirror_patch_example(self):
        assert mirror_corners(5, 0, 0, 1, 1) == (3, 0, 4, 1)

    def test_mirror_involution_exhaustive(self):
        for n in range(1, 9):
            for patch in all_patches(n):
                assert mirror_corners(n, *mirror_corners(n, *patch)) == patch

    def test_patch_maps_match_pointwise_index_sets(self):
        # mapping the corners must equal mapping the patch's index set
        for n in range(1, 11):
            for patch in all_patches(n):
                for corner_map, index_map in ((rotate_corners, rotate_index),
                                              (mirror_corners, mirror_index)):
                    mapped_patch = corner_map(n, *patch)
                    mapped = {index_map(n, x, y) for (x, y) in cells(patch)}
                    check_corner_order(*mapped_patch)
                    assert cells(mapped_patch) == mapped

    def test_invalid_patch(self):
        with pytest.raises(PatchError) as err:
            check_corner_order(2, 0, 1, 1)
        assert str(err.value) == "corners out of order: (2, 0) vs (1, 1)"
        with pytest.raises(PatchError):
            rotate_corners(3, 0, 0, 3, 3)


class TestArrayMaps:
    """The index and corner maps applied to int arrays, element by element,
    against the scalar maps."""

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_corner_maps_match_patch_maps(self, n):
        # the array maps against the scalar maps, patch by patch
        patches = list(all_patches(n))
        columns = [np.array(c) for c in zip(*patches)]
        for corner_map in (rotate_corners, mirror_corners):
            mapped = np.stack(corner_map(n, *columns), axis=1)
            assert mapped.tolist() == [list(corner_map(n, *p)) for p in patches]

    @pytest.mark.parametrize("n", [1, 5])
    def test_index_maps_match_scalar_maps(self, n):
        y, x = np.divmod(np.arange(n * n), n)
        for index_map in (rotate_index, mirror_index):
            mapped = np.stack(index_map(n, x, y), axis=1)
            assert mapped.tolist() == [list(index_map(n, a, b)) for a, b in zip(x.tolist(), y.tolist())]

    def test_scalar_maps_return_python_ints(self):
        assert all(type(v) is int for v in rotate_index(5, 1, 2) + mirror_corners(5, 0, 1, 2, 3))

    def test_out_of_range_arrays_name_the_first_bad_entry(self):
        x, y = np.array([0, 3, 4]), np.array([0, 1, 0])
        with pytest.raises(IndexError, match=r"index \(3, 1\) out of range for side 3"):
            rotate_index(3, x, y)
        with pytest.raises(PatchError, match=r"patch corner \(4, 0\) out of range for side 4"):
            mirror_corners(4, x, y, x, y + 1)
        with pytest.raises(PatchError, match=r"patch corner \(0, 3\) out of range for side 3"):
            rotate_corners(3, np.array([0, 0]), np.array([0, 0]), np.array([1, 0]), np.array([1, 3]))


class TestAlgebra:
    def test_rotation_addition(self):
        assert compose(GroupElement(1), GroupElement(1)) == GroupElement(2)

    def test_mirror_involution(self):
        assert compose(MIRROR, MIRROR) == IDENTITY

    def test_cayley_table_is_a_group(self):
        table = {(a, b): compose(a, b) for a in P4M for b in P4M}
        assert set(table.values()) <= set(P4M)  # closure
        for a in P4M:
            assert compose(a, IDENTITY) == a and compose(IDENTITY, a) == a
            assert compose(a, inverse(a)) == IDENTITY
            assert compose(inverse(a), a) == IDENTITY
        for a in P4M:  # associativity, all 512 triples
            for b in P4M:
                for c in P4M:
                    assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_algebra_matches_index_maps(self):
        # the abstract product must act like composition of index maps, read
        # off a grid whose entries name their own index
        for n in (5, 6):
            grid = np.arange(n * n).reshape(n, n)
            for a in P4M:
                for b in P4M:
                    stepwise = act_values(a, act_values(b, grid))
                    assert np.array_equal(stepwise, act_values(compose(a, b), grid))

    def test_names_round_trip(self):
        for g in P4M:
            assert GroupElement.from_name(g.name) == g
        with pytest.raises(ValueError):
            GroupElement.from_name("q")


class TestActSpatial:
    def test_identity(self):
        fm = random_feature_map(0, 2, 4, 5, 5)
        assert max_abs_diff(act_spatial(IDENTITY, fm), fm) == 0.0

    def test_quarter_turn_2x2(self):
        fm = FeatureMap(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        expected = np.array([[[[2.0, 4.0], [1.0, 3.0]]]])
        assert np.array_equal(act_spatial(ROT90, fm).values, expected)

    def test_matches_index_map_oracle(self):
        # independently rebuild the action one index at a time
        fm = random_feature_map(1, 1, 1, 5, 5, integer_valued=True)
        for g in P4M:
            expected = np.empty((5, 5))
            for y in range(5):
                for x in range(5):
                    # mirror first, then quarter turns
                    gx, gy = mirror_index(5, x, y) if g.mirrored else (x, y)
                    for _ in range(g.rotations):
                        gx, gy = rotate_index(5, gx, gy)
                    expected[gy, gx] = fm.values[0, 0, y, x]
            assert np.array_equal(act_spatial(g, fm).values[0, 0], expected)

    def test_four_rotations_identity(self):
        fm = random_feature_map(2, 1, 4, 6, 6)
        out = fm
        for _ in range(4):
            out = act_spatial(ROT90, out)
        assert max_abs_diff(out, fm) == 0.0

    def test_value_multiset_preserved(self):
        fm = random_feature_map(9, 2, 4, 5, 5)
        for g in P4M:
            out = act_spatial(g, fm)
            assert np.array_equal(np.sort(out.values, axis=None), np.sort(fm.values, axis=None))

    def test_non_square_rejected(self):
        # a map is square by construction, so a non-square one never reaches the action
        with pytest.raises(DimensionError, match="square"):
            act_spatial(ROT90, random_feature_map(0, 1, 1, 2, 3))


def rot90_reference(g, vals):
    """The action as numpy's rot90 and flip spelled it, before ``act_values``
    took their slices itself."""
    return np.rot90(np.flip(vals, -1) if g.mirrored else vals, g.rotations, axes=(-2, -1))


def action_operands(rank, group, strided):
    """A (..., G, 5, 5) array of distinct floats, its leading axes of length
    2, C-contiguous or a strided, partly reversed view of a larger one."""
    lead = (2,) * (rank - 3)
    if not strided:
        return np.arange(np.prod(lead + (group, 5, 5)), dtype=np.float64).reshape(
            lead + (group, 5, 5)) - 40.5
    base = np.arange(np.prod(lead + (group, 11, 12)), dtype=np.float64).reshape(
        lead + (group, 11, 12))
    return base[..., ::-2, 1::2].swapaxes(-2, -1)[..., ::-1, :][..., :5, 1:]


class TestActValues:
    """Quarter turns and mirrors are strided views of the input with the
    bytes np.rot90 gave; only the group-axis permutation copies."""

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("rank", [3, 4, 5])
    @pytest.mark.parametrize("g", P4M, ids=str)
    def test_views_with_the_bytes_of_rot90(self, g, rank, strided):
        for group in (1, 8):
            vals = action_operands(rank, group, strided)
            got, want = act_values(g, vals), rot90_reference(g, vals)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert np.shares_memory(got, vals)
            if g == IDENTITY:
                assert got is vals and act_values(g, vals, GroupKind.P4M) is vals

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("rank", [3, 4, 5])
    @pytest.mark.parametrize("kind", [GroupKind.P4, GroupKind.P4M], ids=str)
    def test_group_axis_permutation(self, kind, rank, strided):
        vals = action_operands(rank, kind.size, strided)
        for g in elements(kind):
            moved = rot90_reference(g, vals)
            want = np.empty_like(moved)
            for h in elements(kind):
                want[..., slot_index(compose(g, h)), :, :] = moved[..., slot_index(h), :, :]
            got = act_values(g, vals, kind)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # a planar group axis has nothing to permute, so the move stays a view
            planar = vals[..., :1, :, :]
            assert np.shares_memory(act_values(g, planar, kind), planar)

    def test_memoized_algebra_matches_the_formulas(self):
        elems = [GroupElement(slot % 4, slot >= 4) for slot in range(8)]
        for kind in GroupKind:
            assert kind.size == {"z2": 1, "p4": 4, "p4m": 8}[kind.value]
            assert elements(kind) == tuple(elems[: kind.size]) == elements(kind)
        for a in elems:
            want = a if a.mirrored else GroupElement((-a.rotations) % 4)
            assert inverse(a) == want == inverse(a)
            for b in elems:
                sign = -1 if a.mirrored else 1
                want = GroupElement((a.rotations + sign * b.rotations) % 4,
                                    a.mirrored != b.mirrored)
                assert compose(a, b) == want == compose(a, b)


class TestGroupPermutation:
    def test_identity_permutation(self):
        assert np.array_equal(group_permutation(IDENTITY, GroupKind.P4), [0, 1, 2, 3])

    def test_quarter_turn_is_cyclic_shift(self):
        assert np.array_equal(group_permutation(ROT90, GroupKind.P4), [1, 2, 3, 0])

    def test_all_bijections_p4m(self):
        for g in P4M:
            perm = group_permutation(g, GroupKind.P4M)
            assert sorted(perm) == list(range(8))

    def test_trivial_group_rejected(self):
        with pytest.raises(GroupKindError):
            group_permutation(ROT90, GroupKind.Z2)

    def test_mirrored_element_not_in_p4(self):
        with pytest.raises(GroupKindError):
            group_permutation(MIRROR, GroupKind.P4)

    def test_memoized_permutation_is_read_only_and_errors_repeat(self):
        perm = group_permutation(ROT90, GroupKind.P4)
        assert group_permutation(ROT90, GroupKind.P4) is perm
        with pytest.raises(ValueError):
            perm[0] = 0
        for _ in range(2):
            with pytest.raises(GroupKindError):
                group_permutation(MIRROR, GroupKind.P4)

    def test_slot_order(self):
        assert [slot_index(g) for g in P4M] == list(range(8))


class TestActFull:
    def test_identity(self):
        fm = random_feature_map(4, 2, 8, 3, 3)
        assert max_abs_diff(act_full(IDENTITY, fm, GroupKind.P4M), fm) == 0.0

    def test_inverse_round_trip(self):
        fm = random_feature_map(11, 2, 8, 6, 6)
        for g in P4M:
            back = act_full(inverse(g), act_full(g, fm, GroupKind.P4M), GroupKind.P4M)
            assert max_abs_diff(back, fm) == 0.0

    def test_composition(self):
        fm = random_feature_map(13, 1, 8, 4, 4)
        for a in P4M:
            for b in P4M:
                lhs = act_full(a, act_full(b, fm, GroupKind.P4M), GroupKind.P4M)
                rhs = act_full(compose(a, b), fm, GroupKind.P4M)
                assert max_abs_diff(lhs, rhs) == 0.0

    def test_value_multiset_preserved(self):
        fm = random_feature_map(17, 3, 4, 5, 5)
        for g in elements(GroupKind.P4):
            out = act_full(g, fm, GroupKind.P4)
            assert np.array_equal(np.sort(out.values, axis=None), np.sort(fm.values, axis=None))

    def test_group_size_mismatch(self):
        with pytest.raises(ShapeError):
            act_full(ROT90, random_feature_map(0, 1, 4, 3, 3), GroupKind.P4M)

    def test_trivial_group_rejected(self):
        for g in (IDENTITY, ROT90):
            with pytest.raises(GroupKindError):
                act_full(g, random_feature_map(0, 1, 1, 3, 3), GroupKind.Z2)

    def test_mirrored_element_not_in_p4(self):
        with pytest.raises(GroupKindError):
            act_full(MIRROR, random_feature_map(0, 1, 4, 3, 3), GroupKind.P4)

    def test_non_square_rejected(self):
        # a map is square by construction, so a non-square one never reaches the action
        with pytest.raises(DimensionError, match="square"):
            act_full(ROT90, random_feature_map(0, 1, 4, 2, 3), GroupKind.P4)

    def test_moved_maps_are_not_scanned_again(self):
        # the entries of a checked map are finite wherever they move
        fm = random_feature_map(19, 2, 8, 5, 5)
        with mock.patch.object(np, "isfinite", side_effect=AssertionError("scanned")):
            moved = [act_full(g, fm, GroupKind.P4M) for g in P4M]
            moved += [act_spatial(g, fm) for g in P4M]
        for out in moved:
            assert out.values.flags.c_contiguous and not out.values.flags.writeable
