"""Dense feature-map and filter containers.

Layout convention used everywhere in this package: a feature map is indexed
``(channel, group, row, col)`` with row 0 at the top and column 0 on the
left, and it is square: every constructor refuses an array whose row and
col axes differ, so no function that takes a map checks that again.  The
group axis has length 1 for plain planar maps, 4 for p4 maps and 8 for
p4m maps.  Values are float64; small-integer contents are stored
exactly, which is what makes the bit-exact equivariance assertions in the
test suite meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError, ShapeError

VALID_GROUP_SIZES = (1, 4, 8)

#: Largest magnitude below which every integer is exactly representable in
#: float64.  An integer conv whose Hoelder bound stays below it is summed by
#: BLAS in any order; one past it sums in the base filter's coordinates.
EXACT_INT_LIMIT = float(2**53)


def _checked(arr: np.ndarray, ndim: int, what: str, scan: bool = True) -> np.ndarray:
    """``arr`` itself, made read-only, once its shape and, when ``scan`` is
    set, its values pass."""
    if arr.ndim != ndim:
        raise DimensionError(f"{what} needs {ndim} axes, got {arr.ndim}")
    if any(d < 1 for d in arr.shape):
        raise DimensionError(f"{what} has a zero or negative dimension: {arr.shape}")
    if scan and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} contains non-finite values")
    arr.flags.writeable = False
    return arr


class FeatureMap:
    """Immutable square activation tensor with axes (channel, group, row,
    col); the row and col axes have the same length, ``height``."""

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = _map_values(np.array(values, dtype=np.float64, order="C"))

    @classmethod
    def _from_layer(cls, values: np.ndarray) -> "FeatureMap":
        """Trusted constructor for an array a layer has just built and hands
        over: the same checks as the public constructor, but the array is
        copied only if it is not C-contiguous float64, and is otherwise made
        read-only in place.  Never pass it an array that someone else can
        still write to, or a view of one."""
        fm = cls.__new__(cls)
        fm._values = _map_values(np.asarray(values, dtype=np.float64, order="C"))
        return fm

    @classmethod
    def _moved(cls, values: np.ndarray) -> "FeatureMap":
        """Trusted constructor for the entries of a map, moved by a group
        element: as ``_from_layer``, but the values are not scanned, since
        they are the entries of a map that has passed the scan already."""
        fm = cls.__new__(cls)
        fm._values = _map_values(np.ascontiguousarray(values), scan=False)
        return fm

    @property
    def values(self) -> np.ndarray:
        """Read-only float64 array of shape (channels, group, n, n)."""
        return self._values

    @property
    def channels(self) -> int:
        return self._values.shape[0]

    @property
    def group_size(self) -> int:
        return self._values.shape[1]

    @property
    def height(self) -> int:
        return self._values.shape[2]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self._values.shape

    def __repr__(self) -> str:
        c, g, n, _ = self.shape
        return f"FeatureMap(channels={c}, group={g}, size={n}x{n})"


def _map_values(arr: np.ndarray, scan: bool = True) -> np.ndarray:
    arr = _checked(arr, 4, "feature map", scan)
    if arr.shape[1] not in VALID_GROUP_SIZES:
        raise DimensionError(
            f"group axis must have length in {VALID_GROUP_SIZES}, got {arr.shape[1]}"
        )
    if arr.shape[2] != arr.shape[3]:
        raise DimensionError(f"feature map must be square, got {arr.shape[2]}x{arr.shape[3]}")
    return arr


class FilterBank:
    """Immutable convolution weights with axes (out, in, in_group, row, col).

    The kernel is square; ``in_group_size`` must match the group axis of the
    feature map the bank is applied to.  ``_memo`` is private to the layers
    module and lives and dies with the bank.  The layers module keeps there
    only what depends on the bank alone: per group kind, the read-only bank
    stacked under every element of the group, built the first time a BLAS
    contraction needs it, and the bank's half of the Hoelder bound, its
    largest L1 norm if it is integer-valued, computed on first use.
    """

    __slots__ = ("_values", "_memo")

    def __init__(self, values):
        arr = _checked(np.array(values, dtype=np.float64, order="C"), 5, "filter bank")
        if arr.shape[2] not in VALID_GROUP_SIZES:
            raise DimensionError(
                f"filter group axis must have length in {VALID_GROUP_SIZES}, got {arr.shape[2]}"
            )
        if arr.shape[3] != arr.shape[4]:
            raise DimensionError(f"kernel must be square, got {arr.shape[3]}x{arr.shape[4]}")
        self._values = arr
        self._memo = {}

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def out_channels(self) -> int:
        return self._values.shape[0]

    @property
    def in_channels(self) -> int:
        return self._values.shape[1]

    @property
    def in_group_size(self) -> int:
        return self._values.shape[2]

    @property
    def k(self) -> int:
        return self._values.shape[3]

    def __repr__(self) -> str:
        o, i, g, k, _ = self._values.shape
        return f"FilterBank(out={o}, in={i}, in_group={g}, k={k})"


def random_values(rng: np.random.Generator, shape, integer_valued: bool = False) -> np.ndarray:
    """One draw from ``rng``: integers in [-4, 4] stored exactly as float64,
    or floats uniform in [-1, 1)."""
    if integer_valued:
        return rng.integers(-4, 5, size=shape).astype(np.float64)
    return rng.uniform(-1.0, 1.0, size=shape)


def random_feature_map(
    seed,
    channels: int,
    group_size: int,
    height: int,
    width: int,
    integer_valued: bool = False,
) -> FeatureMap:
    """Seeded random feature map, reproducible bit-exactly for a fixed seed.

    With ``integer_valued`` every entry is an integer in [-4, 4] stored
    exactly, so sums of products stay exact in float64 at desk scale.
    Otherwise entries are uniform in [-1, 1).
    """
    shape = (channels, group_size, height, width)
    return FeatureMap(random_values(np.random.default_rng(seed), shape, integer_valued))


def max_abs_diff(a: FeatureMap, b: FeatureMap) -> float:
    """Largest absolute entrywise difference; 0.0 iff the maps are identical."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a.values - b.values)))
