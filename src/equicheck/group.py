"""The p4/p4m symmetry groups and their actions on square grids.

Coordinate convention: an index is written ``(x, y)`` = (column, row) with
row 0 at the top.  On an ``n``-sized grid the quarter-turn map is

    R_n(x, y) = (y, n-1-x)

which rotates content counterclockwise when row 0 is displayed on top, and
the horizontal mirror is

    M_n(x, y) = (n-1-x, y).

Each map is written once, on the two corners of an index patch
(``rotate_corners``, ``mirror_corners``); the index maps are the same
formula on one-cell patches.  The corner and index maps and their range
checks work elementwise on int arrays as well as on ints, the grid side
included, so the commutation oracle can check the output cells of many
(input, kernel, stride) triples at once, each on its own grids.  A failed check names the first
bad entry in row-major order.

The action on arrays is written once too, in ``act_values``: it moves the
entries of any array whose last three axes are (group, row, col), so the
feature-map actions ``act_spatial``/``act_full`` and the moves inside a
group convolution, of the bank it stacks (``layers._stacked``) and of the
input and output slots of its base-coordinate sum
(``layers._base_correlate``), are the same code on different leading axes.
Quarter turns and mirrors are basic slices and axis swaps, so they are
strided views of the array they move; only the permutation of a group
axis longer than 1 copies.  A FeatureMap is square by construction, so
the map actions check no side of their own.

A group element is stored in the normal form "mirror first, then
``rotations`` quarter turns".  The clockwise quarter turn is simply the
inverse of ``ROT90``.  The canonical order of group-axis slots is
``[e, r, r2, r3, m, mr, mr2, mr3]`` (``mr`` = mirror, then one quarter
turn), so an element's slot index is ``rotations + 4*mirrored``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import GroupKindError, PatchError, ShapeError
from .tensor import FeatureMap


class GroupKind(enum.Enum):
    """Symmetry group of a network: trivial, 4 rotations, or rotations+mirror."""

    Z2 = "z2"
    P4 = "p4"
    P4M = "p4m"

    @functools.cached_property
    def size(self) -> int:
        return {"z2": 1, "p4": 4, "p4m": 8}[self.value]

    @classmethod
    def from_label(cls, label: str) -> "GroupKind":
        for kind in cls:
            if kind.value == label:
                return kind
        raise GroupKindError(f"unknown group kind {label!r} (expected z2, p4 or p4m)")


_NAMES = ("e", "r", "r2", "r3", "m", "mr", "mr2", "mr3")


@dataclass(frozen=True)
class GroupElement:
    """Element of p4m: ``rotations`` counterclockwise quarter turns applied
    after an optional horizontal mirror."""

    rotations: int
    mirrored: bool = False

    def __post_init__(self):
        if self.rotations not in (0, 1, 2, 3):
            raise ValueError(f"rotations must be in 0..3, got {self.rotations}")

    @property
    def name(self) -> str:
        return _NAMES[self.rotations + 4 * self.mirrored]

    @classmethod
    def from_name(cls, name: str) -> "GroupElement":
        try:
            slot = _NAMES.index(name)
        except ValueError:
            raise GroupKindError(f"unknown group element {name!r} (expected one of {_NAMES})")
        return cls(slot % 4, slot >= 4)

    def __str__(self) -> str:
        return self.name


IDENTITY = GroupElement(0)
ROT90 = GroupElement(1)
MIRROR = GroupElement(0, True)


@functools.cache
def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product a*b, i.e. the map "apply b, then a"; memoized, like
    ``inverse`` and ``elements``, since elements are frozen."""
    sign = -1 if a.mirrored else 1
    return GroupElement((a.rotations + sign * b.rotations) % 4, a.mirrored ^ b.mirrored)


@functools.cache
def inverse(a: GroupElement) -> GroupElement:
    """Inverse element; mirrored elements are involutions."""
    if a.mirrored:
        return a
    return GroupElement((-a.rotations) % 4)


@functools.cache
def elements(kind: GroupKind) -> tuple[GroupElement, ...]:
    """All elements of the group in canonical slot order."""
    rots = tuple(GroupElement(a) for a in range(4))
    if kind is GroupKind.Z2:
        return (IDENTITY,)
    if kind is GroupKind.P4:
        return rots
    return rots + tuple(GroupElement(a, True) for a in range(4))


def slot_index(g: GroupElement) -> int:
    """Position of ``g`` on the canonical group axis."""
    return g.rotations + 4 * g.mirrored


def _first(mask, *coords) -> tuple[int, ...] | None:
    """The coordinates at the first true entry of an elementwise mask, as
    ints, or None if there is none; the mask and coordinates are ints and
    bools or arrays that broadcast to the mask (row-major order for
    arrays)."""
    if mask is False:  # compared ints: nothing to locate
        return None
    mask = np.asarray(mask)
    if not mask.any():
        return None
    j = int(mask.argmax())
    return tuple(int(np.broadcast_to(c, mask.shape).flat[j]) for c in coords)


def _outside(n, x, y):
    # each axis first, so only the last OR runs at the broadcast shape
    return ((x < 0) | (x >= n)) | ((y < 0) | (y >= n))


def _check_index(n, x, y) -> None:
    bad = _first(n < 1, n)
    if bad:
        raise IndexError(f"grid side must be >= 1, got {bad[0]}")
    bad = _first(_outside(n, x, y), x, y, n)
    if bad:
        raise IndexError(f"index {bad[:2]} out of range for side {bad[2]}")


def check_corner_order(x1, y1, x2, y2) -> None:
    """Raise PatchError unless (x1, y1) is the top-left and (x2, y2) the
    bottom-right corner of a patch; elementwise on ints or same-shape int
    arrays."""
    bad = _first((x1 > x2) | (y1 > y2), x1, y1, x2, y2)
    if bad:
        raise PatchError(f"corners out of order: {bad[:2]} vs {bad[2:]}")


def _check_corners(n, x1, y1, x2, y2) -> None:
    bad = _first(_outside(n, x1, y1) | _outside(n, x2, y2), x1, y1, x2, y2, n)
    if bad:
        side = bad[4]
        corner = bad[:2] if _outside(side, *bad[:2]) else bad[2:4]
        raise PatchError(f"patch corner {corner} out of range for side {side}")


def _rotate(n, x1, y1, x2, y2) -> tuple:
    return (y1, n - 1 - x2, y2, n - 1 - x1)


def _mirror(n, x1, y1, x2, y2) -> tuple:
    return (n - 1 - x2, y1, n - 1 - x1, y2)


def rotate_corners(n, x1, y1, x2, y2) -> tuple:
    """Quarter-turn map R_n on the corners of a patch, top-left (x1, y1) and
    bottom-right (x2, y2); the corners swap roles so the result is again
    top-left/bottom-right ordered.  Works elementwise on ints or same-shape
    int arrays, the grid side ``n`` included, and raises PatchError if any
    corner is off its grid."""
    _check_corners(n, x1, y1, x2, y2)
    return _rotate(n, x1, y1, x2, y2)


def mirror_corners(n, x1, y1, x2, y2) -> tuple:
    """Horizontal mirror M_n on patch corners; same contract as
    :func:`rotate_corners`."""
    _check_corners(n, x1, y1, x2, y2)
    return _mirror(n, x1, y1, x2, y2)


def rotate_index(n, x, y) -> tuple:
    """Quarter-turn map R_n on a (col, row) index: the corner map on a
    one-cell patch.  Works elementwise on int arrays too, the grid side
    ``n`` included."""
    _check_index(n, x, y)
    return _rotate(n, x, y, x, y)[:2]


def mirror_index(n, x, y) -> tuple:
    """Horizontal mirror map M_n on a (col, row) index; elementwise on int
    arrays too, as :func:`rotate_index`."""
    _check_index(n, x, y)
    return _mirror(n, x, y, x, y)[:2]


@dataclass(frozen=True)
class IndexPatch:
    """Axis-aligned block of integer indices, stored as its two corners.

    ``top_left`` and ``bottom_right`` are (col, row) pairs;  the patch
    contains every integer pair between them, inclusive.
    """

    top_left: tuple[int, int]
    bottom_right: tuple[int, int]

    def __post_init__(self):
        check_corner_order(*self.top_left, *self.bottom_right)


def act_values(g: GroupElement, vals: np.ndarray, kind: GroupKind | None = None) -> np.ndarray:
    """The one body of the action on arrays whose last three axes are
    (group, row, col): mirror the last axis, turn the last two axes by
    ``g.rotations`` quarter turns and, when ``kind`` is given and the group
    axis is longer than 1, send slot h to slot ``g*h`` of ``kind``.

    Feature maps (C, G, n, n) and filter banks (O, C, G, k, k) share it.
    Entries only move: the mirror and the quarter turns are the slices and
    axis swaps ``np.rot90`` takes, without its per-call argument handling,
    so the result is a strided view of ``vals`` unless the group axis is
    permuted into a fresh array; the identity returns ``vals`` itself."""
    if g == IDENTITY:
        return vals
    if g.mirrored:
        vals = vals[..., ::-1]
    if g.rotations == 1:
        vals = vals[..., ::-1].swapaxes(-2, -1)
    elif g.rotations == 2:
        vals = vals[..., ::-1, ::-1]
    elif g.rotations == 3:
        vals = vals.swapaxes(-2, -1)[..., ::-1]
    if kind is not None and vals.shape[-3] > 1:
        moved = np.empty(vals.shape, dtype=vals.dtype)
        moved[..., group_permutation(g, kind), :, :] = vals
        vals = moved
    return vals


def act_spatial(g: GroupElement, fm: FeatureMap) -> FeatureMap:
    """Move every value from index p to index g(p); channel and group axes
    are untouched.  The moved values are not scanned again, and the
    identity shares the read-only values of ``fm``."""
    return FeatureMap._finite(act_values(g, fm.values))


@functools.cache
def group_permutation(g: GroupElement, kind: GroupKind) -> np.ndarray:
    """Permutation of group-axis slots induced by left multiplication:
    ``perm[slot(h)] = slot(g*h)``.

    Memoized over the twelve valid ``(g, kind)`` pairs, so the array is
    shared and read-only; an invalid pair raises on every call."""
    if kind is GroupKind.Z2:
        raise GroupKindError("the trivial group has no group axis to permute")
    if g.mirrored and kind is GroupKind.P4:
        raise GroupKindError(f"element {g.name} is not in p4")
    perm = np.empty(kind.size, dtype=np.intp)
    for h in elements(kind):
        perm[slot_index(h)] = slot_index(compose(g, h))
    perm.flags.writeable = False
    return perm


def act_full(g: GroupElement, fm: FeatureMap, kind: GroupKind) -> FeatureMap:
    """Full feature-map action: spatial transform plus the group-axis
    permutation.  This is the transform a group-equivariant network commutes
    with; it inverts via ``act_full(inverse(g), ...)``.

    The group axis is longer than 1, so ``act_values`` permutes into a
    fresh array, which the map takes over without a copy or a finite scan;
    the identity shares the read-only values of ``fm``."""
    if fm.group_size != kind.size:
        raise ShapeError(
            f"group axis {fm.group_size} does not match {kind.value} (size {kind.size})"
        )
    if kind is GroupKind.Z2:
        raise GroupKindError("the trivial group has no group axis to permute")
    return FeatureMap._finite(act_values(g, fm.values, kind))
