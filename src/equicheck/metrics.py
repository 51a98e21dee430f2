"""Brute-force and empirical equivariance verification.

Two independent routes are kept separate on purpose: the commutation
oracles here enumerate index patches geometrically, while the analyzer's
``check_layer`` is pure modular arithmetic.  Agreement of the two over a
grid of (input, kernel, stride) triples is what the test suite verifies
exhaustively.

The oracle compares the patches of all output cells as int arrays, in
row-major blocks of at most ``ORACLE_BLOCK`` cells, through the same
corner maps that transform a single patch (``group.rotate_corners`` and
``group.mirror_corners``); it never evaluates the modular rule.  Only the
first mismatching cell is rebuilt as ``IndexPatch`` objects, with the
scalar maps, to form the counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import output_size
from .errors import ConfigError, ShapeError
from .group import (
    GroupElement,
    GroupKind,
    IndexPatch,
    act_full,
    act_spatial,
    check_corner_order,
    elements,
    mirror_corners,
    mirror_index,
    mirror_patch,
    rotate_corners,
    rotate_index,
    rotate_patch,
)
from .layers import Network, circle_crop, forward, infer_shapes, seed_network
from .tensor import FeatureMap, max_abs_diff, random_feature_map


#: Most output cells the commutation oracle holds in arrays at once.
ORACLE_BLOCK = 1 << 16


def _patch_corners(x, y, k: int, s: int) -> tuple:
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


@dataclass(frozen=True)
class Counterexample:
    """First output index where patch-then-transform and transform-then-patch
    disagree, with the two mismatching patches."""

    output_index: tuple[int, int]
    patch_via_output: IndexPatch
    patch_via_input: IndexPatch


@dataclass(frozen=True)
class CommutationVerdict:
    holds: bool
    counterexample: Counterexample | None = None


def _commutation(
    i: int, k: int, s: int, index_map, corner_map, patch_map
) -> CommutationVerdict:
    """For every output cell, compare the patch of the mapped output index
    with the mapped patch of the cell, as arrays over up to ORACLE_BLOCK
    cells at a time in row-major order.  The first mismatching cell is
    rebuilt with the scalar maps, which must disagree there too."""
    o = output_size(i, k, s)
    for start in range(0, o * o, ORACLE_BLOCK):
        cells = np.arange(start, min(start + ORACLE_BLOCK, o * o))
        y = cells // o
        x = cells - o * y
        ox1, oy1, ox2, oy2 = _patch_corners(*index_map(o, x, y), k, s)
        ix1, iy1, ix2, iy2 = corner_map(i, *_patch_corners(x, y, k, s))
        differs = (ox1 != ix1) | (oy1 != iy1) | (ox2 != ix2) | (oy2 != iy2)
        if differs.any():
            j = int(differs.argmax())
            x, y = int(x[j]), int(y[j])
            via_output = index_patch(*index_map(o, x, y), k, s)
            via_input = patch_map(i, index_patch(x, y, k, s))
            if via_output == via_input:
                raise AssertionError(f"array and scalar maps disagree at output cell ({x}, {y})")
            return CommutationVerdict(False, Counterexample((x, y), via_output, via_input))
    return CommutationVerdict(True)


def rotation_commutation(i: int, k: int, s: int) -> CommutationVerdict:
    """Brute-force check that sampling indices commute with the quarter turn:
    for every output cell, the patch of the rotated output index must equal
    the rotated patch of the original index."""
    return _commutation(i, k, s, rotate_index, rotate_corners, rotate_patch)


def mirror_commutation(i: int, k: int, s: int) -> CommutationVerdict:
    """Same check for the horizontal mirror."""
    return _commutation(i, k, s, mirror_index, mirror_corners, mirror_patch)


def equivariance_error(a: FeatureMap, b: FeatureMap) -> float:
    """Error between two same-shape maps: sqrt of the summed squared
    differences divided by the element count (spatial, group and channel
    axes all folded into both the sum and the normalizer)."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a.values - b.values
    return float(np.sqrt(np.sum(diff * diff)) / diff.size)


@dataclass(frozen=True)
class ProfileEntry:
    layer_index: int
    element: GroupElement
    error: float


@dataclass(frozen=True)
class EquivarianceProfile:
    network_id: str
    seed: int
    integer_valued: bool
    entries: tuple[ProfileEntry, ...]

    def max_error(self) -> float:
        return max((e.error for e in self.entries), default=0.0)


def profile_equivariance(
    net: Network,
    seed: int,
    group_elements: tuple[GroupElement, ...] | None = None,
    integer_valued: bool = False,
) -> EquivarianceProfile:
    """Measure the per-depth equivariance error of a randomly weighted net.

    Weights and the input are drawn deterministically from ``seed``.  For
    each requested group element g and every group-valued depth d the error
    compares the forward pass of the transformed input against the fully
    transformed activation of the plain input.
    """
    if group_elements is None:
        group_elements = tuple(g for g in elements(net.kind) if g != GroupElement(0))
    seeded = seed_network(net, seed, integer_valued)
    x = random_feature_map(
        [seed, 1], net.in_channels, 1, net.input_size, net.input_size, integer_valued
    )
    base = forward(seeded, x)
    depths = [d for d, act in enumerate(base) if act.group_size > 1]
    transformed = {g: forward(seeded, act_spatial(g, x)) for g in group_elements}
    entries = []
    for d in depths:
        for g in group_elements:
            expected = act_full(g, base[d], net.kind)
            entries.append(ProfileEntry(d, g, equivariance_error(transformed[g][d], expected)))
    return EquivarianceProfile(net.name, seed, integer_valued, tuple(entries))


def rotate_bilinear(fm: FeatureMap, angle_degrees: float) -> FeatureMap:
    """Rotate a square map counterclockwise about its center by any angle,
    sampling with bilinear interpolation and reading outside pixels as 0.

    Multiples of 90 degrees, 0 included, are the exact grid action: there
    cos and sin would leave ~1e-16 interpolation weights, which would make
    an integer input fractional and switch the exactness guard off.
    """
    if not fm.is_square:
        raise ShapeError(f"rotation needs a square map, got {fm.height}x{fm.width}")
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


@dataclass(frozen=True)
class SweepPoint:
    angle: float
    discrepancy: float


def invariance_sweep(
    net: Network, seed: int, angles, integer_valued: bool = False
) -> list[SweepPoint]:
    """Final-output discrepancy between a map and its rotated copies.

    Both inputs pass through the inscribed-circle crop so that off-grid
    angles introduce no corner artifacts; discrepancy is the max absolute
    difference of the final activations.  Requires a network whose head is
    invariant-shaped (group axis reduced to 1, spatial extent 1x1).
    """
    final_c, final_g, final_side = infer_shapes(net)[-1] if net.layers else (
        net.in_channels, 1, net.input_size
    )
    if final_g != 1 or final_side != 1:
        raise ConfigError(
            "invariance sweep needs an invariant head "
            f"(got group axis {final_g}, side {final_side}); "
            "end the network with coset and global pooling"
        )
    seeded = seed_network(net, seed, integer_valued)
    x = random_feature_map(
        [seed, 1], net.in_channels, 1, net.input_size, net.input_size, integer_valued
    )
    base = forward(seeded, circle_crop(x))[-1]
    points = []
    for angle in angles:
        rotated = forward(seeded, circle_crop(rotate_bilinear(x, angle)))[-1]
        points.append(SweepPoint(float(angle), max_abs_diff(base, rotated)))
    return points
