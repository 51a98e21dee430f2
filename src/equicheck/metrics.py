"""Brute-force and empirical equivariance verification.

Two independent routes are kept separate on purpose: the commutation
oracles here enumerate index patches geometrically, while the analyzer's
``check_layer`` is pure modular arithmetic.  Agreement of the two over a
grid of (input, kernel, stride) triples is what the test suite verifies
exhaustively.

The oracle (``commutation_grid``) takes a whole list of triples at once.
It joins the output cells of all of them, triple after triple and
row-major within each, and compares their patches as int arrays in blocks
of at most ``ORACLE_BLOCK`` cells, so one block may span many triples.
Each cell is mapped on its own triple's grids, through the same corner
maps that transform a single patch (``group.rotate_corners`` and
``group.mirror_corners``); the modular rule is never evaluated.  Only the
first mismatching cell of each triple is rebuilt as ``IndexPatch``
objects, with the scalar maps, to form its counterexample.
``rotation_commutation`` and ``mirror_commutation`` are one-triple grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
from .layers import Network, circle_crop, disk_mask, forward, infer_shapes, seed_network
from .tensor import FeatureMap, max_abs_diff, random_feature_map


#: Most output cells the commutation oracle holds in arrays at once.
ORACLE_BLOCK = 1 << 13


def _patch_corners(x, y, k, s) -> tuple:
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


class Symmetry(NamedTuple):
    """One grid map in the three forms the oracle uses: on a (col, row)
    index, on patch corners (elementwise on int arrays) and on an
    ``IndexPatch``."""

    index_map: Callable
    corner_map: Callable
    patch_map: Callable


#: The maps of each ``oracle --symmetry`` choice.
SYMMETRIES = {
    "rot": Symmetry(rotate_index, rotate_corners, rotate_patch),
    "mirror": Symmetry(mirror_index, mirror_corners, mirror_patch),
}


def commutation_grid(triples, symmetry: Symmetry) -> list[CommutationVerdict]:
    """Commutation verdict of every (i, k, s) triple, in order.

    The output cells of all triples are joined, triple after triple and
    row-major within each, and compared in blocks of at most ORACLE_BLOCK
    cells: for every cell, the patch of the mapped output index against the
    mapped patch of the cell, on the output and input grids of its own
    triple.  A block starting inside a triple that has already mismatched
    skips the rest of that triple.  The first mismatching cell of each
    triple is rebuilt with the scalar maps, which must disagree there too.

    Every triple's output side is computed first, so a ShapeError comes
    before any cell is compared; the array maps then raise on the first bad
    cell in joined order."""
    triples = list(triples)
    sides = [output_size(i, k, s) for i, k, s in triples]
    i, k, s = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    o = np.array(sides, dtype=np.int64)
    ends = np.cumsum(o * o)  # one past each triple's last cell
    total = int(ends[-1]) if triples else 0
    first = np.full(len(triples), total)  # first mismatching cell, or total
    start = 0
    while start < total:
        owner = int(np.searchsorted(ends, start, side="right"))
        if first[owner] < total:
            start = int(ends[owner])
            continue
        cells = np.arange(start, min(start + ORACLE_BLOCK, total))
        t = np.searchsorted(ends, cells, side="right")
        n, kt, st = o[t], k[t], s[t]
        local = cells - (ends[t] - n * n)
        y = local // n
        x = local - n * y
        ox1, oy1, ox2, oy2 = _patch_corners(*symmetry.index_map(n, x, y), kt, st)
        ix1, iy1, ix2, iy2 = symmetry.corner_map(i[t], *_patch_corners(x, y, kt, st))
        differs = (ox1 != ix1) | (oy1 != iy1) | (ox2 != ix2) | (oy2 != iy2)
        np.minimum.at(first, t[differs], cells[differs])
        start += len(cells)
    verdicts = []
    for (ti, tk, ts), side, cell, end in zip(triples, sides, first.tolist(), ends.tolist()):
        if cell == total:
            verdicts.append(CommutationVerdict(True))
            continue
        y, x = divmod(cell - (end - side * side), side)
        via_output = index_patch(*symmetry.index_map(side, x, y), tk, ts)
        via_input = symmetry.patch_map(ti, index_patch(x, y, tk, ts))
        if via_output == via_input:
            raise AssertionError(
                f"array and scalar maps disagree at output cell ({x}, {y}) of {(ti, tk, ts)}"
            )
        verdicts.append(CommutationVerdict(False, Counterexample((x, y), via_output, via_input)))
    return verdicts


def rotation_commutation(i: int, k: int, s: int) -> CommutationVerdict:
    """Brute-force check that sampling indices commute with the quarter turn:
    for every output cell, the patch of the rotated output index must equal
    the rotated patch of the original index."""
    return commutation_grid([(i, k, s)], SYMMETRIES["rot"])[0]


def mirror_commutation(i: int, k: int, s: int) -> CommutationVerdict:
    """Same check for the horizontal mirror."""
    return commutation_grid([(i, k, s)], SYMMETRIES["mirror"])[0]


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
    transformed activation of the plain input.  One transformed forward is
    held at a time; entries come out depth by depth, elements in order.
    """
    if group_elements is None:
        group_elements = tuple(g for g in elements(net.kind) if g != GroupElement(0))
    seeded = seed_network(net, seed, integer_valued)
    x = random_feature_map(
        [seed, 1], net.in_channels, 1, net.input_size, net.input_size, integer_valued
    )
    base = forward(seeded, x)
    depths = [d for d, act in enumerate(base) if act.group_size > 1]
    errors = {}
    for g in group_elements:
        moved = forward(seeded, act_spatial(g, x))
        for d in depths:
            errors[d, g] = equivariance_error(moved[d], act_full(g, base[d], net.kind))
        del moved  # freed before the next forward starts
    entries = tuple(ProfileEntry(d, g, errors[d, g]) for d in depths for g in group_elements)
    return EquivarianceProfile(net.name, seed, integer_valued, entries)


def rotate_bilinear(fm: FeatureMap, angle_degrees: float) -> FeatureMap:
    """Rotate a square map counterclockwise about its center by any angle,
    sampling with bilinear interpolation and reading outside pixels as 0.

    Multiples of 90 degrees, 0 included, are the exact grid action: there
    cos and sin would leave ~1e-16 interpolation weights, which would blur
    the input by that much and give an exact network a nonzero right-angle
    discrepancy.  Any other angle is the one-angle case of
    ``_rotate_values``.
    """
    if not fm.is_square:
        raise ShapeError(f"rotation needs a square map, got {fm.height}x{fm.width}")
    if angle_degrees % 90 == 0:
        return act_spatial(GroupElement(int(angle_degrees // 90) % 4), fm)
    return FeatureMap._from_layer(_rotate_values(fm.values, [angle_degrees])[:, :, 0])


def _rotate_values(vals: np.ndarray, angles) -> np.ndarray:
    """Bilinear rotations of a square (C, G, n, n) array by every angle (in
    degrees, counterclockwise), in one pass; returns (C, G, len(angles), n, n),
    the angle axis third.

    Each angle's cos and sin are Python scalars, and every element goes
    through the same operations in the same order whatever the other
    angles are, so a rotation's bits do not depend on the angles it is
    computed with.  Grid angles get no special case here: they leave
    ~1e-16 interpolation weights."""
    n = vals.shape[-1]
    trig = [(math.cos(t), math.sin(t)) for t in map(math.radians, angles)]
    cos_t, sin_t = np.array(trig, dtype=np.float64).T.reshape(2, -1, 1, 1)
    c = (n - 1) / 2.0
    xs = np.arange(n, dtype=np.float64)
    u = xs[np.newaxis, :] - c  # target col offset
    v = xs[:, np.newaxis] - c  # target row offset
    src_x = c + u * cos_t - v * sin_t  # (angles, n, n)
    src_y = c + u * sin_t + v * cos_t

    x0 = np.floor(src_x).astype(np.intp)
    y0 = np.floor(src_y).astype(np.intp)
    wx = src_x - x0
    wy = src_y - y0

    out = np.zeros(vals.shape[:2] + src_x.shape)
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
    return out


#: Most elements, angles times map size, of one chunk of the sweep's
#: rotation pass; each working array of the pass holds about this many.
ROTATION_CHUNK_ELEMENTS = 1 << 13


def _cropped_rotations(x: FeatureMap, angles):
    """Yield ``circle_crop(rotate_bilinear(x, a))`` for every off-grid
    angle a, in order, bit for bit: the angles are rotated and cropped in
    chunks of at most ROTATION_CHUNK_ELEMENTS elements (one angle at least),
    each one pass of ``_rotate_values``, and a chunk is computed only when
    the maps before it have been taken."""
    per_chunk = max(1, ROTATION_CHUNK_ELEMENTS // x.values.size)
    inside = disk_mask(x.height)
    for start in range(0, len(angles), per_chunk):
        cropped = np.where(inside, _rotate_values(x.values, angles[start : start + per_chunk]), 0.0)
        cropped.flags.writeable = False  # each map below is a view of it
        for j in range(cropped.shape[2]):
            yield FeatureMap._from_layer(cropped[:, :, j])


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

    The verdict reads the rows at multiples of 90 degrees, so those
    forwards and the base forward sum their float convs in the base
    filter's coordinates: on a network exact at every layer those rows are
    exactly 0.0 in float mode as in integer mode.  Off-grid rows carry no
    verdict and run with ``fixed_order=False``; their floats may differ in
    the last bits.  A multiple of 360 degrees reuses the base forward.

    The off-grid inputs are rotated and circle-cropped together, in chunks
    of at most ROTATION_CHUNK_ELEMENTS elements, each one vectorised pass
    of the body of ``rotate_bilinear``; every input is bit for bit the one
    ``circle_crop(rotate_bilinear(x, angle))`` gives, and at most one chunk
    of them is held at a time.
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
    angles = list(angles)
    off_grid = _cropped_rotations(x, [a for a in angles if a % 90 != 0])
    points = []
    for angle in angles:
        if angle % 360 == 0:
            rotated = base
        elif angle % 90 == 0:
            rotated = forward(seeded, circle_crop(rotate_bilinear(x, angle)))[-1]
        else:
            rotated = forward(seeded, next(off_grid), fixed_order=False)[-1]
        points.append(SweepPoint(float(angle), max_abs_diff(base, rotated)))
    return points
