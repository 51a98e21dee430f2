"""Brute-force and empirical equivariance verification.

Two independent routes are kept separate on purpose: the commutation
oracles here enumerate index patches geometrically, while the analyzer's
``check_layer`` is pure modular arithmetic.  Agreement of the two over a
grid of (input, kernel, stride) triples is what the test suite verifies
exhaustively.

The oracle (``commutation_rows``) takes a whole list of triples, groups
them by output side and compares each chunk of one side, at most
``ORACLE_BLOCK`` cells, in one int-array broadcast, through the same
corner maps that transform a single patch (``group.rotate_corners`` and
``group.mirror_corners``); the modular rule is never evaluated.  Each
triple gets a row: None if it holds, else the ten ints of its first
mismatch, read from the arrays that flagged it and corner-order checked
per chunk, in one array call, as an ``IndexPatch`` checks its own.  Sides
run in order of first appearance, so of several invalid triples the first
one of the first side that has one raises.  ``cli.cmd_oracle`` fills its
cells from the rows; ``commutation_grid`` turns them into verdicts for
library callers, and ``rotation_commutation`` is its one-triple grid of
the quarter turn.

``measure`` and the sweep's right-angle rows read one comparison,
``_compare_moved``: the forward of g * x that names its move against g
times the base forward, at the depths a caller asks for.
``profile_equivariance`` reads the group-valued depths of the raw input
with ``equivariance_error``; ``invariance_sweep`` reads the final depth of
the cropped input with ``max_abs_diff``.  The sweep's off-grid rotations
are all ``_rotate_values``; rotating one map by one angle is its one-angle
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .analyzer import output_size
from .errors import ActivationOverflow, ConfigError, ShapeError
from .group import (
    GroupElement,
    IndexPatch,
    act_full,
    act_spatial,
    check_corner_order,
    elements,
    mirror_corners,
    mirror_index,
    rotate_corners,
    rotate_index,
)
from .layers import Move, Network, circle_crop, disk_mask, forward, infer_shapes, seed_network
from .tensor import FeatureMap, max_abs_diff, random_feature_map


#: Most output cells of one oracle chunk: whole triples of one output side,
#: or a band of whole rows of a larger triple (one row at least).
ORACLE_BLOCK = 1 << 13


def _patch_corners(x, y, k, s) -> tuple:
    """Corners (x1, y1, x2, y2) of the patch read for output cell (x, y),
    elementwise on ints or int arrays; PatchError if they are out of order."""
    x1, y1 = s * x, s * y
    corners = (x1, y1, x1 + (k - 1), y1 + (k - 1))
    check_corner_order(*corners)
    return corners


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
    """One grid map in the two forms the oracle uses: on (col, row) indices
    and on patch corners, both elementwise on int arrays."""

    index_map: Callable
    corner_map: Callable


#: The maps of each ``oracle --symmetry`` choice.
SYMMETRIES = {
    "rot": Symmetry(rotate_index, rotate_corners),
    "mirror": Symmetry(mirror_index, mirror_corners),
}


def commutation_rows(triples, symmetry: Symmetry) -> list[tuple[int, ...] | None]:
    """Commutation row of every (i, k, s) triple, in order: None if, at
    every output cell, the patch of the mapped output index equals the
    mapped patch of the cell; else the ten ints (x, y, ox1, oy1, ox2, oy2,
    ix1, iy1, ix2, iy2) of its first mismatch, the output index and the
    corners of the patch via the output and via the input.

    The triples are grouped by output side, sides in the order they first
    appear and triples in list order within each.  A chunk is whole triples
    of one side, at most ORACLE_BLOCK cells and at least one triple,
    compared in one broadcast; a larger triple runs alone, in bands of
    whole rows (one at least), and stops at its first band that mismatches.
    A triple's row is its first mismatching cell in row-major order, with
    the corners read from the arrays that flagged it.

    Every output side is computed first, so a ShapeError comes before any
    cell is compared.  The maps and the corner-order check of the via-input
    corners then raise on the first bad cell in the order above: the first
    invalid triple of the first side that has one."""
    triples = list(triples)
    sides = [output_size(i, k, s) for i, k, s in triples]
    by_side = {}
    for t, n in enumerate(sides):
        by_side.setdefault(n, []).append(t)
    found = [None] * len(triples)
    for n, members in by_side.items():
        per_chunk = max(1, ORACLE_BLOCK // (n * n))
        band = max(1, min(n, ORACLE_BLOCK // n))  # below n only for a triple alone
        for start in range(0, len(members), per_chunk):
            chunk = members[start : start + per_chunk]
            chunk_iks = np.array([triples[t] for t in chunk], dtype=np.int64)
            for y0 in range(0, n, band):
                rows = np.arange(y0, min(y0 + band, n), dtype=np.int64)
                if _first_mismatches(symmetry, n, chunk, chunk_iks, rows, found):
                    break
    return found


def _first_mismatches(symmetry: Symmetry, n: int, chunk, iks, rows, found) -> bool:
    """Write into ``found`` the row of each triple at positions ``chunk``,
    all of output side n with (i, k, s) the rows of ``iks``, that breaks on
    output ``rows``; True if one does.  One broadcast with i, k and s of
    shape (T, 1, 1), the rows (1, R, 1) and the columns (1, 1, n), so most
    corner arithmetic is on T*n-sized operands."""
    i, k, s = iks.T.reshape(3, -1, 1, 1)
    x = np.arange(n, dtype=np.int64).reshape(1, 1, n)
    y = rows.reshape(1, -1, 1)
    ox1, oy1, ox2, oy2 = via_output = _patch_corners(*symmetry.index_map(n, x, y), k, s)
    ix1, iy1, ix2, iy2 = via_input = symmetry.corner_map(i, *_patch_corners(x, y, k, s))
    shape = (len(chunk), len(rows), n)
    differs = (ox1 != ix1) | (oy1 != iy1) | (ox2 != ix2) | (oy2 != iy2)
    differs = np.broadcast_to(differs, shape).reshape(len(chunk), -1)
    first = differs.argmax(axis=1)
    broken = differs[np.arange(len(chunk)), first].nonzero()[0]
    if not broken.size:
        return False
    r, c = np.divmod(first[broken], n)
    corners = [np.broadcast_to(v, shape)[broken, r, c] for v in via_output + via_input]
    check_corner_order(*corners[4:])  # the via-output ones passed _patch_corners
    for b, row in zip(broken.tolist(), zip(c.tolist(), rows[r].tolist(),
                                           *(v.tolist() for v in corners))):
        found[chunk[b]] = row
    return True


def _verdict(row) -> CommutationVerdict:
    """The verdict of one commutation row, its patches validated."""
    if row is None:
        return CommutationVerdict(True)
    x, y, ox1, oy1, ox2, oy2, ix1, iy1, ix2, iy2 = row
    return CommutationVerdict(False, Counterexample(
        (x, y), IndexPatch((ox1, oy1), (ox2, oy2)), IndexPatch((ix1, iy1), (ix2, iy2))))


def commutation_grid(triples, symmetry: Symmetry) -> list[CommutationVerdict]:
    """Commutation verdict of every (i, k, s) triple, in order: the rows of
    :func:`commutation_rows` as verdicts, each counterexample's two patches
    built from its row.  Raises as that function does."""
    return [_verdict(row) for row in commutation_rows(triples, symmetry)]


def rotation_commutation(i: int, k: int, s: int) -> CommutationVerdict:
    """Brute-force check that sampling indices commute with the quarter turn:
    for every output cell, the patch of the rotated output index must equal
    the rotated patch of the original index."""
    return commutation_grid([(i, k, s)], SYMMETRIES["rot"])[0]


def equivariance_error(a: FeatureMap, b: FeatureMap) -> float:
    """Error between two same-shape maps: sqrt of the summed squared
    differences divided by the element count (spatial, group and channel
    axes all folded into both the sum and the normalizer)."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a.values - b.values
    return float(np.sqrt(np.sum(diff * diff)) / diff.size)


def _seeded_input(net: Network, seed: int, integer_valued: bool) -> tuple[Network, FeatureMap]:
    """The network with its weights and the input drawn from ``seed``."""
    return seed_network(net, seed, integer_valued), random_feature_map(
        [seed, 1], net.in_channels, 1, net.input_size, net.input_size, integer_valued)


def _compare_moved(seeded: Network, x: FeatureMap, base: list[FeatureMap], g: GroupElement,
                   depths, error: Callable) -> tuple[int, dict[int, float]]:
    """The one comparison of a moved forward with the moved base maps, read
    by ``measure`` and by the sweep's right-angle rows.

    Runs the forward of g * x that names ``Move(g, x, base)``, ``base``
    being the forward of x (see ``layers.forward``), and returns how many
    depths it reached and, for each of ``depths`` that it reached,
    ``error(moved[d], g * base[d])``: g acts with ``act_full`` on a
    group-valued map and with ``act_spatial`` on a planar one.  A depth
    whose layer took g * base[d] reads 0.0, without a comparison and
    without a move; any other base map is moved for its comparison only.
    The forward is freed when this returns."""
    moved = forward(seeded, act_spatial(g, x), moved=Move(g, x, base))
    return len(moved), {d: 0.0 if moved[d] is None else error(
        moved[d], act_full(g, base[d], seeded.kind) if base[d].group_size > 1
        else act_spatial(g, base[d])) for d in depths if d < len(moved)}


@dataclass(frozen=True)
class ProfileEntry:
    layer_index: int
    element: GroupElement
    error: float


@dataclass(frozen=True)
class EquivarianceProfile:
    """Entries of the depths profiled; ``overflow_at`` is the first layer
    at which a forward gave a value that is not finite, or None, and only
    the depths before it are profiled."""

    entries: tuple[ProfileEntry, ...]
    overflow_at: int | None = None

    def max_error(self) -> float:
        return max((e.error for e in self.entries), default=0.0)


def profile_equivariance(
    net: Network,
    seed: int,
    group_elements: tuple[GroupElement, ...] | None = None,
    integer_valued: bool = False,
) -> EquivarianceProfile:
    """Measure the per-depth equivariance error of a randomly weighted net.

    Weights and the input are drawn deterministically from ``seed``.  Each
    requested group element g reads ``_compare_moved`` on the raw input at
    every group-valued depth d, with ``equivariance_error`` against the
    fully transformed activation g * base[d].  One moved forward is held
    at a time; entries come out depth by depth, elements in order.

    A forward stops at the first layer whose output is not finite (an
    integer activation past the float64 range); the profile then covers
    the depths before the first such layer of any of its forwards.
    """
    if group_elements is None:
        group_elements = tuple(g for g in elements(net.kind) if g != GroupElement(0))
    seeded, x = _seeded_input(net, seed, integer_valued)
    base = forward(seeded, x)
    reached = len(base) if net.layers else 0
    if reached < len(net.layers):  # the moved forwards stop there too
        seeded = replace(seeded, layers=seeded.layers[:reached], weights=seeded.weights[:reached])
    depths = [d for d, act in enumerate(base[:reached]) if act.group_size > 1]
    errors = {}
    for g in group_elements:
        moved_reached, errors[g] = _compare_moved(seeded, x, base, g, depths, equivariance_error)
        reached = min(reached, moved_reached)
    entries = tuple(ProfileEntry(d, g, errors[g][d])
                    for d in depths if d < reached for g in group_elements)
    overflow_at = reached if reached < len(net.layers) else None
    return EquivarianceProfile(entries, overflow_at)


def _rotate_values(vals: np.ndarray, angles) -> np.ndarray:
    """Bilinear rotations of a square (C, G, n, n) array by every angle (in
    degrees, counterclockwise, about the center), in one pass, reading
    outside pixels as 0; returns (C, G, len(angles), n, n), the angle axis
    third.  This is the one definition of the sweep's off-grid rotation:
    rotating one map by one angle is the one-angle case.

    Each angle's cos and sin are Python scalars, and every element goes
    through the same operations in the same order whatever the other
    angles are, so a rotation's bits do not depend on the angles it is
    computed with.  Right angles get no special case: they leave ~1e-16
    interpolation weights, so the sweep moves its right-angle inputs by
    the exact grid action instead."""
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
    """Yield the circle crop of the one-angle rotation
    ``_rotate_values(x.values, [a])`` for every off-grid angle a, in order,
    bit for bit: the angles are rotated and cropped in chunks of at most
    ROTATION_CHUNK_ELEMENTS elements (one angle at least), each one pass of
    ``_rotate_values``, and a chunk is computed only when the maps before
    it have been taken."""
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
    the last bits.  A multiple of 360 degrees reads 0.0 off the base
    forward.  Every other right-angle row reads ``_compare_moved`` on the
    cropped input, which the disk mask keeps under its quarter turn g, at
    the final depth, with ``max_abs_diff``: one moved forward per distinct
    quarter turn.  g moves no value of the invariant 1x1 head, so the row
    is the max absolute difference of the final activations.

    A forward that stops at a value that is not finite (see
    ``layers.forward``) raises ActivationOverflow naming its layer, the
    base forward's first.

    The off-grid inputs are rotated and circle-cropped together, in chunks
    of at most ROTATION_CHUNK_ELEMENTS elements, each one vectorised pass
    of ``_rotate_values``; every input is bit for bit the circle crop of
    its one-angle case ``_rotate_values(x.values, [angle])``, and at most
    one chunk of them is held at a time.
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
    seeded, x = _seeded_input(net, seed, integer_valued)
    angles = list(angles)
    cropped = circle_crop(x)
    acts = forward(seeded, cropped)
    base = _final(seeded, acts)
    last = len(acts) - 1
    turns = {a: GroupElement(int(a // 90) % 4) for a in angles if a % 90 == 0}
    rows = {GroupElement(0): 0.0}  # the base forward's own row
    for g in turns.values():
        if g not in rows:
            reached, errors = _compare_moved(seeded, cropped, acts, g, [last], max_abs_diff)
            if reached < len(seeded.layers):
                raise ActivationOverflow(reached)
            rows[g] = errors[last]
    off_grid = _cropped_rotations(x, [a for a in angles if a % 90 != 0])
    return [SweepPoint(float(a), rows[turns[a]] if a % 90 == 0 else max_abs_diff(
        base, _final(seeded, forward(seeded, next(off_grid), fixed_order=False))))
        for a in angles]


def _final(net: Network, acts) -> FeatureMap:
    """The final activation of a forward of ``net``; ActivationOverflow if
    the forward stopped before it."""
    if len(acts) < len(net.layers):
        raise ActivationOverflow(len(acts))
    return acts[-1]
