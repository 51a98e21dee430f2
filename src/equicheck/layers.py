"""Forward-only network layers and a sequential network container.

Convolutions are cross-correlations (no kernel flip).  A group convolution
produces one output slot per group element g, computed by correlating the
input with the filter bank transformed by g; for group-valued inputs the
transform both rotates/mirrors the kernels spatially and permutes the
filter's group axis.  That transform is ``group.act_values``, the same body
that moves feature maps.  Stride-s layers sample input index patches
[(s*x, s*y), (s*x+k-1, s*y+k-1)], so whether they commute with the group
action depends on the padded input size (see the analyzer module).

conv2d, gconv_lift and gconv share one body: it pads the input once,
stacks the bank transformed by every group element (z2 is the one-element
case) and contracts it in one go.

Exactness: when both operands of a contraction are integer-valued, a guard
makes sure no output cell's sum of |terms| reaches 2**53.  It first checks
the Hoelder bound max|x| * max_o ||w_o||_1, which is sound in float64
because rounding is monotone and 2**53 is representable; only when that
bound reaches 2**53 does it run the exact check, the same strided-window
tensordot that computes integer outputs, on |x| and |w|.  Its terms are
non-negative integers, so a sum below 2**53 is exact in any order and one
at or past 2**53 cannot round back below it: the check does not depend on
the summation order.  Dense layers share the guard, their matrix passed as
a one-slot bank whose kernel covers the whole map.  Below 2**53 every
partial sum is an exact integer whatever the summation order, so integer
operands are contracted by that single BLAS tensordot, bit-identical to any
other order, and integer-mode equivariance tests can assert equality with
zero tolerance.  Float operands are contracted in a fixed order instead,
because a different order would move their float64 rounding and with it
the float reports checked against an absolute tolerance: per output
element, the (channel, group) products of each kernel position are summed
in sequence, and the position sums are added in raster order.  The map is
flattened to rows of n*n entries, so one einsum per kernel position covers
every slot and output cell; each element still sees the same sequence,
which is why the result does not depend on how the slots are stacked.

Layers are frozen specs; the weights a network is seeded with sit beside
them on the Network, one entry per layer.  ``walk_shapes`` is the single
place that propagates shapes through a layer list and applies the
subsampling test, for the analyzer, config validation and the network
helpers alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ExactnessOverflowError, LayerError, ShapeError
from .group import IDENTITY, GroupElement, GroupKind, act_values, elements
from .tensor import EXACT_INT_LIMIT, FeatureMap, FilterBank, random_values


class LayerKind(enum.Enum):
    GCONV_LIFT = "gconv_lift"
    GCONV = "gconv"
    CONV2D = "conv2d"
    MAXPOOL = "maxpool"
    RELU = "relu"
    COSET_MAXPOOL = "coset_maxpool"
    GLOBAL_AVG_POOL = "global_avg_pool"
    CIRCLE_CROP = "circle_crop"
    DENSE = "dense"


#: Layers with a spatial kernel, i.e. the ones the exactness condition applies to.
SPATIAL_KINDS = frozenset(
    {LayerKind.GCONV_LIFT, LayerKind.GCONV, LayerKind.CONV2D, LayerKind.MAXPOOL}
)

CONV_KINDS = frozenset({LayerKind.GCONV_LIFT, LayerKind.GCONV, LayerKind.CONV2D})

#: Layers that carry weights and an ``out_channels``.
WEIGHTED_KINDS = CONV_KINDS | {LayerKind.DENSE}

_ALWAYS_OK_NOTES = {
    LayerKind.RELU: "pointwise; commutes with any permutation of entries",
    LayerKind.COSET_MAXPOOL: "group-axis max; permutation invariant",
    LayerKind.GLOBAL_AVG_POOL: "spatial mean; invariant to spatial actions",
    LayerKind.CIRCLE_CROP: "mask symmetric under all eight actions",
    LayerKind.DENSE: "acts on the flattened invariant head",
}


@dataclass(frozen=True)
class Layer:
    """One network layer; ``k``/``s``/``p`` apply only to the kinds in
    SPATIAL_KINDS and ``out_channels`` only to those in WEIGHTED_KINDS."""

    kind: LayerKind
    k: int | None = None
    s: int = 1
    p: int = 0
    out_channels: int | None = None


@dataclass(frozen=True)
class Network:
    """Sequential architecture evaluated on square single-image inputs.

    ``weights`` is empty until :func:`seed_network` fills it with one entry
    per layer: a FilterBank for convs, a 2-d matrix for dense layers and
    None for the rest.
    """

    kind: GroupKind
    layers: tuple[Layer, ...] = ()
    input_size: int = 1
    in_channels: int = 1
    name: str = ""
    weights: tuple = ()


def output_size(i: int, k: int, s: int, p: int = 0) -> int:
    """Spatial output side of a strided kernel layer, padding folded in."""
    padded = i + 2 * p
    if padded < k:
        raise ShapeError(f"kernel {k} exceeds padded input {padded}")
    if s < 1:
        raise ShapeError(f"stride must be >= 1, got {s}")
    return (padded - k) // s + 1


def check_layer(i: int, k: int, s: int, p: int = 0) -> bool:
    """True iff this layer subsamples without breaking the group actions,
    i.e. (i + 2p - k) mod s = 0."""
    padded = i + 2 * p
    if padded < k:
        raise ShapeError(f"kernel {k} exceeds padded input {padded}")
    if s < 1:
        raise ShapeError(f"stride must be >= 1, got {s}")
    return (padded - k) % s == 0


class ShapeStep(NamedTuple):
    """One layer of a shape walk.  Shapes are (channels, group, side); an
    output side of 0 marks the layer whose kernel outruns its padded input."""

    layer: Layer
    in_shape: tuple[int, int, int]
    padded: int
    out_shape: tuple[int, int, int]
    condition_ok: bool
    note: str


def walk_shapes(group: GroupKind, layers, input_size: int, in_channels: int = 1):
    """Yield one ShapeStep per layer, starting from a planar input of side
    ``input_size``, and apply the exactness test to every spatial layer.

    A layer whose kernel outruns its padded input fails the test, says so in
    its note and leaves side 0; the walk goes on past it only so that the
    group-axis chain of the later layers is still checked.  A broken chain
    raises LayerError naming the layer.
    """
    c, g, side = in_channels, 1, input_size
    for idx, layer in enumerate(layers):
        kind = layer.kind
        shape_in, padded, ok = (c, g, side), side, True
        note = _ALWAYS_OK_NOTES.get(kind, "size preserving")
        try:
            if kind is LayerKind.GCONV_LIFT:
                if group is GroupKind.Z2:
                    raise ShapeError("lifting layer needs a p4 or p4m network")
                if g != 1:
                    raise ShapeError(f"lifting expects a planar input, group axis is {g}")
                c, g = layer.out_channels, group.size
            elif kind is LayerKind.GCONV:
                if g != group.size or g == 1:
                    raise ShapeError(f"group conv expects group axis {group.size}, have {g}")
                c = layer.out_channels
            elif kind is LayerKind.CONV2D:
                if g != 1:
                    raise ShapeError(f"plain conv expects a planar input, group axis is {g}")
                c = layer.out_channels
            elif kind is LayerKind.COSET_MAXPOOL:
                if g == 1:
                    raise ShapeError("coset pooling needs a group axis")
                g = 1
            elif kind is LayerKind.GLOBAL_AVG_POOL:
                side = 1
            elif kind is LayerKind.DENSE:
                c, g, side = layer.out_channels, 1, 1
        except ShapeError as exc:
            raise LayerError(f"layer {idx} ({kind.value}): {exc}") from exc
        if kind in SPATIAL_KINDS:
            padded = side + 2 * layer.p
            try:
                ok = check_layer(side, layer.k, layer.s, layer.p)
            except ShapeError as exc:
                ok, note, side = False, str(exc), 0
            else:
                note = "" if ok else (
                    f"({padded} - {layer.k}) mod {layer.s} = {(padded - layer.k) % layer.s}")
                side = output_size(side, layer.k, layer.s, layer.p)
        yield ShapeStep(layer, shape_in, padded, (c, g, side), ok, note)


def _is_integral(arr: np.ndarray) -> bool:
    return bool(np.all(arr == np.rint(arr)))


def _correlate(vals: np.ndarray, bank: np.ndarray, s: int) -> np.ndarray:
    """Strided cross-correlation of a padded (C, G, n, n) array with a
    stacked (|G|, O, C, G, k, k) bank, contracting channels and group;
    returns (O, |G|, o, o).

    The map is flattened to (C, G, n*n), so for kernel position (dy, dx) the
    windows of all output cells are the one strided slice starting at
    dy*n + dx, output cell (y, x) at offset y*n + x; the n - o columns past
    the right edge of each row are computed and dropped.  Float arithmetic
    is fixed: per output element, the (channel, group) products of one
    kernel position are summed in sequence (in einsum's own vector order
    only for a 1x1 map), and the position sums are added in raster order.
    Slots and output cells are free axes of each einsum and the reduction
    runs over (channel, group) alone, so every element sees the same
    sequence whatever the layout of the free axes, and the result does not
    depend on how many slots are stacked.
    """
    k = bank.shape[-1]
    n = vals.shape[-1]
    o = (n - k) // s + 1
    span = (o - 1) * n + o
    flat = vals.reshape(vals.shape[0], vals.shape[1], n * n)
    acc = np.zeros((bank.shape[1], bank.shape[0], o * n), dtype=np.float64)
    for dy in range(k):
        for dx in range(k):
            start = dy * n + dx
            win = flat[:, :, start : start + s * (span - 1) + 1 : s]
            acc[:, :, :span] += np.einsum("cgz,pocg->opz", win, bank[..., dy, dx])
    return acc.reshape(acc.shape[0], acc.shape[1], o, n)[..., :o]


def _contract(vals: np.ndarray, bank: np.ndarray, s: int) -> np.ndarray:
    """Strided cross-correlation of a padded (C, G, h, w) array with a
    stacked (|G|, O, C, G, kh, kw) bank as one BLAS tensordot over strided
    windows; returns (|G|, O, oh, ow).  The summation order is BLAS's own,
    so it serves integer operands only, whose results do not depend on it
    (see :func:`_guard_exact_contraction`)."""
    windows = sliding_window_view(vals, bank.shape[-2:], axis=(2, 3))[:, :, ::s, ::s]
    return np.tensordot(bank, windows, axes=([2, 3, 4, 5], [0, 1, 4, 5]))


def _guard_exact_contraction(vals: np.ndarray, bank: np.ndarray, s: int) -> None:
    """For integer operands, make sure no output cell's sum of |terms|
    reaches 2**53, past which the float64 result could silently round.

    ``bank`` is the (|G|, O, C, G_in, kh, kw) stacked bank; ``dense`` passes
    its matrix as a one-slot bank whose kernel covers the whole map.  The
    Hoelder bound max|x| * max_o ||w_o||_1 is tried first; the group
    transforms only move a bank's entries, so slot 0 gives every slot's
    norms.  Only when that bound reaches 2**53 does the exact check run:
    the same tensordot that computes integer outputs, on |x| and |bank|.
    Its terms are non-negative integers, so while a cell's true sum stays
    below 2**53 every partial sum is exact in any order, and once it
    reaches 2**53 monotone rounding keeps the computed sum there too; the
    test does not depend on how BLAS orders the sums.  The first slot whose
    bound reaches 2**53 is reported.
    """
    l1 = np.abs(bank[0]).sum(axis=(1, 2, 3, 4)).max(initial=0.0)
    if max(vals.max(), -vals.min()) * l1 < EXACT_INT_LIMIT:
        return
    slot_max = _contract(np.abs(vals), np.abs(bank), s).max(axis=(1, 2, 3))
    over = np.flatnonzero(slot_max >= EXACT_INT_LIMIT)
    if over.size:
        raise ExactnessOverflowError(
            f"integer accumulation bound {slot_max[over[0]]:.3e} exceeds 2**53; "
            "reduce magnitudes or depth for exact comparisons"
        )


def _pad(vals: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return vals
    return np.pad(vals, ((0, 0), (0, 0), (p, p), (p, p)))


def _check_conv_args(fm: FeatureMap, filters: FilterBank, s: int, p: int) -> None:
    if s < 1 or p < 0:
        raise ShapeError(f"stride must be >= 1 and padding >= 0, got s={s}, p={p}")
    if not fm.is_square:
        raise ShapeError(f"convolution needs a square map, got {fm.height}x{fm.width}")
    if fm.group_size != filters.in_group_size:
        raise ShapeError(
            f"filter expects group axis {filters.in_group_size}, map has {fm.group_size}"
        )
    if fm.channels != filters.in_channels:
        raise ShapeError(f"filter expects {filters.in_channels} channels, map has {fm.channels}")
    if fm.height + 2 * p < filters.k:
        raise ShapeError(f"kernel {filters.k} exceeds padded input {fm.height + 2 * p}")


def _group_conv(
    fm: FeatureMap, filters: FilterBank, kind: GroupKind, s: int, p: int
) -> FeatureMap:
    """The one body of conv2d, gconv_lift and gconv: output slot g is the
    correlation with transform_filters(g, filters, kind), for every g in
    elements(kind); z2 is the one-slot case."""
    _check_conv_args(fm, filters, s, p)
    vals = _pad(fm.values, p)
    bank = np.stack([act_values(g, filters.values, kind) for g in elements(kind)])
    if _is_integral(fm.values) and _is_integral(filters.values):
        _guard_exact_contraction(vals, bank, s)
        return FeatureMap._from_layer(_contract(vals, bank, s).transpose(1, 0, 2, 3))
    return FeatureMap._from_layer(_correlate(vals, bank, s))


def conv2d(fm: FeatureMap, filters: FilterBank, s: int = 1, p: int = 0) -> FeatureMap:
    """Plain strided cross-correlation contracting channel and group axes;
    output side is floor((i + 2p - k)/s) + 1 and the output group axis is 1."""
    return _group_conv(fm, filters, GroupKind.Z2, s, p)


def transform_filters(g: GroupElement, filters: FilterBank, kind: GroupKind) -> FilterBank:
    """Filter bank as seen by output slot g: kernels spatially transformed by
    g and, for group-valued banks, the group axis permuted so that slot h
    reads the original slot g^-1 h.  The identity returns the bank itself."""
    if g == IDENTITY:
        return filters
    return FilterBank(act_values(g, filters.values, kind))


def gconv_lift(
    fm: FeatureMap, filters: FilterBank, kind: GroupKind, s: int = 1, p: int = 0
) -> FeatureMap:
    """Lifting group convolution: planar input, one output slot per group
    element, each the correlation with the g-transformed kernels."""
    if kind is GroupKind.Z2:
        raise ShapeError("lifting requires a non-trivial group; use conv2d for z2")
    if fm.group_size != 1:
        raise ShapeError(f"lifting expects a planar input, got group axis {fm.group_size}")
    return _group_conv(fm, filters, kind, s, p)


def gconv(
    fm: FeatureMap, filters: FilterBank, kind: GroupKind, s: int = 1, p: int = 0
) -> FeatureMap:
    """Group convolution on a group-valued input; preserves the group axis."""
    if kind is GroupKind.Z2:
        raise ShapeError("group convolution requires a non-trivial group")
    if fm.group_size != kind.size:
        raise ShapeError(f"expected group axis {kind.size}, got {fm.group_size}")
    return _group_conv(fm, filters, kind, s, p)


def maxpool(fm: FeatureMap, k: int, s: int) -> FeatureMap:
    """Spatial max pooling per channel and group slot, no padding."""
    if k < 1 or s < 1:
        raise ShapeError(f"pool needs k >= 1 and s >= 1, got k={k}, s={s}")
    if min(fm.height, fm.width) < k:
        raise ShapeError(f"pool kernel {k} exceeds input {fm.height}x{fm.width}")
    windows = sliding_window_view(fm.values, (k, k), axis=(2, 3))
    return FeatureMap._from_layer(windows[:, :, ::s, ::s].max(axis=(4, 5)))


def coset_maxpool(fm: FeatureMap) -> FeatureMap:
    """Max over the group axis; the result is invariant to the group-axis
    permutation part of the full action."""
    if fm.group_size == 1:
        raise ShapeError("coset pooling needs a group axis of length > 1")
    return FeatureMap._from_layer(fm.values.max(axis=1, keepdims=True))


def global_avg_pool(fm: FeatureMap) -> FeatureMap:
    """Mean over the spatial axes, kept as a 1x1 map per (channel, slot)."""
    return FeatureMap._from_layer(fm.values.mean(axis=(2, 3), keepdims=True))


def relu(fm: FeatureMap) -> FeatureMap:
    return FeatureMap._from_layer(np.maximum(fm.values, 0.0))


def circle_crop(fm: FeatureMap) -> FeatureMap:
    """Zero everything outside the largest inscribed disk.

    A pixel (x, y) is kept iff (x-c)^2 + (y-c)^2 <= r^2 with c = (n-1)/2 and
    r = n/2, boundary inclusive; evaluated in integers as
    (2x-(n-1))^2 + (2y-(n-1))^2 <= n^2 so the mask is exactly symmetric
    under all eight p4m actions.
    """
    if not fm.is_square:
        raise ShapeError(f"circle crop needs a square map, got {fm.height}x{fm.width}")
    n = fm.height
    d = 2 * np.arange(n) - (n - 1)
    inside = (d[:, np.newaxis] ** 2 + d[np.newaxis, :] ** 2) <= n * n
    return FeatureMap._from_layer(np.where(inside, fm.values, 0.0))


def dense(fm: FeatureMap, weights: np.ndarray) -> FeatureMap:
    """Fully connected layer on the flattened map; output is (out, 1, 1, 1)."""
    w = np.asarray(weights, dtype=np.float64)
    flat = fm.values.reshape(-1)
    if w.ndim != 2 or w.shape[1] != flat.size:
        raise ShapeError(f"dense weights {w.shape} do not match flattened input {flat.size}")
    if _is_integral(flat) and _is_integral(w):
        _guard_exact_contraction(fm.values, w.reshape((1, len(w)) + fm.shape), 1)
    out = w @ flat
    return FeatureMap._from_layer(out.reshape(-1, 1, 1, 1))


def _network_steps(net: Network):
    """walk_shapes over a network; a kernel that outruns its input is an error."""
    steps = walk_shapes(net.kind, net.layers, net.input_size, net.in_channels)
    for idx, step in enumerate(steps):
        if step.out_shape[2] == 0:
            raise LayerError(f"layer {idx} ({step.layer.kind.value}): {step.note}")
        yield step


def infer_shapes(net: Network) -> list[tuple[int, int, int]]:
    """Per-layer output shapes (channels, group, side), input excluded."""
    return [step.out_shape for step in _network_steps(net)]


def seed_network(net: Network, seed, integer_valued: bool = False) -> Network:
    """Copy of the network with weights drawn deterministically from seed.

    Integer mode draws every weight as an integer in [-4, 4] so forward
    passes stay exact; otherwise weights are uniform in [-1, 1).
    """
    rng = np.random.default_rng([seed, 0])
    weights = []
    for step in _network_steps(net):
        layer, (c, g, side) = step.layer, step.in_shape
        if layer.kind in CONV_KINDS:
            shape = (layer.out_channels, c, g, layer.k, layer.k)
            weights.append(FilterBank(random_values(rng, shape, integer_valued)))
        elif layer.kind is LayerKind.DENSE:
            shape = (layer.out_channels, c * g * side * side)
            weights.append(random_values(rng, shape, integer_valued))
        else:
            weights.append(None)
    return replace(net, weights=tuple(weights))


def _apply(layer: Layer, weights, fm: FeatureMap, kind: GroupKind) -> FeatureMap:
    lk = layer.kind
    if lk is LayerKind.GCONV_LIFT:
        return gconv_lift(fm, weights, kind, layer.s, layer.p)
    if lk is LayerKind.GCONV:
        return gconv(fm, weights, kind, layer.s, layer.p)
    if lk is LayerKind.CONV2D:
        return conv2d(fm, weights, layer.s, layer.p)
    if lk is LayerKind.MAXPOOL:
        return maxpool(fm, layer.k, layer.s)
    if lk is LayerKind.RELU:
        return relu(fm)
    if lk is LayerKind.COSET_MAXPOOL:
        return coset_maxpool(fm)
    if lk is LayerKind.GLOBAL_AVG_POOL:
        return global_avg_pool(fm)
    if lk is LayerKind.CIRCLE_CROP:
        return circle_crop(fm)
    if lk is LayerKind.DENSE:
        return dense(fm, weights)
    raise ShapeError(f"unknown layer kind {lk}")  # pragma: no cover


def forward(net: Network, fm: FeatureMap) -> list[FeatureMap]:
    """Evaluate the network, returning one activation per layer (final last).

    An empty network returns just the input.  Layer failures are re-raised
    with the layer index attached.
    """
    if fm.height != net.input_size or fm.width != net.input_size:
        raise ShapeError(
            f"input is {fm.height}x{fm.width}, network declares {net.input_size}"
        )
    acts: list[FeatureMap] = []
    current = fm
    weights = net.weights or (None,) * len(net.layers)
    for idx, (layer, w) in enumerate(zip(net.layers, weights)):
        if w is None and layer.kind in WEIGHTED_KINDS:
            raise LayerError(f"layer {idx} ({layer.kind.value}): weights not set")
        try:
            current = _apply(layer, w, current, net.kind)
        except (ShapeError, ExactnessOverflowError) as exc:
            raise LayerError(f"layer {idx} ({layer.kind.value}): {exc}") from exc
        acts.append(current)
    return acts if acts else [fm]
