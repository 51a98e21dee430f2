"""Forward-only network layers and a sequential network container.

Convolutions are cross-correlations (no kernel flip).  A group convolution
produces one output slot per group element g, computed by correlating the
input with the filter bank transformed by g; for group-valued inputs the
transform both rotates/mirrors the kernels spatially and permutes the
filter's group axis.  That transform is ``group.act_values``, the same body
that moves feature maps.  Stride-s layers sample input index patches
[(s*x, s*y), (s*x+k-1, s*y+k-1)], so whether they commute with the group
action depends on the padded input size (see the analyzer module).

conv2d, gconv_lift and gconv share one body: it pads the input once and
gives output slot g the correlation with the bank transformed by g, for
every element g of the group (z2 is the one-element case).  What the body
observes of its operands picks one of two contractions.

Exactness: when both operands are integer-valued and the Hoelder bound
max|x| * max_o ||w_o||_1 stays below 2**53, every partial sum of every
output cell is an exact integer whatever the summation order, so the conv
contracts the bank transformed by every element, stacked, in one BLAS
matrix product against a strided window matrix of the input,
bit-identical to any other order.  The group action leaves the
bound unchanged, so x and g * x take the same route.  The stacked bank
does not depend on the input, so it is built once per bank and group kind,
on first use, and held read-only on the FilterBank, freed with it.

Every other conv, float operands and integer ones past the bound alike,
sums in the base filter's coordinates.  Slot g moves the input instead
of the bank: it is g applied to the correlation of g^-1 * x with the
untransformed bank, one BLAS matmul per kernel position, the position sums
added in raster order into one accumulator.  When a layer keeps the rule
(i + 2p - k) mod s = 0, slot h*g of the layer on h * x reads the same
bytes as slot g on x and runs the same matmuls on them, so the layer
commutes with h bit for bit: a network exact at every layer gives
equivariance errors of exactly 0.0, at any depth, width or weight scale,
in float and integer mode alike.
Global average pooling sums sorted values, so it keeps that property.  A
forward whose floats no verdict reads, such as an off-grid angle of the
invariance sweep, passes ``fixed_order=False`` and takes that one BLAS
product whatever its operands; its floats may differ in the last bits.

The matmuls of a slot are a pure function of its staged operand, the bank
and the stride, so a moved forward need not run them again on bytes the
base forward has correlated.  ``forward`` alone decides where a layer of
a moved forward takes the moved base map instead of being computed.  A
move is one ``Move``, which names the element, the base input and its
forward once.  A layer that takes its map is marked None in the result,
not moved, so only a layer that is computed, or a conv whose input is
compared byte for byte with the base one, moves the map it reads, once.
After a layer that took its moved map, a conv whose padded input keeps
the rule needs no comparison: its input is that moved map, and it reads
all of it.  A FeatureMap is square by construction, so no layer checks
that of its input.  Only convs, dense layers and global pools scan their
outputs for values that are not finite; a relu, max pool, coset pool or
circle crop of finite values is finite.

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

from .errors import LayerError, NonFiniteError, ShapeError
from .group import (
    GroupElement, GroupKind, act_full, act_values, elements, inverse, slot_index,
)
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
    """Sequential architecture evaluated on square single-image inputs: a
    built-in, or a config as ``config.load`` parses it.

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
    i.e. (i + 2p - k) mod s = 0; raises as :func:`output_size` does."""
    output_size(i, k, s, p)
    return (i + 2 * p - k) % s == 0


def untransformed_conv(group: GroupKind, layer: Layer) -> bool:
    """True for a conv2d with k > 1 in a p4 or p4m network: its filters are
    never transformed, so it is not equivariant at any input size."""
    return layer.kind is LayerKind.CONV2D and group is not GroupKind.Z2 and layer.k > 1


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
    A conv2d with k > 1 in a p4 or p4m network fails it whatever its sides
    (``untransformed_conv``).

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
        if untransformed_conv(group, layer):
            ok = False
            broken = f"filters never transformed, so a k{layer.k} conv2d breaks {group.value}"
            note = f"{note}; {broken}" if note else broken
        yield ShapeStep(layer, shape_in, padded, (c, g, side), ok, note)


def _is_integral(arr: np.ndarray) -> bool:
    return bool(np.all(arr == np.rint(arr)))


def _base_correlate(vals: np.ndarray, w: np.ndarray, kind: GroupKind, s: int) -> np.ndarray:
    """Strided cross-correlation of a padded (C, G, n, n) array with every
    transform of an (O, C, G, k, k) bank, summed in the coordinates of the
    untransformed bank ``w``; returns (O, |G|, o, o).

    Slot q moves the input instead of the bank: it is q applied to the
    correlation of q^-1 * X with ``w``, where X is the input cut to its
    first m = s*(o - 1) + k rows and columns, the ones any window reads.
    Cutting the end of X before the action is cutting r = (n - k) mod s
    entries from the start of each axis that q^-1 reverses (and from the
    end of the others), which puts the windows of q^-1 * X on the layer's
    grid.  The staged slot is flattened
    to (C*G, m*m) rows, so for kernel position (dy, dx) the windows of all
    output cells are the one strided slice starting at dy*m + dx, output
    cell (y, x) at offset y*m + x; the m - o columns past the right edge of
    each row are computed and dropped.  Each position is one BLAS matmul
    with the bank's (O, C*G) matrix at that position, and the position sums
    are added in raster order into one accumulator: the first position's
    matmul writes into it, each later one into a product buffer that is
    then added to it.  Both buffers serve every slot, and the output cells
    are read through a strided (O, o, o) view of the accumulator.

    Slots are staged one at a time.  For a layer that keeps the rule
    (r = 0), slot g*q of the correlation of g * X stages the same bytes as
    slot q of X's and runs the same matmuls on them, so the layer commutes
    with g bit for bit, whatever the rounding of each matmul."""
    o_ch, c, g, k, _ = w.shape
    n = vals.shape[-1]
    o = (n - k) // s + 1
    m = s * (o - 1) + k
    span = (o - 1) * m + o
    read = vals[..., :m, :m]
    taps = w.transpose(3, 4, 0, 1, 2).reshape(k * k, o_ch, c * g)
    out = np.empty((o_ch, kind.size, o, o))
    acc, prod = np.empty((o_ch, span)), np.empty((o_ch, span))
    # output cell (y, x) sits at accumulator entry y*m + x
    sc, sx = acc.strides
    cells = np.ndarray((o_ch, o, o), acc.dtype, acc, 0, (sc, m * sx, sx))
    # numpy's matmul takes an inner dimension of 1 through its own loop, not BLAS
    product = np.dot if c * g == 1 else np.matmul
    for q in elements(kind):
        flat = np.ascontiguousarray(act_values(inverse(q), read, kind)).reshape(c * g, m * m)
        for t in range(k * k):
            start = (t // k) * m + t % k
            window = flat[:, start : start + s * (span - 1) + 1 : s]
            if t:
                product(taps[t], window, out=prod)
                acc += prod
            else:
                product(taps[t], window, out=acc)
        out[:, slot_index(q)] = act_values(q, cells)
    return out


def _contract(vals: np.ndarray, bank: np.ndarray, s: int) -> np.ndarray:
    """Strided cross-correlation of a padded (C, G, n, n) array with a
    stacked (|G|, O, C, G, k, k) bank as one BLAS matrix product; returns
    (|G|, O, o, o).

    The windows are one strided view of ``vals``, axes (C, G, k, k, o, o),
    copied once into the (C*G*k*k, o*o) matrix; the bank is the left
    operand, viewed as (|G|*O, C*G*k*k).  The summation order is
    BLAS's own, so it serves integer operands within the Hoelder bound,
    whose sums are exact in any order, and float operands whose last bits
    no verdict reads."""
    slots, o_ch, c, g, k, _ = bank.shape
    o = (vals.shape[-1] - k) // s + 1
    sc, sg, sy, sx = vals.strides
    # a view on the buffer of the C-contiguous vals, which numpy bounds-checks
    windows = np.ndarray((c, g, k, k, o, o), vals.dtype, vals, 0, (sc, sg, sy, sx, s * sy, s * sx))
    taps = c * g * k * k
    out = np.dot(bank.reshape(slots * o_ch, taps), windows.reshape(taps, o * o))
    return out.reshape(slots, o_ch, o, o)


def _pad(vals: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return vals
    return np.pad(vals, ((0, 0), (0, 0), (p, p), (p, p)))


def _check_conv_args(fm: FeatureMap, filters: FilterBank, s: int, p: int) -> None:
    if s < 1 or p < 0:
        raise ShapeError(f"stride must be >= 1 and padding >= 0, got s={s}, p={p}")
    if fm.group_size != filters.in_group_size:
        raise ShapeError(
            f"filter expects group axis {filters.in_group_size}, map has {fm.group_size}"
        )
    if fm.channels != filters.in_channels:
        raise ShapeError(f"filter expects {filters.in_channels} channels, map has {fm.channels}")
    if fm.height + 2 * p < filters.k:
        raise ShapeError(f"kernel {filters.k} exceeds padded input {fm.height + 2 * p}")


def _exact_in_any_order(x: np.ndarray, filters: FilterBank) -> bool:
    """True iff the map ``x`` and the bank are integer-valued and the
    Hoelder bound max|x| * max_o ||w_o||_1 is below 2**53, so every partial
    sum of their correlation is an exact integer whatever the summation
    order.  The bound is sound in float64, because rounding is monotone and
    2**53 is representable, and any group element only moves the entries of
    x and w, so it holds for g * x as for x.  The bank's half, its largest
    L1 norm or None if it is not integer-valued, is computed once and kept
    in the bank's memo."""
    if _INTEGER_L1 not in filters._memo:
        w = filters.values
        filters._memo[_INTEGER_L1] = (
            np.abs(w).sum(axis=(1, 2, 3, 4)).max() if _is_integral(w) else None)
    l1 = filters._memo[_INTEGER_L1]
    if l1 is None or not _is_integral(x):
        return False
    return max(x.max(), -x.min()) * l1 < EXACT_INT_LIMIT


def _stacked(filters: FilterBank, kind: GroupKind) -> np.ndarray:
    """The (|G|, O, C, G_in, k, k) bank transformed by every element of
    ``kind``, stacked, from the bank's memo; built and made read-only on
    first use."""
    bank = filters._memo.get(kind)
    if bank is None:
        bank = np.stack([act_values(g, filters.values, kind) for g in elements(kind)])
        bank.flags.writeable = False
        filters._memo[kind] = bank
    return bank


#: Memo key of a bank besides the group kinds of its stacked banks.
_INTEGER_L1 = "integer l1"


def _moves_base_call(fm: FeatureMap, x0: FeatureMap, layer: Layer, kind: GroupKind,
                     g: GroupElement) -> bool:
    """True iff the cut of ``fm`` padded by the layer's p is, byte for
    byte, g applied to the cut of x0 padded alike, for an element g of
    ``kind``.  Then slot q of the conv on ``fm`` stages the operand of slot
    g^-1 q of the conv on x0, so its output is g applied to that conv's."""
    vals = _pad(fm.values, layer.p)
    m = layer.s * ((vals.shape[-1] - layer.k) // layer.s) + layer.k  # the rows any window reads
    base = act_values(g, _pad(x0.values, layer.p)[..., :m, :m], kind)
    # compared as integers: equal floats such as 0.0 and -0.0 may differ in
    # their bytes, and so in the bytes of their products
    return np.array_equal(vals[..., :m, :m].view(np.int64), base.view(np.int64))


def _group_conv(
    fm: FeatureMap, filters: FilterBank, kind: GroupKind, s: int, p: int,
    *, fixed_order: bool = True,
) -> FeatureMap:
    """The one body of conv2d, gconv_lift and gconv: output slot g is the
    correlation with act_values(g, filters.values, kind), for every g in
    elements(kind); z2 is the one-slot case.  Integer operands within the
    Hoelder bound max|x| * max_o ||w_o||_1 < 2**53, and every operand when
    ``fixed_order`` is False, go through the BLAS ``_contract`` on the
    stacked bank.  Every other conv is summed in the base bank's
    coordinates by ``_base_correlate``, which makes a rule-exact layer
    commute with the group bit for bit at any magnitude."""
    _check_conv_args(fm, filters, s, p)
    vals = _pad(fm.values, p)
    if not fixed_order or _exact_in_any_order(fm.values, filters):
        bank = _stacked(filters, kind)
        return FeatureMap._from_layer(_contract(vals, bank, s).transpose(1, 0, 2, 3))
    return FeatureMap._from_layer(_base_correlate(vals, filters.values, kind, s))


def conv2d(
    fm: FeatureMap, filters: FilterBank, s: int = 1, p: int = 0,
    *, fixed_order: bool = True,
) -> FeatureMap:
    """Plain strided cross-correlation contracting channel and group axes;
    output side is floor((i + 2p - k)/s) + 1 and the output group axis is 1."""
    return _group_conv(fm, filters, GroupKind.Z2, s, p, fixed_order=fixed_order)


def gconv_lift(
    fm: FeatureMap, filters: FilterBank, kind: GroupKind, s: int = 1, p: int = 0,
    *, fixed_order: bool = True,
) -> FeatureMap:
    """Lifting group convolution: planar input, one output slot per group
    element, each the correlation with the g-transformed kernels."""
    if kind is GroupKind.Z2:
        raise ShapeError("lifting requires a non-trivial group; use conv2d for z2")
    if fm.group_size != 1:
        raise ShapeError(f"lifting expects a planar input, got group axis {fm.group_size}")
    return _group_conv(fm, filters, kind, s, p, fixed_order=fixed_order)


def gconv(
    fm: FeatureMap, filters: FilterBank, kind: GroupKind, s: int = 1, p: int = 0,
    *, fixed_order: bool = True,
) -> FeatureMap:
    """Group convolution on a group-valued input; preserves the group axis."""
    if kind is GroupKind.Z2:
        raise ShapeError("group convolution requires a non-trivial group")
    if fm.group_size != kind.size:
        raise ShapeError(f"expected group axis {kind.size}, got {fm.group_size}")
    return _group_conv(fm, filters, kind, s, p, fixed_order=fixed_order)


def maxpool(fm: FeatureMap, k: int, s: int) -> FeatureMap:
    """Spatial max pooling per channel and group slot, no padding.

    Runs k*k in-place maxima, one per kernel offset (dy, dx), of the strided
    slice whose cell (y, x) is input cell (s*y + dy, s*x + dx).  The maximum
    of finite floats is exact, so the result equals any other reduction
    order, except that a window whose maximum is a tie of +0.0 and -0.0 may
    return either zero; ReLU outputs hold no -0.0."""
    if k < 1 or s < 1:
        raise ShapeError(f"pool needs k >= 1 and s >= 1, got k={k}, s={s}")
    n = fm.height
    if n < k:
        raise ShapeError(f"pool kernel {k} exceeds input {n}x{n}")
    vals = fm.values
    end = s * ((n - k) // s) + 1
    out = vals[:, :, :end:s, :end:s].copy()
    for dy in range(k):
        for dx in range(k):
            if dy or dx:
                np.maximum(out, vals[:, :, dy : dy + end : s, dx : dx + end : s], out=out)
    return FeatureMap._finite(out)


def coset_maxpool(fm: FeatureMap) -> FeatureMap:
    """Max over the group axis; the result is invariant to the group-axis
    permutation part of the full action."""
    if fm.group_size == 1:
        raise ShapeError("coset pooling needs a group axis of length > 1")
    return FeatureMap._finite(fm.values.max(axis=1, keepdims=True))


def global_avg_pool(fm: FeatureMap) -> FeatureMap:
    """Mean over the spatial axes, kept as a 1x1 map per (channel, slot).

    Each map's values are sorted before they are summed, so the sum does
    not depend on where a value sits: a map moved by any group element
    pools to the same bits."""
    c, g, h, w = fm.shape
    ordered = np.sort(fm.values.reshape(c, g, h * w), axis=-1)
    return FeatureMap._from_layer(ordered.sum(axis=-1).reshape(c, g, 1, 1) / (h * w))


def relu(fm: FeatureMap) -> FeatureMap:
    return FeatureMap._finite(np.maximum(fm.values, 0.0))


def circle_crop(fm: FeatureMap) -> FeatureMap:
    """Zero everything outside the largest inscribed disk.

    A pixel (x, y) is kept iff (x-c)^2 + (y-c)^2 <= r^2 with c = (n-1)/2 and
    r = n/2, boundary inclusive; evaluated in integers as
    (2x-(n-1))^2 + (2y-(n-1))^2 <= n^2 so the mask is exactly symmetric
    under all eight p4m actions.
    """
    return FeatureMap._finite(np.where(disk_mask(fm.height), fm.values, 0.0))


def disk_mask(n: int) -> np.ndarray:
    """The (n, n) mask of the pixels ``circle_crop`` keeps."""
    d = 2 * np.arange(n) - (n - 1)
    return (d[:, np.newaxis] ** 2 + d[np.newaxis, :] ** 2) <= n * n


def dense(fm: FeatureMap, weights: np.ndarray) -> FeatureMap:
    """Fully connected layer on the flattened map; output is (out, 1, 1, 1)."""
    w = np.asarray(weights, dtype=np.float64)
    flat = fm.values.reshape(-1)
    if w.ndim != 2 or w.shape[1] != flat.size:
        raise ShapeError(f"dense weights {w.shape} do not match flattened input {flat.size}")
    return FeatureMap._from_layer((w @ flat).reshape(-1, 1, 1, 1))


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


def weight_shape(step: ShapeStep) -> tuple[int, ...] | None:
    """Shape of the weights a layer carries at the input of its shape-walk
    step: an (O, C, G, k, k) bank for a conv, an O x (C*G*side^2) matrix for
    a dense layer, None for the rest."""
    layer, (c, g, side) = step.layer, step.in_shape
    if layer.kind in CONV_KINDS:
        return (layer.out_channels, c, g, layer.k, layer.k)
    if layer.kind is LayerKind.DENSE:
        return (layer.out_channels, c * g * side * side)
    return None


def seed_network(net: Network, seed, integer_valued: bool = False) -> Network:
    """Copy of the network with weights drawn deterministically from seed.

    Integer mode draws every weight as an integer in [-4, 4] so forward
    passes stay exact; otherwise weights are uniform in [-1, 1).
    """
    rng = np.random.default_rng([seed, 0])
    weights = []
    for step in _network_steps(net):
        shape = weight_shape(step)
        if shape is None:
            weights.append(None)
        elif step.layer.kind is LayerKind.DENSE:
            weights.append(random_values(rng, shape, integer_valued))
        else:
            weights.append(FilterBank(random_values(rng, shape, integer_valued)))
    return replace(net, weights=tuple(weights))


def _apply(
    layer: Layer, weights, fm: FeatureMap, kind: GroupKind, fixed_order: bool
) -> FeatureMap:
    lk = layer.kind
    if lk is LayerKind.GCONV_LIFT:
        return gconv_lift(fm, weights, kind, layer.s, layer.p, fixed_order=fixed_order)
    if lk is LayerKind.GCONV:
        return gconv(fm, weights, kind, layer.s, layer.p, fixed_order=fixed_order)
    if lk is LayerKind.CONV2D:
        return conv2d(fm, weights, layer.s, layer.p, fixed_order=fixed_order)
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


#: Layers whose output on g * a is g applied to their output on a, bit for
#: bit, for every element g: they act entry by entry with a mask that every
#: element keeps, or sum sorted values.
_MOVE_WITH_INPUT = frozenset({LayerKind.RELU, LayerKind.CIRCLE_CROP, LayerKind.GLOBAL_AVG_POOL})


class Move(NamedTuple):
    """A move, the one object ``forward`` takes as ``moved``: the element
    g, the base input x and its forward ``base`` through the same network."""

    g: GroupElement
    x: FeatureMap
    base: list[FeatureMap]


def _takes(moved: Move, kind: GroupKind, idx: int, layer: Layer,
           fm: FeatureMap | None) -> tuple[bool, FeatureMap | None]:
    """Whether layer ``idx`` of a forward that names ``moved`` takes its
    moved map, and its input: ``fm``, or, where ``fm`` is None because the
    layer before took its own, ``g * base[idx - 1]`` once a comparison has
    moved it.  The rules are ``forward``'s."""
    took = fm is None
    if idx >= len(moved.base) or moved.base[idx].group_size == 1:
        return False, fm
    if layer.kind in _MOVE_WITH_INPUT:
        return took, fm
    if layer.kind not in CONV_KINDS:
        return False, fm
    x0 = moved.base[idx - 1] if idx else moved.x
    # the input is then g * x0, so its padding keeps the rule and is g times
    # x0's padding in full, byte for byte, without moving x0
    if took and check_layer(x0.height, layer.k, layer.s, layer.p):
        return True, fm
    if took:
        fm = act_full(moved.g, x0, kind)
    return _moves_base_call(fm, x0, layer, kind, moved.g), fm


def forward(
    net: Network, fm: FeatureMap, *, fixed_order: bool = True, moved: Move | None = None
) -> list[FeatureMap | None]:
    """Evaluate the network, returning one activation per layer (final last).

    By default float convs, and integer ones past the Hoelder bound, sum in
    the base filter's coordinates, so a network that keeps the rule at
    every layer commutes with the group bit for bit.  With ``fixed_order``
    False they use BLAS's summation order on the stacked bank instead: the
    same function, but its last bits may differ and g*x may round
    differently from x, so it is for forwards whose floats no verdict
    reads.  Integer operands within the bound give the same bits either
    way.  An empty network returns just the input.  The forward stops at
    the first layer whose output holds a value that is not finite, such as
    an integer activation past the float64 range, and returns the
    activations before it, so a list shorter than the layers names that
    layer by its length.  Other layer failures are re-raised with the layer
    index attached.

    ``moved=Move(g, x, base)`` says that ``fm`` is g * ``x`` and ``base``
    is ``forward(net, x)``.  Here alone it is decided where a layer takes
    g * ``base[d]`` instead of being computed, and only when g is an
    element of the network's group; the result holds None at each depth
    whose layer took it and the bytes of the plain forward at every other.
    A lift or group conv takes it when its cut padded input is, byte for
    byte, g times the one its layer read in ``base``: slot q then stages
    the operand of base slot g^-1 q, and integer sums within the bound are
    exact in any order, so either route gives those bytes.  When the layer
    before took its own map and the conv's padded base input keeps the
    rule, that holds by construction: the input is g times the base one
    and the cut is all of it, so the conv takes its map without comparing
    bytes; every other conv compares them.  A relu, circle crop or global
    average pool takes it when the layer before took its own, as each
    moves with its input bit for bit.  A max pool is computed, as a tie of
    +0.0 and -0.0 may resolve either way, and so is a conv2d, whose output
    is planar, and every layer from the one ``base`` stopped at on.  With
    ``fixed_order`` False every layer is computed.  After a layer that
    took its map, a computed layer or a conv's comparison reads g *
    ``base[d - 1]``, moved there with ``act_full``, once.
    """
    n = fm.height
    if n != net.input_size:
        raise ShapeError(f"input is {n}x{n}, network declares {net.input_size}")
    if not (fixed_order and moved is not None and moved.g in elements(net.kind)):
        moved = None  # every layer is computed
    acts: list[FeatureMap | None] = []
    current = fm  # None after a layer that took its moved map
    weights = net.weights or (None,) * len(net.layers)
    # an overflow shows as the non-finite output this forward stops at
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (layer, w) in enumerate(zip(net.layers, weights)):
            if w is None and layer.kind in WEIGHTED_KINDS:
                raise LayerError(f"layer {idx} ({layer.kind.value}): weights not set")
            if moved is not None:
                took, current = _takes(moved, net.kind, idx, layer, current)
                if took:
                    current = None
                    acts.append(None)
                    continue
                if current is None:  # the layer reads the map the one before took
                    current = act_full(moved.g, moved.base[idx - 1], net.kind)
            try:
                current = _apply(layer, w, current, net.kind, fixed_order)
            except NonFiniteError:
                break
            except ShapeError as exc:
                raise LayerError(f"layer {idx} ({layer.kind.value}): {exc}") from exc
            acts.append(current)
    return acts if net.layers else [fm]
