"""Static exactness analysis of sequential architectures.

A strided layer commutes with quarter-turn rotations and mirrors exactly
when its padded input side satisfies (i + 2p - k) mod s = 0.  This module
runs the shape walk of ``layers.walk_shapes`` over a ``layers.Network``
(a built-in or a loaded config; the weights are not read), which applies
that test (``check_layer``) to every layer with a spatial kernel, and lists
the input sizes that make the whole network exact.

Those sizes need no search.  While every earlier layer is exact, each
layer's input side is affine in the network input ``i``, so each condition
is a congruence on ``i`` that refines the ones before it, and the exact
sizes form one lattice {i >= i_min : i = r (mod S)} with S the product of
the strides (``exact_size_lattice``).  ``analyze`` and
``suggest_input_sizes`` read their sizes off it in O(layers), whatever the
range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import validate
from .errors import ShapeError
from .layers import Network
# The rule itself lives beside the walk; it is re-exported as part of the
# analyzer's interface.
from .layers import SPATIAL_KINDS, LayerKind, check_layer, output_size, walk_shapes  # noqa: F401

#: Half-width of the input-size window scanned for suggestions.
DEFAULT_SUGGEST_RADIUS = 4


@dataclass(frozen=True)
class LayerTrace:
    index: int
    kind: str
    input_size: int
    padded_size: int
    output_size: int
    condition_ok: bool
    note: str = ""


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of a static pass: verdict, suggestions and per-layer trace.

    ``exact`` is true iff ``violations`` is empty.  ``truncated_at`` marks a
    layer whose kernel exceeded the remaining spatial extent; such a layer
    is also listed as a violation and ends the trace.  The field order is
    the order of the ``analyze`` report document.
    """

    input_size: int
    exact: bool
    violations: tuple[int, ...]
    truncated_at: int | None
    suggested_sizes: tuple[int, ...]
    trace: tuple[LayerTrace, ...]


@dataclass(frozen=True)
class SizeLattice:
    """The exact input sides {i >= minimum : i = residue (mod modulus)}.

    ``modulus`` is the product of the strides of the layers before the
    first global pool or dense layer, ``0 <= residue < modulus``, and
    ``minimum`` is the smallest side at which no kernel outruns its input.
    """

    residue: int
    modulus: int
    minimum: int

    def sizes(self, lo: int, hi: int) -> range:
        """The exact sides in [lo, hi], in increasing order."""
        first = max(lo, self.minimum)
        first += (self.residue - first) % self.modulus
        return range(first, hi + 1, self.modulus)


#: Layers whose output side is 1 whatever their input side.
_HEAD_KINDS = frozenset({LayerKind.GLOBAL_AVG_POOL, LayerKind.DENSE})


def exact_size_lattice(net: Network) -> SizeLattice | None:
    """The lattice of input sides at which every layer of ``net`` is
    exact, or None when no side is.

    The forward pass writes the network input as i = residue + modulus*u
    and each layer's input side as slope*u + offset, slope 1 until a global
    pool or dense layer fixes the side at 1 (slope 0).  A spatial layer with
    slope 1 is exact iff u = t (mod s) with t = (k - 2p - offset) mod s,
    which refines the lattice; with slope 0 its condition holds for every
    size or for none.  The backward pass finds the smallest input side that
    lets every later kernel fit; a head layer needs only side 1 but can give
    only side 1, so a later kernel that needs more leaves no exact size.
    """
    validate(net)
    residue, modulus, slope, offset = 0, 1, 1, 0
    for layer in net.layers:
        if layer.kind in _HEAD_KINDS:
            slope, offset = 0, 1
        elif layer.kind in SPATIAL_KINDS:
            k, s, p = layer.k, layer.s, layer.p
            if slope:
                t = (k - 2 * p - offset) % s
                residue, modulus, offset = residue + modulus * t, modulus * s, offset + t
            elif (offset + 2 * p - k) % s:
                return None
            offset = (offset + 2 * p - k) // s + 1
    need = 1
    for layer in reversed(net.layers):
        if layer.kind in _HEAD_KINDS:
            if need > 1:
                return None
        elif layer.kind in SPATIAL_KINDS:
            need = max(1, (need - 1) * layer.s + layer.k - 2 * layer.p)
    return SizeLattice(residue, modulus, need)


def _exact_sizes(net: Network, lo: int, hi: int) -> list[int]:
    lattice = exact_size_lattice(net)
    return list(lattice.sizes(lo, hi)) if lattice else []


def analyze(net: Network, input_size: int) -> AnalysisReport:
    """Run the size trace and exactness test on every layer.

    A mid-trace underflow (kernel larger than what is left) does not raise:
    it is recorded as a violation and truncates the trace, so oversized
    architectures still get an inexact verdict.  Input sizes within
    DEFAULT_SUGGEST_RADIUS of the requested one that are exact are listed
    as suggestions.
    """
    if input_size < 1:
        raise ShapeError(f"input size must be >= 1, got {input_size}")
    suggested = _exact_sizes(net, max(1, input_size - DEFAULT_SUGGEST_RADIUS),
                             input_size + DEFAULT_SUGGEST_RADIUS)
    trace: list[LayerTrace] = []
    truncated_at: int | None = None
    for idx, step in enumerate(walk_shapes(net.kind, net.layers, input_size, net.in_channels)):
        out_side = step.out_shape[2]
        note = step.note if out_side else f"{step.note}; trace stops"
        trace.append(LayerTrace(idx, step.layer.kind.value, step.in_shape[2], step.padded,
                                out_side, step.condition_ok, note))
        if not out_side:
            truncated_at = idx
            break
    violations = tuple(t.index for t in trace if not t.condition_ok)
    return AnalysisReport(
        input_size=input_size,
        exact=not violations,
        violations=violations,
        truncated_at=truncated_at,
        suggested_sizes=tuple(suggested),
        trace=tuple(trace),
    )


def suggest_input_sizes(net: Network, lo: int, hi: int) -> list[int]:
    """All input sides in [lo, hi] for which the whole architecture is exact."""
    if lo > hi:
        raise ShapeError(f"empty range: lo={lo} > hi={hi}")
    if lo < 1:
        raise ShapeError(f"input sizes start at 1, got lo={lo}")
    return _exact_sizes(net, lo, hi)
