"""Static exactness analysis of sequential architectures.

A strided layer commutes with quarter-turn rotations and mirrors exactly
when its padded input side satisfies (i + 2p - k) mod s = 0.  This module
runs the shape walk of ``layers.walk_shapes`` over an architecture config,
which applies that test (``check_layer``) to every layer with a spatial
kernel, and searches nearby input sizes that make the whole network exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ArchitectureConfig, validate
from .errors import ShapeError
from .group import GroupKind
# The rule itself lives beside the walk; it is re-exported as part of the
# analyzer's interface.
from .layers import check_layer, output_size, walk_shapes  # noqa: F401

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


def _steps(config: ArchitectureConfig, input_size: int):
    return walk_shapes(GroupKind.from_label(config.group), config.layers, input_size)


def _exact_sizes(config: ArchitectureConfig, lo: int, hi: int) -> list[int]:
    return [i for i in range(lo, hi + 1)
            if all(step.condition_ok for step in _steps(config, i))]


def analyze(config: ArchitectureConfig, input_size: int) -> AnalysisReport:
    """Run the size trace and exactness test on every layer.

    A mid-trace underflow (kernel larger than what is left) does not raise:
    it is recorded as a violation and truncates the trace, so oversized
    architectures still get an inexact verdict.  Input sizes within
    DEFAULT_SUGGEST_RADIUS of the requested one are scanned for exact
    alternatives.
    """
    if input_size < 1:
        raise ShapeError(f"input size must be >= 1, got {input_size}")
    validate(config)
    trace: list[LayerTrace] = []
    truncated_at: int | None = None
    for idx, step in enumerate(_steps(config, input_size)):
        out_side = step.out_shape[2]
        note = step.note if out_side else f"{step.note}; trace stops"
        trace.append(LayerTrace(idx, step.layer.kind.value, step.in_shape[2], step.padded,
                                out_side, step.condition_ok, note))
        if not out_side:
            truncated_at = idx
            break
    violations = tuple(t.index for t in trace if not t.condition_ok)
    suggested = _exact_sizes(config, max(1, input_size - DEFAULT_SUGGEST_RADIUS),
                             input_size + DEFAULT_SUGGEST_RADIUS)
    return AnalysisReport(
        input_size=input_size,
        exact=not violations,
        violations=violations,
        truncated_at=truncated_at,
        suggested_sizes=tuple(suggested),
        trace=tuple(trace),
    )


def suggest_input_sizes(config: ArchitectureConfig, lo: int, hi: int) -> list[int]:
    """All input sides in [lo, hi] for which the whole architecture is exact."""
    if lo > hi:
        raise ShapeError(f"empty range: lo={lo} > hi={hi}")
    if lo < 1:
        raise ShapeError(f"input sizes start at 1, got lo={lo}")
    validate(config)
    return _exact_sizes(config, lo, hi)
