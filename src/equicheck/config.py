"""Declarative architecture configs and their JSON serialization.

A config is the on-disk form of a network: name, group label, input side
and an ordered list of ``layers.Layer`` specs.  Parsing validates field
types, layer kinds and the group-axis chain, so a config that loads cleanly
always builds into a runnable network skeleton.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConfigError, LayerError
from .group import GroupKind
from .layers import SPATIAL_KINDS, WEIGHTED_KINDS, Layer, LayerKind, Network, walk_shapes

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ArchitectureConfig:
    name: str
    group: str
    input_size: int
    layers: tuple[Layer, ...]


def _require_int(value, field: str, minimum: int):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{field} must be >= {minimum}, got {value}")
    return value


def _layer_kind(raw: str, where: str) -> LayerKind:
    try:
        return LayerKind(raw)
    except ValueError:
        known = ", ".join(k.value for k in LayerKind)
        raise ConfigError(f"{where}: unknown layer kind {raw!r} (known: {known})")


def validate(config: ArchitectureConfig) -> None:
    """Field-level and chain-level validation; raises ConfigError."""
    if config.group not in ("z2", "p4", "p4m"):
        raise ConfigError(f"group must be z2, p4 or p4m, got {config.group!r}")
    _require_int(config.input_size, "input_size (square inputs only)", 1)
    if not config.layers:
        raise ConfigError("architecture needs at least one layer")
    for idx, layer in enumerate(config.layers):
        where = f"layer {idx}"
        if layer.kind in SPATIAL_KINDS:
            _require_int(layer.k, f"{where}: k", 1)
            _require_int(layer.s, f"{where}: s", 1)
            _require_int(layer.p, f"{where}: p", 0)
        if layer.kind is LayerKind.MAXPOOL and layer.p != 0:
            raise ConfigError(f"{where}: maxpool takes no padding")
        if layer.kind in WEIGHTED_KINDS:
            _require_int(layer.out_channels, f"{where}: out_channels", 1)
    # the group-axis chain, checked past any layer that truncates at this size
    try:
        for _ in walk_shapes(GroupKind.from_label(config.group), config.layers, config.input_size):
            pass
    except LayerError as exc:
        raise ConfigError(str(exc)) from exc


def to_dict(config: ArchitectureConfig) -> dict:
    layers = []
    for layer in config.layers:
        entry: dict = {"kind": layer.kind.value}
        if layer.k is not None:
            entry["k"] = layer.k
        if layer.s != 1:
            entry["s"] = layer.s
        if layer.p != 0:
            entry["p"] = layer.p
        if layer.out_channels is not None:
            entry["out_channels"] = layer.out_channels
        layers.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "group": config.group,
        "input_size": config.input_size,
        "layers": layers,
    }


def from_dict(data: dict) -> ArchitectureConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be an object, got {type(data).__name__}")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")
    for field in ("name", "group", "input_size", "layers"):
        if field not in data:
            raise ConfigError(f"missing field {field!r}")
    raw_layers = data["layers"]
    if not isinstance(raw_layers, list):
        raise ConfigError("layers must be a list")
    layers = []
    for idx, entry in enumerate(raw_layers):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"layer {idx}: each layer needs at least a 'kind'")
        unknown = set(entry) - {"kind", "k", "s", "p", "out_channels"}
        if unknown:
            raise ConfigError(f"layer {idx}: unknown fields {sorted(unknown)}")
        layers.append(
            Layer(
                kind=_layer_kind(entry["kind"], f"layer {idx}"),
                k=entry.get("k"),
                s=entry.get("s", 1),
                p=entry.get("p", 0),
                out_channels=entry.get("out_channels"),
            )
        )
    config = ArchitectureConfig(
        name=str(data["name"]),
        group=data["group"],
        input_size=data["input_size"],
        layers=tuple(layers),
    )
    validate(config)
    return config


def to_json(config: ArchitectureConfig) -> str:
    return json.dumps(to_dict(config), indent=2)


def from_json(text: str) -> ArchitectureConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return from_dict(data)


def load(path) -> ArchitectureConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def build_network(config: ArchitectureConfig, input_size: int | None = None) -> Network:
    """Weightless network skeleton for a validated config; ``input_size``
    overrides the declared side."""
    validate(config)
    return Network(
        kind=GroupKind.from_label(config.group),
        layers=config.layers,
        input_size=config.input_size if input_size is None else input_size,
        name=config.name,
    )
