"""Architecture configs: the JSON form of a ``layers.Network``.

A config holds a network's name, group label, input side, input channels
(optional, 1 if absent) and ordered ``layers.Layer`` specs.  Loading one
parses the label into a ``GroupKind`` and validates field types, the fields
each layer kind takes and the group-axis chain, so it always gives a
runnable, weightless ``Network``.
"""

from __future__ import annotations

import json
from dataclasses import replace

from .errors import ConfigError, GroupKindError, LayerError
from .group import GroupKind
from .layers import SPATIAL_KINDS, WEIGHTED_KINDS, Layer, LayerKind, Network, walk_shapes

SCHEMA_VERSION = 1

#: The top-level fields of a config: the ones ``to_dict`` writes.
FIELDS = frozenset({"schema_version", "name", "group", "input_size", "in_channels", "layers"})


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


def validate(net: Network) -> None:
    """Field-level and chain-level validation; raises ConfigError."""
    _require_int(net.input_size, "input_size (square inputs only)", 1)
    _require_int(net.in_channels, "in_channels", 1)
    if not net.layers:
        raise ConfigError("architecture needs at least one layer")
    for idx, layer in enumerate(net.layers):
        where = f"layer {idx}"
        if layer.kind in SPATIAL_KINDS:
            _require_int(layer.k, f"{where}: k", 1)
            _require_int(layer.s, f"{where}: s", 1)
            _require_int(layer.p, f"{where}: p", 0)
        else:
            for field, unset in (("k", None), ("s", 1), ("p", 0)):
                if getattr(layer, field) != unset:
                    raise ConfigError(f"{where}: {layer.kind.value} takes no {field!r}")
        if layer.kind is LayerKind.MAXPOOL and layer.p != 0:
            raise ConfigError(f"{where}: maxpool takes no padding")
        if layer.kind in WEIGHTED_KINDS:
            _require_int(layer.out_channels, f"{where}: out_channels", 1)
        elif layer.out_channels is not None:
            raise ConfigError(f"{where}: {layer.kind.value} takes no 'out_channels'")
    # the group-axis chain, checked past any layer that truncates at this size
    try:
        for _ in walk_shapes(net.kind, net.layers, net.input_size, net.in_channels):
            pass
    except LayerError as exc:
        raise ConfigError(str(exc)) from exc


def to_dict(net: Network) -> dict:
    layers = []
    for layer in net.layers:
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
    data = {
        "schema_version": SCHEMA_VERSION,
        "name": net.name,
        "group": net.kind.value,
        "input_size": net.input_size,
    }
    # written only when not planar, so every planar config and digest stays as it was
    if net.in_channels != 1:
        data["in_channels"] = net.in_channels
    data["layers"] = layers
    return data


def from_dict(data: dict) -> Network:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be an object, got {type(data).__name__}")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")
    unknown = set(data) - FIELDS
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown, key=str)}")
    for field in ("name", "group", "input_size", "layers"):
        if field not in data:
            raise ConfigError(f"missing field {field!r}")
    if not isinstance(data["name"], str):
        raise ConfigError(f"name must be a string, got {data['name']!r}")
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
    try:
        kind = GroupKind.from_label(data["group"])
    except GroupKindError:
        raise ConfigError(f"group must be z2, p4 or p4m, got {data['group']!r}") from None
    net = Network(
        kind=kind,
        layers=tuple(layers),
        input_size=data["input_size"],
        in_channels=data.get("in_channels", 1),
        name=data["name"],
    )
    validate(net)
    return net


def to_json(net: Network) -> str:
    return json.dumps(to_dict(net), indent=2)


def from_json(text: str) -> Network:
    try:
        return from_dict(json.loads(text))
    except ConfigError:
        raise
    except ValueError as exc:  # malformed JSON, or an integer past int's digit limit
        raise ConfigError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        # parsing, or the repr of a nested value in a message
        raise ConfigError("config nests deeper than the parser's recursion limit") from None


def load(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8: {exc}") from exc
    return from_json(text)


def build_network(net: Network, input_size: int | None = None) -> Network:
    """``net`` resized to ``input_size`` if one is given, then validated."""
    if input_size is not None:
        net = replace(net, input_size=input_size)
    validate(net)
    return net
