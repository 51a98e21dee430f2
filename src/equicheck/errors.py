"""Exception types shared across the package."""


class EquicheckError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(EquicheckError, ValueError):
    """A tensor was constructed with an invalid dimension."""


class ShapeError(EquicheckError, ValueError):
    """Operands have incompatible shapes (or a kernel exceeds its input)."""


class PatchError(EquicheckError, ValueError):
    """An index patch is malformed or out of range."""


class GroupKindError(EquicheckError, ValueError):
    """A group kind or element is unknown, or unsupported by the operation."""


class ConfigError(EquicheckError, ValueError):
    """An architecture configuration failed validation."""


class LayerError(EquicheckError, RuntimeError):
    """A layer failed during evaluation; the message carries the layer index."""

