"""Built-in example architectures: weightless ``layers.Network``s, the type
a loaded config gives, embedded so analyses need no files.

``toy41`` is the minimal rotation-invariant classifier head (one strided
lifting convolution, spatial mean, group max, two logits): exact at 33,
inexact at 32.  ``p4cnn``/``z2cnn`` are the classic 7-conv MNIST stacks
with a stride-2 pool after the second conv; the p4 variant carries 10
channels per layer, the planar one 20.  ``fig1-maxpool`` is a bare 5x5
stride-2 max pool, the smallest architecture whose pooling breaks the
quarter-turn action.
"""

from __future__ import annotations

from .group import GroupKind
from .layers import Layer, LayerKind, Network


def _conv(kind: LayerKind, k: int, out_channels: int, s: int = 1, p: int = 0) -> Layer:
    return Layer(kind=kind, k=k, s=s, p=p, out_channels=out_channels)


_RELU = Layer(LayerKind.RELU)

TOY41 = Network(
    name="toy41",
    kind=GroupKind.P4,
    input_size=33,
    layers=(
        _conv(LayerKind.GCONV_LIFT, k=3, out_channels=1, s=2, p=1),
        Layer(LayerKind.GLOBAL_AVG_POOL),
        Layer(LayerKind.COSET_MAXPOOL),
        Layer(LayerKind.DENSE, out_channels=2),
    ),
)


def _cnn_stack(conv_kind: LayerKind, lift_kind: LayerKind, channels: int, classes: int,
               name: str, group: GroupKind, with_coset: bool) -> Network:
    layers: list[Layer] = [
        _conv(lift_kind, k=3, out_channels=channels), _RELU,
        _conv(conv_kind, k=3, out_channels=channels), _RELU,
        Layer(LayerKind.MAXPOOL, k=2, s=2),
        _conv(conv_kind, k=3, out_channels=channels), _RELU,
        _conv(conv_kind, k=3, out_channels=channels), _RELU,
        _conv(conv_kind, k=3, out_channels=channels), _RELU,
        _conv(conv_kind, k=3, out_channels=channels), _RELU,
        _conv(conv_kind, k=4, out_channels=channels), _RELU,
        Layer(LayerKind.GLOBAL_AVG_POOL),
    ]
    if with_coset:
        layers.append(Layer(LayerKind.COSET_MAXPOOL))
    layers.append(Layer(LayerKind.DENSE, out_channels=classes))
    return Network(name=name, kind=group, input_size=28, layers=tuple(layers))


P4CNN = _cnn_stack(LayerKind.GCONV, LayerKind.GCONV_LIFT, channels=10, classes=10,
                   name="p4cnn", group=GroupKind.P4, with_coset=True)

Z2CNN = _cnn_stack(LayerKind.CONV2D, LayerKind.CONV2D, channels=20, classes=10,
                   name="z2cnn", group=GroupKind.Z2, with_coset=False)

FIG1_MAXPOOL = Network(
    name="fig1-maxpool",
    kind=GroupKind.Z2,
    input_size=5,
    layers=(Layer(LayerKind.MAXPOOL, k=2, s=2),),
)

BUILTINS: dict[str, Network] = {
    net.name: net for net in (TOY41, P4CNN, Z2CNN, FIG1_MAXPOOL)
}
