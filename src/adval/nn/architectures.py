"""The two desk-scale reference architectures.

arch-A is a small convolutional net and needs image-shaped input
(channels, height, width); arch-B is a plain dense net that flattens whatever
it is given. Both use ReLU activations and dropout 0.25 before the class layer,
which BALD's posterior sampling relies on.
"""

from __future__ import annotations

import math
from functools import reduce

from adval.errors import ConfigError
from adval.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU, output_shape
from adval.nn.network import NetworkSpec

ARCHITECTURES = ("arch-A", "arch-B")


def conv_input_shape(input_shape: tuple[int, ...]) -> tuple[int, int, int]:
    """Image shape a conv architecture will see for data of ``input_shape``.

    Flat vectors are viewed as single-channel square images when their length
    is a perfect square; (h, w) grids get a channel axis.
    """
    if len(input_shape) == 3:
        return input_shape
    if len(input_shape) == 2:
        return (1, *input_shape)
    if len(input_shape) == 1:
        side = math.isqrt(input_shape[0])
        if side * side != input_shape[0]:
            raise ConfigError(
                f"arch-A needs image-shaped input; {input_shape[0]} is not a perfect square"
            )
        return (1, side, side)
    raise ConfigError(f"unsupported input shape {input_shape}")


def build_network(arch: str, input_shape: tuple[int, ...], class_count: int, seed: int = 0) -> NetworkSpec:
    """The ``arch`` network for samples of ``input_shape``.

    Each arch is a head that flattens the input, a Dense + ReLU pair per
    hidden width, Dropout(0.25) and the class layer. The first Dense width is
    what the head makes of the input, read from ``layers.output_shape``, the
    one owner of the layers' shape arithmetic; a head that does not fit the
    input is reported as the arch not composing with it.
    """
    shape = tuple(input_shape)
    if arch == "arch-A":
        shape = conv_input_shape(shape)
        head = (Conv2D(filters=8, kernel=5, stride=1), ReLU(), MaxPool2D(2), Flatten())
        widths = (64,)
    elif arch == "arch-B":
        head, widths = (Flatten(),), (256, 64)
    else:
        raise ConfigError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")
    try:
        (flat,) = reduce(lambda s, layer: output_shape(layer, s), head, shape)
    except ConfigError as exc:
        raise ConfigError(f"{arch} does not compose with input shape {shape}") from exc
    layers = list(head)
    for n_in, n_out in zip((flat, *widths), widths):
        layers += [Dense(n_in, n_out), ReLU()]
    layers += [Dropout(0.25), Dense(widths[-1], class_count)]
    return NetworkSpec(shape, tuple(layers), class_count, init_seed=seed)
