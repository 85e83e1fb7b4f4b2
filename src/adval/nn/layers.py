"""Layer descriptors and their forward/backward kernels.

All kernels operate on batched float64 arrays. Inputs use row-major layout:
dense activations are (N, features), convolutional activations are
(N, channels, height, width). Each forward kernel returns the output plus a
cache consumed by the matching backward kernel. A backward kernel computes
only the gradients its caller requests: the gradient w.r.t. the layer input
(``input_grad``) and, for parameterized layers, gradients shaped exactly like
the parameters (``param_grads``). Whatever is not requested comes back as None
and costs nothing.

The input gradient also takes an upstream gradient with extra leading axes in
front of the cached batch, ``(*lead, N, ...)``: one backward pass then carries
several seeds per example at once (EGL seeds one per class). ``grad_sq_norms``
reads such a gradient and returns each example's squared parameter-gradient
norm without forming any per-example gradient of a Dense layer.

A forward kernel builds its cache only on request (``cache=True``, the
default). A caller that will run no backward pass, such as batched
evaluation, passes ``cache=False``: MaxPool2D then skips the pick that only
its backward pass reads and returns None for the cache, with the same output
bits. The other layers' caches cost no extra work and come back either way.

Conv2D's forward copies its receptive fields into im2col columns laid out
(N, C·k·k, Ho·Wo) and multiplies them by the (F, C·k·k) kernel matrix in one
batched product, whose (N, F, Ho·Wo) result is already NCHW. On arch-A's
shapes (one channel, 8 filters of 5×5 over 8×8, 12×12, 16×16 or 28×28 inputs)
this is bit-equal to contracting the window view with ``np.tensordot`` on the
OpenBLAS SkylakeX and Haswell kernels. On other shapes OpenBLAS may take
another kernel path and round the last bit differently: 2×2 and 1×1 outputs,
some multi-channel shapes, and a single filter (a matrix-vector product).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adval.errors import ConfigError

DTYPE = np.float64


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int


@dataclass(frozen=True)
class Conv2D:
    """Valid-padding 2D convolution over (channels, height, width) input."""

    filters: int
    kernel: int
    stride: int = 1


@dataclass(frozen=True)
class MaxPool2D:
    """Non-overlapping max pooling; spatial dims must be divisible by ``size``.

    Each output is the first maximal element of its tile in row-major order,
    as ``np.argmax`` picks it (a NaN counts as maximal), and the gradient
    flows to that element alone. A forward pass with a cache records that
    element's position; one without (``forward(..., cache=False)``) takes the
    tile max and re-picks only the tiles whose max is zero or NaN, where a
    -0.0/+0.0 tie or a NaN payload could leave other bits. Both routes give
    the same output bits.
    """

    size: int


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class Dropout:
    rate: float


@dataclass(frozen=True)
class Flatten:
    pass


LayerSpec = Dense | Conv2D | MaxPool2D | ReLU | Dropout | Flatten


def validate_layer(layer: LayerSpec) -> None:
    if isinstance(layer, Dense):
        if layer.in_features < 1 or layer.out_features < 1:
            raise ConfigError(f"dense layer dimensions must be positive, got {layer}")
    elif isinstance(layer, Conv2D):
        if layer.filters < 1 or layer.kernel < 1 or layer.stride < 1:
            raise ConfigError(f"conv2d parameters must be positive, got {layer}")
    elif isinstance(layer, MaxPool2D):
        if layer.size < 1:
            raise ConfigError(f"maxpool size must be positive, got {layer}")
    elif isinstance(layer, Dropout):
        if not 0.0 <= layer.rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {layer.rate}")


def output_shape(layer: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-sample output shape of ``layer`` applied to per-sample ``in_shape``.

    Raises ConfigError when the shapes do not compose.
    """
    if isinstance(layer, Dense):
        if in_shape != (layer.in_features,):
            raise ConfigError(
                f"dense layer expects ({layer.in_features},), got input shape {in_shape}"
            )
        return (layer.out_features,)
    if isinstance(layer, Conv2D):
        if len(in_shape) != 3:
            raise ConfigError(f"conv2d expects (channels, h, w) input, got {in_shape}")
        c, h, w = in_shape
        k, s = layer.kernel, layer.stride
        if h < k or w < k:
            raise ConfigError(f"conv2d kernel {k} does not fit input {in_shape}")
        return (layer.filters, (h - k) // s + 1, (w - k) // s + 1)
    if isinstance(layer, MaxPool2D):
        if len(in_shape) != 3:
            raise ConfigError(f"maxpool expects (channels, h, w) input, got {in_shape}")
        c, h, w = in_shape
        if h % layer.size or w % layer.size:
            raise ConfigError(
                f"maxpool size {layer.size} must divide spatial dims of {in_shape}"
            )
        return (c, h // layer.size, w // layer.size)
    if isinstance(layer, Flatten):
        return (int(np.prod(in_shape)),)
    # ReLU / Dropout are shape-preserving
    return in_shape


def init_params(layer: LayerSpec, in_shape: tuple[int, ...], rng: np.random.Generator):
    """Glorot-uniform weights, zero biases. Returns None for parameterless layers."""
    if isinstance(layer, Dense):
        fan_in, fan_out = layer.in_features, layer.out_features
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(DTYPE)
        return {"W": w, "b": np.zeros(fan_out, dtype=DTYPE)}
    if isinstance(layer, Conv2D):
        c_in = in_shape[0]
        k = layer.kernel
        fan_in = c_in * k * k
        fan_out = layer.filters * k * k
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(layer.filters, c_in, k, k)).astype(DTYPE)
        return {"W": w, "b": np.zeros(layer.filters, dtype=DTYPE)}
    return None


def _conv_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Strided view (N, C, Ho, Wo, k, k) of every receptive field."""
    n, c, h, w = x.shape
    ho = (h - kernel) // stride + 1
    wo = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, ho, wo, kernel, kernel),
        strides=(sn, sc, stride * sh, stride * sw, sh, sw),
        writeable=False,
    )


def forward(layer, params, x, *, rng=None, cache=True):
    """Apply ``layer`` to batch ``x``; returns (output, cache).

    ``rng`` supplies dropout masks and switches dropout on; without it
    dropout is the identity (inverted-dropout scaling happens at train time,
    so deterministic inference needs no rescaling).

    ``cache=False`` tells the layer that no backward pass will read its cache.
    MaxPool2D then forms only its output and returns None for the cache; the
    other layers' caches are the input itself, a view of it or a by-product
    of the output, and come back as usual. The output bits are the same.
    """
    if isinstance(layer, Dense):
        return x @ params["W"] + params["b"], x
    if isinstance(layer, ReLU):
        mask = x > 0
        return x * mask, mask
    if isinstance(layer, Flatten):
        return x.reshape(x.shape[0], -1), x.shape
    if isinstance(layer, Dropout):
        if rng is None:
            return x, None
        keep = 1.0 - layer.rate
        mask = (rng.random(x.shape) < keep) / keep
        return x * mask, mask
    if isinstance(layer, Conv2D):
        windows = _conv_windows(x, layer.kernel, layer.stride)
        n, _, ho, wo = windows.shape[:4]
        # im2col as (N, C·k·k, Ho·Wo), copied in contiguous runs of Wo elements;
        # one batched (F, C·k·k) @ cols product then lands in NCHW order, with
        # no output transpose (last-bit contract in the module docstring)
        cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, -1, ho * wo)
        y = np.matmul(params["W"].reshape(layer.filters, -1), cols)
        y += params["b"][:, None]
        return y.reshape(n, layer.filters, ho, wo), (x, windows)
    if isinstance(layer, MaxPool2D):
        return _maxpool(x, layer.size) if cache else (_maxpool_output(x, layer.size), None)
    raise TypeError(f"unknown layer {layer!r}")


def backward(layer, params, cache, dy, *, input_grad=True, param_grads=True, out=None):
    """Backward pass; returns (dx, param_grads).

    ``dx`` is the gradient w.r.t. the layer input, or None unless
    ``input_grad`` is set. The second item is a dict of gradients shaped like
    ``params`` for Dense and Conv2D when ``param_grads`` is set, and None
    otherwise (always None for parameterless layers). Each result is computed
    the same way whether or not the other one is requested. ``out`` (contiguous
    arrays shaped like ``params``) receives the parameter gradients, same bits.

    With ``param_grads=False``, ``dy`` may carry leading axes in front of the
    cached batch, ``(*lead, N, ...)``, and ``dx`` is then ``(*lead, *x.shape)``:
    each leading index gets the gradient an ordinary call would give it. Dense,
    ReLU and Dropout broadcast; Flatten and MaxPool2D place the leading axes
    explicitly; Conv2D takes its rows over lead x batch.
    """
    w_out, b_out = (None, None) if out is None else (out["W"], out["b"])
    if isinstance(layer, Dense):
        x = cache
        dx = dy @ params["W"].T if input_grad else None
        grads = None
        if param_grads:
            grads = {"W": np.matmul(x.T, dy, out=w_out), "b": dy.sum(axis=0, out=b_out)}
        return dx, grads
    if isinstance(layer, Conv2D):
        x, windows = cache
        dx = None
        if input_grad:  # leading axes fold into the batch
            dx = _conv_input_grad(layer, params["W"], x.shape[1:], dy.reshape(-1, *dy.shape[-3:]))
            dx = dx.reshape(*dy.shape[:-4], *x.shape)
        grads = None
        if param_grads:
            # (F, C·k·k) <- contract batch and output positions, as np.tensordot does
            rows = dy.transpose(1, 0, 2, 3).reshape(dy.shape[1], -1)
            cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(rows.shape[1], -1)
            dw = np.dot(rows, cols, out=None if w_out is None else w_out.reshape(len(rows), -1))
            grads = {"W": dw.reshape(params["W"].shape), "b": dy.sum(axis=(0, 2, 3), out=b_out)}
        return dx, grads
    if not input_grad:
        return None, None
    if isinstance(layer, ReLU):
        return dy * cache, None
    if isinstance(layer, Flatten):
        return dy.reshape(*dy.shape[:-2], *cache), None
    if isinstance(layer, Dropout):
        if cache is None:
            return dy, None
        return dy * cache, None
    if isinstance(layer, MaxPool2D):
        x_shape, flat = cache
        dx = np.zeros((*dy.shape[: dy.ndim - len(x_shape)], *x_shape), dtype=dy.dtype)
        picks = flat.reshape(-1)
        # one 1-D scatter per leading index: a 2-D fancy index is about 1.6x slower
        for d, g in zip(dx.reshape(-1, picks.size * layer.size**2), dy.reshape(-1, picks.size)):
            d[picks] = g
        return dx, None
    raise TypeError(f"unknown layer {layer!r}")


def grad_sq_norms(layer, cache, dy) -> np.ndarray:
    """Squared Frobenius norm of each example's (dW, db), shaped ``(*lead, N)``.

    ``cache`` comes from ``forward`` on a batch of N examples and ``dy`` is
    ``(*lead, N, *out)``; entry ``[..., n]`` is the squared norm of the
    parameter gradients of a one-example ``backward`` with that row of ``dy``.
    Dense: ||x_n||^2 ||delta||^2 + ||delta||^2, with no outer product formed.
    Conv2D: ||delta^T cols_n||^2 + ||sum over positions of delta||^2, with
    ``cols_n`` the example's im2col rows (positions x C·k·k).
    """
    if isinstance(layer, Dense):
        x = cache
        d2 = (dy * dy).sum(axis=-1)
        return (x * x).sum(axis=-1) * d2 + d2
    if isinstance(layer, Conv2D):
        _, windows = cache
        n, _, ho, wo = windows.shape[:4]
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, ho * wo, -1)
        delta = dy.reshape(*dy.shape[:-2], ho * wo)  # (*lead, N, F, positions)
        dw = np.matmul(delta, cols)  # (*lead, N, F, C·k·k): one small product per example
        db = delta.sum(axis=-1)
        return (dw * dw).sum(axis=(-2, -1)) + (db * db).sum(axis=-1)
    raise TypeError(f"layer {layer!r} has no parameters")


def _conv_input_grad(layer: Conv2D, w: np.ndarray, x_shape: tuple, dy: np.ndarray) -> np.ndarray:
    """Conv2D gradient w.r.t. inputs of per-example shape ``x_shape``.

    One (N*Ho*Wo, F) @ (F, C) product per tap.

    ``dy`` is laid out as rows of output positions once per call; the taps
    are then scatter-added in row-major order, since receptive fields overlap
    when stride < kernel.
    """
    k, s = layer.kernel, layer.stride
    n, f, ho, wo = dy.shape
    rows = dy.transpose(0, 2, 3, 1).reshape(-1, f)
    dx = np.zeros((n, *x_shape), dtype=dy.dtype)
    for ki in range(k):
        for kj in range(k):
            contrib = (rows @ w[:, :, ki, kj]).reshape(n, ho, wo, -1)
            dx[:, :, ki : ki + s * ho : s, kj : kj + s * wo : s] += contrib.transpose(0, 3, 1, 2)
    return dx


def _tile_max(x: np.ndarray, s: int) -> np.ndarray:
    """Each s×s tile's max, by ``np.maximum`` over strided views: columns, then rows.

    A tile holding NaN gets NaN. ``np.maximum``'s choice between a tied -0.0
    and +0.0, and between NaN payloads, is unspecified, so only a max that is
    nonzero and not NaN is certain to carry the bits of its tile's first
    maximal element.
    """
    if s == 1:
        return x.copy()
    cols = x[..., 0::s]
    for j in range(1, s):
        cols = np.maximum(cols, x[..., j::s])
    peak = cols[:, :, 0::s]
    for i in range(1, s):
        peak = np.maximum(peak, cols[:, :, i::s])
    return peak


def _tap_offsets(s: int, w: int) -> np.ndarray:
    """Flat offset of each tile element from the tile's top-left, in rows ``w`` wide."""
    return np.array([i * w + j for i in range(s) for j in range(s)])


def _tile_picks(x: np.ndarray, s: int, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elements (K, s·s) of the K tiles at flat output positions ``tiles``, and argmax's picks.

    Element ``i*s + j`` of a tile is the one at its row i, column j.
    """
    w = x.shape[-1]
    row, col = np.divmod(tiles, w // s)  # row counts (example, channel, tile row) together
    values = np.take(x, (row * (s * w) + s * col)[:, None] + _tap_offsets(s, w))
    return values, values.argmax(axis=-1)


def _maxpool(x: np.ndarray, s: int):
    """Max over each s×s tile plus the cache: x's shape and each max's flat position in x.

    Works on the s·s strided tap views of ``x`` (tap ``i*s + j`` holds the
    tiles' elements at row i, column j): the first tap equal to the tile max
    is ``np.argmax``'s pick. A tile holding NaN has no tap equal to its max
    and takes ``np.argmax`` instead. The outputs are gathered from the picked
    elements, so they carry the first maximal element's bits (see ``_tile_max``).
    """
    n, c, h, w = x.shape
    taps = [x[:, :, i::s, j::s] for i in range(s) for j in range(s)]
    peak = _tile_max(x, s)
    first = np.zeros(peak.shape, dtype=np.intp)  # index of the first tap equal to the max
    missed = taps[0] != peak  # no tap so far equals the max
    for t in taps[1:]:
        first += missed
        missed &= t != peak
    nan = np.flatnonzero(np.isnan(peak))
    if nan.size:
        first.reshape(-1)[nan] = _tile_picks(x, s, nan)[1]
    # flat position in x of each tile's top-left element
    corner = np.arange(n * c).reshape(n, c, 1, 1) * (h * w) + (s * w) * np.arange(h // s)[:, None]
    corner = corner + s * np.arange(w // s)
    flat = corner + _tap_offsets(s, w)[first]
    return np.take(x, flat), (x.shape, flat)


def _maxpool_output(x: np.ndarray, s: int) -> np.ndarray:
    """``_maxpool``'s output, bit for bit, with no cache.

    The tile max stands wherever it is nonzero and not NaN; the other tiles
    take their element at ``np.argmax``'s pick, as ``_maxpool`` does.
    """
    peak = _tile_max(x, s)
    redo = peak == 0
    redo |= np.isnan(peak)
    redo = np.flatnonzero(redo)
    if redo.size:
        values, picks = _tile_picks(x, s, redo)
        peak.reshape(-1)[redo] = values[np.arange(redo.size), picks]
    return peak
