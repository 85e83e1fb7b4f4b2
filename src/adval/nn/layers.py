"""Layer descriptors and their forward/backward kernels.

All kernels operate on batched float64 arrays. Inputs use row-major layout:
dense activations are (N, features), convolutional activations are
(N, channels, height, width). Each forward kernel returns the output plus a
cache consumed by the matching backward kernel. A backward kernel computes
only the gradients its caller requests: the gradient w.r.t. the layer input
(``input_grad``) and, for parameterized layers, gradients shaped exactly like
the parameters (``param_grads``). Whatever is not requested comes back as None
and costs nothing.

A ReLU directly followed by a MaxPool2D runs as one kernel that pools first,
same bits: ``relu_maxpool`` keeps no cache, and ``relu_maxpool_cached`` gives
MaxPool2D's cache a third item, ReLU's keep mask at the picks, and the ReLU a
cache of None. Every MaxPool2D pick, fused or not, is ``_first_taps``'s: a
tile's first tap equal to its max, as ``np.argmax`` picks. A tile holding NaN
picks its first NaN, and after ReLU a ±0-max tile holds tied zeros: tap 0.

Row locality: every layer but Dense computes a row's bits from that row
alone, so they do not depend on the rows run with it. ReLU, MaxPool2D,
Flatten and inactive Dropout work element by element or only reshape;
Conv2D's batched product runs one product per example, and its input
gradient runs one example at a time, with that example's leading seeds as
the batch of an ordinary call. A Dense layer's matrix product may round a row
differently with another row count. This is what lets a network split,
block and stack its rows with the bits of one pass.

Conv2D's forward copies its receptive fields into im2col columns laid out
(N, C·k·k, Ho·Wo) and multiplies them by the (F, C·k·k) kernel matrix in one
batched product, whose (N, F, Ho·Wo) result is already NCHW. On arch-A's
shapes (one channel, 8 filters of 5×5 over 8×8, 12×12, 16×16 or 28×28 inputs)
this is bit-equal to contracting the window view with ``np.tensordot`` on the
OpenBLAS SkylakeX and Haswell kernels. On other shapes OpenBLAS may take
another kernel path and round the last bit differently: 2×2 and 1×1 outputs,
some multi-channel shapes, and a single filter (a matrix-vector product).

Conv2D's full cache is the input's shape and these columns. The backward pass
and ``grad_sq_norms`` contract over output positions, so they copy the
columns to (positions, C·k·k) rows: one transpose of a cached array, not a
second gather from the input's windows. The rows are C-contiguous, as in a
product over a fresh im2col, so the products keep their bits: a transposed
operand would take another OpenBLAS path, whose small-matrix kernel on
AVX-512 rounds differently.
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
    flows to that element alone.
    """

    size: int


@dataclass(frozen=True)
class ReLU:
    """``x * (x > 0)``: a positive value keeps its bits, NaN stays NaN, -inf becomes
    NaN, and every other value a zero of its own sign."""


@dataclass(frozen=True)
class Dropout:
    rate: float


@dataclass(frozen=True)
class Flatten:
    pass


LayerSpec = Dense | Conv2D | MaxPool2D | ReLU | Dropout | Flatten


def output_shape(layer: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-sample output shape of ``layer`` applied to per-sample ``in_shape``.

    The one owner of each layer kind's rules: its parameter rule (positive
    sizes, a dropout rate in [0, 1)), checked first, then the shape
    arithmetic. ``NetworkSpec`` checks a network by walking its layers through
    here, and arch-A reads its Dense width from the same walk. Raises
    ConfigError when a parameter breaks its rule or the shapes do not compose.
    """
    if isinstance(layer, Dense):
        if layer.in_features < 1 or layer.out_features < 1:
            raise ConfigError(f"dense layer dimensions must be positive, got {layer}")
        if in_shape != (layer.in_features,):
            raise ConfigError(
                f"dense layer expects ({layer.in_features},), got input shape {in_shape}"
            )
        return (layer.out_features,)
    if isinstance(layer, Conv2D):
        if layer.filters < 1 or layer.kernel < 1 or layer.stride < 1:
            raise ConfigError(f"conv2d parameters must be positive, got {layer}")
        if len(in_shape) != 3:
            raise ConfigError(f"conv2d expects (channels, h, w) input, got {in_shape}")
        c, h, w = in_shape
        k, s = layer.kernel, layer.stride
        if h < k or w < k:
            raise ConfigError(f"conv2d kernel {k} does not fit input {in_shape}")
        return (layer.filters, (h - k) // s + 1, (w - k) // s + 1)
    if isinstance(layer, MaxPool2D):
        if layer.size < 1:
            raise ConfigError(f"maxpool size must be positive, got {layer}")
        if len(in_shape) != 3:
            raise ConfigError(f"maxpool expects (channels, h, w) input, got {in_shape}")
        c, h, w = in_shape
        if h % layer.size or w % layer.size:
            raise ConfigError(
                f"maxpool size {layer.size} must divide spatial dims of {in_shape}"
            )
        return (c, h // layer.size, w // layer.size)
    if isinstance(layer, Dropout) and not 0.0 <= layer.rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {layer.rate}")
    if isinstance(layer, Flatten):
        return (int(np.prod(in_shape)),)
    # ReLU / Dropout are shape-preserving
    return in_shape


# the layer kinds that carry parameters: the ones init_params draws weights for
PARAM_KINDS = (Conv2D, Dense)


def init_params(layer: LayerSpec, in_shape: tuple[int, ...], rng: np.random.Generator):
    """Glorot-uniform weights, zero biases. Returns None for parameterless layers.

    A Dense layer is a 1×1 receptive field over ``in_features`` channels: both
    kinds take fans of (channels in + units) · receptive area.
    """
    if isinstance(layer, Dense):
        c_in, units, area = layer.in_features, layer.out_features, 1
        shape = (c_in, units)
    elif isinstance(layer, Conv2D):
        c_in, units, area = in_shape[0], layer.filters, layer.kernel**2
        shape = (units, c_in, layer.kernel, layer.kernel)
    else:
        return None
    limit = np.sqrt(6.0 / ((c_in + units) * area))
    w = rng.uniform(-limit, limit, size=shape).astype(DTYPE)
    return {"W": w, "b": np.zeros(units, dtype=DTYPE)}


def _conv_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Read-only strided view (N, C, Ho, Wo, k, k) of every receptive field.

    The view is built by the ndarray constructor over a C-contiguous ``x``.
    ``as_strided`` would round-trip ``__array_interface__``, which interns
    strings and drops them again on every call, so every ~10^4 calls the
    interpreter rebuilds its interned-string table (about 1.9 MB) inside
    whatever layer call happens to cross the count.
    """
    x = np.ascontiguousarray(x)
    n, c, h, w = x.shape
    ho = (h - kernel) // stride + 1
    wo = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    windows = np.ndarray(
        (n, c, ho, wo, kernel, kernel),
        x.dtype,
        buffer=x,
        strides=(sn, sc, stride * sh, stride * sw, sh, sw),
    )
    windows.flags.writeable = False
    return windows


def forward(layer, params, x, *, rng=None, param_grads=True):
    """Apply ``layer`` to batch ``x``; returns (output, cache).

    ``rng`` supplies dropout masks and switches dropout on; without it
    dropout is the identity (inverted-dropout scaling happens at train time,
    so deterministic inference needs no rescaling).

    ``param_grads=False`` tells the layer that its backward pass will form no
    parameter gradient: Conv2D then caches None for its im2col columns, and
    Dense None for its input, with the same output bits. The other layers'
    caches cost no extra work and stay as they are.
    """
    if isinstance(layer, Dense):
        return x @ params["W"] + params["b"], x if param_grads else None
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
        return y.reshape(n, layer.filters, ho, wo), (x.shape, cols if param_grads else None)
    if isinstance(layer, MaxPool2D):
        return _maxpool(x, layer.size)
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
    explicitly; Conv2D runs one example at a time (see row locality in the
    module docstring).

    A MaxPool2D cache that carries ReLU's keep mask (``relu_maxpool_cached``)
    gives the gradient through both layers, and a ReLU or Dropout cache of
    None passes ``dy`` through.
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
        x_shape, cols = cache
        dx = None
        if input_grad and dy.ndim == 4:
            dx = _conv_input_grad(layer, params["W"], x_shape[1:], dy)
        elif input_grad:  # leading axes: one example at a time, with its seeds as the batch
            per_example = [_conv_input_grad(layer, params["W"], x_shape[1:], d.reshape(-1, *d.shape[-3:]))
                           for d in np.moveaxis(dy, -4, 0)]
            dx = np.stack(per_example, axis=-4).reshape(*dy.shape[:-4], *x_shape)
        grads = None
        if param_grads:
            # (F, C·k·k) <- contract batch and output positions, as np.tensordot does,
            # over the forward's columns copied to (N·Ho·Wo, C·k·k) rows
            rows = dy.transpose(1, 0, 2, 3).reshape(dy.shape[1], -1)
            patches = cols.transpose(0, 2, 1).reshape(rows.shape[1], -1)
            dw = np.dot(rows, patches, out=None if w_out is None else w_out.reshape(len(rows), -1))
            grads = {"W": dw.reshape(params["W"].shape), "b": dy.sum(axis=(0, 2, 3), out=b_out)}
        return dx, grads
    if not input_grad:
        return None, None
    if isinstance(layer, (ReLU, Dropout)):
        return (dy if cache is None else dy * cache), None
    if isinstance(layer, Flatten):
        return dy.reshape(*dy.shape[:-2], *cache), None
    if isinstance(layer, MaxPool2D):
        x_shape, flat, keep = cache
        if keep is not None:
            dy = dy * keep
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
    ``cols_n`` the example's cached im2col columns copied to (positions x C·k·k).
    """
    if isinstance(layer, Dense):
        x = cache
        d2 = (dy * dy).sum(axis=-1)
        return (x * x).sum(axis=-1) * d2 + d2
    if isinstance(layer, Conv2D):
        _, cols = cache
        delta = dy.reshape(*dy.shape[:-2], cols.shape[-1])  # (*lead, N, F, positions)
        # (*lead, N, F, C·k·k): one small product per example
        dw = np.matmul(delta, np.ascontiguousarray(cols.transpose(0, 2, 1)))
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


def _first_taps(x: np.ndarray, s: int, peak: np.ndarray) -> np.ndarray:
    """Index ``i*s + j`` of each tile's first tap equal to ``peak``, s·s - 1 where none is.

    Tap ``i*s + j`` is the strided view of the tiles' elements at row i,
    column j. The index accumulates in the smallest unsigned type that holds
    it (uint8 up to 16×16 tiles), which makes the s·s passes cheaper.
    """
    first = np.zeros(peak.shape, np.min_scalar_type(s * s))
    missed = np.ones(peak.shape, bool)  # no tap so far equals the max
    for k in range(s * s - 1):  # a tile that misses every earlier tap takes the last one
        missed &= x[:, :, k // s :: s, k % s :: s] != peak
        first += missed
    return first


def _flat_picks(shape: tuple, s: int, first: np.ndarray) -> np.ndarray:
    """Flat position in an input of ``shape`` of each tile's tap ``first``."""
    n, c, h, w = shape
    # each tile's top-left element; a row counts (example, channel, tile row) together
    corner = (s * w) * np.arange(n * c * (h // s))[:, None] + s * np.arange(w // s)
    taps = np.array([i * w + j for i in range(s) for j in range(s)])  # offsets from the top-left
    return corner.reshape(first.shape) + np.take(taps, first)


def _maxpool(x: np.ndarray, s: int):
    """Max over each s×s tile plus the cache: x's shape, each max's flat position in x, and None.

    Each tile picks its first tap equal to its max, ``np.argmax``'s pick; a
    tile holding NaN, which no tap equals, picks its first NaN. The outputs
    are gathered from the picked elements, so they carry the first maximal
    element's bits (see ``_tile_max``).
    """
    peak = _tile_max(x, s)
    first = _first_taps(x, s, peak)
    nan = np.isnan(peak)
    if nan.any():
        first[nan] = _first_taps(np.isnan(x), s, nan)[nan]
    flat = _flat_picks(x.shape, s, first)
    return np.take(x, flat), (x.shape, flat, None)


def _relu_pool(x: np.ndarray, s: int) -> np.ndarray | None:
    """``MaxPool2D(s)`` of ``ReLU`` of ``x``, bit for bit, pooling first; None if ``x`` holds a NaN or -inf.

    Pooling first rectifies only the tile maxima, a quarter of the values
    under a 2×2 pool. ReLU keeps a positive value's bits and sends every other value to a
    zero, so a tile whose max is positive keeps that max, and a tile whose
    max is negative gives -0.0 both ways: ``np.maximum(max, -0.0)`` is one
    or the other. After ReLU a tile whose max is ±0 holds only zeros, all
    tied, so its first tap equal to the max is tap 0: that element times 0.0.
    An input holding a NaN or -inf must run the two layers, because ReLU maps
    -inf to NaN (-inf · 0, with numpy's invalid-value warning), which a max
    taken first would pass over.
    """
    if not x.min(initial=np.inf) > -np.inf:
        return None
    peak = _tile_max(x, s)
    zero = peak == 0
    np.maximum(peak, -0.0, out=peak)
    if zero.any():
        np.multiply(x[:, :, ::s, ::s], 0.0, out=peak, where=zero)
    return peak


def relu_maxpool(x: np.ndarray, s: int) -> np.ndarray:
    """``MaxPool2D(s)`` of ``ReLU`` of ``x`` with no cache, bit for bit (see ``_relu_pool``)."""
    y = _relu_pool(x, s)
    return _maxpool(x * (x > 0), s)[0] if y is None else y


def relu_maxpool_cached(x: np.ndarray, s: int):
    """``relu_maxpool`` plus a MaxPool2D cache whose third item is ReLU's keep mask at the picks.

    After ReLU a tile whose max is positive picks its first tap equal to that
    max, and any other tile holds only zeros, where ``np.argmax`` picks tap 0.
    ReLU's mask at a pick is ``y > 0``, so MaxPool2D's backward scatters
    ``dy * keep``: the gradient of the two layers, bit for bit.
    """
    y = _relu_pool(x, s)
    if y is None:
        y, (_, flat, _) = _maxpool(x * (x > 0), s)
        return y, (x.shape, flat, y > 0)
    keep = y > 0
    first = _first_taps(x, s, y)
    first *= keep
    return y, (x.shape, _flat_picks(x.shape, s, first), keep)
