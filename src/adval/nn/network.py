"""Network specification, state, and differentiable evaluation.

A network is a sequence of layer descriptors applied to a fixed input shape.
``NetworkState`` couples a spec with concrete parameter arrays; states are
treated as immutable once created.

Batched evaluation (``forward_batch``, ``embed_batch``, ``predict_batch``)
runs the layers over fixed chunks of ``_CHUNK`` rows from row 0: a batch
evaluates the same way wherever it is scored from, and the peak memory of
scoring a pool depends on the chunk size, not on the pool size. Its input may
be an ``IndexedRows`` view, rows of a larger array picked by index: each chunk
is then gathered by index as it is evaluated, with the bits of the same chunk
of the gathered rows, so scoring a whole pool by index copies at most one
chunk of its inputs. It runs no backward pass, so it builds no backward
cache: MaxPool2D skips its pick and returns the same bits (see
``layers.forward``).

Each backward pass computes only what its caller reads: training gets
parameter gradients and no gradient w.r.t. the network input, while the input
gradients and Jacobians used by DeepFool get no parameter gradients.
``probs_and_grad_sq_norms`` serves EGL with neither: its backward pass carries
a leading class axis in front of the batch (see ``layers.backward``) and sums
each example's squared parameter-gradient norm per class as it goes down.
``logits_and_deferred_jacobian`` splits a Jacobian into its forward pass,
run at once, and its backward pass, run only when the caller asks for it. Its
forward pass runs the layers below the first Dense layer on the one point and
only the Dense layers and those above them on C copies, with the bits of an
all-C-row pass.

The training loss comes from ``loss_and_param_grads``, out of the max-shifted
exponentials ``e = exp(z)`` that also give the gradient's softmax ``e / sum(e)``
(bit for bit ``softmax_probs``): ``mean(log(sum(e)) - z[label])`` stays finite
at saturated logits, where the log of an underflowed probability would not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from adval.errors import ConfigError, InputError, UnsupportedArchitectureError
from adval.nn import layers as L
from adval.nn.layers import DTYPE, Dense, Dropout, LayerSpec

_CHUNK = 256  # rows per chunk of a batched evaluation


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    class_count: int
    init_seed: int = 0

    def __post_init__(self):
        if self.class_count < 2:
            raise ConfigError(f"class_count must be >= 2, got {self.class_count}")
        if not self.input_shape or any(d < 1 for d in self.input_shape):
            raise ConfigError(f"input shape must be positive dims, got {self.input_shape}")
        for layer in self.layers:
            L.validate_layer(layer)
        out = self.shape_chain()[-1]
        if out != (self.class_count,):
            raise ConfigError(
                f"network output shape {out} does not match class_count {self.class_count}"
            )

    def shape_chain(self) -> list[tuple[int, ...]]:
        """Per-sample shapes: [input, after layer 0, ..., output]."""
        shapes = [tuple(self.input_shape)]
        for layer in self.layers:
            shapes.append(L.output_shape(layer, shapes[-1]))
        return shapes

    def has_dropout(self) -> bool:
        return any(isinstance(l, Dropout) for l in self.layers)


@dataclass(frozen=True)
class NetworkState:
    spec: NetworkSpec
    params: tuple  # per-layer dict of arrays, or None for parameterless layers


def init_network(spec: NetworkSpec) -> NetworkState:
    """Fresh parameters from the spec's init seed: Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(spec.init_seed)
    shapes = spec.shape_chain()
    params = tuple(
        L.init_params(layer, shapes[i], rng) for i, layer in enumerate(spec.layers)
    )
    return NetworkState(spec=spec, params=params)


def _check_batch(spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=DTYPE)
    if x.shape[1:] != spec.input_shape:
        raise InputError(
            f"input shape {x.shape[1:]} does not match network input {spec.input_shape}"
        )
    return x


@dataclass(frozen=True, eq=False)
class IndexedRows:
    """The rows ``rows`` of ``source``, gathered only when sliced.

    ``len(view)`` is ``len(rows)`` and ``view[a:b]`` is ``source[rows[a:b]]``.
    Batched evaluation takes one in place of an input array.
    """

    source: np.ndarray  # (n_source, *input_shape)
    rows: np.ndarray  # (n,) integer positions into source

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, key) -> np.ndarray:
        return self.source[self.rows[key]]


def _evaluate(
    state: NetworkState, x: np.ndarray | IndexedRows, stop=None, dropout_seed=None
) -> np.ndarray:
    """Activations after ``layers[:stop]``, evaluated ``_CHUNK`` rows at a time.

    An ``IndexedRows`` input is gathered one chunk at a time. Dropout masks
    come chunk by chunk from one generator; with a single dropout layer that
    is the mask stream of one unchunked pass.
    """
    if isinstance(x, IndexedRows):
        x = IndexedRows(_check_batch(state.spec, x.source), x.rows)
    else:
        x = _check_batch(state.spec, x)
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    out = np.empty((len(x), *state.spec.shape_chain()[-1 if stop is None else stop]), DTYPE)
    for lo in range(0, len(x), _CHUNK):
        rows = x[lo : lo + _CHUNK]
        out[lo : lo + _CHUNK] = _forward_caches(state, rows, stop=stop, rng=rng, cache=False)[0]
    return out


def forward_batch(
    state: NetworkState, x: np.ndarray | IndexedRows, *, dropout_seed: int | None = None
) -> np.ndarray:
    """Logits (N, class_count). Dropout is identity unless ``dropout_seed`` is given."""
    return _evaluate(state, x, dropout_seed=dropout_seed)


def _forward_caches(state, x, *, start=0, stop=None, rng=None, cache=True):
    """Output of ``layers[start:stop]`` plus each layer's cache for the backward pass.

    ``cache=False`` is for a pass no backward pass follows; see ``layers.forward``.
    """
    caches = []
    for layer, params in zip(state.spec.layers[start:stop], state.params[start:stop]):
        x, c = L.forward(layer, params, x, rng=rng, cache=cache)
        caches.append(c)
    return x, caches


def _lowest_param_layer(state) -> int:
    """Index of the lowest layer with parameters (``len(layers)`` if none has any)."""
    return next((i for i, p in enumerate(state.params) if p is not None), len(state.params))


def _param_grads(state, caches, dlogits, out=None):
    """Per-layer parameter gradients; None for parameterless layers.

    Backpropagation stops at the lowest layer that has parameters, so the
    gradient w.r.t. that layer's input (which nothing reads) is never formed.
    ``out`` (per-layer arrays shaped like ``state.params``) receives the gradients.
    """
    layers = state.spec.layers
    lowest = _lowest_param_layer(state)
    grads = list(out or [None] * len(layers))
    dy = dlogits
    for i in range(len(layers) - 1, lowest - 1, -1):
        dy, grads[i] = L.backward(
            layers[i], state.params[i], caches[i], dy, input_grad=i > lowest, out=grads[i]
        )
    return tuple(grads)


def _input_grad(state, caches, dlogits, split=0):
    """Gradient w.r.t. the network input, with no parameter gradients formed.

    Returns one input gradient per row of ``dlogits``, ``(len(dlogits), *input_shape)``.
    A ``split`` > 0 says that ``layers[:split]`` ran on one input row and the
    layers above on as many copies of its output as ``dlogits`` has rows
    (see ``logits_and_deferred_jacobian``): below the split, those rows become
    a leading axis of seeds over the one cached row.
    """
    layers, params = state.spec.layers, state.params
    dy = dlogits
    for i in range(len(layers) - 1, -1, -1):
        if i == split - 1:
            dy = dy[:, None]
        dy, _ = L.backward(layers[i], params[i], caches[i], dy, param_grads=False)
    return dy.reshape(len(dlogits), *state.spec.input_shape)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis, computed with max-subtraction."""
    z = np.asarray(logits, dtype=DTYPE)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def loss_and_param_grads(state, x, labels, *, rng=None, out=None):
    """Mean cross-entropy over the batch plus gradients for every parameter (into ``out``)."""
    x = _check_batch(state.spec, x)
    logits, caches = _forward_caches(state, x, rng=rng)
    rows = np.arange(len(labels))
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    loss = float((np.log(s[:, 0]) - z[rows, labels]).sum() / len(labels))  # np.mean's bits
    dlogits = np.divide(e, s, out=e)
    dlogits[rows, labels] -= 1.0
    dlogits /= len(labels)
    return loss, _param_grads(state, caches, dlogits, out)


def _check_label(spec: NetworkSpec, label: int) -> int:
    label = int(label)
    if not 0 <= label < spec.class_count:
        raise InputError(f"label {label} outside [0, {spec.class_count})")
    return label


def grad_params(state: NetworkState, x: np.ndarray, label: int):
    """Cross-entropy gradient w.r.t. every parameter, for one (input, label) pair.

    Dropout is disabled; the result is deterministic.
    """
    label = _check_label(state.spec, label)
    _, grads = loss_and_param_grads(state, np.asarray(x, dtype=DTYPE)[None], np.array([label]))
    return grads


def probs_and_grad_sq_norms(state: NetworkState, x: np.ndarray):
    """Softmax probabilities and squared cross-entropy gradient norms, both (N, C).

    ``sq[n, c]`` is the squared euclidean norm, over every parameter jointly,
    of the gradient of example n's own loss at label c, as ``grad_params``
    gives it. One forward pass over the batch (dropout disabled) and one
    backward pass whose upstream gradient ``softmax - e_c`` has a leading axis
    of C seeds; the per-class gradients themselves are never formed.
    """
    x = _check_batch(state.spec, x)
    logits, caches = _forward_caches(state, x)
    probs = softmax_probs(logits)
    c = state.spec.class_count
    dy = probs - np.eye(c, dtype=DTYPE)[:, None, :]  # (C, N, C): seed c is softmax - e_c
    sq = np.zeros((c, len(x)), dtype=DTYPE)
    layers = state.spec.layers
    lowest = _lowest_param_layer(state)
    for i in range(len(layers) - 1, lowest - 1, -1):
        if state.params[i] is not None:
            sq += L.grad_sq_norms(layers[i], caches[i], dy)
        if i > lowest:
            dy, _ = L.backward(layers[i], state.params[i], caches[i], dy, param_grads=False)
    return probs, sq.T


def logits_and_deferred_jacobian(state: NetworkState, x: np.ndarray):
    """Logits at one input ``x`` plus a function that returns d logits / d input, (C, *input_shape).

    The layers below the first Dense layer run once, on ``x`` alone; their
    output is copied to C rows, and the Dense layers and everything above
    them run on that C-row batch. Calling the returned function runs the
    backward pass from identity upstream seeds, one per row, which equals C
    separate per-logit backward passes; below the split the seeds ride on a
    leading axis (see ``_input_grad``). A caller that reads only the logits
    never pays for the backward.

    The result is bit for bit that of running every layer on C copies of
    ``x``. Below the first Dense layer each row's bits do not depend on how
    many rows run together: ReLU, MaxPool2D, Flatten and inactive Dropout
    work element by element or only reshape, and Conv2D's batched product
    runs one product per example. A Dense layer's matrix product may round a
    row differently with a different row count, so the Dense layers keep
    their C rows. With no Dense layer, every layer runs on ``x`` alone.

    Raises InputError when ``x`` does not have the network's input shape.
    """
    spec = state.spec
    c = spec.class_count
    x = _check_batch(spec, np.asarray(x, dtype=DTYPE)[None])
    split = _first_dense_index(spec)
    h, below = _forward_caches(state, x, stop=split)
    logits, above = _forward_caches(state, np.repeat(h, c, axis=0), start=split)
    caches = below + above
    return logits[0], lambda: _input_grad(state, caches, np.eye(c, dtype=DTYPE), split)


def logits_and_input_jacobian(state: NetworkState, x: np.ndarray):
    """Logits plus the full Jacobian d logits / d input, shape (C, *input_shape)."""
    logits, jacobian = logits_and_deferred_jacobian(state, x)
    return logits, jacobian()


def _first_dense_index(spec: NetworkSpec) -> int:
    """Index of the first Dense layer, ``len(layers)`` if there is none."""
    return next((i for i, l in enumerate(spec.layers) if isinstance(l, Dense)), len(spec.layers))


def _last_dense_index(spec: NetworkSpec) -> int:
    for i in range(len(spec.layers) - 1, -1, -1):
        if isinstance(spec.layers[i], Dense):
            return i
    raise UnsupportedArchitectureError("network has no dense layer to embed from")


def embed_batch(state: NetworkState, x: np.ndarray | IndexedRows) -> np.ndarray:
    """Pre-logit features: activations entering the final dense layer."""
    return _evaluate(state, x, stop=_last_dense_index(state.spec))


def predict_batch(state: NetworkState, x: np.ndarray) -> np.ndarray:
    """Argmax predictions."""
    return forward_batch(state, x).argmax(axis=1)


def accuracy(state: NetworkState, x: np.ndarray, labels: np.ndarray) -> float:
    return float((predict_batch(state, x) == np.asarray(labels)).mean())
