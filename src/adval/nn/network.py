"""Network specification, state, and differentiable evaluation.

A network is a sequence of layer descriptors applied to a fixed input shape.
``NetworkState`` couples a spec with concrete parameter arrays; states are
treated as immutable once created.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from adval.errors import ConfigError, InputError, UnsupportedArchitectureError, require_at_least
from adval.nn import layers as L
from adval.nn.layers import DTYPE, Conv2D, Dense, Dropout, LayerSpec, MaxPool2D, ReLU

_CHUNK = 256  # rows per chunk of a batched evaluation
_BLOCK = 32  # rows per block of the layers below the first Dense or Dropout layer
# CPUs this process may run on: the threads of ``_in_order`` and its items in flight
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class NetworkSpec:
    """Layers applied to a fixed per-sample input shape, ending in ``class_count`` logits.

    Construction checks the spec by walking ``shape_chain``: each layer's
    parameter rule and shape arithmetic live in one place, ``layers.output_shape``,
    so a spec with a bad layer fails at its first such layer.
    """

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    class_count: int
    init_seed: int = 0

    def __post_init__(self):
        require_at_least(self, class_count=2)
        if not self.input_shape or any(d < 1 for d in self.input_shape):
            raise ConfigError(f"input shape must be positive dims, got {self.input_shape}")
        out = self.shape_chain()[-1]
        if out != (self.class_count,):
            raise ConfigError(
                f"network output shape {out} does not match class_count {self.class_count}"
            )

    def shape_chain(self) -> list[tuple[int, ...]]:
        """Per-sample shapes: [input, after layer 0, ..., output].

        Each step is ``layers.output_shape``, which owns every layer rule, so
        this walk is also how a spec checks its layers.
        """
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


def _evaluate(state: NetworkState, x, stop=None, dropout_seed=None) -> np.ndarray:
    """Activations after ``layers[:stop]``, evaluated ``_CHUNK`` rows at a time.

    The chunks are fixed from row 0, so a batch evaluates the same way
    wherever it is scored from, and the peak memory of scoring a pool follows
    the chunk size, not the pool size. ``x`` is a sized sequence of rows,
    sliced one chunk at a time: a ``CandidateSet`` of dataset rows gathers
    each chunk as it is evaluated, so scoring a pool by index copies at most
    one chunk of its inputs. Each chunk's shape is checked before its layers
    run, and so is the empty slice of an ``x`` with no rows. Dropout masks
    come chunk by chunk from one generator; with a single dropout layer that
    is the mask stream of one unchunked pass.

    Each chunk first runs the layers below the first Dense or Dropout layer
    (Conv2D, ReLU, MaxPool2D and Flatten on arch-A) on ``_BLOCK`` rows at a
    time, into one array of the chunk's rows, so Conv2D's im2col columns, the
    largest array of a conv net's pass, stay the size of one block. Those
    layers are row-local (see the ``layers`` module docstring), so a row's
    bits do not depend on its block, and they hold no dropout layer, so the
    blocks draw nothing from the generator. The layers above then run on the
    whole chunk, as an unblocked pass runs them, keeping the Dense layers'
    chunk-sized products.

    With a Conv2D below the first Dense layer (arch-A), each chunk's head, its
    gather, shape check and blocks, is one item of ``_in_order``: up to
    ``_CPUS`` heads run ahead on threads, and the calling thread runs the
    layers above in chunk order, drawing every dropout mask from its one
    generator. The bytes are those of the inline pass, which the other
    networks keep, and the peak memory follows ``_CPUS`` chunks. A chunk that
    fails its shape check raises after the chunks before it, as inline.
    """
    spec = state.spec
    if not len(x):
        _check_batch(spec, x[:0])
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    stop = len(spec.layers) if stop is None else stop
    split = min(stop, _first_index(spec, (Dense, Dropout)))
    shapes = spec.shape_chain()

    def head(lo):
        rows = _check_batch(spec, x[lo : lo + _CHUNK])
        h = np.empty((len(rows), *shapes[split]), DTYPE)
        for b in range(0, len(rows), _BLOCK):
            h[b : b + _BLOCK] = _forward(state, rows[b : b + _BLOCK], 0, split)
        return h

    out = np.empty((len(x), *shapes[stop]), DTYPE)
    chunks = range(0, len(x), _CHUNK)
    heads = _in_order(head, chunks, _has_conv_head(spec))
    for lo in chunks:  # no name holds a head while the next one runs
        out[lo : lo + _CHUNK] = _forward(state, next(heads), split, stop, rng)
    return out


_pool = None  # the threads of ``_in_order``, created at its first threaded call
_pool_lock = threading.Lock()
_worker = threading.local()  # ``_worker.busy`` is set in the pool's own threads


def _mark_worker():
    _worker.busy = True


def _drop_pool():
    """Forget the pool in a forked child, which has none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _in_order(fn, items, threaded):
    """Yield ``fn(item)`` for each of the sized ``items``, in item order.

    Threaded, up to ``_CPUS`` items are computed ahead on one process-wide
    pool of threads, so at most ``_CPUS`` results wait or run at a time. Each
    task runs in a copy of the caller's ``contextvars`` context, where numpy
    keeps ``np.errstate``, and the first failing item's exception is raised
    in order, once the items still running have ended. It runs inline, as
    ``map`` does, when not ``threaded``, on one CPU, for at most one item,
    and when called from a task of the pool, so that no task waits on the
    pool it runs on.
    """
    global _pool
    if not threaded or _CPUS < 2 or len(items) < 2 or getattr(_worker, "busy", False):
        yield from map(fn, items)
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_CPUS, "adval", initializer=_mark_worker)
        pool = _pool
    pending = deque()
    try:
        for item in items:
            if len(pending) == _CPUS:
                yield pending.popleft().result()
            pending.append(pool.submit(contextvars.copy_context().run, fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _has_conv_head(spec: NetworkSpec) -> bool:
    """Whether a Conv2D runs below the first Dense layer: the passes worth threading."""
    return any(isinstance(l, Conv2D) for l in spec.layers[: _first_index(spec, Dense)])


def forward_batch(state: NetworkState, x, *, dropout_seed: int | None = None) -> np.ndarray:
    """Logits (N, class_count). Dropout is identity unless ``dropout_seed`` is given."""
    return _evaluate(state, x, dropout_seed=dropout_seed)


def _forward(state, x, start=0, stop=None, rng=None, caches=None, param_grads=True):
    """Output of ``layers[start:stop]``; with a ``caches`` list, each layer's cache is appended to it.

    The one walk of the forward pass. A ReLU directly followed by a MaxPool2D
    runs as one kernel, same bits: ``layers.relu_maxpool`` when no backward
    pass follows, and otherwise ``layers.relu_maxpool_cached``, whose
    MaxPool2D cache carries ReLU's keep mask and leaves the ReLU's slot None,
    which its backward passes through. Without ``caches`` each layer's cache
    is dropped as it comes, so Conv2D's im2col columns are freed as soon as
    their product is done.
    """
    layers, params = state.spec.layers, state.params
    stop = len(layers) if stop is None else stop
    i = start
    while i < stop:
        if isinstance(layers[i], ReLU) and i + 1 < stop and isinstance(layers[i + 1], MaxPool2D):
            if caches is None:
                x = L.relu_maxpool(x, layers[i + 1].size)
            else:
                x, cache = L.relu_maxpool_cached(x, layers[i + 1].size)
                caches += [None, cache]
            i += 2
        else:
            x, cache = L.forward(layers[i], params[i], x, rng=rng, param_grads=param_grads)
            if caches is not None:
                caches.append(cache)
            i += 1
    return x


def _forward_caches(state, x, *, start=0, stop=None, rng=None, param_grads=True):
    """Output of ``layers[start:stop]`` plus each layer's cache for the backward pass."""
    caches = []
    return _forward(state, x, start, stop, rng, caches, param_grads), caches


def _input_grad(state, caches, dy, start=0, stop=None):
    """Gradient w.r.t. the input of ``layers[start:stop]``, with no parameter gradients formed.

    ``caches`` are those layers' forward caches and ``dy`` the gradient at
    their output, which may carry leading axes in front of the cached batch
    (see ``layers.backward``).
    """
    layers = zip(state.spec.layers[start:stop], state.params[start:stop], caches)
    for layer, params, cache in reversed(list(layers)):
        dy, _ = L.backward(layer, params, cache, dy, param_grads=False)
    return dy


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis, computed with max-subtraction."""
    z = np.asarray(logits, dtype=DTYPE)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def loss_and_param_grads(state, x, labels, *, rng=None, out=None):
    """Mean cross-entropy over the batch plus per-layer parameter gradients, None for
    parameterless layers, into ``out`` (per-layer arrays shaped like ``state.params``).

    Loss and gradient come from the max-shifted exponentials ``e = exp(z)``,
    the gradient's softmax being ``e / sum(e)`` (bit for bit ``softmax_probs``):
    ``mean(log(sum(e)) - z[label])`` stays finite at saturated logits, where
    the log of an underflowed probability would not. Backpropagation stops at
    the lowest layer that has parameters, so the gradient w.r.t. that layer's
    input (which nothing reads) is never formed.
    """
    x = _check_batch(state.spec, x)
    logits, caches = _forward_caches(state, x, rng=rng)
    rows = np.arange(len(labels))
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    loss = float((np.log(s[:, 0]) - z[rows, labels]).sum() / len(labels))  # np.mean's bits
    dy = np.divide(e, s, out=e)
    dy[rows, labels] -= 1.0
    dy /= len(labels)
    layers, params = state.spec.layers, state.params
    lowest = _first_index(state.spec, L.PARAM_KINDS)
    grads = list(out or [None] * len(layers))
    for i in range(len(layers) - 1, lowest - 1, -1):
        dy, grads[i] = L.backward(layers[i], params[i], caches[i], dy, input_grad=i > lowest, out=grads[i])
    return loss, tuple(grads)


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
    lowest = _first_index(state.spec, L.PARAM_KINDS)
    for i in range(len(layers) - 1, lowest - 1, -1):
        if state.params[i] is not None:
            sq += L.grad_sq_norms(layers[i], caches[i], dy)
        if i > lowest:
            dy, _ = L.backward(layers[i], state.params[i], caches[i], dy, param_grads=False)
    return probs, sq.T


def logits_and_deferred_jacobian(state: NetworkState, x: np.ndarray):
    """Logits (G, C) at a group of G >= 1 inputs, plus ``jacobian(rows)``: the input
    Jacobians d logits / d input at the inputs ``rows``, (len(rows), C, *input_shape).

    The layers below the first Dense layer run once on the G rows, as
    ``_evaluate`` runs them, keeping no cache. Their output is copied C times
    along a new axis, and the Dense layers and everything above them run once
    on that (G, C, ...) stack. ``jacobian`` runs the backward pass from
    identity upstream seeds, one per copy, which equals C separate per-logit
    backward passes, for the requested inputs only: above the split on their
    part of the stack, below it on blocks of ``_BLOCK // C`` of them, so that
    a block's C seeds per input make one block of rows. Each block first runs
    the layers below the split again on its inputs for their caches, then
    carries its seeds on a leading axis in front of their rows (see
    ``layers.backward``). A caller that reads only the logits never pays for
    a backward pass, and one that needs some inputs' Jacobians pays for
    theirs alone. The caches are those of a backward pass that forms input
    gradients only (``param_grads=False``): no Conv2D im2col columns and no
    Dense inputs, so a group holds little more than its masks.

    Each input's logits and Jacobian are bit for bit those of running every
    layer on C copies of that input alone. Below the first Dense layer a
    row's bits do not depend on the rows run with it (see the ``layers``
    module docstring). A Dense layer's matrix product may round a row
    differently with another row count, so each input keeps its own C rows:
    on the (G, C, n) stack ``np.matmul`` makes one (C, n) @ (n, m) product
    per input, the product of that input's C copies alone, where one product
    over G·C rows would round some rows differently. Above the first Dense
    layer every sample is a vector, and Dense, ReLU and inactive Dropout
    broadcast over the leading input axis; a Flatten there would flatten the
    copies together, and no architecture has one. With no Dense layer every
    layer runs on the rows.

    Raises InputError when ``x`` is not a batch of the network's input shape.
    """
    spec = state.spec
    c = spec.class_count
    x = _check_batch(spec, x)
    split = _first_index(spec, Dense)
    h = _evaluate(state, x, stop=split)
    copies = np.repeat(h[:, None], c, axis=1)
    logits, above = _forward_caches(state, copies, start=split, param_grads=False)

    def jacobian(rows):
        caches = [cache if cache is None else cache[rows] for cache in above]
        seeds = np.broadcast_to(np.eye(c, dtype=DTYPE), (len(rows), c, c))
        dy = _input_grad(state, caches, seeds, start=split)  # (rows, C, ...)
        jac = np.empty((len(rows), c, *spec.input_shape), DTYPE)
        block = max(1, _BLOCK // c)  # inputs whose C seeds make one block of rows
        for lo in range(0, len(rows), block):
            below = _forward_caches(state, x[rows[lo : lo + block]], stop=split, param_grads=False)[1]
            dx = _input_grad(state, below, dy[lo : lo + block].swapaxes(0, 1), stop=split)
            jac[lo : lo + block] = dx.swapaxes(0, 1)
        return jac

    return logits[:, 0], jacobian


def logits_and_input_jacobian(state: NetworkState, x: np.ndarray):
    """Logits plus the full Jacobian d logits / d input, shape (C, *input_shape), at one input."""
    logits, jacobian = logits_and_deferred_jacobian(state, np.asarray(x, dtype=DTYPE)[None])
    return logits[0], jacobian([0])[0]


def _first_index(spec: NetworkSpec, kinds) -> int:
    """Index of the first layer that is an instance of ``kinds``, ``len(layers)`` if none is."""
    return next((i for i, l in enumerate(spec.layers) if isinstance(l, kinds)), len(spec.layers))


def embed_batch(state: NetworkState, x) -> np.ndarray:
    """Pre-logit features: activations entering the final dense layer."""
    dense = [i for i, layer in enumerate(state.spec.layers) if isinstance(layer, Dense)]
    if not dense:
        raise UnsupportedArchitectureError("network has no dense layer to embed from")
    return _evaluate(state, x, stop=dense[-1])


def predict_batch(state: NetworkState, x: np.ndarray) -> np.ndarray:
    """Argmax predictions."""
    return forward_batch(state, x).argmax(axis=1)


def accuracy(state: NetworkState, x: np.ndarray, labels: np.ndarray) -> float:
    return float((predict_batch(state, x) == np.asarray(labels)).mean())
