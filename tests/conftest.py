"""Shared fixtures: random small networks, trained nets on blob data, oracles and references."""

import numpy as np
import pytest

from adval import nn
from adval.data import Dataset, SyntheticSpec, gen_blobs
from adval.errors import InputError
from adval.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    NetworkSpec,
    ReLU,
    TrainConfig,
)
from adval.nn.layers import _conv_windows
from adval.nn.layers import backward as layer_backward
from adval.nn.layers import forward as layer_forward
from adval.nn.network import _check_batch, _check_label, _forward_caches, _input_grad


def random_dense_spec(rng: np.random.Generator, with_dropout: bool = False) -> NetworkSpec:
    """Small random dense net: 1-2 hidden layers, 2-5 classes."""
    dim = int(rng.integers(2, 6))
    classes = int(rng.integers(2, 6))
    hidden = [int(rng.integers(3, 9)) for _ in range(int(rng.integers(1, 3)))]
    widths = [dim, *hidden]
    layers = []
    for a, b in zip(widths, widths[1:]):
        layers += [Dense(a, b), ReLU()]
    if with_dropout:
        layers.append(Dropout(0.25))
    layers.append(Dense(widths[-1], classes))
    return NetworkSpec((dim,), tuple(layers), classes, init_seed=int(rng.integers(1 << 31)))


def random_conv_spec(rng: np.random.Generator) -> NetworkSpec:
    """Small random conv net on a single-channel 8x8 or 10x10 image."""
    side = int(rng.choice([8, 10]))
    classes = int(rng.integers(2, 5))
    filters = int(rng.integers(2, 5))
    conv = Conv2D(filters=filters, kernel=3, stride=1)
    after = side - 2
    layers = [conv, ReLU(), MaxPool2D(2), Flatten()]
    flat = filters * (after // 2) ** 2
    layers += [Dense(flat, int(rng.integers(4, 9))), ReLU()]
    layers += [Dense(layers[-2].out_features, classes)]
    return NetworkSpec(
        (1, side, side), tuple(layers), classes, init_seed=int(rng.integers(1 << 31))
    )


def forward(state, x) -> np.ndarray:
    """Logits (class_count,) for a single finite input: a one-row ``forward_batch``."""
    x = _check_batch(state.spec, np.asarray(x, dtype=float)[None])
    if not np.all(np.isfinite(x)):
        raise InputError("input contains non-finite values")
    return nn.forward_batch(state, x)[0]


def reference_conv_forward(layer: Conv2D, params, x) -> np.ndarray:
    """Conv2D output by contracting the window view with the kernel in ``np.tensordot``."""
    windows = _conv_windows(x, layer.kernel, layer.stride)
    y = np.tensordot(windows, params["W"], axes=([1, 4, 5], [1, 2, 3]))  # (N, Ho, Wo, F)
    return y.transpose(0, 3, 1, 2) + params["b"][None, :, None, None]


def clone_params(params):
    """Independent copy of a state's per-layer parameter dicts."""
    return tuple(
        None if p is None else {k: v.copy() for k, v in p.items()} for p in params
    )


def log_softmax(logits):
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy(logits, labels) -> float:
    """Mean negative log-likelihood over the batch, through a full log-softmax."""
    lp = log_softmax(logits)
    return float(-lp[np.arange(len(labels)), labels].mean())


def training_loss(state, examples) -> float:
    """Mean cross-entropy over (input, label) pairs with dropout disabled."""
    x = np.stack([np.asarray(e[0], dtype=float) for e in examples])
    y = np.array([int(e[1]) for e in examples])
    return cross_entropy(nn.forward_batch(state, x), y)


def fd_loss_param_grad(state, x, label, layer_idx, key, flat_index, h=1e-4):
    """Central finite difference of the cross-entropy loss w.r.t. one parameter."""

    def loss_with(delta):
        params = clone_params(state.params)
        params[layer_idx][key].ravel()[flat_index] += delta
        moved = nn.NetworkState(state.spec, params)
        logits = forward(moved, x)
        return cross_entropy(logits[None], np.array([label]))

    return (loss_with(h) - loss_with(-h)) / (2 * h)


def fd_input_logit_grad(state, x, k, flat_index, h=1e-4):
    """Central finite difference of logit k w.r.t. one input coordinate."""

    def logit_with(delta):
        moved = np.array(x, dtype=float)
        moved.ravel()[flat_index] += delta
        return forward(state, moved)[k]

    return (logit_with(h) - logit_with(-h)) / (2 * h)


def grad_input_logit(state, x, k) -> np.ndarray:
    """Gradient of logit ``k`` w.r.t. one input, by one backward pass from a one-hot seed."""
    k = _check_label(state.spec, k)
    _, caches = _forward_caches(state, _check_batch(state.spec, np.asarray(x, dtype=float)[None]))
    seed = np.zeros((1, state.spec.class_count))
    seed[0, k] = 1.0
    return _input_grad(state, caches, seed)[0]


def reference_logits_and_jacobian(state, x):
    """Logits and input Jacobian with every layer run on C copies of ``x``, seeded by the identity."""
    c = state.spec.class_count
    h = np.repeat(np.asarray(x, dtype=float)[None], c, axis=0)
    caches = []
    for layer, params in zip(state.spec.layers, state.params):
        h, cache = layer_forward(layer, params, h)
        caches.append(cache)
    dy = np.eye(c)
    for layer, params, cache in reversed(list(zip(state.spec.layers, state.params, caches))):
        dy, _ = layer_backward(layer, params, cache, dy, param_grads=False)
    return h[0], dy


def reference_egl_scores(state, inputs) -> np.ndarray:
    """EGL by definition: one ``grad_params`` call per (candidate, class)."""
    probs = nn.softmax_probs(nn.forward_batch(state, inputs))
    scores = np.empty(len(inputs))
    for i, x in enumerate(inputs):
        total = 0.0
        for c in range(state.spec.class_count):
            sq = 0.0
            for g in nn.grad_params(state, x, c):
                if g is not None:
                    for v in g.values():
                        sq += float((v * v).sum())
            total += probs[i, c] * np.sqrt(sq)
        scores[i] = total
    return scores


def rel_err(a, b, floor=1e-6):
    diff = abs(a - b)
    if diff < floor:
        return 0.0
    return diff / max(abs(a), abs(b))


BLOB_SPEC_3C = SyntheticSpec(class_count=3, points_per_class=150, cov_scale=0.55, seed=7)
BLOB_SPEC_4C = SyntheticSpec(class_count=4, points_per_class=150, cov_scale=0.45, seed=11)


def small_blob_net(blobs: Dataset, hidden=(24,), seed=2, epochs=800) -> nn.NetworkState:
    layers = []
    widths = [blobs.input_shape[0], *hidden]
    for a, b in zip(widths, widths[1:]):
        layers += [Dense(a, b), ReLU()]
    layers.append(Dense(widths[-1], blobs.class_count))
    spec = NetworkSpec(blobs.input_shape, tuple(layers), blobs.class_count, init_seed=seed)
    state = nn.init_network(spec)
    cfg = TrainConfig(epochs=epochs, seed=seed)
    return nn.train(state, list(zip(blobs.inputs, blobs.labels)), cfg)


@pytest.fixture(scope="session")
def blobs3() -> Dataset:
    return gen_blobs(BLOB_SPEC_3C)


@pytest.fixture(scope="session")
def blobs4() -> Dataset:
    return gen_blobs(BLOB_SPEC_4C)


@pytest.fixture(scope="session")
def trained3(blobs3) -> nn.NetworkState:
    """3-class 2D net trained well enough for attack geometry tests."""
    return small_blob_net(blobs3)


@pytest.fixture(scope="session")
def trained4(blobs4) -> nn.NetworkState:
    return small_blob_net(blobs4)
