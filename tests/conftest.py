"""Shared fixtures: random small networks, trained nets on blob data, oracles and references."""

import struct
from collections import Counter

import numpy as np
import pytest

import adval.loop
from adval import nn
from adval.attacks import AdversarialResult
from adval.data import Dataset, SyntheticSpec, gen_blobs
from adval.errors import ConfigError, InputError
from adval.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    NetworkSpec,
    ReLU,
    TrainConfig,
    network,
)
from adval.nn.layers import _conv_windows
from adval.nn.layers import backward as layer_backward
from adval.nn.layers import forward as layer_forward
from adval.nn.network import _check_batch, _check_label, _forward_caches, _input_grad


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes ``network._in_order`` run as on n CPUs, on a pool of its own for the test."""
    monkeypatch.setattr(network, "_pool", None)
    yield lambda n: monkeypatch.setattr(network, "_CPUS", n)
    if network._pool is not None:
        network._pool.shutdown(wait=False)  # a deadlocked task must fail its test, not hang it


def inline_and_threaded(cpus, fn):
    """``fn()`` run inline, as on one CPU, and then on 3 CPUs."""
    cpus(1)
    inline = fn()
    cpus(3)
    return inline, fn()


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


def reference_forward_free(state, x, stop=None, rng=None) -> np.ndarray:
    """``layers[:stop]`` over all of ``x`` at once, one ``forward`` a layer, caches dropped.

    No two layers run as one kernel and no rows are chunked or blocked: on at
    most one evaluation chunk of rows, with ``rng`` seeded as the pass's
    dropout seed, this is the batched evaluation's reference.
    """
    for layer, params in zip(state.spec.layers[:stop], state.params[:stop]):
        x, _ = layer_forward(layer, params, x, rng=rng)
    return x


def reference_forward_caches(state, x, *, start=0, stop=None, rng=None, param_grads=True):
    """``network._forward_caches`` with no two layers run as one kernel: one ``forward``
    a layer, each layer's own cache kept."""
    caches = []
    for layer, params in zip(state.spec.layers[start:stop], state.params[start:stop]):
        x, cache = layer_forward(layer, params, x, rng=rng, param_grads=param_grads)
        caches.append(cache)
    return x, caches


def lp_norm(v: np.ndarray, p: float) -> float:
    """The L_p norm of ``v`` flattened, as ``np.linalg.norm`` gives it."""
    return float(np.linalg.norm(np.ravel(v), ord=p))


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


def _reference_boundary_step(diffs, grads, p):
    flat = grads.reshape(len(grads), -1)
    denom = np.linalg.norm(flat, ord=1 if p == np.inf else 2, axis=1)
    dist = np.where(denom > 0, np.abs(diffs) / denom, np.inf)
    l = int(np.argmin(dist))
    margin = float(dist[l])
    if not np.isfinite(margin):
        return None
    if margin < 1e-12:
        margin = 1e-4
    w = grads[l]
    step = margin * np.sign(w) if p == np.inf else (margin / np.linalg.norm(w.ravel())) * w
    return -step if diffs[l] > 0 else step


def _reference_result(perturbation, p, iterations, success, adversarial, original):
    """An attack's result; ``success`` None marks a failed attack, scored +inf."""
    norm = float(np.linalg.norm(np.ravel(perturbation), ord=p)) if success is not None else float("inf")
    return AdversarialResult(perturbation, norm, iterations, bool(success), adversarial, original)


@np.errstate(all="ignore")
def reference_deepfool(net, x, cfg) -> AdversarialResult:
    """Sequential one-point DeepFool, iterate by iterate: the reference for the lockstep groups.

    Each point is linearized on its own by ``reference_logits_and_jacobian``,
    which also forms the Jacobians the attack never reads.
    """
    p = float(cfg.p)
    x0 = np.asarray(x, dtype=float)
    scale = 1.0 + cfg.overshoot
    logits, jac = reference_logits_and_jacobian(net, x0)
    if not np.all(np.isfinite(logits)):
        return _reference_result(np.zeros_like(x0), p, 0, None, None, None)
    orig = int(np.argmax(logits))
    others = [k for k in range(len(logits)) if k != orig]
    r_total = np.zeros_like(x0)
    current = orig
    iterations = 0
    while current == orig and iterations < cfg.max_iter:
        if not np.all(np.isfinite(jac)):
            return _reference_result(scale * r_total, p, iterations, None, None, orig if iterations else None)
        step = _reference_boundary_step(logits[others] - logits[orig], jac[others] - jac[orig], p)
        if step is None:
            return _reference_result(scale * r_total, p, iterations, None, None, orig if iterations else None)
        r_total = r_total + step
        iterations += 1
        logits, jac = reference_logits_and_jacobian(net, x0 + scale * r_total)
        if not np.all(np.isfinite(logits)):
            return _reference_result(scale * r_total, p, iterations, None, None, orig)
        current = int(np.argmax(logits))
    success = current != orig
    return _reference_result(scale * r_total, p, iterations, success, current if success else None, orig)


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


def reference_init_pools(dataset: Dataset, initial_labeled: int, seed: int) -> adval.loop.PoolState:
    """The stratified round-0 pools drawn index by index, with a set scan for the unlabeled rows."""
    c = dataset.class_count
    if initial_labeled < c:
        raise ConfigError(f"{initial_labeled} labels cannot cover {c} classes")
    if initial_labeled > len(dataset):
        raise ConfigError(f"{initial_labeled} labels exceed the pool's {len(dataset)} samples")
    rng = np.random.default_rng(seed)
    per_class = initial_labeled // c
    chosen: list[int] = []
    leftover: list[np.ndarray] = []
    for cls in range(c):
        members = rng.permutation(np.flatnonzero(dataset.labels == cls))
        if len(members) < per_class:
            raise ConfigError(f"class {cls} has only {len(members)} samples, need {per_class}")
        chosen.extend(int(i) for i in members[:per_class])
        leftover.append(members[per_class:])
    rest = np.concatenate(leftover)
    extra = initial_labeled - per_class * c
    if extra:
        chosen.extend(int(i) for i in rng.choice(rest, size=extra, replace=False))
    chosen_sorted = sorted(chosen)
    labeled = tuple((i, int(dataset.labels[i])) for i in chosen_sorted)
    chosen_set = set(chosen_sorted)
    unlabeled = tuple(i for i in range(len(dataset)) if i not in chosen_set)
    return adval.loop.PoolState(labeled=labeled, unlabeled=unlabeled, synthetic=())


def _unit_directions(dimension: int, count: int) -> np.ndarray:
    if dimension == 1:
        return np.array([[1.0], [-1.0]], dtype=float)
    if dimension == 2:
        angles = 2.0 * np.pi * np.arange(count, dtype=float) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # dimension 3: Fibonacci sphere
    i = np.arange(count, dtype=float) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


def margin_oracle(
    net: nn.NetworkState,
    x: np.ndarray,
    radius_max: float,
    steps_radial: int = 64,
    directions: int = 360,
    bisect_iters: int = 30,
) -> float:
    """Brute-force distance from ``x`` to the nearest prediction change.

    Sweeps a dense direction/radius grid around ``x``, then bisects each
    flipping direction down to a tight bracket. Returns +inf when no probe
    inside ``radius_max`` changes the predicted class. Only practical for
    inputs with at most 3 dimensions.
    """
    x = np.asarray(x, dtype=float)
    dim = int(x.size)
    if dim > 3:
        raise InputError(f"margin oracle is brute force only; dimension {dim} > 3")
    base_label = int(nn.predict_batch(net, x.reshape(1, *net.spec.input_shape))[0])
    dirs = _unit_directions(dim, directions)
    radii = np.linspace(radius_max / steps_radial, radius_max, steps_radial, dtype=float)
    probes = x.reshape(1, 1, dim) + radii[None, :, None] * dirs[:, None, :]
    flat = probes.reshape(-1, *net.spec.input_shape)
    flips = (nn.predict_batch(net, flat) != base_label).reshape(len(dirs), steps_radial)
    hit = flips.any(axis=1)
    if not hit.any():
        return float("inf")
    first = flips[hit].argmax(axis=1)
    hi = radii[first]
    lo = np.where(first > 0, radii[np.maximum(first - 1, 0)], 0.0)
    d = dirs[hit]
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        pts = (x[None, :] + mid[:, None] * d).reshape(-1, *net.spec.input_shape)
        mid_flip = nn.predict_batch(net, pts) != base_label
        hi = np.where(mid_flip, mid, hi)
        lo = np.where(mid_flip, lo, mid)
    return float(hi.min())


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


def tiny_idx_pair(tmp_path, pixels, labels, prefix=""):
    """An IDX image file and label file holding ``pixels`` (n, rows, cols) and ``labels``."""
    n, rows, cols = pixels.shape
    img = tmp_path / f"{prefix}imgs.idx"
    lab = tmp_path / f"{prefix}labels.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">4I", 0x803, n, rows, cols))
        f.write(pixels.astype(np.uint8).tobytes())
    with open(lab, "wb") as f:
        f.write(struct.pack(">2I", 0x801, n))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return img, lab


def count_calls(monkeypatch, *names) -> Counter:
    """Counts the calls to each of ``names``, made through ``adval.loop``'s attributes."""
    calls = Counter()

    def counted(name):
        original = getattr(adval.loop, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(adval.loop, name, counted(name))
    return calls


def evaluated_rows(monkeypatch) -> list[int]:
    """The row count of each ``network._evaluate`` call from here on, in call order."""
    rows = []
    evaluate = network._evaluate

    def counted(state, x, *args, **kwargs):
        rows.append(len(x))
        return evaluate(state, x, *args, **kwargs)

    monkeypatch.setattr(network, "_evaluate", counted)
    return rows


@pytest.fixture(autouse=True)
def cold_round0_memo():
    """Every test starts with an empty round-0 memo, so each round 0 it runs trains."""
    adval.loop._round0_memo.clear()


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
