"""Adam training on cross-entropy with deterministic seeding.

Given the same initial state, example order, and seed, ``train`` produces
bit-identical parameters. One generator drives both the per-epoch shuffle and
the dropout masks, so the whole run is a pure function of its inputs.

``train`` copies the parameters once into one contiguous float64 vector, in
layer and then key order; the working state, which it returns, holds reshaped
views of it. The backward pass writes gradients into views of a second such
vector, and ``_adam_step`` updates whole vectors in place, keeping the
per-array update's operation order, ``v += ((1-b2)*g)*g`` and
``p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``: elementwise IEEE results do not
depend on layout, so the parameters keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from adval.errors import ConfigError, InputError
from adval.nn.layers import DTYPE
from adval.nn.network import NetworkState, loss_and_param_grads


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")


def epochs_for_budget(base_steps: int, batch_size: int, n_examples: int) -> int:
    """Epoch count that keeps total gradient steps roughly constant across rounds."""
    return max(1, math.ceil(base_steps * batch_size / max(1, n_examples)))


def _adam_step(c: TrainConfig, t: int, params, grads, m, v, a, b) -> None:
    """Adam step ``t`` over whole vectors, in place; ``a`` and ``b`` are scratch."""
    bc1 = 1.0 - c.beta1**t
    bc2 = 1.0 - c.beta2**t
    m *= c.beta1
    np.multiply(grads, 1.0 - c.beta1, out=a)
    m += a
    v *= c.beta2
    np.multiply(grads, 1.0 - c.beta2, out=a)
    a *= grads
    v += a
    np.divide(v, bc2, out=a)
    np.sqrt(a, out=a)
    a += c.epsilon
    np.divide(m, bc1, out=b)
    b *= c.learning_rate
    b /= a
    params -= b


def _views(flat, like):
    """Per-layer dicts of views into ``flat``, shaped like ``like``, in layer then key order."""
    parts = iter(np.split(flat, np.cumsum([v.size for p in like for v in (p or {}).values()])))
    return tuple(
        None if p is None else {k: next(parts).reshape(v.shape) for k, v in p.items()} for p in like
    )


def train(state: NetworkState, examples, cfg: TrainConfig) -> NetworkState:
    """Train on (input, label) pairs; returns a new state, input state untouched."""
    pairs = list(examples)
    if not pairs:
        raise InputError("training set is empty")
    x = np.stack([np.asarray(p[0], dtype=DTYPE) for p in pairs])
    y = np.asarray([int(p[1]) for p in pairs], dtype=np.int64)
    if y.min() < 0 or y.max() >= state.spec.class_count:
        raise InputError("training labels outside class range")
    arrays = [np.ravel(v) for p in state.params for v in (p or {}).values()]
    flat = np.concatenate(arrays or [np.zeros(0)], dtype=DTYPE)
    params = _views(flat, state.params)
    grad_flat = np.zeros_like(flat)
    grads = _views(grad_flat, state.params)
    adam = [np.zeros_like(flat) for _ in range(4)]  # m, v and two scratch vectors
    rng = np.random.default_rng(cfg.seed)
    working = NetworkState(state.spec, params)
    n, t = len(x), 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            loss_and_param_grads(working, x[idx], y[idx], rng=rng, out=grads)
            t += 1
            _adam_step(cfg, t, flat, grad_flat, *adam)
    return working
