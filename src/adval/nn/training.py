"""Adam training on cross-entropy with deterministic seeding.

Given the same initial state, example order, and seed, ``train`` produces
bit-identical parameters. One generator drives both the per-epoch shuffle and
the dropout masks, so the whole run is a pure function of its inputs.

Divergence rule: after the last step, ``train`` runs the trained network once
over the last batch, without dropout and drawing nothing from the generator,
and raises ``TrainingError`` if any logit is not finite. The last step's loss
cannot serve: it is computed before that step's update, so a single step that
blows the parameters up to about 1e300 leaves it finite while the next
forward pass overflows.

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

from adval.errors import ConfigError, InputError, TrainingError, require_at_least
from adval.nn.layers import DTYPE
from adval.nn.network import NetworkState, forward_batch, loss_and_param_grads


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
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        require_at_least(self, batch_size=1, epochs=1)
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")


def epochs_for_budget(base_steps: int, batch_size: int, n_examples: int) -> int:
    """``ceil(base_steps * batch_size / n_examples)`` epochs, at least one.

    An epoch runs ``ceil(n_examples / batch_size)`` steps, so a round runs at
    least ``base_steps`` steps, and more when ``n_examples`` is not a multiple
    of ``batch_size``: both ceilings round up. Below one batch, every step is
    the whole set and the round runs as many steps as epochs; the default
    config's round 0 (20 examples, batch 32, 2000 base steps) runs 3200.
    """
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
    """Train on (input, label) pairs; returns a new state, input state untouched.

    Raises ``TrainingError`` when the trained network's logits on the last
    batch are not finite.
    """
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
    # A diverging run is reported once, below, not as a warning per overflowing step.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                loss_and_param_grads(working, x[idx], y[idx], rng=rng, out=grads)
                t += 1
                _adam_step(cfg, t, flat, grad_flat, *adam)
        logits = forward_batch(working, x[idx])
    if not np.isfinite(logits).all():
        raise TrainingError("training diverged: the trained network's logits are not finite")
    return working
