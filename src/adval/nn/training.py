"""Adam training on cross-entropy with deterministic seeding.

Given the same initial state, example order, and seed, ``train`` produces
bit-identical parameters. One generator drives both the per-epoch shuffle and
the dropout masks, so the whole run is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from adval.errors import ConfigError, InputError
from adval.nn.layers import DTYPE
from adval.nn.network import (
    NetworkState,
    clone_params,
    loss_and_param_grads,
)


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


class _Adam:
    def __init__(self, params, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.m = [
            None if p is None else {k: np.zeros_like(v) for k, v in p.items()}
            for p in params
        ]
        self.v = [
            None if p is None else {k: np.zeros_like(v) for k, v in p.items()}
            for p in params
        ]

    def step(self, params, grads):
        self.t += 1
        c = self.cfg
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for i, g in enumerate(grads):
            if g is None:
                continue
            for key, gv in g.items():
                m = self.m[i][key]
                v = self.v[i][key]
                m *= c.beta1
                m += (1.0 - c.beta1) * gv
                v *= c.beta2
                v += (1.0 - c.beta2) * gv * gv
                params[i][key] -= c.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + c.epsilon)


def _stack_examples(examples):
    pairs = list(examples)
    if not pairs:
        raise InputError("training set is empty")
    x = np.stack([np.asarray(p[0], dtype=DTYPE) for p in pairs])
    y = np.asarray([int(p[1]) for p in pairs], dtype=np.int64)
    return x, y


def train(state: NetworkState, examples, cfg: TrainConfig) -> NetworkState:
    """Train on (input, label) pairs; returns a new state, input state untouched."""
    x, y = _stack_examples(examples)
    if y.min() < 0 or y.max() >= state.spec.class_count:
        raise InputError("training labels outside class range")
    params = list(clone_params(state.params))
    opt = _Adam(params, cfg)
    rng = np.random.default_rng(cfg.seed)
    dropout = state.spec.has_dropout()
    working = NetworkState(state.spec, tuple(params), state.epochs_trained)
    n = len(x)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            _, grads = loss_and_param_grads(
                working, x[idx], y[idx], rng=rng, dropout_active=dropout
            )
            opt.step(params, grads)
    return NetworkState(state.spec, tuple(params), state.epochs_trained + cfg.epochs)


def training_loss(state: NetworkState, examples) -> float:
    """Mean cross-entropy over the given examples with dropout disabled."""
    from adval.nn.network import cross_entropy, forward_batch

    x, y = _stack_examples(examples)
    total = 0.0
    for lo in range(0, len(x), 256):
        hi = min(lo + 256, len(x))
        total += cross_entropy(forward_batch(state, x[lo:hi]), y[lo:hi]) * (hi - lo)
    return total / len(x)
