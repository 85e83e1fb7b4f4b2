"""Training loop: determinism, convergence on easy problems, loss decrease."""

import os
import platform
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conftest import BLOB_SPEC_4C, clone_params, cross_entropy, small_blob_net, training_loss

from adval import nn
from adval.data import gen_blobs
from adval.errors import ConfigError, InputError, TrainingError
from adval.nn import Dense, NetworkSpec, ReLU, TrainConfig, build_network


def flatten_params(state):
    return np.concatenate(
        [v.ravel() for p in state.params if p is not None for v in p.values()]
    )


def param_arrays(state):
    return [v for p in state.params if p is not None for v in p.values()]


def reference_train(state, examples, cfg):
    """Adam array by array on fresh per-layer gradients, with ``train``'s batches and masks."""
    x = np.stack([e[0] for e in examples])
    y = np.array([e[1] for e in examples])
    params = clone_params(state.params)
    m, v = ([{k: np.zeros_like(a) for k, a in (p or {}).items()} for p in params] for _ in range(2))
    working = nn.NetworkState(state.spec, params)
    rng = np.random.default_rng(cfg.seed)
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        for lo in range(0, len(x), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            _, grads = nn.network.loss_and_param_grads(working, x[idx], y[idx], rng=rng)
            t += 1
            bc1 = 1.0 - cfg.beta1**t
            bc2 = 1.0 - cfg.beta2**t
            for i, g in enumerate(grads):
                for key, gv in (g or {}).items():
                    mk, vk = m[i][key], v[i][key]
                    mk *= cfg.beta1
                    mk += (1.0 - cfg.beta1) * gv
                    vk *= cfg.beta2
                    vk += (1.0 - cfg.beta2) * gv * gv
                    params[i][key] -= cfg.learning_rate * (mk / bc1) / (np.sqrt(vk / bc2) + cfg.epsilon)
    return working


class TestTrain:
    def test_separable_pair_reaches_full_accuracy(self):
        spec = NetworkSpec((2,), (Dense(2, 2),), 2, init_seed=0)
        examples = [(np.array([-1.0, 0.0]), 0), (np.array([1.0, 0.0]), 1)]
        cfg = TrainConfig(learning_rate=0.05, epochs=200, seed=1)
        state = nn.train(nn.init_network(spec), examples, cfg)
        x = np.stack([e[0] for e in examples])
        y = np.array([e[1] for e in examples])
        assert nn.accuracy(state, x, y) == 1.0

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(5)
        spec = NetworkSpec((3,), (Dense(3, 8), ReLU(), Dense(8, 3)), 3, init_seed=2)
        examples = [
            (rng.standard_normal(3), int(rng.integers(3))) for _ in range(40)
        ]
        cfg = TrainConfig(epochs=5, seed=123)
        a = nn.train(nn.init_network(spec), examples, cfg)
        b = nn.train(nn.init_network(spec), examples, cfg)
        np.testing.assert_array_equal(flatten_params(a), flatten_params(b))

    def test_different_seed_differs(self):
        rng = np.random.default_rng(6)
        spec = NetworkSpec((3,), (Dense(3, 8), ReLU(), Dense(8, 3)), 3, init_seed=2)
        examples = [(rng.standard_normal(3), int(rng.integers(3))) for _ in range(40)]
        a = nn.train(nn.init_network(spec), examples, TrainConfig(epochs=5, seed=1))
        b = nn.train(nn.init_network(spec), examples, TrainConfig(epochs=5, seed=2))
        assert not np.array_equal(flatten_params(a), flatten_params(b))

    def test_blob_training_accuracy_floor(self):
        # regression floor pinned from a reference run of this exact configuration
        blobs = gen_blobs(BLOB_SPEC_4C)
        state = small_blob_net(blobs, seed=3, epochs=60)
        assert nn.accuracy(state, blobs.inputs, blobs.labels) >= 0.95

    def test_loss_decreases(self):
        blobs = gen_blobs(BLOB_SPEC_4C)
        examples = list(zip(blobs.inputs, blobs.labels))[:200]
        spec = NetworkSpec((2,), (Dense(2, 16), ReLU(), Dense(16, 4)), 4, init_seed=1)
        before = nn.init_network(spec)
        after = nn.train(before, examples, TrainConfig(epochs=20, seed=0))
        assert training_loss(after, examples) < training_loss(before, examples)

    def test_empty_training_set_rejected(self):
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        with pytest.raises(InputError):
            nn.train(nn.init_network(spec), [], TrainConfig())

    def test_one_step_divergence_raises(self):
        # The step's loss is computed before its update, so it is finite; the logits after are not.
        rng = np.random.default_rng(3)
        examples = list(zip(rng.standard_normal((32, 2)), rng.integers(0, 3, 32)))
        state = nn.init_network(build_network("arch-B", (2,), 3, seed=1))
        cfg = TrainConfig(learning_rate=1e300, batch_size=32, epochs=1)
        with pytest.raises(TrainingError, match="logits are not finite"):
            nn.train(state, examples, cfg)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_input_state_untouched(self):
        spec = NetworkSpec((2,), (Dense(2, 2),), 2, init_seed=4)
        state = nn.init_network(spec)
        before = flatten_params(state).copy()
        nn.train(state, [(np.array([1.0, 2.0]), 0)], TrainConfig(epochs=3))
        np.testing.assert_array_equal(flatten_params(state), before)


class TestFlatAdam:
    CFGS = [
        TrainConfig(epochs=7, seed=4),
        TrainConfig(learning_rate=0.01, beta1=0.8, beta2=0.99, epsilon=1e-6, batch_size=16, epochs=4, seed=9),
    ]

    @pytest.mark.parametrize("cfg", CFGS, ids=["default", "custom"])
    @pytest.mark.parametrize("arch,shape", [("arch-A", (1, 12, 12)), ("arch-B", (2,))])
    def test_matches_per_array_adam_bytes(self, arch, shape, cfg):
        # 96 examples: 21 steps at batch 32 over 7 epochs, 24 at batch 16 over 4
        rng = np.random.default_rng(1)
        examples = list(zip(rng.uniform(-1, 1, size=(96, *shape)), rng.integers(0, 10, 96)))
        state = nn.init_network(build_network(arch, shape, 10, seed=2))
        got = nn.train(state, examples, cfg)
        want = reference_train(state, examples, cfg)
        for a, b in zip(param_arrays(got), param_arrays(want), strict=True):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_loss_is_reference_cross_entropy_bytes(self, scale):
        rng = np.random.default_rng(int(scale))
        spec = NetworkSpec((4,), (Dense(4, 6),), 6)
        params = ({"W": scale * rng.standard_normal((4, 6)), "b": scale * rng.standard_normal(6)},)
        state = nn.NetworkState(spec, params)
        x = rng.standard_normal((40, 4))
        labels = rng.integers(0, 6, 40)
        loss, _ = nn.network.loss_and_param_grads(state, x, labels)
        want = cross_entropy(nn.forward_batch(state, x), labels)
        assert np.isfinite(loss)
        assert loss.hex() == want.hex()
        if scale > 1:  # saturated: some probabilities underflow to 0
            assert (nn.softmax_probs(nn.forward_batch(state, x)) == 0).any()

    def test_states_share_no_memory(self):
        rng = np.random.default_rng(3)
        examples = list(zip(rng.standard_normal((50, 2)), rng.integers(0, 10, 50)))
        cfg = TrainConfig(epochs=2, seed=5)
        state = nn.init_network(build_network("arch-B", (2,), 10, seed=1))
        first = nn.train(state, examples, cfg)
        second = nn.train(state, examples, cfg)
        first_before = flatten_params(first).copy()
        third = nn.train(first, examples, cfg)
        for s1, s2 in combinations([state, first, second, third], 2):
            for a in param_arrays(s1):
                assert not any(np.shares_memory(a, b) for b in param_arrays(s2))
        np.testing.assert_array_equal(flatten_params(first), first_before)
        np.testing.assert_array_equal(flatten_params(second), first_before)
        assert not np.array_equal(flatten_params(third), first_before)


class TestEpochBudget:
    def test_steps_roughly_constant(self):
        # epochs * (n / batch) stays near base_steps once n >= batch
        assert nn.epochs_for_budget(2000, 32, 64) == 1000
        assert nn.epochs_for_budget(2000, 32, 2000) == 32
        assert nn.epochs_for_budget(2000, 32, 20) == 3200

    def test_minimum_one_epoch(self):
        assert nn.epochs_for_budget(10, 32, 10**6) == 1


STEP_FAULTS = """
import resource

import numpy as np

from adval import nn
from adval.nn.network import loss_and_param_grads

state = nn.init_network(nn.build_network("arch-A", (1, 28, 28), 10, seed=0))
x = np.random.default_rng(0).uniform(0.0, 1.0, size=(32, 1, 28, 28))
y = np.arange(32) % 10
loss_and_param_grads(state, x, y)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    loss_and_param_grads(state, x, y)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc thresholds are glibc's")
def test_training_steps_reuse_freed_heap():
    # A fresh process has freed no large array, so glibc's dynamic thresholds
    # would still be at their minimum: every arch-A step would hand its few MB
    # of temporaries back to the system and fault them in again, about 1,800
    # pages a step. Importing adval.nn sets the thresholds, so steps reuse them.
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", STEP_FAULTS], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 100
