"""Gradient fidelity against central finite differences and closed forms."""

import numpy as np
import pytest

from conftest import (
    clone_params,
    fd_input_logit_grad,
    fd_loss_param_grad,
    forward,
    grad_input_logit,
    random_conv_spec,
    random_dense_spec,
    reference_logits_and_jacobian,
    rel_err,
)

from adval import nn
from adval.errors import InputError
from adval.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    NetworkSpec,
    ReLU,
    build_network,
)


class TestGradParams:
    def test_matches_finite_differences_random_net(self):
        rng = np.random.default_rng(42)
        for trial in range(12):
            make_spec = random_conv_spec if trial % 2 else random_dense_spec
            state = nn.init_network(make_spec(rng))
            x = rng.standard_normal(state.spec.input_shape)
            label = int(rng.integers(state.spec.class_count))
            grads = nn.grad_params(state, x, label)
            for _ in range(5):
                layer_idx = int(rng.choice([i for i, g in enumerate(grads) if g is not None]))
                key = str(rng.choice(["W", "b"]))
                flat = int(rng.integers(grads[layer_idx][key].size))
                fd = fd_loss_param_grad(state, x, label, layer_idx, key, flat)
                got = grads[layer_idx][key].ravel()[flat]
                assert rel_err(got, fd) < 1e-4, (trial, layer_idx, key, flat, got, fd)

    def test_single_linear_layer_closed_form(self):
        # gradient of cross-entropy through one linear layer: (softmax - onehot) outer x
        spec = NetworkSpec((3,), (Dense(3, 4),), 4, init_seed=9)
        state = nn.init_network(spec)
        x = np.array([0.5, -1.0, 2.0])
        label = 2
        probs = nn.softmax_probs(forward(state, x))
        delta = probs.copy()
        delta[label] -= 1.0
        grads = nn.grad_params(state, x, label)
        np.testing.assert_allclose(grads[0]["W"], np.outer(x, delta), rtol=1e-12)
        np.testing.assert_allclose(grads[0]["b"], delta, rtol=1e-12)

    def test_saturated_correct_class_zero_gradient(self):
        # huge-margin correct prediction: softmax ~ onehot, so upstream gets ~0
        spec = NetworkSpec((2,), (Dense(2, 3), ReLU(), Dense(3, 2)), 2, init_seed=3)
        state = nn.init_network(spec)
        params = clone_params(state.params)
        params[2]["b"][:] = [1000.0, 0.0]
        params[2]["W"][:] = 0.0
        saturated = nn.NetworkState(spec, params)
        grads = nn.grad_params(saturated, np.array([1.0, 1.0]), 0)
        np.testing.assert_allclose(grads[0]["W"], 0.0, atol=1e-300)
        np.testing.assert_allclose(grads[0]["b"], 0.0, atol=1e-300)

    def test_invalid_label_rejected(self):
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        state = nn.init_network(spec)
        with pytest.raises(InputError):
            nn.grad_params(state, np.zeros(2), 2)


class TestGradInputLogit:
    def test_linear_model_returns_weight_row(self):
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        state = nn.NetworkState(
            spec, ({"W": np.array([[0.0, 3.0], [0.0, 4.0]]), "b": np.zeros(2)},)
        )
        np.testing.assert_array_equal(
            grad_input_logit(state, np.array([1.0, 1.0]), 1), [3.0, 4.0]
        )

    def test_matches_finite_differences_random_net(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            state = nn.init_network(random_dense_spec(rng))
            x = rng.standard_normal(state.spec.input_shape)
            k = int(rng.integers(state.spec.class_count))
            g = grad_input_logit(state, x, k)
            for _ in range(5):
                flat = int(rng.integers(x.size))
                fd = fd_input_logit_grad(state, x, k, flat)
                assert rel_err(g.ravel()[flat], fd) < 1e-4

    def test_conv_net_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        state = nn.init_network(random_conv_spec(rng))
        x = rng.standard_normal(state.spec.input_shape)
        k = 0
        g = grad_input_logit(state, x, k)
        for flat in rng.integers(x.size, size=8):
            fd = fd_input_logit_grad(state, x, k, int(flat))
            assert rel_err(g.ravel()[int(flat)], fd) < 1e-4

    def test_dead_relu_blocks_gradient(self):
        # hidden unit 0 inactive at x, so its fan-in weight contributes nothing
        spec = NetworkSpec((2,), (Dense(2, 2), ReLU(), Dense(2, 2)), 2)
        w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        params = (
            {"W": w1, "b": np.array([-10.0, 0.0])},  # unit 0 forced negative
            None,
            {"W": np.array([[5.0, 0.0], [7.0, 0.0]]), "b": np.zeros(2)},
        )
        state = nn.NetworkState(spec, params)
        g = grad_input_logit(state, np.array([0.5, 0.5]), 0)
        # only unit 1 (identity on x[1]) carries signal: d logit0 / dx = w1[:,1]*7
        np.testing.assert_allclose(g, [0.0, 7.0], atol=1e-12)

    def test_invalid_class_rejected(self):
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        with pytest.raises(InputError):
            grad_input_logit(nn.init_network(spec), np.zeros(2), 5)


class TestJacobian:
    def test_jacobian_rows_match_single_grads(self):
        rng = np.random.default_rng(11)
        for make_spec in (random_dense_spec, random_conv_spec):
            state = nn.init_network(make_spec(rng))
            x = rng.standard_normal(state.spec.input_shape)
            logits, jac = nn.logits_and_input_jacobian(state, x)
            np.testing.assert_allclose(logits, forward(state, x), rtol=1e-12)
            for k in range(state.spec.class_count):
                np.testing.assert_allclose(jac[k], grad_input_logit(state, x, k), rtol=1e-12)


def with_random_biases(state, rng):
    """``state`` with random biases in place of init's zeros."""
    params = clone_params(state.params)
    for p in params:
        if p is not None:
            p["b"][:] = rng.standard_normal(p["b"].shape)
    return nn.NetworkState(state.spec, params)


def two_conv_spec(seed):
    """Two multi-channel convolutions, the first of stride 2, with a Dropout below the first Dense."""
    layers = (
        Conv2D(filters=4, kernel=3, stride=2),  # (2, 15, 15) -> (4, 7, 7)
        ReLU(),
        Dropout(0.3),
        Conv2D(filters=3, kernel=2),  # -> (3, 6, 6)
        MaxPool2D(2),  # -> (3, 3, 3)
        Flatten(),
        Dense(27, 6),
        ReLU(),
        Dense(6, 5),
    )
    return NetworkSpec((2, 15, 15), layers, 5, init_seed=seed)


def conv_only_spec(seed):
    """No Dense layer: a convolution with a 1x1 output, flattened into the logits."""
    return NetworkSpec((2, 5, 5), (Conv2D(filters=4, kernel=5), Flatten()), 4, init_seed=seed)


JACOBIAN_NETS = {
    "arch-A": lambda rng: build_network("arch-A", (1, 28, 28), 10, seed=int(rng.integers(99))),
    "arch-B": lambda rng: build_network("arch-B", (3, 4), 6, seed=int(rng.integers(99))),
    "random-conv": random_conv_spec,
    "two-conv": lambda rng: two_conv_spec(int(rng.integers(99))),
    "conv-only": lambda rng: conv_only_spec(int(rng.integers(99))),
}


class TestJacobianAgainstReplicaReference:
    """The Jacobian's split forward gives the bits of running every layer on C copies."""

    @pytest.mark.parametrize("name", sorted(JACOBIAN_NETS))
    def test_logits_and_jacobian_are_byte_equal(self, name):
        rng = np.random.default_rng(sorted(JACOBIAN_NETS).index(name))
        for _ in range(3):
            state = with_random_biases(nn.init_network(JACOBIAN_NETS[name](rng)), rng)
            shape = state.spec.input_shape
            for _ in range(3):
                x = rng.standard_normal(shape) * (rng.random(shape) < 0.8)  # some exact zeros
                want_logits, want_jac = reference_logits_and_jacobian(state, x)
                logits, jac = nn.logits_and_input_jacobian(state, x)
                assert logits.shape == (state.spec.class_count,)
                assert jac.shape == (state.spec.class_count, *shape)
                assert logits.tobytes() == want_logits.tobytes()
                assert jac.tobytes() == want_jac.tobytes()
                assert np.any(jac != 0)
