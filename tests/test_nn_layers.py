"""Layer contracts: shapes, identity cases, conv/pool against naive loops, backward requests."""

import contextvars
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    forward,
    inline_and_threaded,
    reference_conv_forward,
    reference_forward_caches,
    reference_forward_free,
)

from adval import nn
from adval.errors import ConfigError, InputError, UnsupportedArchitectureError
from adval.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    NetworkSpec,
    ReLU,
)
from adval.nn import layers, network
from adval.nn.layers import _conv_windows, grad_sq_norms
from adval.nn.layers import backward as layer_backward
from adval.nn.layers import forward as layer_forward
from adval.nn.network import (
    _CHUNK,
    _evaluate,
    _forward_caches,
    _in_order,
    logits_and_deferred_jacobian,
    loss_and_param_grads,
    probs_and_grad_sq_norms,
)
from adval.strategies import CandidateSet, bald_probability_samples


def naive_layers(state, x, stop=None, dropout_seed=None, rows=None):
    """``layers[:stop]`` over ``x`` in one pass, or in slices of ``rows`` sharing one mask stream."""
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    rows = rows or len(x)
    parts = []
    for lo in range(0, len(x), rows):
        h = x[lo : lo + rows]
        for layer, params in zip(state.spec.layers[:stop], state.params[:stop]):
            h, _ = layer_forward(layer, params, h, rng=rng)
        parts.append(h)
    return np.concatenate(parts)


def identity_dense_net():
    spec = NetworkSpec((2,), (Dense(2, 2),), 2, init_seed=0)
    state = nn.init_network(spec)
    params = ({"W": np.eye(2), "b": np.zeros(2)},)
    return nn.NetworkState(spec, params)


class TestForward:
    def test_identity_dense(self):
        state = identity_dense_net()
        np.testing.assert_array_equal(forward(state, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_deterministic_mode_is_pure(self):
        rng = np.random.default_rng(0)
        from conftest import random_dense_spec

        state = nn.init_network(random_dense_spec(rng, with_dropout=True))
        x = rng.standard_normal(state.spec.input_shape)
        a = forward(state, x)
        b = forward(state, x)
        np.testing.assert_array_equal(a, b)

    def test_two_layer_hand_computation(self):
        # affine -> relu -> affine, recomputed coordinate by coordinate
        spec = NetworkSpec((2,), (Dense(2, 3), ReLU(), Dense(3, 2)), 2, init_seed=5)
        state = nn.init_network(spec)
        x = np.array([0.7, -1.3])
        w1, b1 = state.params[0]["W"], state.params[0]["b"]
        w2, b2 = state.params[2]["W"], state.params[2]["b"]
        hidden = [max(0.0, sum(x[i] * w1[i, j] for i in range(2)) + b1[j]) for j in range(3)]
        expected = [sum(hidden[j] * w2[j, k] for j in range(3)) + b2[k] for k in range(2)]
        np.testing.assert_allclose(forward(state, x), expected, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        state = identity_dense_net()
        with pytest.raises(InputError):
            forward(state, np.zeros(3))

    def test_dropout_rate_zero_equals_deterministic(self):
        spec = NetworkSpec((4,), (Dense(4, 4), Dropout(0.0), Dense(4, 2)), 2, init_seed=1)
        state = nn.init_network(spec)
        x = np.random.default_rng(2).standard_normal((5, 4))
        np.testing.assert_array_equal(
            nn.forward_batch(state, x, dropout_seed=123), nn.forward_batch(state, x)
        )

    def test_stochastic_dropout_seed_reproducible(self):
        spec = NetworkSpec((4,), (Dense(4, 8), Dropout(0.5), Dense(8, 2)), 2, init_seed=1)
        state = nn.init_network(spec)
        x = np.random.default_rng(3).standard_normal((6, 4))
        a = nn.forward_batch(state, x, dropout_seed=9)
        b = nn.forward_batch(state, x, dropout_seed=9)
        c = nn.forward_batch(state, x, dropout_seed=10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestConvAndPool:
    def test_conv_of_a_strided_input_equals_conv_of_its_copy(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((3, 2, 14, 9))
        layer = Conv2D(filters=4, kernel=3, stride=2)
        params = {"W": rng.standard_normal((4, 2, 3, 3)), "b": rng.standard_normal(4)}
        for x in (base[:, :, ::2], base.transpose(0, 1, 3, 2), base[1:, :, 1:, 2:]):
            y, _ = layer_forward(layer, params, x)
            want, _ = layer_forward(layer, params, np.ascontiguousarray(x))
            assert y.tobytes() == want.tobytes()

    def test_window_view_is_read_only(self):
        x = np.zeros((2, 1, 5, 5))
        windows = _conv_windows(x, 3, 1)
        assert windows.shape == (2, 1, 3, 3, 3, 3) and not windows.flags.writeable
        assert np.shares_memory(windows, x)

    def test_forward_leaves_no_allocation_behind(self):
        """Tens of thousands of Conv2D forwards keep nothing once their outputs are dropped.

        A window view made by ``np.lib.stride_tricks.as_strided`` interns a few
        strings and drops them again on each call, so the interpreter rebuilds
        its interned-string table (about 1.9 MB, kept) every ~10^4 calls, in
        the middle of whatever memory measurement is running.
        """
        layer = Conv2D(filters=1, kernel=2)
        params = {"W": np.ones((1, 1, 2, 2)), "b": np.zeros(1)}
        x = np.ones((1, 1, 3, 3))
        tracemalloc.start()
        try:
            for _ in range(30_000):
                layer_forward(layer, params, x)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 100_000

    def test_conv_matches_naive_loops(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 7, 6))
        layer = Conv2D(filters=4, kernel=3, stride=2)
        params = {"W": rng.standard_normal((4, 3, 3, 3)), "b": rng.standard_normal(4)}
        y, _ = layer_forward(layer, params, x)
        ho, wo = (7 - 3) // 2 + 1, (6 - 3) // 2 + 1
        assert y.shape == (2, 4, ho, wo)
        for n in range(2):
            for f in range(4):
                for i in range(ho):
                    for j in range(wo):
                        patch = x[n, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                        want = (patch * params["W"][f]).sum() + params["b"][f]
                        np.testing.assert_allclose(y[n, f, i, j], want, rtol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("filters", [1, 4, 8])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_conv_matches_tensordot_reference(self, channels, filters, kernel, stride):
        # Shapes off arch-A's path, where BLAS may round the last bit differently.
        # The tolerance is relative to the sum of the terms' magnitudes, since an
        # output that cancels to near zero keeps only the terms' absolute error.
        rng = np.random.default_rng([channels, filters, kernel, stride])
        layer = Conv2D(filters=filters, kernel=kernel, stride=stride)
        params = {
            "W": rng.standard_normal((filters, channels, kernel, kernel)),
            "b": rng.standard_normal(filters),
        }
        magnitudes = {k: np.abs(v) for k, v in params.items()}
        for n in (1, 10, 300):
            for h, w in ((kernel, kernel), (9, 8)):  # a 1x1 output, then a larger one
                x = rng.standard_normal((n, channels, h, w))
                y, _ = layer_forward(layer, params, x)
                err = np.abs(y - reference_conv_forward(layer, params, x))
                scale = reference_conv_forward(layer, magnitudes, np.abs(x))
                assert np.all(err <= 1e-12 * scale), (n, h, w, float((err / scale).max()))

    def test_maxpool_matches_naive(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 2, 6, 4))
        y, _ = layer_forward(MaxPool2D(2), None, x)
        assert y.shape == (3, 2, 3, 2)
        for n in range(3):
            for c in range(2):
                for i in range(3):
                    for j in range(2):
                        want = x[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
                        assert y[n, c, i, j] == want

    def test_shapes_must_compose(self):
        with pytest.raises(ConfigError):
            NetworkSpec((2,), (Dense(3, 2),), 2)
        with pytest.raises(ConfigError):
            NetworkSpec((1, 4, 4), (Conv2D(2, 5),), 2)
        with pytest.raises(ConfigError):
            NetworkSpec((1, 5, 5), (Conv2D(2, 2), MaxPool2D(3)), 2)

    def test_final_width_must_match_class_count(self):
        with pytest.raises(ConfigError):
            NetworkSpec((2,), (Dense(2, 3),), 2)


# case -> (input shape, layers, the error message): one layer parameter rule broken, in the first layer
# it reaches; the layers after it would compose with a valid version of it
POSITIVE = "{} must be positive, got {}"
LAYER_RULES = {
    "dense-in": ((4,), (Dense(0, 2),), POSITIVE.format("dense layer dimensions", Dense(0, 2))),
    "dense-out": ((4,), (Dense(4, 0),), POSITIVE.format("dense layer dimensions", Dense(4, 0))),
    "conv-filters": (
        (1, 6, 6), (Conv2D(0, 3), Flatten(), Dense(16, 2)),
        POSITIVE.format("conv2d parameters", Conv2D(0, 3)),
    ),
    "conv-kernel": (
        (1, 6, 6), (Conv2D(1, 0), Flatten(), Dense(36, 2)),
        POSITIVE.format("conv2d parameters", Conv2D(1, 0)),
    ),
    "conv-stride": (
        (1, 6, 6), (Conv2D(1, 3, 0), Flatten(), Dense(16, 2)),
        POSITIVE.format("conv2d parameters", Conv2D(1, 3, 0)),
    ),
    "maxpool-size": (
        (1, 4, 4), (MaxPool2D(0), Flatten(), Dense(16, 2)),
        POSITIVE.format("maxpool size", MaxPool2D(0)),
    ),
    "dropout-negative": ((4,), (Dense(4, 2), Dropout(-0.1)), "dropout rate must be in [0, 1), got -0.1"),
    "dropout-one": ((4,), (Dense(4, 2), Dropout(1.0)), "dropout rate must be in [0, 1), got 1.0"),
    "dropout-nan": ((4,), (Dense(4, 2), Dropout(float("nan"))), "dropout rate must be in [0, 1), got nan"),
}


class TestLayerRules:
    """Each layer kind's parameter rule, as a ``NetworkSpec`` reports it."""

    @pytest.mark.parametrize("case", LAYER_RULES)
    def test_broken_rule_names_the_layer(self, case):
        input_shape, layers, message = LAYER_RULES[case]
        with pytest.raises(ConfigError) as info:
            NetworkSpec(input_shape, layers, 2)
        assert str(info.value) == message

    @pytest.mark.parametrize("rate", [0.0, 0.999])
    def test_dropout_rate_in_range_is_accepted(self, rate):
        assert NetworkSpec((4,), (Dense(4, 2), Dropout(rate)), 2).shape_chain()[-1] == (2,)


def arch_a_oracle(shape):
    """arch-A's Dense width for a (c, h, w) input, or None where a 5x5 conv and 2x2 pool do not fit."""
    _, h, w = shape
    ho, wo = h - 4, w - 4
    if ho < 2 or wo < 2 or ho % 2 or wo % 2:
        return None
    return 8 * (ho // 2) * (wo // 2)


ARCH_A_SHAPES = (
    [(1, s, s) for s in range(1, 33)]
    + [(1, h, w) for h, w in [(1, 32), (32, 1), (5, 6), (6, 5), (6, 7), (7, 6), (6, 8), (8, 6),
                              (6, 9), (12, 28), (28, 12), (10, 30), (4, 6), (6, 4)]]
    + [(3, h, w) for h, w in [(5, 5), (6, 6), (7, 7), (8, 8), (8, 12), (9, 9), (28, 28)]]
)


class TestArchA:
    """arch-A's Dense width and composition error, against the closed form of its conv and pool."""

    @pytest.mark.parametrize("shape", ARCH_A_SHAPES, ids=["x".join(map(str, s)) for s in ARCH_A_SHAPES])
    def test_dense_width_or_composition_error(self, shape):
        flat = arch_a_oracle(shape)
        if flat is None:
            with pytest.raises(ConfigError) as info:
                nn.build_network("arch-A", shape, 3)
            assert str(info.value) == f"arch-A does not compose with input shape {shape}"
            return
        spec = nn.build_network("arch-A", shape, 3)
        assert spec.layers[4] == Dense(flat, 64)
        assert spec.shape_chain()[4] == (flat,)

    @pytest.mark.parametrize(
        "input_shape, shape", [((64,), (1, 8, 8)), ((81,), (1, 9, 9)), ((12, 10), (1, 12, 10))]
    )
    def test_flat_and_grid_inputs_take_the_image_view(self, input_shape, shape):
        flat = arch_a_oracle(shape)
        if flat is None:
            with pytest.raises(ConfigError, match=re.escape(f"input shape {shape}")):
                nn.build_network("arch-A", input_shape, 3)
        else:
            assert nn.build_network("arch-A", input_shape, 3).layers[4] == Dense(flat, 64)


def naive_maxpool(x, dy, s):
    """y, each max's flat position in x, and dx, by loops over tiles with ``np.argmax``."""
    n, c, h, w = x.shape
    y = np.empty((n, c, h // s, w // s))
    flat = np.empty(y.shape, dtype=np.intp)
    dx = np.zeros_like(x)
    for b, ch, i, j in np.ndindex(y.shape):
        k = int(np.argmax(x[b, ch, s * i : s * i + s, s * j : s * j + s]))
        row, col = s * i + k // s, s * j + k % s
        y[b, ch, i, j] = x[b, ch, row, col]
        flat[b, ch, i, j] = np.ravel_multi_index((b, ch, row, col), x.shape)
        dx[b, ch, row, col] = dy[b, ch, i, j]
    return y, flat, dx


# Both forward routes of every case: the layer's forward with its cache, and a
# network's forward-only evaluation, which drops the cache. The cached route
# keeps the plain size as its id.
POOL_ROUTES = [
    pytest.param(s, cached, id=str(s) if cached else f"{s}-no-cache")
    for cached in (True, False)
    for s in (2, 3)
]


def forward_only_maxpool(x, s):
    """MaxPool2D(s) of ``x`` as the first layer of a network's batched, cache-free evaluation."""
    n, c, h, w = x.shape
    flat = c * (h // s) * (w // s)
    spec = NetworkSpec(x.shape[1:], (MaxPool2D(s), Flatten(), Dense(flat, 2)), 2)
    return _evaluate(nn.init_network(spec), x, stop=1)


class TestMaxPoolReference:
    """Strided-tap max pooling against a per-tile ``np.argmax`` loop, bit for bit."""

    @staticmethod
    def relu_input(rng, shape):
        # ReLU emits -0.0 for negative inputs and +0.0 for +0.0, so tiles whose
        # max is zero mix both signs; a few exact zeros make that common.
        h = rng.choice([-1.5, -0.5, -0.0, 0.0, 0.25, 2.0], size=shape) * (rng.random(shape) < 0.9)
        return h * (h > 0)

    @staticmethod
    def assert_matches_naive(x, s, rng, cached):
        if not cached:
            y = forward_only_maxpool(x, s)
            assert y.tobytes() == naive_maxpool(x, np.zeros(y.shape), s)[0].tobytes()
            return
        y, cache = layer_forward(MaxPool2D(s), None, x)
        dy = rng.choice([-1.0, -0.0, 0.5, 3.0], size=y.shape)
        want_y, want_flat, want_dx = naive_maxpool(x, dy, s)
        assert y.tobytes() == want_y.tobytes()
        dx, _ = layer_backward(MaxPool2D(s), None, cache, dy)
        np.testing.assert_array_equal(cache[1], want_flat)
        assert dx.tobytes() == want_dx.tobytes()

    @staticmethod
    def mixed_zero_tiles(x, s):
        """Whether some tile of ``x`` has max zero and holds both -0.0 and +0.0."""
        n, c, h, w = x.shape
        tiles = x.reshape(n, c, h // s, s, w // s, s).transpose(0, 1, 2, 4, 3, 5).reshape(-1, s * s)
        signs = np.signbit(tiles[tiles.max(axis=1) == 0])
        return bool((signs.any(axis=1) & ~signs.all(axis=1)).any())

    @pytest.mark.parametrize("s, cached", POOL_ROUTES)
    def test_signed_zero_ties(self, s, cached):
        rng = np.random.default_rng(s)
        x = self.relu_input(rng, (3, 2, 4 * s, 3 * s))
        assert self.mixed_zero_tiles(x, s)
        self.assert_matches_naive(x, s, rng, cached)

    @pytest.mark.parametrize("s, cached", POOL_ROUTES)
    def test_nan_tiles(self, s, cached):
        rng = np.random.default_rng(10 + s)
        x = rng.standard_normal((2, 3, 2 * s, 4 * s))
        x[0, 0, 1, 1] = np.nan  # NaN after a finite max
        x[0, 1, 0, 0] = np.nan  # NaN in the first tap
        x[1, 2, s - 1, s - 1] = x[1, 2, 0, s - 1] = np.nan  # two NaNs in one tile
        x[1, 0, :s, :s] = np.inf
        x[1, 0, 0, 1] = np.nan  # NaN among infinities
        self.assert_matches_naive(x, s, rng, cached)

    @pytest.mark.parametrize("s, cached", POOL_ROUTES)
    def test_random_input(self, s, cached):
        rng = np.random.default_rng(20 + s)
        self.assert_matches_naive(rng.standard_normal((4, 3, 3 * s, 2 * s)), s, rng, cached)

    @pytest.mark.parametrize("s, cached", POOL_ROUTES)
    def test_repick_where_the_tile_max_loses_bits(self, s, cached, monkeypatch):
        # np.maximum may return any NaN of a tile, and either zero of a
        # -0.0/+0.0 tie. A tile max that always answers canonical NaN and +0.0
        # leaves the first maximal element's bits to the re-pick alone.
        import adval.nn.layers as layers

        tile_max = layers._tile_max

        def canonical(x, size):
            peak = tile_max(x, size)
            peak[np.isnan(peak)] = np.nan
            peak[peak == 0] = 0.0
            return peak

        monkeypatch.setattr(layers, "_tile_max", canonical)
        rng = np.random.default_rng(30 + s)
        x = self.relu_input(rng, (2, 3, 4 * s, 2 * s))
        x[0, 0, :s, :s] = -0.0  # max zero, first element -0.0
        x[0, 0, s - 1, s - 1] = 0.0
        # quiet NaNs whose bits are not np.nan's: a sign bit and a payload
        nans = np.array([0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_0123], dtype=np.uint64)
        x[1, 1, s, s], x[1, 2, 0, 1] = nans.view(np.float64)
        self.assert_matches_naive(x, s, rng, cached)

    def test_batched_evaluation_matches_cached_forward(self):
        # Zero biases and an exact-zero background: conv outputs there are
        # +0.0 and ReLU turns negative ones into -0.0. The content starts at
        # an odd conv output row and column, so pool tiles straddle its edge.
        state = nn.init_network(nn.build_network("arch-A", (1, 28, 28), 10, seed=7))
        x = np.zeros((200, 1, 28, 28))  # one evaluation chunk
        x[:, :, 7:21, 7:21] = np.random.default_rng(8).uniform(0.0, 1.0, size=(200, 1, 14, 14))
        assert self.mixed_zero_tiles(_forward_caches(state, x, stop=2)[0], 2)
        assert nn.forward_batch(state, x).tobytes() == _forward_caches(state, x)[0].tobytes()
        stop = len(state.spec.layers) - 1
        want = _forward_caches(state, x, stop=stop)[0]
        assert nn.embed_batch(state, x).tobytes() == want.tobytes()
        # the dense layers add a ±0.0 input's product to nonzero sums, so check the pool itself
        pooled = reference_forward_caches(state, x, stop=3)[0]
        assert _evaluate(state, x, stop=3).tobytes() == pooled.tobytes()


def relu_then_pool(x, s):
    """The two layers one after the other: ``forward(ReLU)``, then ``naive_maxpool``'s loop."""
    h = layer_forward(ReLU(), None, x)[0]
    n, c, rows, cols = h.shape
    return naive_maxpool(h, np.zeros((n, c, rows // s, cols // s)), s)[0]


@pytest.fixture
def two_layer_calls(monkeypatch):
    """Counts the calls of ``relu_maxpool``'s two-layer route: ``_maxpool`` on ReLU's output."""
    calls = []
    original = layers._maxpool

    def counted(x, s):
        calls.append(s)
        return original(x, s)

    monkeypatch.setattr(layers, "_maxpool", counted)
    return calls


class TestPoolBeforeReLU:
    """``relu_maxpool`` against ReLU then MaxPool2D, byte for byte."""

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_finite_tiles_pool_first(self, s, two_layer_calls):
        rng = np.random.default_rng(40 + s)
        x = rng.choice([-1.5, -0.5, -0.0, 0.0, 0.25, 2.0], size=(3, 2, 4 * s, 3 * s))
        # each tile's first element is set last, so that at s = 1 it is the tile
        x[0, 0, :s, :s] = -1.0  # all negative
        x[1, 0, :s, :s] = -2.0
        x[1, 0, s - 1, s - 1] = 0.0
        x[1, 0, 0, 0] = -0.0  # max zero, first element -0.0
        x[1, 1, :s, :s] = -3.0
        x[1, 1, s - 1, s - 1] = -0.0
        x[1, 1, 0, 0] = 0.0  # max zero, first element +0.0
        x[2, 0, :s, :s] = 0.0
        x[2, 0, 0, 0] = -4.0  # max zero, first element negative
        x[2, 1, :s, s : 2 * s] = 1.0
        x[2, 1, 0, s] = np.inf
        want = relu_then_pool(x, s)
        two_layer_calls.clear()
        assert layers.relu_maxpool(x, s).tobytes() == want.tobytes()
        assert not two_layer_calls
        assert want[1, 0, 0, 0].tobytes() == np.float64(-0.0).tobytes()
        assert want[1, 1, 0, 0].tobytes() == np.float64(0.0).tobytes()

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_nan_or_negative_infinity_runs_the_two_layers(self, s, two_layer_calls):
        rng = np.random.default_rng(50 + s)
        x = rng.standard_normal((2, 3, 2 * s, 3 * s))
        # quiet NaNs whose bits are not np.nan's: a sign bit and a payload
        nans = np.array([0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_0123], dtype=np.uint64)
        for case in ("nan", "-inf"):
            y = x.copy()
            if case == "nan":
                y[0, 1, 0, 0], y[1, 2, s - 1, s - 1] = nans.view(np.float64)
            else:
                tile = [5.0, -np.inf, 1.0, 2.0] + [1.0] * (s * s - 4) if s > 1 else [-np.inf]
                y[1, 0, :s, :s] = np.reshape(tile, (s, s))
            with np.errstate(invalid="ignore"):  # ReLU's -inf · 0
                want = relu_then_pool(y, s)
                two_layer_calls.clear()
                got = layers.relu_maxpool(y, s)
            assert got.tobytes() == want.tobytes()
            assert two_layer_calls == [s]
            if case == "-inf" and s > 1:
                # pooled first, the tile's max would be 5.0
                assert np.isnan(got[1, 0, 0, 0])

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_random_tiles(self, s):
        rng = np.random.default_rng(60 + s)
        nans = np.array([0x7FF8_0000_0000_0001, 0xFFF8_0000_0000_0002], dtype=np.uint64).view(np.float64)
        pooled_first = np.array([-1.5, -0.5, -0.0, 0.0, 0.25, 2.0, np.inf])
        any_value = np.concatenate([pooled_first, [-np.inf], nans])
        for i in range(300):
            values = any_value if i % 3 == 0 else pooled_first
            x = rng.choice(values, size=(2, 2, s * int(rng.integers(1, 4)), s * int(rng.integers(1, 4))))
            with np.errstate(invalid="ignore"):
                assert layers.relu_maxpool(x, s).tobytes() == relu_then_pool(x, s).tobytes()


def relu_then_pool_with_grad(x, s, dy):
    """ReLU then MaxPool2D, layer by layer: the output and the input gradient of ``dy``."""
    h, mask = layer_forward(ReLU(), None, x)
    y, cache = layer_forward(MaxPool2D(s), None, h)
    dh, _ = layer_backward(MaxPool2D(s), None, cache, dy, param_grads=False)
    return y, layer_backward(ReLU(), None, mask, dh, param_grads=False)[0]


class TestCachedPairKernel:
    """``relu_maxpool_cached`` and MaxPool2D's backward over its cache against ReLU
    then MaxPool2D run layer by layer, byte for byte, and the cached walks of a
    network against ``conftest.reference_forward_caches``."""

    @staticmethod
    def assert_matches_two_layers(x, s, dy):
        want_y, want_dx = relu_then_pool_with_grad(x, s, dy)
        y, cache = layers.relu_maxpool_cached(x, s)
        assert y.tobytes() == want_y.tobytes()
        dx, _ = layer_backward(MaxPool2D(s), None, cache, dy, param_grads=False)
        dx, _ = layer_backward(ReLU(), None, None, dx, param_grads=False)
        assert dx.shape == want_dx.shape
        assert dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("lead", [(), (1,), (10,), (2, 3)], ids=str)
    def test_finite_tiles(self, s, lead, two_layer_calls):
        rng = np.random.default_rng(70 + s)
        x = rng.choice([-1.5, -0.5, -0.0, 0.0, 0.25, 2.0], size=(3, 2, 4 * s, 3 * s))
        # each tile's first element is set last, so that at s = 1 it is the tile
        x[0, 0, :s, :s] = -1.0  # all negative
        x[1, 0, :s, :s] = -0.0
        x[1, 0, s - 1, s - 1] = 0.0
        x[1, 0, 0, 0] = -2.0  # a run of signed zeros after a negative first element
        x[1, 1, :s, :s] = 2.0  # tied positive maxima
        x[2, 0, :s, :s] = 1.0
        x[2, 0, s - 1, s - 1] = np.inf
        dy = rng.choice([-1.0, -0.0, 0.0, 0.5, np.inf], size=(*lead, 3, 2, 4, 3))
        dy[..., 0, 0, 0, 0] = np.inf  # the gradient of an all-negative tile: inf · 0 is NaN
        two_layer_calls.clear()
        with np.errstate(invalid="ignore"):
            self.assert_matches_two_layers(x, s, dy)
        assert two_layer_calls == [s]  # the reference's own MaxPool2D, not the kernel's

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_nan_or_negative_infinity_runs_the_two_layers(self, s, two_layer_calls):
        rng = np.random.default_rng(80 + s)
        x = rng.standard_normal((2, 3, 2 * s, 3 * s))
        nans = np.array([0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_0123], dtype=np.uint64)
        for case in ("nan", "-inf"):
            y = x.copy()
            if case == "nan":
                y[0, 1, 0, 0], y[1, 2, s - 1, s - 1] = nans.view(np.float64)
            else:
                y[1, 0, :s, :s] = 5.0
                y[1, 0, s - 1, s - 1] = -np.inf
            dy = rng.choice([-1.0, -0.0, 0.5, np.inf], size=(4, 2, 3, 2, 3))
            with np.errstate(invalid="ignore"):  # ReLU's -inf · 0 and the gradient's inf · 0
                two_layer_calls.clear()
                layers.relu_maxpool_cached(y, s)
                assert two_layer_calls == [s]
                self.assert_matches_two_layers(y, s, dy)
                self.assert_matches_two_layers(y, s, dy[0])

    def test_last_tap_of_a_tile_wider_than_16(self):
        # a 17×17 tile counts its taps past 255, in a wider type than uint8
        x = np.full((1, 2, 17, 17), -1.0)
        x[0, 0, 16, 16] = 1.0
        x[0, 1, 15, 2] = 1.0  # tap 257
        self.assert_matches_two_layers(x, 17, np.full((3, 1, 2, 1, 1), 2.0))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_random_tiles(self, s):
        rng = np.random.default_rng(90 + s)
        nans = np.array([0x7FF8_0000_0000_0001, 0xFFF8_0000_0000_0002], dtype=np.uint64).view(np.float64)
        pooled_first = np.array([-1.5, -0.5, -0.0, 0.0, 0.25, 2.0, np.inf])
        any_value = np.concatenate([pooled_first, [-np.inf], nans])
        for i in range(300):
            values = any_value if i % 3 == 0 else pooled_first
            rows, cols = s * int(rng.integers(1, 4)), s * int(rng.integers(1, 4))
            x = rng.choice(values, size=(2, 2, rows, cols))
            lead = tuple(int(n) for n in rng.integers(1, 11, size=int(rng.integers(0, 2))))
            dy = rng.choice([-1.0, -0.0, 0.0, 0.5, 3.0, np.inf], size=(*lead, 2, 2, rows // s, cols // s))
            with np.errstate(invalid="ignore"):
                self.assert_matches_two_layers(x, s, dy)

    @pytest.fixture
    def net_and_inputs(self):
        # an exact-zero background, as in TestCacheFreeWalk, so that some tiles have max zero
        state = nn.init_network(nn.build_network("arch-A", (1, 28, 28), 10, seed=31))
        rng = np.random.default_rng(32)
        x = rng.uniform(0.0, 1.0, size=(40, 1, 28, 28))
        x[::2] = 0.0
        x[::2, :, 7:21, 7:21] = rng.uniform(0.0, 1.0, size=(20, 1, 14, 14))
        return state, x

    @staticmethod
    def walks(state, x):
        """Training's loss and gradients, EGL's probabilities and squared norms, and Jacobians."""
        labels = np.arange(len(x)) % 10
        loss, grads = loss_and_param_grads(state, x, labels)
        flat_grads = [g[k] for g in grads if g is not None for k in ("W", "b")]
        _, jacobian = logits_and_deferred_jacobian(state, x[:7])
        return [np.float64(loss), *flat_grads, *probs_and_grad_sq_norms(state, x), jacobian([0, 2, 3, 6])]

    def test_cached_walks_equal_a_layer_by_layer_walk(self, net_and_inputs, monkeypatch):
        state, x = net_and_inputs
        assert (layers._tile_max(reference_forward_free(state, x, stop=1), 2) == 0).any()
        got = self.walks(state, x)
        monkeypatch.setattr(network, "_forward_caches", reference_forward_caches)
        want = self.walks(state, x)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


class TestCacheFreeWalk:
    """Batched evaluation, whose ReLU and MaxPool2D run as one kernel, against
    ``conftest.reference_forward_free``, which runs every layer on its own."""

    @pytest.fixture
    def net_and_inputs(self):
        # Zero biases and an exact-zero background: conv outputs there are
        # +0.0 and ReLU turns negative ones into -0.0, so some pool tiles have
        # max zero. Half the rows are uniform noise with no zero.
        state = nn.init_network(nn.build_network("arch-A", (1, 28, 28), 10, seed=21))
        rng = np.random.default_rng(22)
        x = rng.uniform(0.0, 1.0, size=(_CHUNK - 5, 1, 28, 28))
        x[::2] = 0.0
        x[::2, :, 7:21, 7:21] = rng.uniform(0.0, 1.0, size=(len(x[::2]), 1, 14, 14))
        return state, x

    @staticmethod
    def record_layers(monkeypatch):
        """The kinds of the layers that go through ``layers.forward``, in call order."""
        kinds = []
        forward = layers.forward

        def recorded(layer, *args, **kwargs):
            kinds.append(type(layer).__name__)
            return forward(layer, *args, **kwargs)

        monkeypatch.setattr(layers, "forward", recorded)
        return kinds

    def test_the_pair_runs_as_one_kernel(self, net_and_inputs, monkeypatch):
        state, x = net_and_inputs
        kernel, sizes = layers.relu_maxpool, []
        monkeypatch.setattr(layers, "relu_maxpool", lambda h, s: sizes.append(s) or kernel(h, s))
        kinds = self.record_layers(monkeypatch)
        nn.forward_batch(state, x[:40])
        assert sizes == [2, 2]  # one call per 32-row block
        assert kinds == ["Conv2D", "Flatten"] * 2 + ["Dense", "ReLU", "Dropout", "Dense"]

    def test_cached_walks_run_the_pair_as_one_kernel(self, net_and_inputs, monkeypatch):
        state, x = net_and_inputs
        _, jacobian = logits_and_deferred_jacobian(state, x[:3])
        kernel, rows = layers.relu_maxpool_cached, []
        monkeypatch.setattr(layers, "relu_maxpool_cached", lambda h, s: rows.append(len(h)) or kernel(h, s))
        monkeypatch.setattr(layers, "relu_maxpool", lambda *a: pytest.fail("a cached walk dropped its caches"))
        kinds = self.record_layers(monkeypatch)
        loss_and_param_grads(state, x[:4], np.arange(4))
        probs_and_grad_sq_norms(state, x[:4])
        jacobian(np.arange(3))
        # training and EGL run the pair as one kernel on their batch; the Jacobian
        # reruns the layers below the first Dense on its 3 inputs, the pair as one kernel
        assert rows == [4, 4, 3]
        assert kinds == ["Conv2D", "Flatten", "Dense", "ReLU", "Dropout", "Dense"] * 2 + ["Conv2D", "Flatten"]

    def test_forward_batch(self, net_and_inputs):
        state, x = net_and_inputs
        conv = reference_forward_free(state, x, stop=1)
        assert (layers._tile_max(conv, 2) == 0).any()
        assert nn.forward_batch(state, x).tobytes() == reference_forward_free(state, x).tobytes()

    def test_embed_batch(self, net_and_inputs):
        state, x = net_and_inputs
        stop = len(state.spec.layers) - 1
        assert nn.embed_batch(state, x).tobytes() == reference_forward_free(state, x, stop=stop).tobytes()

    def test_bald_dropout_passes(self, net_and_inputs):
        state, x = net_and_inputs
        got = bald_probability_samples(state, x, samples=2, seed=23)
        for t in range(2):
            mask_seed = int(np.random.SeedSequence((23, t)).generate_state(1)[0])
            logits = reference_forward_free(state, x, rng=np.random.default_rng(mask_seed))
            assert got[t].tobytes() == nn.softmax_probs(logits).tobytes()

    def test_nonfinite_rows(self, net_and_inputs, two_layer_calls):
        state, x = net_and_inputs
        x = x[:40].copy()
        x[3, 0, 10, 10] = -np.inf  # conv outputs of ±inf and NaN in the first block only
        with np.errstate(invalid="ignore"):
            want = reference_forward_free(state, x)
            two_layer_calls.clear()
            assert nn.forward_batch(state, x).tobytes() == want.tobytes()
        assert two_layer_calls == [2]


def naive_conv_backward(x, w, dy, stride):
    """dx, dW, db of a valid convolution by explicit loops over every product."""
    n, f, ho, wo = dy.shape
    k = w.shape[2]
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for b in range(n):
        for o in range(f):
            for i in range(ho):
                for j in range(wo):
                    rows = slice(stride * i, stride * i + k)
                    cols = slice(stride * j, stride * j + k)
                    dx[b, :, rows, cols] += dy[b, o, i, j] * w[o]
                    dw[o] += dy[b, o, i, j] * x[b, :, rows, cols]
    return dx, dw, dy.sum(axis=(0, 2, 3))


def layer_cases(rng):
    """(layer, params, input batch) for one instance of every layer kind."""
    dense = {"W": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)}
    conv = {"W": rng.standard_normal((3, 2, 3, 3)), "b": rng.standard_normal(3)}
    return [
        (Dense(4, 3), dense, rng.standard_normal((5, 4))),
        (Conv2D(filters=3, kernel=3, stride=2), conv, rng.standard_normal((2, 2, 7, 7))),
        (MaxPool2D(2), None, rng.standard_normal((2, 3, 4, 6))),
        (ReLU(), None, rng.standard_normal((4, 5))),
        (Dropout(0.5), None, rng.standard_normal((4, 5))),
        (Flatten(), None, rng.standard_normal((2, 3, 2, 2))),
    ]


class TestBackward:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_matches_naive_loops(self, stride):
        # a 3-wide kernel overlaps its neighbours at both strides
        rng = np.random.default_rng(stride)
        x = rng.standard_normal((2, 3, 9, 8))
        layer = Conv2D(filters=4, kernel=3, stride=stride)
        params = {"W": rng.standard_normal((4, 3, 3, 3)), "b": rng.standard_normal(4)}
        y, cache = layer_forward(layer, params, x)
        dy = rng.standard_normal(y.shape)
        dx, grads = layer_backward(layer, params, cache, dy)
        want_dx, want_dw, want_db = naive_conv_backward(x, params["W"], dy, stride)
        np.testing.assert_allclose(dx, want_dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads["W"], want_dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads["b"], want_db, rtol=1e-12, atol=1e-12)

    def test_partial_requests_equal_full_backward(self):
        rng = np.random.default_rng(8)
        for layer, params, x in layer_cases(rng):
            y, cache = layer_forward(layer, params, x, rng=rng)
            dy = rng.standard_normal(y.shape)
            full_dx, full_grads = layer_backward(layer, params, cache, dy)
            dx, none = layer_backward(layer, params, cache, dy, param_grads=False)
            np.testing.assert_array_equal(dx, full_dx)
            assert none is None
            none, grads = layer_backward(layer, params, cache, dy, input_grad=False)
            assert none is None
            if params is None:
                assert grads is None and full_grads is None
            else:
                assert grads.keys() == full_grads.keys() == params.keys()
                for key in params:
                    np.testing.assert_array_equal(grads[key], full_grads[key])

    def test_leading_axes_equal_a_loop_of_ordinary_calls(self):
        rng = np.random.default_rng(9)
        for layer, params, x in layer_cases(rng):
            y, cache = layer_forward(layer, params, x, rng=rng)
            dy = rng.standard_normal((2, 3, *y.shape))
            dx, none = layer_backward(layer, params, cache, dy, param_grads=False)
            assert none is None and dx.shape == (2, 3, *x.shape)
            for lead in np.ndindex(2, 3):
                want, _ = layer_backward(layer, params, cache, dy[lead], param_grads=False)
                if params is None:
                    np.testing.assert_array_equal(dx[lead], want)
                else:
                    np.testing.assert_allclose(dx[lead], want, rtol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", [(32, 1, 28, 28, 8, 5), (5, 3, 9, 8, 4, 3)])
    def test_conv_grads_from_cached_columns_equal_a_fresh_im2col(self, shape, stride):
        # arch-A's layer on a training batch, and a multi-channel one
        n, c, h, w, f, k = shape
        rng = np.random.default_rng(stride)
        layer = Conv2D(filters=f, kernel=k, stride=stride)
        params = {"W": rng.standard_normal((f, c, k, k)), "b": rng.standard_normal(f)}
        x = rng.standard_normal((n, c, h, w))
        y, cache = layer_forward(layer, params, x)
        positions = y.shape[2] * y.shape[3]
        # (N, positions, C·k·k) rows, re-formed from the window view
        fresh = _conv_windows(x, k, stride).transpose(0, 2, 3, 1, 4, 5).reshape(n, positions, -1)
        dy = rng.standard_normal(y.shape)
        _, grads = layer_backward(layer, params, cache, dy, input_grad=False)
        want = np.dot(dy.transpose(1, 0, 2, 3).reshape(f, -1), fresh.reshape(n * positions, -1))
        assert grads["W"].tobytes() == want.tobytes()
        seeds = rng.standard_normal((3, *y.shape))
        delta = seeds.reshape(3, n, f, positions)
        dw, db = np.matmul(delta, fresh), delta.sum(axis=-1)
        want = (dw * dw).sum(axis=(-2, -1)) + (db * db).sum(axis=-1)
        assert grad_sq_norms(layer, cache, seeds).tobytes() == want.tobytes()

    def test_grad_sq_norms_equal_one_example_backward(self):
        rng = np.random.default_rng(10)
        for layer, params, x in layer_cases(rng):
            if params is None:
                continue
            y, cache = layer_forward(layer, params, x)
            dy = rng.standard_normal((3, *y.shape))
            sq = grad_sq_norms(layer, cache, dy)
            assert sq.shape == (3, len(x))
            for lead, n in np.ndindex(sq.shape):
                _, one = layer_forward(layer, params, x[n : n + 1])
                _, grads = layer_backward(layer, params, one, dy[lead, n : n + 1], input_grad=False)
                want = sum(float((g * g).sum()) for g in grads.values())
                np.testing.assert_allclose(sq[lead, n], want, rtol=1e-12)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(nn.softmax_probs(np.zeros(3)), np.full(3, 1 / 3))

    def test_extreme_logits_stable(self):
        p = nn.softmax_probs(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_hand_value(self):
        np.testing.assert_allclose(
            nn.softmax_probs(np.array([1.0, 2.0])), [0.26894, 0.73106], atol=1e-5
        )

    def test_probability_vector_at_magnitude_1e3(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = rng.uniform(-1e3, 1e3, size=rng.integers(2, 10))
            p = nn.softmax_probs(z)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-9


def embed(state, x):
    return nn.embed_batch(state, np.asarray(x, dtype=float)[None])[0]


class TestEmbed:
    def test_embed_is_prelogit_activation(self):
        spec = NetworkSpec((3,), (Dense(3, 4), ReLU(), Dense(4, 2)), 2, init_seed=2)
        state = nn.init_network(spec)
        x = np.array([0.3, -0.4, 1.2])
        h = np.maximum(0.0, x @ state.params[0]["W"] + state.params[0]["b"])
        np.testing.assert_allclose(embed(state, x), h, rtol=1e-12)

    def test_embed_dimension_is_final_fan_in(self):
        spec = NetworkSpec((3,), (Dense(3, 5), ReLU(), Dense(5, 2)), 2, init_seed=2)
        state = nn.init_network(spec)
        assert embed(state, np.zeros(3)).shape == (5,)

    def test_embed_deterministic(self):
        spec = NetworkSpec((3,), (Dense(3, 5), Dropout(0.4), Dense(5, 2)), 2, init_seed=2)
        state = nn.init_network(spec)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(embed(state, x), embed(state, x))

    def test_no_dense_layer_rejected(self):
        spec = NetworkSpec((1, 4, 4), (Conv2D(2, 3), Flatten(), Dense(8, 2)), 2)
        state = nn.init_network(spec)
        embed(state, np.zeros((1, 4, 4)))  # fine: has a dense layer
        conv_only = NetworkSpec((1, 3, 3), (Conv2D(2, 3), Flatten()), 2)
        with pytest.raises(UnsupportedArchitectureError):
            embed(nn.init_network(conv_only), np.zeros((1, 3, 3)))


class TestChunkedEvaluation:
    ROWS = 600  # two full 256-row chunks and a partial one

    @pytest.fixture(params=["arch-A", "arch-B"])
    def net_and_inputs(self, request):
        spec = nn.build_network(request.param, (1, 12, 12), 10, seed=5)
        x = np.random.default_rng(6).uniform(0.0, 1.0, size=(self.ROWS, 1, 12, 12))
        return nn.init_network(spec), x

    @pytest.mark.parametrize("dropout_seed", [None, 9])
    def test_forward_batch_matches_naive_loop(self, net_and_inputs, dropout_seed):
        state, x = net_and_inputs
        got = nn.forward_batch(state, x, dropout_seed=dropout_seed)
        whole = naive_layers(state, x, dropout_seed=dropout_seed)
        np.testing.assert_allclose(got, whole, rtol=1e-12)
        sliced = naive_layers(state, x, dropout_seed=dropout_seed, rows=256)
        np.testing.assert_array_equal(got, sliced)

    def test_embed_batch_matches_naive_loop(self, net_and_inputs):
        state, x = net_and_inputs
        stop = len(state.spec.layers) - 1  # both architectures end in their last dense layer
        got = nn.embed_batch(state, x)
        np.testing.assert_allclose(got, naive_layers(state, x, stop=stop), rtol=1e-12)
        np.testing.assert_array_equal(got, naive_layers(state, x, stop=stop, rows=256))

    def test_zero_rows(self, net_and_inputs):
        state, x = net_and_inputs
        assert nn.forward_batch(state, x[:0]).shape == (0, 10)
        assert nn.forward_batch(state, x[:0], dropout_seed=1).shape == (0, 10)
        assert nn.embed_batch(state, x[:0]).shape == (0, 64)
        assert nn.predict_batch(state, x[:0]).shape == (0,)


def per_chunk(state, x, stop=None, dropout_seed=None):
    """``layers[:stop]`` layer by layer on each ``_CHUNK``-row slice, one mask stream."""
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    chunks = [x[lo : lo + _CHUNK] for lo in range(0, len(x), _CHUNK)]
    return np.concatenate([reference_forward_caches(state, c, stop=stop, rng=rng)[0] for c in chunks])


class TestBlockedEvaluation:
    """Blocks below the first Dense or Dropout layer give the bytes of whole chunks."""

    ROWS = 2 * _CHUNK + 37  # the last chunk and its last block are partial

    def test_arch_a_matches_whole_chunks(self):
        state = nn.init_network(nn.build_network("arch-A", (1, 28, 28), 10, seed=11))
        x = np.random.default_rng(12).uniform(0.0, 1.0, size=(self.ROWS, 1, 28, 28))
        assert nn.forward_batch(state, x).tobytes() == per_chunk(state, x).tobytes()
        got = nn.forward_batch(state, x, dropout_seed=13)
        assert got.tobytes() == per_chunk(state, x, dropout_seed=13).tobytes()
        stop = len(state.spec.layers) - 1
        assert nn.embed_batch(state, x).tobytes() == per_chunk(state, x, stop=stop).tobytes()

    def test_blocks_draw_no_dropout_mask(self):
        # a dropout layer below the first dense layer ends the blocked layers,
        # so its masks are drawn chunk by chunk as an unblocked pass draws them
        layers = (Conv2D(4, 3), ReLU(), Dropout(0.5), MaxPool2D(2), Flatten(), Dense(64, 6))
        spec = NetworkSpec((1, 10, 10), (*layers, ReLU(), Dense(6, 3)), 3, init_seed=14)
        state = nn.init_network(spec)
        x = np.random.default_rng(15).uniform(0.0, 1.0, size=(self.ROWS, 1, 10, 10))
        got = nn.forward_batch(state, x, dropout_seed=16)
        assert got.tobytes() == per_chunk(state, x, dropout_seed=16).tobytes()
        assert got.tobytes() != nn.forward_batch(state, x).tobytes()

    def test_chunk_peak_is_set_by_a_block(self):
        state = nn.init_network(nn.build_network("arch-A", (1, 28, 28), 10, seed=17))
        x = np.random.default_rng(18).uniform(0.0, 1.0, size=(_CHUNK, 1, 28, 28))
        tracemalloc.start()
        try:
            nn.forward_batch(state, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A whole chunk's im2col columns take 29.5 MB; a block's take 3.7 MB.
        assert peak < 12 * 2**20

    def test_conv_without_cache_keeps_no_columns(self):
        # a forward pass that forms no parameter gradient keeps no im2col columns
        layer = Conv2D(filters=2, kernel=3)
        params = {"W": np.ones((2, 1, 3, 3)), "b": np.zeros(2)}
        x = np.ones((4, 1, 5, 5))
        y, cache = layer_forward(layer, params, x, param_grads=False)
        assert cache == (x.shape, None)
        assert y.tobytes() == layer_forward(layer, params, x)[0].tobytes()


class TestThreadedEvaluation:
    """Chunk heads run on threads with the bytes of the inline pass."""

    ROWS = 6 * _CHUNK + 37  # two chunks or more for each of 3 threads, the last one partial

    @pytest.fixture
    def state(self):
        return nn.init_network(nn.build_network("arch-A", (1, 12, 12), 10, seed=21))

    @pytest.fixture
    def x(self):
        return np.random.default_rng(22).uniform(0.0, 1.0, size=(self.ROWS, 1, 12, 12))

    @pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
    @pytest.mark.parametrize("dropout_seed", [None, 9])
    def test_forward_batch_same_bytes(self, cpus, state, x, view, dropout_seed):
        rows = np.random.default_rng(23).permutation(len(x))
        pool = CandidateSet(x, rows) if view else x[rows]
        def score():
            return nn.forward_batch(state, pool, dropout_seed=dropout_seed)

        inline, threaded = inline_and_threaded(cpus, score)
        assert threaded.tobytes() == inline.tobytes()

    def test_embed_batch_same_bytes(self, cpus, state, x):
        inline, threaded = inline_and_threaded(cpus, lambda: nn.embed_batch(state, x))
        assert threaded.tobytes() == inline.tobytes()

    def test_heads_run_on_the_pool_above_layers_in_the_caller(self, cpus, state, x, monkeypatch):
        # the layers above the split, with dropout's one generator, stay in the calling thread
        seen = []
        check = network._check_batch
        forward_layer = layers.forward

        def checked(spec, rows):
            seen.append(("head", threading.current_thread()))
            return check(spec, rows)

        def recorded(layer, *args, **kwargs):
            if isinstance(layer, Dense):
                seen.append(("above", threading.current_thread()))
            return forward_layer(layer, *args, **kwargs)

        monkeypatch.setattr(network, "_check_batch", checked)
        monkeypatch.setattr(layers, "forward", recorded)
        cpus(3)
        nn.forward_batch(state, x, dropout_seed=1)
        heads = [t for where, t in seen if where == "head"]
        assert len(heads) == 7 and threading.current_thread() not in heads
        assert {t for where, t in seen if where == "above"} == {threading.current_thread()}

    def test_dense_head_runs_inline(self, cpus, state, x, monkeypatch):
        # arch-B has no Conv2D below its first Dense layer, so it never reaches the pool
        class NoPool:
            def submit(self, *args):
                pytest.fail("a task reached the pool")

            def shutdown(self, wait=True):
                pass

        net = nn.init_network(nn.build_network("arch-B", (1, 12, 12), 10, seed=21))
        monkeypatch.setattr(network, "_pool", NoPool())
        cpus(3)
        assert nn.forward_batch(net, x).shape == (len(x), 10)
        assert nn.embed_batch(net, x).shape == (len(x), 64)

    def test_third_chunk_error_raises_as_inline(self, cpus, state, x):
        class ThirdChunkBad:
            def __len__(self):
                return len(x)

            def __getitem__(self, key):
                return x[key][:, :, :10] if key.start == 2 * _CHUNK else x[key]

        errors = []
        for n in (1, 3):
            cpus(n)
            with pytest.raises(InputError) as info:
                nn.forward_batch(state, ThirdChunkBad())
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "input shape (1, 10, 12) does not match network input (1, 12, 12)"

    def overflowing(self, state, x):
        """A state whose Conv2D sums 25 taps of 1e308 to inf in every chunk from the third on."""
        params = [None if p is None else {k: v.copy() for k, v in p.items()} for p in state.params]
        params[0]["W"][:] = 1.0
        x = x.copy()
        x[2 * _CHUNK :] = 1e308
        return nn.NetworkState(state.spec, tuple(params)), x

    def test_callers_error_state_raises_in_a_worker(self, cpus, state, x):
        broken, x = self.overflowing(state, x)
        cpus(3)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
            nn.forward_batch(broken, x)

    def test_callers_error_state_silences_a_worker(self, cpus, state, x):
        broken, x = self.overflowing(state, x)
        cpus(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                logits = nn.forward_batch(broken, x)
        assert np.isfinite(logits[: 2 * _CHUNK]).all() and not np.isfinite(logits[-1]).any()

    def test_concurrent_callers_share_the_pool(self, cpus, state, x):
        # 4 callers start on a process with no pool yet, 4 threads for 2 or fewer cores
        cpus(1)
        want = nn.forward_batch(state, x, dropout_seed=5).tobytes()
        cpus(4)
        got = []
        callers = [
            threading.Thread(target=lambda: got.append(nn.forward_batch(state, x, dropout_seed=5).tobytes()))
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [want] * 4

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_can_score(self, cpus, state, x):
        cpus(3)
        want = nn.forward_batch(state, x)  # the pool now runs
        assert network._pool is not None
        with warnings.catch_warnings():  # Python 3.12 warns about forking a threaded process
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(60)  # a hang ends the child, with a nonzero status
                code = 0 if nn.forward_batch(state, x).tobytes() == want.tobytes() else 3
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


class TestInOrder:
    """``network._in_order``: results in item order, on at most ``_CPUS`` threads at a time."""

    def test_results_in_item_order(self, cpus):
        cpus(3)

        def slow_first(i):
            time.sleep(0.05 if i == 0 else 0)
            return i * i

        assert list(_in_order(slow_first, range(10), True)) == [i * i for i in range(10)]

    @pytest.mark.parametrize(
        "n, items, threaded", [(1, range(5), True), (3, range(1), True), (3, range(5), False)],
        ids=["one-cpu", "one-item", "not-threaded"],
    )
    def test_runs_inline(self, cpus, n, items, threaded):
        cpus(n)
        ran = list(_in_order(lambda i: threading.current_thread(), items, threaded))
        assert ran == [threading.current_thread()] * len(items)

    def test_nested_call_runs_inline_and_finishes(self, cpus):
        cpus(2)

        def outer(i):
            inner = _in_order(lambda j: (threading.current_thread(), j), range(4), True)
            return threading.current_thread(), list(inner)

        got = []
        caller = threading.Thread(target=lambda: got.extend(_in_order(outer, range(4), True)), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "a nested call waited on the pool it runs on"
        assert [[j for _, j in inner] for _, inner in got] == [list(range(4))] * 4
        assert all({t for t, _ in inner} == {worker} for worker, inner in got)

    def test_first_failing_item_raises(self, cpus):
        cpus(3)

        def fail(i):
            if i == 2:
                time.sleep(0.1)  # item 4 fails first in time
                raise KeyError(2)
            if i == 4:
                raise ValueError(4)
            return i

        got = []
        with pytest.raises(KeyError):
            got.extend(_in_order(fail, range(6), True))
        assert got == [0, 1]

    def test_at_most_cpus_items_in_flight(self, cpus):
        cpus(3)
        started, consumed, in_flight = [0], 0, []
        lock = threading.Lock()

        def work(i):
            with lock:
                started[0] += 1
            time.sleep(0.002)
            return i

        for _ in _in_order(work, range(30), True):
            time.sleep(0.005)  # a slow consumer: the items ahead must wait for it
            with lock:
                in_flight.append(started[0] - consumed)
            consumed += 1
        assert 1 < max(in_flight) <= 3

    def test_tasks_see_the_callers_context(self, cpus):
        var = contextvars.ContextVar("var", default="unset")
        cpus(3)
        var.set("caller")
        assert list(_in_order(lambda i: var.get(), range(6), True)) == ["caller"] * 6


class TestRowsByIndex:
    """Scoring rows by index gives the bytes of scoring the gathered rows."""

    @pytest.fixture(params=["arch-A", "arch-B"])
    def state(self, request):
        return nn.init_network(nn.build_network(request.param, (1, 12, 12), 10, seed=5))

    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("dropout_seed", [None, 9])
    def test_same_bytes_as_gathered_rows(self, state, n, dropout_seed):
        rng = np.random.default_rng(n)
        x = rng.uniform(0.0, 1.0, size=(3 * _CHUNK, 1, 12, 12))
        rows = rng.choice(len(x), size=n, replace=False)  # shuffled, not contiguous
        view = CandidateSet(x, rows)
        assert len(view) == n
        got = nn.forward_batch(state, view, dropout_seed=dropout_seed)
        want = nn.forward_batch(state, x[rows], dropout_seed=dropout_seed)
        assert got.tobytes() == want.tobytes()
        assert nn.embed_batch(state, view).tobytes() == nn.embed_batch(state, x[rows]).tobytes()

    def test_wrong_source_shape_rejected(self, state):
        with pytest.raises(InputError):
            nn.forward_batch(state, CandidateSet(np.zeros((4, 1, 10, 10)), np.arange(2)))

    @pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
    def test_wrong_shape_with_no_rows_rejected_before_any_layer(self, state, view, monkeypatch):
        x = np.zeros((4, 1, 10, 10))
        rows = CandidateSet(x, np.arange(0)) if view else x[:0]
        monkeypatch.setattr("adval.nn.layers.forward", lambda *a, **k: pytest.fail("a layer ran"))
        with pytest.raises(InputError):
            nn.forward_batch(state, rows)
        with pytest.raises(InputError):
            nn.embed_batch(state, rows)

    def test_no_rows_by_index_give_no_outputs(self, state):
        view = CandidateSet(np.zeros((4, 1, 12, 12)), np.arange(0))
        assert nn.forward_batch(state, view).shape == (0, 10)
        assert len(nn.embed_batch(state, view)) == 0
