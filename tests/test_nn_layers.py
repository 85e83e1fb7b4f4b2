"""Layer contracts: shapes, identity cases, conv/pool against naive loops, backward requests."""

import numpy as np
import pytest
from conftest import forward, reference_conv_forward

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
from adval.nn.layers import backward as layer_backward
from adval.nn.layers import forward as layer_forward
from adval.nn.layers import grad_sq_norms
from adval.nn.network import _CHUNK, IndexedRows, _evaluate, _forward_caches


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


# Both forward routes of every case; the cached route keeps the plain size as its id.
POOL_ROUTES = [
    pytest.param(s, cached, id=str(s) if cached else f"{s}-no-cache")
    for cached in (True, False)
    for s in (2, 3)
]


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
        y, cache = layer_forward(MaxPool2D(s), None, x, cache=cached)
        dy = rng.choice([-1.0, -0.0, 0.5, 3.0], size=y.shape)
        want_y, want_flat, want_dx = naive_maxpool(x, dy, s)
        assert y.tobytes() == want_y.tobytes()
        if not cached:
            assert cache is None
            return
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
        pooled = _forward_caches(state, x, stop=3)[0]
        assert _evaluate(state, x, stop=3).tobytes() == pooled.tobytes()


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


class TestIndexedRows:
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
        view = IndexedRows(x, rows)
        assert len(view) == n
        got = nn.forward_batch(state, view, dropout_seed=dropout_seed)
        want = nn.forward_batch(state, x[rows], dropout_seed=dropout_seed)
        assert got.tobytes() == want.tobytes()
        assert nn.embed_batch(state, view).tobytes() == nn.embed_batch(state, x[rows]).tobytes()

    def test_wrong_source_shape_rejected(self, state):
        with pytest.raises(InputError):
            nn.forward_batch(state, IndexedRows(np.zeros((4, 1, 10, 10)), np.arange(2)))
