"""DeepFool: analytic linear cases, flip guarantees, batch contracts."""

import numpy as np
import pytest
from conftest import forward, random_conv_spec

from adval import nn
from adval.attacks import AdversarialResult, AttackConfig, batch_deepfool, deepfool, lp_norm
from adval.errors import ConfigError, InputError
from adval.nn import Dense, NetworkSpec, build_network


def linear_state(w: np.ndarray, b: np.ndarray) -> nn.NetworkState:
    """Multi-class linear model f(x) = x @ W + b from (C, d) weight rows."""
    classes, dim = w.shape
    spec = NetworkSpec((dim,), (Dense(dim, classes),), classes)
    return nn.NetworkState(spec, ({"W": w.T.copy(), "b": b.copy()},))


def analytic_linear_margin(w, b, x):
    """min over k != k0 of |f_k - f_k0| / ||w_k - w_k0||_2 for a linear model."""
    f = w @ x + b
    k0 = int(np.argmax(f))
    dists = [
        abs(f[k] - f[k0]) / np.linalg.norm(w[k] - w[k0])
        for k in range(len(f))
        if k != k0
    ]
    return min(dists), k0


class TestLinearExactness:
    def test_binary_hand_case(self):
        # f1 = 3x + 4y, f0 = 0; at (1,1): value 7, margin 7/5 = 1.4
        w = np.array([[0.0, 0.0], [3.0, 4.0]])
        state = linear_state(w, np.zeros(2))
        cfg = AttackConfig(overshoot=0.02)
        res = deepfool(state, np.array([1.0, 1.0]), cfg)
        assert res.success and res.iterations == 1
        np.testing.assert_allclose(res.norm, 1.4 * 1.02, rtol=1e-6)
        direction = res.perturbation / np.linalg.norm(res.perturbation)
        np.testing.assert_allclose(direction, [-0.6, -0.8], atol=1e-9)

    def test_random_linear_models_one_iteration(self):
        rng = np.random.default_rng(0)
        cfg = AttackConfig(overshoot=0.02)
        for _ in range(50):
            classes = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 5))
            w = rng.standard_normal((classes, dim))
            b = rng.standard_normal(classes)
            x = rng.standard_normal(dim)
            margin, _ = analytic_linear_margin(w, b, x)
            res = deepfool(linear_state(w, b), x, cfg)
            assert res.success
            assert res.iterations == 1
            np.testing.assert_allclose(res.norm, 1.02 * margin, rtol=1e-6)

    def test_logit_scale_invariance(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        x = rng.standard_normal(2)
        r1 = deepfool(linear_state(w, b), x).perturbation
        r2 = deepfool(linear_state(7.5 * w, 7.5 * b), x).perturbation
        np.testing.assert_allclose(r1, r2, atol=1e-9)

    def test_exact_tie_flips_in_one_tiny_step(self):
        # logits tied at x, argmax breaks to class 0; step should be ~0 and flip
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        state = linear_state(w, np.zeros(2))
        res = deepfool(state, np.array([0.0, 0.3]))
        assert res.original_label == 0
        assert res.success
        assert res.iterations == 1
        assert res.norm < 1e-3


class TestResultContract:
    def test_flip_guarantee_on_trained_net(self, trained3, blobs3):
        cfg = AttackConfig()
        for x in blobs3.inputs[:40]:
            res = deepfool(trained3, x, cfg)
            if res.success:
                before = int(np.argmax(forward(trained3, x)))
                after = int(np.argmax(forward(trained3, x + res.perturbation)))
                assert before == res.original_label
                assert after == res.adversarial_label
                assert after != before

    def test_norm_matches_perturbation(self, trained3, blobs3):
        for x in blobs3.inputs[:20]:
            res = deepfool(trained3, x)
            if res.success:
                assert abs(res.norm - lp_norm(res.perturbation, 2)) < 1e-9

    def test_iterations_capped(self, trained3, blobs3):
        cfg = AttackConfig(max_iter=2)
        for x in blobs3.inputs[:20]:
            res = deepfool(trained3, x, cfg)
            assert res.iterations <= 2

    def test_nonfinite_parameters_give_failure(self):
        w = np.array([[np.nan, 0.0], [0.0, 1.0]])
        state = linear_state(w, np.zeros(2))
        res = deepfool(state, np.array([1.0, 1.0]))
        assert not res.success
        assert res.norm == np.inf
        assert res.adversarial_label is None
        # the starting logits are non-finite, so no class was ever predicted
        assert res.original_label is None

    def test_failed_attack_scores_infinity(self):
        res = AdversarialResult(np.zeros(2), 0.5, 3, False, None, 0)
        assert res.score() == np.inf
        ok = AdversarialResult(np.zeros(2), 0.5, 3, True, 1, 0)
        assert ok.score() == 0.5

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AttackConfig(p=3)
        with pytest.raises(ConfigError):
            AttackConfig(overshoot=-0.1)
        with pytest.raises(ConfigError):
            AttackConfig(max_iter=0)


class TestLinfVariant:
    def test_linear_binary_linf(self):
        # crossing f' = w.r with r = t*sign(w) needs t = |f'| / ||w||_1
        w = np.array([[0.0, 0.0], [3.0, 4.0]])
        state = linear_state(w, np.zeros(2))
        cfg = AttackConfig(p=np.inf, overshoot=0.0)
        res = deepfool(state, np.array([1.0, 1.0]), cfg)
        assert res.success
        np.testing.assert_allclose(res.norm, 7.0 / 7.0, rtol=1e-6)
        np.testing.assert_allclose(res.perturbation, [-1.0, -1.0], rtol=1e-6)


class TestBatch:
    def test_singleton_equals_single_call(self, trained3, blobs3):
        x = blobs3.inputs[0]
        single = deepfool(trained3, x)
        batch = batch_deepfool(trained3, [x])[0]
        np.testing.assert_array_equal(single.perturbation, batch.perturbation)
        assert single.norm == batch.norm
        assert single.iterations == batch.iterations

    def test_batch_matches_sequential_calls(self, trained3, blobs3):
        xs = list(blobs3.inputs[:50])
        batch = batch_deepfool(trained3, xs)
        for x, res in zip(xs, batch):
            ref = deepfool(trained3, x)
            np.testing.assert_array_equal(res.perturbation, ref.perturbation)
            assert res.iterations == ref.iterations
            assert res.success == ref.success

    def test_wrongly_shaped_input_raises(self, trained3, blobs3):
        # A programming error must not turn into failed attacks scored +inf.
        xs = np.ones((4, blobs3.inputs.shape[1] + 3))
        with pytest.raises(ValueError):
            batch_deepfool(trained3, xs)

    @pytest.mark.parametrize(
        "arch, input_shape, bad_shape",
        [
            ("arch-A", (1, 28, 28), (1, 29, 29)),  # would reach MaxPool2D with odd sides
            ("arch-A", (1, 28, 28), (784,)),  # would fail to unpack into (C, H, W)
            ("arch-B", (2,), (2, 1)),  # would flatten into a (2, 1) perturbation
        ],
    )
    def test_input_of_another_shape_is_rejected(self, arch, input_shape, bad_shape):
        net = nn.init_network(build_network(arch, input_shape, 10, seed=0))
        x = np.random.default_rng(0).uniform(0.0, 1.0, size=bad_shape)
        with pytest.raises(InputError, match="does not match network input"):
            deepfool(net, x)
        with pytest.raises(InputError):
            batch_deepfool(net, [x])

    def test_floating_point_error_becomes_failure(self, trained3, blobs3, monkeypatch):
        import adval.attacks as attacks

        linearize = attacks.logits_and_deferred_jacobian
        bad = blobs3.inputs[1]

        def flaky(net, x):
            if np.array_equal(x, bad):
                raise FloatingPointError("overflow")
            return linearize(net, x)

        monkeypatch.setattr(attacks, "logits_and_deferred_jacobian", flaky)
        results = batch_deepfool(trained3, blobs3.inputs[:3])
        assert [r.success for r in results] == [True, False, True]
        assert results[1].score() == np.inf
        assert results[1].original_label is None


def conv_net_and_points():
    """A random conv net and inputs that DeepFool flips in 1, 2 or 3 steps."""
    rng = np.random.default_rng(0)
    spec = random_conv_spec(rng)
    return nn.init_network(spec), rng.uniform(0.0, 1.0, size=(20, *spec.input_shape))


class TestJacobianCount:
    """DeepFool forms an input Jacobian only at the points it steps from."""

    @pytest.fixture
    def log(self, monkeypatch):
        import adval.attacks as attacks
        import adval.nn.network as network

        linearize = attacks.logits_and_deferred_jacobian
        backward = network._input_grad
        log = {"points": 0, "formed": [], "backward": 0}

        def counted_backward(*args):
            log["backward"] += 1
            return backward(*args)

        def recorded(net, x):
            logits, jacobian = linearize(net, x)
            point = log["points"]
            log["points"] += 1

            def formed():
                log["formed"].append(point)
                return jacobian()

            return logits, formed

        monkeypatch.setattr(network, "_input_grad", counted_backward)
        monkeypatch.setattr(attacks, "logits_and_deferred_jacobian", recorded)
        return log

    @staticmethod
    def attack(log, net, x, cfg=AttackConfig()):
        log.update(points=0, formed=[], backward=0)
        return deepfool(net, x, cfg)

    def test_flip_after_k_steps_runs_k_backward_passes(self, log):
        net, xs = conv_net_and_points()
        steps = set()
        for x in xs:
            res = self.attack(log, net, x)
            assert res.success
            k = res.iterations
            steps.add(k)
            assert log["backward"] == k
            # Jacobians at x and at each iterate before the flip; the flip point's is never formed
            assert log["formed"] == list(range(k))
            assert log["points"] == k + 1
        assert steps >= {1, 2, 3}

    def test_exhausted_max_iter_runs_max_iter_backward_passes(self, log):
        net, xs = conv_net_and_points()
        exhausted = 0
        for x in xs:
            needed = self.attack(log, net, x).iterations
            if needed < 2:
                continue
            k = needed - 1
            res = self.attack(log, net, x, AttackConfig(max_iter=k))
            assert not res.success and res.iterations == k
            assert log["backward"] == k
            assert log["formed"] == list(range(k))
            assert log["points"] == k + 1
            exhausted += 1
        assert exhausted >= 5

    @pytest.mark.parametrize("bad_point", [0, 1])
    def test_nonfinite_jacobian_fails_where_it_steps(self, monkeypatch, bad_point):
        import adval.attacks as attacks

        net, xs = conv_net_and_points()
        x = next(x for x in xs if deepfool(net, x).iterations >= 2)
        linearize = attacks.logits_and_deferred_jacobian
        points = []

        def poisoned(net, point):
            logits, jacobian = linearize(net, point)
            points.append(point)
            if len(points) - 1 == bad_point:
                return logits, lambda: np.full_like(jacobian(), np.nan)
            return logits, jacobian

        monkeypatch.setattr(attacks, "logits_and_deferred_jacobian", poisoned)
        res = deepfool(net, x)
        assert not res.success and res.norm == np.inf
        assert res.iterations == bad_point
        np.testing.assert_array_equal(x + res.perturbation, points[bad_point])
        # at x itself no step was taken and, as for non-finite logits, no label is reported
        expected = None if bad_point == 0 else int(np.argmax(forward(net, x)))
        assert res.original_label == expected


class TestAgainstMarginOracle:
    def test_attack_upper_bounds_oracle_and_tracks_it(self, trained3, blobs3):
        from conftest import margin_oracle

        cfg = AttackConfig()
        points = blobs3.inputs[:60]
        within = 0
        checked = 0
        for x in points:
            res = deepfool(trained3, x, cfg)
            if not res.success:
                continue
            oracle = margin_oracle(trained3, x, radius_max=4.0, directions=180)
            if not np.isfinite(oracle):
                continue
            checked += 1
            assert oracle <= res.norm + 1e-3
            if res.norm <= 1.5 * oracle:
                within += 1
        assert checked >= 50
        assert within / checked >= 0.9
