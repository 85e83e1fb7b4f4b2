"""DeepFool: analytic linear cases, flip guarantees, batch contracts."""

import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import forward, inline_and_threaded, lp_norm, random_conv_spec, reference_deepfool

from adval import nn
from adval.attacks import AdversarialResult, AttackConfig, batch_deepfool, deepfool
from adval.errors import ConfigError, InputError
from adval.nn import Dense, NetworkSpec, build_network
from adval.nn.network import logits_and_deferred_jacobian


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


class TestNonFiniteValues:
    """An attack whose step overflows fails, whatever numpy's error state."""

    # Stepping 1 + 1e308 times across the boundary overflows every attack.
    OVERFLOW = AttackConfig(overshoot=1e308)

    def assert_overflow_failure(self, res):
        assert not res.success
        assert res.score() == np.inf
        assert res.adversarial_label is None

    def test_overflow_under_raise_is_a_failure(self, trained3, blobs3):
        with np.errstate(all="raise"):
            res = deepfool(trained3, blobs3.inputs[0], self.OVERFLOW)
        self.assert_overflow_failure(res)

    def test_overflow_under_warnings_as_errors_is_a_failure(self, trained3, blobs3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = deepfool(trained3, blobs3.inputs[0], self.OVERFLOW)
        self.assert_overflow_failure(res)
        with np.errstate(all="raise"):
            raised = deepfool(trained3, blobs3.inputs[0], self.OVERFLOW)
        np.testing.assert_array_equal(res.perturbation, raised.perturbation)
        assert (res.iterations, res.original_label) == (raised.iterations, raised.original_label)

    def test_batch_under_raise_equals_single_calls(self, trained3, blobs3):
        xs = blobs3.inputs[:5]
        with np.errstate(all="raise"):
            batch = batch_deepfool(trained3, xs, self.OVERFLOW)
        for x, res in zip(xs, batch):
            self.assert_overflow_failure(res)
            ref = deepfool(trained3, x, self.OVERFLOW)
            np.testing.assert_array_equal(res.perturbation, ref.perturbation)
            assert (res.iterations, res.original_label) == (ref.iterations, ref.original_label)


def conv_net_and_points():
    """A random conv net and inputs that DeepFool flips in 1, 2 or 3 steps."""
    rng = np.random.default_rng(0)
    spec = random_conv_spec(rng)
    return nn.init_network(spec), rng.uniform(0.0, 1.0, size=(20, *spec.input_shape))


class TestJacobianCount:
    """DeepFool forms an input Jacobian only at the points it steps from."""

    @pytest.fixture
    def log(self, monkeypatch):
        """Hooks on the batched linearization: each point linearized, each Jacobian formed.

        ``groups`` holds each linearization's points, ``formed`` the (call, row)
        pairs whose Jacobians were formed, and ``backward`` counts the inputs
        that backward passes differentiate down to the network input: the
        passes that reach it carry C seeds for each of them, (C, rows, ...).
        """
        import adval.attacks as attacks
        import adval.nn.network as network

        linearize = attacks.logits_and_deferred_jacobian
        backward = network._input_grad
        log = {"groups": [], "formed": [], "backward": 0}

        def counted_backward(state, caches, dy, start=0, stop=None):
            if start == 0:
                log["backward"] += dy.shape[1]
            return backward(state, caches, dy, start, stop)

        def recorded(net, points):
            logits, jacobian = linearize(net, points)
            call = len(log["groups"])
            log["groups"].append(points.copy())

            def formed(rows):
                log["formed"] += [(call, int(row)) for row in rows]
                return jacobian(rows)

            return logits, formed

        monkeypatch.setattr(network, "_input_grad", counted_backward)
        monkeypatch.setattr(attacks, "logits_and_deferred_jacobian", recorded)
        return log

    @staticmethod
    def attack(log, net, x, cfg=AttackConfig()):
        log.update(groups=[], formed=[], backward=0)
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
            assert log["formed"] == [(t, 0) for t in range(k)]
            assert len(log["groups"]) == k + 1
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
            assert log["formed"] == [(t, 0) for t in range(k)]
            assert len(log["groups"]) == k + 1
            exhausted += 1
        assert exhausted >= 5

    def test_each_candidate_of_a_batch_forms_jacobians_where_it_steps(self, log):
        net, xs = conv_net_and_points()
        log.update(groups=[], formed=[], backward=0)
        results = batch_deepfool(net, xs)
        steps = [res.iterations for res in results]
        assert all(res.success for res in results) and set(steps) >= {1, 2, 3}
        # Linearization t holds, in batch order, the candidates that took t steps or
        # more; those that took more step from there, and each Jacobian is formed once.
        assert len(log["groups"]) == max(steps) + 1
        expected = []
        for t, points in enumerate(log["groups"]):
            here = [i for i, k in enumerate(steps) if k >= t]
            assert len(points) == len(here)
            expected += [(t, row) for row, i in enumerate(here) if steps[i] > t]
            for row, i in enumerate(here):
                if steps[i] == t:  # the flip point: x plus the perturbation, no Jacobian
                    assert points[row].tobytes() == (xs[i] + results[i].perturbation).tobytes()
        assert log["formed"] == expected
        assert log["backward"] == sum(steps)

    @pytest.mark.parametrize("bad_point", [0, 1])
    def test_nonfinite_jacobian_fails_where_it_steps(self, monkeypatch, bad_point):
        import adval.attacks as attacks

        net, xs = conv_net_and_points()
        x = next(x for x in xs if deepfool(net, x).iterations >= 2)
        linearize = attacks.logits_and_deferred_jacobian
        points = []

        def poisoned(net, group):
            logits, jacobian = linearize(net, group)
            points.append(group[0])
            if len(points) - 1 == bad_point:
                return logits, lambda rows: np.full_like(jacobian(rows), np.nan)
            return logits, jacobian

        monkeypatch.setattr(attacks, "logits_and_deferred_jacobian", poisoned)
        res = deepfool(net, x)
        assert not res.success and res.norm == np.inf
        assert res.iterations == bad_point
        np.testing.assert_array_equal(x + res.perturbation, points[bad_point])
        # at x itself no step was taken and, as for non-finite logits, no label is reported
        expected = None if bad_point == 0 else int(np.argmax(forward(net, x)))
        assert res.original_label == expected


class TestJacobianMemory:
    """A linearization keeps no im2col columns or Dense inputs, and an attack holds one group at a time."""

    def test_jacobian_caches_hold_no_columns(self, monkeypatch):
        import adval.nn.layers as layers

        net, xs = lockstep_case("arch-A")
        kept = []
        forward = layers.forward

        def recorded(layer, params, x, **kwargs):
            y, cache = forward(layer, params, x, **kwargs)
            kept.append((layer, cache))
            return y, cache

        monkeypatch.setattr(layers, "forward", recorded)
        _, jacobian = logits_and_deferred_jacobian(net, xs[:25])
        jacobian(np.arange(25))
        conv = [cache for layer, cache in kept if isinstance(layer, nn.Conv2D)]
        # the logits' pass drops its cache; the Jacobian's runs 3 inputs (30 seeds) at a time
        assert [shape[0] for shape, _ in conv[1:]] == [3] * 8 + [1]
        assert all(cols is None for _, cols in conv[1:])
        assert all(cache is None for layer, cache in kept if isinstance(layer, Dense))

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_peak_is_about_one_group(self, cpus, n_cpus):
        cpus(n_cpus)  # groups attacked at a time
        net, xs = lockstep_case("arch-A")
        xs = np.concatenate([xs] * 8)[:200]  # eight groups of 25
        jacobians = 25 * 10 * 28 * 28 * 8  # bytes of one group's Jacobians
        result = 28 * 28 * 8 + 700  # bytes of a result that is kept: its perturbation and fields
        batch_deepfool(net, xs[:50])
        tracemalloc.start()
        try:
            linearized = logits_and_deferred_jacobian(net, xs[:25])
            held = tracemalloc.get_traced_memory()[0]
            del linearized
            peaks = []
            for n in (25, 50, 200):  # one group, which runs inline, then two sizes of two or more
                tracemalloc.reset_peak()
                batch_deepfool(net, xs[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # The (25, C, 1152) stack of Dense inputs alone would be 2.3 MB, Conv2D's
        # im2col columns 2.9 MB, and the layers below the Dense layers, run on
        # all 25 inputs' seeds at once, would peak at 24 MB.
        assert held < jacobians / 4
        one = peaks[0]
        assert one < 6 * jacobians
        # n_cpus groups at a time, each about one group's peak, plus the results kept so far
        for n, peak in zip((50, 200), peaks[1:]):
            assert peak < 1.1 * n_cpus * one + n * result


def assert_same_result(got, want):
    """Every field of two ``AdversarialResult``s, byte for byte."""
    assert got.perturbation.dtype == want.perturbation.dtype
    assert got.perturbation.shape == want.perturbation.shape
    assert got.perturbation.tobytes() == want.perturbation.tobytes()
    assert np.float64(got.norm).tobytes() == np.float64(want.norm).tobytes()
    fields = ("iterations", "success", "adversarial_label", "original_label")
    assert [(getattr(got, f), type(getattr(got, f))) for f in fields] == [
        (getattr(want, f), type(getattr(want, f))) for f in fields
    ]


def lockstep_case(arch):
    """A fresh ``arch`` net and more candidates than one lockstep group holds.

    arch-A on 10 classes attacks groups of 25, so its 26 images make two
    groups; arch-B on 4 classes attacks groups of 64, so its 65 points do.
    """
    rng = np.random.default_rng(5)
    if arch == "arch-A":
        net = nn.init_network(build_network("arch-A", (1, 28, 28), 10, seed=1))
        return net, rng.uniform(0.0, 1.0, size=(26, 1, 28, 28))
    net = nn.init_network(build_network("arch-B", (2,), 4, seed=1))
    return net, 3.0 * rng.standard_normal((65, 2))


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 31, 64, 100, 784, 2000])
def test_step_norms_are_those_of_each_row_alone(dim):
    from adval.attacks import _euclidean_norms

    rng = np.random.default_rng(dim)
    w = rng.standard_normal((70, dim)) * rng.uniform(1e-3, 1e3, size=(70, 1))
    want = np.array([np.linalg.norm(v) for v in w])
    assert _euclidean_norms(w).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [2.0, np.inf], ids=["l2", "linf"])
@pytest.mark.parametrize("arch", ["arch-A", "arch-B"])
def test_result_norms_are_lp_norm_of_each_perturbation(arch, p):
    # the norms of the candidates that stop in one iteration come from one call
    net, xs = lockstep_case(arch)
    results = [res for res in batch_deepfool(net, xs, AttackConfig(p=p)) if res.norm < np.inf]
    assert max(Counter(res.iterations for res in results).values()) > 1
    for res in results:
        assert np.float64(res.norm).tobytes() == np.float64(lp_norm(res.perturbation, p)).tobytes()


class TestAgainstSequentialReference:
    """``batch_deepfool`` against the sequential one-point attack of ``conftest``."""

    CONFIGS = {
        "default": AttackConfig(),
        "linf": AttackConfig(p=np.inf),
        "capped": AttackConfig(max_iter=1),
        "linf-capped": AttackConfig(p=np.inf, max_iter=2),
        "overflow": AttackConfig(overshoot=1e308),
    }

    def assert_matches_reference(self, net, xs, cfg):
        results = batch_deepfool(net, xs, cfg)
        assert len(results) == len(xs)
        for x, res in zip(xs, results):
            assert_same_result(res, reference_deepfool(net, x, cfg))
        return results

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("arch", ["arch-A", "arch-B"])
    def test_every_field_is_byte_equal(self, arch, config):
        net, xs = lockstep_case(arch)
        results = self.assert_matches_reference(net, xs, self.CONFIGS[config])
        assert any(res.success for res in results)

    def test_overflowing_steps_fail_byte_equal(self, trained3, blobs3):
        results = self.assert_matches_reference(trained3, blobs3.inputs[:30], AttackConfig(overshoot=1e308))
        assert all(res.score() == np.inf and res.adversarial_label is None for res in results)

    @pytest.mark.parametrize("arch", ["arch-A", "arch-B"])
    def test_nonfinite_parameters_fail_byte_equal(self, arch):
        net, xs = lockstep_case(arch)
        params = [None if p is None else {k: v.copy() for k, v in p.items()} for p in net.params]
        params[-1]["W"][0, 0] = np.nan
        broken = nn.NetworkState(net.spec, tuple(params))
        results = self.assert_matches_reference(broken, xs, AttackConfig())
        assert all(res.score() == np.inf and res.original_label is None for res in results)

    def test_exact_tie_is_byte_equal(self):
        state = linear_state(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2))
        xs = np.array([[0.0, 0.3], [0.5, -0.2], [0.0, -1.0], [-2.0, 0.1]])
        results = self.assert_matches_reference(state, xs, AttackConfig())
        assert results[0].success and results[0].norm < 1e-3

    @pytest.mark.parametrize("p", [2.0, np.inf], ids=["l2", "linf"])
    def test_no_boundary_fails_at_x_with_no_label(self, p):
        # equal weight columns: f_1 - f_0 = 1 at every input, so no step has a finite margin
        state = linear_state(np.array([[1.0, -2.0], [1.0, -2.0]]), np.array([0.0, 1.0]))
        xs = np.array([[0.0, 0.0], [3.0, 1.0], [-1.0, 5.0]])
        for res in self.assert_matches_reference(state, xs, AttackConfig(p=p)):
            assert (res.success, res.norm, res.iterations, res.original_label) == (False, np.inf, 0, None)
            assert res.perturbation.tobytes() == np.zeros(2).tobytes()

    def test_empty_batch(self):
        net, _ = lockstep_case("arch-B")
        assert batch_deepfool(net, np.empty((0, 2))) == []
        assert batch_deepfool(net, []) == []


@pytest.mark.parametrize("config", sorted(TestAgainstSequentialReference.CONFIGS))
def test_threaded_groups_are_byte_equal(cpus, config):
    # 7 groups of 25, the last one partial: two or more for each of 3 threads
    net = nn.init_network(build_network("arch-A", (1, 12, 12), 10, seed=3))
    xs = np.random.default_rng(4).uniform(0.0, 1.0, size=(6 * 25 + 7, 1, 12, 12))
    cfg = TestAgainstSequentialReference.CONFIGS[config]
    inline, threaded = inline_and_threaded(cpus, lambda: batch_deepfool(net, xs, cfg))
    assert len(threaded) == len(inline) == len(xs)
    for got, want in zip(threaded, inline):
        assert_same_result(got, want)


class TestFractionalMaxIter:
    """A Python-built fractional ``max_iter`` caps the attack at its ceiling."""

    def test_attack_stops_after_the_ceiling(self, blobs3):
        # an untrained net zigzags: some of its attacks flip only after many iterations
        net = nn.init_network(build_network("arch-B", blobs3.input_shape, blobs3.class_count, seed=0))
        results = batch_deepfool(net, blobs3.inputs)
        x = blobs3.inputs[max(range(len(results)), key=lambda i: results[i].iterations)]
        assert deepfool(net, x).iterations > 2 and deepfool(net, x).success
        capped = deepfool(net, x, AttackConfig(max_iter=1.5))
        assert (capped.iterations, capped.success) == (2, False)
        assert_same_result(capped, deepfool(net, x, AttackConfig(max_iter=2)))


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
