"""Per-strategy selection contracts and scorer oracles."""

import tracemalloc

import numpy as np
import pytest
from conftest import forward, reference_egl_scores

from adval import nn
from adval.attacks import AttackConfig, batch_deepfool, deepfool
from adval.errors import ConfigError, UnsupportedArchitectureError
from adval.nn import Conv2D, Dense, Dropout, Flatten, MaxPool2D, NetworkSpec, ReLU
from adval.strategies import (
    ADVERSARIAL_TWIN,
    CEAL_PSEUDO,
    CandidateSet,
    bald_probability_samples,
    bald_scores,
    egl_scores,
    entropy_scores,
    k_center_greedy,
    nearest_center_sq,
    prediction_entropy,
    rank_extremes,
    select_bald,
    select_ceal,
    select_coreset_greedy,
    select_dfal,
    select_egl,
    select_random,
    select_uncertainty,
)


def pool_of(blobs, count, start=0):
    return CandidateSet(blobs.inputs, np.arange(start, start + count))


def rows_at(indices, inputs):
    """A pool whose dataset rows ``indices`` hold ``inputs``; every other row is NaN."""
    source = np.full((max(indices) + 1, *np.shape(inputs)[1:]), np.nan)
    source[indices] = inputs
    return CandidateSet(source, np.asarray(indices))


class TestCandidateSet:
    def test_reads_dataset_rows_by_index(self, blobs3):
        idx = np.array([7, 2, 9, 4])
        pool = CandidateSet(blobs3.inputs, idx)
        assert len(pool) == 4
        assert pool[1:3].tobytes() == blobs3.inputs[[2, 9]].tobytes()
        assert pool[3].tobytes() == blobs3.inputs[4].tobytes()
        assert [row.tobytes() for row in pool] == [blobs3.inputs[i].tobytes() for i in idx]

    def test_indices_first_fails_loudly(self, blobs3):
        pool = CandidateSet(np.arange(4), blobs3.inputs[:4])  # (indices, inputs), the old order
        with pytest.raises(IndexError):
            pool[:]


class TestRanking:
    def test_smallest_score_wins(self):
        got = rank_extremes([7, 8, 9], [0.5, 0.1, 0.3], 1)
        np.testing.assert_array_equal(got, [1])

    def test_index_tie_break(self):
        got = rank_extremes([9, 3, 5], [1.0, 1.0, 1.0], 2)
        np.testing.assert_array_equal(got, [1, 2])  # dataset indices 3 and 5

    def test_larger_better(self):
        got = rank_extremes([1, 2, 3], -np.array([0.1, 0.9, 0.5]), 2)
        np.testing.assert_array_equal(got, [1, 2])

    def test_infinite_scores_sort_last(self):
        got = rank_extremes([1, 2, 3], [np.inf, 0.2, np.inf], 2)
        np.testing.assert_array_equal(got, [1, 0])


def shuffled_pool(blobs, count, seed=0):
    """A pool whose dataset indices are neither sorted nor contiguous."""
    idx = np.random.default_rng(seed).choice(len(blobs), size=count, replace=False)
    assert not np.array_equal(idx, np.sort(idx))
    return CandidateSet(blobs.inputs, idx)


def naive_top(pool, scores, n, larger=False):
    """Dataset indices of the n best scores, ties to the smaller index, by a Python sort."""
    sign = -1.0 if larger else 1.0
    ranked = sorted(zip(scores, pool.indices), key=lambda t: (sign * t[0], t[1]))
    return tuple(int(i) for _, i in ranked[:n])


class TestShuffledPools:
    """Strategies pick rows; their batches must name the rows' dataset indices."""

    def test_dfal_twin_is_its_source_row_plus_perturbation(self, trained3, blobs3):
        pool = shuffled_pool(blobs3, 30)
        results = batch_deepfool(trained3, pool[:])
        scores = [r.score() for r in results]
        batch = select_dfal(trained3, pool, 6)
        assert batch.queried == naive_top(pool, scores, 6)
        assert tuple(add.source_index for add in batch.synthetic_additions) == batch.queried
        for add in batch.synthetic_additions:
            row = int(np.flatnonzero(pool.indices == add.source_index)[0])
            want = blobs3.inputs[add.source_index] + results[row].perturbation
            assert add.values.tobytes() == want.tobytes()

    def test_dfal_fallback_draws_rows_like_random(self, blobs3):
        # NaN weights make every attack fail, as in TestDfal
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        state = nn.NetworkState(spec, ({"W": np.full((2, 2), np.nan), "b": np.zeros(2)},))
        pool = shuffled_pool(blobs3, 12, seed=1)
        batch = select_dfal(state, pool, 4, fallback_seed=7)
        assert batch.queried == select_random(pool, 4, seed=7).queried
        assert tuple(add.source_index for add in batch.synthetic_additions) == batch.queried

    def test_ceal_pseudo_labels_in_row_order_without_queried_rows(self, trained3, blobs3):
        pool = shuffled_pool(blobs3, 60, seed=2)
        scores = entropy_scores(trained3, pool[:])
        # so high that some queried rows fall below it too
        delta = float(np.quantile(scores, 0.95))
        preds = nn.predict_batch(trained3, pool[:])
        batch = select_ceal(trained3, pool, 10, delta=delta)
        assert batch.queried == naive_top(pool, scores, 10, larger=True)
        assert (scores[np.isin(pool.indices, batch.queried)] < delta).any()
        want = [
            (int(i), int(preds[row]))
            for row, i in enumerate(pool.indices)
            if scores[row] < delta and int(i) not in batch.queried
        ]
        got = [(add.source_index, add.label) for add in batch.synthetic_additions]
        assert got == want and len(want) >= 20

    @pytest.mark.parametrize("name", ["uncertainty", "egl"])
    def test_larger_score_strategies_query_dataset_indices(self, trained3, blobs3, name):
        pool = shuffled_pool(blobs3, 40, seed=3)
        select, score = {
            "uncertainty": (select_uncertainty, entropy_scores),
            "egl": (select_egl, egl_scores),
        }[name]
        got = select(trained3, pool, 7).queried
        assert got == naive_top(pool, score(trained3, pool[:]), 7, larger=True)

    def test_coreset_picks_are_pool_indices(self, trained3, blobs3):
        pool = shuffled_pool(blobs3, 40, seed=4)
        labeled = blobs3.inputs[:10]
        rows = k_center_greedy(
            nn.embed_batch(trained3, pool[:]), nn.embed_batch(trained3, labeled), 5
        )
        batch = select_coreset_greedy(trained3, labeled, pool, 5)
        assert batch.queried == tuple(int(pool.indices[r]) for r in rows)
        assert batch.queried != tuple(rows)

    def test_random_matches_choice_over_pool_indices(self, blobs3):
        for seed in range(20):
            pool = shuffled_pool(blobs3, 5 + 7 * seed, seed=seed)
            n = 1 + seed % 9
            want = np.random.default_rng(seed).choice(
                pool.indices, size=min(n, len(pool)), replace=False
            )
            assert select_random(pool, n, seed=seed).queried == tuple(int(i) for i in want)


class TestEntropy:
    def test_uniform_is_log_c(self):
        p = np.full(10, 0.1)
        assert abs(prediction_entropy(p) - np.log(10)) < 1e-12

    def test_onehot_is_zero(self):
        p = np.zeros(5)
        p[2] = 1.0
        assert prediction_entropy(p) == 0.0

    def test_bits_of_the_masked_formula(self):
        # zero, negative, NaN and infinite entries too, and non-contiguous layouts
        rng = np.random.default_rng(1)
        values = [0.0, -0.0, -0.5, np.nan, -np.nan, np.inf, -np.inf, 1.0, 5e-324, 1e-300, 0.3]
        odd = rng.choice(values, size=(4, 6, 7))
        probs = rng.dirichlet(np.ones(7), size=(4, 6))
        for p in (odd, probs, np.asfortranarray(probs), probs[:, ::2], odd[0, 0]):
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.where(p > 0, -p * np.log(p), 0.0).sum(axis=-1)
            assert prediction_entropy(p).tobytes() == want.tobytes()

    def test_bounds_hold_over_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(c))
            h = prediction_entropy(p)
            assert -1e-12 <= h <= np.log(c) + 1e-12


class TestUncertainty:
    def test_hand_ranked_pool(self):
        # identity logits model: entropy ranking == hand ranking of these vectors
        spec = NetworkSpec((3,), (Dense(3, 3),), 3)
        state = nn.NetworkState(spec, ({"W": np.eye(3), "b": np.zeros(3)},))
        inputs = np.array(
            [
                [9.0, 0.0, 0.0],  # near one-hot: lowest entropy
                [0.0, 0.0, 0.0],  # uniform: maximum entropy
                [1.0, 1.0, 0.0],  # middle
                [5.0, 4.0, 0.0],  # two-way split
                [2.0, 0.0, 0.0],
            ]
        )
        pool = CandidateSet(inputs, np.arange(5))
        hand = np.argsort(-entropy_scores(state, inputs), kind="stable")
        batch = select_uncertainty(state, pool, 2)
        np.testing.assert_array_equal(batch.queried, hand[:2])
        assert len(batch.queried) == 2
        assert batch.synthetic_additions == ()

    def test_never_prefers_onehot(self, trained3, blobs3):
        pool = pool_of(blobs3, 30)
        batch = select_uncertainty(trained3, pool, 5)
        scores = entropy_scores(trained3, pool[:])
        chosen = np.isin(pool.indices, batch.queried)
        assert scores[chosen].min() >= scores[~chosen].max() - 1e-12


class TestScoringMemory:
    def test_entropy_peak_does_not_grow_with_pool(self):
        state = nn.init_network(nn.build_network("arch-A", (1, 12, 12), 10, seed=0))
        rng = np.random.default_rng(0)

        def peak_bytes(rows):
            x = rng.uniform(0.0, 1.0, size=(rows, 1, 12, 12))
            tracemalloc.start()
            try:
                entropy_scores(state, x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak_bytes(256), peak_bytes(1024)
        # Unchunked, the peak grows about 4x from 256 to 1024 rows.
        assert large < 1.25 * small

    def test_egl_peak_does_not_grow_with_pool(self):
        state = nn.init_network(nn.build_network("arch-A", (1, 12, 12), 10, seed=0))
        rng = np.random.default_rng(0)

        def peak_bytes(rows):
            x = rng.uniform(0.0, 1.0, size=(rows, 1, 12, 12))
            tracemalloc.start()
            try:
                egl_scores(state, x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak_bytes(100), peak_bytes(400)
        # Scored in one block, the class-batched backward would grow 4x with the pool.
        assert large < 1.25 * small


class TestCeal:
    def test_delta_zero_equals_uncertainty(self, trained3, blobs3):
        pool = pool_of(blobs3, 40)
        a = select_ceal(trained3, pool, 6, delta=0.0)
        b = select_uncertainty(trained3, pool, 6)
        assert a.queried == b.queried
        assert a.synthetic_additions == ()

    def test_confident_candidate_pseudo_labeled_free(self, trained3, blobs3):
        pool = pool_of(blobs3, 60)
        scores = entropy_scores(trained3, pool[:])
        delta = float(np.quantile(scores, 0.3))
        batch = select_ceal(trained3, pool, 5, delta=delta)
        assert len(batch.queried) == 5
        assert len(batch.synthetic_additions) >= 1
        preds = nn.predict_batch(trained3, pool[:])
        by_row = {int(i): r for r, i in enumerate(pool.indices)}
        for add in batch.synthetic_additions:
            assert add.provenance == CEAL_PSEUDO
            assert add.source_index not in batch.queried
            row = by_row[add.source_index]
            assert scores[row] < delta
            assert add.label == preds[row]

    def test_wrong_confident_prediction_is_corrupted(self):
        # a frozen linear model confidently mislabels a class-1 point
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        state = nn.NetworkState(
            spec, ({"W": np.array([[10.0, -10.0], [0.0, 0.0]]), "b": np.zeros(2)},)
        )
        x = np.array([[2.0, 0.0]])  # model says class 0 with huge margin
        pool = CandidateSet(x, np.array([0]))
        batch = select_ceal(state, pool, 0, delta=0.05)
        assert len(batch.synthetic_additions) == 1
        assert batch.synthetic_additions[0].label == 0  # wrong vs ground truth 1

    def test_negative_delta_rejected(self, trained3, blobs3):
        with pytest.raises(ConfigError):
            select_ceal(trained3, pool_of(blobs3, 5), 1, delta=-1.0)

    def test_nan_delta_rejected(self, trained3, blobs3):
        with pytest.raises(ConfigError, match="^confidence threshold must be >= 0, got nan$"):
            select_ceal(trained3, pool_of(blobs3, 5), 1, delta=float("nan"))


def egl_net(name):
    """A network whose EGL scores are checked against the per-class reference."""
    if name == "arch-A":
        return nn.init_network(nn.build_network("arch-A", (1, 12, 12), 10, seed=3))
    if name == "arch-B":
        return nn.init_network(nn.build_network("arch-B", (2,), 3, seed=3))
    # the second conv is not the lowest parameterized layer, so its input
    # gradient runs with the leading class axis
    layers = (
        Conv2D(filters=3, kernel=2),
        ReLU(),
        MaxPool2D(2),
        Conv2D(filters=4, kernel=2, stride=2),
        Flatten(),
        Dense(16, 4),
    )
    return nn.init_network(NetworkSpec((2, 9, 9), layers, 4, init_seed=3))


class TestEgl:
    @pytest.mark.parametrize("name", ["arch-A", "arch-B", "conv-stride"])
    @pytest.mark.parametrize("rows", [1, 90])  # 90 rows span at least two blocks on every net
    def test_matches_per_class_reference(self, name, rows):
        state = egl_net(name)
        x = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, *state.spec.input_shape))
        np.testing.assert_allclose(egl_scores(state, x), reference_egl_scores(state, x), rtol=1e-10)

    def test_two_class_closed_form(self):
        spec = NetworkSpec((2,), (Dense(2, 2),), 2, init_seed=1)
        state = nn.init_network(spec)
        x = np.array([[0.4, -0.7]])
        probs = nn.softmax_probs(forward(state, x[0]))
        expected = 0.0
        for c in range(2):
            grads = nn.grad_params(state, x[0], c)
            norm = np.sqrt(sum(float((v * v).sum()) for v in grads[0].values()))
            expected += probs[c] * norm
        got = egl_scores(state, x)[0]
        assert abs(got - expected) < 1e-9

    def test_all_zero_gradients_fall_back_to_index_order(self):
        # saturating bias makes softmax an exact one-hot: every gradient is 0
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        state = nn.NetworkState(
            spec, ({"W": np.zeros((2, 2)), "b": np.array([2000.0, 0.0])},)
        )
        pool = rows_at([4, 1, 3], np.zeros((3, 2)))
        scores = egl_scores(state, pool[:])
        np.testing.assert_array_equal(scores, 0.0)
        batch = select_egl(state, pool, 2)
        assert batch.queried == (1, 3)

    def test_ranking_matches_finite_difference_recomputation(self, trained3, blobs3):
        pool = pool_of(blobs3, 5)
        scores = egl_scores(trained3, pool[:])

        def fd_loss(state, x, label, layer_idx, key, flat, h=1e-5):
            from conftest import fd_loss_param_grad

            return fd_loss_param_grad(state, x, label, layer_idx, key, flat, h)

        probs = nn.softmax_probs(nn.forward_batch(trained3, pool[:]))
        fd_scores = []
        for i, x in enumerate(pool[:]):
            total = 0.0
            for c in range(3):
                sq = 0.0
                for li, p in enumerate(trained3.params):
                    if p is None:
                        continue
                    for key in p:
                        for flat in range(p[key].size):
                            g = fd_loss(trained3, x, c, li, key, flat)
                            sq += g * g
                total += probs[i, c] * np.sqrt(sq)
            fd_scores.append(total)
        np.testing.assert_array_equal(np.argsort(scores), np.argsort(fd_scores))


class TestBald:
    def test_zero_dropout_rate_gives_zero_scores(self, blobs3):
        spec = NetworkSpec((2,), (Dense(2, 8), ReLU(), Dropout(0.0), Dense(8, 3)), 3, 1)
        state = nn.init_network(spec)
        scores = bald_scores(state, blobs3.inputs[:20], samples=5, seed=3)
        assert np.abs(scores).max() < 1e-9

    def test_max_disagreement_is_log2(self):
        # two dropout samples, one-hot on different classes -> ln 2
        p = np.zeros((2, 1, 2))
        p[0, 0, 0] = 1.0
        p[1, 0, 1] = 1.0
        score = prediction_entropy(p.mean(axis=0)) - prediction_entropy(p).mean(axis=0)
        assert abs(score[0] - np.log(2)) < 1e-12

    def test_scores_match_entropy_recomputation(self, blobs3):
        spec = NetworkSpec((2,), (Dense(2, 16), ReLU(), Dropout(0.4), Dense(16, 3)), 3, 2)
        state = nn.init_network(spec)
        inputs = blobs3.inputs[:15]
        p = bald_probability_samples(state, inputs, samples=10, seed=11)
        scores = bald_scores(state, inputs, samples=10, seed=11)

        def entropy_ref(q):
            return -sum(v * np.log(v) for v in q if v > 0)

        for i in range(len(inputs)):
            mean_p = p[:, i].mean(axis=0)
            ref = entropy_ref(mean_p) - np.mean([entropy_ref(p[t, i]) for t in range(10)])
            assert abs(scores[i] - ref) < 1e-9

    def test_nonnegative_up_to_float_error(self, blobs3):
        spec = NetworkSpec((2,), (Dense(2, 16), ReLU(), Dropout(0.3), Dense(16, 3)), 3, 4)
        state = nn.init_network(spec)
        scores = bald_scores(state, blobs3.inputs[:50], samples=6, seed=0)
        assert scores.min() >= -1e-9

    def test_requires_dropout_layer(self, trained3, blobs3):
        with pytest.raises(UnsupportedArchitectureError):
            select_bald(trained3, pool_of(blobs3, 5), 2)

    def test_requires_two_samples(self, blobs3):
        spec = NetworkSpec((2,), (Dense(2, 4), Dropout(0.2), Dense(4, 3)), 3)
        with pytest.raises(ConfigError):
            bald_scores(nn.init_network(spec), blobs3.inputs[:3], samples=1)

    def test_nan_samples_rejected(self, blobs3):
        spec = NetworkSpec((2,), (Dense(2, 4), Dropout(0.2), Dense(4, 3)), 3)
        with pytest.raises(ConfigError, match="^BALD needs at least 2 dropout samples, got nan$"):
            bald_scores(nn.init_network(spec), blobs3.inputs[:3], samples=float("nan"))

    def test_deterministic_given_seed(self, blobs3):
        spec = NetworkSpec((2,), (Dense(2, 8), ReLU(), Dropout(0.5), Dense(8, 3)), 3, 5)
        state = nn.init_network(spec)
        a = bald_scores(state, blobs3.inputs[:10], samples=5, seed=7)
        b = bald_scores(state, blobs3.inputs[:10], samples=5, seed=7)
        np.testing.assert_array_equal(a, b)


class TestCoreset:
    def _identity_embed_net(self):
        # embed == input: identity first dense layer feeding the class layer
        spec = NetworkSpec((1,), (Dense(1, 1), Dense(1, 2)), 2)
        return nn.NetworkState(
            spec,
            (
                {"W": np.eye(1), "b": np.zeros(1)},
                {"W": np.zeros((1, 2)), "b": np.zeros(2)},
            ),
        )

    def test_farthest_point_first(self):
        state = self._identity_embed_net()
        pool = rows_at([1, 10, 11], np.array([[1.0], [10.0], [11.0]]))
        labeled = np.array([[0.0]])
        batch = select_coreset_greedy(state, labeled, pool, 1)
        assert batch.queried == (11,)  # distance 11 beats 10 and 1

    def test_tie_break_lowest_position(self):
        state = self._identity_embed_net()
        pool = rows_at([1, 10, 11], np.array([[1.0], [10.0], [11.0]]))
        labeled = np.array([[0.0]])
        batch = select_coreset_greedy(state, labeled, pool, 2)
        # after centers {0, 11}: distances 1 -> 1, 10 -> 1; tie picks pool row 0
        assert batch.queried == (11, 1)

    def test_empty_labeled_set_starts_at_lowest_index(self):
        state = self._identity_embed_net()
        pool = rows_at([5, 6], np.array([[3.0], [9.0]]))
        batch = select_coreset_greedy(state, np.empty((0, 1)), pool, 1)
        assert batch.queried == (5,)

    def test_greedy_two_opt_on_small_instances(self):
        from itertools import combinations

        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, 4))
            pts = rng.standard_normal((n, 2))
            picks = k_center_greedy(pts, np.empty((0, 2)), k)
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            greedy_radius = d[:, picks].min(axis=1).max()
            best = min(
                d[:, list(sub)].min(axis=1).max() for sub in combinations(range(n), k)
            )
            assert greedy_radius <= 2.0 * best + 1e-12


def one_shot_min_sq(pool_points, center_points):
    """Nearest-center squared distances from one (rows, centers, D) difference tensor."""
    if not len(center_points):
        return np.full(len(pool_points), np.inf)
    diff = pool_points[:, None, :] - center_points[None, :, :]
    return (diff * diff).sum(axis=2).min(axis=1)


def one_shot_k_center(pool_points, center_points, n_pick):
    """Greedy k-center seeded by the one-shot distances; first maximum wins."""
    min_sq = one_shot_min_sq(pool_points, center_points)
    available = np.ones(len(pool_points), dtype=bool)
    picks = []
    for _ in range(min(n_pick, len(pool_points))):
        pick = int(np.argmax(np.where(available, min_sq, -np.inf)))
        picks.append(pick)
        available[pick] = False
        gap = pool_points - pool_points[pick]
        min_sq = np.minimum(min_sq, (gap * gap).sum(axis=1))
    return picks


class TestKCenterBlocks:
    CASES = [(1, 0, 1), (5, 3, 2), (300, 0, 7), (300, 1, 9), (300, 257, 16), (600, 400, 64)]

    @pytest.mark.parametrize("n_pool,n_centers,dim", CASES)
    def test_matches_one_shot_formula_bit_for_bit(self, n_pool, n_centers, dim):
        rng = np.random.default_rng(n_pool + n_centers + dim)
        pool = rng.standard_normal((n_pool, dim))
        centers = rng.standard_normal((n_centers, dim))
        got = nearest_center_sq(pool, centers)
        assert got.tobytes() == one_shot_min_sq(pool, centers).tobytes()
        assert k_center_greedy(pool, centers, 20) == one_shot_k_center(pool, centers, 20)

    def test_ties_break_to_lowest_row(self):
        # integer grid points: many exactly equal distances, plus duplicate rows
        # that straddle block boundaries
        rng = np.random.default_rng(3)
        pool = rng.integers(-2, 3, size=(400, 3)).astype(float)
        centers = rng.integers(-2, 3, size=(300, 3)).astype(float)
        got = nearest_center_sq(pool, centers)
        assert got.tobytes() == one_shot_min_sq(pool, centers).tobytes()
        for k in (1, 10, 60):
            assert k_center_greedy(pool, centers, k) == one_shot_k_center(pool, centers, k)
            assert k_center_greedy(pool, pool[:0], k) == one_shot_k_center(pool, pool[:0], k)

    def test_peak_memory_does_not_grow_with_centers(self):
        rng = np.random.default_rng(0)
        pool = rng.standard_normal((200, 8))

        def peak_bytes(n_centers):
            centers = rng.standard_normal((n_centers, 8))
            tracemalloc.start()
            try:
                k_center_greedy(pool, centers, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak_bytes(400), peak_bytes(3000)
        # In one shot, the difference tensor alone grows 7.5x, to 38 MB.
        assert many < 1.25 * few


class TestRandom:
    def test_exhausts_pool(self, blobs3):
        pool = pool_of(blobs3, 4)
        batch = select_random(pool, 10, seed=0)
        assert sorted(batch.queried) == list(pool.indices)

    def test_deterministic(self, blobs3):
        pool = pool_of(blobs3, 30)
        a = select_random(pool, 5, seed=42)
        b = select_random(pool, 5, seed=42)
        assert a.queried == b.queried

    def test_uniform_frequencies(self):
        pool = CandidateSet(np.zeros((3, 2)), np.arange(3))
        counts = np.zeros(3)
        for s in range(10_000):
            counts[select_random(pool, 1, seed=s).queried[0]] += 1
        # 3-sigma band around 10000/3 under binomial(10000, 1/3)
        sigma = np.sqrt(10_000 * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - 10_000 / 3) <= 3 * sigma)


class TestDfal:
    def test_argmin_selection(self, trained3, blobs3):
        pool = pool_of(blobs3, 30)
        scores = np.array([r.score() for r in batch_deepfool(trained3, pool[:])])
        batch = select_dfal(trained3, pool, 1)
        assert batch.queried[0] == pool.indices[np.argmin(scores)]

    def test_selected_norms_dominate_unselected(self, trained3, blobs3):
        pool = pool_of(blobs3, 40)
        results = batch_deepfool(trained3, pool[:])
        scores = {int(i): r.score() for i, r in zip(pool.indices, results)}
        batch = select_dfal(trained3, pool, 8)
        chosen_max = max(scores[i] for i in batch.queried)
        others = [scores[int(i)] for i in pool.indices if int(i) not in batch.queried]
        assert chosen_max <= min(others) + 1e-12

    def test_wrongly_shaped_pool_raises(self, trained3, blobs3):
        # Not a batch of failed attacks and a silent random fallback.
        pool = CandidateSet(np.ones((4, blobs3.inputs.shape[1] + 3)), np.arange(4))
        with pytest.raises(ValueError):
            select_dfal(trained3, pool, 2)

    def test_one_annotation_two_training_items(self, trained3, blobs3):
        pool = pool_of(blobs3, 25)
        batch = select_dfal(trained3, pool, 10)
        assert len(batch.queried) == 10
        assert len(batch.synthetic_additions) == 10  # plus 10 real = 20 items
        for add in batch.synthetic_additions:
            assert add.provenance == ADVERSARIAL_TWIN
            assert add.label is None
            assert add.source_index in batch.queried

    def test_twin_is_source_plus_perturbation(self, trained3, blobs3):
        pool = pool_of(blobs3, 10)
        batch = select_dfal(trained3, pool, 3)
        for add in batch.synthetic_additions:
            row = int(np.flatnonzero(pool.indices == add.source_index)[0])
            res = deepfool(trained3, pool[row])
            np.testing.assert_allclose(
                add.values, pool[row] + res.perturbation, atol=1e-12
            )

    def test_all_failed_attacks_fall_back_to_random(self, caplog):
        # NaN weights make every attack fail with an infinite score
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        state = nn.NetworkState(
            spec, ({"W": np.full((2, 2), np.nan), "b": np.zeros(2)},)
        )
        pool = CandidateSet(np.random.default_rng(0).normal(size=(6, 2)), np.arange(6))
        with caplog.at_level("WARNING"):
            batch = select_dfal(state, pool, 2, fallback_seed=3)
        assert len(batch.queried) == 2
        assert "falling back" in caplog.text


class TestDeterminism:
    def test_each_strategy_reproducible(self, blobs3):
        spec = NetworkSpec((2,), (Dense(2, 12), ReLU(), Dropout(0.25), Dense(12, 3)), 3, 1)
        state = nn.init_network(spec)
        pool = pool_of(blobs3, 25)
        labeled = blobs3.inputs[100:110]

        def run_all():
            return [
                select_dfal(state, pool, 4),
                select_uncertainty(state, pool, 4),
                select_ceal(state, pool, 4, delta=0.2),
                select_egl(state, pool, 4),
                select_bald(state, pool, 4, samples=4, seed=5),
                select_coreset_greedy(state, labeled, pool, 4),
                select_random(pool, 4, seed=5),
            ]

        for a, b in zip(run_all(), run_all()):
            assert a.queried == b.queried
    