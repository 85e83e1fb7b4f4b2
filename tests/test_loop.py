"""Pool bookkeeping, budget accounting, and full-loop behavior."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import adval.loop
from adval.attacks import AttackConfig
from adval.data import Dataset, SyntheticSpec, gen_blobs
from adval.errors import ConfigError, PoolInvariantError
from adval.loop import (
    STRATEGIES,
    ActiveConfig,
    ActiveSettings,
    PoolState,
    apply_query,
    candidate_pool,
    init_pools,
    pseudo_label_counts,
    run_active_learning,
    sample_candidates,
    training_examples,
)
from adval.nn import Dense, Dropout, NetworkSpec, ReLU, TrainConfig, build_network, init_network
from adval.nn.network import _CHUNK
from adval.strategies import (
    ADVERSARIAL_TWIN,
    CEAL_PSEUDO,
    STRATEGY_IDS,
    CandidateSet,
    QueryBatch,
    SyntheticAddition,
    entropy_scores,
)


def blob_pair(classes=3, points=80, seed=0, cov=0.5):
    train = gen_blobs(SyntheticSpec(classes, points, cov_scale=cov, seed=seed))
    test = gen_blobs(SyntheticSpec(classes, points // 2, cov_scale=cov, seed=seed + 1))
    return train, test


def small_net_spec(classes=3, dim=2, seed=0):
    layers = (Dense(dim, 16), ReLU(), Dropout(0.25), Dense(16, classes))
    return NetworkSpec((dim,), layers, classes, init_seed=seed)


def quick_config(strategy, classes=3, **kw):
    defaults = dict(
        network=small_net_spec(classes),
        strategy=strategy,
        candidates=30,
        n_query=5,
        budget=30,
        initial_labeled=classes * 2,
        base_steps=40,
        seed=1,
    )
    defaults.update(kw)
    return ActiveConfig(**defaults)


class TestInitPools:
    def test_one_per_class_when_budget_equals_classes(self):
        ds, _ = blob_pair(classes=4, points=30)
        pools = init_pools(ds, 4, seed=0)
        labels = [l for _, l in pools.labeled]
        assert sorted(labels) == [0, 1, 2, 3]

    def test_equal_counts_with_remainder(self):
        ds, _ = blob_pair(classes=3, points=30)
        pools = init_pools(ds, 11, seed=0)
        counts = np.bincount([l for _, l in pools.labeled], minlength=3)
        assert counts.min() >= 3 and counts.sum() == 11

    def test_zero_requested_rejected(self):
        ds, _ = blob_pair()
        with pytest.raises(ConfigError):
            init_pools(ds, 0, seed=0)

    def test_deterministic(self):
        ds, _ = blob_pair()
        assert init_pools(ds, 7, seed=5) == init_pools(ds, 7, seed=5)

    def test_partition_is_clean(self):
        ds, _ = blob_pair()
        pools = init_pools(ds, 9, seed=2)
        pools.check_conservation(len(ds))
        assert len(pools.labeled) + len(pools.unlabeled) == len(ds)

    def test_unlabeled_is_sorted_complement(self):
        ds, _ = blob_pair()
        pools = init_pools(ds, 9, seed=4)
        labeled = {i for i, _ in pools.labeled}
        assert pools.unlabeled == tuple(i for i in range(len(ds)) if i not in labeled)

    def test_labels_match_ground_truth(self):
        ds, _ = blob_pair()
        pools = init_pools(ds, 9, seed=3)
        for i, label in pools.labeled:
            assert label == ds.labels[i]


class TestSampleCandidates:
    def test_exhausts_small_pool(self):
        ds, _ = blob_pair()
        pools = init_pools(ds, 6, seed=0)
        got = sample_candidates(pools, 10**6, round_seed=1)
        assert sorted(got) == sorted(pools.unlabeled)

    def test_subset_and_distinct(self):
        ds, _ = blob_pair()
        pools = init_pools(ds, 6, seed=0)
        got = sample_candidates(pools, 25, round_seed=2)
        assert len(got) == 25 and len(set(got)) == 25
        assert set(got) <= set(pools.unlabeled)

    def test_fresh_each_round(self):
        ds, _ = blob_pair()
        pools = init_pools(ds, 6, seed=0)
        a = sample_candidates(pools, 20, round_seed=1)
        b = sample_candidates(pools, 20, round_seed=2)
        assert not np.array_equal(a, b)

    def test_roughly_uniform_membership(self):
        ds, _ = blob_pair(points=20)  # 60 points
        pools = init_pools(ds, 6, seed=0)
        hits = {i: 0 for i in pools.unlabeled}
        rounds = 2000
        for r in range(rounds):
            for i in sample_candidates(pools, 5, round_seed=r):
                hits[int(i)] += 1
        rate = 5 / len(pools.unlabeled)
        sigma = np.sqrt(rounds * rate * (1 - rate))
        for count in hits.values():
            assert abs(count - rounds * rate) <= 4 * sigma


class TestApplyQuery:
    def oracle_for(self, ds):
        return lambda i: int(ds.labels[i])

    def test_set_algebra(self):
        ds, _ = blob_pair()
        state = PoolState(
            labeled=((0, int(ds.labels[0])), (1, int(ds.labels[1]))),
            unlabeled=(2, 3, 4),
            synthetic=(),
        )
        batch = QueryBatch(queried=(2, 3), synthetic_additions=())
        new = apply_query(state, batch, self.oracle_for(ds))
        assert new.labeled_indices() == (0, 1, 2, 3)
        assert new.unlabeled == (4,)
        assert len(new.labeled) == 4
        assert len(training_examples(new, ds)) == 4

    def test_twin_batch_double_counts_training_items(self, blobs3):
        ds = blobs3
        pools = init_pools(ds, 6, seed=0)
        queried = tuple(pools.unlabeled[:10])
        additions = tuple(
            SyntheticAddition(ds.inputs[i] + 0.01, ADVERSARIAL_TWIN, None, i)
            for i in queried
        )
        batch = QueryBatch(queried, additions)
        new = apply_query(pools, batch, self.oracle_for(ds))
        assert len(new.labeled) == 16
        assert len(training_examples(new, ds)) == 26  # 16 real + 10 twins
        for add in new.synthetic:
            assert add.label == ds.labels[add.source_index]

    def test_ceal_batch_charges_queries_only(self, blobs3):
        ds = blobs3
        pools = init_pools(ds, 6, seed=0)
        queried = tuple(pools.unlabeled[:5])
        pseudo_src = pools.unlabeled[6]
        additions = (
            SyntheticAddition(ds.inputs[pseudo_src], CEAL_PSEUDO, 0, pseudo_src),
            SyntheticAddition(ds.inputs[pools.unlabeled[7]], CEAL_PSEUDO, 1, pools.unlabeled[7]),
            SyntheticAddition(ds.inputs[pools.unlabeled[8]], CEAL_PSEUDO, 2, pools.unlabeled[8]),
        )
        batch = QueryBatch(queried, additions)
        new = apply_query(pools, batch, self.oracle_for(ds))
        assert len(new.labeled) == 11  # 6 initial + 5 queried
        assert pseudo_label_counts(new, ds)[0] == 3
        assert len(new.unlabeled) == len(pools.unlabeled) - 5  # pseudo sources stay

    def test_ceal_pseudo_set_replaced_not_accumulated(self, blobs3):
        ds = blobs3
        pools = init_pools(ds, 6, seed=0)
        oracle = self.oracle_for(ds)
        u = pools.unlabeled
        first = QueryBatch(
            (u[0],),
            (SyntheticAddition(ds.inputs[u[1]], CEAL_PSEUDO, 0, u[1]),),
        )
        pools = apply_query(pools, first, oracle)
        second = QueryBatch(
            (u[2],),
            (
                SyntheticAddition(ds.inputs[u[3]], CEAL_PSEUDO, 1, u[3]),
                SyntheticAddition(ds.inputs[u[4]], CEAL_PSEUDO, 1, u[4]),
            ),
        )
        pools = apply_query(pools, second, oracle)
        assert pseudo_label_counts(pools, ds)[0] == 2  # first round's pseudo item dropped
        assert {s.source_index for s in pools.synthetic} == {u[3], u[4]}

    def test_twins_survive_pseudo_replacement(self, blobs3):
        ds = blobs3
        pools = init_pools(ds, 6, seed=0)
        oracle = self.oracle_for(ds)
        u = pools.unlabeled
        first = QueryBatch(
            (u[0],), (SyntheticAddition(ds.inputs[u[0]], ADVERSARIAL_TWIN, None, u[0]),)
        )
        pools = apply_query(pools, first, oracle)
        second = QueryBatch((u[1],), ())
        pools = apply_query(pools, second, oracle)
        assert len(pools.synthetic) == 1
        assert len(training_examples(pools, ds)) == 6 + 2 + 1

    def test_pseudo_label_trains_on_its_source_row(self, blobs3):
        ds = blobs3
        pools = init_pools(ds, 6, seed=0)
        u = pools.unlabeled
        batch = QueryBatch(
            (u[0],),
            (
                SyntheticAddition(None, CEAL_PSEUDO, 2, u[5]),
                SyntheticAddition(ds.inputs[u[0]] + 0.5, ADVERSARIAL_TWIN, None, u[0]),
            ),
        )
        examples = training_examples(apply_query(pools, batch, self.oracle_for(ds)), ds)
        assert len(examples) == 6 + 1 + 2
        (x_pseudo, y_pseudo), (x_twin, _) = examples[-2:]
        assert y_pseudo == 2
        np.testing.assert_array_equal(x_pseudo, ds.inputs[u[5]])
        np.testing.assert_array_equal(x_twin, ds.inputs[u[0]] + 0.5)

    def test_corruption_counted_not_prevented(self, blobs3):
        ds = blobs3
        pools = init_pools(ds, 6, seed=0)
        src = pools.unlabeled[0]
        wrong = (int(ds.labels[src]) + 1) % ds.class_count
        batch = QueryBatch(
            (pools.unlabeled[1],),
            (SyntheticAddition(ds.inputs[src], CEAL_PSEUDO, wrong, src),),
        )
        new = apply_query(pools, batch, self.oracle_for(ds))
        assert pseudo_label_counts(new, ds) == (1, 1)
        assert any(s.label == wrong for s in new.synthetic)

    def test_requerying_labeled_index_is_invariant_violation(self, blobs3):
        pools = init_pools(blobs3, 6, seed=0)
        already = pools.labeled_indices()[0]
        batch = QueryBatch((already,), ())
        with pytest.raises(PoolInvariantError):
            apply_query(pools, batch, self.oracle_for(blobs3))


class TestRunActiveLearning:
    def test_zero_budget_single_record(self):
        train_ds, test_ds = blob_pair()
        cfg = quick_config("random", budget=6, initial_labeled=6)
        records = run_active_learning(cfg, train_ds, test_ds)
        assert len(records) == 1
        assert records[0].annotations_used == 6
        assert records[0].selection_seconds == 0.0

    def test_query_round_arithmetic(self):
        train_ds, test_ds = blob_pair()
        cfg = quick_config("random", budget=6 + 25, initial_labeled=6, n_query=5)
        records = run_active_learning(cfg, train_ds, test_ds)
        assert len(records) == 6  # 5 query rounds plus the final evaluation
        assert [r.annotations_used for r in records] == [6, 11, 16, 21, 26, 31]

    def test_budget_capped_on_last_round(self):
        train_ds, test_ds = blob_pair()
        cfg = quick_config("random", budget=6 + 7, initial_labeled=6, n_query=5)
        records = run_active_learning(cfg, train_ds, test_ds)
        assert [r.annotations_used for r in records] == [6, 11, 13]

    def test_records_monotone_and_seeded(self):
        train_ds, test_ds = blob_pair()
        cfg = quick_config("dfal", budget=16, n_query=5, initial_labeled=6)
        a = run_active_learning(cfg, train_ds, test_ds)
        b = run_active_learning(cfg, train_ds, test_ds)
        assert [r.annotations_used for r in a] == [6, 11, 16]
        for ra, rb in zip(a, b):
            assert ra.test_accuracy == rb.test_accuracy
            assert ra.training_set_size == rb.training_set_size

    def test_dfal_budget_ledger_invariant(self):
        train_ds, test_ds = blob_pair()
        cfg = quick_config("dfal", budget=26, n_query=5, initial_labeled=6)
        records = run_active_learning(cfg, train_ds, test_ds)
        for r in records:
            assert r.training_set_size == 6 + 2 * (r.annotations_used - 6)

    def test_non_twin_strategies_keep_sizes_equal(self):
        train_ds, test_ds = blob_pair()
        for strategy in ("uncertainty", "egl", "coreset", "random", "bald"):
            cfg = quick_config(strategy, budget=16, n_query=5, initial_labeled=6)
            for r in run_active_learning(cfg, train_ds, test_ds):
                assert r.training_set_size == r.annotations_used, strategy

    def test_ceal_pseudo_tracked_in_records(self):
        train_ds, test_ds = blob_pair()
        cfg = quick_config("ceal", budget=21, n_query=5, initial_labeled=6, ceal_delta=0.4)
        records = run_active_learning(cfg, train_ds, test_ds)
        assert any(r.pseudo_additions > 0 for r in records[1:])
        for r in records:
            assert r.training_set_size == r.annotations_used + r.pseudo_additions

    def test_unlabeled_exhaustion_terminates(self):
        train_ds, test_ds = blob_pair(points=5)  # 15 points total
        cfg = quick_config(
            "random", budget=10**6, candidates=15, n_query=5, initial_labeled=6
        )
        records = run_active_learning(cfg, train_ds, test_ds)
        assert records[-1].annotations_used == 15

    def test_mismatched_network_rejected(self):
        train_ds, test_ds = blob_pair()
        cfg = quick_config("random", network=small_net_spec(classes=3, dim=5))
        with pytest.raises(ConfigError):
            run_active_learning(cfg, train_ds, test_ds)

    def test_test_label_beyond_network_classes_rejected(self):
        train_ds, _ = blob_pair(classes=3)
        test_ds = gen_blobs(SyntheticSpec(4, 10, seed=2))  # a 4th class
        with pytest.raises(ConfigError, match="test set has label 3"):
            run_active_learning(quick_config("random"), train_ds, test_ds)

    def test_round_hook_sees_every_round(self):
        train_ds, test_ds = blob_pair()
        cfg = quick_config("random", budget=16, n_query=5, initial_labeled=6)
        seen = []
        run_active_learning(
            cfg, train_ds, test_ds, round_hook=lambda k, net, pools, rec: seen.append(k)
        )
        assert seen == [0, 1, 2]


class TestStrategyTable:
    # The benchmark tracer wraps these names on adval.loop.
    SELECT_NAMES = {
        "dfal": "select_dfal",
        "uncertainty": "select_uncertainty",
        "ceal": "select_ceal",
        "egl": "select_egl",
        "bald": "select_bald",
        "coreset": "select_coreset_greedy",
        "random": "select_random",
    }

    def test_keys_are_strategy_ids_in_order(self):
        assert tuple(STRATEGIES) == STRATEGY_IDS

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_round_calls_names_bound_in_loop(self, monkeypatch, strategy):
        calls = Counter()

        def count_calls(name):
            original = getattr(adval.loop, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(adval.loop, name, counted)

        select_name = self.SELECT_NAMES[strategy]
        count_calls(select_name)
        count_calls("train")
        train_ds, test_ds = blob_pair()
        cfg = quick_config(strategy, budget=11, n_query=5, initial_labeled=6)
        run_active_learning(cfg, train_ds, test_ds)
        assert calls == {select_name: 1, "train": 2}


class TestConfigValidation:
    def test_rejects_bad_combinations(self):
        net = small_net_spec()
        with pytest.raises(ConfigError):
            ActiveConfig(network=net, strategy="nope")
        with pytest.raises(ConfigError):
            ActiveConfig(network=net, strategy="dfal", n_query=50, candidates=10)
        with pytest.raises(ConfigError):
            ActiveConfig(network=net, strategy="dfal", initial_labeled=2)
        with pytest.raises(ConfigError):
            ActiveConfig(network=net, strategy="dfal", budget=5, initial_labeled=10)


FULL_POOL = tuple(sid for sid in STRATEGY_IDS if not STRATEGIES[sid].scores_subset)
IMAGE_SHAPE = (1, 12, 12)


def image_pool(rows, seed=0, classes=3):
    """An untrained arch-A net, ``rows`` uniform images, and a pool state whose
    unlabeled indices are shuffled and leave gaps."""
    rng = np.random.default_rng(seed)
    n = rows + 10
    data = Dataset(rng.uniform(0.0, 1.0, size=(n, *IMAGE_SHAPE)), np.arange(n) % classes, classes)
    net = init_network(build_network("arch-A", IMAGE_SHAPE, classes, seed=seed))
    unlabeled = tuple(int(i) for i in rng.permutation(len(data))[:rows])
    return net, data, PoolState(labeled=(), unlabeled=unlabeled, synthetic=())


class TestFullPoolByIndex:
    def test_registered_full_pool_strategies(self):
        assert FULL_POOL == ("uncertainty", "ceal", "random")

    @pytest.mark.parametrize("strategy", FULL_POOL)
    def test_same_batch_as_gathered_pool(self, strategy):
        net, data, pools = image_pool(2 * _CHUNK + 3)
        indices = np.asarray(pools.unlabeled)
        gathered = CandidateSet(indices, data.inputs[indices])
        # half the pool lies below CEAL's threshold and gets pseudo-labels
        settings = ActiveSettings(ceal_delta=float(np.median(entropy_scores(net, gathered.inputs))))
        select = STRATEGIES[strategy].select
        pool = candidate_pool(strategy, pools, data, settings.candidates, 0)
        want = select(settings, net, gathered, 10, 7, pools, data)
        assert select(settings, net, pool, 10, 7, pools, data) == want
        assert len(want.queried) == 10
        assert len(want.synthetic_additions) == (len(indices) // 2 if strategy == "ceal" else 0)

    @pytest.mark.parametrize("strategy", FULL_POOL)
    def test_selection_does_not_copy_the_pool(self, strategy):
        settings = ActiveSettings()

        def peak_bytes(rows):
            net, data, pools = image_pool(rows)
            tracemalloc.start()
            try:
                pool = candidate_pool(strategy, pools, data, settings.candidates, 0)
                STRATEGIES[strategy].select(settings, net, pool, settings.n_query, 7, pools, data)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 4 * _CHUNK, 12 * _CHUNK
        row_bytes = 8 * int(np.prod(IMAGE_SHAPE))
        # A copy of the pool's inputs alone grows the peak by row_bytes per pool row.
        assert peak_bytes(large) - peak_bytes(small) < (large - small) * row_bytes
