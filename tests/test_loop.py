"""Pool bookkeeping, budget accounting, and full-loop behavior."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import count_calls, evaluated_rows, reference_init_pools

import adval.loop
import adval.strategies
from adval.attacks import AttackConfig, batch_deepfool
from adval.data import Dataset, SyntheticSpec, gen_blobs
from adval.errors import ConfigError, InputError, PoolInvariantError, TrainingError
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
    select_round,
    train_fresh,
    training_examples,
)
from adval.nn import (
    Dense,
    Dropout,
    NetworkSpec,
    NetworkState,
    ReLU,
    TrainConfig,
    build_network,
    init_network,
    network,
    train,
)
from adval.nn.network import _CHUNK, embed_batch, forward_batch
from adval.strategies import (
    ADVERSARIAL_TWIN,
    CEAL_PSEUDO,
    STRATEGY_IDS,
    CandidateSet,
    QueryBatch,
    SyntheticAddition,
    bald_probability_samples,
    egl_scores,
    entropy_scores,
    select_coreset_greedy,
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

    def test_matches_the_index_by_index_reference(self):
        # random class counts, pool sizes and label counts; the cases that raise must raise alike
        rng = np.random.default_rng(11)
        equal = raised = 0
        for _ in range(300):
            c = int(rng.integers(2, 7))
            labels = rng.integers(0, c, size=int(rng.integers(c, 80)))
            ds = Dataset(np.zeros((len(labels), 1)), labels, c)
            count, seed = int(rng.integers(c - 1, len(labels) + 2)), int(rng.integers(2**32))
            try:
                want = reference_init_pools(ds, count, seed)
            except ConfigError as error:
                with pytest.raises(ConfigError) as got:
                    init_pools(ds, count, seed)
                assert str(got.value) == str(error)
                raised += 1
                continue
            pools = init_pools(ds, count, seed)
            assert pools == want and repr(pools) == repr(want)
            equal += 1
        assert equal > 150 and raised > 30


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

    def test_empty_test_set_rejected(self):
        train_ds, test_ds = blob_pair(classes=3)
        empty = replace(test_ds, inputs=test_ds.inputs[:0], labels=test_ds.labels[:0])
        with pytest.raises(ConfigError, match="^the test set has no samples$"):
            run_active_learning(quick_config("random"), train_ds, empty)

    def test_pool_without_a_class_names_the_missing_ones(self):
        train_ds, test_ds = blob_pair(classes=4)
        keep = np.isin(train_ds.labels, (0, 2))
        pool = replace(train_ds, inputs=train_ds.inputs[keep], labels=train_ds.labels[keep])
        cfg = quick_config("random", classes=4, initial_labeled=8)
        with pytest.raises(ConfigError) as info:
            run_active_learning(cfg, pool, test_ds)
        assert str(info.value) == "4 classes, but the pool has no sample of class 1, 3"

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
        select_name = self.SELECT_NAMES[strategy]
        calls = count_calls(monkeypatch, select_name, "train")
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

    @pytest.mark.parametrize(
        "kind, field",
        [
            (AttackConfig, "overshoot"),
            (AttackConfig, "max_iter"),
            (TrainConfig, "learning_rate"),
            (TrainConfig, "epsilon"),
            (SyntheticSpec, "cov_scale"),
            (ActiveSettings, "ceal_delta"),
            (ActiveSettings, "base_steps"),
        ],
    )
    def test_nan_bound_is_rejected_by_name(self, kind, field):
        # NaN compares false with every minimum, so a bound written as `value < minimum` let it through
        required = {"class_count": 3, "points_per_class": 5} if kind is SyntheticSpec else {}
        with pytest.raises(ConfigError, match=f"^{field} "):
            kind(**required, **{field: float("nan")})


FULL_POOL = tuple(sid for sid in STRATEGY_IDS if not STRATEGIES[sid].scores_subset)
IMAGE_SHAPE = (1, 12, 12)
ROW_BYTES = 8 * int(np.prod(IMAGE_SHAPE))


def image_pool(rows, seed=0, classes=3):
    """An untrained arch-A net, ``rows`` uniform images, and a pool state whose
    unlabeled indices are shuffled and leave gaps."""
    rng = np.random.default_rng(seed)
    n = rows + 10
    data = Dataset(rng.uniform(0.0, 1.0, size=(n, *IMAGE_SHAPE)), np.arange(n) % classes, classes)
    net = init_network(build_network("arch-A", IMAGE_SHAPE, classes, seed=seed))
    unlabeled = tuple(int(i) for i in rng.permutation(len(data))[:rows])
    return net, data, PoolState(labeled=(), unlabeled=unlabeled, synthetic=())


def batch_bytes(batch, indices=None):
    """``batch`` as comparable tuples, its pool rows read as ``indices[row]`` if given."""
    at = int if indices is None else (lambda row: int(indices[row]))
    additions = tuple(
        (at(a.source_index), a.provenance, a.label, None if a.values is None else a.values.tobytes())
        for a in batch.synthetic_additions
    )
    return tuple(at(i) for i in batch.queried), additions


def selection_peak_bytes(strategy, rows):
    """Peak traced bytes of one round's selection on ``image_pool(rows)``, drawing all its rows."""
    net, data, pools = image_pool(rows)
    settings = ActiveSettings(candidates=rows)
    tracemalloc.start()
    try:
        select_round(strategy, settings, net, pools, data, settings.n_query, 0, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFullPoolByIndex:
    def test_registered_full_pool_strategies(self):
        assert FULL_POOL == ("uncertainty", "ceal", "random")

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_same_batch_as_gathered_pool(self, strategy):
        net, data, pools = image_pool(2 * _CHUNK + 3)
        rest = sorted(set(range(len(data))) - set(pools.unlabeled))
        pools = replace(pools, labeled=tuple((i, int(data.labels[i])) for i in rest))
        # half the pool lies below CEAL's threshold and gets pseudo-labels
        unlabeled = CandidateSet(data.inputs, np.asarray(pools.unlabeled))
        median = float(np.median(entropy_scores(net, unlabeled)))
        # more candidates than a chunk, so subset scorers cross a chunk boundary too
        settings = ActiveSettings(candidates=_CHUNK + 50, ceal_delta=median)
        pool = candidate_pool(strategy, pools, data, settings.candidates, 0)
        labeled = CandidateSet(data.inputs, np.array(pools.labeled_indices(), dtype=np.intp))
        # The same rows gathered into one array, and the labeled rows into another.
        gathered = CandidateSet(pool[:], np.arange(len(pool)))
        labeled_rows = CandidateSet(labeled[:], np.arange(len(labeled)))
        select = STRATEGIES[strategy].select
        want = select(settings, net, gathered, 10, 7, labeled_rows)
        got = select(settings, net, pool, 10, 7, labeled)
        assert batch_bytes(got) == batch_bytes(want, pool.indices)
        assert len(want.queried) == 10
        pseudo = len(pool) // 2 if strategy == "ceal" else 0
        twins = 10 if strategy == "dfal" else 0
        assert len(want.synthetic_additions) == pseudo + twins

    def test_coreset_reads_the_labeled_set_through_a_view(self):
        net, data, _ = image_pool(2 * _CHUNK + 200)
        rows = np.arange(2 * _CHUNK + 188)  # three chunks, the last one partial
        pool = CandidateSet(data.inputs, np.arange(len(rows), len(data)))
        view = CandidateSet(data.inputs, rows)
        assert embed_batch(net, view).tobytes() == embed_batch(net, data.inputs[rows]).tobytes()
        want = select_coreset_greedy(net, data.inputs[rows], pool, 10)
        assert STRATEGIES["coreset"].select(ActiveSettings(), net, pool, 10, 0, view) == want

    @pytest.mark.parametrize("strategy", ["dfal", "uncertainty"])
    def test_empty_pool_rejected_where_it_is_drawn(self, strategy):
        net, data, pools = image_pool(4)
        everything = tuple((i, int(data.labels[i])) for i in range(len(data)))
        drained = PoolState(labeled=everything, unlabeled=(), synthetic=())
        assert len(CandidateSet(data.inputs, np.arange(0))) == 0  # a labeled set may be empty
        with pytest.raises(ConfigError, match="candidate pool is empty"):
            candidate_pool(strategy, drained, data, 30, 0)
        with pytest.raises(ConfigError, match="candidate pool is empty"):
            select_round(strategy, ActiveSettings(), net, drained, data, 5, 0, 0)
        if STRATEGIES[strategy].scores_subset:  # a draw of no candidates is empty too
            with pytest.raises(ConfigError, match="candidate pool is empty"):
                candidate_pool(strategy, pools, data, 0, 0)

    @pytest.mark.parametrize("strategy", FULL_POOL)
    def test_selection_does_not_copy_the_pool(self, strategy):
        small, large = 4 * _CHUNK, 12 * _CHUNK
        growth = selection_peak_bytes(strategy, large) - selection_peak_bytes(strategy, small)
        # A copy of the pool's inputs alone grows the peak by ROW_BYTES per pool row.
        assert growth < (large - small) * ROW_BYTES


class TestCandidateScoringMemory:
    @pytest.mark.parametrize("strategy", ["egl", "bald"])
    def test_peak_grows_only_by_the_gathered_candidates(self, strategy):
        small, large = 4 * _CHUNK, 12 * _CHUNK
        growth = selection_peak_bytes(strategy, large) - selection_peak_bytes(strategy, small)
        # The margin holds the per-candidate scores, and BALD's (samples, n, C)
        # probabilities: 240 bytes a candidate here, 0.5 MB over the difference.
        # Scoring all candidates in one pass, not chunk by chunk, would add
        # about 18 kB a candidate.
        margin = 1 << 20
        assert growth < (large - small) * ROW_BYTES + margin


def round0_examples():
    train_ds, _ = blob_pair()
    return training_examples(init_pools(train_ds, 6, seed=0), train_ds)


def flip_input_bit(examples):
    x = examples[0][0].copy()
    x.view(np.uint64)[0] ^= 1
    return [(x, examples[0][1]), *examples[1:]]


def relabel_one(examples):
    x, label = examples[0]
    return [(x, (label + 1) % 3), *examples[1:]]


class TestRound0Memo:
    SETTINGS = ActiveSettings(base_steps=20)

    def test_strategies_of_a_seed_share_round0(self, monkeypatch):
        calls = count_calls(monkeypatch, "train")
        train_ds, test_ds = blob_pair()
        nets = []
        for strategy in ("random", "uncertainty"):
            cfg = quick_config(strategy, budget=6, initial_labeled=6)
            run_active_learning(
                cfg, train_ds, test_ds, round_hook=lambda k, net, pools, rec: nets.append(net)
            )
        assert len(nets) == 2 and nets[0] is nets[1]
        assert calls == {"train": 1}

    def test_warm_run_records_equal_a_cold_run(self, monkeypatch):
        train_ds, test_ds = blob_pair()
        cfg = quick_config("dfal", budget=16, n_query=5, initial_labeled=6)
        cold = run_active_learning(cfg, train_ds, test_ds)
        adval.loop._round0_memo.clear()
        run_active_learning(replace(cfg, strategy="random"), train_ds, test_ds)
        calls = count_calls(monkeypatch, "train")
        warm = run_active_learning(cfg, train_ds, test_ds)
        assert calls == {"train": len(warm) - 1}  # every round but round 0
        untimed = lambda r: replace(r, train_seconds=0.0, selection_seconds=0.0)  # noqa: E731
        assert [untimed(r) for r in warm] == [untimed(r) for r in cold]

    @pytest.mark.parametrize(
        "change",
        [
            lambda spec, ex, s, seed: (spec, ex, s, seed + 1),
            lambda spec, ex, s, seed: (spec, ex, replace(s, base_steps=21), seed),
            lambda spec, ex, s, seed: (
                spec, ex, replace(s, train=replace(s.train, beta2=0.998)), seed
            ),
            lambda spec, ex, s, seed: (replace(spec, init_seed=spec.init_seed + 1), ex, s, seed),
            lambda spec, ex, s, seed: (spec, flip_input_bit(ex), s, seed),
            lambda spec, ex, s, seed: (spec, relabel_one(ex), s, seed),
        ],
        ids=["seed", "base_steps", "train_config", "init_seed", "input_bit", "label"],
    )
    def test_any_changed_input_misses(self, monkeypatch, change):
        calls = count_calls(monkeypatch, "train")
        args = (small_net_spec(), round0_examples(), self.SETTINGS, 5)
        first = train_fresh(*args, 0)
        assert train_fresh(*args, 0) is first
        changed = train_fresh(*change(*args), 0)
        assert changed is not first
        assert calls == {"train": 2}
        assert len(adval.loop._round0_memo) == 2

    def test_later_rounds_bypass_the_memo(self, monkeypatch):
        calls = count_calls(monkeypatch, "train")
        args = (small_net_spec(), round0_examples(), self.SETTINGS, 5)
        assert train_fresh(*args, 1) is not train_fresh(*args, 1)
        assert calls == {"train": 2}
        assert not adval.loop._round0_memo

    def test_shared_parameters_are_read_only(self):
        args = (small_net_spec(), round0_examples(), self.SETTINGS, 5)
        for net in (train_fresh(*args, 0), train_fresh(*args, 0)):  # a miss, then a hit
            for params in net.params:
                for v in (params or {}).values():
                    with pytest.raises(ValueError, match="read-only"):
                        v[...] = 0.0

    def test_memo_holds_at_most_its_bound(self, monkeypatch):
        trained = []
        monkeypatch.setattr(
            adval.loop, "train", lambda state, examples, cfg: trained.append(cfg.seed) or state
        )
        spec, examples = small_net_spec(), round0_examples()
        bound = adval.loop._MEMO_SIZE
        for seed in range(bound + 5):
            train_fresh(spec, examples, self.SETTINGS, seed, 0)
            assert len(adval.loop._round0_memo) <= bound
        assert len(adval.loop._round0_memo) == bound
        # The first entries stay; a later one trains each time and is never stored.
        assert {key[3] for key in adval.loop._round0_memo} == set(range(bound))
        trained.clear()
        for seed in (0, bound - 1, bound, bound):
            train_fresh(spec, examples, self.SETTINGS, seed, 0)
        assert trained == [bound, bound]
        assert len(adval.loop._round0_memo) == bound

    def test_diverged_training_names_round(self):
        settings = replace(self.SETTINGS, train=TrainConfig(learning_rate=1e300))
        args = (small_net_spec(), round0_examples(), settings, 5)
        with pytest.raises(TrainingError, match=r"^round 0: training diverged: [^;]*$"):
            train_fresh(*args, 0)
        assert not adval.loop._round0_memo


class TestRound0Logits:
    """A round-0 network computes the logits of each distinct input once, same bytes."""

    ROWS = 3 * _CHUNK + 37  # four chunks, the last one partial

    @pytest.fixture(params=["arch-A", "arch-B"])
    def arch(self, request):
        return request.param

    @pytest.fixture(params=[1, 3], ids=["inline", "threaded"])
    def n_cpus(self, request, cpus):
        cpus(request.param)
        return request.param

    @pytest.fixture
    def net(self, arch):
        return adval.loop._read_only(init_network(build_network(arch, (1, 12, 12), 10, seed=21)))

    @pytest.fixture
    def x(self):
        return np.random.default_rng(22).uniform(0.0, 1.0, size=(self.ROWS, 1, 12, 12))

    @staticmethod
    def unshared(net):
        return NetworkState(net.spec, net.params)

    def test_equal_rows_hit_with_other_indices(self, monkeypatch, n_cpus, net, x):
        rows = np.random.default_rng(23).permutation(len(x))
        reversed_copy = x[::-1].copy()
        evaluated = evaluated_rows(monkeypatch)
        first = forward_batch(net, CandidateSet(x, rows))
        assert evaluated == [self.ROWS]
        repeat = forward_batch(net, CandidateSet(reversed_copy, len(x) - 1 - rows))
        assert evaluated == [self.ROWS]
        want = forward_batch(self.unshared(net), x[rows]).tobytes()
        assert first.tobytes() == repeat.tobytes() == want

    def test_row_changed_in_place_misses(self, monkeypatch, n_cpus, net, x):
        pool = CandidateSet(x, np.arange(len(x)))
        forward_batch(net, pool)
        x[2 * _CHUNK + 5, 0, 3, 4] += 0.25  # a row of the third chunk
        evaluated = evaluated_rows(monkeypatch)
        changed = forward_batch(net, pool)
        assert evaluated == [self.ROWS]
        assert changed.tobytes() == forward_batch(self.unshared(net), x).tobytes()

    def test_returned_arrays_are_copies(self, monkeypatch, n_cpus, net, x):
        want = forward_batch(self.unshared(net), x).tobytes()
        for _ in range(2):  # a miss, then a hit
            out = forward_batch(net, x)
            assert out.tobytes() == want
            out[...] = 0.0
        evaluated = evaluated_rows(monkeypatch)
        assert forward_batch(net, x).tobytes() == want
        assert evaluated == []

    def test_stochastic_and_gradient_passes_bypass_the_memo(self, monkeypatch, n_cpus, net, x):
        evaluated = evaluated_rows(monkeypatch)
        egl_pass = adval.strategies.probs_and_grad_sq_norms
        monkeypatch.setattr(
            adval.strategies, "probs_and_grad_sq_norms", lambda n, x: evaluated.append(len(x)) or egl_pass(n, x)
        )
        attack = AttackConfig(max_iter=3)
        passes = {
            "bald": lambda n: bald_probability_samples(n, x, 3, seed=4),
            "embed": lambda n: embed_batch(n, x),
            "egl": lambda n: egl_scores(n, x[:40]),
            "deepfool": lambda n: [r.perturbation for r in batch_deepfool(n, x[:6], attack)],
        }
        for name, run in passes.items():
            got, counts = [], []
            for n in (net, net, self.unshared(net)):  # twice shared, then the reference
                before = len(evaluated)
                got.append(np.asarray(run(n)).tobytes())
                counts.append(len(evaluated) - before)
            assert got[0] == got[1] == got[2], name
            assert counts[0] == counts[1] == counts[2] > 0, (name, counts)
        assert net._logits == {}

    def test_third_input_drops_the_oldest(self, monkeypatch, n_cpus, net, x):
        inputs = [x[:-1], x[1:], x[:-2]]
        for rows in inputs:
            forward_batch(net, rows)
        assert len(net._logits) == 2
        evaluated = evaluated_rows(monkeypatch)
        for rows in inputs[1:]:
            forward_batch(net, rows)
        assert evaluated == []
        assert forward_batch(net, inputs[0]).tobytes() == forward_batch(self.unshared(net), inputs[0]).tobytes()
        assert evaluated == [self.ROWS - 1, self.ROWS - 1]

    def test_empty_input_is_checked_every_time(self, net, x):
        assert forward_batch(net, x[:0]).shape == (0, 10)
        with pytest.raises(InputError, match="does not match network input"):
            forward_batch(net, x[:0, :, :5])
        assert net._logits == {}

    def test_train_fresh_returns_the_memo_object(self):
        args = (small_net_spec(), round0_examples(), TestRound0Memo.SETTINGS, 5)
        first = train_fresh(*args, 0)
        assert list(adval.loop._round0_memo.values()) == [first]
        assert next(iter(adval.loop._round0_memo.values())) is first
        assert train_fresh(*args, 0) is first
        assert first._logits == {}
        assert train_fresh(*args, 1)._logits is None

    def test_training_a_shared_state_gives_an_unshared_network(self, net, x):
        forward_batch(net, x)
        trained = train(net, [(x[i], i % 10) for i in range(8)], TrainConfig(seed=3))
        assert trained._logits is None

    def test_ceal_after_uncertainty_records_equal_a_cold_ceal(self, monkeypatch):
        train_ds, test_ds = blob_pair(points=300)
        cfg = quick_config("ceal", budget=16, initial_labeled=6)
        cold = run_active_learning(cfg, train_ds, test_ds)
        adval.loop._round0_memo.clear()
        run_active_learning(replace(cfg, strategy="uncertainty"), train_ds, test_ds)
        evaluated = evaluated_rows(monkeypatch)
        warm = run_active_learning(cfg, train_ds, test_ds)
        # round 0 reads the test set and the full pool from the memo; every later round computes
        assert len(train_ds) - 6 not in evaluated and len(train_ds) - 11 in evaluated
        assert evaluated.count(len(test_ds)) == len(warm) - 1
        untimed = lambda r: replace(r, train_seconds=0.0, selection_seconds=0.0)  # noqa: E731
        assert [untimed(r) for r in warm] == [untimed(r) for r in cold]

