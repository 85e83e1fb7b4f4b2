"""Round-based active learning: train, score, query, update, repeat.

One round = retrain the network from scratch on everything labeled so far
(real samples plus synthetic additions), evaluate test accuracy, draw the
candidate pool, ask the strategy for a query batch, and apply it against the
simulated oracle. The loop stops once the annotation budget is spent or the
unlabeled pool runs dry.

Budget semantics: the budget counts oracle label requests. Adversarial twins
are free, so a twin-producing run grows the training set by two items per
annotation while charging one.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from adval.attacks import AttackConfig
from adval.data import Dataset
from adval.errors import ConfigError, PoolInvariantError
from adval.nn.network import IndexedRows, NetworkSpec, NetworkState, accuracy, init_network
from adval.nn.training import TrainConfig, epochs_for_budget, train
from adval.strategies import (
    ADVERSARIAL_TWIN,
    BALD_SAMPLES,
    CEAL_PSEUDO,
    STRATEGY_IDS,
    CandidateSet,
    QueryBatch,
    SyntheticAddition,
    select_bald,
    select_ceal,
    select_coreset_greedy,
    select_dfal,
    select_egl,
    select_random,
    select_uncertainty,
)

# Independent seed streams derived from (seed, round, stream).
_STREAM_POOL_INIT = 0
_STREAM_TRAIN = 1
_STREAM_CANDIDATES = 2
_STREAM_STRATEGY = 3


def derive_seed(seed: int, round_index: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, round_index, stream)).generate_state(1)[0])


@dataclass(frozen=True)
class PoolState:
    labeled: tuple[tuple[int, int], ...]  # (dataset index, label), insertion order
    unlabeled: tuple[int, ...]
    synthetic: tuple[SyntheticAddition, ...]

    def labeled_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.labeled)

    def check_conservation(self, universe_size: int) -> None:
        lab = set(self.labeled_indices())
        unl = set(self.unlabeled)
        if lab & unl:
            raise PoolInvariantError(f"labeled and unlabeled overlap: {sorted(lab & unl)[:5]}")
        if len(lab | unl) != universe_size:
            raise PoolInvariantError(
                f"labeled+unlabeled covers {len(lab | unl)} of {universe_size} indices"
            )


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    annotations_used: int
    training_set_size: int
    test_accuracy: float
    selection_seconds: float
    train_seconds: float
    pseudo_additions: int = 0
    pseudo_corruptions: int = 0


@dataclass(frozen=True, kw_only=True)
class ActiveSettings:
    """The settings of a run that need no data: ActiveConfig less network, strategy and seed.

    Its checks run when an experiment config loads. Each error message starts
    with the field it rejects, so the loader can name the ``section.key``.
    """

    candidates: int = 200  # size of the random candidate pool drawn each round
    n_query: int = 10
    budget: int = 1020  # total annotations, initial labels included
    initial_labeled: int = 20
    base_steps: int = 2000  # per-round gradient-step budget
    train: TrainConfig = field(default_factory=TrainConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    ceal_delta: float = 0.05
    bald_samples: int = BALD_SAMPLES

    def __post_init__(self):
        if not 1 <= self.n_query <= self.candidates:
            raise ConfigError(
                f"n_query must lie in [1, candidates={self.candidates}], got {self.n_query}"
            )
        if self.budget < self.initial_labeled:
            raise ConfigError(
                f"budget must be >= initial_labeled={self.initial_labeled}, got {self.budget}"
            )
        if self.base_steps < 1:
            raise ConfigError(f"base_steps must be >= 1, got {self.base_steps}")
        if self.ceal_delta < 0:
            raise ConfigError(f"ceal_delta must be >= 0, got {self.ceal_delta}")
        if self.bald_samples < 2:
            raise ConfigError(f"bald_samples must be >= 2, got {self.bald_samples}")


@dataclass(frozen=True, kw_only=True)
class ActiveConfig(ActiveSettings):
    network: NetworkSpec
    strategy: str
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGY_IDS:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected {STRATEGY_IDS}")
        super().__post_init__()
        if self.initial_labeled < self.network.class_count:
            raise ConfigError("initial_labeled must cover at least one sample per class")


def init_pools(dataset: Dataset, initial_labeled: int, seed: int) -> PoolState:
    """Stratified random initial labeled set: equal per-class counts, remainder random."""
    c = dataset.class_count
    if initial_labeled < c:
        raise ConfigError(f"{initial_labeled} labels cannot cover {c} classes")
    if initial_labeled > len(dataset):
        raise ConfigError(f"{initial_labeled} labels exceed the pool's {len(dataset)} samples")
    rng = np.random.default_rng(seed)
    per_class = initial_labeled // c
    chosen: list[int] = []
    leftover: list[np.ndarray] = []
    for cls in range(c):
        members = rng.permutation(np.flatnonzero(dataset.labels == cls))
        if len(members) < per_class:
            raise ConfigError(f"class {cls} has only {len(members)} samples, need {per_class}")
        chosen.extend(int(i) for i in members[:per_class])
        leftover.append(members[per_class:])
    rest = np.concatenate(leftover)
    extra = initial_labeled - per_class * c
    if extra:
        chosen.extend(int(i) for i in rng.choice(rest, size=extra, replace=False))
    chosen_sorted = sorted(chosen)
    labeled = tuple((i, int(dataset.labels[i])) for i in chosen_sorted)
    chosen_set = set(chosen_sorted)
    unlabeled = tuple(i for i in range(len(dataset)) if i not in chosen_set)
    return PoolState(labeled=labeled, unlabeled=unlabeled, synthetic=())


def sample_candidates(pool_state: PoolState, k: int, round_seed: int) -> np.ndarray:
    """Uniform without replacement from the unlabeled pool, fresh each round."""
    unlabeled = np.asarray(pool_state.unlabeled)
    if len(unlabeled) == 0:
        return unlabeled
    rng = np.random.default_rng(round_seed)
    take = min(k, len(unlabeled))
    return np.sort(rng.choice(unlabeled, size=take, replace=False))


def apply_query(pool_state: PoolState, batch: QueryBatch, oracle) -> PoolState:
    """Label the queried indices and absorb synthetic additions; returns the new state.

    Twins inherit the oracle label of their source (the very label just paid
    for), so they can never corrupt the training set. Pseudo-labeled items are
    recomputed from the current model each round: the previous pseudo set is
    dropped before the new one is appended. Wrong pseudo labels are left in
    place; ``pseudo_label_counts`` counts them from the state when the round
    is recorded.
    """
    unlabeled = set(pool_state.unlabeled)
    dupes = [i for i in batch.queried if i not in unlabeled]
    if dupes:
        raise PoolInvariantError(f"queried indices not in unlabeled pool: {dupes[:5]}")
    if len(set(batch.queried)) != len(batch.queried):
        raise PoolInvariantError("queried indices are not distinct")

    labels = {i: int(oracle(i)) for i in batch.queried}
    labeled = pool_state.labeled + tuple((i, labels[i]) for i in batch.queried)
    remaining = tuple(i for i in pool_state.unlabeled if i not in labels)

    kept = tuple(s for s in pool_state.synthetic if s.provenance != CEAL_PSEUDO)
    fresh: list[SyntheticAddition] = []
    for add in batch.synthetic_additions:
        if add.provenance == ADVERSARIAL_TWIN:
            fresh.append(replace(add, label=labels[add.source_index]))
        elif add.provenance == CEAL_PSEUDO:
            fresh.append(add)
        else:
            raise PoolInvariantError(f"unknown provenance {add.provenance!r}")
    return PoolState(labeled, remaining, kept + tuple(fresh))


def training_examples(pool_state: PoolState, dataset: Dataset):
    """Real labeled samples plus synthetic additions, in insertion order.

    An addition without ``values`` (a pseudo-label) trains on its source row.
    """
    examples = [(dataset.inputs[i], label) for i, label in pool_state.labeled]
    for add in pool_state.synthetic:
        if add.label is None:
            raise PoolInvariantError("synthetic item reached training without a label")
        x = dataset.inputs[add.source_index] if add.values is None else add.values
        examples.append((x, add.label))
    return examples


def pseudo_label_counts(pool_state: PoolState, dataset: Dataset) -> tuple[int, int]:
    """(pseudo-labeled items, those whose label differs from the dataset's) in the state."""
    pseudo = [s for s in pool_state.synthetic if s.provenance == CEAL_PSEUDO]
    return len(pseudo), sum(s.label != int(dataset.labels[s.source_index]) for s in pseudo)


def train_fresh(spec: NetworkSpec, examples, settings: ActiveSettings, seed: int) -> NetworkState:
    """Train a newly initialized ``spec`` on ``examples`` for about ``base_steps`` steps."""
    epochs = epochs_for_budget(settings.base_steps, settings.train.batch_size, len(examples))
    return train(init_network(spec), examples, replace(settings.train, epochs=epochs, seed=seed))


@dataclass(frozen=True)
class Strategy:
    scores_subset: bool  # scores a random candidate subset, not the whole unlabeled pool
    # (settings, net, pool, n_query, seed, pool state, dataset) -> QueryBatch
    select: Callable[..., QueryBatch]


# The adapters look the select functions up in this module when they run, so
# a wrapper installed on ``adval.loop.select_*`` sees every dispatch.
STRATEGIES = {
    "dfal": Strategy(
        True,
        lambda s, net, pool, n, seed, pools, ds: select_dfal(
            net, pool, n, s.attack, fallback_seed=seed
        ),
    ),
    "uncertainty": Strategy(
        False, lambda s, net, pool, n, seed, pools, ds: select_uncertainty(net, pool, n)
    ),
    "ceal": Strategy(
        False, lambda s, net, pool, n, seed, pools, ds: select_ceal(net, pool, n, s.ceal_delta)
    ),
    "egl": Strategy(True, lambda s, net, pool, n, seed, pools, ds: select_egl(net, pool, n)),
    "bald": Strategy(
        True,
        lambda s, net, pool, n, seed, pools, ds: select_bald(
            net, pool, n, samples=s.bald_samples, seed=seed
        ),
    ),
    "coreset": Strategy(
        True,
        lambda s, net, pool, n, seed, pools, ds: select_coreset_greedy(
            net, ds.inputs[list(pools.labeled_indices())], pool, n
        ),
    ),
    "random": Strategy(
        False, lambda s, net, pool, n, seed, pools, ds: select_random(pool, n, seed=seed)
    ),
}


def candidate_pool(
    strategy: str, pool_state: PoolState, dataset: Dataset, k: int, round_seed: int
) -> CandidateSet:
    """The pool ``strategy`` scores: ``k`` random unlabeled samples, or all of them.

    A subset is gathered; the whole pool is a view of the dataset's inputs,
    which the scorer gathers a chunk at a time.
    """
    if STRATEGIES[strategy].scores_subset:
        indices = sample_candidates(pool_state, k, round_seed)
        return CandidateSet(indices, dataset.inputs[indices])
    indices = np.asarray(pool_state.unlabeled)
    return CandidateSet(indices, IndexedRows(dataset.inputs, indices))


def _select(cfg: ActiveConfig, net, pool_state: PoolState, dataset: Dataset, round_index: int) -> QueryBatch:
    candidate_seed = derive_seed(cfg.seed, round_index, _STREAM_CANDIDATES)
    pool = candidate_pool(cfg.strategy, pool_state, dataset, cfg.candidates, candidate_seed)
    n_query = min(cfg.n_query, cfg.budget - len(pool_state.labeled), len(pool))
    strategy_seed = derive_seed(cfg.seed, round_index, _STREAM_STRATEGY)
    return STRATEGIES[cfg.strategy].select(cfg, net, pool, n_query, strategy_seed, pool_state, dataset)


def run_active_learning(
    cfg: ActiveConfig,
    dataset: Dataset,
    test_set: Dataset,
    round_hook=None,
) -> list[RoundRecord]:
    """Run the full loop; one RoundRecord per trained round, in order.

    ``round_hook(round_index, net, pool_state, record)`` runs after each
    round's evaluation, before the pool update; transfer experiments use it to
    retrain a consumer network on the same labeled set.
    """
    if dataset.input_shape != cfg.network.input_shape:
        raise ConfigError(
            f"dataset shape {dataset.input_shape} does not match network "
            f"input {cfg.network.input_shape}"
        )
    if dataset.class_count != cfg.network.class_count:
        raise ConfigError("dataset and network disagree on class count")
    if len(test_set) and int(test_set.labels.max()) >= cfg.network.class_count:
        raise ConfigError(
            f"test set has label {int(test_set.labels.max())}, but the network "
            f"outputs {cfg.network.class_count} classes"
        )
    if not dataset.classes_present():
        raise ConfigError("dataset is missing at least one class")

    try:
        pools = init_pools(
            dataset, cfg.initial_labeled, derive_seed(cfg.seed, 0, _STREAM_POOL_INIT)
        )
    except ConfigError as exc:
        raise ConfigError(f"initial_labeled: {exc}") from exc
    oracle = lambda i: int(dataset.labels[i])  # noqa: E731 - simulated annotator
    records: list[RoundRecord] = []
    round_index = 0
    while True:
        pools.check_conservation(len(dataset))
        examples = training_examples(pools, dataset)
        t0 = time.monotonic()
        net = train_fresh(
            cfg.network, examples, cfg, derive_seed(cfg.seed, round_index, _STREAM_TRAIN)
        )
        train_seconds = time.monotonic() - t0

        test_accuracy = accuracy(net, test_set.inputs, test_set.labels)
        annotations = len(pools.labeled)
        done = annotations >= cfg.budget or not pools.unlabeled

        batch = None
        selection_seconds = 0.0
        if not done:
            t0 = time.monotonic()
            batch = _select(cfg, net, pools, dataset, round_index)
            selection_seconds = time.monotonic() - t0

        pseudo_additions, pseudo_corruptions = pseudo_label_counts(pools, dataset)
        record = RoundRecord(
            round_index=round_index,
            annotations_used=annotations,
            training_set_size=len(examples),
            test_accuracy=test_accuracy,
            selection_seconds=selection_seconds,
            train_seconds=train_seconds,
            pseudo_additions=pseudo_additions,
            pseudo_corruptions=pseudo_corruptions,
        )
        records.append(record)
        if round_hook is not None:
            round_hook(round_index, net, pools, record)
        if done:
            break
        pools = apply_query(pools, batch, oracle)
        round_index += 1
    return records
