"""The benchmark's workloads: seeded inputs, the fixed run, and its checks.

Each workload is a fixed active-learning experiment driven only through the
public API (``ActiveConfig``, ``build_network``, ``run_active_learning``).
Inputs are generated here from the workload seed; the program under test only
receives the arrays. Every round is checked as it happens (pool conservation,
budget accounting, synthetic-item provenance), and on the reference seed a
digest of each round's query state and test accuracy must equal the one
committed in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from adval import ActiveConfig, Dataset, SyntheticSpec, build_network, gen_blobs, run_active_learning
from adval.attacks import AttackConfig
from adval.errors import PoolInvariantError
from adval.strategies import ADVERSARIAL_TWIN, CEAL_PSEUDO, STRATEGY_IDS

REFERENCE_SEED = 0
TEMPLATE_SEED = 1802
REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "blobs" or "images"
    arch: str
    strategies: tuple[str, ...]
    pool_size: int
    test_size: int
    base_steps: int
    budget: int
    accuracy_floor: float  # lowest acceptable final_accuracy
    initial_labeled: int = 20
    n_query: int = 10
    candidates: int = 200
    attack_max_iter: int = AttackConfig.max_iter

    def rounds_per_strategy(self) -> int:
        return -(-(self.budget - self.initial_labeled) // self.n_query) + 1

    def planned_rounds(self) -> int:
        return self.rounds_per_strategy() * len(self.strategies)


# Floors sit well below the lowest final_accuracy seen over seeds 0-9, and
# well above chance (1/4 for blobs, 1/10 for images): a broken trainer or
# evaluator falls through them, a different but sane query order does not.
WORKLOADS = {
    w.name: w
    for w in (
        # Training-bound: 2-d inputs make every layer call tiny, so per-layer
        # Python overhead and Adam dominate; no conv layer, negligible attack.
        # Four selections per strategy average DeepFool's iteration count,
        # which depends on the trained model, over four models. On these
        # overlapping blobs a few candidates of some seeds zigzag between two
        # linear regions until max_iter, and at the default 50 whether a seed
        # has any doubled DFAL's selection time; capping it at 10 keeps the
        # attack the small part of this run that it is meant to be. 150 base
        # steps keep one repetition near 5 s, so a timed run holds several.
        Workload(
            name="blobs-dense",
            data="blobs",
            arch="arch-B",
            strategies=STRATEGY_IDS,
            pool_size=2000,
            test_size=1000,
            base_steps=150,
            budget=60,
            accuracy_floor=0.55,
            attack_max_iter=10,
        ),
        # Attack-bound: 200 DeepFool attacks per selection, each iteration one
        # logits_and_input_jacobian (C replicas forward plus conv backward).
        Workload(
            name="images-dfal",
            data="images",
            arch="arch-A",
            strategies=("dfal",),
            pool_size=2000,
            test_size=500,
            base_steps=50,
            budget=110,
            accuracy_floor=0.7,
            initial_labeled=100,
        ),
        # Pool scoring: forward-only over the whole 10k unlabeled pool
        # (uncertainty, CEAL), a backward pass per candidate (EGL), dropout
        # sampling (BALD) and embeddings (core-set). Peak memory grows with
        # the pool here. EGL on 50 candidates keeps one repetition near 15 s.
        Workload(
            name="images-poolscan",
            data="images",
            arch="arch-A",
            strategies=("uncertainty", "ceal", "egl", "bald", "coreset"),
            pool_size=10000,
            test_size=500,
            base_steps=40,
            budget=110,
            accuracy_floor=0.7,
            initial_labeled=100,
            candidates=50,
        ),
    )
}


def _stream_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


def gen_images(
    seed: int,
    n_train: int,
    n_test: int,
    *,
    class_count: int = 10,
    side: int = 28,
    noise: float = 0.4,
    bumps: int = 3,
) -> tuple[Dataset, Dataset]:
    """Synthetic 1×side×side images: a fixed template per class plus pixel noise.

    Each class template is the sum of ``bumps`` Gaussian blobs at positions
    and widths drawn from ``TEMPLATE_SEED``, scaled to peak 1; the templates
    are part of the workload, so every seed poses the same task. A sample is
    its class template at a contrast drawn from [0.5, 1], plus Gaussian noise
    of std ``noise``, clipped to [0, 1]. Train and test sets come from two
    independent streams of ``seed``, so the same seed gives the same arrays.
    Labels are balanced and shuffled.
    """
    rng = np.random.default_rng(TEMPLATE_SEED)
    yy, xx = np.mgrid[0:side, 0:side]
    templates = np.zeros((class_count, side, side))
    for c in range(class_count):
        for _ in range(bumps):
            cy, cx = rng.uniform(5, side - 5, size=2)
            width = rng.uniform(2.0, 4.0)
            templates[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width * width))
        templates[c] /= templates[c].max()

    def draw(stream: int, n: int) -> Dataset:
        r = np.random.default_rng(_stream_seed(seed, stream))
        labels = r.permutation(np.arange(n) % class_count).astype(np.int64)
        x = templates[labels] * r.uniform(0.5, 1.0, (n, 1, 1))
        x += noise * r.standard_normal((n, side, side))
        return Dataset(np.clip(x, 0.0, 1.0)[:, None], labels, class_count, name="images")

    return draw(1, n_train), draw(2, n_test)


def make_datasets(w: Workload, seed: int) -> tuple[Dataset, Dataset]:
    if w.data == "images":
        return gen_images(seed, w.pool_size, w.test_size)
    classes = 4

    def blobs(stream: int, n: int) -> Dataset:
        # cov_scale 1.2 at radius 2 overlaps neighbouring blobs, so test
        # accuracy stays well below 1.0 and final_accuracy can move.
        spec = SyntheticSpec(classes, n // classes, cov_scale=1.2, seed=_stream_seed(seed, stream))
        return gen_blobs(spec)

    return blobs(1, w.pool_size), blobs(2, w.test_size)


def build_configs(w: Workload, seed: int, train: Dataset) -> dict[str, ActiveConfig]:
    network = build_network(w.arch, train.input_shape, train.class_count, seed=seed)
    return {
        s: ActiveConfig(
            network=network,
            strategy=s,
            candidates=w.candidates,
            n_query=w.n_query,
            budget=w.budget,
            initial_labeled=w.initial_labeled,
            base_steps=w.base_steps,
            seed=seed,
            attack=AttackConfig(max_iter=w.attack_max_iter),
        )
        for s in w.strategies
    }


def round_digest(pools, record) -> str:
    """Digest of the labeled set (so every query so far) and the round's accuracy."""
    key = (record.round_index, pools.labeled, record.training_set_size, record.test_accuracy)
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def check_round(w: Workload, strategy: str, dataset: Dataset, pools, record) -> list[str]:
    """Pool-conservation and budget-accounting problems of one round; empty if none."""
    problems = []
    try:
        pools.check_conservation(len(dataset))
    except PoolInvariantError as exc:
        problems.append(f"conservation: {exc}")
    expected = min(w.budget, w.initial_labeled + record.round_index * w.n_query)
    if not record.annotations_used == len(pools.labeled) == expected:
        problems.append(
            f"annotations {record.annotations_used}, labeled {len(pools.labeled)}, expected {expected}"
        )
    if any(label != dataset.labels[i] for i, label in pools.labeled):
        problems.append("a labeled item disagrees with the oracle")
    if record.training_set_size != len(pools.labeled) + len(pools.synthetic):
        problems.append("training_set_size is not labeled + synthetic")
    twins = [s for s in pools.synthetic if s.provenance == ADVERSARIAL_TWIN]
    pseudo = [s for s in pools.synthetic if s.provenance == CEAL_PSEUDO]
    want_twins = record.annotations_used - w.initial_labeled if strategy == "dfal" else 0
    if len(twins) != want_twins:
        problems.append(f"{len(twins)} adversarial twins, expected {want_twins}")
    paid = dict(pools.labeled)
    if any(t.label != paid.get(t.source_index) for t in twins):
        problems.append("a twin's label differs from its source's oracle label")
    if pseudo and strategy != "ceal":
        problems.append(f"{strategy} produced pseudo-labels")
    if record.pseudo_additions != len(pseudo):
        problems.append("pseudo_additions disagrees with the pool")
    wrong = sum(p.label != dataset.labels[p.source_index] for p in pseudo)
    if record.pseudo_corruptions != wrong:
        problems.append("pseudo_corruptions disagrees with the oracle")
    return problems


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


@dataclass
class StrategyOutcome:
    records: list
    digests: list[str]
    failed_rounds: int
    problems: list[str]


def run_strategy(
    w: Workload, cfg: ActiveConfig, train: Dataset, test: Dataset, reference: list[str] | None
) -> StrategyOutcome:
    """One strategy's fixed run; a round fails if it raises or fails a check.

    When the run raises, every round it did not finish counts as failed.
    ``reference`` holds the expected per-round digests, or None to skip that check.
    """
    digests: list[str] = []
    problems: list[str] = []
    failed = 0

    def hook(round_index, net, pools, record):
        nonlocal failed
        found = check_round(w, cfg.strategy, train, pools, record)
        digests.append(round_digest(pools, record))
        if reference is not None and (
            round_index >= len(reference) or reference[round_index] != digests[-1]
        ):
            found.append("digest differs from reference")
        if found:
            failed += 1
            problems.extend(f"{cfg.strategy} round {round_index}: {p}" for p in found)

    records: list = []
    try:
        records = run_active_learning(cfg, train, test, round_hook=hook)
    except Exception as exc:  # noqa: BLE001 - a raising round is a counted failure
        problems.append(f"{cfg.strategy} raised {exc!r}")
    missing = w.rounds_per_strategy() - len(digests)
    if missing > 0:
        failed += missing
        if not problems:
            problems.append(f"{cfg.strategy}: {missing} planned rounds did not run")
    elif missing < 0:
        failed += -missing
        problems.append(f"{cfg.strategy}: {-missing} rounds beyond the plan")
    return StrategyOutcome(records, digests, failed, problems)


def final_accuracy(outcomes: dict[str, StrategyOutcome]) -> float:
    """Mean test accuracy over the last round of each strategy (0 for a strategy with no rounds)."""
    last = [o.records[-1].test_accuracy if o.records else 0.0 for o in outcomes.values()]
    return float(np.mean(last))
