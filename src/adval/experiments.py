"""Experiment execution and metrics tables behind the CLI.

``run_grid`` and ``run_transfer`` share one driver, ``_runs``. It runs every
(strategy, seed) pair of its config in order, builds each run's
``ActiveConfig``, turns each round into a table row through the loop's
``round_hook``, and yields each run whole, as the list of its rows, as soon as
it finishes, so a failing run leaves the rows of every run before it in the
table. The CLI prints the per-run line from those rows. The two commands
differ only in how a round becomes a row. Rows come in deterministic
(strategy, seed, round) order. All result columns are reproducible
bit-for-bit under identical configs; the two wall-time columns are
environmental measurements and vary between runs. Every strategy of a seed
shares one round-0 network, and so does ``run_timing``: both start a run
through ``adval.loop``'s ``round0_pools`` and ``train_round``.
"""

from __future__ import annotations

import csv
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from adval.config import ExperimentConfig
from adval.data import Dataset, indexable, read_lines
from adval.errors import ConfigError, FormatError, prefixed
from adval.loop import (
    _STREAM_CONSUMER_INIT,
    _STREAM_CONSUMER_TRAIN,
    derive_seed,
    round0_pools,
    run_active_learning,
    select_round,
    train_fresh,
    train_round,
    training_examples,
)
from adval.nn.architectures import build_network
from adval.nn.network import accuracy

_COUNT = (int, lambda v: v >= 0, "a non-negative integer")
_SECONDS = (float, lambda v: 0.0 <= v < math.inf, "finite and non-negative")
# metrics.csv's columns in order, each with the type ``read_metrics`` parses it
# as, the test of its domain, and that domain in words.
_METRICS_COLUMNS = {
    "strategy": (str, lambda v: True, "text"),
    "seed": _COUNT,
    "round": _COUNT,
    "annotations": _COUNT,
    "labeled_data": _COUNT,
    "test_accuracy": (float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "selection_seconds": _SECONDS,
    "train_seconds": _SECONDS,
    "pseudo_corruptions": _COUNT,
}
METRICS_HEADER = tuple(_METRICS_COLUMNS)

TRANSFER_HEADER = (
    "strategy",
    "seed",
    "round",
    "annotations",
    "labeled_data",
    "selector_accuracy",
    "consumer_accuracy",
    "selection_seconds",
    "train_seconds",
)

TIMING_HEADER = (
    "strategy",
    "labeled_size",
    "repetitions",
    "mean_selection_seconds",
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_table(path, header, rows) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
            f.flush()  # a later row's failure leaves every earlier row on disk
    return path


def read_metrics(path) -> list[dict]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"metrics file does not exist: {path}")
    reader = csv.DictReader(read_lines(path, newline=""))
    if reader.fieldnames is None or tuple(reader.fieldnames) != METRICS_HEADER:
        raise FormatError(
            f"{path}: unexpected header {reader.fieldnames}; expected {list(METRICS_HEADER)}"
        )
    rows = []
    for i, row in enumerate(reader, start=2):
        try:
            values = {name: parse(row[name]) for name, (parse, _, _) in _METRICS_COLUMNS.items()}
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad value in row {i}") from exc
        for name, (_, inside, domain) in _METRICS_COLUMNS.items():
            if not inside(values[name]):
                raise FormatError(
                    f"{path}: bad value in row {i}, column {name}: must be {domain}, got {row[name]}"
                )
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no rows below the header")
    return rows


def _load(
    cfg: ExperimentConfig, sources: dict[str, str], test_set: bool = True
) -> tuple[Dataset, Dataset | None]:
    """``cfg``'s pool and test set, viewed as the input of every arch in ``sources``.

    Each arch's ``build_network`` spec for the samples' shape says the view
    it reads, and the samples take the view with the most axes: arch-B
    flattens whatever it reads, so arch-A's (channels, h, w) serves both.
    ``sources`` maps each arch to the config key or option it came from,
    which prefixes the error of an arch the samples do not fit. Without
    ``test_set`` the test set is neither loaded nor checked, and comes back None.
    When ``cfg`` runs BALD, numpy must be able to index the (samples, rows,
    classes) array that ``bald_probability_samples`` fills for the most
    candidates a round can draw.
    """
    train_ds, test_ds = cfg.data.load(test_set)
    samples, rows = cfg.active.bald_samples, min(cfg.active.candidates, len(train_ds))
    if "bald" in cfg.strategies and not indexable(samples, rows, train_ds.class_count):
        raise ConfigError(
            f"experiment.bald_samples = {samples} is too large: {samples} dropout passes over "
            f"{rows} candidates of {train_ds.class_count} classes make an array numpy cannot index"
        )
    views = []
    for arch, source in sources.items():
        with prefixed(ConfigError, f"{source}: "):
            views.append(build_network(arch, train_ds.input_shape, train_ds.class_count).input_shape)
    shape = max(views, key=len)
    return tuple(
        None if ds is None else replace(ds, inputs=ds.inputs.reshape(len(ds), *shape))
        for ds in (train_ds, test_ds)
    )


def _runs(cfg: ExperimentConfig, train_ds, test_ds, tail) -> Iterator[list]:
    """Every (strategy, seed) run of ``cfg``, in order; yields each run's rows as it finishes.

    A round's row is (strategy, seed, round, annotations, labeled data)
    followed by ``tail(seed, pool_state, record)``. A run comes whole, as the
    list of its rows, so that the CLI can print a line about it.
    """
    for strategy in cfg.strategies:
        for seed in cfg.seeds:
            rows = []

            def hook(round_index, net, pools, r):
                head = (strategy, seed, round_index, r.annotations_used, r.training_set_size)
                rows.append((*head, *tail(seed, pools, r)))

            active = cfg.active_config(strategy, seed, train_ds)
            run_active_learning(active, train_ds, test_ds, round_hook=hook)
            yield rows


def run_grid(cfg: ExperimentConfig) -> Iterator[list]:
    """Execute every (strategy, seed) pair; yields each run's metrics rows, in order.

    The data loads before this returns. Each run's rows are yielded together as
    soon as the run finishes, so a writer keeps every finished run when a later
    one fails; the CLI prints the per-run line.
    """
    train_ds, test_ds = _load(cfg, {cfg.arch: "network.arch"})

    def tail(seed, pools, r):
        return r.test_accuracy, r.selection_seconds, r.train_seconds, r.pseudo_corruptions

    return _runs(cfg, train_ds, test_ds, tail)


@dataclass(frozen=True)
class CheckpointSummary:
    strategy: str
    checkpoint_accuracy: dict  # checkpoint -> mean accuracy over seeds, or None
    checkpoint_sd: dict  # checkpoint -> sample sd (ddof=1) over seeds, or None: absent or one seed
    target_annotations: int | None = None
    target_labeled_data: float | None = None
    target_reached: bool = True


def _mean(group: list[dict], column: str) -> float:
    return float(np.mean([g[column] for g in group]))


def _sd(group: list[dict], column: str) -> float | None:
    return float(np.std([g[column] for g in group], ddof=1)) if len(group) > 1 else None


def compare_metrics(
    rows: list[dict], checkpoints, target_accuracy: float | None = None
) -> list[CheckpointSummary]:
    """Per strategy: mean and sample sd of accuracy over seeds at each annotation checkpoint.

    Each strategy's rows are grouped by round once, each group in ascending
    seed order, and every figure is a mean over one group, or at a
    checkpoint also its sample standard deviation (ddof=1; None for one
    seed). Rounds line up across seeds: a group that repeats a seed, lacks a
    seed some other round of the strategy has, or whose seeds disagree on
    the annotations, is a ``FormatError`` naming the strategy and the round.
    A checkpoint reads the last round whose annotations are at most the
    checkpoint; a checkpoint below the first round is reported as absent
    (None). With a target accuracy, also reports the annotations and
    labeled-data counts of the first round whose seed-mean accuracy reaches
    the target, or of the last round if none does.
    """
    summaries = []
    for strategy in sorted({r["strategy"] for r in rows}):
        by_round: dict[int, list[dict]] = {}
        for r in sorted((r for r in rows if r["strategy"] == strategy), key=lambda r: r["seed"]):
            by_round.setdefault(r["round"], []).append(r)
        groups = [by_round[rnd] for rnd in sorted(by_round)]
        seeds = {g["seed"] for group in groups for g in group}
        for group in groups:
            if len({g["seed"] for g in group}) < len(group) or len({g["annotations"] for g in group}) > 1:
                pairs = [(g["seed"], g["annotations"]) for g in group]
                raise FormatError(
                    f"strategy {strategy!r}, round {group[0]['round']}: each seed must appear once and "
                    f"all seeds must agree on the annotations, got (seed, annotations) {pairs}"
                )
            missing = sorted(seeds - {g["seed"] for g in group})
            if missing:
                raise FormatError(
                    f"strategy {strategy!r}, round {group[0]['round']}: no row for seeds {missing}, "
                    f"which other rounds of the strategy have"
                )

        means, sds = {}, {}
        for cp in checkpoints:
            below = [g for g in groups if g[0]["annotations"] <= cp]
            means[cp] = _mean(below[-1], "test_accuracy") if below else None
            sds[cp] = _sd(below[-1], "test_accuracy") if below else None
        target = ()
        if target_accuracy is not None:
            reached = next((g for g in groups if _mean(g, "test_accuracy") >= target_accuracy), None)
            group = reached or groups[-1]
            target = group[0]["annotations"], _mean(group, "labeled_data"), reached is not None
        summaries.append(CheckpointSummary(strategy, means, sds, *target))
    return summaries


def run_transfer(cfg: ExperimentConfig, selector_arch: str, consumer_arch: str) -> Iterator[list]:
    """Select with one architecture, retrain the other on the same labeled set.

    The random baseline is always included for reference. Each round's
    consumer network trains from scratch on exactly the selector's accumulated
    training set (twins included). As in ``run_grid``, the data loads before
    this returns and each run's rows are yielded together as soon as the run
    finishes; the CLI prints the per-run line.
    """
    if selector_arch == consumer_arch:
        raise ConfigError(
            f"--consumer must differ from --selector: transfer needs two distinct "
            f"architectures, got {consumer_arch!r} for both"
        )
    train_ds, test_ds = _load(cfg, {selector_arch: "--selector", consumer_arch: "--consumer"})
    consumer_specs = {
        seed: build_network(
            consumer_arch,
            train_ds.input_shape,
            train_ds.class_count,
            seed=derive_seed(seed, 1, _STREAM_CONSUMER_INIT),
        )
        for seed in cfg.seeds
    }

    def tail(seed, pools, r):
        examples = training_examples(pools, train_ds)
        train_seed = derive_seed(seed, r.round_index, _STREAM_CONSUMER_TRAIN)
        consumer = train_fresh(consumer_specs[seed], examples, cfg.active, train_seed, r.round_index)
        consumer_accuracy = accuracy(consumer, test_ds.inputs, test_ds.labels)
        return r.test_accuracy, consumer_accuracy, r.selection_seconds, r.train_seconds

    strategies = tuple(dict.fromkeys([*cfg.strategies, "random"]))
    return _runs(replace(cfg, arch=selector_arch, strategies=strategies), train_ds, test_ds, tail)


def run_timing(cfg: ExperimentConfig, labeled_sizes, repetitions: int) -> list[tuple]:
    """Mean selection wall time of each of ``cfg.strategies``, in order, at each size.

    ``cfg.strategies`` is ``experiment.strategies``. At size N it times the
    network that a run of the first experiment seed starting from N labels
    trains at round 0: the same labeled set, the same initialization and the
    same training, drawn and trained through the loop's own ``round0_pools``
    and ``train_round`` and shared through the round-0 memo. Training happens once per
    size and is excluded from the timed region. A repetition times what the
    loop's ``selection_seconds`` times: a fresh candidate draw and the
    selection, through ``select_round``. Repetition ``r`` takes the seeds of
    round ``r`` under the first experiment seed. Timing reads only the pool,
    so the test set is neither loaded nor checked.
    """
    if any(a >= b for a, b in zip(labeled_sizes, labeled_sizes[1:])):
        raise ConfigError(f"--sizes must be strictly ascending, got {list(labeled_sizes)}")
    if repetitions < 1:
        raise ConfigError(f"--reps must be positive, got {repetitions}")
    train_ds, _ = _load(cfg, {cfg.arch: "network.arch"}, test_set=False)

    settings, seed = cfg.active, cfg.seeds[0]
    network = cfg.network(train_ds, seed)
    pools = {}  # every size is drawn, and so checked, before any network trains
    for size in labeled_sizes:
        if size >= len(train_ds):
            raise ConfigError(f"--sizes {size}: must be below the pool's {len(train_ds)} samples")
        with prefixed(ConfigError, f"--sizes {size}: "):
            pools[size] = round0_pools(train_ds, size, seed)
    nets = {size: train_round(network, training_examples(p, train_ds), settings, seed, 0)
            for size, p in pools.items()}

    rows = []
    for strategy in cfg.strategies:
        for size in labeled_sizes:
            elapsed = []
            for rep in range(repetitions):
                t0 = time.monotonic()
                select_round(strategy, settings, nets[size], pools[size], train_ds, settings.n_query, seed, rep)
                elapsed.append(time.monotonic() - t0)
            rows.append((strategy, size, repetitions, float(np.mean(elapsed))))
    return rows
