"""Experiment execution and metrics tables behind the CLI.

Metrics files are CSV with a fixed header; rows are emitted in deterministic
(strategy, seed, round) order. All result columns are reproducible bit-for-bit
under identical configs; the two wall-time columns are environmental
measurements and vary between runs.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from adval.config import ExperimentConfig, prepare_for_archs
from adval.errors import ConfigError, FormatError
from adval.loop import (
    STRATEGIES,
    candidate_pool,
    derive_seed,
    init_pools,
    run_active_learning,
    train_fresh,
    training_examples,
)
from adval.nn.architectures import build_network
from adval.nn.network import accuracy

METRICS_HEADER = (
    "strategy",
    "seed",
    "round",
    "annotations",
    "labeled_data",
    "test_accuracy",
    "selection_seconds",
    "train_seconds",
    "pseudo_corruptions",
)

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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def read_metrics(path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"metrics file does not exist: {path}")
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or tuple(reader.fieldnames) != METRICS_HEADER:
            raise FormatError(
                f"{path}: unexpected header {reader.fieldnames}; expected {list(METRICS_HEADER)}"
            )
        rows = []
        for i, row in enumerate(reader, start=2):
            try:
                rows.append(
                    {
                        "strategy": row["strategy"],
                        "seed": int(row["seed"]),
                        "round": int(row["round"]),
                        "annotations": int(row["annotations"]),
                        "labeled_data": int(row["labeled_data"]),
                        "test_accuracy": float(row["test_accuracy"]),
                        "pseudo_corruptions": int(row["pseudo_corruptions"]),
                    }
                )
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path}: bad value in row {i}") from exc
    return rows


def run_grid(cfg: ExperimentConfig, progress=None) -> list[tuple]:
    """Execute every (strategy, seed) pair; returns metrics rows in order."""
    train_ds, test_ds = cfg.data.load()
    train_ds, test_ds = prepare_for_archs(train_ds, test_ds, (cfg.arch,))
    rows = []
    for strategy in cfg.strategies:
        for seed in cfg.seeds:
            active = cfg.active_config(strategy, seed, train_ds)
            records = run_active_learning(active, train_ds, test_ds)
            for r in records:
                rows.append(
                    (
                        strategy,
                        seed,
                        r.round_index,
                        r.annotations_used,
                        r.training_set_size,
                        r.test_accuracy,
                        r.selection_seconds,
                        r.train_seconds,
                        r.pseudo_corruptions,
                    )
                )
            if progress is not None:
                progress(strategy, seed, records[-1].test_accuracy)
    return rows


@dataclass(frozen=True)
class CheckpointSummary:
    strategy: str
    checkpoint_accuracy: dict  # checkpoint -> mean accuracy over seeds, or None
    target_annotations: int | None = None
    target_labeled_data: float | None = None
    target_reached: bool = True


def _round_at_or_below(rows, checkpoint):
    eligible = (r for r in rows if r["annotations"] <= checkpoint)
    return max(eligible, key=lambda r: r["annotations"], default=None)


def compare_metrics(
    rows: list[dict], checkpoints, target_accuracy: float | None = None
) -> list[CheckpointSummary]:
    """Per strategy: mean accuracy over seeds at each annotation checkpoint.

    The value at a checkpoint is the accuracy of the nearest round at or below
    it; a checkpoint below the first round is reported as absent (None). With a
    target accuracy, also reports the annotations and labeled-data counts of
    the first round whose seed-mean accuracy reaches the target.
    """
    strategies = sorted({r["strategy"] for r in rows})
    summaries = []
    for strategy in strategies:
        mine = [r for r in rows if r["strategy"] == strategy]
        seeds = sorted({r["seed"] for r in mine})
        per_checkpoint = {}
        for cp in checkpoints:
            values = []
            for seed in seeds:
                hit = _round_at_or_below([r for r in mine if r["seed"] == seed], cp)
                if hit is not None:
                    values.append(hit["test_accuracy"])
            per_checkpoint[cp] = float(np.mean(values)) if values else None
        summary = CheckpointSummary(strategy, per_checkpoint)
        if target_accuracy is not None:
            by_round: dict[int, list[dict]] = {}
            for r in mine:
                by_round.setdefault(r["round"], []).append(r)
            reached = None
            for rnd in sorted(by_round):
                group = by_round[rnd]
                if float(np.mean([g["test_accuracy"] for g in group])) >= target_accuracy:
                    reached = group
                    break
            group = reached or by_round[max(by_round)]
            summary = replace(
                summary,
                target_annotations=int(round(np.mean([g["annotations"] for g in group]))),
                target_labeled_data=float(np.mean([g["labeled_data"] for g in group])),
                target_reached=reached is not None,
            )
        summaries.append(summary)
    return summaries


def run_transfer(
    cfg: ExperimentConfig, selector_arch: str, consumer_arch: str, progress=None
) -> list[tuple]:
    """Select with one architecture, retrain the other on the same labeled set.

    The random baseline is always included for reference. Each round's
    consumer network trains from scratch on exactly the selector's accumulated
    training set (twins included).
    """
    if selector_arch == consumer_arch:
        raise ConfigError("transfer needs two distinct architectures")
    train_ds, test_ds = cfg.data.load()
    train_ds, test_ds = prepare_for_archs(train_ds, test_ds, (selector_arch, consumer_arch))
    strategies = tuple(dict.fromkeys([*cfg.strategies, "random"]))
    selector_cfg = replace(cfg, arch=selector_arch)

    rows = []
    for strategy in strategies:
        for seed in cfg.seeds:
            active = selector_cfg.active_config(strategy, seed, train_ds)
            consumer_spec = build_network(
                consumer_arch,
                train_ds.input_shape,
                train_ds.class_count,
                seed=derive_seed(seed, 1, 23),
            )
            run_rows = []

            def consumer_hook(round_index, net, pools, record):
                examples = training_examples(pools, train_ds)
                consumer = train_fresh(
                    consumer_spec, examples, cfg.active, derive_seed(seed, round_index, 29)
                )
                run_rows.append(
                    (
                        strategy,
                        seed,
                        round_index,
                        record.annotations_used,
                        record.training_set_size,
                        record.test_accuracy,
                        accuracy(consumer, test_ds.inputs, test_ds.labels),
                        record.selection_seconds,
                        record.train_seconds,
                    )
                )

            run_active_learning(active, train_ds, test_ds, round_hook=consumer_hook)
            rows.extend(run_rows)
            if progress is not None:
                progress(strategy, seed, run_rows[-1][6])
    return rows


def run_timing(
    cfg: ExperimentConfig,
    labeled_sizes,
    repetitions: int,
    strategies=("dfal", "coreset"),
) -> list[tuple]:
    """Mean per-round selection wall time at each labeled-set size.

    Training happens once per size and is excluded from the timed region; a
    repetition draws a fresh candidate pool and runs only the selection.
    """
    if list(labeled_sizes) != sorted(labeled_sizes):
        raise ConfigError("labeled sizes must be ascending")
    if repetitions < 1:
        raise ConfigError("repetitions must be positive")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ConfigError(f"unknown strategies {unknown}; expected {tuple(STRATEGIES)}")
    train_ds, test_ds = cfg.data.load()
    train_ds, test_ds = prepare_for_archs(train_ds, test_ds, (cfg.arch,))

    settings = cfg.active
    trained = {}
    for size in labeled_sizes:
        if size >= len(train_ds):
            raise ConfigError(f"labeled size {size} must be below pool size {len(train_ds)}")
        pools = init_pools(train_ds, size, seed=derive_seed(cfg.seeds[0], size, 31))
        network = build_network(
            cfg.arch,
            train_ds.input_shape,
            train_ds.class_count,
            seed=derive_seed(cfg.seeds[0], size, 37),
        )
        examples = training_examples(pools, train_ds)
        net = train_fresh(network, examples, settings, derive_seed(cfg.seeds[0], size, 41))
        trained[size] = pools, net

    rows = []
    for strategy in strategies:
        for size in labeled_sizes:
            pools, net = trained[size]
            elapsed = []
            for rep in range(repetitions):
                pool = candidate_pool(strategy, pools, train_ds, settings.candidates, rep)
                t0 = time.monotonic()
                STRATEGIES[strategy].select(
                    settings, net, pool, settings.n_query, rep, pools, train_ds
                )
                elapsed.append(time.monotonic() - t0)
            rows.append((strategy, size, repetitions, float(np.mean(elapsed))))
    return rows
