"""Experiment configuration: INI-style files mapped onto run objects.

A config file has one section per concern::

    [data]        kind = blobs | csv | idx, plus the keys of that kind
    [network]     arch = arch-A | arch-B
    [active]      candidates, n_query, initial_labeled, budget, base_steps
    [train]       learning_rate, batch_size, beta1, beta2, epsilon
    [attack]      p, overshoot, max_iter
    [experiment]  strategies, seeds, ceal_delta, bald_samples

Each key is a field of the dataclass that declares its default: [data] of
``BlobsData``, ``CsvData`` or ``IdxData``; arch, strategies and seeds of
``ExperimentConfig``; [active], ceal_delta and bald_samples of
``ActiveSettings``; [train] of ``TrainConfig``; [attack] of ``AttackConfig``.
Required are data.kind and the fields with no default: csv's path and
class_count, and idx's four files. A relative csv path or idx file path is
relative to the directory of the config file, not to the working directory.

Loading checks value syntax, unknown sections and keys, and the rules of those
dataclasses that need no data, such as existing files, n_query <= candidates,
classes >= 2 or a csv test_fraction in (0, 1). A breach names its config key,
such as ``active.n_query``. What depends on the data is checked when a run
starts: input shape and class count against the network, initial_labeled
against the class count and the pool size, csv and idx caps against the rows
each class holds, and test labels against the network's classes.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

from adval.attacks import AttackConfig
from adval.data import (
    Dataset,
    SyntheticSpec,
    gen_blobs,
    load_csv,
    load_idx,
    read_lines,
    stratified_split,
    stratified_subsample,
)
from adval.errors import ConfigError
from adval.loop import ActiveConfig, ActiveSettings, derive_seed
from adval.nn.architectures import ARCHITECTURES, build_network, conv_input_shape
from adval.nn.training import TrainConfig
from adval.strategies import STRATEGY_IDS

_NETWORK_SEED_STREAM = 17


def _build(cls, section: str, /, **values):
    """``cls(**values)``; a rule it breaks is named by its ``section.field`` key.

    ``cls`` may also build a dataclass, as ``partial(replace, settings)`` does.
    Relies on each of the class's error messages starting with its field.
    """
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _capped(dataset: Dataset, key: str, cap: int | None, seed: int) -> Dataset:
    """``dataset`` cut to a class-balanced ``cap`` rows; a cap it cannot fill names its key."""
    if cap is None or cap >= len(dataset):
        return dataset
    try:
        return stratified_subsample(dataset, cap, seed=seed)
    except ConfigError as exc:
        raise ConfigError(f"data.{key}: {exc}") from exc


@dataclass(frozen=True)
class BlobsData:
    """``kind = blobs``: Gaussian blobs, for the test set with their own count and seed.

    ``SyntheticSpec`` declares the shape fields' defaults and checks them.
    """

    classes: int = 4
    points_per_class: int = 1000
    test_points_per_class: int = 250
    dimension: int = SyntheticSpec.dimension
    center_radius: float = SyntheticSpec.center_radius
    cov_scale: float = SyntheticSpec.cov_scale
    seed: int = SyntheticSpec.seed

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.test_points_per_class < 1:
            raise ConfigError(
                f"test_points_per_class must be >= 1, got {self.test_points_per_class}"
            )
        self.specs()

    def specs(self) -> tuple[SyntheticSpec, SyntheticSpec]:
        """The pool's spec and the test set's."""
        shape = {k: getattr(self, k) for k in ("dimension", "center_radius", "cov_scale", "seed")}
        pool = SyntheticSpec(self.classes, self.points_per_class, **shape)
        test = replace(pool, points_per_class=self.test_points_per_class, seed=self.seed + 10_000)
        return pool, test

    def load(self) -> tuple[Dataset, Dataset]:
        pool, test = self.specs()
        return gen_blobs(pool), gen_blobs(test)


@dataclass(frozen=True)
class CsvData:
    """``kind = csv``: one csv file, split into a stratified test set and a pool."""

    path: Path
    class_count: int
    test_fraction: float = 0.2
    pool_cap: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.path.is_file():
            raise ConfigError(f"path: file does not exist: {self.path}")
        if self.class_count < 2:
            raise ConfigError(f"class_count must be >= 2, got {self.class_count}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.pool_cap is not None and self.pool_cap < self.class_count:
            raise ConfigError(
                f"pool_cap must be >= class_count={self.class_count}, got {self.pool_cap}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def load(self) -> tuple[Dataset, Dataset]:
        data = load_csv(self.path, self.class_count)
        train, test = stratified_split(data, self.test_fraction, self.seed)
        return _capped(train, "pool_cap", self.pool_cap, self.seed + 1), test


@dataclass(frozen=True)
class IdxData:
    """``kind = idx``: IDX image and label files for the pool and the test set.

    The class count is in the label files, so the caps meet it when the data loads.
    """

    train_images: Path
    train_labels: Path
    test_images: Path
    test_labels: Path
    pool_cap: int | None = None
    test_cap: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("train_images", "train_labels", "test_images", "test_labels"):
            if not getattr(self, name).is_file():
                raise ConfigError(f"{name}: file does not exist: {getattr(self, name)}")
        for name in ("pool_cap", "test_cap"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def load(self) -> tuple[Dataset, Dataset]:
        train = load_idx(self.train_images, self.train_labels, name="idx-train")
        test = load_idx(self.test_images, self.test_labels, name="idx-test")
        pool = _capped(train, "pool_cap", self.pool_cap, self.seed)
        return pool, _capped(test, "test_cap", self.test_cap, self.seed + 1)


# data.kind -> its dataclass, whose load() builds (train pool, test set)
_DATA_KINDS = {"blobs": BlobsData, "csv": CsvData, "idx": IdxData}


@dataclass(frozen=True)
class ExperimentConfig:
    data: BlobsData | CsvData | IdxData
    arch: str = "arch-B"
    strategies: tuple[str, ...] = ("dfal", "random")
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    active: ActiveSettings = field(default_factory=ActiveSettings)

    def __post_init__(self):
        for s in self.strategies:
            if s not in STRATEGY_IDS:
                raise ConfigError(
                    f"experiment.strategies: unknown strategy {s!r}; expected {STRATEGY_IDS}"
                )
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"network.arch must be one of {ARCHITECTURES}, got {self.arch!r}")

    def active_config(self, strategy: str, seed: int, dataset: Dataset) -> ActiveConfig:
        network = build_network(
            self.arch,
            dataset.input_shape,
            dataset.class_count,
            seed=derive_seed(seed, 0, _NETWORK_SEED_STREAM),
        )
        return ActiveConfig(network=network, strategy=strategy, seed=seed, **vars(self.active))


def prepare_for_archs(train: Dataset, test: Dataset, archs) -> tuple[Dataset, Dataset]:
    """Reshape samples so every architecture in ``archs`` composes.

    The conv architecture needs (channels, h, w) samples; the dense one
    flattens whatever it gets, so the conv view wins when both appear.
    """
    if "arch-A" in archs and len(train.input_shape) != 3:
        shape = conv_input_shape(train.input_shape)
        return train.reshape_inputs(shape), test.reshape_inputs(shape)
    return train, test


def parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        items = tuple(int(t) for t in text.replace(" ", "").split(",") if t)
    except ValueError as exc:
        raise ConfigError(f"{what} must be a comma-separated integer list: {text!r}") from exc
    if not items:
        raise ConfigError(f"{what} must not be empty")
    if min(items) < 0:
        raise ConfigError(f"{what} must not be negative: {text!r}")
    return items


def parse_strategy_list(text: str) -> tuple[str, ...]:
    items = tuple(t.strip() for t in text.split(",") if t.strip())
    if not items:
        raise ConfigError("strategy list must not be empty")
    return items


_SECTIONS = ("data", "network", "active", "train", "attack", "experiment")
_CASTS = {int: int, float: float, str: str, Path: Path, int | None: int}
_CASTS[tuple[str, ...]] = parse_strategy_list


def _read(raw: dict, section: str, cls, *names) -> dict:
    """Take from ``raw[section]`` the values of ``cls``'s fields ``names``, or of all.

    Each key is read by its field's type. An absent key is left out, so
    ``cls`` keeps the only copy of each default; a field with no default is a
    required key.
    """
    types = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if names and f.name not in names:
            continue
        key = f"{section}.{f.name}"
        if f.name not in raw[section]:
            if f.default is MISSING:
                raise ConfigError(f"missing required key {key}")
            continue
        text = raw[section].pop(f.name).strip()
        if types[f.name] == tuple[int, ...]:
            values[f.name] = parse_int_list(text, key)  # its errors name the key
            continue
        try:
            values[f.name] = _CASTS[types[f.name]](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r}") from exc
    return values


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file does not exist: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_file(read_lines(path, ConfigError), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    unknown = [s for s in parser.sections() if s not in _SECTIONS]
    if unknown:
        raise ConfigError(
            f"unknown section [{unknown[0]}]; expected {', '.join(f'[{s}]' for s in _SECTIONS)}"
        )
    if not parser.has_section("data"):
        raise ConfigError("missing required section [data]")
    # Each key is popped when read, so what is left at the end is unknown.
    raw = {s: dict(parser[s]) if parser.has_section(s) else {} for s in _SECTIONS}

    kind = raw["data"].pop("kind", None)
    if kind is None:
        raise ConfigError("missing required key data.kind")
    if kind not in _DATA_KINDS:
        raise ConfigError(f"data.kind must be blobs, csv, or idx, got {kind!r}")
    data = _read(raw, "data", _DATA_KINDS[kind])
    data = {k: path.parent / v if isinstance(v, Path) else v for k, v in data.items()}
    source = _build(_DATA_KINDS[kind], "data", **data)

    # The loop sets TrainConfig's epochs and seed each round.
    train_keys = ("learning_rate", "beta1", "beta2", "epsilon", "batch_size")
    active_keys = ("candidates", "n_query", "budget", "initial_labeled", "base_steps")
    settings = _build(
        ActiveSettings,
        "active",
        **_read(raw, "active", ActiveSettings, *active_keys),
        train=_build(TrainConfig, "train", **_read(raw, "train", TrainConfig, *train_keys)),
        attack=_build(AttackConfig, "attack", **_read(raw, "attack", AttackConfig)),
    )
    # Two ActiveSettings fields are set in [experiment].
    shared = _read(raw, "experiment", ActiveSettings, "ceal_delta", "bald_samples")
    settings = _build(partial(replace, settings), "experiment", **shared)
    cfg = ExperimentConfig(
        source,
        active=settings,
        **_read(raw, "network", ExperimentConfig, "arch"),
        **_read(raw, "experiment", ExperimentConfig, "strategies", "seeds"),
    )
    for section, left in raw.items():
        if left:
            raise ConfigError(f"unknown keys in [{section}]: {', '.join(sorted(left))}")
    return cfg
