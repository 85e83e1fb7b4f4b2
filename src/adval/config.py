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

Loading checks value syntax, unknown sections and keys, that each float is
finite (attack.p may also be inf), that no list repeats an item, that every
strategy id is known, and the rules of those dataclasses that need no data,
such as existing files, n_query <= candidates, classes >= 2, a csv
test_fraction in (0, 1), or blobs sizes too large for one numpy array. A
breach names its config key, such as ``active.n_query``: each rule's message
starts with its field (``adval.errors.require_at_least`` writes every lower
bound) and ``_build`` puts the section in front (through
``adval.errors.prefixed``). What depends on the data is checked when the data
loads, before any run starts: that generated blobs are finite, a csv
class_count no larger than the file's row count (checked before the split),
every class in a csv pool after its test split and in an idx train file, an
idx test set's image shape and labels against the pool's, csv and idx caps
against the rows each class holds, each arch's view of the samples
(``experiments._load`` asks ``build_network`` for it, so arch-A's
perfect-square and composition errors name the key or option that set the
arch), and, when BALD runs, that experiment.bald_samples dropout passes
over a round's candidates fit one array numpy can index. ``adval timing``
loads and checks only the pool; ``run`` and ``transfer`` load the test set
too. When a run starts, initial_labeled is checked against the class count
and the pool size, and test labels against the network's classes. The CLI
opens a table only once its first run has finished, so an error at a run's
start, like a data error, leaves no table behind.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from adval.attacks import AttackConfig
from adval.data import (
    Dataset,
    SyntheticSpec,
    gen_blobs,
    indexable,
    load_csv,
    load_idx,
    read_lines,
    stratified_split,
    stratified_subsample,
)
from adval.errors import ConfigError, InputError, prefixed, require_at_least
from adval.loop import _STREAM_NETWORK_INIT, STRATEGIES, ActiveConfig, ActiveSettings, derive_seed
from adval.nn.architectures import ARCHITECTURES, build_network
from adval.nn.network import NetworkSpec
from adval.nn.training import TrainConfig


def _build(cls, section: str, /, **values):
    """``cls(**values)``; a rule it breaks is named by its ``section.field`` key.

    ``cls`` may also build a dataclass, as ``partial(replace, settings)`` does.
    Relies on each of the class's error messages starting with its field, as
    ``adval.errors.require_at_least`` writes them, and puts the section in
    front through ``adval.errors.prefixed``.
    """
    with prefixed(ConfigError, f"{section}."):
        return cls(**values)


def _capped(dataset: Dataset, key: str, cap: int | None, seed: int) -> Dataset:
    """``dataset`` cut to a class-balanced ``cap`` rows; a cap it cannot fill names its key."""
    if cap is None or cap >= len(dataset):
        return dataset
    with prefixed(ConfigError, f"data.{key}: "):
        return stratified_subsample(dataset, cap, seed=seed)


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
        require_at_least(self, classes=2, test_points_per_class=1)
        for spec, points in zip(self.specs(), ("points_per_class", "test_points_per_class")):
            if not indexable(spec.class_count * spec.points_per_class, spec.dimension):
                sizes = {"classes": self.classes, points: spec.points_per_class, "dimension": self.dimension}
                name = max(sizes, key=sizes.get)
                raise ConfigError(
                    f"{name} = {sizes[name]} is too large: {self.classes} classes of {sizes[points]} "
                    f"points in {self.dimension} dimensions make an array numpy cannot index"
                )

    def specs(self) -> tuple[SyntheticSpec, SyntheticSpec]:
        """The pool's spec and the test set's."""
        shape = {k: getattr(self, k) for k in ("dimension", "center_radius", "cov_scale", "seed")}
        pool = SyntheticSpec(self.classes, self.points_per_class, **shape)
        test = replace(pool, points_per_class=self.test_points_per_class, seed=self.seed + 10_000)
        return pool, test

    def load(self, test_set: bool = True) -> tuple[Dataset, Dataset | None]:
        """The pool and, on request, the test set.

        Blobs whose samples are not finite, or finite but with a squared
        euclidean norm that overflows (the squares that training, DeepFool and
        core-set distances sum), raise ConfigError naming both keys that set
        their scale, before any training.
        """
        pool, test = self.specs()
        blobs = (
            f"data.cov_scale, data.center_radius: blobs at center_radius {self.center_radius} "
            f"with cov_scale {self.cov_scale} hold"
        )
        try:
            with np.errstate(over="ignore"):  # the overflow is reported once, below
                sets = gen_blobs(pool), gen_blobs(test) if test_set else None
                squares = [np.einsum("ij,ij->i", d.inputs, d.inputs) for d in sets if d is not None]
        except InputError as exc:  # the one InputError of gen_blobs: non-finite samples
            raise ConfigError(f"{blobs} non-finite samples") from exc
        if not all(np.isfinite(s).all() for s in squares):
            raise ConfigError(f"{blobs} samples whose squared euclidean norm overflows")
        return sets


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
        require_at_least(self, class_count=2)
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.pool_cap is not None and self.pool_cap < self.class_count:
            raise ConfigError(
                f"pool_cap must be >= class_count={self.class_count}, got {self.pool_cap}"
            )
        require_at_least(self, seed=0)

    def load(self, test_set: bool = True) -> tuple[Dataset, Dataset | None]:
        data = load_csv(self.path, self.class_count)
        if self.class_count > len(data):  # no split could leave a pool sample of each class
            raise ConfigError(
                f"data.class_count: {self.class_count} classes, but {self.path} has {len(data)} rows"
            )
        train, test = stratified_split(data, self.test_fraction, self.seed)  # the split defines the pool
        missing = ", ".join(map(str, train.missing_classes()))
        if missing:
            raise ConfigError(
                f"data.class_count: {self.class_count} classes, but the pool left after "
                f"data.test_fraction = {self.test_fraction:g} has no sample of class {missing}"
            )
        return _capped(train, "pool_cap", self.pool_cap, self.seed + 1), test if test_set else None


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
        require_at_least(self, pool_cap=1, test_cap=1, seed=0)

    def load(self, test_set: bool = True) -> tuple[Dataset, Dataset | None]:
        train = load_idx(self.train_images, self.train_labels)
        test = load_idx(self.test_images, self.test_labels) if test_set else None
        for key, dataset in (("train_images", train), ("test_images", test)):
            if dataset is not None and not len(dataset):
                raise ConfigError(f"data.{key}: no samples in {getattr(self, key)}")
        if test is not None and test.input_shape != train.input_shape:
            raise ConfigError(
                f"data.test_images: {test.input_shape} images in {self.test_images}, but "
                f"data.train_images holds {train.input_shape} images"
            )
        if train.class_count < 2:
            raise ConfigError(f"data.train_labels: {self.train_labels} has class 0 alone; need 2 or more")
        missing = ", ".join(map(str, train.missing_classes()))
        if missing:
            raise ConfigError(
                f"data.train_labels: {train.class_count} classes, but {self.train_labels} "
                f"has no sample of class {missing}"
            )
        if test is not None and test.class_count > train.class_count:
            raise ConfigError(
                f"data.test_labels: {self.test_labels} has label {test.class_count - 1}, but "
                f"data.train_labels holds {train.class_count} classes"
            )
        pool = _capped(train, "pool_cap", self.pool_cap, self.seed)
        return pool, None if test is None else _capped(test, "test_cap", self.test_cap, self.seed + 1)


# data.kind -> its dataclass, whose load(test_set) builds (train pool, test set or None)
_DATA_KINDS = {"blobs": BlobsData, "csv": CsvData, "idx": IdxData}


@dataclass(frozen=True)
class ExperimentConfig:
    data: BlobsData | CsvData | IdxData
    arch: str = "arch-B"
    strategies: tuple[str, ...] = ("dfal", "random")
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    active: ActiveSettings = field(default_factory=ActiveSettings)

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"network.arch must be one of {ARCHITECTURES}, got {self.arch!r}")
        _check_strategies(self.strategies, "experiment.strategies")

    def network(self, dataset: Dataset, seed: int) -> NetworkSpec:
        """The network every run of ``seed`` on ``dataset`` starts from."""
        init_seed = derive_seed(seed, 0, _STREAM_NETWORK_INIT)
        return build_network(self.arch, dataset.input_shape, dataset.class_count, seed=init_seed)

    def active_config(self, strategy: str, seed: int, dataset: Dataset) -> ActiveConfig:
        run = dict(network=self.network(dataset, seed), strategy=strategy, seed=seed)
        return _build(ActiveConfig, "active", **run, **vars(self.active))


def _distinct(items: tuple, text: str, what: str) -> tuple:
    """``items``, parsed from ``text``; a repeated item is a ConfigError naming ``what``."""
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(f"{what} must not repeat {item!r}: {text!r}")
    return items


def parse_int_list(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; space around an item is dropped, space inside it is an error."""
    try:
        items = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ConfigError(f"{what} must be a comma-separated integer list: {text!r}") from exc
    if not items:
        raise ConfigError(f"{what} must not be empty")
    if min(items) < 0:
        raise ConfigError(f"{what} must not be negative: {text!r}")
    return _distinct(items, text, what)


def _check_strategies(items: tuple, what: str) -> None:
    """Every item is a key of ``STRATEGIES``; an unknown one is a ConfigError naming ``what``."""
    for s in items:
        if s not in STRATEGIES:
            raise ConfigError(f"{what}: unknown strategy {s!r}; expected {tuple(STRATEGIES)}")


def parse_strategy_list(text: str, what: str) -> tuple[str, ...]:
    """Comma-separated ids, each a key of ``STRATEGIES``; an error names ``what``."""
    items = tuple(t.strip() for t in text.split(",") if t.strip())
    if not items:
        raise ConfigError(f"{what} must not be empty")
    _check_strategies(items, what)
    return _distinct(items, text, what)


_SECTIONS = ("data", "network", "active", "train", "attack", "experiment")
_CASTS = {int: int, float: float, str: str, Path: Path, int | None: int}
_LISTS = {tuple[int, ...]: parse_int_list, tuple[str, ...]: parse_strategy_list}
_INFINITE_OK = ("attack.p",)  # p = inf is the L-inf attack; AttackConfig checks p itself


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
        if types[f.name] in _LISTS:
            values[f.name] = _LISTS[types[f.name]](text, key)  # its errors name the key
            continue
        try:
            value = _CASTS[types[f.name]](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r}") from exc
        if isinstance(value, float) and not math.isfinite(value) and key not in _INFINITE_OK:
            raise ConfigError(f"{key} must be finite, got {text!r}")
        values[f.name] = value
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
