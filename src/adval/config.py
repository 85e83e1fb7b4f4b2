"""Experiment configuration: INI-style files mapped onto run objects.

A config file has one section per concern::

    [data]        kind = blobs | csv | idx, plus source-specific keys
    [network]     arch = arch-A | arch-B
    [active]      candidates, n_query, initial_labeled, budget, base_steps
    [train]       learning_rate, batch_size, beta1, beta2, epsilon
    [attack]      p, overshoot, max_iter
    [experiment]  strategies, seeds, ceal_delta, bald_samples

Every key is optional except data.kind and the paths of csv and idx data. The
keys of [active], [train], [attack], ceal_delta, bald_samples and the blobs
shape keys are fields of ``ActiveSettings``, ``TrainConfig``, ``AttackConfig``
and ``SyntheticSpec``; a key left out takes the field's default, which is
declared only there.

Loading checks what needs no data: value syntax, unknown keys, strategy and
architecture names, paths, and the rules of those dataclasses. A breach of a
rule (such as n_query <= candidates, bald_samples >= 2 or classes >= 2) names
its config key, such as ``active.n_query``. What depends on the data is
checked when a run starts: input shape and class count against the network,
initial_labeled against the class count and the pool size, and test labels
against the network's classes.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from adval.attacks import AttackConfig
from adval.data import (
    Dataset,
    SyntheticSpec,
    gen_blobs,
    load_csv,
    load_idx,
    split_and_subsample,
    stratified_subsample,
)
from adval.errors import ConfigError
from adval.loop import ActiveConfig, ActiveSettings, derive_seed
from adval.nn.architectures import ARCHITECTURES, build_network, conv_input_shape
from adval.nn.training import TrainConfig
from adval.strategies import STRATEGY_IDS

_NETWORK_SEED_STREAM = 17


@dataclass(frozen=True)
class DataSource:
    kind: str  # blobs | csv | idx
    options: dict

    def load(self) -> tuple[Dataset, Dataset]:
        """Build (train pool, test set)."""
        o = self.options
        if self.kind == "blobs":
            return gen_blobs(o["spec"]), gen_blobs(o["test_spec"])
        if self.kind == "csv":
            ds = load_csv(o["path"], o["class_count"])
            return split_and_subsample(
                ds,
                test_fraction=o["test_fraction"],
                pool_cap=o["pool_cap"],
                seed=o["seed"],
            )
        if self.kind == "idx":
            train = load_idx(o["train_images"], o["train_labels"], name="idx-train")
            test = load_idx(o["test_images"], o["test_labels"], name="idx-test")
            if o["pool_cap"] is not None and o["pool_cap"] < len(train):
                train = stratified_subsample(train, o["pool_cap"], seed=o["seed"])
            if o["test_cap"] is not None and o["test_cap"] < len(test):
                test = stratified_subsample(test, o["test_cap"], seed=o["seed"] + 1)
            return train, test
        raise ConfigError(f"data.kind must be blobs, csv, or idx, got {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSource
    arch: str
    strategies: tuple[str, ...]
    seeds: tuple[int, ...]
    active: ActiveSettings = field(default_factory=ActiveSettings)

    def __post_init__(self):
        if not self.strategies:
            raise ConfigError("experiment.strategies must not be empty")
        if not self.seeds:
            raise ConfigError("experiment.seeds must not be empty")
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


_REQUIRED = object()


def _plain_fields(cls, *exclude) -> tuple[str, ...]:
    """Fields of ``cls`` with a plain default value, less ``exclude``."""
    return tuple(f.name for f in fields(cls) if f.default is not MISSING and f.name not in exclude)


# The config keys that set dataclass fields. Two ActiveSettings fields live in
# [experiment]; the loop sets TrainConfig's epochs and seed each round.
_EXPERIMENT_KEYS = ("ceal_delta", "bald_samples")
_ACTIVE_KEYS = _plain_fields(ActiveSettings, *_EXPERIMENT_KEYS)
_TRAIN_KEYS = _plain_fields(TrainConfig, "epochs", "seed")
_ATTACK_KEYS = _plain_fields(AttackConfig)
_BLOBS_KEYS = _plain_fields(SyntheticSpec)


class _SectionReader:
    def __init__(self, parser: configparser.ConfigParser, section: str):
        self.section = section
        self.present = parser.has_section(section)
        self.raw = dict(parser[section]) if self.present else {}
        self.used: set[str] = set()

    def _fetch(self, key: str, cast, default):
        self.used.add(key)
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {self.section}.{key}")
            return default
        text = self.raw[key].strip()
        try:
            return cast(text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {self.section}.{key}: {text!r}") from exc

    def integer(self, key, default=None):
        return self._fetch(key, int, default)

    def number(self, key, default=None):
        return self._fetch(key, float, default)

    def text(self, key, default=None):
        return self._fetch(key, str, default)

    def fields_of(self, cls, names) -> dict:
        """Values of the keys in ``names``, fields of ``cls``, each cast like its default.

        Absent keys are left out, so ``cls`` keeps the only copy of each default.
        """
        defaults = {f.name: f.default for f in fields(cls)}
        return {n: self._fetch(n, type(defaults[n]), None) for n in names if n in self.raw}

    def build(self, cls, keys=None, **values):
        """``cls(**values)``; a value it rejects is reported under its config key.

        ``cls`` is a dataclass or a callable that builds one, such as
        ``partial(replace, spec)``. The key is ``section.field`` unless
        ``keys`` maps the field to another.
        Relies on each of the class's error messages starting with its field.
        """
        try:
            return cls(**values)
        except ConfigError as exc:
            name, _, rest = str(exc).partition(" ")
            key = (keys or {}).get(name, f"{self.section}.{name}")
            raise ConfigError(f"{key} {rest}") from exc

    def path(self, key, default=_REQUIRED):
        value = self._fetch(key, str, default)
        if value is None:
            return None
        p = Path(value)
        if not p.exists():
            raise ConfigError(f"{self.section}.{key}: path does not exist: {p}")
        return p

    def reject_unknown(self):
        unknown = set(self.raw) - self.used
        if unknown:
            raise ConfigError(
                f"unknown keys in [{self.section}]: {', '.join(sorted(unknown))}"
            )


def parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        items = tuple(int(t) for t in text.replace(" ", "").split(",") if t)
    except ValueError as exc:
        raise ConfigError(f"{what} must be a comma-separated integer list: {text!r}") from exc
    if not items:
        raise ConfigError(f"{what} must not be empty")
    return items


def parse_strategy_list(text: str) -> tuple[str, ...]:
    items = tuple(t.strip() for t in text.split(",") if t.strip())
    if not items:
        raise ConfigError("strategy list must not be empty")
    return items


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    data_sec = _SectionReader(parser, "data")
    if not data_sec.present:
        raise ConfigError("missing required section [data]")
    kind = data_sec.text("kind", _REQUIRED)
    if kind == "blobs":
        spec = data_sec.build(
            SyntheticSpec,
            {"class_count": "data.classes"},
            class_count=data_sec.integer("classes", 4),
            points_per_class=data_sec.integer("points_per_class", 1000),
            **data_sec.fields_of(SyntheticSpec, _BLOBS_KEYS),
        )
        test_spec = data_sec.build(
            partial(replace, spec),
            {"points_per_class": "data.test_points_per_class"},
            points_per_class=data_sec.integer("test_points_per_class", 250),
            seed=spec.seed + 10_000,
        )
        options = {"spec": spec, "test_spec": test_spec}
    elif kind == "csv":
        options = {
            "path": data_sec.path("path"),
            "class_count": data_sec.integer("class_count", _REQUIRED),
            "test_fraction": data_sec.number("test_fraction", 0.2),
            "pool_cap": data_sec.integer("pool_cap", None),
            "seed": data_sec.integer("seed", 0),
        }
    elif kind == "idx":
        options = {
            "train_images": data_sec.path("train_images"),
            "train_labels": data_sec.path("train_labels"),
            "test_images": data_sec.path("test_images"),
            "test_labels": data_sec.path("test_labels"),
            "pool_cap": data_sec.integer("pool_cap", None),
            "test_cap": data_sec.integer("test_cap", None),
            "seed": data_sec.integer("seed", 0),
        }
    else:
        raise ConfigError(f"data.kind must be blobs, csv, or idx, got {kind!r}")
    data_sec.reject_unknown()

    net_sec = _SectionReader(parser, "network")
    arch = net_sec.text("arch", "arch-B")
    net_sec.reject_unknown()

    active_sec = _SectionReader(parser, "active")
    train_sec = _SectionReader(parser, "train")
    attack_sec = _SectionReader(parser, "attack")
    exp_sec = _SectionReader(parser, "experiment")

    active = active_sec.build(
        ActiveSettings,
        {k: f"experiment.{k}" for k in _EXPERIMENT_KEYS},
        **active_sec.fields_of(ActiveSettings, _ACTIVE_KEYS),
        **exp_sec.fields_of(ActiveSettings, _EXPERIMENT_KEYS),
        train=train_sec.build(TrainConfig, **train_sec.fields_of(TrainConfig, _TRAIN_KEYS)),
        attack=attack_sec.build(AttackConfig, **attack_sec.fields_of(AttackConfig, _ATTACK_KEYS)),
    )
    cfg = ExperimentConfig(
        data=DataSource(kind, options),
        arch=arch,
        strategies=parse_strategy_list(exp_sec.text("strategies", "dfal,random")),
        seeds=parse_int_list(exp_sec.text("seeds", "0,1,2,3,4"), "experiment.seeds"),
        active=active,
    )
    for sec in (train_sec, attack_sec, active_sec, exp_sec):
        sec.reject_unknown()
    return cfg
