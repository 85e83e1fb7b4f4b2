"""Experiment configuration: INI-style files mapped onto run objects.

A config file has one section per concern::

    [data]        kind = blobs | csv | idx, plus source-specific keys
    [network]     arch = arch-A | arch-B
    [active]      candidates, n_query, initial_labeled, budget, base_steps
    [train]       learning_rate, batch_size, beta1, beta2, epsilon
    [attack]      p, overshoot, max_iter
    [experiment]  strategies, seeds, ceal_delta, bald_samples

Every key is optional except data.kind; defaults match the module dataclasses.
Validation happens at load time and reports ``section.key`` names.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
from adval.loop import ActiveConfig, derive_seed
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
            spec = SyntheticSpec(
                class_count=o["classes"],
                points_per_class=o["points_per_class"],
                dimension=o["dimension"],
                cov_scale=o["cov_scale"],
                center_radius=o["center_radius"],
                seed=o["seed"],
            )
            test_spec = SyntheticSpec(
                class_count=o["classes"],
                points_per_class=o["test_points_per_class"],
                dimension=o["dimension"],
                cov_scale=o["cov_scale"],
                center_radius=o["center_radius"],
                seed=o["seed"] + 10_000,
            )
            return gen_blobs(spec), gen_blobs(test_spec)
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
    candidates: int = 200
    n_query: int = 10
    initial_labeled: int = 20
    budget: int = 1020
    base_steps: int = 2000
    train: TrainConfig = field(default_factory=TrainConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    ceal_delta: float = 0.05
    bald_samples: int = 10

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
        return ActiveConfig(
            network=network,
            strategy=strategy,
            candidates=self.candidates,
            n_query=self.n_query,
            budget=self.budget,
            initial_labeled=self.initial_labeled,
            base_steps=self.base_steps,
            train=self.train,
            attack=self.attack,
            ceal_delta=self.ceal_delta,
            bald_samples=self.bald_samples,
            seed=seed,
        )


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

    def norm_order(self, key, default):
        """An L_p norm order; only 2 and inf are supported."""
        p = self.number(key, default)
        if p not in (2.0, np.inf):
            raise ConfigError(
                f"{self.section}.{key} must be 2 or inf, got {self.raw[key].strip()!r}"
            )
        return p

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
        options = {
            "classes": data_sec.integer("classes", 4),
            "points_per_class": data_sec.integer("points_per_class", 1000),
            "dimension": data_sec.integer("dimension", 2),
            "cov_scale": data_sec.number("cov_scale", 0.35),
            "center_radius": data_sec.number("center_radius", 2.0),
            "seed": data_sec.integer("seed", 0),
            "test_points_per_class": data_sec.integer("test_points_per_class", 250),
        }
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

    train_cfg = TrainConfig(
        learning_rate=train_sec.number("learning_rate", 0.001),
        beta1=train_sec.number("beta1", 0.9),
        beta2=train_sec.number("beta2", 0.999),
        epsilon=train_sec.number("epsilon", 1e-8),
        batch_size=train_sec.integer("batch_size", 32),
    )
    train_sec.reject_unknown()

    attack_cfg = AttackConfig(
        p=attack_sec.norm_order("p", 2.0),
        overshoot=attack_sec.number("overshoot", 0.02),
        max_iter=attack_sec.integer("max_iter", 50),
    )
    attack_sec.reject_unknown()

    cfg = ExperimentConfig(
        data=DataSource(kind, options),
        arch=arch,
        strategies=parse_strategy_list(exp_sec.text("strategies", "dfal,random")),
        seeds=parse_int_list(exp_sec.text("seeds", "0,1,2,3,4"), "experiment.seeds"),
        candidates=active_sec.integer("candidates", 200),
        n_query=active_sec.integer("n_query", 10),
        initial_labeled=active_sec.integer("initial_labeled", 20),
        budget=active_sec.integer("budget", 1020),
        base_steps=active_sec.integer("base_steps", 2000),
        train=train_cfg,
        attack=attack_cfg,
        ceal_delta=exp_sec.number("ceal_delta", 0.05),
        bald_samples=exp_sec.integer("bald_samples", 10),
    )
    active_sec.reject_unknown()
    exp_sec.reject_unknown()
    return cfg
