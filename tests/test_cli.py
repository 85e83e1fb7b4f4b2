"""CLI commands, config parsing, and metrics files."""

import csv
import gzip
import re
import struct
import warnings
from dataclasses import replace
from itertools import chain, product
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import count_calls, tiny_idx_pair

import adval.cli
import adval.config
import adval.experiments
import adval.loop
from adval.cli import main
from adval.config import (
    BlobsData,
    ExperimentConfig,
    load_experiment_config,
    parse_int_list,
    parse_strategy_list,
)
from adval.errors import ConfigError, FormatError, PoolInvariantError
from adval.experiments import (
    METRICS_HEADER,
    TRANSFER_HEADER,
    compare_metrics,
    read_metrics,
    run_grid,
    run_timing,
    run_transfer,
    write_table,
)
from adval.strategies import STRATEGY_IDS

QUICK_BLOBS = """
[data]
kind = blobs
classes = 3
points_per_class = 40
cov_scale = 0.5
seed = 1
test_points_per_class = 20

[network]
arch = arch-B

[active]
candidates = 30
n_query = 5
initial_labeled = 6
budget = 16
base_steps = 30

[experiment]
strategies = {strategies}
seeds = {seeds}
"""


def write_config(tmp_path, strategies="random", seeds="0", extra=""):
    path = tmp_path / "exp.ini"
    path.write_text(QUICK_BLOBS.format(strategies=strategies, seeds=seeds) + extra)
    return path


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestConfigParsing:
    def test_defaults_fill_in(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path))
        assert cfg.arch == "arch-B"
        assert cfg.active.train.learning_rate == 0.001
        assert cfg.active.attack.overshoot == 0.02
        assert cfg.active.candidates == 30

    def test_missing_data_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\narch = arch-B\n")
        with pytest.raises(ConfigError, match=r"\[data\]"):
            load_experiment_config(path)

    def test_bad_value_names_field(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\nkind = blobs\nclasses = many\n")
        with pytest.raises(ConfigError, match="data.classes"):
            load_experiment_config(path)

    @pytest.mark.parametrize("p", ["abc", "3", "nan"])
    def test_bad_attack_norm_is_config_error(self, tmp_path, p):
        config = write_config(tmp_path, extra=f"\n[attack]\np = {p}\n")
        result = CliRunner().invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("E_CONFIG: ") and "attack.p" in err[0]

    # key -> (text in QUICK_BLOBS, replacement that breaks the key's rule)
    RULE_BREACHES = {
        "active.n_query": ("n_query = 5", "n_query = 50"),
        "active.budget": ("budget = 16", "budget = 5"),
        "active.base_steps": ("base_steps = 30", "base_steps = 0"),
        "train.batch_size": ("[experiment]", "[train]\nbatch_size = 0\n[experiment]"),
        "attack.max_iter": ("[experiment]", "[attack]\nmax_iter = 0\n[experiment]"),
        "experiment.ceal_delta": ("[experiment]", "[experiment]\nceal_delta = -1"),
        "experiment.bald_samples": ("[experiment]", "[experiment]\nbald_samples = 1"),
        "data.classes": ("classes = 3", "classes = 1"),
        "data.dimension": ("[data]", "[data]\ndimension = 0"),
        "data.points_per_class": ("points_per_class = 40", "points_per_class = 0"),
        "data.test_points_per_class": ("test_points_per_class = 20", "test_points_per_class = 0"),
        "data.cov_scale": ("cov_scale = 0.5", "cov_scale = -0.5"),
        "data.seed": ("seed = 1", "seed = -3"),
        "experiment.seeds": ("seeds = 0", "seeds = -1"),
    }

    @pytest.mark.parametrize("key", RULE_BREACHES)
    def test_rule_breach_is_load_time_config_error(self, tmp_path, key):
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace(*self.RULE_BREACHES[key]))
        with pytest.raises(ConfigError, match=key):
            load_experiment_config(config)
        result = CliRunner().invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("E_CONFIG: ") and key in err[0]

    def test_attack_norm_inf_accepted(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path, extra="\n[attack]\np = inf\n"))
        assert cfg.active.attack.p == np.inf

    # Every numeric key of each [data] kind and of the other sections.
    NUMERIC_KEYS = {
        "blobs": (
            "data.classes", "data.points_per_class", "data.test_points_per_class",
            "data.dimension", "data.center_radius", "data.cov_scale", "data.seed",
            "active.candidates", "active.n_query", "active.budget", "active.initial_labeled",
            "active.base_steps", "train.learning_rate", "train.beta1", "train.beta2",
            "train.epsilon", "train.batch_size", "attack.p", "attack.overshoot",
            "attack.max_iter", "experiment.seeds", "experiment.ceal_delta",
            "experiment.bald_samples",
        ),
        "csv": ("data.class_count", "data.test_fraction", "data.pool_cap", "data.seed"),
        "idx": ("data.pool_cap", "data.test_cap", "data.seed"),
    }
    ODD_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "")
    # The (key, value) pairs that load; every other pair is a load-time error.
    # initial_labeled <= 0 fails when a run starts, against the class count.
    LOADS = {
        ("data.center_radius", "0"), ("data.center_radius", "-1"),
        ("data.center_radius", "1e300"), ("data.cov_scale", "1e300"), ("data.seed", "0"),
        ("active.initial_labeled", "0"), ("active.initial_labeled", "-1"),
        ("train.learning_rate", "1e300"), ("train.beta1", "0"), ("train.beta2", "0"),
        ("train.epsilon", "1e300"), ("attack.p", "inf"), ("attack.overshoot", "0"),
        ("attack.overshoot", "1e300"), ("experiment.seeds", "0"),
        ("experiment.ceal_delta", "0"), ("experiment.ceal_delta", "1e300"),
    }
    # Each key of a kind whose rule is "must be >= <minimum>": (minimum, the type it reads as).
    MINIMUMS = {
        "blobs": {
            "data.classes": (2, int), "data.points_per_class": (1, int),
            "data.test_points_per_class": (1, int), "data.dimension": (1, int),
            "data.seed": (0, int), "active.candidates": (1, int), "active.base_steps": (1, int),
            "train.batch_size": (1, int), "attack.overshoot": (0, float),
            "attack.max_iter": (1, int), "experiment.ceal_delta": (0, float),
            "experiment.bald_samples": (2, int),
        },
        "csv": {"data.class_count": (2, int), "data.seed": (0, int)},
        "idx": {"data.pool_cap": (1, int), "data.test_cap": (1, int), "data.seed": (0, int)},
    }

    @pytest.mark.parametrize("value", ODD_VALUES)
    @pytest.mark.parametrize(
        "kind, key", [(kind, key) for kind, keys in NUMERIC_KEYS.items() for key in keys]
    )
    def test_numeric_key_loads_or_names_itself(self, tmp_path, kind, key, value):
        data = tmp_path / "data"
        data.write_text("")  # never read: loading checks only that paths exist
        idx_keys = ("train_images", "train_labels", "test_images", "test_labels")
        sources = {
            "blobs": QUICK_BLOBS.format(strategies="random", seeds="0"),
            "csv": f"[data]\nkind = csv\npath = {data}\nclass_count = 2\n",
            "idx": "[data]\nkind = idx\n" + "".join(f"{k} = {data}\n" for k in idx_keys),
        }
        section, name = key.split(".")
        lines = [line for line in sources[kind].splitlines() if not line.startswith(f"{name} =")]
        if f"[{section}]" not in lines:
            lines.append(f"[{section}]")
        lines.insert(lines.index(f"[{section}]") + 1, f"{name} = {value}")
        config = tmp_path / "odd.ini"
        config.write_text("\n".join(lines) + "\n")
        if (key, value) in self.LOADS:
            load_experiment_config(config)
            return
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_experiment_config(config)
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("E_CONFIG: ") and key in err[0]
        minimum, read_as = self.MINIMUMS[kind].get(key, (None, None))
        if value in ("0", "-1") and minimum is not None and int(value) < minimum:
            assert err[0] == f"E_CONFIG: {key} must be >= {minimum}, got {read_as(value)}"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, extra="\n[attack]\nstrength = 9\n")
        with pytest.raises(ConfigError, match="strength"):
            load_experiment_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, extra="\n[actve]\nbudget = 9\n")
        known = r"\[data\], \[network\], \[active\], \[train\], \[attack\], \[experiment\]"
        with pytest.raises(ConfigError, match=r"\[actve\]; expected " + known):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "kind, key, value",
        [("csv", "seed", -3), ("csv", "pool_cap", -5), ("idx", "seed", -1),
         ("idx", "pool_cap", 0), ("idx", "test_cap", -2)],
    )
    def test_negative_seed_or_cap_rejected_at_load(self, tmp_path, kind, key, value):
        data = tmp_path / "data"
        data.write_text("")  # never read: loading checks only that paths exist
        idx_keys = ("train_images", "train_labels", "test_images", "test_labels")
        sources = {
            "csv": f"path = {data}\nclass_count = 2\n",
            "idx": "".join(f"{k} = {data}\n" for k in idx_keys),
        }
        path = tmp_path / "bad.ini"
        path.write_text(f"[data]\nkind = {kind}\n{sources[kind]}{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"data.{key} must be >= "):
            load_experiment_config(path)

    def test_unknown_strategy_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="strategies"):
            load_experiment_config(write_config(tmp_path, strategies="magic"))

    # where a strategy list comes from -> the `adval run` arguments that give it "random,magic"
    STRATEGY_SOURCES = {
        "experiment.strategies": lambda tmp_path: [
            "--config", str(write_config(tmp_path, strategies="random,magic"))
        ],
        "--strategies": lambda tmp_path: [
            "--config", str(write_config(tmp_path)), "--strategies", "random,magic"
        ],
    }

    @pytest.mark.parametrize("source", STRATEGY_SOURCES)
    def test_unknown_strategy_names_its_source(self, tmp_path, source):
        args = self.STRATEGY_SOURCES[source](tmp_path)
        result = CliRunner().invoke(main, ["run", *args, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        known = "('dfal', 'uncertainty', 'ceal', 'egl', 'bald', 'coreset', 'random')"
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: {source}: unknown strategy 'magic'; expected {known}"
        ]
        assert result.stdout == ""

    def test_python_built_config_rejects_unknown_strategy(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path))
        known = "('dfal', 'uncertainty', 'ceal', 'egl', 'bald', 'coreset', 'random')"
        with pytest.raises(ConfigError) as info:
            replace(cfg, strategies=("random", "foo"))
        assert str(info.value) == f"experiment.strategies: unknown strategy 'foo'; expected {known}"

    def test_all_seven_strategies_parse(self, tmp_path):
        text = "dfal, uncertainty, ceal, egl, bald, coreset, random"
        want = tuple(text.split(", "))
        assert parse_strategy_list(text, "--strategies") == want
        assert load_experiment_config(write_config(tmp_path, strategies=text)).strategies == want

    def test_byte_order_mark_is_dropped(self, tmp_path):
        config = write_config(tmp_path)
        config.write_text("\ufeff" + config.read_text(), encoding="utf-8")
        assert load_experiment_config(config).active.candidates == 30

    def test_missing_csv_path_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\nkind = csv\npath = does-not-exist.csv\nclass_count = 2\n")
        with pytest.raises(ConfigError, match="does not exist"):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "key, text, item", [("seeds", "0,0", "0"), ("strategies", "dfal,random,dfal", "'dfal'")]
    )
    def test_repeated_list_item_names_key(self, tmp_path, key, text, item):
        config = write_config(tmp_path, **{key: text})
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: experiment.{key} must not repeat {item}: {text!r}"
        ]
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "args, option, item",
        [
            (["run", "--seeds", "3,1,3"], "--seeds", "3"),
            (["run", "--strategies", "random,random"], "--strategies", "'random'"),
            (["compare", "--metrics", "metrics.csv", "--checkpoints", "6,16,6"], "--checkpoints", "6"),
            (["timing", "--sizes", "20,20"], "--sizes", "20"),
        ],
        ids=["seeds", "strategies", "checkpoints", "sizes"],
    )
    def test_repeated_option_item_names_option(self, tmp_path, args, option, item):
        if args[0] != "compare":
            args = [*args, "--config", str(write_config(tmp_path))]
        result = CliRunner().invoke(main, [*args, "--out", str(tmp_path)])
        assert result.exit_code == 2
        text = args[args.index(option) + 1]
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: {option} must not repeat {item}: {text!r}"
        ]
        assert result.stdout == ""

    @pytest.mark.parametrize("where", ["experiment.seeds", "--seeds", "--checkpoints", "--sizes"])
    @pytest.mark.parametrize(
        "text, want",
        [("1 2", None), ("0, 1 2", None), (" 0, 1 ", (0, 1)), ("0,\t1", (0, 1))],
        ids=["inner-space", "inner-space-in-second-item", "outer-spaces", "tab"],
    )
    def test_space_in_an_int_list(self, tmp_path, where, text, want):
        """Space around an item is dropped; space inside one fails, naming ``where``."""
        if where == "experiment.seeds":
            args = ["run", "--config", str(write_config(tmp_path, seeds=text))]
        else:
            command = {
                "--seeds": ["run", "--config", str(write_config(tmp_path))],
                "--checkpoints": ["compare", "--metrics", str(tmp_path / "metrics.csv")],
                "--sizes": ["timing", "--config", str(write_config(tmp_path))],
            }
            args = [*command[where], where, text]
        if want is not None:
            if where == "experiment.seeds":
                assert load_experiment_config(args[2]).seeds == want
            else:
                assert parse_int_list(text, where) == want
            return
        result = CliRunner().invoke(main, [*args, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: {where} must be a comma-separated integer list: {text!r}"
        ]
        assert result.stdout == ""

    def test_csv_pool_without_a_class_names_it_and_the_key(self, tmp_path):
        # class 2 has one row, and a test fraction of 0.6 moves it to the test set
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{i % 2},{i}.0\n" for i in range(20)) + "2,99.0\n")
        config = tmp_path / "csv.ini"
        config.write_text(
            f"[data]\nkind = csv\npath = {data}\nclass_count = 3\ntest_fraction = 0.6\n"
        )
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: data.class_count: 3 classes, but the pool left after "
            "data.test_fraction = 0.6 has no sample of class 2"
        ]

    def test_conv_arch_gets_image_view(self):
        cfg = ExperimentConfig(BlobsData(classes=2, points_per_class=10, test_points_per_class=5, dimension=64))
        a, b = adval.experiments._load(cfg, {"arch-A": "--selector", "arch-B": "--consumer"})
        assert a.input_shape == (1, 8, 8)
        assert b.input_shape == (1, 8, 8)
        c, d = adval.experiments._load(cfg, {"arch-B": "network.arch"})
        assert c.input_shape == (64,)


class TestRunCommand:
    def test_zero_budget_single_row(self, tmp_path):
        path = tmp_path / "z.ini"
        path.write_text(
            QUICK_BLOBS.format(strategies="random", seeds="0").replace(
                "budget = 16", "budget = 6"
            )
        )
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "o" / "metrics.csv")
        assert rows[0] == list(METRICS_HEADER)
        assert len(rows) == 2  # header + single record

    def test_grid_covers_strategy_seed_pairs(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path, strategies="random,uncertainty", seeds="0,1"))
        rows = [row for run in run_grid(cfg) for row in run]
        groups = {(r[0], r[1]) for r in rows}
        assert groups == {("random", 0), ("random", 1), ("uncertainty", 0), ("uncertainty", 1)}

    def test_rerun_identical_outside_timing_columns(self, tmp_path):
        config = write_config(tmp_path, strategies="dfal", seeds="0")
        runner = CliRunner()
        for out in ("a", "b"):
            result = runner.invoke(
                main, ["run", "--config", str(config), "--out", str(tmp_path / out)]
            )
            assert result.exit_code == 0, result.output
        rows_a = read_rows(tmp_path / "a" / "metrics.csv")
        rows_b = read_rows(tmp_path / "b" / "metrics.csv")
        drop = [METRICS_HEADER.index("selection_seconds"), METRICS_HEADER.index("train_seconds")]
        for ra, rb in zip(rows_a, rows_b):
            assert [v for i, v in enumerate(ra) if i not in drop] == [
                v for i, v in enumerate(rb) if i not in drop
            ]

    def test_every_written_row_reads_back(self, tmp_path, monkeypatch):
        written = []

        def recorded(*args, **kwargs):
            return (written.extend(run) or run for run in run_grid(*args, **kwargs))

        monkeypatch.setattr(adval.cli, "run_grid", recorded)
        config = write_config(tmp_path, strategies="dfal,ceal", seeds="0,1")
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_metrics(tmp_path / "metrics.csv")
        assert len(rows) == len(written) == 2 * 2 * 3
        for got, row in zip(rows, written):
            for name, value in zip(METRICS_HEADER, row):
                if isinstance(value, float):
                    assert abs(got[name] - value) <= 5e-7, name  # written with 6 decimals
                else:
                    assert got[name] == value, name
        # a run's last round selects nothing and writes 0.000000
        assert [r["selection_seconds"] for r in rows if r["round"] == 2] == [0.0] * 4

    def test_seed_override(self, tmp_path):
        config = write_config(tmp_path, seeds="0,1,2")
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["run", "--config", str(config), "--out", str(tmp_path / "o"), "--seeds", "5"],
        )
        assert result.exit_code == 0, result.output
        rows = read_metrics(tmp_path / "o" / "metrics.csv")
        assert {r["seed"] for r in rows} == {5}

    @pytest.mark.parametrize("option", ["--seeds=-2", "--seeds=0,-1"])
    def test_negative_seed_override_is_config_error(self, tmp_path, option):
        config = write_config(tmp_path)
        result = CliRunner().invoke(main, ["run", "--config", str(config), option])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: --seeds must not be negative: {option.split('=')[1]!r}"
        ]

    def test_initial_labels_beyond_pool_give_both_counts(self, tmp_path):
        config = write_config(tmp_path)
        text = config.read_text().replace("initial_labeled = 6", "initial_labeled = 500")
        config.write_text(text.replace("budget = 16", "budget = 600"))
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: active.initial_labeled: 500 labels exceed the pool's 120 samples"
        ]

    DIVERGED = "E_RUNTIME: round 0: training diverged: the trained network's logits are not finite"

    # The message names no key: a large learning rate and a zero beta2 diverge alike.
    @pytest.mark.parametrize("train", ["learning_rate = 1e300", "beta2 = 0"])
    def test_diverged_training_is_runtime_error(self, tmp_path, train):
        config = write_config(tmp_path, strategies="dfal,random", extra=f"\n[train]\n{train}\n")
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("E_RUNTIME: round 0: training diverged: ")
        assert err[0] == self.DIVERGED

    def test_one_step_divergence_is_runtime_error(self, tmp_path):
        # one 32-row batch: the only step's loss comes before its update and is finite
        config = write_config(
            tmp_path, strategies="dfal,random", extra="\n[train]\nlearning_rate = 1e300\n"
        )
        text = config.read_text().replace("base_steps = 30", "base_steps = 1")
        text = text.replace("initial_labeled = 6", "initial_labeled = 32")
        config.write_text(text.replace("budget = 16", "budget = 32"))
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("E_RUNTIME: round 0: training diverged: ")
        assert err[0] == self.DIVERGED

    @pytest.mark.parametrize("initial", [0, 2])
    def test_initial_labels_below_class_count_name_section(self, tmp_path, initial):
        config = write_config(tmp_path)
        text = config.read_text()
        config.write_text(text.replace("initial_labeled = 6", f"initial_labeled = {initial}"))
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: active.initial_labeled must cover at least one sample per class"
        ]

    @pytest.mark.parametrize(
        "command, table",
        [
            (["run"], "metrics.csv"),
            (["transfer", "--selector", "arch-B", "--consumer", "arch-A"], "transfer.csv"),
        ],
        ids=["run", "transfer"],
    )
    @pytest.mark.parametrize(
        "initial, budget, error",
        [
            (500, 600, "active.initial_labeled: 500 labels exceed the pool's 120 samples"),
            (2, 16, "active.initial_labeled must cover at least one sample per class"),
        ],
        ids=["beyond-pool", "below-classes"],
    )
    @pytest.mark.parametrize("existing", [None, b"strategy\nan earlier table\n"], ids=["new", "existing"])
    def test_error_at_the_first_runs_start_leaves_no_table(
        self, tmp_path, command, table, initial, budget, error, existing
    ):
        config = write_config(tmp_path)
        text = config.read_text().replace("kind = blobs", "kind = blobs\ndimension = 64")
        text = text.replace("initial_labeled = 6", f"initial_labeled = {initial}")
        config.write_text(text.replace("budget = 16", f"budget = {budget}"))
        out = tmp_path / "o"
        out.mkdir()
        if existing is not None:
            (out / table).write_bytes(existing)
        result = CliRunner().invoke(main, [*command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [f"E_CONFIG: {error}"]
        assert result.stdout == ""
        if existing is None:
            assert list(out.iterdir()) == []
        else:
            assert (out / table).read_bytes() == existing

    @pytest.mark.parametrize(
        "command, table, time_columns",
        [
            (["run"], "metrics.csv", (6, 7)),
            (["transfer", "--selector", "arch-A", "--consumer", "arch-B"], "transfer.csv", (7, 8)),
        ],
    )
    def test_failed_run_keeps_earlier_runs_rows(
        self, tmp_path, monkeypatch, command, table, time_columns
    ):
        def run(strategies, out):
            config = write_config(tmp_path, strategies=strategies)
            text = config.read_text().replace("kind = blobs", "kind = blobs\ndimension = 64")
            config.write_text(text)
            args = [*command, "--config", str(config), "--out", str(out)]
            result = CliRunner().invoke(main, args)
            rows = read_rows(out / table)
            return result, [[v for i, v in enumerate(r) if i not in time_columns] for r in rows]

        _, want = run("random", tmp_path / "clean")

        def fail(*args, **kwargs):
            raise PoolInvariantError("injected failure")

        monkeypatch.setattr(adval.loop, "select_uncertainty", fail)
        result, rows = run("random,uncertainty", tmp_path / "failed")
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == ["E_INVARIANT: injected failure"]
        assert len(want) > 2 and rows == want

    def test_config_error_exit_code_and_single_line(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "missing.ini")])
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("E_CONFIG: ")

    def test_data_too_large_to_allocate_is_a_memory_error(self, tmp_path, monkeypatch):
        # The driver raises what numpy raises for a pool it cannot allocate; nothing is allocated.
        def too_large(cfg):
            raise MemoryError("Unable to allocate 43.7 TiB for an array with shape (3000000000000, 2)")

        monkeypatch.setattr(adval.cli, "run_grid", too_large)
        result = CliRunner().invoke(main, ["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_MEMORY: Unable to allocate 43.7 TiB for an array with shape (3000000000000, 2)"
        ]


def split_only_with_rows_for_each_class(monkeypatch):
    """Make a csv split with more classes than rows fail at once, not loop over every class."""
    split = adval.config.stratified_split

    def guarded(dataset, *args, **kwargs):
        assert dataset.class_count <= len(dataset), (
            f"split reached with {dataset.class_count} classes in {len(dataset)} rows"
        )
        return split(dataset, *args, **kwargs)

    monkeypatch.setattr(adval.config, "stratified_split", guarded)


class TestDataShape:
    """Data that no run can use fails before any run, naming the key or option at fault."""

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_idx_pair_without_samples_names_its_key(self, tmp_path, empty):
        rng = np.random.default_rng(0)
        lines = ["[data]", "kind = idx"]
        for split in ("train", "test"):
            n = 0 if split == empty else 12
            labels = np.arange(n) % 3
            pixels = rng.integers(0, 256, size=(n, 4, 4))
            img, lab = tiny_idx_pair(tmp_path, pixels, labels, prefix=f"{split}_")
            lines += [f"{split}_images = {img}", f"{split}_labels = {lab}"]
        config = tmp_path / "idx.ini"
        config.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: data.{empty}_images: no samples in {tmp_path / f'{empty}_imgs.idx'}"
        ]
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "command, dimension, error",
        [
            (["run"], 3, "arch-A needs image-shaped input; 3 is not a perfect square"),
            (["timing", "--sizes", "20"], 3, "arch-A needs image-shaped input; 3 is not a perfect square"),
            (["run"], 9, "arch-A does not compose with input shape (1, 3, 3)"),
            (["timing", "--sizes", "20"], 9, "arch-A does not compose with input shape (1, 3, 3)"),
        ],
        ids=["run", "timing", "run-composition", "timing-composition"],
    )
    def test_arch_a_on_flat_samples_names_network_arch(self, tmp_path, command, dimension, error):
        config = write_config(tmp_path)
        text = config.read_text().replace("arch = arch-B", "arch = arch-A")
        config.write_text(text.replace("kind = blobs", f"kind = blobs\ndimension = {dimension}"))
        args = [*command, "--config", str(config), "--out", str(tmp_path / "o")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [f"E_CONFIG: network.arch: {error}"]

    @pytest.mark.parametrize(
        "option, dimension, error",
        [
            ("--selector", 2, "arch-A needs image-shaped input; 2 is not a perfect square"),
            ("--consumer", 2, "arch-A needs image-shaped input; 2 is not a perfect square"),
            ("--selector", 9, "arch-A does not compose with input shape (1, 3, 3)"),
            ("--consumer", 9, "arch-A does not compose with input shape (1, 3, 3)"),
        ],
        ids=["--selector", "--consumer", "--selector-composition", "--consumer-composition"],
    )
    def test_arch_a_on_flat_samples_names_transfer_option(self, tmp_path, option, dimension, error):
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace("kind = blobs", f"kind = blobs\ndimension = {dimension}"))
        archs = {"--selector": "arch-B", "--consumer": "arch-B", option: "arch-A"}
        args = ["transfer", "--config", str(config), "--out", str(tmp_path)]
        result = CliRunner().invoke(main, [*args, *[v for a in archs.items() for v in a]])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [f"E_CONFIG: {option}: {error}"]

    @staticmethod
    def _idx_config(tmp_path, train_labels, test_rows=4):
        """An idx config: 4x4 training images with ``train_labels``, 12 test images of three classes."""
        rng = np.random.default_rng(0)
        lines = ["[data]", "kind = idx"]
        for split, labels, rows in (("train", train_labels, 4), ("test", np.arange(12) % 3, test_rows)):
            pixels = rng.integers(0, 256, size=(len(labels), rows, 4))
            img, lab = tiny_idx_pair(tmp_path, pixels, labels, prefix=f"{split}_")
            lines += [f"{split}_images = {img}", f"{split}_labels = {lab}"]
        config = tmp_path / "idx.ini"
        config.write_text("\n".join(lines) + "\n[active]\ninitial_labeled = 6\n")
        return config

    @pytest.mark.parametrize(
        "command, labels, error",
        [
            (["run"], [0, 2], "3 classes, but {path} has no sample of class 1"),
            (["timing", "--sizes", "6"], [0, 2], "3 classes, but {path} has no sample of class 1"),
            (["run"], [0], "{path} has class 0 alone; need 2 or more"),
        ],
        ids=["run", "timing", "one-class"],
    )
    def test_idx_train_labels_without_a_class_name_the_file(self, tmp_path, command, labels, error):
        config = self._idx_config(tmp_path, np.resize(labels, 12))
        out = tmp_path / "o"
        result = CliRunner().invoke(main, [*command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: data.train_labels: " + error.format(path=tmp_path / "train_labels.idx")
        ]
        assert list(out.iterdir()) == []

    def test_idx_test_labels_beyond_the_train_classes_name_their_key(self, tmp_path):
        config = self._idx_config(tmp_path, np.arange(12) % 3)
        pixels = np.random.default_rng(1).integers(0, 256, size=(12, 4, 4))
        _, labels = tiny_idx_pair(tmp_path, pixels, np.arange(12) % 4, prefix="test_")
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: data.test_labels: {labels} has label 3, but data.train_labels holds 3 classes"
        ]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "test_labels, error",
        [
            ([], "data.test_images: no samples in {images}"),
            (np.arange(12) % 4, "data.test_labels: {labels} has label 3, but data.train_labels holds 3 classes"),
        ],
        ids=["empty", "labels-beyond-the-train-classes"],
    )
    def test_timing_reads_only_the_pool(self, tmp_path, test_labels, error):
        """An idx test pair that stops ``run`` by name does not stop ``timing``, which evaluates nothing."""
        config = self._idx_config(tmp_path, np.arange(12) % 3)
        config.write_text(config.read_text() + "base_steps = 30\n")
        pixels = np.random.default_rng(1).integers(0, 256, size=(len(test_labels), 4, 4))
        images, labels = tiny_idx_pair(tmp_path, pixels, test_labels, prefix="test_")
        out = tmp_path / "o"
        args = ["--config", str(config), "--out", str(out)]
        result = CliRunner().invoke(main, ["timing", "--sizes", "6", "--reps", "1", *args])
        assert result.exit_code == 0, result.output
        assert [p.name for p in out.iterdir()] == ["timing.csv"]
        assert [r[:3] for r in read_rows(out / "timing.csv")[1:]] == [
            ["dfal", "6", "1"], ["random", "6", "1"]
        ]
        result = CliRunner().invoke(main, ["run", *args])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: " + error.format(images=images, labels=labels)
        ]
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("kind", ["blobs", "csv", "idx"])
    def test_the_pool_is_the_same_without_the_test_set(self, tmp_path, kind):
        rng = np.random.default_rng(0)
        if kind == "blobs":
            text = "[data]\nkind = blobs\nclasses = 3\npoints_per_class = 10\n"
        elif kind == "csv":
            rows = [f"{i % 3},{v:.6f},{-v:.6f}" for i, v in enumerate(rng.standard_normal(30))]
            (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
            text = "[data]\nkind = csv\npath = d.csv\nclass_count = 3\ntest_fraction = 0.3\npool_cap = 9\n"
        else:
            text = "[data]\nkind = idx\npool_cap = 6\ntest_cap = 3\n"
            for split in ("train", "test"):
                pixels = rng.integers(0, 256, size=(12, 4, 4))
                img, lab = tiny_idx_pair(tmp_path, pixels, np.arange(12) % 3, prefix=f"{split}_")
                text += f"{split}_images = {img}\n{split}_labels = {lab}\n"
        config = tmp_path / "c.ini"
        config.write_text(text)
        data = load_experiment_config(config).data
        (pool, test), (pool_alone, none) = data.load(), data.load(test_set=False)
        assert none is None and len(test)
        np.testing.assert_array_equal(pool_alone.inputs, pool.inputs)
        np.testing.assert_array_equal(pool_alone.labels, pool.labels)

    HUGE = "99999999999999999999999"

    @pytest.mark.parametrize("command", [["run"], ["timing", "--sizes", "6"]], ids=["run", "timing"])
    def test_csv_class_count_above_the_row_count_names_its_key(self, tmp_path, monkeypatch, command):
        """It fails before the split, whose loop over each class once ran for minutes."""
        split_only_with_rows_for_each_class(monkeypatch)
        data = tmp_path / "d.csv"
        data.write_text("".join(f"{i % 3},{i}.0,{-i}.0\n" for i in range(60)))
        config = tmp_path / "csv.ini"
        config.write_text(f"[data]\nkind = csv\npath = d.csv\nclass_count = {self.HUGE}\n")
        out = tmp_path / "o"
        result = CliRunner().invoke(main, [*command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: data.class_count: {self.HUGE} classes, but {data} has 60 rows"
        ]
        assert list(out.iterdir()) == []

    # key -> the shape that the first set numpy cannot index would have: (classes, points, dimension)
    UNINDEXABLE = {
        "classes": (HUGE, 40, 2),
        "points_per_class": (3, HUGE, 2),
        "test_points_per_class": (3, HUGE, 2),
        "dimension": (3, 40, HUGE),
    }

    @pytest.mark.parametrize("command", [["run"], ["timing", "--sizes", "6"]], ids=["run", "timing"])
    @pytest.mark.parametrize("key", UNINDEXABLE)
    def test_blobs_size_numpy_cannot_index_names_its_key(self, tmp_path, key, command):
        config = write_config(tmp_path)
        lines = [line for line in config.read_text().splitlines() if not line.startswith(f"{key} =")]
        config.write_text("\n".join(lines).replace("kind = blobs", f"kind = blobs\n{key} = {self.HUGE}"))
        result = CliRunner().invoke(main, [*command, "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        classes, points, dimension = self.UNINDEXABLE[key]
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: data.{key} = {self.HUGE} is too large: {classes} classes of {points} points "
            f"in {dimension} dimensions make an array numpy cannot index"
        ]
        assert not list(tmp_path.rglob("*.csv"))

    def test_blobs_size_numpy_can_index_but_not_allocate_is_a_memory_error(self, tmp_path):
        # 3 classes x points x 2 float64 values, the most whose bytes an array can index;
        # a request that large fails at once, touching no memory.
        points = np.iinfo(np.intp).max // 8 // 6
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace("points_per_class = 40", f"points_per_class = {points}"))
        args = ["--config", str(config), "--out", str(tmp_path / "o")]
        result = CliRunner().invoke(main, ["run", *args])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines()[0].startswith("E_MEMORY: ")
        config.write_text(config.read_text().replace(f"= {points}", f"= {points + 1}"))
        result = CliRunner().invoke(main, ["run", *args])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines()[0].startswith("E_CONFIG: data.points_per_class = ")

    @pytest.mark.parametrize("command", [["run"], ["timing", "--sizes", "6"]], ids=["run", "timing"])
    def test_blobs_that_are_not_finite_name_their_keys(self, tmp_path, command):
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace("cov_scale = 0.5", "cov_scale = 1e308"))
        result = CliRunner().invoke(main, [*command, "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: data.cov_scale, data.center_radius: blobs at center_radius 2.0 with "
            "cov_scale 1e+308 hold non-finite samples"
        ]
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command", [["run"], ["timing", "--sizes", "6"]], ids=["run", "timing"])
    def test_blobs_whose_squared_norms_overflow_name_their_keys(self, tmp_path, monkeypatch, command):
        trainings = count_calls(monkeypatch, "train")
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace("[data]\n", "[data]\ncenter_radius = 1e308\n"))
        result = CliRunner().invoke(main, [*command, "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: data.cov_scale, data.center_radius: blobs at center_radius 1e+308 with "
            "cov_scale 0.5 hold samples whose squared euclidean norm overflows"
        ]
        assert not trainings
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command", [["run"], ["timing", "--sizes", "6"]], ids=["run", "timing"])
    def test_bald_samples_numpy_cannot_index_names_its_key(self, tmp_path, monkeypatch, command):
        trainings = count_calls(monkeypatch, "train")
        config = write_config(tmp_path, strategies="random,bald", extra=f"bald_samples = {self.HUGE}\n")
        result = CliRunner().invoke(main, [*command, "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: experiment.bald_samples = {self.HUGE} is too large: {self.HUGE} dropout "
            "passes over 30 candidates of 3 classes make an array numpy cannot index"
        ]
        assert trainings["train"] == 0
        assert not list(tmp_path.rglob("*.csv"))

    def test_bald_samples_numpy_can_index_but_not_allocate_is_a_memory_error(self, tmp_path):
        # samples x 30 candidates x 3 classes float64 values, the most whose bytes an array
        # can index; a request that large fails at once, touching no memory.
        samples = np.iinfo(np.intp).max // 8 // 90
        args = ["--out", str(tmp_path / "o"), "--config"]
        for strategies, n, want in [
            ("bald", samples, "E_MEMORY: "),
            ("bald", samples + 1, "E_CONFIG: experiment.bald_samples = "),
            ("random", samples + 1, None),  # checked only when BALD runs
        ]:
            config = write_config(tmp_path, strategies=strategies, extra=f"bald_samples = {n}\n")
            result = CliRunner().invoke(main, ["run", *args, str(config)])
            if want is None:
                assert result.exit_code == 0, result.output
                continue
            assert result.exit_code == 2
            assert result.stderr.strip().splitlines()[0].startswith(want)

    @pytest.mark.parametrize("arch", ["arch-A", "arch-B"])
    def test_idx_test_images_of_another_shape_name_their_key(self, tmp_path, arch):
        config = self._idx_config(tmp_path, np.arange(12) % 3, test_rows=5)
        config.write_text(config.read_text() + f"[network]\narch = {arch}\n")
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: data.test_images: (5, 4) images in {tmp_path / 'test_imgs.idx'}, "
            "but data.train_images holds (4, 4) images"
        ]


class _ReachedTraining(BaseException):
    """Raised in place of the first training step; the CLI's error handler does not catch it."""


class TestBadValueSweep:
    """Every bad value of every key and every CLI option ends in a named error or runs cleanly.

    The config is the one the CI workflow's console-script step writes. Each
    of its keys, and every other key a blobs config takes, is set to each of
    ``VALUES`` in turn, through ``run``, and for ``[data]`` keys through
    ``timing`` too, with warnings turned into errors. A value fails at load
    when the command exits before its first training step: it exits 2 with
    exactly one stderr line, ``E_CONFIG: `` naming the key (or, for the six
    cross-field cases of ``PARTNERS``, the key or option it breaks a rule
    with), and leaves no table. A value that loads is checked only to load,
    except the ``RUN_CASES``, which run whole: they print no warning, and
    end in their ``E_`` line or exit 0.

    The csv and idx keys (``DATA_FILE_KEYS``) go the same way through ``run``
    and ``timing``, with the CI config's ``[data]`` section replaced by a
    60-row, 3-class csv file or a pair of idx files of 4x4 images (60 pool
    images and 12 test images of 3 classes). A path that names no file fails by
    its key. One value names the file and row instead, as a data error does:
    ``DATA_FILE_LINES``. Each option of each command (``OPTIONS``) takes the
    same values, one option at a time, the others keeping a value that works:
    a value fails with one ``E_CONFIG: `` line naming its option (an option
    that names a file, with the file it names), or loads and is stopped at its
    first training step, or, for ``compare``, which trains nothing, exits 0.
    A value of the wrong type fails through click with the same one line.

    Left out are values that only ask for a lot of work, ``active.base_steps``
    and ``train.batch_size`` at 99999999999999999999999: each asks for more
    than 10^23 training steps; and ``timing --reps 99999999999999999999999``,
    as many selection repetitions. ``--seeds 99999999999999999999999`` is one
    seed, not many, and stays in.
    """

    CI_BLOBS = (
        "[data]\nkind = blobs\nclasses = 3\npoints_per_class = 40\ntest_points_per_class = 20\n"
        "[active]\ncandidates = 30\nn_query = 5\ninitial_labeled = 6\nbudget = 16\nbase_steps = 30\n"
        "[experiment]\nstrategies = dfal,random\nseeds = 0,1\n"
    )
    KEYS = {
        "data": ("kind", "classes", "points_per_class", "test_points_per_class", "dimension",
                 "center_radius", "cov_scale", "seed"),
        "active": ("candidates", "n_query", "budget", "initial_labeled", "base_steps"),
        "train": ("learning_rate", "beta1", "beta2", "epsilon", "batch_size"),
        "attack": ("p", "overshoot", "max_iter"),
        "experiment": ("strategies", "seeds", "ceal_delta", "bald_samples"),
        "network": ("arch",),
    }
    HUGE = "99999999999999999999999"
    VALUES = ("", "0", "-1", "1", "2", "0.5", "nan", "inf", "-inf", "1e308", "1e-320", "abc",
              "1e30", "3.0", HUGE)
    COMMANDS = {"run": ["run"], "timing": ["timing", "--sizes", "6,10", "--reps", "1"]}
    LEFT_OUT = {("run", "active.base_steps", HUGE), ("run", "train.batch_size", HUGE)}
    # (command, key, value) -> the key or option its E_CONFIG line names instead of the key
    PARTNERS = {
        ("run", "data.points_per_class", "1"): "active.initial_labeled",
        ("timing", "data.points_per_class", "1"): "--sizes",
        ("timing", "data.points_per_class", "2"): "--sizes",
        ("run", "active.candidates", "1"): "active.n_query",
        ("run", "active.candidates", "2"): "active.n_query",
        ("run", "active.initial_labeled", HUGE): "active.budget",
    }
    DIVERGED = "E_RUNTIME: round 1: training diverged: the trained network's logits are not finite"
    # (command, key, value) -> (extra options, the last stderr line, or None for exit 0)
    RUN_CASES = {
        ("run", "attack.overshoot", "1e308"): ((), DIVERGED),
        ("run", "experiment.bald_samples", HUGE): (
            ("--strategies", "bald"),
            f"E_CONFIG: experiment.bald_samples = {HUGE} is too large: {HUGE} dropout passes "
            "over 30 candidates of 3 classes make an array numpy cannot index",
        ),
    }
    CASES = [
        (command, key, value)
        for command, key, value in product(
            COMMANDS, [f"{section}.{k}" for section, keys in KEYS.items() for k in keys], VALUES
        )
        if command == "run" or key.startswith("data.")
    ]
    for case in LEFT_OUT:
        CASES.remove(case)
    del case

    # data.kind -> the keys of that kind, set in place of the CI config's [data] section
    DATA_FILE_KEYS = {
        "csv": ("path", "class_count", "test_fraction", "pool_cap", "seed"),
        "idx": ("train_images", "train_labels", "test_images", "test_labels", "pool_cap", "test_cap", "seed"),
    }
    # (command, kind, key, value) -> the one stderr line, where it names the file and row, not the key
    DATA_FILE_LINES = {
        (command, "csv", "data.class_count", "2"): "E_FORMAT: {dir}/d.csv: row 3 label 2 outside [0, 2)"
        for command in ("run", "timing")
    }
    DATA_FILE_CASES = [
        (command, kind, f"data.{key}", value)
        for command, (kind, keys), value in product(COMMANDS, DATA_FILE_KEYS.items(), VALUES)
        for key in keys
    ]
    # command -> each of its options with a value that works; a case replaces one of them
    OPTIONS = {
        "run": {"--config": "ci.ini", "--out": "out", "--seeds": "0,1", "--strategies": "dfal,random"},
        "timing": {"--config": "ci.ini", "--sizes": "6,10", "--reps": "1", "--out": "out"},
        "transfer": {"--config": "ci64.ini", "--selector": "arch-B", "--consumer": "arch-A",
                     "--out": "out", "--seeds": "0,1"},
        "compare": {"--metrics": "metrics.csv", "--checkpoints": "6,16", "--target-accuracy": "0.6",
                    "--out": "out"},
    }
    FILE_OPTIONS = ("--config", "--metrics")
    OPTION_CASES = [
        (command, option, value)
        for (command, option), value in product(
            [(command, option) for command, options in OPTIONS.items() for option in options], VALUES
        )
    ]
    OPTION_CASES.remove(("timing", "--reps", HUGE))

    def config(self, tmp_path, key, value, text=CI_BLOBS):
        section, name = key.split(".")
        lines = [line for line in text.splitlines() if not line.startswith(f"{name} =")]
        if f"[{section}]" not in lines:
            lines.append(f"[{section}]")
        lines.insert(lines.index(f"[{section}]") + 1, f"{name} = {value}")
        path = tmp_path / "bad.ini"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("command, key, value", CASES, ids=[f"{c}-{k}={v}" for c, k, v in CASES])
    def test_bad_value_fails_by_name_or_runs_cleanly(self, tmp_path, monkeypatch, command, key, value):
        out = tmp_path / "out"
        run_case = self.RUN_CASES.get((command, key, value))
        options = run_case[0] if run_case else ()
        if run_case is None:
            def stop(*args, **kwargs):
                raise _ReachedTraining

            monkeypatch.setattr(adval.loop, "train", stop)
        config = self.config(tmp_path, key, value)
        args = [*self.COMMANDS[command], "--config", str(config), "--out", str(out), *options]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = CliRunner().invoke(main, args)
            except _ReachedTraining:
                return  # the value loads
        err = result.stderr.strip().splitlines()
        assert not any("Warning" in line for line in err), err
        if run_case is not None:
            want = run_case[1]
            if want is None:
                assert result.exit_code == 0, err
            else:
                assert (result.exit_code, err[-1:]) == (2, [want])
            return
        assert result.exit_code == 2
        assert len(err) == 1 and err[0].startswith("E_CONFIG: "), err
        assert self.PARTNERS.get((command, key, value), key) in err[0]
        assert not list(out.rglob("*.csv"))

    @staticmethod
    def invoke_until_training(monkeypatch, args):
        """The command's result, with warnings as errors, or None once it reaches a training step."""
        def stop(*args, **kwargs):
            raise _ReachedTraining

        monkeypatch.setattr(adval.loop, "train", stop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return CliRunner().invoke(main, args)
            except _ReachedTraining:
                return None

    def data_file_config(self, tmp_path, kind, key, value):
        """The CI config with a ``kind`` [data] section over files in ``tmp_path``, and ``key`` set."""
        rng = np.random.default_rng(0)
        if kind == "csv":
            rows = (f"{i % 3},{v:.6f},{-v:.6f}\n" for i, v in enumerate(rng.standard_normal(60)))
            (tmp_path / "d.csv").write_text("".join(rows))
            data = "[data]\nkind = csv\npath = d.csv\nclass_count = 3\n"
        else:
            data = "[data]\nkind = idx\n"
            for split, n in (("train", 60), ("test", 12)):
                pixels = rng.integers(0, 256, size=(n, 4, 4))
                img, lab = tiny_idx_pair(tmp_path, pixels, np.arange(n) % 3, prefix=f"{split}_")
                data += f"{split}_images = {img.name}\n{split}_labels = {lab.name}\n"
        rest = self.CI_BLOBS[self.CI_BLOBS.index("[active]"):]
        return self.config(tmp_path, key, value, data + rest)

    @pytest.mark.parametrize(
        "command, kind, key, value", DATA_FILE_CASES, ids=[f"{c}-{k}-{key}={v}" for c, k, key, v in DATA_FILE_CASES]
    )
    def test_bad_data_file_value_fails_by_name_or_loads(self, tmp_path, monkeypatch, command, kind, key, value):
        split_only_with_rows_for_each_class(monkeypatch)
        config = self.data_file_config(tmp_path, kind, key, value)
        out = tmp_path / "out"
        result = self.invoke_until_training(
            monkeypatch, [*self.COMMANDS[command], "--config", str(config), "--out", str(out)]
        )
        if result is None:
            return  # the value loads
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        want = self.DATA_FILE_LINES.get((command, kind, key, value))
        if want is not None:
            assert err == [want.format(dir=tmp_path)]
        else:
            assert len(err) == 1 and err[0].startswith("E_CONFIG: ") and key in err[0], err
        assert not list(out.rglob("*.csv"))

    @pytest.mark.parametrize(
        "command, option, value", OPTION_CASES, ids=[f"{c}{o}={v}" for c, o, v in OPTION_CASES]
    )
    def test_bad_option_value_fails_by_name_or_loads(self, tmp_path, monkeypatch, command, option, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ci.ini").write_text(self.CI_BLOBS)
        (tmp_path / "ci64.ini").write_text(self.CI_BLOBS.replace("kind = blobs\n", "kind = blobs\ndimension = 64\n"))
        rows = [
            (strategy, seed, r, n, n, 0.5 + 0.1 * r, 0.0, 0.0, 0)
            for strategy, seed in product(("dfal", "random"), (0, 1))
            for r, n in enumerate((6, 11, 16))
        ]
        write_table(tmp_path / "metrics.csv", METRICS_HEADER, rows)
        options = {**self.OPTIONS[command], option: value}
        result = self.invoke_until_training(monkeypatch, [command, *chain.from_iterable(options.items())])
        if result is None:
            return  # the value loads
        err = result.stderr.strip().splitlines()
        if command == "compare" and result.exit_code == 0:
            assert err == []
            return
        assert result.exit_code == 2
        named = f"file does not exist: {Path(value)}" if option in self.FILE_OPTIONS else option
        assert len(err) == 1 and err[0].startswith("E_CONFIG: ") and named in err[0], err
        assert [p.name for p in tmp_path.rglob("*.csv")] == ["metrics.csv"]


def _idx(magic, *sizes, payload=b""):
    """IDX bytes: ``magic``, then ``sizes``, then ``payload``."""
    return struct.pack(f">{1 + len(sizes)}I", magic, *sizes) + payload


_PIXELS = bytes(range(256)) * 3 + bytes(range(192))  # 960 = 60 images of 4x4
_IMAGES = _idx(0x803, 60, 4, 4, payload=_PIXELS)
_LABELS = _idx(0x801, 60, payload=bytes(i % 3 for i in range(60)))
_GOOD_CSV = b"0,1.0,2.0\n"  # a row that loads


def _flip_crc(packed: bytes) -> bytes:
    """A gzip stream whose stored CRC-32 (the trailer's first 4 bytes) has one bit flipped."""
    return packed[:-8] + bytes([packed[-8] ^ 1]) + packed[-7:]


class TestBadFileSweep:
    """Every malformed data file ends in one ``E_`` line that names the file.

    Beside ``TestBadValueSweep``, which sets config values, this sweep sets
    the bytes of the file a value names: the csv file of a csv config, or the
    training images or labels of an idx config (``TestBadValueSweep``'s
    ``data_file_config``), through ``run`` and ``timing``. Each case exits 2
    before any training with exactly one stderr line, which starts with the
    case's code and message and names the file; none reads ``E_UNEXPECTED``
    or an empty message.
    """

    # (id, data key, file bytes, the line's start; {path} is the file, {dir} the config's directory)
    CASES = [
        ("csv-empty", "path", b"", "E_FORMAT: {path}: empty file"),
        ("csv-header-only", "path", b"label,x,y\n", "E_FORMAT: {path}: no data rows"),
        *[
            (f"csv-label-{label}", "path", _GOOD_CSV + label.encode() + b",1.0,2.0\n",
             f"E_FORMAT: {{path}}: row 2 label {label} outside [0, 3)")
            for label in ("1.5", "-1", "1e20", "nan")
        ],
        ("csv-ragged-row", "path", _GOOD_CSV + b"1,1.0\n",
         "E_FORMAT: {path}: ragged row 2: expected 3 fields, got 2"),
        ("csv-no-feature-columns", "path", b"0\n1\n", "E_FORMAT: {path}: row 1 has no feature columns"),
        ("csv-inf-feature", "path", _GOOD_CSV + b"1,inf,2.0\n",
         "E_FORMAT: {path}: non-finite feature value in row 2"),
        ("csv-quoted-fields", "path", b'"0","1.0","2.0"\n"1","1.0","2.0"\n',
         "E_FORMAT: {path}: non-numeric value in row 2"),
        ("csv-semicolons", "path", b"0;1.0;2.0\n1;1.0;2.0\n",
         "E_FORMAT: {path}: row 2 has no feature columns"),
        ("csv-nul-byte", "path", _GOOD_CSV + b"1,1.0\x00,2.0\n", "E_FORMAT: {path}: non-numeric value in row 2"),
        ("csv-latin-1", "path", _GOOD_CSV + "1,1.0,2.0 \u00e9\n".encode("latin-1"),
         "E_FORMAT: {path}: not UTF-8 text ("),
        ("idx-bad-image-magic", "train_images", _idx(0x801, 60, 4, 4, payload=_PIXELS),
         "E_FORMAT: {path}: bad image magic 0x00000801 at byte 0, expected 0x00000803"),
        ("idx-bad-label-magic", "train_labels", struct.pack(">I", 0x803) + _LABELS[4:],
         "E_FORMAT: {path}: bad label magic 0x00000803 at byte 0, expected 0x00000801"),
        ("idx-truncated-header", "train_images", _IMAGES[:10], "E_FORMAT: {path}: truncated header at byte 10"),
        ("idx-truncated-payload", "train_images", _IMAGES[:100],
         "E_FORMAT: {path}: truncated payload at byte 100, expected 960 bytes"),
        ("idx-images-beyond-the-index-range", "train_images", _idx(0x803, 2**31, 2**31, 4),
         f"E_FORMAT: {{path}}: truncated payload at byte 16, expected {2**64} bytes"),
        ("idx-images-beyond-memory", "train_images", _idx(0x803, 2**20, 2**10, 2**10),
         f"E_FORMAT: {{path}}: truncated payload at byte 16, expected {2**40} bytes"),
        ("idx-gzip-images-beyond-the-index-range", "train_images", gzip.compress(_idx(0x803, 2**31, 2**31, 4)),
         f"E_FORMAT: {{path}}: truncated payload at byte 16, expected {2**64} bytes"),
        ("idx-labels-beyond-memory", "train_labels", _idx(0x801, 2**32 - 1),
         f"E_FORMAT: {{path}}: truncated payload at byte 8, expected {2**32 - 1} bytes"),
        ("idx-count-mismatch", "train_images", _idx(0x803, 59, 4, 4, payload=_PIXELS[:944]),
         "E_FORMAT: count mismatch: {path} has 59 images but {dir}/train_labels.idx has 60 labels"),
        # gzip's own errors, each named by its file
        ("idx-gzip-truncated", "train_images", gzip.compress(_IMAGES)[:-12],
         "E_FORMAT: {path}: corrupt gzip stream: Compressed file ended before the end-of-stream marker"),
        ("idx-gzip-magic-only", "train_images", b"\x1f\x8b",
         "E_FORMAT: {path}: corrupt gzip stream: Compressed file ended before the end-of-stream marker"),
        ("idx-gzip-magic-then-garbage", "train_images", b"\x1f\x8bgarbage" * 4,
         "E_FORMAT: {path}: corrupt gzip stream: Unknown compression method"),
        ("idx-gzip-bad-deflate-data", "train_images", gzip.compress(b"")[:10] + b"\xff" * 20,
         "E_FORMAT: {path}: corrupt gzip stream: Error -3 while decompressing data: invalid block type"),
        ("idx-gzip-crc-flipped", "train_images", _flip_crc(gzip.compress(_IMAGES)),
         "E_FORMAT: {path}: corrupt gzip stream: CRC check failed"),
        ("idx-gzip-labels-truncated", "train_labels", gzip.compress(_LABELS)[:-12],
         "E_FORMAT: {path}: corrupt gzip stream: Compressed file ended before the end-of-stream marker"),
        # a header must cover the whole file
        ("idx-byte-after-payload", "train_images", _IMAGES + b"\x00",
         "E_FORMAT: {path}: bytes after the 960-byte payload, from byte 976"),
        ("idx-gzip-byte-after-payload", "train_images", gzip.compress(_IMAGES + b"\x00"),
         "E_FORMAT: {path}: bytes after the 960-byte payload, from byte 976"),
        ("idx-header-understating-columns", "train_images", _idx(0x803, 60, 4, 3, payload=_PIXELS),
         "E_FORMAT: {path}: bytes after the 720-byte payload, from byte 736"),
        ("idx-labels-byte-after-payload", "train_labels", _LABELS + b"\x00",
         "E_FORMAT: {path}: bytes after the 60-byte payload, from byte 68"),
        ("idx-zero-rows", "train_images", _idx(0x803, 60, 0, 4), "E_FORMAT: {path}: image size 0x4 holds no pixels"),
        ("idx-zero-columns", "train_images", _idx(0x803, 60, 4, 0),
         "E_FORMAT: {path}: image size 4x0 holds no pixels"),
    ]

    @pytest.mark.parametrize("command", ["run", "timing"])
    @pytest.mark.parametrize("key, content, start", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_bad_file_fails_by_name(self, tmp_path, monkeypatch, command, key, content, start):
        path = tmp_path / ("bad.csv" if key == "path" else "bad.idx")
        path.write_bytes(content)
        sweep = TestBadValueSweep()
        config = sweep.data_file_config(tmp_path, "csv" if key == "path" else "idx", f"data.{key}", path.name)
        out = tmp_path / "out"
        result = sweep.invoke_until_training(
            monkeypatch, [*sweep.COMMANDS[command], "--config", str(config), "--out", str(out)]
        )
        assert result is not None, "the file loaded"
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(start.format(path=path, dir=tmp_path)), err
        assert str(path) in err[0]
        assert not list(out.rglob("*.csv"))


class TestSingleExitPath:
    """An exception inside any command ends in the same one ``E_`` line, through ``_Commands``."""

    # command -> the function it calls, and the options that reach it
    CALLS = {
        "run": ("run_grid", ["--config", "exp.ini", "--out", "out"]),
        "compare": ("read_metrics", ["--metrics", "metrics.csv"]),
        "transfer": ("run_transfer", ["--config", "exp.ini", "--selector", "arch-B", "--consumer", "arch-A",
                                      "--out", "out"]),
        "timing": ("run_timing", ["--config", "exp.ini", "--out", "out"]),
    }

    @pytest.mark.parametrize("error", [RuntimeError, EOFError])  # click's main makes EOFError "Aborted!"
    @pytest.mark.parametrize("command", CALLS)
    def test_unexpected_error_is_one_line(self, tmp_path, monkeypatch, command, error):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path)
        name, options = self.CALLS[command]

        def boom(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(adval.cli, name, boom)
        result = CliRunner().invoke(main, [command, *options])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == ["E_UNEXPECTED: boom"]


class TestUsageErrors:
    """A command line that click cannot parse ends in one ``E_CONFIG`` line with click's message."""

    @pytest.mark.parametrize(
        "args, line",
        [
            (["timing", "--config", "c.ini", "--reps", "abc"],
             "E_CONFIG: Invalid value for '--reps': 'abc' is not a valid integer."),
            (["compare", "--metrics", "m.csv", "--target-accuracy", "abc"],
             "E_CONFIG: Invalid value for '--target-accuracy': 'abc' is not a valid float."),
            (["run"], "E_CONFIG: Missing option '--config'."),
            (["run", "--config"], "E_CONFIG: Option '--config' requires an argument."),
            (["bogus"], "E_CONFIG: No such command 'bogus'."),
            (["--bogus", "run"], "E_CONFIG: No such option '--bogus'."),
            (["--bogus"], "E_CONFIG: No such option '--bogus'."),
        ],
        ids=[
            "reps-abc",
            "target-accuracy-abc",
            "missing-config",
            "config-without-value",
            "unknown-command",
            "unknown-option-before-command",
            "unknown-option-alone",
        ],
    )
    def test_usage_error_is_one_config_line(self, args, line):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [line]
        assert result.stdout == ""

    def test_unknown_option_is_named(self):
        result = CliRunner().invoke(main, ["run", "--config", "c.ini", "--bogus"])
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("E_CONFIG: No such option '--bogus'."), err

    def test_bare_adval_is_clicks_help(self):
        result = CliRunner().invoke(main, [])
        assert "Usage: " in result.output  # on stderr with exit code 2 since click 8.2
        assert "E_" not in result.output

    @pytest.mark.parametrize("args", [["--help"], ["run", "--help"], ["timing", "--help"]])
    def test_help_is_clicks(self, args):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage: ")
        assert result.stderr == ""


class TestFileBoundary:
    """A user mistake with a file or directory ends in one named error, never E_UNEXPECTED."""

    def invoke(self, *args):
        result = CliRunner().invoke(main, [str(a) for a in args])
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        return result, err[0]

    @pytest.mark.parametrize("command", [["run"], ["timing", "--sizes", "20"]])
    def test_out_naming_a_file_fails_before_the_run(self, tmp_path, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        result, err = self.invoke(*command, "--config", write_config(tmp_path), "--out", taken)
        assert err.startswith("E_IO: ") and str(taken) in err
        assert result.stdout == ""  # no strategy ran

    def test_config_that_is_a_directory_names_it(self, tmp_path):
        _, err = self.invoke("run", "--config", tmp_path)
        assert err == f"E_CONFIG: config file does not exist: {tmp_path}"

    def test_metrics_that_is_a_directory_names_it(self, tmp_path):
        _, err = self.invoke("compare", "--metrics", tmp_path)
        assert err == f"E_CONFIG: metrics file does not exist: {tmp_path}"

    def test_non_utf8_config_names_file(self, tmp_path):
        config = write_config(tmp_path)
        config.write_bytes(config.read_bytes() + b"# caf\xe9\n")
        _, err = self.invoke("run", "--config", config, "--out", tmp_path / "o")
        assert err.startswith(f"E_CONFIG: {config}: not UTF-8 text")

    def test_non_utf8_csv_names_file(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_bytes(b"0,1.0\n1,2.0\n# caf\xe9\n")
        config = tmp_path / "csv.ini"
        config.write_text(f"[data]\nkind = csv\npath = {data}\nclass_count = 2\n")
        _, err = self.invoke("run", "--config", config, "--out", tmp_path / "o")
        assert err.startswith(f"E_FORMAT: {data}: not UTF-8 text")

    def test_non_utf8_metrics_names_file(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        metrics.write_bytes(",".join(METRICS_HEADER).encode() + b"\ncaf\xe9\n")
        _, err = self.invoke("compare", "--metrics", metrics)
        assert err.startswith(f"E_FORMAT: {metrics}: not UTF-8 text")


class TestCompare:
    def make_rows(self):
        # two strategies, two seeds, monotone accuracy curves
        rows = []
        for strategy, base in (("dfal", 0.5), ("random", 0.4)):
            for seed in (0, 1):
                for rnd, ann in enumerate((6, 11, 16)):
                    rows.append(
                        (
                            strategy,
                            seed,
                            rnd,
                            ann,
                            ann if strategy == "random" else 6 + 2 * (ann - 6),
                            base + 0.1 * rnd + 0.01 * seed,
                            0.0,
                            0.0,
                            0,
                        )
                    )
        return rows

    def test_checkpoint_means_and_absence(self, tmp_path):
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, self.make_rows())
        rows = read_metrics(path)
        summaries = compare_metrics(rows, checkpoints=(5, 11, 100))
        by_name = {s.strategy: s for s in summaries}
        dfal = by_name["dfal"]
        assert dfal.checkpoint_accuracy[5] is None  # below the first round
        assert abs(dfal.checkpoint_accuracy[11] - 0.605) < 1e-9
        assert abs(dfal.checkpoint_accuracy[100] - 0.705) < 1e-9
        # the sample sd (ddof=1) of the seeds' 0.60 and 0.61, and of 0.70 and 0.71
        assert dfal.checkpoint_sd[5] is None
        assert abs(dfal.checkpoint_sd[11] - 0.01 / np.sqrt(2)) < 1e-12
        assert abs(dfal.checkpoint_sd[100] - 0.01 / np.sqrt(2)) < 1e-12

    def test_target_accuracy_first_reach(self, tmp_path):
        rows = read_metrics(
            write_table(tmp_path / "m.csv", METRICS_HEADER, self.make_rows())
        )
        summaries = compare_metrics(rows, checkpoints=(16,), target_accuracy=0.65)
        by_name = {s.strategy: s for s in summaries}
        assert by_name["dfal"].target_annotations == 16
        assert by_name["dfal"].target_labeled_data == 26.0
        assert by_name["dfal"].target_reached
        assert not by_name["random"].target_reached

    def test_single_seed_means_equal_raw(self, tmp_path):
        rows = [r for r in self.make_rows() if r[1] == 0 and r[0] == "dfal"]
        path = write_table(tmp_path / "m.csv", METRICS_HEADER, rows)
        summaries = compare_metrics(read_metrics(path), checkpoints=(16,))
        assert abs(summaries[0].checkpoint_accuracy[16] - 0.7) < 1e-9
        assert summaries[0].checkpoint_sd[16] is None  # one seed has no sample sd

    def test_seed_order_in_the_table_does_not_matter(self, tmp_path):
        # seeds listed 2,0,1, as `adval run` writes them for `seeds = 2,0,1`
        rows = []
        for strategy, base in (("dfal", 0.3), ("random", 0.0)):
            for seed in (2, 0, 1):
                for rnd, ann in enumerate((6, 11, 16)):
                    accuracy = base + 0.1 * seed + 0.07 * rnd
                    rows.append((strategy, seed, rnd, ann, ann + seed, accuracy, 0.0, 0.0, 0))
        listed = read_metrics(write_table(tmp_path / "listed.csv", METRICS_HEADER, rows))
        by_seed = sorted(listed, key=lambda r: (r["strategy"], r["seed"], r["round"]))
        assert [r["seed"] for r in listed[:9:3]] == [2, 0, 1]
        checkpoints = (5, 6, 12, 16, 100)
        for target in (None, 0.4, 0.99):
            assert compare_metrics(listed, checkpoints, target) == compare_metrics(by_seed, checkpoints, target)

    @pytest.mark.parametrize(
        "column, value, pairs",
        [("seed", 0, "[(0, 11), (0, 11)]"), ("annotations", 12, "[(0, 11), (1, 12)]")],
        ids=["repeated-seed", "annotations-disagree"],
    )
    def test_rounds_that_do_not_line_up_name_strategy_and_round(self, tmp_path, column, value, pairs):
        rows = self.make_rows()
        at = METRICS_HEADER.index(column)
        rows[4] = (*rows[4][:at], value, *rows[4][at + 1 :])  # dfal, seed 1, round 1
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, rows)
        want = (
            "strategy 'dfal', round 1: each seed must appear once and all seeds must agree on "
            f"the annotations, got (seed, annotations) {pairs}"
        )
        with pytest.raises(FormatError) as info:
            compare_metrics(read_metrics(path), checkpoints=(16,))
        assert str(info.value) == want
        result = CliRunner().invoke(main, ["compare", "--metrics", str(path), "--checkpoints", "16"])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [f"E_FORMAT: {path}: {want}"]
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "dropped, round_, missing",
        [((1, 2), 1, [0]), ((3,), 0, [1])],
        ids=["seed-ends-early", "seed-starts-late"],
    )
    def test_round_without_every_seed_names_the_missing_seeds(self, tmp_path, dropped, round_, missing):
        # a dfal seed with fewer rounds: its mean over the other seed alone once passed as a seed mean
        rows = [r for i, r in enumerate(self.make_rows()) if i not in dropped]
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, rows)
        want = f"strategy 'dfal', round {round_}: no row for seeds {missing}, which other rounds of the strategy have"
        with pytest.raises(FormatError) as info:
            compare_metrics(read_metrics(path), checkpoints=(16,))
        assert str(info.value) == want
        result = CliRunner().invoke(main, ["compare", "--metrics", str(path), "--checkpoints", "6,16"])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [f"E_FORMAT: {path}: {want}"]
        assert result.stdout == ""

    def test_malformed_train_seconds_rejected(self, tmp_path):
        rows = self.make_rows()
        rows[1] = (*rows[1][:7], "1.5s", rows[1][8])
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, rows)
        with pytest.raises(FormatError, match=r"metrics\.csv: bad value in row 3$"):
            read_metrics(path)

    @pytest.mark.parametrize(
        "column, cell, domain",
        [
            ("seed", "-1", "a non-negative integer"),
            ("round", "-1", "a non-negative integer"),
            ("annotations", "-11", "a non-negative integer"),
            ("labeled_data", "-16", "a non-negative integer"),
            ("test_accuracy", "inf", "in [0, 1]"),
            ("test_accuracy", "nan", "in [0, 1]"),
            ("test_accuracy", "1.5", "in [0, 1]"),
            ("selection_seconds", "-0.5", "finite and non-negative"),
            ("train_seconds", "inf", "finite and non-negative"),
            ("train_seconds", "nan", "finite and non-negative"),
            ("pseudo_corruptions", "-3", "a non-negative integer"),
        ],
    )
    def test_cell_outside_its_domain_names_row_and_column(self, tmp_path, column, cell, domain):
        rows = self.make_rows()
        at = METRICS_HEADER.index(column)
        rows[1] = (*rows[1][:at], cell, *rows[1][at + 1 :])
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, rows)
        with pytest.raises(FormatError) as info:
            read_metrics(path)
        assert str(info.value) == (
            f"{path}: bad value in row 3, column {column}: must be {domain}, got {cell}"
        )

    def test_header_only_metrics_names_file(self, tmp_path):
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, [])
        result = CliRunner().invoke(main, ["compare", "--metrics", str(path), "--checkpoints", "6"])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_FORMAT: {path}: no rows below the header"
        ]
        assert result.stdout == ""

    def test_cli_output_table(self, tmp_path):
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, self.make_rows())
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["compare", "--metrics", str(path), "--checkpoints", "11,16", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == [
            "  ".join(f"{c:>18}" for c in row)
            for row in (
                ("strategy", "acc@11", "acc@16"),
                ("dfal", "0.6050 ± 0.0071", "0.7050 ± 0.0071"),
                ("random", "0.5050 ± 0.0071", "0.6050 ± 0.0071"),
            )
        ] + [f"wrote {tmp_path / 'compare.csv'}"]
        assert read_rows(tmp_path / "compare.csv") == [
            ["strategy", "acc@11", "sd@11", "acc@16", "sd@16"],
            ["dfal", "0.6050", "0.0071", "0.7050", "0.0071"],
            ["random", "0.5050", "0.0071", "0.6050", "0.0071"],
        ]

    def test_cli_one_seed_and_absent_checkpoint(self, tmp_path):
        rows = [r for r in self.make_rows() if r[1] == 0]
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, rows)
        args = ["compare", "--metrics", str(path), "--checkpoints", "5,16", "--target-accuracy", "0.65"]
        result = CliRunner().invoke(main, [*args, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines()[1:3] == [
            "  ".join(f"{c:>18}" for c in row)
            for row in (
                ("dfal", "absent", "0.7000 ± -", "16", "26.0"),
                ("random", "absent", "0.6000 ± -", ">=16", ">=16.0"),
            )
        ]
        assert read_rows(tmp_path / "compare.csv") == [
            ["strategy", "acc@5", "sd@5", "acc@16", "sd@16", "annotations_to_0.65", "labeled_data_to_0.65"],
            ["dfal", "absent", "absent", "0.7000", "-", "16", "26.0"],
            ["random", "absent", "absent", "0.6000", "-", ">=16", ">=16.0"],
        ]

    @pytest.mark.parametrize("target", ["nan", "7", "-0.1", "inf"])
    def test_target_accuracy_outside_unit_interval_rejected(self, tmp_path, target):
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, self.make_rows())
        args = ["compare", "--metrics", str(path), "--checkpoints", "16", "--target-accuracy"]
        result = CliRunner().invoke(main, [*args, target])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: --target-accuracy must be in [0, 1], got {float(target)}"
        ]
        # checked before the metrics file is read
        missing = ["compare", "--metrics", "nope.csv", "--target-accuracy", target]
        result = CliRunner().invoke(main, missing)
        assert result.stderr.startswith("E_CONFIG: --target-accuracy")

    @pytest.mark.parametrize("target", ["0", "1"])
    def test_target_accuracy_bounds_accepted(self, tmp_path, target):
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, self.make_rows())
        args = ["compare", "--metrics", str(path), "--checkpoints", "16", "--target-accuracy"]
        result = CliRunner().invoke(main, [*args, target])
        assert result.exit_code == 0, result.output

    def test_missing_metrics_is_config_error(self):
        runner = CliRunner()
        result = runner.invoke(main, ["compare", "--metrics", "nope.csv"])
        assert result.exit_code == 2
        assert result.stderr.startswith("E_CONFIG")


class TestTransfer:
    def test_rejects_identical_architectures(self, tmp_path):
        config = write_config(tmp_path)
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["transfer", "--config", str(config), "--selector", "arch-B", "--consumer", "arch-B"],
        )
        assert result.exit_code == 2
        assert "distinct" in result.stderr

    def test_identical_architectures_name_both_options(self, tmp_path):
        args = ["--selector", "arch-A", "--consumer", "arch-A", "--out", str(tmp_path / "o")]
        result = CliRunner().invoke(main, ["transfer", "--config", str(write_config(tmp_path)), *args])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: --consumer must differ from --selector: transfer needs two distinct "
            "architectures, got 'arch-A' for both"
        ]

    @pytest.mark.parametrize("option", ["--selector", "--consumer"])
    def test_unknown_architecture_names_option_before_loading(self, tmp_path, option):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,oops\n")  # a FormatError, were the data loaded
        config = tmp_path / "t.ini"
        config.write_text(f"[data]\nkind = csv\npath = {bad}\nclass_count = 2\n")
        archs = {"--selector": "arch-A", "--consumer": "arch-B", option: "bogus"}
        result = CliRunner().invoke(
            main, ["transfer", "--config", str(config), *(a for kv in archs.items() for a in kv)]
        )
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_CONFIG: {option} must be one of ('arch-A', 'arch-B'), got 'bogus'"
        ]

    def test_consumer_that_does_not_compose_fails_before_the_table(self, tmp_path):
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace("kind = blobs", "kind = blobs\ndimension = 16"))
        out = tmp_path / "o"
        args = ["--selector", "arch-B", "--consumer", "arch-A", "--out", str(out)]
        result = CliRunner().invoke(main, ["transfer", "--config", str(config), *args])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: --consumer: arch-A does not compose with input shape (1, 4, 4)"
        ]
        assert not (out / "transfer.csv").exists()

    def test_emits_selector_and_consumer_columns(self, tmp_path):
        path = tmp_path / "t.ini"
        path.write_text(
            QUICK_BLOBS.format(strategies="dfal", seeds="0").replace(
                "dimension = 2", ""
            ).replace("kind = blobs", "kind = blobs\ndimension = 64")
        )
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "transfer",
                "--config",
                str(path),
                "--selector",
                "arch-A",
                "--consumer",
                "arch-B",
                "--out",
                str(tmp_path / "o"),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "o" / "transfer.csv")
        assert "selector_accuracy" in rows[0] and "consumer_accuracy" in rows[0]
        strategies = {r[0] for r in rows[1:]}
        assert strategies == {"dfal", "random"}  # random added automatically
        for row in rows[1:]:
            assert 0.0 <= float(row[5]) <= 1.0
            assert 0.0 <= float(row[6]) <= 1.0


class TestRound0Reuse:
    """Every strategy of a seed starts from one round-0 network, trained once."""

    # table -> (command, header, networks trained per round)
    TABLES = {
        "metrics.csv": (["run"], METRICS_HEADER, 1),
        "transfer.csv": (
            ["transfer", "--selector", "arch-B", "--consumer", "arch-A"],
            TRANSFER_HEADER,
            2,
        ),
    }

    @pytest.mark.parametrize("table", TABLES)
    def test_tables_match_runs_from_a_cold_memo(self, tmp_path, monkeypatch, table):
        command, header, per_round = self.TABLES[table]
        config = write_config(tmp_path, strategies="dfal,random", seeds="0,1")
        text = config.read_text()
        config.write_text(text.replace("kind = blobs", "kind = blobs\ndimension = 64"))
        timed = {header.index("selection_seconds"), header.index("train_seconds")}
        trainings = count_calls(monkeypatch, "train")

        def run(out):
            trainings.clear()
            args = [*command, "--config", str(config), "--out", str(out)]
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
            header_row, *rows = read_rows(out / table)
            assert header_row == list(header)
            untimed = [[v for i, v in enumerate(r) if i not in timed] for r in rows]
            return untimed, trainings["train"]

        warm, warm_trainings = run(tmp_path / "warm")
        run_active_learning = adval.experiments.run_active_learning

        def cold_run(*args, **kwargs):
            adval.loop._round0_memo.clear()
            return run_active_learning(*args, **kwargs)

        monkeypatch.setattr(adval.experiments, "run_active_learning", cold_run)
        cold, cold_trainings = run(tmp_path / "cold")
        assert warm == cold
        # the second strategy of each of the two seeds reuses its round-0 networks
        assert cold_trainings - warm_trainings == 2 * per_round
        for seed in ("0", "1"):
            round0 = [r[1:] for r in warm if r[1] == seed and r[2] == "0"]
            assert len(round0) == 2 and round0[0] == round0[1]

    def round0_only_config(self, tmp_path, seeds):
        """Two strategies over ``seeds``, on 64-dimensional blobs, with no round after round 0."""
        config = write_config(tmp_path, strategies="dfal,random", seeds=",".join(map(str, seeds)))
        text = config.read_text().replace("kind = blobs", "kind = blobs\ndimension = 64")
        config.write_text(text.replace("budget = 16", "budget = 6"))
        return load_experiment_config(config)

    def test_grid_beyond_the_memo_reuses_its_first_networks(self, tmp_path, monkeypatch):
        bound = adval.loop._MEMO_SIZE
        cfg = self.round0_only_config(tmp_path, range(bound + 1))
        trainings = count_calls(monkeypatch, "train")
        assert sum(len(run) for run in run_grid(cfg)) == 2 * (bound + 1)
        # the second strategy trains only the seed the full memo did not admit
        assert trainings == {"train": bound + 2}

    def test_transfer_beyond_the_memo_reuses_its_first_networks(self, tmp_path, monkeypatch):
        cfg = self.round0_only_config(tmp_path, range(9))  # 18 round-0 networks a strategy
        trainings = count_calls(monkeypatch, "train")
        assert sum(len(run) for run in run_transfer(cfg, "arch-B", "arch-A")) == 2 * 9
        assert trainings == {"train": 18 + 2}

    def test_timing_times_the_runs_round0_network(self, tmp_path, monkeypatch):
        cfg = load_experiment_config(write_config(tmp_path, strategies="dfal,coreset"))
        list(run_grid(cfg))
        trainings = count_calls(monkeypatch, "train")
        rows = run_timing(cfg, [cfg.active.initial_labeled], 1)
        assert [r[:3] for r in rows] == [("dfal", 6, 1), ("coreset", 6, 1)]
        assert trainings["train"] == 0


class TestProgressLines:
    """``run`` and ``transfer`` print one line per finished run, then the table's path."""

    # table -> (command, header, printed name, column it reports)
    TABLES = {
        "metrics.csv": (["run"], METRICS_HEADER, "final_accuracy", "test_accuracy"),
        "transfer.csv": (
            ["transfer", "--selector", "arch-B", "--consumer", "arch-A"],
            TRANSFER_HEADER,
            "consumer_accuracy",
            "consumer_accuracy",
        ),
    }

    @pytest.mark.parametrize("table", TABLES)
    def test_done_lines_report_each_runs_last_row(self, tmp_path, table):
        command, header, name, column = self.TABLES[table]
        config = write_config(tmp_path, strategies="dfal,random", seeds="0,1")
        text = config.read_text()
        config.write_text(text.replace("kind = blobs", "kind = blobs\ndimension = 64"))
        out = tmp_path / "o"
        result = CliRunner().invoke(main, [*command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        _, *rows = read_rows(out / table)
        last = {}
        for row in rows:
            last[row[0], row[1]] = row
        assert list(last) == [(s, seed) for s in ("dfal", "random") for seed in ("0", "1")]
        done = [
            f"done {s} seed={seed} {name}={float(row[header.index(column)]):.4f}"
            for (s, seed), row in last.items()
        ]
        assert result.stdout.splitlines() == [*done, f"wrote {out / table}"]


class TestTiming:
    def test_one_row_per_strategy_size(self, tmp_path):
        config = write_config(tmp_path, strategies="dfal,coreset")
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "timing",
                "--config",
                str(config),
                "--sizes",
                "20,40",
                "--reps",
                "2",
                "--out",
                str(tmp_path / "o"),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "o" / "timing.csv")
        assert len(rows) == 5  # header + 2 strategies x 2 sizes
        assert {(r[0], r[1]) for r in rows[1:]} == {
            ("dfal", "20"),
            ("dfal", "40"),
            ("coreset", "20"),
            ("coreset", "40"),
        }

    def test_stdout_is_one_line_per_row_then_the_table(self, tmp_path, monkeypatch):
        rows = [("dfal", 10, 2, 0.012345), ("dfal", 20, 2, 0.5), ("random", 10, 2, 1.99999)]
        monkeypatch.setattr(adval.cli, "run_timing", lambda cfg, sizes, repetitions: rows)
        out = tmp_path / "o"
        args = ["timing", "--config", str(write_config(tmp_path)), "--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == [
            "dfal |L|=10 reps=2 mean_selection=0.0123s",
            "dfal |L|=20 reps=2 mean_selection=0.5000s",
            "random |L|=10 reps=2 mean_selection=2.0000s",
            f"wrote {out / 'timing.csv'}",
        ]
        assert read_rows(out / "timing.csv") == [
            ["strategy", "labeled_size", "repetitions", "mean_selection_seconds"],
            ["dfal", "10", "2", "0.012345"],
            ["dfal", "20", "2", "0.500000"],
            ["random", "10", "2", "1.999990"],
        ]

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_every_strategy_can_be_timed(self, tmp_path, strategy):
        cfg = load_experiment_config(write_config(tmp_path, strategies=strategy))
        rows = run_timing(cfg, [20], repetitions=1)
        assert len(rows) == 1
        name, size, reps, mean_s = rows[0]
        assert (name, size, reps) == (strategy, 20, 1)
        assert mean_s > 0

    def test_sizes_must_rise_strictly(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match=r"--sizes must be strictly ascending, got \[20, 20\]"):
            run_timing(cfg, [20, 20], repetitions=1)

    def test_descending_sizes_rejected(self, tmp_path):
        config = write_config(tmp_path)
        runner = CliRunner()
        result = runner.invoke(
            main, ["timing", "--config", str(config), "--sizes", "40,20"]
        )
        assert result.exit_code == 2
        assert "ascending" in result.stderr

    def test_size_beyond_the_pool_fails_before_any_training(self, tmp_path, monkeypatch):
        trained = []
        train_round = adval.experiments.train_round
        monkeypatch.setattr(
            adval.experiments, "train_round", lambda *args: trained.append(args) or train_round(*args)
        )
        cfg = load_experiment_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match=r"^--sizes 1000: must be below the pool's 120 samples$"):
            run_timing(cfg, [6, 1000], repetitions=1)
        assert trained == []

    def test_labeled_size_below_class_count_names_option(self, tmp_path):
        config = write_config(tmp_path)
        result = CliRunner().invoke(
            main, ["timing", "--config", str(config), "--sizes", "2", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: --sizes 2: 2 labels cannot cover 3 classes"
        ]

    def test_initial_labeled_below_class_count_still_times(self, tmp_path):
        config = write_config(tmp_path, strategies="dfal,coreset")
        config.write_text(config.read_text().replace("initial_labeled = 6", "initial_labeled = 2"))
        rows = run_timing(load_experiment_config(config), [20], repetitions=1)
        assert [r[:3] for r in rows] == [("dfal", 20, 1), ("coreset", 20, 1)]

    def test_times_experiment_strategies_in_config_order(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path, strategies="random,egl,dfal"))
        rows = run_timing(cfg, [10, 20], repetitions=1)
        want = [(s, size) for s in ("random", "egl", "dfal") for size in (10, 20)]
        assert [r[:2] for r in rows] == want

    def test_zero_repetitions_names_option(self, tmp_path):
        config = write_config(tmp_path)
        result = CliRunner().invoke(
            main, ["timing", "--config", str(config), "--reps", "0", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == ["E_CONFIG: --reps must be positive, got 0"]
