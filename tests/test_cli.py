"""CLI commands, config parsing, and metrics files."""

import csv
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from adval.cli import main
from adval.config import load_experiment_config, prepare_for_archs
from adval.data import SyntheticSpec, gen_blobs
from adval.errors import ConfigError
from adval.experiments import (
    METRICS_HEADER,
    compare_metrics,
    read_metrics,
    run_grid,
    run_timing,
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

    def test_missing_csv_path_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\nkind = csv\npath = does-not-exist.csv\nclass_count = 2\n")
        with pytest.raises(ConfigError, match="does not exist"):
            load_experiment_config(path)

    def test_conv_arch_gets_image_view(self):
        train = gen_blobs(SyntheticSpec(class_count=2, points_per_class=10, dimension=64, seed=0))
        test = gen_blobs(SyntheticSpec(class_count=2, points_per_class=5, dimension=64, seed=1))
        a, b = prepare_for_archs(train, test, ("arch-A", "arch-B"))
        assert a.input_shape == (1, 8, 8)
        assert b.input_shape == (1, 8, 8)
        c, d = prepare_for_archs(train, test, ("arch-B",))
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
        rows = run_grid(cfg)
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
            "E_CONFIG: initial_labeled: 500 labels exceed the pool's 120 samples"
        ]

    def test_config_error_exit_code_and_single_line(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "missing.ini")])
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("E_CONFIG: ")


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

    def test_cli_output_table(self, tmp_path):
        path = write_table(tmp_path / "metrics.csv", METRICS_HEADER, self.make_rows())
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["compare", "--metrics", str(path), "--checkpoints", "11,16", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert "dfal" in result.output
        saved = read_rows(tmp_path / "compare.csv")
        assert saved[0][0] == "strategy"

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


class TestTiming:
    def test_one_row_per_strategy_size(self, tmp_path):
        config = write_config(tmp_path)
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

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_every_strategy_can_be_timed(self, tmp_path, strategy):
        cfg = load_experiment_config(write_config(tmp_path))
        rows = run_timing(cfg, [20], repetitions=1, strategies=(strategy,))
        assert len(rows) == 1
        name, size, reps, mean_s = rows[0]
        assert (name, size, reps) == (strategy, 20, 1)
        assert mean_s > 0

    def test_descending_sizes_rejected(self, tmp_path):
        config = write_config(tmp_path)
        runner = CliRunner()
        result = runner.invoke(
            main, ["timing", "--config", str(config), "--sizes", "40,20"]
        )
        assert result.exit_code == 2
        assert "ascending" in result.stderr

    def test_labeled_size_below_class_count_names_option(self, tmp_path):
        config = write_config(tmp_path)
        result = CliRunner().invoke(
            main, ["timing", "--config", str(config), "--sizes", "2", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: --sizes 2: 2 labels cannot cover 3 classes"
        ]

    def test_zero_repetitions_names_option(self, tmp_path):
        config = write_config(tmp_path)
        result = CliRunner().invoke(
            main, ["timing", "--config", str(config), "--reps", "0", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == ["E_CONFIG: --reps must be positive, got 0"]
