"""Command-line experiment driver.

Subcommands::

    adval run      --config cfg.ini [--out DIR] [--seeds 0,1] [--strategies a,b]
    adval compare  --metrics DIR/metrics.csv --checkpoints 100,500,800,1000
    adval transfer --config cfg.ini --selector arch-A --consumer arch-B [--out DIR]
    adval timing   --config cfg.ini --sizes 100,1000 [--reps 5] [--out DIR]

Failures exit nonzero with a single machine-parsable line on stderr:
``E_<CODE>: human-readable message``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from functools import wraps
from pathlib import Path

import click

from adval.config import load_experiment_config, parse_int_list, parse_strategy_list
from adval.errors import (
    AdvalError,
    ConfigError,
    FormatError,
    InputError,
    PoolInvariantError,
    UnsupportedArchitectureError,
)
from adval.experiments import (
    METRICS_HEADER,
    TIMING_HEADER,
    TRANSFER_HEADER,
    compare_metrics,
    read_metrics,
    run_grid,
    run_timing,
    run_transfer,
    write_table,
)
from adval.nn.architectures import ARCHITECTURES

_ERROR_CODES = (
    (ConfigError, "E_CONFIG"),
    (FormatError, "E_FORMAT"),
    (UnsupportedArchitectureError, "E_ARCH"),
    (InputError, "E_INPUT"),
    (PoolInvariantError, "E_INVARIANT"),
    (AdvalError, "E_RUNTIME"),
    (OSError, "E_IO"),
)


def _error_code(exc: Exception) -> str:
    for etype, code in _ERROR_CODES:
        if isinstance(exc, etype):
            return code
    return "E_UNEXPECTED"


def friendly_errors(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - single exit path for the CLI
            message = str(exc).replace("\n", " ")
            click.echo(f"{_error_code(exc)}: {message}", err=True)
            sys.exit(2)

    return wrapper


def _out_dir(path) -> Path:
    """The output directory, made before a command runs so that a bad ``--out`` fails first."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _apply_overrides(cfg, seeds: str | None, strategies: str | None):
    if seeds is not None:
        cfg = replace(cfg, seeds=parse_int_list(seeds, "--seeds"))
    if strategies is not None:
        cfg = replace(cfg, strategies=parse_strategy_list(strategies))
    return cfg


@click.group()
def main():
    """Margin-based active learning experiments."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Experiment config file.")
@click.option("--out", "out_dir", default="runs", show_default=True, help="Output directory.")
@click.option("--seeds", default=None, help="Override experiment.seeds (comma list).")
@click.option("--strategies", default=None, help="Override experiment.strategies (comma list).")
@friendly_errors
def run(config_path, out_dir, seeds, strategies):
    """Run the strategy x seed grid and write metrics.csv."""
    cfg = _apply_overrides(load_experiment_config(config_path), seeds, strategies)
    out = _out_dir(out_dir)

    def progress(strategy, seed, final_acc):
        click.echo(f"done {strategy} seed={seed} final_accuracy={final_acc:.4f}")

    rows = run_grid(cfg, progress=progress)
    path = write_table(out / "metrics.csv", METRICS_HEADER, rows)
    click.echo(f"wrote {path}")


@main.command()
@click.option("--metrics", "metrics_path", required=True, type=click.Path(), help="metrics.csv from `run`.")
@click.option("--checkpoints", default="100,500,800,1000", show_default=True, help="Annotation counts.")
@click.option("--target-accuracy", type=float, default=None, help="Report cost to first reach this accuracy.")
@click.option("--out", "out_dir", default=None, help="Also write compare.csv here.")
@friendly_errors
def compare(metrics_path, checkpoints, target_accuracy, out_dir):
    """Summarize mean accuracy per strategy at annotation checkpoints."""
    cps = parse_int_list(checkpoints, "--checkpoints")
    if target_accuracy is not None and not 0.0 <= target_accuracy <= 1.0:  # NaN fails too
        raise ConfigError(f"--target-accuracy must be in [0, 1], got {target_accuracy}")
    rows = read_metrics(metrics_path)
    summaries = compare_metrics(rows, cps, target_accuracy)

    header = ["strategy", *[f"acc@{cp}" for cp in cps]]
    if target_accuracy is not None:
        header += [f"annotations_to_{target_accuracy}", f"labeled_data_to_{target_accuracy}"]
    click.echo("  ".join(f"{h:>18}" for h in header))
    out_rows = []
    for s in summaries:
        cells = [s.strategy]
        for cp in cps:
            value = s.checkpoint_accuracy[cp]
            cells.append("absent" if value is None else f"{value:.4f}")
        if target_accuracy is not None:
            prefix = "" if s.target_reached else ">="
            cells.append(f"{prefix}{s.target_annotations}")
            cells.append(f"{prefix}{s.target_labeled_data:.1f}")
        click.echo("  ".join(f"{c:>18}" for c in cells))
        out_rows.append(tuple(cells))
    if out_dir is not None:
        path = write_table(_out_dir(out_dir) / "compare.csv", tuple(header), out_rows)
        click.echo(f"wrote {path}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Experiment config file.")
@click.option("--selector", required=True, help="Architecture that selects the queries.")
@click.option("--consumer", required=True, help="Architecture retrained on the selected data.")
@click.option("--out", "out_dir", default="runs", show_default=True)
@click.option("--seeds", default=None, help="Override experiment.seeds (comma list).")
@friendly_errors
def transfer(config_path, selector, consumer, out_dir, seeds):
    """Measure how queries chosen by one architecture train another."""
    for option, arch in (("--selector", selector), ("--consumer", consumer)):
        if arch not in ARCHITECTURES:
            raise ConfigError(f"{option} must be one of {ARCHITECTURES}, got {arch!r}")
    cfg = _apply_overrides(load_experiment_config(config_path), seeds, None)
    out = _out_dir(out_dir)

    def progress(strategy, seed, final_consumer_acc):
        click.echo(f"done {strategy} seed={seed} consumer_accuracy={final_consumer_acc:.4f}")

    rows = run_transfer(cfg, selector, consumer, progress=progress)
    path = write_table(out / "transfer.csv", TRANSFER_HEADER, rows)
    click.echo(f"wrote {path}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Experiment config file.")
@click.option("--sizes", default="100,1000", show_default=True, help="Labeled-set sizes (ascending).")
@click.option("--reps", type=int, default=5, show_default=True, help="Selection repetitions per size.")
@click.option("--out", "out_dir", default="runs", show_default=True)
@friendly_errors
def timing(config_path, sizes, reps, out_dir):
    """Time query selection at several labeled-set sizes."""
    cfg = load_experiment_config(config_path)
    size_list = parse_int_list(sizes, "--sizes")
    out = _out_dir(out_dir)
    rows = run_timing(cfg, size_list, repetitions=reps)
    for strategy, size, n, mean_s in rows:
        click.echo(f"{strategy} |L|={size} reps={n} mean_selection={mean_s:.4f}s")
    path = write_table(out / "timing.csv", TIMING_HEADER, rows)
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
