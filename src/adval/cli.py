"""Command-line experiment driver.

Subcommands::

    adval run      --config cfg.ini [--out DIR] [--seeds 0,1] [--strategies a,b]
    adval compare  --metrics DIR/metrics.csv --checkpoints 100,500,800,1000
    adval transfer --config cfg.ini --selector arch-A --consumer arch-B [--out DIR]
    adval timing   --config cfg.ini --sizes 100,1000 [--reps 5] [--out DIR]

``run``, ``transfer`` and ``timing`` write their tables through one writer,
which prints one line as each run finishes, then the table's path; each of
``timing``'s rows is a run of its own. ``timing`` times the selection of each
strategy in ``experiment.strategies``.

Failures exit nonzero with one machine-parsable line on stderr,
``E_<CODE>: human-readable message``, and it is the last stderr line. A
warning the library logs may come before it, such as DFAL's "all N
adversarial attacks failed; falling back to random selection". ``_Commands``
is the one place a failure becomes its ``E_`` line, a command line that click
cannot parse included (``E_CONFIG: `` and click's own message).
"""

from __future__ import annotations

import sys
from dataclasses import replace
from itertools import chain, islice
from pathlib import Path
from typing import NoReturn

import click

from adval.config import load_experiment_config, parse_int_list, parse_strategy_list
from adval.errors import (
    AdvalError,
    ConfigError,
    FormatError,
    InputError,
    PoolInvariantError,
    UnsupportedArchitectureError,
    prefixed,
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
    (MemoryError, "E_MEMORY"),
)


def _error_code(exc: Exception) -> str:
    for etype, code in _ERROR_CODES:
        if isinstance(exc, etype):
            return code
    return "E_UNEXPECTED"


def _exit_with(exc: Exception) -> NoReturn:
    """The single exit path for a failure: its one ``E_`` line on stderr, then exit 2."""
    message = str(exc).replace("\n", " ")
    click.echo(f"{_error_code(exc)}: {message}", err=True)
    sys.exit(2)


class _Commands(click.Group):
    """The subcommands, and the one place a failure becomes its ``E_`` line (``_ERROR_CODES``).

    A command line click cannot parse fails as ``E_CONFIG`` with click's own
    message; ``--help`` and bare ``adval`` still get click's usage text.
    """

    def parse_args(self, ctx, args):
        bare = not args  # read first: click's parser consumes ``args``
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:  # an unknown option before the subcommand
            if bare:  # bare ``adval``: click 8.2+ raises its help as a usage error
                raise
            _exit_with(ConfigError(exc.format_message()))

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:  # a bad option value, a missing option, an unknown subcommand
            _exit_with(ConfigError(exc.format_message()))
        except click.exceptions.Exit:  # --help
            raise
        except Exception as exc:  # noqa: BLE001 - the single exit path
            _exit_with(exc)


def _out_dir(path) -> Path:
    """The output directory, made before a command runs so that a bad ``--out`` fails first."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_runs(path: Path, header, runs, done: str) -> None:
    """Write each run's rows to ``path``, then echo ``done`` formatted with its last row.

    ``done`` names the row's fields by their ``header`` names. ``runs`` has
    loaded its data already, and the first run finishes before ``path`` is
    opened, so a data error or an error at the first run's start leaves no
    table behind, and a file already at ``path`` as it was. A later run's
    failure keeps the rows of every run before it.
    """
    runs = iter(runs)
    first = list(islice(runs, 1))

    def rows():
        for run in chain(first, runs):
            yield from run
            click.echo(done.format_map(dict(zip(header, run[-1]))))

    click.echo(f"wrote {write_table(path, header, rows())}")


def _apply_overrides(cfg, seeds: str | None, strategies: str | None):
    if seeds is not None:
        cfg = replace(cfg, seeds=parse_int_list(seeds, "--seeds"))
    if strategies is not None:
        cfg = replace(cfg, strategies=parse_strategy_list(strategies, "--strategies"))
    return cfg


@click.group(cls=_Commands)
def main():
    """Margin-based active learning experiments."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Experiment config file.")
@click.option("--out", "out_dir", default="runs", show_default=True, help="Output directory.")
@click.option("--seeds", default=None, help="Override experiment.seeds (comma list).")
@click.option("--strategies", default=None, help="Override experiment.strategies (comma list).")
def run(config_path, out_dir, seeds, strategies):
    """Run the strategy x seed grid and write metrics.csv."""
    cfg = _apply_overrides(load_experiment_config(config_path), seeds, strategies)
    out = _out_dir(out_dir)
    done = "done {strategy} seed={seed} final_accuracy={test_accuracy:.4f}"
    _write_runs(out / "metrics.csv", METRICS_HEADER, run_grid(cfg), done)


@main.command()
@click.option("--metrics", "metrics_path", required=True, type=click.Path(), help="metrics.csv from `run`.")
@click.option("--checkpoints", default="100,500,800,1000", show_default=True, help="Annotation counts.")
@click.option("--target-accuracy", type=float, default=None, help="Report cost to first reach this accuracy.")
@click.option("--out", "out_dir", default=None, help="Also write compare.csv here.")
def compare(metrics_path, checkpoints, target_accuracy, out_dir):
    """Summarize mean accuracy per strategy at annotation checkpoints."""
    cps = parse_int_list(checkpoints, "--checkpoints")
    if target_accuracy is not None and not 0.0 <= target_accuracy <= 1.0:  # NaN fails too
        raise ConfigError(f"--target-accuracy must be in [0, 1], got {target_accuracy}")
    rows = read_metrics(metrics_path)
    with prefixed(FormatError, f"{metrics_path}: "):  # rounds that do not line up across seeds
        summaries = compare_metrics(rows, cps, target_accuracy)

    header = ["strategy", *[f"acc@{cp}" for cp in cps]]
    if target_accuracy is not None:
        header += [f"annotations_to_{target_accuracy}", f"labeled_data_to_{target_accuracy}"]
    click.echo("  ".join(f"{h:>18}" for h in header))
    out_rows = []
    for s in summaries:
        values = (s.checkpoint_accuracy[cp] for cp in cps)
        cells = [s.strategy, *("absent" if v is None else f"{v:.4f}" for v in values)]
        if target_accuracy is not None:
            prefix = "" if s.target_reached else ">="
            cells += [f"{prefix}{s.target_annotations}", f"{prefix}{s.target_labeled_data:.1f}"]
        click.echo("  ".join(f"{c:>18}" for c in cells))
        out_rows.append(cells)
    if out_dir is not None:
        click.echo(f"wrote {write_table(_out_dir(out_dir) / 'compare.csv', header, out_rows)}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Experiment config file.")
@click.option("--selector", required=True, help="Architecture that selects the queries.")
@click.option("--consumer", required=True, help="Architecture retrained on the selected data.")
@click.option("--out", "out_dir", default="runs", show_default=True)
@click.option("--seeds", default=None, help="Override experiment.seeds (comma list).")
def transfer(config_path, selector, consumer, out_dir, seeds):
    """Measure how queries chosen by one architecture train another."""
    for option, arch in (("--selector", selector), ("--consumer", consumer)):
        if arch not in ARCHITECTURES:
            raise ConfigError(f"{option} must be one of {ARCHITECTURES}, got {arch!r}")
    cfg = _apply_overrides(load_experiment_config(config_path), seeds, None)
    out = _out_dir(out_dir)
    done = "done {strategy} seed={seed} consumer_accuracy={consumer_accuracy:.4f}"
    _write_runs(out / "transfer.csv", TRANSFER_HEADER, run_transfer(cfg, selector, consumer), done)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Experiment config file.")
@click.option("--sizes", default="100,1000", show_default=True, help="Labeled-set sizes (strictly ascending).")
@click.option("--reps", type=int, default=5, show_default=True, help="Selection repetitions per size.")
@click.option("--out", "out_dir", default="runs", show_default=True)
def timing(config_path, sizes, reps, out_dir):
    """Time the query selection of each of experiment.strategies at several labeled-set sizes."""
    cfg = load_experiment_config(config_path)
    size_list = parse_int_list(sizes, "--sizes")
    out = _out_dir(out_dir)
    runs = ([row] for row in run_timing(cfg, size_list, repetitions=reps))
    done = "{strategy} |L|={labeled_size} reps={repetitions} mean_selection={mean_selection_seconds:.4f}s"
    _write_runs(out / "timing.csv", TIMING_HEADER, runs, done)


if __name__ == "__main__":
    main()
