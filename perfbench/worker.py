"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--t0 T] [--setup-only] [--trace] [--no-reference]

``run.py`` starts it with the BLAS thread count pinned in the environment and
passes ``--t0``, its ``time.monotonic()`` just before the start, so that
``setup_s`` covers interpreter start, imports, data generation and network
build. The last line of standard output is one JSON object. Exit code 3 means
the program under test could not be imported or its inputs not set up.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402 - the start time is taken before any import
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_FAILED = 3
PROBE_POOL = 2000


def import_program():
    """Import adval from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import adval

    if Path(adval.__file__).resolve().parent != ROOT / "src" / "adval":
        raise ImportError(f"adval imported from {adval.__file__}, not from {ROOT / 'src'}")


def entropy_peak_mb(config, train) -> float:
    """Peak traced memory of ``entropy_scores`` on a pool of PROBE_POOL inputs.

    Its own small probe: tracemalloc over the whole run would slow it about 2x.
    """
    from adval import init_network
    from adval.strategies import entropy_scores

    net = init_network(config.network)
    pool = train.inputs[:PROBE_POOL]
    tracemalloc.start()
    try:
        entropy_scores(net, pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=T_START)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--no-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        import_program()
        from tracing import Tracer, layer_metrics
        from workloads import (
            REFERENCE_SEED,
            WORKLOADS,
            build_configs,
            final_accuracy,
            load_reference,
            make_datasets,
            run_strategy,
        )
    except ImportError as exc:
        print(f"setup failed: {exc!r}", file=sys.stderr)
        return SETUP_FAILED
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    t = time.perf_counter()
    train, test = make_datasets(w, args.seed)
    data_s = time.perf_counter() - t
    configs = build_configs(w, args.seed, train)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = None
    if args.seed == REFERENCE_SEED and not args.no_reference:
        reference = load_reference().get(w.name, {})
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    run_start = time.monotonic()
    outcomes = {}
    for sid, cfg in configs.items():
        if tracer:
            tracer.run_id = f"{w.name}/{args.seed}/{sid}"
        expected = None if reference is None else reference.get(sid, [])
        outcomes[sid] = run_strategy(w, cfg, train, test, expected)
    run_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    failed = sum(o.failed_rounds for o in outcomes.values())
    problems = [p for o in outcomes.values() for p in o.problems]
    accuracy = final_accuracy(outcomes)
    if accuracy < w.accuracy_floor:
        # The floor judges each strategy's last round.
        failed = min(w.planned_rounds(), failed + len(outcomes))
        problems.append(f"final_accuracy {accuracy:.4f} below floor {w.accuracy_floor}")

    records = [r for o in outcomes.values() for r in o.records]
    result = {
        "setup_s": setup_s,
        "run_s": run_end - run_start,
        "train_s": sum(r.train_seconds for r in records),
        "select_s": sum(r.selection_seconds for r in records),
        "peak_rss_mb": peak_rss_mb,
        "final_accuracy": accuracy,
        "failed_rounds": failed,
        "problems": problems[:20],
        "digests": {sid: o.digests for sid, o in outcomes.items()},
    }
    if tracer:
        peak_mb = entropy_peak_mb(next(iter(configs.values())), train)
        result["per_layer"] = layer_metrics(tracer, outcomes, data_s, peak_mb)
        _, own, _ = tracer.totals()
        result["self_s"] = dict(sorted(own.items(), key=lambda kv: -kv[1]))
        tracer.write(HERE / "out" / f"spans-{w.name}.jsonl")  # the latest traced run only
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
