"""Benchmark of the adval active-learning loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save FILE]
    python3 perfbench/run.py --workload all --seed 0 1 --save results.jsonl
    python3 perfbench/run.py --record-reference
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Load is a closed loop from one process: every repetition of a workload is a
fresh worker process (``worker.py``) started only after the previous one has
ended, so one experiment runs at a time. Each worker has its BLAS thread count
pinned to ``BLAS_THREADS`` through the environment.

``--trace 0`` first times ``SETUP_SAMPLES`` set-ups on their own, then repeats
the workload's fixed run ``MIN_REPS`` times and after that while another
repetition still fits in ``--seconds``, and reports the median of every
end-to-end metric. ``--trace 1`` makes one untraced and one traced repetition
and reports the traced per-layer metrics,
plus the tracing overhead: traced ``run_s`` minus untraced ``run_s``. Spans are
written to ``perfbench/out/``.

Every repetition checks its own rounds (see ``workloads.py``); repetitions of
one seed must also agree on every digest. The last line of standard output is
one JSON object with ``correct``, ``attempted`` and ``failed`` (both in
rounds) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import summary
from tracing import DERIVED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One OpenBLAS thread ran images-dfal faster than two (14.5-15.1 s against
# 15.9-18.2 s on 2 cores) with identical accuracies.
BLAS_THREADS = 1
SETUP_SAMPLES = 3
# A median of one repetition keeps all of its noise; the longest workload
# (images-poolscan, about 15 s a repetition) would otherwise often get one.
MIN_REPS = 2
WORKER_TIMEOUT_S = 170
SETUP_FAILED = 3

UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "train_s": "s",
    "select_s": "s",
    "peak_rss_mb": "MB",
    "final_accuracy": "ratio",
    "rounds_ok_frac": "ratio",
}


class SetupFailed(RuntimeError):
    """The program under test could not be imported or set up."""


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": min(BLAS_THREADS, nproc),
    }


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_worker(args: list[str], env: dict) -> dict | None:
    """Run one worker to completion; its JSON result, or None if it crashed or timed out."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:  # run() has already killed and reaped the worker
        print(f"worker timed out: {' '.join(args)}", file=sys.stderr)
        return None
    if proc.returncode == SETUP_FAILED:
        raise SetupFailed(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def tally(w, reps: list[dict | None]) -> tuple[int, int, list[str], bool]:
    """(attempted, failed, problems, consistent) over repetitions of one seed."""
    planned = w.planned_rounds()
    done = [r for r in reps if r is not None]
    failed = sum(r["failed_rounds"] for r in done) + planned * (len(reps) - len(done))
    problems = [p for r in done for p in r["problems"]]
    consistent = all(r["digests"] == done[0]["digests"] for r in done)
    if not consistent:
        problems.append("repetitions of one seed disagree on round digests")
    return planned * len(reps), failed, problems, consistent


def measure(w, seed: int, seconds: float, env: dict) -> dict:
    """Timed run: end-to-end metrics as medians over repetitions."""
    start = time.monotonic()
    base = ["--workload", w.name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_SAMPLES):
        rep = run_worker(base + ["--setup-only"], env)
        if rep is None:
            raise SetupFailed(f"set-up of {w.name} failed")
        setups.append(rep["setup_s"])
    reps: list[dict | None] = []
    longest = 0.0
    while len(reps) < MIN_REPS or time.monotonic() - start + longest <= seconds:
        t = time.monotonic()
        reps.append(run_worker(base, env))
        longest = max(longest, time.monotonic() - t)
    done = [r for r in reps if r is not None]
    if not done:
        raise RuntimeError(f"every repetition of {w.name} crashed")
    planned = w.planned_rounds()
    samples = {name: [r[name] for r in done] for name in UNITS if name in done[0]}
    samples["setup_s"] = setups + samples["setup_s"]
    samples["rounds_ok_frac"] = [(planned - r["failed_rounds"]) / planned for r in done]
    samples["rounds_ok_frac"] += [0.0] * (len(reps) - len(done))
    attempted, failed, problems, consistent = tally(w, reps)
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": samples,
        "metrics": {name: statistics.median(v) for name, v in samples.items()},
        "units": dict(UNITS),
    }


def measure_traced(w, seed: int, env: dict, per_layer: list[dict]) -> dict:
    """Traced run: per-layer metrics of one traced repetition, next to an untraced one."""
    base = ["--workload", w.name, "--seed", str(seed)]
    plain = run_worker(base, env)
    traced = run_worker(base + ["--trace"], env)
    if plain is None or traced is None:
        raise RuntimeError(f"a repetition of {w.name} crashed")
    attempted, failed, problems, consistent = tally(w, [plain, traced])
    metrics = dict(traced["per_layer"])
    metrics["trace.run_s"] = traced["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {name: [v] for name, v in metrics.items()},
        "metrics": {m["name"]: metrics[m["name"]] for m in per_layer},
        "units": {m["name"]: m["unit"] for m in per_layer},
        "self_s": traced["self_s"],
    }


def print_report(name: str, seed: int, result: dict) -> None:
    status = "correct" if result["correct"] else "INCORRECT"
    print(
        f"== {name} seed {seed}: {status}, {result['failed']} of "
        f"{result['attempted']} rounds failed"
    )
    for problem in result["problems"][:10]:
        print(f"   problem: {problem}")
    print(f"   {'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for metric, unit in result["units"].items():
        q1, med, q3 = summary(result["samples"][metric])
        n = len(result["samples"][metric])
        derived = " (derived)" if metric in DERIVED else ""
        print(f"   {metric:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {n:3d}  {unit}{derived}")
    if "self_s" in result:
        print("   top self time (s):")
        for span, secs in list(result["self_s"].items())[:8]:
            print(f"     {span:50} {secs:10.4f}")


def record_reference(workloads, env: dict, reference_seed: int, path: Path) -> int:
    """Rewrite the committed per-round digests from one clean run per workload."""
    reference = {}
    for w in workloads.values():
        rep = run_worker(["--workload", w.name, "--seed", str(reference_seed), "--no-reference"], env)
        if rep is None or rep["failed_rounds"]:
            print(f"{w.name}: run not clean, reference not written", file=sys.stderr)
            return 1
        reference[w.name] = rep["digests"]
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="adval active-learning benchmark")
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="append one JSON record per workload and seed")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        from worker import import_program

        import_program()
        from workloads import REFERENCE_PATH, REFERENCE_SEED, WORKLOADS
    except (OSError, ImportError) as exc:
        print(f"cannot set up the benchmark here: {exc!r}", file=sys.stderr)
        return 2
    env_info = environment()
    env = worker_env(env_info["blas_threads"])
    if args.record_reference:
        return record_reference(WORKLOADS, env, REFERENCE_SEED, REFERENCE_PATH)
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected 'all' or one of {sorted(WORKLOADS)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print("env: " + json.dumps(env_info))

    results = []
    try:
        for name in names:
            for seed in args.seed:
                if args.trace:
                    result = measure_traced(WORKLOADS[name], seed, env, spec["per_layer"])
                else:
                    result = measure(WORKLOADS[name], seed, seconds, env)
                print_report(name, seed, result)
                results.append((name, seed, result))
                if args.save:
                    record = {"workload": name, "seed": seed, "trace": args.trace, "env": env_info}
                    record.update(result)
                    with open(args.save, "a", encoding="utf-8") as f:
                        f.write(json.dumps(record) + "\n")
    except RuntimeError as exc:  # includes SetupFailed
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0][2]["metrics"]
        units = results[0][2]["units"]
    else:
        metrics = {f"{n}.{s}.{m}": v for n, s, r in results for m, v in r["metrics"].items()}
        units = {f"{n}.{s}.{m}": u for n, s, r in results for m, u in r["units"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for _, _, r in results),
                "attempted": sum(r["attempted"] for _, _, r in results),
                "failed": sum(r["failed"] for _, _, r in results),
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
