"""The 60k-pool scale check: one round of every strategy on MNIST-sized input.

Marked ``scale`` and deselected by default (``addopts`` in pyproject.toml);
run it with ``python -m pytest -m scale``. The round runs in a child process,
so its peak resident memory is that of the run alone, not of the test session.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.scale

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT_MB = 2048

CHILD = """
import json, resource, time

import numpy as np

from adval.data import Dataset
from adval.loop import ActiveConfig, run_active_learning
from adval.nn import build_network
from adval.strategies import STRATEGY_IDS

SHAPE = (1, 28, 28)
CLASSES = 10


def images(n, seed, block=4096):
    # Noisy copies of fixed class templates, clipped to [0, 1], written in
    # blocks so that generating them needs no second pool-sized array.
    templates = np.random.default_rng(0).uniform(0.0, 1.0, size=(CLASSES, *SHAPE))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % CLASSES
    x = np.empty((n, *SHAPE))
    for lo in range(0, n, block):
        part = x[lo : lo + block]
        part[...] = rng.normal(0.0, 0.3, size=part.shape)
        part += templates[labels[lo : lo + block]]
        np.clip(part, 0.0, 1.0, out=part)
    return Dataset(x, labels, CLASSES)


start = time.monotonic()
pool, test = images(60_000, 1), images(1_000, 2)
select_s = {}
for sid in STRATEGY_IDS:
    cfg = ActiveConfig(
        network=build_network("arch-A", SHAPE, CLASSES, seed=0),
        strategy=sid,
        initial_labeled=20,
        budget=30,  # one query round of n_query=10
        base_steps=20,
    )
    records = run_active_learning(cfg, pool, test)
    select_s[sid] = round(sum(r.selection_seconds for r in records), 3)
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"peak_mb": peak_mb, "wall_s": time.monotonic() - start, "select_s": select_s}))
"""


def test_every_strategy_on_a_60k_pool_stays_under_2gb():
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=900
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    print(result)
    assert result["peak_mb"] < LIMIT_MB
