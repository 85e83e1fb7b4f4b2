"""Tests of the benchmark's own parts; run with ``python -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_COMBOS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_round, gen_images, make_datasets  # noqa: E402

from adval import build_network, init_network, train  # noqa: E402
from adval.loop import PoolState, RoundRecord  # noqa: E402
from adval.nn.network import accuracy  # noqa: E402
from adval.nn.training import TrainConfig, epochs_for_budget  # noqa: E402
from adval.strategies import ADVERSARIAL_TWIN, SyntheticAddition  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TestImageGenerator:
    def test_same_seed_same_arrays(self):
        a_train, a_test = gen_images(7, 50, 20)
        b_train, b_test = gen_images(7, 50, 20)
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_test.inputs, b_test.inputs)

    def test_other_seed_other_arrays(self):
        assert not np.array_equal(gen_images(7, 50, 20)[0].inputs, gen_images(8, 50, 20)[0].inputs)

    def test_shape_range_and_balance(self):
        train_set, _ = gen_images(3, 100, 10)
        assert train_set.inputs.shape == (100, 1, 28, 28)
        assert train_set.inputs.min() >= 0.0 and train_set.inputs.max() <= 1.0
        assert np.array_equal(np.bincount(train_set.labels), np.full(10, 10))

    @pytest.mark.parametrize("name", ["images-dfal", "images-poolscan"])
    def test_arch_a_clears_the_workload_floor(self, name):
        w = WORKLOADS[name]
        train_set, test_set = make_datasets(replace(w, pool_size=w.budget, test_size=500), seed=11)
        spec = build_network(w.arch, train_set.input_shape, train_set.class_count, seed=11)
        epochs = epochs_for_budget(w.base_steps, 32, len(train_set))
        net = train(init_network(spec), list(zip(train_set.inputs, train_set.labels)), TrainConfig(epochs=epochs))
        assert accuracy(net, test_set.inputs, test_set.labels) >= w.accuracy_floor


class TestRoundCheck:
    w = replace(WORKLOADS["images-dfal"], initial_labeled=2, n_query=1, budget=4)
    data, _ = gen_images(0, 6, 2, class_count=2)

    def state(self, labeled, unlabeled, synthetic=()):
        labeled = tuple((i, int(self.data.labels[i])) for i in labeled)
        return PoolState(labeled, tuple(unlabeled), tuple(synthetic))

    def record(self, pools, round_index):
        return RoundRecord(round_index, len(pools.labeled), len(pools.labeled) + len(pools.synthetic), 0.5, 0.0, 0.0)

    def twin(self, i, label):
        return SyntheticAddition(self.data.inputs[i], ADVERSARIAL_TWIN, label, i)

    def test_consistent_round_passes(self):
        pools = self.state([0, 1, 2], [3, 4, 5], [self.twin(2, int(self.data.labels[2]))])
        assert check_round(self.w, "dfal", self.data, pools, self.record(pools, 1)) == []

    def test_overlapping_pools_fail(self):
        pools = self.state([0, 1], [1, 2, 3, 4, 5])
        problems = check_round(self.w, "random", self.data, pools, self.record(pools, 0))
        assert any("conservation" in p for p in problems)

    def test_budget_accounting_and_twin_labels_fail(self):
        wrong = 1 - int(self.data.labels[2])
        pools = self.state([0, 1, 2], [3, 4, 5], [self.twin(2, wrong)])
        problems = check_round(self.w, "dfal", self.data, pools, self.record(pools, 2))
        assert any("annotations" in p for p in problems)
        assert any("twin's label" in p for p in problems)


class TestTracer:
    def test_self_time_excludes_children(self):
        tracer = Tracer()

        def inner():
            return sum(range(20000))

        def outer():
            return tracer.call("inner", None, inner, (), {}) + tracer.call("inner", None, inner, (), {})

        tracer.call("outer", None, outer, (), {})
        total, own, calls = tracer.totals()
        assert calls == {"outer": 1, "inner": 2}
        assert own["outer"] == pytest.approx(total["outer"] - total["inner"])
        assert own["inner"] == total["inner"]

    def test_layer_spans_take_the_enclosing_context_and_patches_are_undone(self):
        import adval.attacks
        import adval.nn.layers

        original = adval.nn.layers.forward
        spec = build_network("arch-B", (3,), 2, seed=0)
        net = init_network(spec)
        tracer = Tracer()
        tracer.install()
        try:
            adval.attacks.logits_and_input_jacobian(net, np.ones(3))
        finally:
            tracer.uninstall()
        assert adval.nn.layers.forward is original
        _, own, calls = tracer.totals()
        assert calls["nn.network.logits_and_input_jacobian"] == 1
        assert calls["nn.layers.Dense.fwd.jacobian"] == 3
        assert calls["nn.layers.Dense.bwd.jacobian"] == 3
        assert ("Dense", "bwd", "eval") not in LAYER_COMBOS


class TestCompare:
    def test_verdicts(self):
        base = [1.0, 1.01, 0.99, 1.0]
        assert compare.verdict(base, [1.3, 1.31, 1.29, 1.3], "lower", 0.1) == "WORSE"
        assert compare.verdict(base, [1.02, 1.0, 1.01, 1.0], "lower", 0.1) == "ok"
        assert compare.verdict(base, [0.8, 0.81, 0.79, 0.8], "lower", 0.1) == "better"
        assert compare.verdict(base, [0.8, 0.81, 0.79, 0.8], "higher", 0.1) == "WORSE"
        wide = [0.5, 1.0, 1.5, 2.0]
        assert compare.verdict(base, wide, "lower", 0.1) == "unresolved"
        assert compare.verdict(base, [0.5, 0.6, 0.7, 0.9], "lower", 0.1) == "better"


class TestBenchmarkSpec:
    def test_spec_names_match_what_the_runs_emit(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
        assert [m["name"] for m in SPEC["end_to_end"]] == list(run.UNITS)
        assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
        emitted = list(layer_metrics(Tracer(), {}, 0.0, 0.0)) + ["trace.run_s", "trace.overhead_s"]
        assert [m["name"] for m in SPEC["per_layer"]] == emitted

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "images-dfal", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
