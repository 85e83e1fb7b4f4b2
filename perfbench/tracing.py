"""Span tracing for the traced benchmark run, by wrapping module attributes.

Names are bound at import time, so each patch replaces the attribute in the
module that *calls* it (``adval.loop.train``, ``adval.strategies.forward_batch``,
...). ``adval.nn.layers.forward`` and ``backward`` are looked up through the
module at call time and are patched in ``adval.nn.layers`` itself.

Spans (name, start, end, parent, run id) are kept in memory and written out at
the end. Layer spans carry the context of the nearest enclosing span that
defines one: ``train``, ``jacobian``, ``score`` or ``eval``.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

LAYER_KINDS = ("Dense", "Conv2D", "MaxPool2D", "ReLU", "Dropout", "Flatten")
CONTEXTS = ("train", "jacobian", "score", "eval")
# Backward passes never run under test-set evaluation.
LAYER_COMBOS = tuple(
    (kind, direction, ctx)
    for kind in LAYER_KINDS
    for direction in ("fwd", "bwd")
    for ctx in CONTEXTS
    if not (direction == "bwd" and ctx == "eval")
)

SELECT_FUNCTIONS = {
    "dfal": "select_dfal",
    "uncertainty": "select_uncertainty",
    "ceal": "select_ceal",
    "egl": "select_egl",
    "bald": "select_bald",
    "coreset": "select_coreset_greedy",
    "random": "select_random",
}

# Position of the CandidateSet argument where it is not the second one.
_POOL_ARG = {"strategies.select_random": 0, "strategies.select_coreset": 2}

# Metrics computed from other metrics rather than measured on their own.
DERIVED = frozenset({"nn.training.adam_ms"})

BOOKKEEPING = ("init_pools", "training_examples", "sample_candidates", "apply_query")

# (module, attribute, span name, context opened by the span)
PATCHES = (
    [
        ("adval.loop", "train", "nn.training.train", "train"),
        ("adval.loop", "accuracy", "nn.network.accuracy", "eval"),
        ("adval.nn.training", "loss_and_param_grads", "nn.network.loss_and_param_grads", None),
        ("adval.strategies", "forward_batch", "nn.network.forward_batch", "score"),
        ("adval.strategies", "grad_params", "nn.network.grad_params", "score"),
        ("adval.strategies", "embed_batch", "nn.network.embed_batch", "score"),
        ("adval.strategies", "batch_deepfool", "attacks.batch_deepfool", None),
        ("adval.strategies", "egl_scores", "strategies.egl_scores", None),
        ("adval.strategies", "bald_probability_samples", "strategies.bald_probability_samples", None),
        ("adval.strategies", "k_center_greedy", "strategies.k_center_greedy", None),
        ("adval.strategies", "entropy_scores", "strategies.entropy_scores", None),
        ("adval.attacks", "deepfool", "attacks.deepfool", None),
        ("adval.attacks", "logits_and_input_jacobian", "nn.network.logits_and_input_jacobian", "jacobian"),
    ]
    + [("adval.loop", fn, f"strategies.select_{sid}", None) for sid, fn in SELECT_FUNCTIONS.items()]
    + [("adval.loop", fn, f"loop.{fn}", None) for fn in BOOKKEEPING]
)


class Tracer:
    """In-memory span recorder. Single-threaded: spans nest on one stack."""

    def __init__(self):
        self.run_id = ""
        self.spans: list = []  # (name, start, end, parent index or -1, run id)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ctx: list[str] = []
        self._restore: list = []

    def call(self, name, ctx, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        if ctx:
            self._ctx.append(ctx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.spans[idx] = (name, start, end, parent, self.run_id)
            self._stack.pop()
            if ctx:
                self._ctx.pop()

    def _wrap(self, name, ctx, fn):
        def traced(*args, **kwargs):
            result = self.call(name, ctx, fn, args, kwargs)
            self._count(name, args, result)
            return result

        return traced

    def _wrap_layer(self, direction, fn):
        def traced(layer, *args, **kwargs):
            ctx = self._ctx[-1] if self._ctx else "other"
            name = f"nn.layers.{type(layer).__name__}.{direction}.{ctx}"
            return self.call(name, None, fn, (layer, *args), kwargs)

        return traced

    def _count(self, name, args, result):
        c = self.counts
        if name == "nn.network.forward_batch":
            c["forward_batch.rows"] += len(args[1])
        elif name == "attacks.deepfool":
            c["deepfool.iterations"] += result.iterations
            c["deepfool.successes"] += result.success
        elif name == "strategies.egl_scores":
            c["egl.candidates"] += len(args[1])
        elif name.startswith("strategies.select_"):
            pool = args[_POOL_ARG.get(name, 1)]
            c["candidates_scored"] += len(pool)

    def install(self):
        for module_name, attr, name, ctx in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(name, ctx, original))
        layers = importlib.import_module("adval.nn.layers")
        for direction, attr in (("fwd", "forward"), ("bwd", "backward")):
            original = getattr(layers, attr)
            self._restore.append((layers, attr, original))
            setattr(layers, attr, self._wrap_layer(direction, original))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def totals(self):
        """(inclusive seconds, self seconds, calls) per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return total, own, calls

    def write(self, path):
        """Spans as JSON lines [name, start_s, end_s, parent, run_id], times from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run in self.spans:
                row = [name, round(start - origin, 6), round(end - origin, 6), parent, run]
                f.write(json.dumps(row, separators=(",", ":")) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcomes, data_s: float, entropy_peak_mb: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer that did not run reads 0.

    ``nn.training.adam_ms`` is derived: mean step time minus mean gradient time.
    """
    total, own, calls = tracer.totals()
    c = tracer.counts
    m: dict[str, float] = {}

    steps = calls["nn.network.loss_and_param_grads"]
    m["nn.training.steps"] = steps
    m["nn.training.step_ms"] = 1e3 * _ratio(total["nn.training.train"], steps)
    m["nn.network.loss_and_param_grads.ms"] = 1e3 * _ratio(total["nn.network.loss_and_param_grads"], steps)
    m["nn.training.adam_ms"] = m["nn.training.step_ms"] - m["nn.network.loss_and_param_grads.ms"]

    for kind, direction, ctx in LAYER_COMBOS:
        name = f"nn.layers.{kind}.{direction}.{ctx}"
        m[f"{name}.s"] = own[name]

    m["nn.network.forward_batch.calls"] = calls["nn.network.forward_batch"]
    m["nn.network.forward_batch.rows"] = c["forward_batch.rows"]
    m["nn.network.forward_batch.us_per_row"] = 1e6 * _ratio(total["nn.network.forward_batch"], c["forward_batch.rows"])
    for fn in ("logits_and_input_jacobian", "grad_params"):
        name = f"nn.network.{fn}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.ms"] = 1e3 * _ratio(total[name], calls[name])
    m["nn.network.embed_batch.s"] = total["nn.network.embed_batch"]
    m["nn.network.accuracy.s"] = total["nn.network.accuracy"]

    attacks = calls["attacks.deepfool"]
    m["attacks.batch_deepfool.s"] = total["attacks.batch_deepfool"]
    m["attacks.deepfool.calls"] = attacks
    m["attacks.deepfool.iterations_mean"] = _ratio(c["deepfool.iterations"], attacks)
    m["attacks.deepfool.ms_per_candidate"] = 1e3 * _ratio(total["attacks.deepfool"], attacks)
    m["attacks.deepfool.success_ratio"] = _ratio(c["deepfool.successes"], attacks)
    m["attacks.jacobians_per_candidate"] = _ratio(calls["nn.network.logits_and_input_jacobian"], attacks)

    for sid in SELECT_FUNCTIONS:
        m[f"strategies.select_{sid}.s"] = total[f"strategies.select_{sid}"]
    m["strategies.candidates_scored"] = c["candidates_scored"]
    m["strategies.egl_scores.ms_per_candidate"] = 1e3 * _ratio(total["strategies.egl_scores"], c["egl.candidates"])
    for fn in ("bald_probability_samples", "k_center_greedy", "entropy_scores"):
        m[f"strategies.{fn}.s"] = total[f"strategies.{fn}"]
    m["strategies.entropy_scores.peak_mb"] = entropy_peak_mb

    records = [r for o in outcomes.values() for r in o.records]
    ceal = [r for sid, o in outcomes.items() if sid == "ceal" for r in o.records]
    pseudo = sum(r.pseudo_additions for r in ceal)
    m["loop.rounds"] = len(records)
    m["loop.bookkeeping.s"] = sum(total[f"loop.{fn}"] for fn in BOOKKEEPING)
    finals = [o.records[-1].training_set_size for o in outcomes.values() if o.records]
    m["loop.training_set_size_final"] = _ratio(sum(finals), len(finals))
    m["loop.ceal.pseudo_correct_ratio"] = _ratio(pseudo - sum(r.pseudo_corruptions for r in ceal), pseudo)

    m["data.generate.s"] = data_s
    m["trace.spans"] = len(tracer.spans)
    return m
