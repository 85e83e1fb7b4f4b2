"""The seven query strategies.

Every strategy scores a candidate pool against the current model and returns a
``QueryBatch``: the pool indices whose labels should be requested, plus any
synthetic training additions. Scoring is read-only on the network; selection is
a deterministic reduction (stable sort on the score with pool-index tie-break),
so a batch is reproducible bit-exactly from (net, pool order, seed).

Adversarial-margin selection queries the candidates with the smallest
perturbation norm and pairs each queried sample with its perturbed twin; the
twin's label is filled in from the same oracle call as its source when the
batch is applied, so twins can never be mislabeled.

``STRATEGIES`` in ``adval.loop`` registers each strategy: whether it scores a
random candidate subset or the whole unlabeled pool, and how the round loop
calls its select function.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from adval.attacks import AttackConfig, batch_deepfool
from adval.errors import ConfigError, UnsupportedArchitectureError
from adval.nn.layers import DTYPE
from adval.nn.network import (
    NetworkState,
    embed_batch,
    forward_batch,
    grad_params,
    softmax_probs,
)

logger = logging.getLogger(__name__)

ADVERSARIAL_TWIN = "adversarial_twin"
CEAL_PSEUDO = "ceal_pseudo"

SMALLER_BETTER = "smaller_better"
LARGER_BETTER = "larger_better"

BALD_SAMPLES = 10  # dropout passes per BALD score


@dataclass(frozen=True)
class CandidateSet:
    """Pool samples under consideration this round, keyed by dataset index."""

    indices: np.ndarray  # (n,) dataset indices
    inputs: np.ndarray  # (n, *input_shape)

    def __post_init__(self):
        if len(self.indices) != len(self.inputs):
            raise ConfigError("candidate indices and inputs must align")
        if len(self.indices) == 0:
            raise ConfigError("candidate pool is empty")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SyntheticAddition:
    """A training item that does not live in the dataset index universe.

    Twins leave ``label`` as None until the oracle labels their source sample;
    pseudo-labeled items fix the model's prediction as the label at selection
    time and keep ``source_index`` only for corruption accounting.
    """

    values: np.ndarray
    provenance: str  # ADVERSARIAL_TWIN or CEAL_PSEUDO
    label: int | None
    source_index: int


@dataclass(frozen=True)
class QueryBatch:
    queried: tuple[int, ...]
    synthetic_additions: tuple[SyntheticAddition, ...]
    annotations_charged: int


def rank_extremes(indices, scores, n_query: int, direction: str) -> np.ndarray:
    """Dataset indices of the ``n_query`` extreme scores.

    Ascending stable sort on (score, index) for smaller-better; the sort key is
    negated for larger-better. +inf scores therefore sort last under
    smaller-better and are only picked once finite scores run out.
    """
    indices = np.asarray(indices)
    scores = np.asarray(scores, dtype=DTYPE)
    key = scores if direction == SMALLER_BETTER else -scores
    order = np.lexsort((indices, key))
    return indices[order[: min(n_query, len(indices))]]


def prediction_entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (natural log) along the last axis; 0 log 0 counts as 0."""
    p = np.asarray(probs, dtype=DTYPE)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log(p), 0.0)
    return terms.sum(axis=-1)


def entropy_scores(net: NetworkState, inputs: np.ndarray) -> np.ndarray:
    return prediction_entropy(softmax_probs(forward_batch(net, inputs)))


def egl_scores(net: NetworkState, inputs: np.ndarray) -> np.ndarray:
    """Expected gradient length: sum_c p(c|x) * ||grad of loss at label c||_2.

    The norm is the global euclidean norm over all parameters jointly.
    """
    probs = softmax_probs(forward_batch(net, inputs))
    scores = np.empty(len(inputs), dtype=DTYPE)
    for i, x in enumerate(inputs):
        total = 0.0
        for c in range(net.spec.class_count):
            grads = grad_params(net, x, c)
            sq = 0.0
            for g in grads:
                if g is not None:
                    for v in g.values():
                        sq += float((v * v).sum())
            total += probs[i, c] * np.sqrt(sq)
        scores[i] = total
    return scores


def bald_probability_samples(
    net: NetworkState, inputs: np.ndarray, samples: int, seed: int
) -> np.ndarray:
    """(T, n, C) softmax outputs under ``samples`` stochastic dropout passes.

    Mask seeds derive from (seed, t); each candidate row draws its own mask
    bits within the batched pass.
    """
    if not net.spec.has_dropout():
        raise UnsupportedArchitectureError("BALD needs a dropout layer in the network")
    if samples < 2:
        raise ConfigError(f"BALD needs at least 2 dropout samples, got {samples}")
    out = np.empty((samples, len(inputs), net.spec.class_count), dtype=DTYPE)
    for t in range(samples):
        mask_seed = int(np.random.SeedSequence((seed, t)).generate_state(1)[0])
        out[t] = softmax_probs(forward_batch(net, inputs, dropout_seed=mask_seed))
    return out


def bald_scores(
    net: NetworkState, inputs: np.ndarray, samples: int = BALD_SAMPLES, seed: int = 0
) -> np.ndarray:
    """Mutual information between the prediction and the dropout posterior."""
    p = bald_probability_samples(net, inputs, samples, seed)
    return prediction_entropy(p.mean(axis=0)) - prediction_entropy(p).mean(axis=0)


def select_dfal(
    net: NetworkState,
    pool: CandidateSet,
    n_query: int,
    attack_cfg: AttackConfig = AttackConfig(),
    fallback_seed: int = 0,
) -> QueryBatch:
    """Query the candidates with the smallest adversarial perturbation norm.

    Each queried sample contributes its perturbed twin as a synthetic addition;
    the twin shares the source's oracle label, so one annotation buys two
    training items. Failed attacks score +inf; if every attack fails the batch
    falls back to a seeded random pick.
    """
    results = batch_deepfool(net, pool.inputs, attack_cfg)
    scores = np.array([r.score() for r in results], dtype=DTYPE)
    if not np.isfinite(scores).any():
        logger.warning(
            "all %d adversarial attacks failed; falling back to random selection",
            len(pool),
        )
        rng = np.random.default_rng(fallback_seed)
        chosen = rng.choice(pool.indices, size=min(n_query, len(pool)), replace=False)
    else:
        chosen = rank_extremes(pool.indices, scores, n_query, SMALLER_BETTER)
    row_of = {int(idx): row for row, idx in enumerate(pool.indices)}
    rows = [row_of[int(idx)] for idx in chosen]
    additions = tuple(
        SyntheticAddition(
            values=pool.inputs[row] + results[row].perturbation,
            provenance=ADVERSARIAL_TWIN,
            label=None,
            source_index=int(pool.indices[row]),
        )
        for row in rows
    )
    return QueryBatch(tuple(int(i) for i in chosen), additions, len(chosen))


def select_uncertainty(net: NetworkState, pool: CandidateSet, n_query: int) -> QueryBatch:
    """Query the candidates whose predicted distribution has the highest entropy."""
    scores = entropy_scores(net, pool.inputs)
    chosen = rank_extremes(pool.indices, scores, n_query, LARGER_BETTER)
    return QueryBatch(tuple(int(i) for i in chosen), (), len(chosen))


def select_ceal(
    net: NetworkState, pool: CandidateSet, n_query: int, delta: float
) -> QueryBatch:
    """Entropy querying plus free pseudo-labels for confident candidates.

    Candidates with entropy below ``delta`` (and not queried) are added to the
    training set under their predicted class without charging an annotation.
    Those labels can be wrong; corruption is tracked downstream, not prevented.
    """
    if delta < 0:
        raise ConfigError(f"confidence threshold must be >= 0, got {delta}")
    logits = forward_batch(net, pool.inputs)
    probs = softmax_probs(logits)
    scores = prediction_entropy(probs)
    chosen = rank_extremes(pool.indices, scores, n_query, LARGER_BETTER)
    queried = set(int(i) for i in chosen)
    additions = []
    predicted = probs.argmax(axis=1)
    for row, idx in enumerate(pool.indices):
        if scores[row] < delta and int(idx) not in queried:
            additions.append(
                SyntheticAddition(
                    values=pool.inputs[row].copy(),
                    provenance=CEAL_PSEUDO,
                    label=int(predicted[row]),
                    source_index=int(idx),
                )
            )
    return QueryBatch(tuple(int(i) for i in chosen), tuple(additions), len(chosen))


def select_egl(net: NetworkState, pool: CandidateSet, n_query: int) -> QueryBatch:
    """Query the candidates with the largest expected gradient length."""
    scores = egl_scores(net, pool.inputs)
    chosen = rank_extremes(pool.indices, scores, n_query, LARGER_BETTER)
    return QueryBatch(tuple(int(i) for i in chosen), (), len(chosen))


def select_bald(
    net: NetworkState,
    pool: CandidateSet,
    n_query: int,
    samples: int = BALD_SAMPLES,
    seed: int = 0,
) -> QueryBatch:
    """Query the candidates with the highest dropout-posterior mutual information."""
    scores = bald_scores(net, pool.inputs, samples=samples, seed=seed)
    chosen = rank_extremes(pool.indices, scores, n_query, LARGER_BETTER)
    return QueryBatch(tuple(int(i) for i in chosen), (), len(chosen))


def k_center_greedy(
    pool_points: np.ndarray, center_points: np.ndarray, n_pick: int
) -> list[int]:
    """Greedy k-center over row vectors; returns row positions into pool_points.

    Repeatedly picks the pool row farthest from its nearest chosen center,
    starting from ``center_points`` (may be empty, in which case the first pick
    is row 0). Ties break to the lowest row position.
    """
    n = len(pool_points)
    picks: list[int] = []
    if len(center_points):
        diff = pool_points[:, None, :] - center_points[None, :, :]
        min_sq = (diff * diff).sum(axis=2).min(axis=1)
    else:
        min_sq = np.full(n, np.inf)
    available = np.ones(n, dtype=bool)
    for _ in range(min(n_pick, n)):
        masked = np.where(available, min_sq, -np.inf)
        pick = int(np.argmax(masked))  # first max wins: lowest-index tie-break
        picks.append(pick)
        available[pick] = False
        gap = pool_points - pool_points[pick]
        min_sq = np.minimum(min_sq, (gap * gap).sum(axis=1))
    return picks


def select_coreset_greedy(
    net: NetworkState,
    labeled_inputs: np.ndarray,
    pool: CandidateSet,
    n_query: int,
) -> QueryBatch:
    """Greedy k-center in embedding space, seeded with the labeled set's embeddings."""
    pool_emb = embed_batch(net, pool.inputs)
    centers = (
        embed_batch(net, labeled_inputs)
        if len(labeled_inputs)
        else np.empty((0, pool_emb.shape[1]))
    )
    rows = k_center_greedy(pool_emb, centers, n_query)
    chosen = [int(pool.indices[r]) for r in rows]
    return QueryBatch(tuple(chosen), (), len(chosen))


def select_random(pool: CandidateSet, n_query: int, seed: int) -> QueryBatch:
    """Uniform sample without replacement, fully determined by the seed."""
    rng = np.random.default_rng(seed)
    chosen = rng.choice(pool.indices, size=min(n_query, len(pool)), replace=False)
    return QueryBatch(tuple(int(i) for i in chosen), (), len(chosen))


STRATEGY_IDS = ("dfal", "uncertainty", "ceal", "egl", "bald", "coreset", "random")
