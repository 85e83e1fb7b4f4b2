"""The seven query strategies.

Every strategy scores a candidate pool against the current model, picks pool
rows, and returns a ``QueryBatch``: the dataset indices of those rows, whose
labels should be requested, plus any synthetic training additions. Scoring is
read-only on the network. Ranking is one rule, ``rank_extremes``: the rows of
the smallest scores, ties to the smaller dataset index; strategies that want
the largest scores rank their negation. A batch is therefore reproducible
bit-exactly from (net, pool order, seed).

Adversarial-margin selection queries the candidates with the smallest
perturbation norm and pairs each queried sample with its perturbed twin; the
twin's label is filled in from the same oracle call as its source when the
batch is applied, so twins can never be mislabeled.

``STRATEGIES`` in ``adval.loop`` registers each strategy: whether it scores a
random candidate subset or the whole unlabeled pool, and an adapter that calls
its select function; every id check in ``src`` reads its keys, and
``STRATEGY_IDS`` is their public tuple. Every adapter takes ``(settings, net,
pool, n_query, seed, labeled)``, where ``labeled`` is the labeled set as a
``CandidateSet`` that only core-set reads. ``adval.loop.select_round`` draws the
pool and calls the adapter, for the round loop and for selection timing alike.

A pool is one type, ``CandidateSet``: the dataset's inputs and the indices of
its rows, gathered only when the pool is indexed or sliced. Batched evaluation
slices it a chunk at a time and DeepFool reads it a row at a time, so no
strategy gathers its whole pool at once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from adval.attacks import AttackConfig, batch_deepfool
from adval.errors import ConfigError, UnsupportedArchitectureError
from adval.nn.layers import DTYPE
from adval.nn.network import (
    _CHUNK,
    NetworkState,
    embed_batch,
    forward_batch,
    probs_and_grad_sq_norms,
    softmax_probs,
)
# Re-exported for perfbench, whose tracer wraps adval.strategies.grad_params.
from adval.nn.network import grad_params  # noqa: F401

logger = logging.getLogger(__name__)

ADVERSARIAL_TWIN = "adversarial_twin"
CEAL_PSEUDO = "ceal_pseudo"

BALD_SAMPLES = 10  # dropout passes per BALD score
_BLOCK = 128  # pool rows, and centers, per block of the nearest-center search


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """The dataset rows ``indices`` of ``source``, gathered only when indexed or sliced.

    ``len(pool)`` is ``len(indices)`` and ``pool[key]`` is ``source[indices[key]]``.
    """

    source: np.ndarray  # (n_source, *input_shape), the dataset's inputs
    indices: np.ndarray  # (n,) dataset indices, rows of source

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, key) -> np.ndarray:
        return self.source[self.indices[key]]


@dataclass(frozen=True)
class SyntheticAddition:
    """A training item that does not live in the dataset index universe.

    Twins carry their perturbed ``values`` and leave ``label`` as None until the
    oracle labels their source sample. Pseudo-labeled items fix the model's
    prediction as the label at selection time; their input is the dataset's
    row ``source_index``, so they hold no ``values`` of their own.
    """

    values: np.ndarray | None
    provenance: str  # ADVERSARIAL_TWIN or CEAL_PSEUDO
    label: int | None
    source_index: int


@dataclass(frozen=True)
class QueryBatch:
    queried: tuple[int, ...]
    synthetic_additions: tuple[SyntheticAddition, ...]


def rank_extremes(indices, scores, n_query: int) -> np.ndarray:
    """Rows of the ``n_query`` smallest scores, ties to the smaller dataset index.

    A stable ascending sort on (score, index), so +inf scores sort last and are
    only picked once finite scores run out.
    """
    order = np.lexsort((np.asarray(indices), np.asarray(scores, dtype=DTYPE)))
    return order[:n_query]


def _batch(pool: CandidateSet, rows, additions=()) -> QueryBatch:
    """The batch that queries ``pool``'s ``rows``, in that order."""
    return QueryBatch(tuple(int(i) for i in pool.indices[rows]), tuple(additions))


def _random_rows(pool: CandidateSet, n_query: int, seed: int) -> np.ndarray:
    """A uniform draw of pool rows without replacement, fully determined by the seed."""
    rng = np.random.default_rng(seed)
    return rng.choice(len(pool), size=min(n_query, len(pool)), replace=False)


def prediction_entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (natural log) along the last axis; 0 log 0 counts as 0.

    Only a positive entry adds a term; zero, negative and NaN entries add 0.
    The terms are formed in one array, in place: ``-(log(p) * p)`` has the
    bits of ``-p * log(p)``, since IEEE products commute and a sign flip is exact.
    """
    p = np.asarray(probs, dtype=DTYPE)
    positive = p > 0
    terms = np.log(p, out=np.zeros_like(p), where=positive)
    np.multiply(terms, p, out=terms, where=positive)
    np.negative(terms, out=terms, where=positive)
    return terms.sum(axis=-1)


def entropy_scores(net: NetworkState, inputs: CandidateSet | np.ndarray) -> np.ndarray:
    return prediction_entropy(softmax_probs(forward_batch(net, inputs)))


def egl_scores(net: NetworkState, inputs: CandidateSet | np.ndarray) -> np.ndarray:
    """Expected gradient length: sum_c p(c|x) * ||grad of loss at label c||_2.

    The norm is the global euclidean norm over all parameters jointly, of the
    gradient of the candidate's own one-example loss. Candidates are scored in
    blocks of ``_CHUNK // C`` rows with fixed boundaries from row 0, so the
    class-batched backward pass of a block spans at most ``_CHUNK`` rows. Each
    block takes one forward pass, which also gives p, and one backward pass
    with a leading class axis; the squared norms come from per-example
    identities (Dense: ||x||^2 ||delta||^2 + ||delta||^2; Conv2D:
    ||delta^T cols||^2 + ||sum delta||^2), with no per-class gradient formed.
    The scores agree with the per-class definition to ~1e-15 relative.
    """
    rows = max(1, _CHUNK // net.spec.class_count)
    scores = np.empty(len(inputs), dtype=DTYPE)
    for lo in range(0, len(inputs), rows):
        probs, sq = probs_and_grad_sq_norms(net, inputs[lo : lo + rows])
        scores[lo : lo + rows] = (probs * np.sqrt(sq)).sum(axis=1)
    return scores


def bald_indexable(samples: int, rows: int, classes: int) -> bool:
    """Whether numpy can index the ``(samples, rows, classes)`` array of ``DTYPE``
    that ``bald_probability_samples`` fills for ``rows`` candidates."""
    return samples * rows * classes <= np.iinfo(np.intp).max // np.dtype(DTYPE).itemsize


def bald_probability_samples(
    net: NetworkState, inputs: CandidateSet | np.ndarray, samples: int, seed: int
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
    net: NetworkState, inputs: CandidateSet | np.ndarray, samples: int = BALD_SAMPLES, seed: int = 0
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
    results = batch_deepfool(net, pool, attack_cfg)
    scores = np.array([r.score() for r in results], dtype=DTYPE)
    if np.isfinite(scores).any():
        rows = rank_extremes(pool.indices, scores, n_query)
    else:
        logger.warning(
            "all %d adversarial attacks failed; falling back to random selection",
            len(pool),
        )
        rows = _random_rows(pool, n_query, fallback_seed)
    twins = (
        SyntheticAddition(
            values=pool[row] + results[row].perturbation,
            provenance=ADVERSARIAL_TWIN,
            label=None,
            source_index=int(pool.indices[row]),
        )
        for row in rows
    )
    return _batch(pool, rows, twins)


def select_uncertainty(net: NetworkState, pool: CandidateSet, n_query: int) -> QueryBatch:
    """Query the candidates whose predicted distribution has the highest entropy."""
    return _batch(pool, rank_extremes(pool.indices, -entropy_scores(net, pool), n_query))


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
    probs = softmax_probs(forward_batch(net, pool))
    scores = prediction_entropy(probs)
    rows = rank_extremes(pool.indices, -scores, n_query)
    confident = scores < delta
    confident[rows] = False
    predicted = probs.argmax(axis=1)
    pseudo = (
        SyntheticAddition(
            values=None,
            provenance=CEAL_PSEUDO,
            label=int(predicted[row]),
            source_index=int(pool.indices[row]),
        )
        for row in np.flatnonzero(confident)
    )
    return _batch(pool, rows, pseudo)


def select_egl(net: NetworkState, pool: CandidateSet, n_query: int) -> QueryBatch:
    """Query the candidates with the largest expected gradient length."""
    return _batch(pool, rank_extremes(pool.indices, -egl_scores(net, pool), n_query))


def select_bald(
    net: NetworkState,
    pool: CandidateSet,
    n_query: int,
    samples: int = BALD_SAMPLES,
    seed: int = 0,
) -> QueryBatch:
    """Query the candidates with the highest dropout-posterior mutual information."""
    scores = bald_scores(net, pool, samples=samples, seed=seed)
    return _batch(pool, rank_extremes(pool.indices, -scores, n_query))


def nearest_center_sq(pool_points: np.ndarray, center_points: np.ndarray) -> np.ndarray:
    """Squared distance from each pool row to its nearest center (+inf with none).

    Works in blocks of ``_BLOCK`` rows by ``_BLOCK`` centers, so memory grows with
    neither count. Per pair the sum over D is the one-shot formula's and the
    running minimum is exact, so the result is the same bits.
    """
    min_sq = np.full(len(pool_points), np.inf)
    for lo in range(0, len(pool_points), _BLOCK):
        nearest = min_sq[lo : lo + _BLOCK]
        for c in range(0, len(center_points), _BLOCK):
            diff = pool_points[lo : lo + _BLOCK, None, :] - center_points[None, c : c + _BLOCK, :]
            diff *= diff
            np.minimum(nearest, diff.sum(axis=2).min(axis=1), out=nearest)
    return min_sq


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
    min_sq = nearest_center_sq(pool_points, center_points)
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
    labeled: CandidateSet | np.ndarray,
    pool: CandidateSet,
    n_query: int,
) -> QueryBatch:
    """Greedy k-center in embedding space, seeded with the labeled set's embeddings."""
    rows = k_center_greedy(embed_batch(net, pool), embed_batch(net, labeled), n_query)
    return _batch(pool, rows)


def select_random(pool: CandidateSet, n_query: int, seed: int) -> QueryBatch:
    """Uniform sample without replacement, fully determined by the seed."""
    return _batch(pool, _random_rows(pool, n_query, seed))


STRATEGY_IDS = ("dfal", "uncertainty", "ceal", "egl", "bald", "coreset", "random")
