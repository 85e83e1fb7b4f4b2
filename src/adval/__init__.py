"""adval: margin-based active learning via adversarial perturbations.

Scores unlabeled samples by the size of their minimal adversarial
perturbation, queries the most attackable ones, and trains on both the
queried samples and their perturbed twins. Ships six baseline query
strategies and a command-line experiment harness.
"""

from adval.attacks import AdversarialResult, AttackConfig, batch_deepfool, deepfool
from adval.data import Dataset, SyntheticSpec, gen_blobs, load_csv, load_idx
from adval.loop import ActiveConfig, PoolState, RoundRecord, run_active_learning
from adval.nn import NetworkSpec, NetworkState, TrainConfig, build_network, init_network, train
from adval.strategies import (
    STRATEGY_IDS,
    CandidateSet,
    QueryBatch,
    select_bald,
    select_ceal,
    select_coreset_greedy,
    select_dfal,
    select_egl,
    select_random,
    select_uncertainty,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveConfig",
    "AdversarialResult",
    "AttackConfig",
    "CandidateSet",
    "Dataset",
    "NetworkSpec",
    "NetworkState",
    "PoolState",
    "QueryBatch",
    "RoundRecord",
    "STRATEGY_IDS",
    "SyntheticSpec",
    "TrainConfig",
    "batch_deepfool",
    "build_network",
    "deepfool",
    "gen_blobs",
    "init_network",
    "load_csv",
    "load_idx",
    "run_active_learning",
    "select_bald",
    "select_ceal",
    "select_coreset_greedy",
    "select_dfal",
    "select_egl",
    "select_random",
    "select_uncertainty",
    "train",
]
