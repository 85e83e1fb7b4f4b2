"""Minimal differentiable feed-forward networks with input and parameter gradients.

Importing the package sets glibc's malloc thresholds to the top of their
dynamic range: arrays under 32 MiB come from the heap, and up to 64 MiB of
freed heap is kept for reuse. glibc raises the thresholds only when it frees
an mmapped array larger than the current one, so left alone, the speed of a
training step depends on what the process happened to free before it. An
arch-A step on 32 rows of 28×28 whose temporaries go back to the system and
fault in again each time takes about 6.5 ms instead of 3.6 ms. Other C
libraries are left alone.
"""

import ctypes
import os

from adval.nn.architectures import ARCHITECTURES, build_network, conv_input_shape
from adval.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU
from adval.nn.network import (
    NetworkSpec,
    NetworkState,
    accuracy,
    embed_batch,
    forward_batch,
    grad_params,
    init_network,
    logits_and_input_jacobian,
    predict_batch,
    softmax_probs,
)
from adval.nn.training import TrainConfig, epochs_for_budget, train


def _fix_malloc_thresholds() -> None:
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_fix_malloc_thresholds()

__all__ = [
    "ARCHITECTURES",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "MaxPool2D",
    "NetworkSpec",
    "NetworkState",
    "ReLU",
    "TrainConfig",
    "accuracy",
    "build_network",
    "conv_input_shape",
    "embed_batch",
    "epochs_for_budget",
    "forward_batch",
    "grad_params",
    "init_network",
    "logits_and_input_jacobian",
    "predict_batch",
    "softmax_probs",
    "train",
]
