"""Minimal differentiable feed-forward networks with input and parameter gradients."""

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
