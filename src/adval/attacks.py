"""Multi-class DeepFool: minimal adversarial perturbations by iterated linearization.

Each iteration linearizes the classifier around the current point, finds the
nearest class boundary of that linear model, and steps just across it. The
loop stops as soon as the prediction (evaluated with the overshoot applied)
differs from the prediction at the starting point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from adval.errors import ConfigError
from adval.nn.layers import DTYPE
from adval.nn.network import NetworkState, logits_and_input_jacobian

logger = logging.getLogger(__name__)

# Escape step used when the current point sits exactly on a linearized
# boundary (|f_l - f_orig| == 0): any positive nudge crosses the tie.
_BOUNDARY_STEP = 1e-4
_ZERO_MARGIN = 1e-12


@dataclass(frozen=True)
class AttackConfig:
    p: float = 2.0
    overshoot: float = 0.02
    max_iter: int = 50

    def __post_init__(self):
        if self.p not in (2.0, 2, np.inf, float("inf")):
            raise ConfigError(f"p must be 2 or inf, got {self.p}")
        if self.overshoot < 0:
            raise ConfigError(f"overshoot must be >= 0, got {self.overshoot}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class AdversarialResult:
    perturbation: np.ndarray  # overshoot already applied; x + perturbation flips
    norm: float  # L_p norm of perturbation; +inf marks a failed attack
    iterations: int
    success: bool
    adversarial_label: int | None
    original_label: int | None  # None when the starting point's logits are non-finite

    def score(self) -> float:
        """Selection score: perturbation size, +inf for failed attacks."""
        return self.norm if self.success else float("inf")


def lp_norm(v: np.ndarray, p: float) -> float:
    flat = np.asarray(v).ravel()
    if p == np.inf:
        return float(np.abs(flat).max()) if flat.size else 0.0
    return float(np.linalg.norm(flat, ord=p))


def _min_boundary_step(diffs: np.ndarray, grads: np.ndarray, p: float):
    """Smallest step across the nearest linearized boundary, or None.

    ``diffs[k] = f_k - f_orig`` and ``grads[k] = grad f_k - grad f_orig`` for the
    competing classes. Ties in the argmin resolve to the lowest class position
    for determinism.
    """
    flat = grads.reshape(len(grads), -1)
    if p == np.inf:
        denom = np.abs(flat).sum(axis=1)
    else:
        denom = np.linalg.norm(flat, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.abs(diffs) / denom
    dist = np.where(denom > 0, dist, np.inf)
    l = int(np.argmin(dist))
    margin = float(dist[l])
    if not np.isfinite(margin):
        return None
    if margin < _ZERO_MARGIN:
        margin = _BOUNDARY_STEP
    w = grads[l]
    if p == np.inf:
        step = margin * np.sign(w)
    else:
        step = (margin / np.linalg.norm(w.ravel())) * w
    # diffs[l] <= 0 while the original class still wins, so stepping along +w
    # raises f_l toward the boundary; flip the sign in the opposite case.
    if diffs[l] > 0:
        step = -step
    return step


def deepfool(net: NetworkState, x: np.ndarray, cfg: AttackConfig = AttackConfig()) -> AdversarialResult:
    """Minimal L_p adversarial perturbation of ``x`` against ``net``.

    The returned perturbation includes the (1 + overshoot) factor: when the
    attack succeeds, ``argmax f(x + perturbation)`` differs from
    ``argmax f(x)``. Non-finite logits or gradients yield a failure result
    with norm=+inf rather than raising; when that happens at ``x`` itself no
    class was predicted and ``original_label`` is None.
    """
    p = float(cfg.p)
    x0 = np.asarray(x, dtype=DTYPE)
    scale = 1.0 + cfg.overshoot

    logits, jac = _eval(net, x0)
    if logits is None:
        return _failure(np.zeros_like(x0), 0, None)
    orig = int(np.argmax(logits))
    others = [k for k in range(len(logits)) if k != orig]

    r_total = np.zeros_like(x0)
    current = orig
    iterations = 0
    while current == orig and iterations < cfg.max_iter:
        diffs = logits[others] - logits[orig]
        grads = jac[others] - jac[orig]
        step = _min_boundary_step(diffs, grads, p)
        if step is None:
            return _failure(scale * r_total, iterations, orig)
        r_total = r_total + step
        iterations += 1
        # The overshot point doubles as flip probe and next linearization point.
        logits, jac = _eval(net, x0 + scale * r_total)
        if logits is None:
            return _failure(scale * r_total, iterations, orig)
        current = int(np.argmax(logits))

    perturbation = scale * r_total
    success = current != orig
    return AdversarialResult(
        perturbation=perturbation,
        norm=lp_norm(perturbation, p),
        iterations=iterations,
        success=success,
        adversarial_label=current if success else None,
        original_label=orig,
    )


def _eval(net, point):
    logits, jac = logits_and_input_jacobian(net, point)
    if not np.all(np.isfinite(logits)) or not np.all(np.isfinite(jac)):
        return None, None
    return logits, jac


def _failure(perturbation, iterations, original_label):
    return AdversarialResult(
        perturbation=np.asarray(perturbation, dtype=DTYPE),
        norm=float("inf"),
        iterations=iterations,
        success=False,
        adversarial_label=None,
        original_label=original_label,
    )


def batch_deepfool(
    net: NetworkState,
    xs,
    cfg: AttackConfig = AttackConfig(),
) -> list[AdversarialResult]:
    """Per-sample DeepFool over a collection; order preserved.

    Each element equals the single-call result exactly: the attack is a pure
    function of (net, x, cfg). Per-sample errors become failure results
    instead of aborting the batch.
    """

    def attack(x):
        try:
            return deepfool(net, x, cfg)
        except Exception:  # noqa: BLE001 - per-element isolation is the contract
            logger.warning("attack raised; recording failure result", exc_info=True)
            return _failure(np.zeros_like(np.asarray(x, dtype=DTYPE)), 0, None)

    return [attack(x) for x in xs]
