"""Multi-class DeepFool: minimal adversarial perturbations by iterated linearization.

Each iteration linearizes the classifier around the current point, finds the
nearest class boundary of that linear model, and steps just across it. The
loop stops as soon as the prediction (evaluated with the overshoot applied)
differs from the prediction at the starting point.

An attack forms the input Jacobian only at the points it steps from: the
starting point and each iterate that has not flipped while iterations remain.
The point where the attack flips or runs out of iterations needs only its
logits, so its Jacobian is never formed (nor checked for finiteness). Each
point's logits and Jacobian come from ``logits_and_deferred_jacobian``, which
runs the layers below the first Dense layer (arch-A's convolution and
pooling) once per point and only the Dense layers on C copies of it.

A non-finite value has one outcome: ``deepfool`` runs under
``np.errstate(all="ignore")``, so an overflow, invalid value or division
anywhere in the attack (its own arithmetic, the layers it runs, the norms)
neither warns nor raises ``FloatingPointError``, whatever numpy's error state
is. The attack's finiteness checks then end it as a failure scored +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adval.errors import ConfigError, require_at_least
from adval.nn.layers import DTYPE
from adval.nn.network import NetworkState, logits_and_deferred_jacobian
# Re-exported for perfbench, whose tracer wraps adval.attacks.logits_and_input_jacobian.
from adval.nn.network import logits_and_input_jacobian  # noqa: F401

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
        require_at_least(self, overshoot=0, max_iter=1)


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
    return float(np.linalg.norm(np.ravel(v), ord=p))


def _min_boundary_step(diffs: np.ndarray, grads: np.ndarray, p: float):
    """Smallest step across the nearest linearized boundary, or None.

    ``diffs[k] = f_k - f_orig`` and ``grads[k] = grad f_k - grad f_orig`` for the
    competing classes. Ties in the argmin resolve to the lowest class position
    for determinism. It runs under ``deepfool``'s error state, which silences
    the division by a zero norm that ``np.where`` then masks.
    """
    flat = grads.reshape(len(grads), -1)
    denom = np.linalg.norm(flat, ord=1 if p == np.inf else 2, axis=1)  # the dual norm
    dist = np.where(denom > 0, np.abs(diffs) / denom, np.inf)
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


@np.errstate(all="ignore")
def deepfool(net: NetworkState, x: np.ndarray, cfg: AttackConfig = AttackConfig()) -> AdversarialResult:
    """Minimal L_p adversarial perturbation of ``x`` against ``net``.

    The returned perturbation includes the (1 + overshoot) factor: when the
    attack succeeds, ``argmax f(x + perturbation)`` differs from
    ``argmax f(x)``. Any non-finite value ends the attack as a failure with
    norm=+inf, with no warning and no ``FloatingPointError``, whatever
    numpy's error state: non-finite logits, a non-finite Jacobian at a point
    the attack steps from, or a step that overflows. When that happens at
    ``x`` itself ``original_label`` is None.
    The Jacobian is formed only where a step is taken: ``iterations``
    backward passes in all, none at the point where the attack stops. An
    ``x`` that does not have the network's input shape raises InputError.
    """
    p = float(cfg.p)
    x0 = np.asarray(x, dtype=DTYPE)
    scale = 1.0 + cfg.overshoot

    logits, jacobian = logits_and_deferred_jacobian(net, x0)
    if not np.all(np.isfinite(logits)):
        return _failure(np.zeros_like(x0), 0, None)
    orig = int(np.argmax(logits))
    others = [k for k in range(len(logits)) if k != orig]

    r_total = np.zeros_like(x0)
    current = orig
    iterations = 0
    while current == orig and iterations < cfg.max_iter:
        jac = jacobian()
        if not np.all(np.isfinite(jac)):
            # at x itself this reports no label, as non-finite logits there do
            return _failure(scale * r_total, iterations, orig if iterations else None)
        diffs = logits[others] - logits[orig]
        grads = jac[others] - jac[orig]
        step = _min_boundary_step(diffs, grads, p)
        if step is None:
            return _failure(scale * r_total, iterations, orig)
        r_total = r_total + step
        iterations += 1
        # The overshot point doubles as flip probe and next linearization point.
        logits, jacobian = logits_and_deferred_jacobian(net, x0 + scale * r_total)
        if not np.all(np.isfinite(logits)):
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
    function of (net, x, cfg), and a non-finite value fails that element's
    attack alone, as in ``deepfool``. Any error, such as the InputError of a
    wrongly shaped input, raises.
    """
    return [deepfool(net, x, cfg) for x in xs]
