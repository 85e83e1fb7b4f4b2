"""Multi-class DeepFool: minimal adversarial perturbations by iterated linearization.

Each iteration linearizes the classifier around the current point, finds the
nearest class boundary of that linear model, and steps just across it. The
loop stops as soon as the prediction (evaluated with the overshoot applied)
differs from the prediction at the starting point.

``batch_deepfool`` attacks its candidates in lockstep groups, and every
candidate keeps the bits of its lone attack (see ``_attack_group``).
``deepfool`` is the same kernel on a group of one.

An attack forms the input Jacobian only at the points it steps from: the
starting point and each iterate that has not flipped while iterations remain.
The point where the attack flips or runs out of iterations needs only its
logits, so its Jacobian is never formed (nor checked for finiteness).

A non-finite value has one outcome: each group runs under
``np.errstate(all="ignore")``, so an overflow, invalid value or division
anywhere in the attack (its own arithmetic, the layers it runs, the norms)
neither warns nor raises ``FloatingPointError``, whatever numpy's error state
is. The attack's finiteness checks then end that candidate's attack alone as
a failure scored +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adval.errors import ConfigError, require_at_least
from adval.nn.layers import DTYPE
from adval.nn.network import _CHUNK, NetworkState, logits_and_deferred_jacobian
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
    original_label: int | None  # None when the attack fails at the starting point itself

    def score(self) -> float:
        """Selection score: perturbation size, +inf for failed attacks."""
        return self.norm if self.success else float("inf")


def _euclidean_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``w`` (S, D), bit for bit ``np.linalg.norm`` of that row.

    ``np.linalg.norm`` of a vector is ``sqrt(v.dot(v))``, one BLAS ddot. A
    stacked (1, D) @ (D, 1) ``np.matmul`` makes that same ddot call once per
    row, where a reduction such as ``np.einsum`` sums in another order.
    """
    return np.sqrt(np.matmul(w[:, None], w[:, :, None])).reshape(len(w))


def _lp_norms(w: np.ndarray, p: float) -> np.ndarray:
    """``np.linalg.norm(row, ord=p)`` of each row of ``w`` (S, D), bit for bit, in one call.

    For p = inf ``np.linalg.norm`` is ``abs(v).max()``, and a max is exact
    whatever order it reduces in.
    """
    return np.abs(w).max(axis=1) if p == np.inf else _euclidean_norms(w)


def _min_boundary_step(diffs: np.ndarray, grads: np.ndarray, p: float):
    """Each candidate's smallest step across its nearest linearized boundary.

    ``diffs[i, k] = f_k - f_orig`` and ``grads[i, k] = grad f_k - grad f_orig``
    (flattened to D values) for candidate i and every class k; the original
    class's own entries are exact zeros, so its zero dual norm puts it at
    distance +inf. Returns the (S, D) steps and whether each candidate's
    margin is finite: a candidate whose margin is not has no step. Ties in
    the argmin resolve to the lowest class for determinism. It runs under
    ``_attack_group``'s error state, which silences the division by a zero
    norm that ``np.where`` then masks.
    """
    denom = np.linalg.norm(grads, ord=1 if p == np.inf else 2, axis=-1)  # the dual norm
    dist = np.where(denom > 0, np.abs(diffs) / denom, np.inf)
    rows = np.arange(len(dist))
    l = dist.argmin(axis=1)
    margin = dist[rows, l]
    finite = np.isfinite(margin)
    margin[margin < _ZERO_MARGIN] = _BOUNDARY_STEP
    w = grads[rows, l]
    if p == np.inf:
        step = margin[:, None] * np.sign(w)
    else:
        step = (margin / _euclidean_norms(w))[:, None] * w
    # diffs[l] <= 0 while the original class still wins, so stepping along +w
    # raises f_l toward the boundary; flip the sign in the opposite case.
    np.negative(step, out=step, where=(diffs[rows, l] > 0)[:, None])
    return step, finite


def deepfool(net: NetworkState, x: np.ndarray, cfg: AttackConfig = AttackConfig()) -> AdversarialResult:
    """Minimal L_p adversarial perturbation of ``x`` against ``net``.

    The returned perturbation includes the (1 + overshoot) factor: when the
    attack succeeds, ``argmax f(x + perturbation)`` differs from
    ``argmax f(x)``. A non-finite value (logits, a Jacobian at a point the
    attack steps from, or a step) ends the attack as a failure with
    norm=+inf and no warning (see the module docstring); when that happens
    at ``x`` itself ``original_label`` is None. ``iterations`` counts the
    Jacobians formed.
    An ``x`` that does not have the network's input shape raises InputError.
    """
    return _attack_group(net, np.asarray(x, dtype=DTYPE)[None], cfg)[0]


def _result(perturbation, iterations, original_label, current=None, norm=float("inf")):
    """The result of an attack that stopped at class ``current``, flipped or out of
    iterations, with ``norm`` its perturbation's ``np.linalg.norm``, or of a failed
    attack, scored +inf, when ``current`` is None."""
    success = current is not None and current != original_label
    return AdversarialResult(
        perturbation, norm, iterations, success, current if success else None, original_label
    )


@np.errstate(all="ignore")
def _attack_group(net: NetworkState, x0: np.ndarray, cfg: AttackConfig) -> list[AdversarialResult]:
    """DeepFool on each input of the group ``x0`` (G, *input_shape), all in lockstep.

    The candidates still attacking are all at the same iteration, so one
    linearization per iteration serves them all: the logits at each one's
    current point, then the Jacobians of those that step from it. A
    candidate leaves when it flips, fails or runs out of iterations, with
    the bits of its lone attack. Its linearization has the bits of a lone
    point's (see ``logits_and_deferred_jacobian``). The attack's own
    arithmetic is element by element or row by row, and each step's
    euclidean norm is one BLAS ddot per candidate, as ``np.linalg.norm`` of
    that candidate's vector is (``_euclidean_norms``). The norms of the
    results that stop in one iteration come from one call of the same kind
    (``_lp_norms``). Rows with a non-finite Jacobian step with the rest, as
    steps are row-local, and one mask, ``ok``, marks every failed candidate.
    """
    p = float(cfg.p)
    scale = 1.0 + cfg.overshoot
    shape = x0.shape[1:]
    x0 = x0.reshape(len(x0), -1)
    r_total = np.zeros_like(x0)
    results = [None] * len(x0)
    active = np.arange(len(x0))  # the candidates still attacking, by position in the group
    point = x0
    iterations = 0
    while active.size:
        logits, jacobian = logits_and_deferred_jacobian(net, point.reshape(-1, *shape))
        if not iterations:
            orig = logits.argmax(axis=1)
        current = logits.argmax(axis=1)
        ok = np.isfinite(logits).all(axis=1)
        stop = ok & ((current != orig[active]) | (iterations == cfg.max_iter))
        rows = np.flatnonzero(ok & ~stop)  # the rows that step, in this linearization
        jac = jacobian(rows).reshape(len(rows), logits.shape[1], x0.shape[1])
        k, o, f = np.arange(len(rows)), orig[active[rows]], logits[rows]
        step, finite = _min_boundary_step(f - f[k, o][:, None], jac - jac[k, o][:, None], p)
        ok[rows] = np.isfinite(jac).all(axis=(1, 2)) & finite
        for i in active[~ok]:  # an attack that fails at x itself reports no label
            label = int(orig[i]) if iterations else None
            results[i] = _result((scale * r_total[i]).reshape(shape), iterations, label)
        done = active[stop]
        deltas = scale * r_total[done]
        for i, label, delta, norm in zip(done, current[stop], deltas, _lp_norms(deltas, p)):
            results[i] = _result(delta.reshape(shape), iterations, int(orig[i]), int(label), float(norm))
        stepped = ok[rows]
        active = active[rows[stepped]]
        r_total[active] += step[stepped]
        iterations += 1
        # The overshot point doubles as flip probe and next linearization point.
        point = x0[active] + scale * r_total[active]
    return results


def batch_deepfool(
    net: NetworkState,
    xs,
    cfg: AttackConfig = AttackConfig(),
) -> list[AdversarialResult]:
    """Per-sample DeepFool over a sized sequence of inputs; order preserved.

    The inputs are attacked in lockstep groups of ``_CHUNK // C`` from row 0,
    the block size of ``egl_scores``. Each element is ``deepfool``'s result
    for its input, bit for bit (see ``_attack_group``). Any error, such as
    the InputError of a wrongly shaped input, raises.
    """
    group = max(1, _CHUNK // net.spec.class_count)
    results = []
    for lo in range(0, len(xs), group):
        results += _attack_group(net, np.asarray(xs[lo : lo + group], dtype=DTYPE), cfg)
    return results
