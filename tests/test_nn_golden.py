"""Golden digests: trained parameters, scoring logits and DeepFool perturbations, bit for bit.

The digests pin results computed with full backward passes, in which every
layer forms both its input and its parameter gradients. Restricting which
gradients a caller requests, or rewriting a kernel's layout, must leave them
bit-identical. They are tied to float64 numpy with OpenBLAS; another BLAS
build may round differently and would need new digests.

OpenBLAS picks its kernels for the CPU it runs on, and kernels round
differently, so each digest set belongs to one kernel. The set is chosen by
the ``OPENBLAS_CORETYPE`` environment variable, which forces OpenBLAS's
kernel; unset, the SkylakeX set applies (the kernel of AVX-512 x86 hosts).
The SkylakeX kernel also rounds arch-B's training differently on one thread
than on several, so the set depends on OpenBLAS's thread count too: the
first of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` that is set, else the CPUs this process may run on.
perfbench pins one thread. The Haswell digests are the same at 1, 2 and 4
threads, and so is each kernel's scoring digest.
"""

import hashlib
import os

import numpy as np
import pytest

from adval import nn
from adval.attacks import AttackConfig, batch_deepfool
from adval.nn import TrainConfig, build_network

TRAINED_DIGESTS = {
    "arch-A": "f9b4810872f9baff",
    "arch-B": "6547bf764c4228e5",
}
DEEPFOOL_DIGEST = "140929ce1ac32dc1"

# OpenBLAS core type (lower case) -> (TRAINED_DIGESTS, DEEPFOOL_DIGEST)
KERNEL_DIGESTS = {
    "skylakex": (TRAINED_DIGESTS, DEEPFOOL_DIGEST),
    "haswell": ({"arch-A": "0f3cf093ea80c221", "arch-B": "f7192b8b69008149"}, "1e7518b251f5a4b3"),
}
# The same for OpenBLAS on one thread, where it differs from the above.
SINGLE_THREAD_DIGESTS = {
    "skylakex": ({"arch-A": "f9b4810872f9baff", "arch-B": "6891125ca515d98a"}, DEEPFOOL_DIGEST),
}
# OpenBLAS core type -> digest of trained arch-A's logits over 300 rows: one
# full evaluation chunk plus a partial one.
SCORING_DIGESTS = {"skylakex": "1090d4d1e06c0abd", "haswell": "1d556020a965b9be"}


def blas_threads() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def kernel_name() -> str:
    kernel = (os.environ.get("OPENBLAS_CORETYPE") or "SkylakeX").lower()
    if kernel not in KERNEL_DIGESTS:
        pytest.fail(f"no golden digests recorded for OPENBLAS_CORETYPE={kernel}")
    return kernel


def kernel_digests():
    kernel = kernel_name()
    if blas_threads() == 1:
        return SINGLE_THREAD_DIGESTS.get(kernel, KERNEL_DIGESTS[kernel])
    return KERNEL_DIGESTS[kernel]


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def image_data(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 1, 28, 28))
    y = rng.integers(0, 10, size=n)
    return x, y


def trained(arch):
    x, y = image_data(96)
    spec = build_network(arch, x.shape[1:], 10, seed=3)
    cfg = TrainConfig(epochs=2, seed=4)
    return nn.train(nn.init_network(spec), list(zip(x, y)), cfg)


def param_arrays(state):
    return [p[k] for p in state.params if p is not None for k in sorted(p)]


def test_trained_parameters_match_golden():
    expected, _ = kernel_digests()
    got = {arch: digest_arrays(param_arrays(trained(arch))) for arch in expected}
    assert got == expected


def test_scoring_logits_match_golden():
    x, _ = image_data(300, seed=2)
    got = digest_arrays([nn.forward_batch(trained("arch-A"), x)])
    assert got == SCORING_DIGESTS[kernel_name()]


def test_deepfool_perturbations_match_golden():
    net = trained("arch-A")
    xs, _ = image_data(12, seed=1)
    results = batch_deepfool(net, xs, AttackConfig(max_iter=20))
    got = digest_arrays(
        [r.perturbation for r in results] + [np.array([r.iterations for r in results])]
    )
    assert got == kernel_digests()[1]
