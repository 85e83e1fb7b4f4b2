"""Dataset loading, synthetic data generation, splits, and the margin oracle.

File formats
------------
IDX (big-endian binary):
    images: u32 magic 0x00000803, u32 count, u32 rows, u32 cols, then
            count*rows*cols unsigned bytes, row-major.
    labels: u32 magic 0x00000801, u32 count, then count unsigned bytes.
    Gzipped files are detected by magic and decompressed transparently.
    Pixels are scaled to [0, 1] by dividing by 255.

CSV: one sample per row, ``label,v1,...,vd`` with a constant dimension d.
    An optional header row is detected by a non-numeric first token.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass, replace

import numpy as np

from adval.errors import ConfigError, FormatError, InputError
from adval.nn.layers import DTYPE
from adval.nn.network import NetworkState, predict_batch

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray  # (n, *shape) float64
    labels: np.ndarray  # (n,) int64
    class_count: int
    name: str = ""

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise InputError(
                f"{len(self.inputs)} inputs but {len(self.labels)} labels"
            )
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.class_count
        ):
            raise InputError(f"labels outside [0, {self.class_count})")
        if not np.all(np.isfinite(self.inputs)):
            raise InputError("inputs contain non-finite values")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.inputs.shape[1:]

    def classes_present(self) -> bool:
        return len(np.unique(self.labels)) == self.class_count

    def reshape_inputs(self, shape: tuple[int, ...]) -> "Dataset":
        """Same samples viewed with a different per-sample shape."""
        if int(np.prod(shape)) != int(np.prod(self.input_shape)):
            raise ConfigError(f"cannot view {self.input_shape} samples as {shape}")
        return replace(self, inputs=self.inputs.reshape(len(self), *shape))


@dataclass(frozen=True)
class SyntheticSpec:
    class_count: int
    points_per_class: int
    dimension: int = 2
    center_radius: float = 2.0
    cov_scale: float | tuple[float, ...] = 0.35
    seed: int = 0

    def __post_init__(self):
        if self.class_count < 2:  # messages start with their field, for the config loader
            raise ConfigError(f"class_count must be >= 2, got {self.class_count}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("points_per_class", "dimension"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(s <= 0 for s in self.class_scales()):
            raise ConfigError(f"cov_scale must be positive, got {self.cov_scale}")

    def class_scales(self) -> tuple[float, ...]:
        if isinstance(self.cov_scale, (int, float)):
            return (float(self.cov_scale),) * self.class_count
        if len(self.cov_scale) != self.class_count:
            raise ConfigError(f"cov_scale needs {self.class_count} scales, got {self.cov_scale}")
        return tuple(float(s) for s in self.cov_scale)


def gen_blobs(spec: SyntheticSpec) -> Dataset:
    """Gaussian blobs, one class per equally spaced angle on a circle.

    Centers sit on a circle of ``center_radius`` in the first two coordinates
    (on a segment for dimension 1); remaining coordinates are zero-mean noise.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.class_count * spec.points_per_class
    inputs = np.empty((n, spec.dimension), dtype=DTYPE)
    labels = np.empty(n, dtype=np.int64)
    scales = spec.class_scales()
    for c in range(spec.class_count):
        angle = 2.0 * np.pi * c / spec.class_count
        center = np.zeros(spec.dimension, dtype=DTYPE)
        center[0] = spec.center_radius * np.cos(angle)
        if spec.dimension > 1:
            center[1] = spec.center_radius * np.sin(angle)
        lo = c * spec.points_per_class
        hi = lo + spec.points_per_class
        inputs[lo:hi] = center + scales[c] * rng.standard_normal(
            (spec.points_per_class, spec.dimension)
        )
        labels[lo:hi] = c
    order = rng.permutation(n)
    return Dataset(inputs[order], labels[order], spec.class_count, name="blobs")


def _open_maybe_gzip(path):
    with open(path, "rb") as f:
        magic = f.read(2)
    return gzip.open(path) if magic == b"\x1f\x8b" else open(path, "rb")


def _read_u32s(f, count: int, path, offset: int) -> tuple[int, ...]:
    raw = f.read(4 * count)
    if len(raw) != 4 * count:
        raise FormatError(f"{path}: truncated header at byte {offset + len(raw)}")
    return struct.unpack(f">{count}I", raw)


def _read_payload(f, count: int, path, offset: int) -> np.ndarray:
    raw = f.read(count)
    if len(raw) != count:
        raise FormatError(
            f"{path}: truncated payload at byte {offset + len(raw)}, expected {count} bytes"
        )
    return np.frombuffer(raw, dtype=np.uint8)


def load_idx(images_path, labels_path, name: str = "idx") -> Dataset:
    """Parse an IDX image/label file pair into a dataset with pixels in [0, 1]."""
    with _open_maybe_gzip(images_path) as f:
        (magic,) = _read_u32s(f, 1, images_path, 0)
        if magic != _IDX_IMAGE_MAGIC:
            raise FormatError(
                f"{images_path}: bad image magic 0x{magic:08x} at byte 0, "
                f"expected 0x{_IDX_IMAGE_MAGIC:08x}"
            )
        n, rows, cols = _read_u32s(f, 3, images_path, 4)
        pixels = _read_payload(f, n * rows * cols, images_path, 16)
    with _open_maybe_gzip(labels_path) as f:
        (magic,) = _read_u32s(f, 1, labels_path, 0)
        if magic != _IDX_LABEL_MAGIC:
            raise FormatError(
                f"{labels_path}: bad label magic 0x{magic:08x} at byte 0, "
                f"expected 0x{_IDX_LABEL_MAGIC:08x}"
            )
        (n_labels,) = _read_u32s(f, 1, labels_path, 4)
        labels = _read_payload(f, n_labels, labels_path, 8)
    if n != n_labels:
        raise FormatError(
            f"count mismatch: {images_path} has {n} images but {labels_path} has "
            f"{n_labels} labels"
        )
    inputs = pixels.reshape(n, rows, cols).astype(DTYPE) / 255.0
    class_count = int(labels.max()) + 1 if n else 0
    return Dataset(inputs, labels.astype(np.int64), class_count, name=name)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_csv(path, class_count: int, name: str = "csv") -> Dataset:
    """Parse ``label,v1,...,vd`` rows; header row optional."""
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(line.split(","))
    if not rows:
        raise FormatError(f"{path}: empty file")
    start = 0
    if not _is_number(rows[0][0]):
        start = 1
    body = rows[start:]
    if not body:
        raise FormatError(f"{path}: no data rows")
    dim = len(body[0]) - 1
    if dim < 1:
        raise FormatError(f"{path}: row {start + 1} has no feature columns")
    inputs = np.empty((len(body), dim), dtype=DTYPE)
    labels = np.empty(len(body), dtype=np.int64)
    for i, row in enumerate(body):
        rownum = start + i + 1
        if len(row) != dim + 1:
            raise FormatError(
                f"{path}: ragged row {rownum}: expected {dim + 1} fields, got {len(row)}"
            )
        try:
            label = float(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric value in row {rownum}") from exc
        # the range test comes first: it is False for nan and inf, which int() rejects
        if not 0 <= label < class_count or label != int(label):
            raise FormatError(
                f"{path}: row {rownum} label {row[0]} outside [0, {class_count})"
            )
        labels[i] = int(label)
        inputs[i] = values
    return Dataset(inputs, labels, class_count, name=name)


def _balanced_counts(total: int, class_count: int, rng: np.random.Generator) -> np.ndarray:
    counts = np.full(class_count, total // class_count, dtype=np.int64)
    extra = rng.permutation(class_count)[: total % class_count]
    counts[extra] += 1
    return counts


def stratified_subsample(dataset: Dataset, cap: int, seed: int = 0) -> Dataset:
    """Deterministic class-balanced subsample; per-class counts differ by <= 1."""
    if cap > len(dataset):
        raise ConfigError(f"cap {cap} exceeds dataset size {len(dataset)}")
    if cap < dataset.class_count:
        raise ConfigError(f"cap {cap} below class count {dataset.class_count}")
    rng = np.random.default_rng(seed)
    counts = _balanced_counts(cap, dataset.class_count, rng)
    chosen: list[np.ndarray] = []
    for c in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == c)
        if len(members) < counts[c]:
            raise ConfigError(
                f"class {c} has {len(members)} samples, need {counts[c]} for a balanced pool"
            )
        chosen.append(rng.permutation(members)[: counts[c]])
    keep = np.sort(np.concatenate(chosen))
    return replace(dataset, inputs=dataset.inputs[keep], labels=dataset.labels[keep])


def split_and_subsample(
    dataset: Dataset,
    test_fraction: float,
    pool_cap: int | None = None,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Carve out a stratified test set of ``test_fraction``, then cap the pool."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"data.test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    test_idx: list[np.ndarray] = []
    for c in range(dataset.class_count):
        members = rng.permutation(np.flatnonzero(dataset.labels == c))
        take = int(round(len(members) * test_fraction))
        test_idx.append(members[:take])
    mask = np.zeros(len(dataset), dtype=bool)
    mask[np.concatenate(test_idx)] = True
    if not mask.any():
        raise ConfigError(
            f"data.test_fraction {test_fraction} leaves no test rows out of {len(dataset)}"
            f" in {dataset.class_count} classes; raise it"
        )
    test_set = replace(dataset, inputs=dataset.inputs[mask], labels=dataset.labels[mask])
    train = replace(dataset, inputs=dataset.inputs[~mask], labels=dataset.labels[~mask])
    if pool_cap is not None and pool_cap < len(train):
        train = stratified_subsample(train, pool_cap, seed=seed + 1)
    return train, test_set


def _unit_directions(dimension: int, count: int) -> np.ndarray:
    if dimension == 1:
        return np.array([[1.0], [-1.0]], dtype=DTYPE)
    if dimension == 2:
        angles = 2.0 * np.pi * np.arange(count, dtype=DTYPE) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # dimension 3: Fibonacci sphere
    i = np.arange(count, dtype=DTYPE) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


def margin_oracle(
    net: NetworkState,
    x: np.ndarray,
    radius_max: float,
    steps_radial: int = 64,
    directions: int = 360,
    bisect_iters: int = 30,
) -> float:
    """Brute-force distance from ``x`` to the nearest prediction change.

    Sweeps a dense direction/radius grid around ``x``, then bisects each
    flipping direction down to a tight bracket. Returns +inf when no probe
    inside ``radius_max`` changes the predicted class. Only practical for
    inputs with at most 3 dimensions.
    """
    x = np.asarray(x, dtype=DTYPE)
    dim = int(x.size)
    if dim > 3:
        raise InputError(f"margin oracle is brute force only; dimension {dim} > 3")
    base_label = int(predict_batch(net, x.reshape(1, *net.spec.input_shape))[0])
    dirs = _unit_directions(dim, directions)
    radii = np.linspace(radius_max / steps_radial, radius_max, steps_radial, dtype=DTYPE)
    probes = x.reshape(1, 1, dim) + radii[None, :, None] * dirs[:, None, :]
    flat = probes.reshape(-1, *net.spec.input_shape)
    flips = (predict_batch(net, flat) != base_label).reshape(len(dirs), steps_radial)
    hit = flips.any(axis=1)
    if not hit.any():
        return float("inf")
    first = flips[hit].argmax(axis=1)
    hi = radii[first]
    lo = np.where(first > 0, radii[np.maximum(first - 1, 0)], 0.0)
    d = dirs[hit]
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        pts = (x[None, :] + mid[:, None] * d).reshape(-1, *net.spec.input_shape)
        mid_flip = predict_batch(net, pts) != base_label
        hi = np.where(mid_flip, mid, hi)
        lo = np.where(mid_flip, lo, mid)
    return float(hi.min())
