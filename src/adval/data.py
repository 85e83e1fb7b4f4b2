"""Dataset loading, synthetic data generation, and splits.

File formats
------------
IDX (big-endian binary):
    images: u32 magic 0x00000803, u32 count, u32 rows, u32 cols, then
            count*rows*cols unsigned bytes, row-major.
    labels: u32 magic 0x00000801, u32 count, then count unsigned bytes.
    Nothing may follow the payload, and images need at least one pixel.
    Gzipped files are detected by magic and decompressed transparently.
    Pixels are scaled to [0, 1] by dividing by 255.

CSV: UTF-8 text less a leading BOM, one finite ``label,v1,...,vd`` row per sample, dimension d
    constant. An optional header row is detected by a non-numeric first token.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from adval.errors import ConfigError, FormatError, InputError, require_at_least
from adval.nn.layers import DTYPE

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801
_READ_BLOCK = 1 << 20  # bytes per read of an IDX payload


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

    def missing_classes(self) -> list[int]:
        """The classes below ``class_count`` that no sample has, ascending."""
        return np.setdiff1d(np.arange(self.class_count), self.labels).tolist()


@dataclass(frozen=True)
class SyntheticSpec:
    class_count: int
    points_per_class: int
    dimension: int = 2
    center_radius: float = 2.0
    cov_scale: float = 0.35
    seed: int = 0

    def __post_init__(self):
        require_at_least(self, class_count=2, seed=0, points_per_class=1, dimension=1)
        for name in ("center_radius", "cov_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.cov_scale > 0:
            raise ConfigError(f"cov_scale must be positive, got {self.cov_scale}")


def indexable(*dims: int) -> bool:
    """Whether numpy can index an array of ``DTYPE`` shaped ``dims``."""
    return math.prod(dims) <= np.iinfo(np.intp).max // np.dtype(DTYPE).itemsize


def gen_blobs(spec: SyntheticSpec) -> Dataset:
    """Gaussian blobs, one class per equally spaced angle on a circle.

    Centers sit on a circle of ``center_radius`` in the first two coordinates
    (on a segment for dimension 1); remaining coordinates are zero-mean noise.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.class_count * spec.points_per_class
    inputs = np.empty((n, spec.dimension), dtype=DTYPE)
    labels = np.empty(n, dtype=np.int64)
    for c in range(spec.class_count):
        angle = 2.0 * np.pi * c / spec.class_count
        center = np.zeros(spec.dimension, dtype=DTYPE)
        center[0] = spec.center_radius * np.cos(angle)
        if spec.dimension > 1:
            center[1] = spec.center_radius * np.sin(angle)
        lo = c * spec.points_per_class
        hi = lo + spec.points_per_class
        inputs[lo:hi] = center + spec.cov_scale * rng.standard_normal(
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


def _read_idx(path, magic: int, what: str, dims: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The ``dims`` sizes in an IDX header, and the unsigned-byte payload after it.

    The file must end with the payload. Reading past it also makes gzip check
    its stream's CRC, which a read that stops at the payload's end skips.
    """
    try:
        with _open_maybe_gzip(path) as f:
            (found,) = _read_u32s(f, 1, path, 0)
            if found != magic:
                raise FormatError(
                    f"{path}: bad {what} magic 0x{found:08x} at byte 0, expected 0x{magic:08x}"
                )
            sizes = _read_u32s(f, dims, path, 4)
            count = math.prod(sizes)
            # bounded reads: a header may claim more bytes than the file holds or than
            # memory can, so a short payload must end at the file's end, not in f.read
            raw = bytearray()
            while len(raw) < count and (block := f.read(min(count - len(raw), _READ_BLOCK))):
                raw += block
            trailing = len(raw) == count and f.read(1)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise FormatError(f"{path}: corrupt gzip stream: {exc}") from exc
    end = 4 + 4 * dims + len(raw)
    if len(raw) != count:
        raise FormatError(f"{path}: truncated payload at byte {end}, expected {count} bytes")
    if trailing:
        raise FormatError(f"{path}: bytes after the {count}-byte payload, from byte {end}")
    return sizes, np.frombuffer(raw, dtype=np.uint8)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a dataset with pixels in [0, 1]."""
    (n, rows, cols), pixels = _read_idx(images_path, _IDX_IMAGE_MAGIC, "image", 3)
    if not rows or not cols:
        raise FormatError(f"{images_path}: image size {rows}x{cols} holds no pixels")
    (n_labels,), labels = _read_idx(labels_path, _IDX_LABEL_MAGIC, "label", 1)
    if n != n_labels:
        raise FormatError(
            f"count mismatch: {images_path} has {n} images but {labels_path} has "
            f"{n_labels} labels"
        )
    inputs = pixels.reshape(n, rows, cols).astype(DTYPE) / 255.0
    class_count = int(labels.max()) + 1 if n else 0
    return Dataset(inputs, labels.astype(np.int64), class_count)


def read_lines(path, error=FormatError, newline=None) -> list[str]:
    """The lines of a UTF-8 text file less a leading BOM; other bytes raise ``error``."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as f:
            return f.readlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_csv(path, class_count: int) -> Dataset:
    """Parse ``label,v1,...,vd`` rows; header row optional."""
    rows = [line.strip().split(",") for line in read_lines(path) if line.strip()]
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
        if not all(map(math.isfinite, values)):
            raise FormatError(f"{path}: non-finite feature value in row {rownum}")
        # the range test comes first: it is False for nan and inf, which int() rejects
        if not 0 <= label < class_count or label != int(label):
            raise FormatError(
                f"{path}: row {rownum} label {row[0]} outside [0, {class_count})"
            )
        labels[i] = int(label)
        inputs[i] = values
    return Dataset(inputs, labels, class_count)


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


def stratified_split(
    dataset: Dataset, test_fraction: float, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """(pool, test set): a stratified test set of ``test_fraction`` in (0, 1), and the rest."""
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
    return train, test_set
