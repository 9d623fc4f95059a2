"""Datasets for the experiment harness.

Two sources: MNIST in IDX format (optionally gzip-compressed) and synthetic
Gaussian inputs labeled by a random teacher network.  A whitening transform
maps a sample to exact zero mean and identity covariance — the hypothesis
under which the layerwise metric norm reduces to the input-output Jacobian
norm.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import DataFormatError, DegenerateError, DomainError, ShapeError

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
GZIP_MAGIC = b"\x1f\x8b"


@dataclass
class Dataset:
    """Feature matrix, integer labels, and a three-way split by row index."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int
    train_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    val_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    test_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ShapeError(
                f"expected x (n, d) with matching labels (n,), got {self.x.shape} and {self.y.shape}"
            )
        if self.n_classes < 1:
            raise DomainError(f"need at least one class, got {self.n_classes}")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.n_classes):
            raise DomainError(
                f"labels must lie in [0, {self.n_classes}), got range "
                f"[{self.y.min()}, {self.y.max()}]"
            )
        for name in ("train_idx", "val_idx", "test_idx"):
            idx = np.asarray(getattr(self, name), dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= self.x.shape[0]):
                raise DomainError(f"{name} out of range for {self.x.shape[0]} rows")
            setattr(self, name, idx)
        combined = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if combined.size != np.unique(combined).size:
            raise DomainError("train/val/test index sets must be disjoint")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        idx = {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}[name]
        return self.x[idx], self.y[idx]


def make_splits(dataset: Dataset, n_train: int, n_val: int, n_test: int, seed: int) -> Dataset:
    """Draw disjoint train/val/test index sets of the given sizes."""
    total = n_train + n_val + n_test
    if total > dataset.n:
        raise DomainError(
            f"requested {total} examples across splits but dataset has {dataset.n}"
        )
    for name, size in (("train", n_train), ("val", n_val), ("test", n_test)):
        if size < 0:
            raise DomainError(f"{name} size must be nonnegative, got {size}")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    return Dataset(
        x=dataset.x,
        y=dataset.y,
        n_classes=dataset.n_classes,
        train_idx=perm[:n_train],
        val_idx=perm[n_train : n_train + n_val],
        test_idx=perm[n_train + n_val : total],
    )


# --- MNIST IDX --------------------------------------------------------------


def _read_maybe_gzip(path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        raw = fh.read()
    if head == GZIP_MAGIC:
        return gzip.decompress(raw)
    return raw


def _parse_idx_images(blob: bytes, path) -> np.ndarray:
    if len(blob) < 16:
        raise DataFormatError(
            f"{path}: IDX image header needs 16 bytes, file has {len(blob)}"
        )
    magic, count, rows, cols = struct.unpack(">iiii", blob[:16])
    if magic != IMAGE_MAGIC:
        raise DataFormatError(
            f"{path}: bad image magic {magic} at byte offset 0 (expected {IMAGE_MAGIC})"
        )
    need = 16 + count * rows * cols
    if len(blob) < need:
        raise DataFormatError(
            f"{path}: truncated pixel payload at byte offset {len(blob)} "
            f"(expected {need} bytes for {count} images of {rows}x{cols})"
        )
    pixels = np.frombuffer(blob, dtype=np.uint8, count=count * rows * cols, offset=16)
    return pixels.reshape(count, rows * cols).astype(np.float64) / 255.0


def _parse_idx_labels(blob: bytes, path) -> np.ndarray:
    if len(blob) < 8:
        raise DataFormatError(
            f"{path}: IDX label header needs 8 bytes, file has {len(blob)}"
        )
    magic, count = struct.unpack(">ii", blob[:8])
    if magic != LABEL_MAGIC:
        raise DataFormatError(
            f"{path}: bad label magic {magic} at byte offset 0 (expected {LABEL_MAGIC})"
        )
    if len(blob) < 8 + count:
        raise DataFormatError(
            f"{path}: truncated label payload at byte offset {len(blob)} "
            f"(expected {8 + count} bytes for {count} labels)"
        )
    return np.frombuffer(blob, dtype=np.uint8, count=count, offset=8).astype(np.int64)


def load_mnist(image_path, label_path) -> Dataset:
    """Read an IDX image/label file pair (gzip detected by magic bytes).

    Pixels are scaled to [0, 1] and images flattened to rows.
    """
    images = _parse_idx_images(_read_maybe_gzip(image_path), image_path)
    labels = _parse_idx_labels(_read_maybe_gzip(label_path), label_path)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image/label count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    return Dataset(x=images, y=labels, n_classes=10)


# --- synthetic --------------------------------------------------------------

_TEACHER_TRIES = 50


def gen_synthetic(
    n: int,
    d: int,
    k: int,
    seed: int = 0,
    whiten_inputs: bool = False,
) -> Dataset:
    """Gaussian inputs labeled by the argmax of the logits of a randomly
    initialized teacher network, d -> 32 (ReLU) -> k without biases.

    The teacher is resampled until every class claims at least 1% of the
    examples, so the labels are never degenerate.  Whitening requires n > d.
    """
    if n < 1 or d < 1 or k < 2:
        raise DomainError(f"need n >= 1, d >= 1, k >= 2, got n={n} d={d} k={k}")
    if whiten_inputs and n <= d:
        raise DegenerateError(
            f"whitening needs more examples than dimensions (n={n}, d={d}); "
            "reduce d or draw more samples"
        )
    teacher = nn.mlp([d, 32, k], activation="relu", bias=False)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    if whiten_inputs:
        x = whiten(x)
    min_count = max(1, int(np.ceil(0.01 * n)))
    for _ in range(_TEACHER_TRIES):
        params = nn.init_params(teacher, rng)
        logits, _ = nn.forward(teacher, params, x, mode="eval")
        y = np.argmax(logits, axis=1)
        counts = np.bincount(y, minlength=k)
        if counts.min() >= min_count:
            return Dataset(x=x, y=y, n_classes=k)
    raise DegenerateError(
        f"no teacher produced every class at >= 1% frequency in {_TEACHER_TRIES} tries "
        f"(n={n}, k={k})"
    )


def whiten(x) -> np.ndarray:
    """Map a sample to exact zero mean and identity covariance via the
    symmetric inverse square root of the empirical covariance."""
    xm = np.asarray(x, dtype=np.float64)
    if xm.ndim != 2:
        raise ShapeError(f"expected a matrix of samples, got shape {xm.shape}")
    centered = xm - xm.mean(axis=0)
    cov = centered.T @ centered / xm.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    floor = xm.shape[1] * np.finfo(np.float64).eps * max(float(evals[-1]), 1.0)
    if evals[0] <= floor:
        raise DegenerateError(
            "empirical covariance is rank-deficient; whitening is impossible — "
            "reduce the input dimension or supply more samples"
        )
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    return centered @ inv_sqrt
