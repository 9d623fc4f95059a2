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
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .errors import DataFormatError, DegenerateError, DomainError, ShapeError

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
GZIP_MAGIC = b"\x1f\x8b"


@dataclass
class Dataset:
    """Feature matrix and integer labels, rows in split order: the first
    n_train rows are the train split, the next n_val validation and the
    next n_test test."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int
    n_train: int = 0
    n_val: int = 0
    n_test: int = 0

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
        sizes = (self.n_train, self.n_val, self.n_test)
        if min(sizes) < 0 or sum(sizes) > self.n:
            raise DomainError(f"train/val/test sizes {sizes} do not fit {self.n} rows")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The split's rows as views of x and y."""
        start = {"train": 0, "val": self.n_train, "test": self.n_train + self.n_val}[name]
        rows = slice(start, start + getattr(self, f"n_{name}"))
        return self.x[rows], self.y[rows]


def make_splits(dataset: Dataset, n_train: int, n_val: int, n_test: int, seed: int) -> Dataset:
    """Keep n_train + n_val + n_test rows drawn by one seeded permutation,
    in split order.  Consumes `dataset`: when every row is kept, its x and y
    are reordered in place and shared with the result.  Sizes the pool cannot
    hold are refused before any row moves."""
    split = replace(dataset, n_train=n_train, n_val=n_val, n_test=n_test)
    rows = split_rows(dataset.n, n_train, n_val, n_test, seed)
    if rows.size < dataset.n:  # a gather holds only the kept rows beside the pool
        return replace(split, x=dataset.x[rows], y=dataset.y[rows])
    _permute_rows(rows, split.x, split.y)
    return split


def split_rows(n: int, n_train: int, n_val: int, n_test: int, seed: int) -> np.ndarray:
    """The rows of an n-row pool that `make_splits` keeps, in split order:
    the head of one seeded permutation."""
    return np.random.default_rng(seed).permutation(n)[: n_train + n_val + n_test]


_BLOCK_ROWS = 512  # rows one move copies through a temporary


def _permute_rows(rows: np.ndarray, *arrays: np.ndarray) -> None:
    """Set each array to array[rows] in place by walking the cycles of the
    permutation `rows`, copying at most a block of rows at a time."""
    order = rows.tolist()
    done = [False] * len(order)
    for start, nxt in enumerate(order):
        if done[start] or nxt == start:
            continue
        cycle = [start]
        while nxt != start:
            done[nxt] = True
            cycle.append(nxt)
            nxt = order[nxt]
        # row cycle[k] takes row cycle[k + 1]; the last takes the first's
        dest, src = np.array(cycle[:-1]), np.array(cycle[1:])
        for a in arrays:
            first = a[start].copy()
            for s in range(0, dest.size, _BLOCK_ROWS):
                a[dest[s:s + _BLOCK_ROWS]] = a[src[s:s + _BLOCK_ROWS]]
            a[cycle[-1]] = first


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
    return pixels.reshape(count, rows * cols)


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


def load_mnist(image_path, label_path) -> tuple[np.ndarray, np.ndarray]:
    """Read an IDX image/label file pair (gzip detected by magic bytes): the
    images flattened to rows of uint8 pixels, which `/ 255.0` scales to
    [0, 1] with no float copy of the unscaled rows, and their labels."""
    images = _parse_idx_images(_read_maybe_gzip(image_path), image_path)
    labels = _parse_idx_labels(_read_maybe_gzip(label_path), label_path)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image/label count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    return images, labels


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
    initialized teacher network, d -> 32 (ReLU) -> k, bias-free.

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
    teacher = nn.mlp([d, 32, k], activation="relu")
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
