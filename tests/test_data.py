import gzip
import hashlib
import struct

import numpy as np
import numpy.testing as npt
import pytest

from wdlab import data
from wdlab.errors import DataFormatError, DegenerateError, DomainError, ShapeError


# --- IDX fixtures -----------------------------------------------------------


def _idx_images(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">iiii", data.IMAGE_MAGIC, n, rows, cols) + images.astype(
        np.uint8
    ).tobytes()


def _idx_labels(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">ii", data.LABEL_MAGIC, labels.size) + labels.tobytes()


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 28, 28)).astype(np.uint8)
    labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(_idx_images(images))
    lbl_path.write_bytes(_idx_labels(labels))
    return img_path, lbl_path, images, labels


def test_load_mnist_shapes_and_scaling(idx_pair):
    img_path, lbl_path, images, labels = idx_pair
    pixels, y = data.load_mnist(img_path, lbl_path)
    assert pixels.shape == (5, 784) and pixels.dtype == np.uint8
    npt.assert_array_equal(y, labels)
    x = pixels / 255.0
    assert x.min() >= 0.0 and x.max() <= 1.0
    # the division of uint8 pixels rounds each exactly as float64(raw) / 255.0
    npt.assert_array_equal(x, images.reshape(5, -1).astype(np.float64) / 255.0)


def test_load_mnist_gzip_detected_by_magic(tmp_path, idx_pair):
    img_path, lbl_path, images, labels = idx_pair
    gz_img = tmp_path / "images.idx.gz"
    gz_lbl = tmp_path / "labels.idx.gz"
    gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
    gz_lbl.write_bytes(gzip.compress(lbl_path.read_bytes()))
    plain = data.load_mnist(img_path, lbl_path)
    packed = data.load_mnist(gz_img, gz_lbl)
    npt.assert_array_equal(plain[0], packed[0])
    npt.assert_array_equal(plain[1], packed[1])


def test_load_mnist_first_image_checksum_is_stable(idx_pair):
    # golden-file check: the ingest of a fixed byte stream is reproducible
    img_path, lbl_path, _, _ = idx_pair
    first = data.load_mnist(img_path, lbl_path)[0][0]
    digest = hashlib.sha256(first.tobytes()).hexdigest()
    again = hashlib.sha256(data.load_mnist(img_path, lbl_path)[0][0].tobytes()).hexdigest()
    assert digest == again


def test_load_mnist_rejects_wrong_magic(tmp_path, idx_pair):
    _, lbl_path, images, _ = idx_pair
    bad = tmp_path / "bad.idx"
    bad.write_bytes(struct.pack(">iiii", 1234, 5, 28, 28) + b"\x00" * (5 * 784))
    with pytest.raises(DataFormatError, match="magic"):
        data.load_mnist(bad, lbl_path)


def test_load_mnist_rejects_truncated_payload(tmp_path, idx_pair):
    _, lbl_path, images, _ = idx_pair
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(_idx_images(images)[:-100])
    with pytest.raises(DataFormatError, match="byte offset"):
        data.load_mnist(trunc, lbl_path)


def test_load_mnist_rejects_count_mismatch(tmp_path, idx_pair):
    img_path, _, _, _ = idx_pair
    lbl3 = tmp_path / "three.idx"
    lbl3.write_bytes(_idx_labels([0, 1, 2]))
    with pytest.raises(DataFormatError, match="mismatch"):
        data.load_mnist(img_path, lbl3)


def test_load_mnist_rejects_short_header(tmp_path):
    stub = tmp_path / "stub.idx"
    stub.write_bytes(b"\x00\x00")
    with pytest.raises(DataFormatError, match="header"):
        data._parse_idx_images(stub.read_bytes(), stub)


# --- dataset invariants -----------------------------------------------------


def test_dataset_rejects_bad_labels():
    with pytest.raises(DomainError):
        data.Dataset(x=np.zeros((3, 2)), y=np.array([0, 1, 5]), n_classes=3)


def test_dataset_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        data.Dataset(x=np.zeros((3, 2)), y=np.array([0, 1]), n_classes=2)


def test_dataset_rejects_sizes_that_do_not_fit():
    for sizes in (dict(n_train=3, n_val=1, n_test=1), dict(n_train=2, n_val=-1)):
        with pytest.raises(DomainError, match="do not fit 4 rows"):
            data.Dataset(x=np.zeros((4, 2)), y=np.zeros(4, dtype=int), n_classes=2, **sizes)


def _numbered(n):
    """A dataset whose row i is (i, i) with label i % 2."""
    return data.Dataset(x=np.repeat(np.arange(n, dtype=float)[:, None], 2, axis=1),
                        y=np.arange(n) % 2, n_classes=2)


def test_make_splits_sizes_and_disjointness():
    split = data.make_splits(_numbered(100), 60, 20, 10, seed=7)
    assert (split.n_train, split.n_val, split.n_test) == (60, 20, 10)
    # only the drawn rows are kept, each once
    assert split.n == 90
    assert np.unique(split.x[:, 0]).size == 90
    npt.assert_array_equal(split.y, split.x[:, 0].astype(int) % 2)
    rows = [split.split(name)[0][:, 0] for name in ("train", "val", "test")]
    assert [r.size for r in rows] == [60, 20, 10]
    npt.assert_array_equal(np.concatenate(rows), split.x[:, 0])


def test_make_splits_deterministic_per_seed():
    # make_splits consumes its pool, so each call gets a fresh one
    a = data.make_splits(_numbered(50), 30, 10, 10, seed=3)
    b = data.make_splits(_numbered(50), 30, 10, 10, seed=3)
    npt.assert_array_equal(a.x, b.x)
    npt.assert_array_equal(a.y, b.y)
    c = data.make_splits(_numbered(50), 30, 10, 10, seed=4)
    assert not np.array_equal(a.split("train")[0], c.split("train")[0])


def test_make_splits_rejects_oversubscription():
    # refused before any row moves: a negative size that brings the total
    # down to the pool's rows too, so the pool keeps its bytes
    for sizes in ((8, 2, 1), (10, 1, -1)):
        ds = _numbered(10)
        with pytest.raises(DomainError, match="do not fit 10 rows"):
            data.make_splits(ds, *sizes, seed=0)
        assert ds.x.tobytes() == _numbered(10).x.tobytes()
        assert ds.y.tobytes() == _numbered(10).y.tobytes()


def _random_pool(n, d, seed):
    rng = np.random.default_rng(seed)
    return data.Dataset(x=rng.normal(size=(n, d)), y=rng.integers(0, 3, size=n), n_classes=3)


@pytest.mark.parametrize("n, d, sizes", [
    (700, 784, (500, 100, 100)),  # a full pool
    (1, 3, (1, 0, 0)),            # a one-row pool
    (100, 5, (40, 10, 10)),       # a partial pool
    (3000, 2, (2000, 500, 500)),  # a full pool whose longest cycle spans 512-row blocks
])
def test_make_splits_equals_the_gather_byte_for_byte(n, d, sizes):
    pool = _random_pool(n, d, seed=n)
    rows = np.random.default_rng(11).permutation(n)[: sum(sizes)]
    want_x, want_y = pool.x[rows], pool.y[rows]
    split = data.make_splits(pool, *sizes, seed=11)
    assert split.x.tobytes() == want_x.tobytes()
    assert split.y.tobytes() == want_y.tobytes()
    assert (split.n_train, split.n_val, split.n_test) == sizes


@pytest.mark.parametrize("rows", [
    [0, 2, 3, 1, 4, 6, 5],              # fixed points 0 and 4 beside a 3- and a 2-cycle
    list(range(1, 20)) + [0],           # one cycle over seven blocks of 3
    [3, 4, 5, 0, 1, 2, 6, 8, 7],        # three 2-cycles, a fixed point and a swap
])
def test_permute_rows_equals_the_gather(rows, monkeypatch):
    monkeypatch.setattr(data, "_BLOCK_ROWS", 3)
    rows = np.array(rows)
    x = np.random.default_rng(0).normal(size=(rows.size, 4))
    y = np.arange(rows.size) * 7
    want_x, want_y = x[rows], y[rows]
    data._permute_rows(rows, x, y)
    assert x.tobytes() == want_x.tobytes()
    assert y.tobytes() == want_y.tobytes()


def test_make_splits_of_a_full_pool_reorders_it_in_place():
    pool = _numbered(40)
    split = data.make_splits(pool, 20, 10, 10, seed=5)
    assert np.shares_memory(split.x, pool.x) and np.shares_memory(split.y, pool.y)
    # a partial split gathers its rows into new arrays and leaves the pool as it was
    pool = _numbered(40)
    split = data.make_splits(pool, 20, 5, 5, seed=5)
    assert not np.shares_memory(split.x, pool.x)
    npt.assert_array_equal(pool.x, _numbered(40).x)


def test_split_views_select_rows():
    x = np.arange(12, dtype=float).reshape(6, 2)
    ds = data.Dataset(x=x, y=np.array([0, 1, 0, 1, 0, 1]), n_classes=2, n_train=2, n_test=3)
    xt, yt = ds.split("train")
    npt.assert_array_equal(xt, x[:2])
    npt.assert_array_equal(yt, [0, 1])
    assert ds.split("val")[0].shape == (0, 2)
    npt.assert_array_equal(ds.split("test")[0], x[2:5])
    # views, so measuring a split copies no rows
    for name in ("train", "val", "test"):
        xs, ys = ds.split(name)
        assert np.shares_memory(xs, ds.x) or xs.size == 0
        assert np.shares_memory(ys, ds.y) or ys.size == 0


# --- synthetic generation ---------------------------------------------------


def test_gen_synthetic_reproducible_per_seed():
    a = data.gen_synthetic(200, 8, 4, seed=1)
    b = data.gen_synthetic(200, 8, 4, seed=1)
    npt.assert_array_equal(a.x, b.x)
    npt.assert_array_equal(a.y, b.y)
    c = data.gen_synthetic(200, 8, 4, seed=2)
    assert not np.array_equal(a.y, c.y)


def test_gen_synthetic_label_range_and_frequencies():
    ds = data.gen_synthetic(1000, 10, 5, seed=0)
    assert ds.y.min() >= 0 and ds.y.max() < 5
    counts = np.bincount(ds.y, minlength=5)
    assert counts.min() >= 10  # every class at >= 1%


def test_gen_synthetic_whitening_mode():
    ds = data.gen_synthetic(300, 6, 3, seed=5, whiten_inputs=True)
    npt.assert_allclose(ds.x.mean(axis=0), 0.0, atol=1e-12)
    cov = ds.x.T @ ds.x / ds.x.shape[0]
    npt.assert_allclose(cov, np.eye(6), atol=1e-10)


def test_gen_synthetic_whitening_needs_enough_samples():
    with pytest.raises(DegenerateError):
        data.gen_synthetic(5, 8, 3, seed=0, whiten_inputs=True)


def test_gen_synthetic_validates_sizes():
    with pytest.raises(DomainError):
        data.gen_synthetic(0, 3, 2, seed=0)
    with pytest.raises(DomainError):
        data.gen_synthetic(10, 3, 1, seed=0)


# --- whitening --------------------------------------------------------------


def test_whiten_postcondition_on_random_data():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(400, 7)) @ rng.normal(size=(7, 7)) + rng.normal(size=7)
    w = data.whiten(x)
    npt.assert_allclose(w.mean(axis=0), 0.0, atol=1e-12)
    cov = w.T @ w / w.shape[0]
    npt.assert_allclose(cov, np.eye(7), atol=1e-10)


def test_whiten_diagonal_covariance_scales_axes():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(20000, 2)) * np.array([2.0, 3.0])
    w = data.whiten(x)
    # per-axis standard deviations collapse to 1
    npt.assert_allclose(w.std(axis=0), 1.0, atol=1e-12)
    # and the transform is the diagonal scaling up to sampling noise
    ideal = (x - x.mean(axis=0)) / np.array([2.0, 3.0])
    assert np.linalg.norm(w - ideal) <= 0.05 * np.linalg.norm(ideal)


def test_whiten_near_identity_on_white_data():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(50000, 3))
    w = data.whiten(x)
    npt.assert_allclose(w, x - x.mean(axis=0), atol=0.05)


def test_whiten_rejects_rank_deficiency():
    rng = np.random.default_rng(12)
    base = rng.normal(size=(100, 2))
    x = np.hstack([base, base[:, :1] + base[:, 1:]])  # third column dependent
    with pytest.raises(DegenerateError, match="rank"):
        data.whiten(x)


def test_whiten_is_idempotent_up_to_roundoff():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(500, 4)) * np.array([1.0, 5.0, 0.2, 2.0])
    once = data.whiten(x)
    twice = data.whiten(once)
    npt.assert_allclose(once, twice, atol=1e-8)
