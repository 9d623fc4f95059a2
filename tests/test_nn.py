"""Network engine: forward/backward exactness, BN semantics, Jacobians,
parameter flattening, and checkpoint round-trips.

Every gradient path is checked against central finite differences, including
the train-mode BN backward, whose batch statistics depend on the weights.
ReLU cases assert a margin between every activation input and zero so the
finite-difference probes never cross a kink.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import central_diff_grad, central_diff_jacobian, flatten_grads
from wdlab import nn
from wdlab.errors import (
    CapacityError,
    ContractError,
    DataFormatError,
    DegenerateError,
    DomainError,
    ShapeError,
)


def relu_margin(spec, trace):
    """Smallest |activation input| across hidden layers (FD safety margin)."""
    m = np.inf
    for h in range(spec.n_hidden):
        z = trace.bn_normalized[h] if spec.bn_at(h) else trace.pre_activations[h]
        m = min(m, float(np.min(np.abs(z))))
    return m


def seeded_scalar_loss(spec, x, seed_matrix, mode="train", bn_state=None):
    """phi(theta) = <seed, logits(theta)>, as a function of the flat params."""

    def f(theta):
        params = nn.unflatten_params(spec, theta)
        logits, _ = nn.forward(spec, params, x, mode=mode, bn_state=bn_state)
        return float(np.sum(seed_matrix * logits))

    return f


# --- forward ----------------------------------------------------------------


def test_forward_identity_net_is_matrix_chain():
    rng = np.random.default_rng(0)
    spec = nn.mlp((3, 5, 2), activation=nn.IDENTITY)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(7, 3))
    logits, trace = nn.forward(spec, params, x)
    assert_allclose(logits, x @ params.weights[0].T @ params.weights[1].T, rtol=1e-12)
    assert trace.logits is logits or np.array_equal(trace.logits, logits)
    assert len(trace.layer_inputs) == 2
    assert len(trace.pre_activations) == 2


def test_forward_relu():
    spec = nn.NetworkSpec((2, 2, 1), activation=nn.RELU)
    params = nn.NetworkParams(
        weights=[np.array([[1.0, 0.0], [0.0, -2.0]]), np.array([[1.25, 1.0]])],
    )
    logits, _ = nn.forward(spec, params, np.array([[2.0, 0.5]]))
    # relu([2, -1]) = [2, 0]; output = 1.25 * 2 + 0
    assert_allclose(logits, [[2.5]], rtol=1e-15)


def test_forward_trace_shapes_with_bn():
    rng = np.random.default_rng(1)
    spec = nn.mlp((4, 6, 5, 3), bn=True)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(10, 4))
    _, trace = nn.forward(spec, params, x)
    assert [a.shape for a in trace.layer_inputs] == [(10, 4), (10, 6), (10, 5)]
    assert [s.shape for s in trace.pre_activations] == [(10, 6), (10, 5), (10, 3)]
    assert trace.bn_normalized[0].shape == (10, 6)
    assert trace.bn_stds[1].shape == (5,)


def test_forward_validates_input_and_mode():
    rng = np.random.default_rng(2)
    spec = nn.mlp((4, 3, 2))
    params = nn.init_params(spec, rng)
    with pytest.raises(ShapeError):
        nn.forward(spec, params, np.zeros((5, 3)))
    with pytest.raises(ShapeError):
        nn.forward(spec, params, np.zeros(4))
    with pytest.raises(DomainError):
        nn.forward(spec, params, np.zeros((5, 4)), mode="test")
    bn_spec = nn.mlp((4, 3, 2), bn=True)
    bn_params = nn.init_params(bn_spec, rng)
    with pytest.raises(DegenerateError):
        nn.forward(bn_spec, bn_params, np.zeros((1, 4)), mode="train")
    # eval mode accepts single examples
    logits, _ = nn.forward(bn_spec, bn_params, np.zeros((1, 4)), mode="eval")
    assert logits.shape == (1, 2)


def test_batchnorm_train_output_is_normalized():
    rng = np.random.default_rng(3)
    spec = nn.mlp((5, 8, 3), bn=True)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(64, 5))
    _, trace = nn.forward(spec, params, x)
    z = trace.bn_normalized[0]
    assert_allclose(z.mean(axis=0), np.zeros(8), atol=1e-12)
    assert_allclose(z.var(axis=0), np.ones(8), rtol=1e-6)


def test_batchnorm_running_stats_follow_ema():
    rng = np.random.default_rng(4)
    spec = nn.mlp((3, 4, 2), bn=True)
    params = nn.init_params(spec, rng)
    state = nn.BnState.fresh(spec)
    x = rng.normal(size=(32, 3))
    s = x @ params.weights[0].T
    nn.forward(spec, params, x, mode="train", bn_state=state)
    assert_allclose(state.means[0], 0.1 * s.mean(axis=0), rtol=1e-12)
    assert_allclose(state.variances[0], 0.9 + 0.1 * s.var(axis=0), rtol=1e-12)
    # eval then normalizes by the running statistics
    _, trace = nn.forward(spec, params, x, mode="eval", bn_state=state)
    expected = (s - state.means[0]) / np.sqrt(state.variances[0] + 1e-8)
    assert_allclose(trace.bn_normalized[0], expected, rtol=1e-12)


def test_batchnorm_scale_invariance_under_layer_rescaling():
    # rescaling any weight layer that feeds a BN leaves the function unchanged
    # to 1e-9 relative (in norm); large pre-activation variance keeps the
    # epsilon perturbation negligible.
    rng = np.random.default_rng(5)
    spec = nn.mlp((6, 16, 16, 4), bn=True)
    params = nn.init_params(spec, rng)
    params.weights[1] *= 10.0
    x = rng.normal(size=(32, 6)) * 10.0
    base, _ = nn.forward(spec, params, x, mode="train")
    for layer, alpha in [(0, 0.5), (0, 2.0), (0, 10.0), (1, 0.5), (1, 2.0), (1, 10.0)]:
        scaled, _ = nn.forward(spec, nn.scale_layer(params, layer, alpha), x, mode="train")
        assert np.linalg.norm(scaled - base) <= 1e-9 * np.linalg.norm(base)
    # the output layer is never normalized, so its scale does matter
    out_scaled, _ = nn.forward(spec, nn.scale_layer(params, 2, 2.0), x, mode="train")
    assert_allclose(out_scaled, 2.0 * base, rtol=1e-9)


# --- backward ---------------------------------------------------------------


@pytest.mark.parametrize("activation", [nn.IDENTITY, nn.RELU])
def test_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(6)
    spec = nn.NetworkSpec((4, 6, 5, 3), activation=activation)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(5, 4))
    seed = rng.normal(size=(5, 3))
    logits, trace = nn.forward(spec, params, x)
    if activation == nn.RELU:
        assert relu_margin(spec, trace) > 1e-3
    s_grads, _ = nn.vjp(spec, params, trace, seed)
    theta = nn.flatten_params(spec, params)
    fd = central_diff_grad(seeded_scalar_loss(spec, x, seed), theta)
    assert_allclose(flatten_grads(s_grads, trace), fd, atol=2e-8, rtol=1e-6)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_backward_through_batchnorm_matches_finite_differences(mode):
    rng = np.random.default_rng(7)
    spec = nn.mlp((4, 7, 6, 3), bn=True)
    params = nn.init_params(spec, rng)
    state = nn.BnState.fresh(spec)
    if mode == "eval":
        # make the running statistics non-trivial
        state.means = [rng.normal(size=7) * 0.1, rng.normal(size=6) * 0.1]
        state.variances = [np.exp(rng.normal(size=7) * 0.3), np.exp(rng.normal(size=6) * 0.3)]
    x = rng.normal(size=(8, 4))
    seed = rng.normal(size=(8, 3))
    _, trace = nn.forward(spec, params, x, mode=mode, bn_state=None if mode == "train" else state)
    assert relu_margin(spec, trace) > 1e-3
    s_grads, _ = nn.vjp(spec, params, trace, seed)
    theta = nn.flatten_params(spec, params)
    fd = central_diff_grad(
        seeded_scalar_loss(spec, x, seed, mode=mode, bn_state=None if mode == "train" else state),
        theta,
    )
    assert_allclose(flatten_grads(s_grads, trace), fd, atol=5e-8, rtol=1e-5)


def test_backward_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    spec = nn.mlp((5, 6, 3), activation=nn.IDENTITY)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(4, 5))
    seed = rng.normal(size=(4, 3))
    _, trace = nn.forward(spec, params, x)
    _, x_grads = nn.vjp(spec, params, trace, seed, inputs=True)

    def f(flat):
        logits, _ = nn.forward(spec, params, flat.reshape(4, 5))
        return float(np.sum(seed * logits))

    assert_allclose(x_grads.ravel(), central_diff_grad(f, x.ravel()), atol=1e-8)


def test_backward_s_grads_chain_rule_identity():
    # dL/dW_l = (dL/ds_l)^T a_l: the batch backward's pairs give the
    # seed-weighted sum of the per-example Jacobians, which seed every
    # (example, output) pair on its own
    rng = np.random.default_rng(9)
    spec = nn.mlp((4, 6, 3), bn=True)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(6, 4))
    seed = rng.normal(size=(6, 3))
    _, trace = nn.forward(spec, params, x)
    s_grads, _ = nn.vjp(spec, params, trace, seed)
    want = np.einsum("nk,nkp->p", seed, nn.param_jacobian(spec, params, trace))
    assert_allclose(flatten_grads(s_grads, trace), want, rtol=1e-12, atol=1e-15)


def test_backward_rejects_mismatched_seed():
    rng = np.random.default_rng(10)
    spec = nn.mlp((3, 4, 2))
    params = nn.init_params(spec, rng)
    _, trace = nn.forward(spec, params, rng.normal(size=(5, 3)))
    with pytest.raises(ShapeError):
        nn.vjp(spec, params, trace, np.zeros((5, 3)))


# --- Jacobians --------------------------------------------------------------


def test_input_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    spec = nn.mlp((5, 8, 4), activation=nn.RELU)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(3, 5))
    _, trace = nn.forward(spec, params, x, mode="eval")
    assert relu_margin(spec, trace) > 1e-3
    jac = nn.input_jacobian(spec, params, trace)
    assert jac.shape == (3, 4, 5)
    for i, row in enumerate(x):
        fd = central_diff_jacobian(
            lambda v: nn.forward(spec, params, v[None, :], mode="eval")[0][0], row
        )
        assert_allclose(jac[i], fd, atol=1e-8)


def test_input_jacobian_identity_net_is_weight_product():
    rng = np.random.default_rng(12)
    spec = nn.mlp((4, 6, 3), activation=nn.IDENTITY)
    params = nn.init_params(spec, rng)
    _, trace = nn.forward(spec, params, rng.normal(size=(2, 4)), mode="eval")
    jac = nn.input_jacobian(spec, params, trace)
    for row in jac:
        assert_allclose(row, params.weights[1] @ params.weights[0], rtol=1e-12)


def test_input_jacobian_rejects_coupled_train_mode_bn():
    rng = np.random.default_rng(12)
    spec = nn.mlp((4, 6, 3), bn=True)
    params = nn.init_params(spec, rng)
    _, trace = nn.forward(spec, params, rng.normal(size=(5, 4)), mode="train")
    with pytest.raises(ContractError):
        nn.input_jacobian(spec, params, trace)


def test_param_jacobian_matches_finite_differences():
    rng = np.random.default_rng(13)
    spec = nn.NetworkSpec((3, 5, 4, 2), has_bn=True)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(3, 3)) * 2
    _, trace = nn.forward(spec, params, x, mode="eval")
    assert relu_margin(spec, trace) > 1e-3
    jac = nn.param_jacobian(spec, params, trace)
    theta = nn.flatten_params(spec, params)
    assert jac.shape == (3, 2, spec.n_params)
    for i, row in enumerate(x):

        def f(t, row=row):
            p = nn.unflatten_params(spec, t)
            return nn.forward(spec, p, row[None, :], mode="eval")[0][0]

        assert_allclose(jac[i], central_diff_jacobian(f, theta), atol=3e-8)


def test_param_jacobian_through_train_mode_bn_matches_finite_differences():
    # each (example, output) row includes the example's effect on the batch
    # statistics
    rng = np.random.default_rng(14)
    spec = nn.NetworkSpec((3, 5, 4, 2), has_bn=True)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(4, 3)) * 2
    _, trace = nn.forward(spec, params, x, mode="train")
    assert relu_margin(spec, trace) > 1e-3
    jac = nn.param_jacobian(spec, params, trace)
    theta = nn.flatten_params(spec, params)

    def f(t):
        return nn.forward(spec, nn.unflatten_params(spec, t), x, mode="train")[0].ravel()

    assert_allclose(jac.reshape(8, -1), central_diff_jacobian(f, theta), atol=3e-8)


def test_param_jacobian_respects_capacity_cap():
    rng = np.random.default_rng(14)
    spec = nn.mlp((100, 250, 10))
    params = nn.init_params(spec, rng)
    _, trace = nn.forward(spec, params, np.zeros((1, 100)), mode="eval")
    with pytest.raises(CapacityError):
        nn.param_jacobian(spec, params, trace)


# --- parameter vector plumbing ----------------------------------------------


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(15)
    spec = nn.NetworkSpec((3, 4, 2))
    params = nn.init_params(spec, rng)
    theta = nn.flatten_params(spec, params)
    assert theta.shape == (spec.n_params,)
    back = nn.unflatten_params(spec, theta)
    for w1, w2 in zip(params.weights, back.weights):
        assert np.array_equal(w1, w2)


def test_flatten_order_is_rowmajor_weights():
    spec = nn.NetworkSpec((2, 2, 1))
    params = nn.NetworkParams(
        weights=[np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0]])],
    )
    assert np.array_equal(nn.flatten_params(spec, params), np.arange(1.0, 7.0))


def test_layer_slices_partition_theta():
    spec = nn.NetworkSpec((3, 5, 4, 2))
    slices = nn.layer_slices(spec)
    assert slices[0].start == 0
    assert slices[-1].stop == spec.n_params
    for a, b in zip(slices, slices[1:]):
        assert a.stop == b.start
    assert slices[0].stop - slices[0].start == 5 * 3


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
)
def test_flatten_round_trip_property(seed, dims):
    rng = np.random.default_rng(seed)
    spec = nn.NetworkSpec(tuple(dims))
    params = nn.init_params(spec, rng)
    theta = nn.flatten_params(spec, params)
    again = nn.flatten_params(spec, nn.unflatten_params(spec, theta))
    assert np.array_equal(theta, again)


# --- layer utilities --------------------------------------------------------


def test_scale_layer_and_norms():
    spec = nn.mlp((2, 3, 2))
    params = nn.NetworkParams(
        weights=[np.full((3, 2), 2.0), np.full((2, 3), 1.0)]
    )
    scaled = nn.scale_layer(params, 0, 0.5)
    assert_allclose(scaled.weights[0], np.ones((3, 2)))
    assert_allclose(scaled.weights[1], params.weights[1])
    assert_allclose(params.weights[0], np.full((3, 2), 2.0))  # original untouched
    assert_allclose(nn.layer_norms(params), [np.sqrt(24.0), np.sqrt(6.0)], rtol=1e-15)
    with pytest.raises(DomainError):
        nn.scale_layer(params, 0, 0.0)
    with pytest.raises(ShapeError):
        nn.scale_layer(params, 5, 1.0)


def test_init_params_is_seed_deterministic_and_shaped():
    spec = nn.mlp((10, 20, 5))
    a = nn.init_params(spec, np.random.default_rng(42))
    b = nn.init_params(spec, np.random.default_rng(42))
    for w1, w2 in zip(a.weights, b.weights):
        assert np.array_equal(w1, w2)
    assert a.weights[0].shape == (20, 10)
    assert a.weights[1].shape == (5, 20)


# --- checkpoints ------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["binary"])
def test_checkpoint_round_trip_is_bit_exact(tmp_path, fmt):
    rng = np.random.default_rng(16)
    spec = nn.NetworkSpec((4, 6, 5, 3), has_bn=True)
    params = nn.init_params(spec, rng)
    state = nn.BnState.fresh(spec)
    nn.forward(spec, params, rng.normal(size=(8, 4)), mode="train", bn_state=state)
    path = tmp_path / f"ckpt.{fmt}"
    nn.save_checkpoint(path, spec, params, state, seed=123, epoch=7)
    spec2, params2, state2, seed, epoch = nn.load_checkpoint(path)
    assert spec2 == spec
    assert (seed, epoch) == (123, 7)
    for w1, w2 in zip(params.weights, params2.weights):
        assert np.array_equal(w1, w2)
    for v1, v2 in zip(state.means + state.variances, state2.means + state2.variances):
        assert np.array_equal(v1, v2)
    # older checkpoints also carry the weight shapes in their header, and
    # hold no BN statistics: those load without them
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["shapes"] = [list(spec.weight_shape(l)) for l in range(spec.n_layers)]
    del header["bn_count"]
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload[: 8 * spec.n_params])
    _, params3, state3, _, _ = nn.load_checkpoint(path)
    for w1, w3 in zip(params.weights, params3.weights):
        assert np.array_equal(w1, w3)
    assert state3 is None
    with pytest.raises(ContractError):
        nn.save_checkpoint(path, spec, params, None, seed=0, epoch=0)


def test_checkpoint_binary_is_save_load_save_stable(tmp_path):
    rng = np.random.default_rng(17)
    spec = nn.mlp((3, 5, 2))
    params = nn.init_params(spec, rng)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    nn.save_checkpoint(p1, spec, params, None, seed=0, epoch=0)
    nn.save_checkpoint(p2, *nn.load_checkpoint(p1)[:3], seed=0, epoch=0)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_reports_corruption_with_offsets(tmp_path):
    rng = np.random.default_rng(18)
    spec = nn.mlp((3, 4, 2))
    params = nn.init_params(spec, rng)
    path = tmp_path / "ckpt.bin"
    nn.save_checkpoint(path, spec, params, None, seed=1, epoch=2)
    raw = path.read_bytes()

    headerless = tmp_path / "no_newline.bin"
    headerless.write_bytes(raw.replace(b"\n", b" ", 1).replace(b"\n", b" "))
    with pytest.raises(DataFormatError, match="newline"):
        nn.load_checkpoint(headerless)

    badjson = tmp_path / "bad_json.bin"
    badjson.write_bytes(b"not json {\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(DataFormatError, match="offset"):
        nn.load_checkpoint(badjson)

    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(DataFormatError, match="bytes"):
        nn.load_checkpoint(truncated)

    head, payload = raw.split(b"\n", 1)
    header = json.loads(head)
    bad_headers = [
        ([1, 2], "not a JSON object"),
        ({"format": "binary", "count": 0}, "'spec'"),
        ({**header, "spec": "6-8-3"}, "'spec'"),
        ({**header, "spec": {"layer_dims": [3, 4, 2]}}, "'spec'"),
        ({**header, "count": "26"}, "'count'"),
        ({k: v for k, v in header.items() if k != "seed"}, "'seed'"),
        ({**header, "epoch": 2.5}, "'epoch'"),
        ({**header, "bn_count": 4}, "'bn_count'"),
        ({**header, "spec": {**header["spec"], "use_bn": [True, False]}}, "'spec'"),
    ]
    for doc, message in bad_headers:
        malformed = tmp_path / "malformed.bin"
        malformed.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(DataFormatError, match=message):
            nn.load_checkpoint(malformed)

    # a count the spec does not have, with a payload that matches it
    grown = tmp_path / "grown.bin"
    grown.write_bytes(json.dumps({**header, "count": header["count"] + 2}).encode() + b"\n"
                      + payload + bytes(16))
    with pytest.raises(DataFormatError, match="'count'"):
        nn.load_checkpoint(grown)


def test_checkpoint_rejects_unknown_format(tmp_path):
    rng = np.random.default_rng(19)
    spec = nn.mlp((2, 2))
    path = tmp_path / "ckpt.bin"
    nn.save_checkpoint(path, spec, nn.init_params(spec, rng), None, 0, 0)
    header, payload = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    assert doc["format"] == "binary"
    doc["format"] = "text"
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    with pytest.raises(DataFormatError, match="format"):
        nn.load_checkpoint(path)
