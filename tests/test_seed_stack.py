"""The stacked backward against one backward per seed.

Every probe that seeds one output, or one (example, output) pair, at a time
now runs as a few stacked `nn.vjp` calls.  The reference loops below are the
per-seed forms those probes replaced, one 2-D `nn.vjp` call per seed; each
probe is compared with its loop on small BN and non-BN nets.  Where the
stacked form keeps the per-seed accumulation order the results must be
bit-equal; the BN traces (Gram identity), the Fisher traces (mixed by
linearity from the one-hot and softmax seeds) and the Jacobians only to
1e-12 relative.
"""

import numpy as np
import pytest

from helpers import flatten_grads
from wdlab import curvature, diagnostics, loss, nn
from wdlab.errors import ContractError, ShapeError

NETS = [
    dict(bn=False, bias=False),
    dict(bn=False, bias=True),
    dict(bn=True, bias=False),
    dict(bn=True, bias=True),
]
NET_IDS = ["plain", "bias", "bn", "bn-bias"]


def small_net(seed, bn, bias, dims=(6, 7, 5, 4)):
    rng = np.random.default_rng(seed)
    spec = nn.mlp(dims, bn=bn, bias=bias)
    params = nn.init_params(spec, rng)
    if bias:
        for b in params.biases:
            b[:] = rng.normal(size=b.shape) * 0.2
    x = 2.0 * rng.normal(size=(9, dims[0]))
    return spec, params, x


def one_hot(n, k, rows, c):
    seed = np.zeros((n, k))
    seed[rows, c] = 1.0
    return seed


def rel(got, want):
    return float(np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want))


# --- per-seed references ----------------------------------------------------


def ref_jacobian_norm(spec, params, x, bn_state=None):
    total = 0.0
    for row in x:
        _, trace = nn.forward(spec, params, row[None, :], mode="eval", bn_state=bn_state)
        for c in range(spec.layer_dims[-1]):
            _, xg = nn.vjp(spec, params, trace, one_hot(1, spec.layer_dims[-1], 0, c), inputs=True)
            total += float(np.sum(xg * xg))
    return total / x.shape[0]


def ref_kfac_gn_norm(spec, params, x):
    logits, trace = nn.forward(spec, params, x, mode="eval")
    n, k = logits.shape
    total = 0.0
    for c in range(k):
        s_grads, _ = nn.vjp(spec, params, trace, one_hot(n, k, slice(None), c))
        for l in range(spec.n_layers):
            dots = np.sum(s_grads[l] * trace.pre_activations[l], axis=1)
            total += float(np.sum(dots * dots))
    return total / n


def ref_normalized_trace(kind, spec, params, x, layer):
    norm_sq = float(np.sum(params.weights[layer] ** 2))
    if spec.use_bias:
        norm_sq += float(np.sum(params.biases[layer] ** 2))
    logits, trace = nn.forward(spec, params, x, mode="train" if spec.has_bn else "eval")
    n, k = logits.shape
    probs = loss.softmax(logits)
    eye = np.eye(k)
    trace_raw = 0.0
    if spec.has_bn:
        for i in range(n):
            for c in range(k):
                seed = np.zeros((n, k))
                seed[i] = eye[c] if kind == "gn" else eye[c] - probs[i]
                ds = nn.vjp(spec, params, trace, seed)[0][layer]
                ssq = float(np.sum((ds.T @ trace.layer_inputs[layer]) ** 2))
                if spec.use_bias:
                    ssq += float(np.sum(ds.sum(axis=0) ** 2))
                trace_raw += (1.0 if kind == "gn" else float(probs[i, c])) * ssq
    else:
        a = trace.layer_inputs[layer]
        a_sq = np.sum(a * a, axis=1) + (1.0 if spec.use_bias else 0.0)
        for c in range(k):
            if kind == "gn":
                seed, weights = one_hot(n, k, slice(None), c), np.ones(n)
            else:
                seed, weights = eye[c][None, :] - probs, probs[:, c]
            s_grads, _ = nn.vjp(spec, params, trace, seed)
            g_sq = np.sum(s_grads[layer] ** 2, axis=1)
            trace_raw += float(np.sum(weights * g_sq * a_sq))
    trace_raw /= n
    return norm_sq * trace_raw


def ref_gn_s_factors(spec, params, trace):
    n, k = trace.logits.shape
    sums = [np.zeros((d, d)) for d in spec.layer_dims[1:]]
    for c in range(k):
        s_grads, _ = nn.vjp(spec, params, trace, one_hot(n, k, slice(None), c))
        for l in range(spec.n_layers):
            g = s_grads[l]
            sums[l] += g.T @ g
    return [s / n for s in sums]


def ref_param_jacobians(spec, params, trace):
    # one (example, output) seed at a time; in eval mode the seeded
    # example's row is the only one with a nonzero gradient
    n, k = trace.logits.shape
    jac = np.zeros((n, k, spec.n_params))
    for i in range(n):
        for c in range(k):
            s_grads, _ = nn.vjp(spec, params, trace, one_hot(n, k, i, c))
            jac[i, c] = flatten_grads(spec, s_grads, trace)
    return jac


# --- the stacked backward itself --------------------------------------------


@pytest.mark.parametrize("net", NETS, ids=NET_IDS)
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_stacked_vjp_is_bit_identical_to_separate_seeds(net, mode):
    spec, params, x = small_net(1, **net)
    logits, trace = nn.forward(spec, params, x, mode=mode)
    seeds = np.random.default_rng(2).normal(size=(5, *logits.shape))
    s_stack, x_stack = nn.vjp(spec, params, trace, seeds, inputs=True)
    for j, seed in enumerate(seeds):
        s_one, x_one = nn.vjp(spec, params, trace, seed, inputs=True)
        for l in range(spec.n_layers):
            assert np.array_equal(s_stack[l][j], s_one[l])
        assert np.array_equal(x_stack[j], x_one)


def test_vjp_stops_at_the_lowest_layer_needed():
    spec, params, x = small_net(3, bn=True, bias=False)
    logits, trace = nn.forward(spec, params, x, mode="train")
    seeds = nn.output_seeds(*logits.shape)
    full, _ = nn.vjp(spec, params, trace, seeds)
    part, x_grads = nn.vjp(spec, params, trace, seeds, lowest=1)
    assert part[0] is None and x_grads is None
    for l in (1, 2):
        assert np.array_equal(part[l], full[l])
    with pytest.raises(ContractError):
        nn.vjp(spec, params, trace, seeds, lowest=1, inputs=True)
    with pytest.raises(ShapeError):
        nn.vjp(spec, params, trace, seeds, lowest=3)
    with pytest.raises(ShapeError):
        nn.vjp(spec, params, trace, seeds[:, :-1])


def test_seed_chunks_cover_the_range_within_the_row_budget(monkeypatch):
    monkeypatch.setattr(nn, "SEED_ROWS", 7)
    assert nn.seed_chunks(10, 3) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8), slice(8, 10)]
    assert nn.seed_chunks(3, 20) == [slice(0, 1), slice(1, 2), slice(2, 3)]  # one item at least
    assert nn.seed_chunks(4, 1) == [slice(0, 4)]


def test_example_seeds_place_each_block_on_its_example_row():
    blocks = np.arange(3 * 2 * 2, dtype=float).reshape(3, 2, 2)
    seeds = nn.example_seeds(blocks, slice(1, 3))
    assert seeds.shape == (4, 3, 2)
    for j, (i, c) in enumerate([(1, 0), (1, 1), (2, 0), (2, 1)]):
        want = np.zeros((3, 2))
        want[i] = blocks[i][c]
        assert np.array_equal(seeds[j], want)


# --- probes against their per-seed loops ------------------------------------


def check_probes(net):
    spec, params, x = small_net(4, **net)
    assert diagnostics.probe_norms(spec, params, x)[1] == ref_kfac_gn_norm(spec, params, x)

    _, trace = nn.forward(spec, params, x, mode="train")
    got = [s for _, s in curvature.estimate_kfac_factors("gn", spec, params, trace)]
    for g, want in zip(got, ref_gn_s_factors(spec, params, trace)):
        assert np.array_equal(g, want)

    for layer in range(spec.n_layers):
        gn, fisher = curvature.normalized_traces(spec, params, x, layer)
        want_gn = ref_normalized_trace("gn", spec, params, x, layer)
        if spec.has_bn:
            assert rel(gn, want_gn) <= 1e-12
        else:
            assert gn == want_gn
        assert rel(fisher, ref_normalized_trace("fisher", spec, params, x, layer)) <= 1e-12

    state = None
    if spec.has_bn:
        state = nn.BnState.fresh(spec)
        nn.forward(spec, params, x, mode="train", bn_state=state)
    got = diagnostics.probe_norms(spec, params, x, bn_state=state)[0]
    assert rel(got, ref_jacobian_norm(spec, params, x, bn_state=state)) <= 1e-12

    for mode in ("eval", "train"):
        _, trace = nn.forward(spec, params, x, mode=mode)
        assert rel(nn.param_jacobian(spec, params, trace), ref_param_jacobians(spec, params, trace)) <= 1e-12
    _, jac = curvature.per_example_param_jacobians(spec, params, x)
    _, trace = nn.forward(spec, params, x, mode="train" if spec.has_bn else "eval")
    assert rel(jac, ref_param_jacobians(spec, params, trace)) <= 1e-12


@pytest.mark.parametrize("net", NETS, ids=NET_IDS)
def test_probes_match_their_per_seed_loops(net):
    check_probes(net)


@pytest.mark.parametrize("net", NETS, ids=NET_IDS)
def test_probes_match_across_chunk_boundaries(net, monkeypatch):
    # 9 examples, 4 outputs.  A budget of 27 rows splits the classes 3 + 1
    # and the Jacobian rows 6 + 3; one of 80 splits the per-example seeds
    # into 4 chunks of 2 examples and one of 1.  No split is even.
    for budget in (27, 80):
        monkeypatch.setattr(nn, "SEED_ROWS", budget)
        check_probes(net)


def test_jacobian_norm_makes_one_backward_per_chunk(monkeypatch):
    # the Jacobian and block GN norms share one forward of all rows and one
    # backward per chunk of output seeds
    spec, params, x = small_net(5, bn=False, bias=False)
    x = np.random.default_rng(6).normal(size=(50, spec.input_dim))
    forwards, calls = [], []
    true_forward, true_vjp = nn.forward, nn.vjp

    def counting_forward(*args, **kwargs):
        forwards.append(args[2].shape)
        return true_forward(*args, **kwargs)

    def counting(*args, **kwargs):
        calls.append(args[3].shape)
        return true_vjp(*args, **kwargs)

    monkeypatch.setattr(nn, "forward", counting_forward)
    monkeypatch.setattr(nn, "vjp", counting)
    monkeypatch.setattr(nn, "SEED_ROWS", 150)  # 3 seeds of 50 rows per chunk
    diagnostics.probe_norms(spec, params, x)
    assert forwards == [x.shape]
    assert len(calls) == len(nn.seed_chunks(spec.layer_dims[-1], 50)) == 2
    assert [s[:2] for s in calls] == [(3, 50), (1, 50)]  # not one backward per seed


@pytest.mark.parametrize("net", NETS, ids=NET_IDS)
def test_normalized_traces_share_one_forward_and_one_seed_stack(net, monkeypatch):
    # the softmax joins the one-hot seeds as one more seed (one per example
    # under BN) instead of the Fisher trace running its own forward and seeds
    spec, params, x = small_net(7, **net)
    n, k = x.shape[0], spec.layer_dims[-1]
    forwards, seeds = [], []
    true_forward, true_vjp = nn.forward, nn.vjp

    def counting_forward(*args, **kwargs):
        forwards.append(args[2].shape)
        return true_forward(*args, **kwargs)

    def counting_vjp(*args, **kwargs):
        seeds.append(1 if args[3].ndim == 2 else args[3].shape[0])
        return true_vjp(*args, **kwargs)

    monkeypatch.setattr(nn, "forward", counting_forward)
    monkeypatch.setattr(nn, "vjp", counting_vjp)
    monkeypatch.setattr(nn, "SEED_ROWS", 80)  # several chunks either way
    curvature.normalized_traces(spec, params, x, 1)
    assert forwards == [x.shape]
    assert sum(seeds) == ((k + 1) * n if spec.has_bn else k + 1)
    assert len(seeds) > 1
