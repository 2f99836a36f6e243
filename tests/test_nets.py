"""Manual-backprop MLP machinery: init, gradients, Adam, serialization."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reserve_rl.agent import AgentParams, PPOConfig, init_agent
from reserve_rl.errors import DataError, NumericalError
from reserve_rl.nets import (
    Adam,
    MLPParams,
    clip_global_norm,
    flat_views,
    init_mlp,
    load_networks,
    log_softmax,
    mlp_backward,
    mlp_forward,
    mlp_rows,
    orthogonal,
    save_networks,
    softmax,
)


def stacked(*nets: MLPParams):
    """Copies of ``nets`` as :func:`flat_views` lays them out: (views, stack)."""
    _, views, stack = flat_views(nets)
    for net, view in zip(nets, views):
        for src, dst in zip(net.layers(), view.layers()):
            dst[...] = src
    return views, stack


def test_orthogonal_columns():
    rng = np.random.default_rng(0)
    w = orthogonal(64, 7, gain=1.0, rng=rng)
    assert w.shape == (64, 7)
    np.testing.assert_allclose(w.T @ w, np.eye(7), atol=1e-10)
    w2 = orthogonal(16, 16, gain=2.0, rng=rng)
    np.testing.assert_allclose(w2.T @ w2, 4.0 * np.eye(16), atol=1e-10)


def test_init_mlp_shapes_and_biases():
    rng = np.random.default_rng(1)
    params = init_mlp((7, 64, 64, 7), rng, final_gain=0.01)
    assert params.n_layers == 3
    assert [w.shape for w in params.weights] == [(7, 64), (64, 64), (64, 7)]
    for b in params.biases:
        np.testing.assert_array_equal(b, 0.0)
    # tiny final gain keeps initial action distributions near uniform
    probs = softmax(mlp_rows(params, np.random.default_rng(2).normal(size=(32, 7))))
    np.testing.assert_allclose(probs, 1.0 / 7.0, atol=0.01)


def test_backward_matches_finite_differences():
    """Two stacked networks, a 3-output and a 1-output head, under a squared
    error on each, with no, one and two hidden layers."""
    rng = np.random.default_rng(3)
    for hidden in ((), (8,), (8, 5)):
        (first, second), stack = stacked(init_mlp((4, *hidden, 3), rng, final_gain=1.0),
                                         init_mlp((4, *hidden, 1), rng, final_gain=1.0))
        x = rng.normal(size=(5, 4))
        ys = [rng.normal(size=(5, 3)), rng.normal(size=(5, 1))]

        def loss_of() -> float:
            outs, _ = mlp_forward(stack, x)
            return float(sum(0.5 * np.sum((out - y) ** 2) for out, y in zip(outs, ys)))

        outs, cache = mlp_forward(stack, x)
        (first_grads, second_grads), grads = stacked(first, second)
        mlp_backward(stack, cache, [out - y for out, y in zip(outs, ys)], grads)
        eps = 1e-6
        for arr, garr in zip(first.layers() + second.layers(),
                             first_grads.layers() + second_grads.layers()):
            # arr.flat writes through even when the array is non-contiguous
            for i in range(0, arr.size, max(1, arr.size // 5)):
                orig = arr.flat[i]
                arr.flat[i] = orig + eps
                up = loss_of()
                arr.flat[i] = orig - eps
                down = loss_of()
                arr.flat[i] = orig
                fd = (up - down) / (2 * eps)
                assert garr.flat[i] == pytest.approx(fd, abs=1e-5, rel=1e-5)


@pytest.mark.parametrize("n_out", [7, 1])
@pytest.mark.parametrize("hidden", [(8, 8), (16, 16), (64, 64)], ids=str)
def test_rows_forward_is_batch_invariant(hidden, n_out):
    """One ``mlp_rows`` call equals per-row calls byte for byte, as rollouts
    assume when they act for a whole batch of episodes in one call.  The
    inputs are a (episodes, horizon, 7) buffer's step column, as a strided
    view and as a contiguous copy.  An einsum that rounds a row by the
    batch around it fails here."""
    rng = np.random.default_rng(len(hidden) * sum(hidden) + n_out)
    net = init_mlp((7, *hidden, n_out), rng, final_gain=1.0, hidden_gain=3.0)
    buffer = rng.normal(0.0, 2.0, size=(1000, 5, 7))
    for batch in (1, 2, 7, 10, 100, 205, 1000):
        for obs in (buffer[:batch, 3], np.ascontiguousarray(buffer[:batch, 3])):
            out = mlp_rows(net, obs)
            assert out.shape == (batch, n_out)
            assert [row.tobytes() for row in out] == [
                mlp_rows(net, row[None]).tobytes() for row in obs
            ]


@pytest.mark.parametrize("batch", [1, 7, 100, 2000])
def test_rows_forward_in_place_matches_allocating_layers(batch):
    """``mlp_rows`` adds the bias and takes ``tanh`` in place: bit for bit
    ``np.einsum(...) + b`` then ``np.tanh``, each a new array, for a policy
    and a value head; the input and the parameters are left as they were."""
    rng = np.random.default_rng(batch)
    x = rng.normal(0.0, 2.0, size=(batch, 7))
    x_before = x.copy()
    for n_out in (7, 1):
        net = init_mlp((7, 64, 64, n_out), rng, final_gain=1.0, hidden_gain=3.0)
        before = [a.copy() for a in net.layers()]
        h = x
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = np.einsum("bi,io->bo", h, w) + b
            h = z if i == net.n_layers - 1 else np.tanh(z)
        assert mlp_rows(net, x).tobytes() == h.tobytes()
        assert all(a.tobytes() == c.tobytes() for a, c in zip(net.layers(), before))
    assert x.tobytes() == x_before.tobytes()


def test_every_weight_is_c_ordered(tmp_path):
    """``mlp_rows``'s bits depend on the weights' memory order, so every way
    to make networks gives C-ordered arrays."""
    rng = np.random.default_rng(12)
    agent = init_agent(rng, PPOConfig(hidden=(16, 16)))
    copy = AgentParams.from_networks(agent.policy, agent.value)
    pickled = pickle.loads(pickle.dumps(agent))
    path = tmp_path / "agent.json"
    save_networks(str(path), agent.policy, agent.value, config_fingerprint="fp", seed=1)
    loaded_policy, loaded_value, _, _ = load_networks(str(path))
    made = [
        init_mlp((7, 64, 64, 7), rng, final_gain=0.01),
        agent.policy, agent.value,
        copy.policy, copy.value,
        pickled.policy, pickled.value,
        loaded_policy, loaded_value,
    ]
    assert all(a.flags.c_contiguous for net in made for a in net.layers())


def test_forward_rejects_non_finite():
    rng = np.random.default_rng(4)
    params = init_mlp((3, 4, 2), rng, final_gain=1.0)
    # tanh squashes an inf in a hidden layer, so poison the output layer
    params.weights[-1][:, :] = float("inf")
    _, stack = stacked(params, init_mlp((3, 4, 1), rng, final_gain=1.0))
    for forward, net in ((mlp_forward, stack), (mlp_rows, params)):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite value in network output"):
                forward(net, np.ones((1, 3)))


def test_softmax_normalization_and_shift_invariance():
    logits = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
    probs = softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    shifted = log_softmax(logits + 123.456)
    np.testing.assert_allclose(shifted, log_softmax(logits), atol=1e-9)


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(2, 6)),
        elements=st.floats(min_value=-30, max_value=30),
    )
)
@settings(max_examples=100, deadline=None)
def test_log_softmax_properties(logits):
    lp = log_softmax(logits)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-9)
    assert np.all(lp <= 1e-12)


def test_adam_first_step_is_signed_lr():
    x = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, -0.25, 0.0])
    opt = Adam(x, lr=0.01)
    opt.step(x, g)
    # bias correction makes the first step lr * g / (|g| + eps)
    expected = np.array([1.0, -2.0, 3.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(x, expected, atol=1e-12)


def test_adam_minimizes_quadratic():
    x = np.array([5.0, -3.0])
    opt = Adam(x, lr=0.1)
    for _ in range(400):
        opt.step(x, 2.0 * x)
    np.testing.assert_allclose(x, 0.0, atol=1e-3)


def test_clip_global_norm():
    g = np.array([3.0, 0.0, 0.0, 4.0])
    squares = np.empty(4)
    total = clip_global_norm(g, squares, [squares[:2], squares[2:]], max_norm=0.5)
    assert total == pytest.approx(5.0)
    clipped = np.sqrt(np.sum(g**2))
    assert clipped == pytest.approx(0.5)
    # below the threshold nothing changes
    g3 = np.array([0.1, 0.0])
    squares = np.empty(2)
    total2 = clip_global_norm(g3, squares, [squares], max_norm=0.5)
    assert total2 == pytest.approx(0.1)
    np.testing.assert_array_equal(g3, [0.1, 0.0])


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    policy = init_mlp((7, 8, 7), rng, final_gain=0.01)
    value = init_mlp((7, 8, 1), rng, final_gain=1.0)
    path = tmp_path / "nets.json"
    save_networks(str(path), policy, value, config_fingerprint="abc123", seed=4)
    loaded_policy, loaded_value, fingerprint, seed = load_networks(str(path))
    assert fingerprint == "abc123"
    assert seed == 4
    for a, b in zip(policy.layers(), loaded_policy.layers()):
        np.testing.assert_array_equal(a, b)  # bit-exact round trip
    for a, b in zip(value.layers(), loaded_value.layers()):
        np.testing.assert_array_equal(a, b)


def test_loaded_agent_forwards_like_trained(tmp_path):
    """Networks read back from disk keep the training memory layout, so
    both forward passes match the in-memory networks bit for bit."""
    rng = np.random.default_rng(11)
    agent = init_agent(rng, PPOConfig(hidden=(16, 16)))
    path = tmp_path / "agent.json"
    save_networks(str(path), agent.policy, agent.value, config_fingerprint="fp", seed=1)
    loaded_policy, loaded_value, _, _ = load_networks(str(path))
    rows = rng.normal(0.0, 2.0, size=(200, 7))
    for net, loaded in ((agent.policy, loaded_policy), (agent.value, loaded_value)):
        assert [a.strides for a in loaded.layers()] == [a.strides for a in net.layers()]
        assert mlp_rows(loaded, rows).tobytes() == mlp_rows(net, rows).tobytes()
    reloaded = AgentParams.from_networks(loaded_policy, loaded_value)
    outputs = zip(mlp_forward(reloaded.stack, rows)[0], mlp_forward(agent.stack, rows)[0])
    assert [a.tobytes() == b.tobytes() for a, b in outputs] == [True, True]


def test_load_rejects_foreign_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "policy": {}}')
    with pytest.raises(DataError):
        load_networks(str(path))
