"""Small feedforward networks with hand-written backprop.

The policy and value approximators are tanh MLPs with the same hidden
widths, kept in plain numpy (float64) so gradients are analytic,
checkable against finite differences, and bitwise reproducible per seed.
Training runs the two as one :class:`MLPStack`, one matrix product per
hidden layer for both.  No autograd framework is involved anywhere in
training.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifacts import write_json
from .errors import DataError, NumericalError


@dataclass
class MLPParams:
    """Per-layer weight matrices (n_in, n_out) and bias vectors (n_out,)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def layers(self) -> list[np.ndarray]:
        """Weights and biases interleaved layer by layer (flat and file order)."""
        return [a for w, b in zip(self.weights, self.biases) for a in (w, b)]


@dataclass
class MLPStack:
    """Networks with equal hidden shapes run as one (see :func:`flat_views`):
    each hidden layer's weights stacked (k, n_in, n_out) and biases
    (k, 1, n_out), then each network's own linear output layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    heads: list[tuple[np.ndarray, np.ndarray]]


def flat_views(nets: Sequence[MLPParams]) -> tuple[np.ndarray, list[MLPParams], MLPStack]:
    """A new uninitialized float64 vector, networks shaped like ``nets``
    whose arrays are C-ordered views into it, and the same arrays as one
    :class:`MLPStack`.

    The vector is laid out layer by layer: the nets' weights of a layer
    side by side, then their biases, so each stacked hidden layer is a
    reshape of one contiguous slice.

    Raises:
        ValueError: The nets' hidden layer shapes differ.
    """
    if len({tuple(w.shape for w in net.weights[:-1]) for net in nets}) > 1:
        raise ValueError("stacked networks need equal hidden shapes")
    vector = np.empty(sum(a.size for net in nets for a in net.layers()))
    arrays: list[list[np.ndarray]] = [[] for _ in nets]
    stacked = []
    offset = 0
    for i in range(nets[0].n_layers):
        for group in ([net.weights[i] for net in nets], [net.biases[i] for net in nets]):
            start = offset
            for out, like in zip(arrays, group):
                out.append(vector[offset:offset + like.size].reshape(like.shape))
                offset += like.size
            if i < nets[0].n_layers - 1:
                stacked.append(vector[start:offset].reshape(len(nets), -1, group[0].shape[-1]))
    views = [MLPParams(weights=a[0::2], biases=a[1::2]) for a in arrays]
    heads = [(view.weights[-1], view.biases[-1]) for view in views]
    return vector, views, MLPStack(weights=stacked[0::2], biases=stacked[1::2], heads=heads)


def orthogonal(n_in: int, n_out: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal weight init (QR of a Gaussian matrix, sign-fixed), C-ordered."""
    a = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))  # make the decomposition unique
    if n_in < n_out:
        q = q.T
    return np.ascontiguousarray(gain * q[:n_in, :n_out])


def init_mlp(
    sizes: tuple[int, ...],
    rng: np.random.Generator,
    final_gain: float,
    hidden_gain: float = math.sqrt(2.0),
) -> MLPParams:
    """Initialize an MLP with orthogonal layers and zero biases.

    ``final_gain`` scales the output layer; a near-zero value there
    makes the initial policy distribution near-uniform.
    """
    weights = []
    biases = []
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        gain = final_gain if i == len(sizes) - 2 else hidden_gain
        weights.append(orthogonal(n_in, n_out, gain, rng))
        biases.append(np.zeros(n_out))
    return MLPParams(weights=weights, biases=biases)


def mlp_forward(stack: MLPStack, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass of every network in ``stack`` over the same inputs:
    tanh hidden layers, then each network's linear output layer.

    Each hidden layer is one ``np.matmul`` for all the networks, which
    numpy runs as one BLAS call per network, so each network's bits are
    those of its own pass.

    Args:
        x: Batch of inputs, shape (B, n_in).

    Returns:
        (outputs, cache): network j's output (B, n_out_j), and each
        layer's input activation for :func:`mlp_backward`: ``x``, then
        the stacked (k, B, n) hidden activations.

    Raises:
        NumericalError: NaN or infinity appeared in an output.
    """
    cache = [x]
    h = x
    for w, b in zip(stack.weights, stack.biases):
        h = np.matmul(h, w)
        h += b
        np.tanh(h, out=h)
        cache.append(h)
    tops = h if stack.weights else [x] * len(stack.heads)
    outputs = []
    for top, (w, b) in zip(tops, stack.heads):
        out = np.matmul(top, w)
        out += b
        if not np.isfinite(out).all():
            raise NumericalError("non-finite value in network output")
        outputs.append(out)
    return outputs, cache


def mlp_rows(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Cache-free forward pass for acting, shape (B, n_in) -> (B, n_out).

    Each layer is ``np.einsum("bi,io->bo", h, w)`` without ``optimize``,
    which makes no BLAS call, so every output row has the same bits
    whatever rows share its batch (``tests/test_nets.py`` pins this for the
    installed numpy).  The bits depend on the weights' memory order, which
    is C order throughout, and differ from :func:`mlp_forward`'s in the
    last place.  The bias and ``tanh`` act in place on the layer's one new
    array, the same arithmetic as ``np.tanh(einsum + b)``.

    Raises:
        NumericalError: NaN or infinity appeared in the output.
    """
    h = x
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.einsum("bi,io->bo", h, w)
        h += b
        if i != last:
            np.tanh(h, out=h)
    if not np.isfinite(h).all():
        raise NumericalError("non-finite value in network output")
    return h


def mlp_backward(
    stack: MLPStack, cache: list[np.ndarray], douts: Sequence[np.ndarray], grads: MLPStack
) -> None:
    """Backprop network j's ``douts[j]`` (B, n_out_j) into ``grads``, shaped
    like ``stack``.  The hidden activations in ``cache`` are overwritten.

    A one-output head's (B, 1) @ (1, n) product is an outer product, which
    numpy's matmul computes without BLAS as ``0.0 + a*b``; ``a*b + 0.0``
    is that bit for bit (-0.0 included) at a fraction of the cost.
    """
    top = cache[-1]
    tops = top if stack.weights else [top] * len(stack.heads)
    delta = np.empty((len(stack.heads), *top.shape[-2:]))
    for j, ((w, _), (gw, gb), dout) in enumerate(zip(stack.heads, grads.heads, douts)):
        np.matmul(tops[j].T, dout, out=gw)
        np.add.reduce(dout, axis=0, out=gb)
        if w.shape[1] == 1:
            np.multiply(dout, w.T, out=delta[j])
            delta[j] += 0.0
        else:
            np.matmul(dout, w.T, out=delta[j])
    for i in range(len(stack.weights) - 1, -1, -1):
        h = cache[i + 1]  # tanh' = 1 - h**2, in place
        np.square(h, out=h)
        np.subtract(1.0, h, out=h)
        delta *= h
        np.matmul(cache[i].swapaxes(-1, -2), delta, out=grads.weights[i])
        np.add.reduce(delta, axis=1, keepdims=True, out=grads.biases[i])
        if i > 0:
            delta = np.matmul(delta, stack.weights[i].swapaxes(-1, -2))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


#: Adam's moment decay rates and denominator guard (Kingma and Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """First/second-moment adaptive gradient descent over one flat vector."""

    def __init__(self, params: np.ndarray, lr: float) -> None:
        self.lr = lr
        self.step_count = 0
        self._m = np.zeros_like(params)
        self._v = np.zeros_like(params)
        self._t1 = np.empty_like(params)
        self._t2 = np.empty_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update ``params`` in place from the matching ``grads``: per element
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
        ``p -= (lr*(m/b1c)) / (sqrt(v/b2c) + eps)``, rounded in that order."""
        self.step_count += 1
        b1c = 1.0 - ADAM_BETA1 ** self.step_count
        b2c = 1.0 - ADAM_BETA2 ** self.step_count
        m, v, t1, t2 = self._m, self._v, self._t1, self._t2
        m *= ADAM_BETA1
        np.multiply(grads, 1.0 - ADAM_BETA1, out=t1)
        m += t1
        v *= ADAM_BETA2
        np.multiply(grads, 1.0 - ADAM_BETA2, out=t1)
        t1 *= grads
        v += t1
        np.divide(m, b1c, out=t1)
        t1 *= self.lr
        np.divide(v, b2c, out=t2)
        np.sqrt(t2, out=t2)
        t2 += ADAM_EPS
        t1 /= t2
        params -= t1


def clip_global_norm(
    grads: np.ndarray, squares: np.ndarray, layers: Sequence[np.ndarray], max_norm: float
) -> float:
    """Scale the flat gradient ``grads`` in place so its L2 norm is <= max_norm.

    ``squares`` is a work buffer of the same layout, and ``layers`` are its
    per-array views in the order the norm sums.  ``grads`` is squared into
    ``squares`` in one sweep; the norm then sums each array's squares
    (``ndarray.sum`` is this reduce), array by array, in row-major order
    since every view is C-ordered, as squaring each array on its own would.
    """
    np.multiply(grads, grads, out=squares)
    total = math.sqrt(sum(float(np.add.reduce(a, axis=None)) for a in layers))
    if total > max_norm:
        grads *= max_norm / (total + 1e-12)
    return total


# --- serialization -----------------------------------------------------------

_FORMAT = "reserve-rl-policy-v1"


def _params_to_doc(params: MLPParams) -> dict:
    arrays = params.layers()
    return {
        "shapes": [list(a.shape) for a in arrays],
        "arrays": [a.reshape(-1).tolist() for a in arrays],  # row-major
    }


def _params_from_doc(doc: dict, name: str) -> MLPParams:
    """The ``name`` network in ``doc``, refused (``ValueError``) unless it
    has a layer, its weight and bias shapes chain and every value is finite."""
    arrays = [
        np.asarray(flat, dtype=float).reshape(shape)
        for shape, flat in zip(doc["shapes"], doc["arrays"], strict=True)
    ]
    weights, biases = arrays[0::2], arrays[1::2]
    paired = bool(weights) and len(weights) == len(biases) and all(
        w.ndim == 2 and b.shape == w.shape[1:] for w, b in zip(weights, biases))
    if not paired or any(w.shape[1] != v.shape[0] for w, v in zip(weights, weights[1:])):
        raise ValueError(f"{name} layer shapes {[list(a.shape) for a in arrays]} do not chain")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"non-finite {name} weight or bias")
    return MLPParams(weights=weights, biases=biases)


def save_networks(
    path: str,
    policy: MLPParams,
    value: MLPParams,
    config_fingerprint: str,
    seed: int,
) -> None:
    """Write both networks plus provenance to a deterministic JSON file."""
    write_json(path, {
        "format": _FORMAT,
        "config_fingerprint": config_fingerprint,
        "seed": seed,
        "policy": _params_to_doc(policy),
        "value": _params_to_doc(value),
    })


def load_networks(path: str) -> tuple[MLPParams, MLPParams, str, int]:
    """Inverse of :func:`save_networks`; floats round-trip exactly into
    C-ordered arrays, as in training, so a loaded policy acts as the
    trained one did, bit for bit.

    Raises:
        DataError: The file is not a network file of this format, or it
            is corrupt or cut short, or a network in it has no layers,
            shapes that do not chain or a value that is not finite.
    """
    with open(path) as handle:
        try:
            doc = json.load(handle)
            if doc.get("format") != _FORMAT:
                raise DataError(f"unrecognized network file format in {path}")
            return (
                _params_from_doc(doc["policy"], "policy"),
                _params_from_doc(doc["value"], "value"),
                doc["config_fingerprint"],
                int(doc["seed"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"unreadable network file {path!r}: "
                            f"{type(exc).__name__}: {exc}") from exc
