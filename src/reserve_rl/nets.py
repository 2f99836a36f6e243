"""Small feedforward networks with hand-written backprop.

The policy and value approximators are two-hidden-layer tanh MLPs, kept
in plain numpy (float64) so gradients are analytic, checkable against
finite differences, and bitwise reproducible per seed.  No autograd
framework is involved anywhere in training.
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


def flat_views(nets: Sequence[MLPParams]) -> tuple[np.ndarray, list[MLPParams]]:
    """A new uninitialized float64 vector, and networks shaped like ``nets``
    whose arrays are C-ordered views into it, net after net in
    :meth:`MLPParams.layers` order.
    """
    vector = np.empty(sum(a.size for net in nets for a in net.layers()))
    views = []
    offset = 0
    for net in nets:
        arrays = []
        for like in net.layers():
            arrays.append(vector[offset:offset + like.size].reshape(like.shape))
            offset += like.size
        views.append(MLPParams(weights=arrays[0::2], biases=arrays[1::2]))
    return vector, views


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


def mlp_forward(params: MLPParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass with tanh hidden layers and a linear output.

    Args:
        x: Batch of inputs, shape (B, n_in).

    Returns:
        (output, cache) where cache holds each layer's input activation
        for the backward pass.

    Raises:
        NumericalError: NaN or infinity appeared in the output.
    """
    cache = [x]
    h = x
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        h = z if i == last else np.tanh(z)
        if i < last:
            cache.append(h)
    if not np.isfinite(h).all():
        raise NumericalError("non-finite value in network output")
    return h, cache


def mlp_rows(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Cache-free forward pass for acting, shape (B, n_in) -> (B, n_out).

    Each layer is ``np.einsum("bi,io->bo", h, w)`` without ``optimize``,
    which makes no BLAS call, so every output row has the same bits
    whatever rows share its batch (``tests/test_nets.py`` pins this for the
    installed numpy).  The bits depend on the weights' memory order, which
    is C order throughout, and differ from :func:`mlp_forward`'s in the
    last place.

    Raises:
        NumericalError: NaN or infinity appeared in the output.
    """
    h = x
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.einsum("bi,io->bo", h, w) + b
        h = z if i == last else np.tanh(z)
    if not np.isfinite(h).all():
        raise NumericalError("non-finite value in network output")
    return h


def mlp_backward(
    params: MLPParams, cache: list[np.ndarray], dout: np.ndarray, out: MLPParams
) -> None:
    """Backprop ``dout`` (B, n_out) through the network into the gradient
    arrays ``out``, shaped like ``params``."""
    delta = dout
    for i in range(params.n_layers - 1, -1, -1):
        out.weights[i][...] = cache[i].T @ delta
        out.biases[i][...] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * (1.0 - cache[i] ** 2)


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


def clip_global_norm(grads: np.ndarray, layers: Sequence[np.ndarray], max_norm: float) -> float:
    """Scale the flat gradient ``grads`` in place so its L2 norm is <= max_norm.

    ``layers`` are the per-array views into ``grads``.  The norm sums each
    array's squares (``ndarray.sum`` is this reduce), array by array, in
    row-major order since every view is C-ordered.
    """
    squares = (np.add.reduce(g * g, axis=None) for g in layers)
    total = math.sqrt(sum(map(float, squares)))
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


def _params_from_doc(doc: dict) -> MLPParams:
    arrays = [
        np.asarray(flat, dtype=float).reshape(shape)
        for shape, flat in zip(doc["shapes"], doc["arrays"])
    ]
    return MLPParams(weights=arrays[0::2], biases=arrays[1::2])


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
            is corrupt or cut short.
    """
    with open(path) as handle:
        try:
            doc = json.load(handle)
            if doc.get("format") != _FORMAT:
                raise DataError(f"unrecognized network file format in {path}")
            return (
                _params_from_doc(doc["policy"]),
                _params_from_doc(doc["value"]),
                doc["config_fingerprint"],
                int(doc["seed"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"unreadable network file {path!r}: "
                            f"{type(exc).__name__}: {exc}") from exc
