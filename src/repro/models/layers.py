"""Numpy neural-network layers with analytic host-CPU costs.

Numerics are real (seeded weights, actual matmuls) so model outputs are
deterministic and testable; latency comes from the host cost model, which
is what the paper's end-to-end latency decomposes into.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..host.cpu import HostCpu

__all__ = ["Mlp", "GruLayer", "AttentionUnit", "sigmoid", "relu"]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-scale, scale, size=(fan_in, fan_out)).astype(np.float32)


class Mlp:
    """Fully-connected stack with ReLU between layers.

    ``dims = [in, h1, ..., out]``; the final layer is linear (callers apply
    sigmoid where the model requires it).
    """

    def __init__(self, dims: Sequence[int], rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        self.dims = list(dims)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for d_in, d_out in zip(dims, dims[1:]):
            self.weights.append(_init(rng, d_in, d_out))
            self.biases.append(np.zeros(d_out, dtype=np.float32))

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float32)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = out @ w + b
            if i != last:
                out = relu(out)
        return out

    def time(self, batch: int, cpu: HostCpu) -> float:
        return cpu.mlp_time(batch, self.dims)


class GruLayer:
    """Single-layer GRU over a [B, L, input] sequence (returns all states)."""

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden = hidden
        self.w_x = _init(rng, input_dim, 3 * hidden)
        self.w_h = _init(rng, hidden, 3 * hidden)
        self.bias = np.zeros(3 * hidden, dtype=np.float32)

    def forward(self, seq: np.ndarray) -> np.ndarray:
        batch, length, _d = seq.shape
        h = np.zeros((batch, self.hidden), dtype=np.float32)
        states = np.zeros((batch, length, self.hidden), dtype=np.float32)
        hid = self.hidden
        for t in range(length):
            gates_x = seq[:, t, :] @ self.w_x + self.bias
            gates_h = h @ self.w_h
            r = sigmoid(gates_x[:, :hid] + gates_h[:, :hid])
            z = sigmoid(gates_x[:, hid : 2 * hid] + gates_h[:, hid : 2 * hid])
            n = np.tanh(gates_x[:, 2 * hid :] + r * gates_h[:, 2 * hid :])
            h = (1.0 - z) * n + z * h
            states[:, t, :] = h
        return states

    def time(self, batch: int, length: int, cpu: HostCpu) -> float:
        return cpu.gru_time(batch, length, self.hidden, self.input_dim)


class AttentionUnit:
    """DIN-style local activation unit.

    Scores each history position against the candidate via an MLP over
    ``[h, c, h - c, h * c]`` and returns the weighted sum of the history.
    """

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.dim = dim
        self.hidden = hidden
        self.mlp = Mlp([4 * dim, hidden, 1], rng)

    def forward(self, history: np.ndarray, candidate: np.ndarray) -> np.ndarray:
        batch, length, dim = history.shape
        cand = np.broadcast_to(candidate[:, None, :], history.shape)
        feats = np.concatenate(
            [history, cand, history - cand, history * cand], axis=2
        ).reshape(batch * length, 4 * dim)
        scores = sigmoid(self.mlp.forward(feats)).reshape(batch, length, 1)
        return (scores * history).sum(axis=1, dtype=np.float32)

    def time(self, batch: int, length: int, cpu: HostCpu) -> float:
        return self.mlp.time(batch * length, cpu) + cpu.elementwise_time(
            batch * length * self.dim * 4 * 4
        )
