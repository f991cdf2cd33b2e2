"""Dense networks with explicit forward/backward passes in numpy.

The networks here are small enough that hand-rolled float64 backprop is
simpler and more portable than an autodiff dependency, and the actor update
needs gradients with respect to *inputs* (to differentiate the critic with
respect to the action), which ``Mlp.backward`` returns directly.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError


class Mlp:
    """Fully connected ReLU network with a linear output layer.

    ``forward`` caches activations; ``backward`` accumulates parameter
    gradients (scaled however the caller scaled ``grad_out``) and returns
    the gradient with respect to the input batch.  With ``rng`` None the
    weights and biases are allocated but not initialized, for a caller that
    fills them (a checkpoint load).
    """

    def __init__(self, sizes, rng: np.random.Generator | None):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigError(f"invalid layer sizes {sizes}")
        self.sizes = sizes
        shapes = list(zip(sizes[:-1], sizes[1:]))
        if rng is None:
            self.weights = [np.empty(shape) for shape in shapes]
            self.biases = [np.empty(fan_out) for _, fan_out in shapes]
        else:
            self.weights = [rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
                            for fan_in, fan_out in shapes]
            self.biases = [np.zeros(fan_out) for _, fan_out in shapes]
        self._alloc_grads()
        self._cache = None

    def _alloc_grads(self) -> None:
        # np.zeros, unlike zeros_like, can take pre-zeroed pages from the
        # allocator, so networks that never run backward never touch them.
        self.grad_weights = [np.zeros(w.shape) for w in self.weights]
        self.grad_biases = [np.zeros(b.shape) for b in self.biases]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    @property
    def gradients(self) -> list[np.ndarray]:
        out = []
        for gw, gb in zip(self.grad_weights, self.grad_biases):
            out.extend((gw, gb))
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(np.asarray(x, dtype=float))
        if h.shape[1] != self.sizes[0]:
            raise ConfigError(
                f"input width {h.shape[1]} does not match {self.sizes[0]}")
        activations = [h]
        pre = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre.append(z)
            h = np.maximum(z, 0.0) if i < self.n_layers - 1 else z
            activations.append(h)
        self._cache = (activations, pre)
        return h

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ConfigError("backward requires a preceding forward pass")
        activations, pre = self._cache
        g = np.atleast_2d(np.asarray(grad_out, dtype=float))
        if g.shape != pre[-1].shape:
            raise ConfigError("grad_out shape does not match the last forward")
        for i in reversed(range(self.n_layers)):
            if i < self.n_layers - 1:
                g = g * (pre[i] > 0.0)
            self.grad_weights[i] += activations[i].T @ g
            self.grad_biases[i] += g.sum(axis=0)
            g = g @ self.weights[i].T
        return g

    def zero_grads(self) -> None:
        for g in self.grad_weights:
            g[:] = 0.0
        for g in self.grad_biases:
            g[:] = 0.0

    def clone(self) -> "Mlp":
        twin = Mlp.__new__(Mlp)
        twin.sizes = self.sizes
        twin.weights = [w.copy() for w in self.weights]
        twin.biases = [b.copy() for b in self.biases]
        twin._alloc_grads()
        twin._cache = None
        return twin

    def copy_from(self, other: "Mlp") -> None:
        if other.sizes != self.sizes:
            raise ConfigError("cannot copy between differently sized networks")
        for dst, src in zip(self.weights, other.weights):
            dst[:] = src
        for dst, src in zip(self.biases, other.biases):
            dst[:] = src


def polyak_update(target: Mlp, source: Mlp, tau: float) -> None:
    """In-place soft update: target <- tau * source + (1 - tau) * target."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigError("tau must lie in [0, 1]")
    for dst, src in zip(target.parameters, source.parameters):
        dst *= 1.0 - tau
        dst += tau * src


class Adam:
    """Adam over a fixed list of parameter arrays, updated in place."""

    def __init__(self, params: list[np.ndarray], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0.0:
            raise ConfigError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ConfigError("gradient list does not match parameter list")
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
