"""Dense networks with explicit forward/backward passes in numpy.

Hand-rolled backprop is simpler and more portable than an autodiff
dependency for networks this small, and the actor update needs gradients
with respect to *inputs* (to differentiate the critic with respect to the
action), which ``Mlp.backward``'s input-only mode returns directly.
Parameters, gradients and Adam moments hold ``DTYPE``, float32 as in common
SAC implementations; inputs of any float type are cast to it.  ``Mlp`` and
``Adam`` keep them in zero-filled buffers the caller hands in, such as the
pieces of one :func:`arena`.
"""
from __future__ import annotations

import contextlib
import math
import mmap

import numpy as np

from .errors import ConfigError

# Read when an arena is built; networks, Adam and Polyak follow their arrays.
DTYPE = np.float32
# Elements per in-place Adam or Polyak pass: whole-array numpy calls, with
# scratch small enough to stay in cache.
CHUNK = 1 << 16
HUGE_PAGE = 2 << 20   # bytes in an x86-64 or arm64 transparent huge page


def arena(*groups) -> tuple[np.ndarray, list[np.ndarray]]:
    """A zero-filled 1-D ``DTYPE`` buffer and its consecutive pieces, one per
    length in ``groups`` (lists of lengths), each on a 64-byte boundary.

    The buffer is a private anonymous mapping, which the kernel unmaps once
    no piece is left.  Each group is advised ``MADV_HUGEPAGE`` over the 2 MB
    pages that lie wholly inside it: where transparent huge pages allow, the
    kernel faults those in 2 MB at a time, and a group that is never written
    stays unmapped.  Where ``mmap`` lacks ``MAP_PRIVATE`` or
    ``MADV_HUGEPAGE`` the buffer is ``np.zeros``.  A mapping too large to
    make is a ``ConfigError`` naming its size.
    """
    dtype = np.dtype(DTYPE)
    step = 64 // dtype.itemsize
    lengths = [n for group in groups for n in group]
    starts = np.cumsum([0] + [-(-n // step) * step for n in lengths]).tolist()
    if starts[-1] and hasattr(mmap, "MAP_PRIVATE") and hasattr(mmap, "MADV_HUGEPAGE"):
        nbytes = starts[-1] * dtype.itemsize
        try:
            memory = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        except (OverflowError, OSError) as exc:   # past ssize_t, or past the address space
            raise ConfigError(f"hidden: cannot map a {nbytes}-byte arena ({exc})") from exc
        buffer = np.frombuffer(memory, dtype)
        base, first = buffer.ctypes.data, 0
        for group in groups:   # advise the whole huge pages inside each group
            lo, hi = (base + starts[i] * dtype.itemsize for i in (first, first + len(group)))
            lo = -(-lo // HUGE_PAGE) * HUGE_PAGE - base
            hi = hi // HUGE_PAGE * HUGE_PAGE - base
            if hi > lo:
                with contextlib.suppress(OSError):   # a kernel without huge pages
                    memory.madvise(mmap.MADV_HUGEPAGE, lo, hi - lo)
            first += len(group)
    else:
        buffer = np.zeros(starts[-1], dtype)
    return buffer, [buffer[lo:lo + n] for lo, n in zip(starts, lengths)]


class Mlp:
    """Fully connected ReLU network with a linear output layer.

    The parameters live in the caller's 1-D buffer ``flat``
    (``w0, b0, w1, b1, ...``, :meth:`param_count` elements), viewed as
    ``weights`` and ``biases``; the gradients in ``grad_flat``, of the same
    size and dtype, viewed as ``grad_weights`` and ``grad_biases``.
    ``forward`` caches activations; ``backward`` either writes the parameter
    gradients (scaled however the caller scaled ``grad_out``) over the
    previous ones or returns the gradient with respect to the input batch.
    With ``rng`` None the parameters keep what ``flat`` holds, for a caller
    that fills them (a checkpoint load, a target network).  With
    ``grad_flat`` None the network keeps no gradients and only runs forward.
    """

    def __init__(self, sizes, rng: np.random.Generator | None,
                 flat: np.ndarray, grad_flat: np.ndarray | None):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigError(f"invalid layer sizes {sizes}")
        self.sizes = sizes
        self.shapes = [s for i, o in zip(sizes[:-1], sizes[1:]) for s in ((i, o), (o,))]
        self.flat, self.grad_flat = flat, grad_flat
        params = self.split(self.flat)
        self.weights, self.biases = params[0::2], params[1::2]
        if grad_flat is not None:
            grads = self.split(grad_flat)
            self.grad_weights, self.grad_biases = grads[0::2], grads[1::2]
        self._cache = None
        if rng is not None:
            for w, b in zip(self.weights, self.biases):
                w[:] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
                b[:] = 0.0

    @staticmethod
    def param_count(sizes) -> int:
        """Weights and biases of a network with these layer sizes."""
        return sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))

    def split(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Views ``w0, b0, w1, b1, ...`` of a buffer laid out like ``flat``."""
        ends = np.cumsum([math.prod(s) for s in self.shapes])[:-1]
        return [a.reshape(s) for a, s in zip(np.split(buffer, ends), self.shapes)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(np.asarray(x, dtype=self.flat.dtype))
        if h.shape[1] != self.sizes[0]:
            raise ConfigError(
                f"input width {h.shape[1]} does not match {self.sizes[0]}")
        activations = [h]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i:   # ReLU on the hidden layer below, in place and in the cache
                np.maximum(h, 0.0, out=h)
            h = h @ w
            h += b
            activations.append(h)
        self._cache = activations
        return h

    def backward(self, grad_out: np.ndarray, input_only: bool = False) -> np.ndarray | None:
        """Write the parameter gradients into ``grad_flat`` and return None;
        with ``input_only`` return the input gradient instead, leaving
        ``grad_flat`` as it was."""
        if self._cache is None:
            raise ConfigError("backward requires a preceding forward pass")
        activations = self._cache
        g = np.atleast_2d(np.asarray(grad_out, dtype=self.flat.dtype))
        if g.shape != activations[-1].shape:
            raise ConfigError("grad_out shape does not match the last forward")
        for i in reversed(range(len(self.weights))):
            if not input_only:
                np.matmul(activations[i].T, g, out=self.grad_weights[i])
                np.sum(g, axis=0, out=self.grad_biases[i])
            if i == 0:
                return g @ self.weights[0].T if input_only else None
            g = g @ self.weights[i].T
            g *= activations[i] > 0.0   # a ReLU output is > 0 exactly where its input is


def polyak_update(target: Mlp, source: Mlp, tau: float) -> None:
    """In-place soft update: target <- tau * source + (1 - tau) * target."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigError("tau must lie in [0, 1]")
    if target.sizes != source.sizes:
        raise ConfigError(f"polyak_update from sizes {source.sizes} to {target.sizes}")
    scratch = np.empty(min(CHUNK, target.flat.size), target.flat.dtype)
    for lo in range(0, target.flat.size, CHUNK):
        part = slice(lo, lo + CHUNK)
        dst = target.flat[part]
        dst *= 1.0 - tau
        dst += np.multiply(source.flat[part], tau, out=scratch[:dst.size])


# Moment decay rates and denominator guard: Kingma and Ba's defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a fixed list of 1-D parameter arrays (a network's ``flat``,
    say), updated in place.  The moments ``m`` and ``v`` are the caller's
    zero-filled arrays, one per parameter with its shape and dtype, and so
    is the step count, which each :meth:`step` is given."""

    def __init__(self, params: list[np.ndarray], m: list[np.ndarray],
                 v: list[np.ndarray], lr: float = 3e-4):
        if not 0.0 < lr < math.inf:   # written so that NaN fails too
            raise ConfigError("learning rate must be positive and finite")
        if any(p.ndim != 1 for p in params):
            raise ConfigError("Adam takes 1-D parameter arrays")
        self.params, self.m, self.v = list(params), list(m), list(v)
        self.lr = lr
        width = min(CHUNK, max((p.size for p in params), default=0))
        self._scratch = np.empty((2, width), self.m[0].dtype if params else DTYPE)

    def step(self, grads: list[np.ndarray], t: int) -> None:
        """Take step number ``t``, counted from 1 by the caller.  Per
        element, in this order: ``m = m * b1 + g * (1 - b1)``,
        ``v = v * b2 + (g * (1 - b2)) * g`` and
        ``p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)``, where
        ``bias1 = 1 - b1**t`` and ``bias2 = 1 - b2**t``."""
        if len(grads) != len(self.params) or any(
                g.shape != p.shape for g, p in zip(grads, self.params)):
            raise ConfigError("gradients do not match the parameters")
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1**t
        bias2 = 1.0 - b2**t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            for lo in range(0, p.size, CHUNK):
                part = slice(lo, lo + CHUNK)
                pc, gc, mc, vc = p[part], g[part], m[part], v[part]
                num, den = (s[:pc.size] for s in self._scratch)
                mc *= b1
                mc += np.multiply(gc, 1.0 - b1, out=num)
                vc *= b2
                np.multiply(gc, 1.0 - b2, out=num)
                vc += np.multiply(num, gc, out=num)
                np.sqrt(np.divide(vc, bias2, out=den), out=den)
                den += ADAM_EPS
                np.divide(mc, bias1, out=num)
                num *= self.lr
                pc -= np.divide(num, den, out=num)
