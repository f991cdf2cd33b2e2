"""Dense networks with explicit forward/backward passes in numpy.

Hand-rolled backprop is simpler and more portable than an autodiff
dependency for networks this small, and the actor update needs gradients
with respect to *inputs* (to differentiate the critic with respect to the
action), which ``Mlp.backward``'s input-only mode returns directly.
Parameters, gradients and Adam moments hold ``DTYPE``, float32 as in common
SAC implementations; inputs of any float type are cast to it.  ``Mlp`` and
``Adam`` keep them in zero-filled buffers the caller hands in, such as the
pieces of one :func:`arena`.  :func:`both` runs two independent jobs, such
as the twin critics' halves of an update, on two cores where that pays:
inside a :func:`helper_thread` block, when ``TWO_THREADS`` holds.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
import mmap
import os
import queue
import threading

import numpy as np

from .errors import ConfigError

# Read when an arena is built; networks, Adam and Polyak follow their arrays.
DTYPE = np.float32
# Elements per in-place Adam or Polyak pass: whole-array numpy calls, with
# scratch small enough to stay in cache.
CHUNK = 1 << 16
HUGE_PAGE = 2 << 20   # bytes in an x86-64 or arm64 transparent huge page


def two_threads_help() -> bool:
    """Whether :func:`helper_thread` should start a helper: when BLAS
    runs one thread per call and the process may run on two CPUs or more.
    BLAS counts as single-threaded when ``OPENBLAS_NUM_THREADS`` is 1 or,
    if that is unset, ``OMP_NUM_THREADS`` is 1, OpenBLAS's own order of
    precedence.  A BLAS free to spread each product over the cores is only
    slowed by a second caller: the two oversubscribe the cores."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", ""))
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:   # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return threads.strip() == "1" and cpus >= 2


# Decided once, as BLAS reads its thread count once when numpy loads it.
TWO_THREADS = two_threads_help()


# The job and result queues of the helper thread that ``both`` hands its
# first job to, in the block of :func:`helper_thread` that started it.
_HELPER: contextvars.ContextVar = contextvars.ContextVar("helper", default=None)


@contextlib.contextmanager
def helper_thread():
    """A block in which :func:`both` runs its first job on one helper
    thread, started here when ``TWO_THREADS`` holds.  Leaving the block,
    normally or by an error, stops the helper and joins it, so no thread
    outlives the block.  One thread serves every pair in the block: a
    thread started per pair costs more, and glibc may give each new thread
    a malloc arena of its own, which keeps its memory."""
    if not TWO_THREADS:
        yield
        return
    jobs, results = queue.SimpleQueue(), queue.SimpleQueue()

    def serve():
        for job in iter(jobs.get, None):
            try:
                results.put((job(), None))
            except BaseException as exc:   # handed to the caller by both()
                results.put((None, exc))

    helper = threading.Thread(target=serve, name="schedtune-helper")
    helper.start()
    token = _HELPER.set((jobs, results))
    try:
        yield
    finally:
        _HELPER.reset(token)
        jobs.put(None)
        helper.join()


def both(f, g) -> tuple:
    """``(f(), g())``.  Inside :func:`helper_thread` with the helper
    running, ``f`` runs on the helper while ``g`` runs on the caller's
    thread; numpy lets go of the GIL inside BLAS, so the two products share
    out the cores.  ``f`` has finished before ``both`` returns or raises,
    and an error from ``f`` is raised in preference to one from ``g``, as
    it would be inline.  Otherwise, and for a ``both`` inside ``g``, ``f``
    runs, then ``g``, on the caller's thread."""
    pair = _HELPER.get()
    if pair is None:
        return f(), g()
    jobs, results = pair
    jobs.put(f)
    token = _HELPER.set(None)
    try:
        second = g()
    finally:
        _HELPER.reset(token)
        first, error = results.get()
        if error is not None:
            raise error
    return first, second


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
    is the step count, which each :meth:`step` is given.  Each parameter
    has scratch of its own, so that the two of a pair step on two threads
    (:func:`both`)."""

    def __init__(self, params: list[np.ndarray], m: list[np.ndarray],
                 v: list[np.ndarray], lr: float = 3e-4):
        if not 0.0 < lr < math.inf:   # written so that NaN fails too
            raise ConfigError("learning rate must be positive and finite")
        if any(p.ndim != 1 for p in params):
            raise ConfigError("Adam takes 1-D parameter arrays")
        self.params, self.m, self.v = list(params), list(m), list(v)
        self.lr = lr
        self._scratch = [np.empty((2, min(CHUNK, m.size)), m.dtype) for m in self.m]

    def step(self, grads: list[np.ndarray], t: int) -> None:
        """Take step number ``t``, counted from 1 by the caller.  Per
        element, in this order: ``m = m * b1 + g * (1 - b1)``,
        ``v = v * b2 + (g * (1 - b2)) * g`` and
        ``p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)``, where
        ``bias1 = 1 - b1**t`` and ``bias2 = 1 - b2**t``."""
        if len(grads) != len(self.params) or any(
                g.shape != p.shape for g, p in zip(grads, self.params)):
            raise ConfigError("gradients do not match the parameters")
        bias1 = 1.0 - ADAM_BETA1**t
        bias2 = 1.0 - ADAM_BETA2**t
        if len(grads) == 2:   # a pair, such as the twin critics
            both(lambda: self._step_one(0, grads[0], bias1, bias2),
                 lambda: self._step_one(1, grads[1], bias1, bias2))
        else:
            for k, g in enumerate(grads):
                self._step_one(k, g, bias1, bias2)

    def _step_one(self, k: int, g: np.ndarray, bias1: float, bias2: float) -> None:
        """Step parameter ``k`` with gradient ``g``, in place, in ``CHUNK``
        slices through its own scratch."""
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        p, m, v = self.params[k], self.m[k], self.v[k]
        for lo in range(0, p.size, CHUNK):
            part = slice(lo, lo + CHUNK)
            pc, gc, mc, vc = p[part], g[part], m[part], v[part]
            num, den = (s[:pc.size] for s in self._scratch[k])
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
