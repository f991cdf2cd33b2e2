"""Dense networks with explicit forward/backward passes in numpy.

Hand-rolled backprop is simpler and more portable than an autodiff
dependency for networks this small, and the actor update needs gradients
with respect to *inputs* (to differentiate the critic with respect to the
action), which ``Mlp.backward``'s input-only mode returns directly.
Parameters, gradients and Adam moments hold ``DTYPE``, float32 as in common
SAC implementations; inputs of any float type are cast to it.  ``Mlp`` and
``Adam`` keep them in zero-filled buffers the caller hands in, such as the
pieces of one :func:`arena`, and hold any other array only while a call
reads it: a network with gradients keeps its activations from a
``forward`` until the ``backward`` that reads them, a network without
keeps none, and an Adam step's scratch lives for that step.

:func:`both` runs two independent jobs on two cores where that pays: the
twin critics' halves of an update, a layer's parameter gradients beside its
input gradient in ``Mlp.backward``, or the two halves of a large lone
parameter in ``Adam.step``.  Inside a :func:`helper_thread` block, when
``TWO_THREADS`` holds, the first job goes to a one-thread
``ThreadPoolExecutor`` that the block's first pair starts and the block's
end joins.  Either way each job's float operations are the same, so the
bytes they write are too.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError

# Read when an arena is built; networks, Adam and Polyak follow their arrays.
DTYPE = np.float32
# Elements per in-place Adam or Polyak pass: whole-array numpy calls, with
# scratch small enough to stay in cache.
CHUNK = 1 << 16


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


# The one-thread pool that ``both`` hands its first job to, in the block of
# :func:`helper_thread` that made it.
_HELPER: contextvars.ContextVar = contextvars.ContextVar("helper", default=None)


@contextlib.contextmanager
def helper_thread():
    """A block in which :func:`both` runs its first job on one helper
    thread when ``TWO_THREADS`` holds, such as a whole SAC update: every
    pair in it, from the two policy forwards to the policy's Adam halves.
    The helper starts at the block's first pair, and leaving the block,
    normally or by an error, joins it, so no thread outlives the block.
    One thread serves every pair in the block: a thread started per pair
    costs more, and glibc may give each new thread a malloc arena of its
    own, which keeps its memory."""
    if not TWO_THREADS:
        yield
        return
    with ThreadPoolExecutor(1, thread_name_prefix="schedtune-helper") as pool:
        token = _HELPER.set(pool)
        try:
            yield
        finally:
            _HELPER.reset(token)


def both(f, g) -> tuple:
    """``(f(), g())``.  Inside :func:`helper_thread` with ``TWO_THREADS``,
    ``f`` runs on the helper while ``g`` runs on the caller's thread; numpy
    lets go of the GIL inside BLAS, so the two products share out the
    cores.  ``f`` has finished before ``both`` returns or raises, and an
    error from ``f`` is raised in preference to one from ``g``, as it would
    be inline.  Otherwise, and for a ``both`` inside either job (a critic
    fit's ``Mlp.backward``, say), ``f`` runs, then ``g``, on the caller's
    thread."""
    pool = _HELPER.get()
    if pool is None:
        return f(), g()
    future = pool.submit(f)
    token = _HELPER.set(None)
    try:
        second = g()
    finally:
        _HELPER.reset(token)
        first = future.result()
    return first, second


def physical_memory() -> int | None:
    """The machine's physical memory in bytes, as ``os.sysconf`` reports
    it: a bound on any buffer, which the system could not back even where
    it grants the mapping.  None where it cannot say; the system's refusal
    is then the only check."""
    try:
        nbytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    # No sysconf on this platform, or no such name; an unknown value reads -1.
    except (AttributeError, ValueError, OSError):
        return None
    return nbytes if nbytes > 0 else None


def arena(lengths, setting: str = "hidden",
          noun: str = "arena") -> tuple[np.ndarray, list[np.ndarray]]:
    """A zero-filled 1-D ``DTYPE`` buffer and its consecutive pieces, one per
    length in ``lengths``, each on a 64-byte boundary.

    The buffer is one private anonymous mapping, which the kernel unmaps
    once no piece is left.  Its pages fault in on first write, so a piece
    that is never written, such as the gradients of an agent that never
    trains, takes no memory.  Where ``mmap`` lacks ``MAP_PRIVATE`` the
    buffer is ``np.zeros``.  A buffer larger than physical memory, or too
    large for the system to make, is a ``ConfigError`` naming its size, the
    config ``setting`` that sized it and the ``noun`` it goes by.
    """
    dtype = np.dtype(DTYPE)
    step = 64 // dtype.itemsize
    starts = np.cumsum([0] + [-(-n // step) * step for n in lengths]).tolist()
    nbytes = starts[-1] * dtype.itemsize
    refusal = f"{setting}: cannot map a {nbytes}-byte {noun}"
    if (limit := physical_memory()) is not None and nbytes > limit:
        raise ConfigError(f"{refusal} (physical memory is {limit} bytes)")
    try:
        if starts[-1] and hasattr(mmap, "MAP_PRIVATE"):
            buffer = np.frombuffer(mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE), dtype)
        else:
            buffer = np.zeros(starts[-1], dtype)
    # Past ssize_t or the address space; refused, or past numpy's size limit.
    except (OverflowError, OSError, MemoryError, ValueError) as exc:
        raise ConfigError(f"{refusal} ({exc})") from exc
    return buffer, [buffer[lo:lo + n] for lo, n in zip(starts, lengths)]


class Mlp:
    """Fully connected ReLU network with a linear output layer.

    The parameters live in the caller's 1-D buffer ``flat``
    (``w0, b0, w1, b1, ...``, :meth:`param_count` elements), viewed as
    ``weights`` and ``biases``; the gradients in ``grad_flat``, of the same
    size and dtype, viewed as ``grad_weights`` and ``grad_biases``.
    ``forward`` keeps its activations until the one ``backward`` that reads
    them, which lets each go once its layer is done; ``backward`` either
    writes the parameter gradients (scaled however the caller scaled
    ``grad_out``) over the previous ones or returns the gradient with
    respect to the input batch.  With ``rng`` None the parameters keep what
    ``flat`` holds, for a caller that fills them (a checkpoint load, a
    target network).  With ``grad_flat`` None the network keeps no
    gradients and no activations: it only runs forward.
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
        # Kept for a backward only where there is one.
        activations = [h] if self.grad_flat is not None else None
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i:   # ReLU on the hidden layer below, in place, so in the cache too
                np.maximum(h, 0.0, out=h)
            h = h @ w
            h += b
            if activations is not None:
                activations.append(h)
        self._cache = activations
        return h

    def backward(self, grad_out: np.ndarray, input_only: bool = False) -> np.ndarray | None:
        """Write the parameter gradients into ``grad_flat`` and return None;
        with ``input_only`` return the input gradient instead, leaving
        ``grad_flat`` as it was.  Without ``input_only``, each layer above
        the first writes its parameter gradients as the first job of a
        :func:`both` pair, while the second carries the gradient down.  It
        takes the activations of the last ``forward`` and drops each layer's
        once that layer is done, so the next ``backward`` needs a ``forward``
        of its own."""
        if self.grad_flat is None:
            raise ConfigError("backward on a network without gradients: it runs forward only")
        activations, self._cache = self._cache, None
        if activations is None:
            raise ConfigError("backward requires a preceding forward pass")
        g = np.atleast_2d(np.asarray(grad_out, dtype=self.flat.dtype))
        if g.shape != activations.pop().shape:
            raise ConfigError("grad_out shape does not match the last forward")

        def param_grads(i: int, h: np.ndarray, g: np.ndarray) -> None:
            np.matmul(h.T, g, out=self.grad_weights[i])
            np.sum(g, axis=0, out=self.grad_biases[i])

        def input_grad(i: int, h: np.ndarray, g: np.ndarray) -> np.ndarray:
            g = g @ self.weights[i].T
            g *= h > 0.0   # a ReLU output is > 0 exactly where its input is
            return g

        for i in reversed(range(1, len(self.weights))):
            h = activations.pop()   # layer i's input, the last read of it
            if input_only:
                g = input_grad(i, h, g)
            else:   # both reads this g; input_grad writes a new array
                _, g = both(lambda: param_grads(i, h, g), lambda: input_grad(i, h, g))
        if input_only:
            return g @ self.weights[0].T
        param_grads(0, activations.pop(), g)
        return None


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
    is the step count, which each :meth:`step` is given.  A pair of
    parameters (the twin critics) steps on two threads (:func:`both`), and
    so do the two halves of a lone parameter of ``2 * CHUNK`` elements or
    more (a policy), split on a ``CHUNK`` boundary.  Each part's step makes
    scratch of its own, two rows of up to ``CHUNK`` elements, and lets it go
    when it ends: between steps Adam holds only the caller's arrays."""

    def __init__(self, params: list[np.ndarray], m: list[np.ndarray],
                 v: list[np.ndarray], lr: float = 3e-4):
        if not 0.0 < lr < math.inf:   # written so that NaN fails too
            raise ConfigError("learning rate must be positive and finite")
        if any(p.ndim != 1 for p in params):
            raise ConfigError("Adam takes 1-D parameter arrays")
        self.params, self.m, self.v = list(params), list(m), list(v)
        self.lr = lr
        # (parameter index, slice) of each part that steps as one job.
        self._parts = [(k, slice(None)) for k in range(len(self.params))]
        if len(self.params) == 1 and self.params[0].size >= 2 * CHUNK:
            mid = self.params[0].size // (2 * CHUNK) * CHUNK
            self._parts = [(0, slice(None, mid)), (0, slice(mid, None))]

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
        if len(self._parts) == 2:
            both(lambda: self._step_part(0, grads, bias1, bias2),
                 lambda: self._step_part(1, grads, bias1, bias2))
        else:
            for j in range(len(self._parts)):
                self._step_part(j, grads, bias1, bias2)

    def _step_part(self, j: int, grads: list[np.ndarray], bias1: float, bias2: float) -> None:
        """Step part ``j`` in place, in ``CHUNK`` slices through scratch of its own."""
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        k, part = self._parts[j]
        p, g, m, v = (a[part] for a in (self.params[k], grads[k], self.m[k], self.v[k]))
        scratch = np.empty((2, min(CHUNK, p.size)), m.dtype)
        for lo in range(0, p.size, CHUNK):
            chunk = slice(lo, lo + CHUNK)
            pc, gc, mc, vc = p[chunk], g[chunk], m[chunk], v[chunk]
            num, den = (s[:pc.size] for s in scratch)
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
