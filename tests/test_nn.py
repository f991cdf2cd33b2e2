"""Backprop against central finite differences, Adam against a reference.

The finite-difference and oracle checks build float64 networks
(``float64_nets``); the rest run in the package's own dtype.
"""
import math
import os
import threading
import time

import numpy as np
import pytest

from schedtune import nn
from schedtune.errors import ConfigError
from schedtune.nn import Adam, both, polyak_update
from tests.conftest import held_arrays, make_mlp
from tests.sac_oracle import Mlp as OracleMlp

FD_H = 1e-5


def fd_gradient(loss_fn, array, indices):
    grads = {}
    flat = array.ravel()
    for i in indices:
        orig = flat[i]
        flat[i] = orig + FD_H
        up = loss_fn()
        flat[i] = orig - FD_H
        down = loss_fn()
        flat[i] = orig
        grads[i] = (up - down) / (2.0 * FD_H)
    return grads


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def test_forward_matches_hand_computation():
    net = make_mlp((2, 3, 1), np.random.default_rng(0))
    net.weights[0][:] = [[1.0, -1.0, 0.5], [0.0, 2.0, -0.5]]
    net.biases[0][:] = [0.1, -0.2, 0.0]
    net.weights[1][:] = [[1.0], [2.0], [3.0]]
    net.biases[1][:] = [0.5]
    x = np.array([[1.0, 2.0]], net.flat.dtype)
    hidden = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
    expected = hidden @ net.weights[1] + net.biases[1]
    assert np.array_equal(net.forward(x), expected)


def test_relu_zeroes_negative_preactivations():
    net = make_mlp((1, 2, 1), np.random.default_rng(0))
    net.weights[0][:] = [[1.0, -1.0]]
    net.biases[0][:] = 0.0
    net.weights[1][:] = [[1.0], [1.0]]
    net.biases[1][:] = 0.0
    assert net.forward(np.array([[2.0]]))[0, 0] == 2.0
    assert net.forward(np.array([[-2.0]]))[0, 0] == 2.0


def jitter_biases(net, rng):
    """Move pre-activations off the ReLU kink, where the subgradient and a
    finite difference legitimately disagree."""
    for b in net.biases:
        b += rng.normal(0.0, 0.1, size=b.shape)


@pytest.mark.usefixtures("float64_nets")
def test_weight_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    net = make_mlp((4, 4, 4, 1), rng)
    jitter_biases(net, rng)
    x = rng.uniform(-1, 1, (6, 4))

    def loss():
        return float(net.forward(x).sum())

    net.forward(x)
    net.backward(np.ones((6, 1)))
    worst = 0.0
    for param, grad in zip(net.split(net.flat), net.split(net.grad_flat)):
        idx = rng.choice(param.size, size=min(8, param.size), replace=False)
        for i, fd in fd_gradient(loss, param, idx).items():
            worst = max(worst, relative_error(fd, grad.ravel()[i]))
    assert worst < 1e-4


@pytest.mark.usefixtures("float64_nets")
def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    net = make_mlp((3, 5, 2), rng)
    jitter_biases(net, rng)
    x = rng.uniform(-1, 1, (4, 3))
    coeff = rng.uniform(-1, 1, (4, 2))

    def loss():
        return float((net.forward(x) * coeff).sum())

    net.forward(x)
    grad_in = net.backward(coeff, input_only=True)
    worst = 0.0
    for i, fd in fd_gradient(loss, x, range(x.size)).items():
        worst = max(worst, relative_error(fd, grad_in.ravel()[i]))
    assert worst < 1e-4


def test_backward_overwrites_the_previous_gradients():
    rng = np.random.default_rng(3)
    net = make_mlp((2, 3, 1), rng)
    x = rng.uniform(-1, 1, (2, 2))
    net.forward(x)
    net.backward(np.ones((2, 1)))
    once = net.grad_flat.copy()
    assert np.any(once != 0.0)
    net.grad_flat.fill(7.0)
    net.forward(x)
    net.backward(np.ones((2, 1)))
    assert np.array_equal(net.grad_flat, once)


def test_a_full_backward_in_a_helper_block_writes_the_inline_bytes(monkeypatch):
    # Each layer above the first writes its parameter gradients on the
    # helper while the caller carries the gradient down.
    rng = np.random.default_rng(12)
    net = make_mlp((5, 16, 16, 16, 3), rng)
    jitter_biases(net, rng)
    x = rng.uniform(-1, 1, (32, 5))
    coeff = rng.uniform(-1, 1, (32, 3))
    monkeypatch.setattr(nn, "TWO_THREADS", False)
    net.forward(x)
    net.backward(coeff)
    inline = net.grad_flat.tobytes()
    net.grad_flat.fill(7.0)
    monkeypatch.setattr(nn, "TWO_THREADS", True)
    before = threading.active_count()
    with nn.helper_thread():
        net.forward(x)
        assert net.backward(coeff) is None
        assert threading.active_count() == before + 1   # a pair went to the helper
    assert net.grad_flat.tobytes() == inline


def input_only_and_full_backward():
    """The net's input-only input gradient and the oracle's full-backward one
    on the same weights and inputs (the net's values, widened to float64);
    checks that input-only mode leaves the gradients and full mode returns
    None."""
    rng = np.random.default_rng(10)
    net = make_mlp((3, 6, 6, 2), rng)
    jitter_biases(net, rng)
    x = rng.uniform(-1, 1, (5, 3)).astype(net.flat.dtype)
    coeff = rng.uniform(-1, 1, (5, 2)).astype(net.flat.dtype)
    full = OracleMlp((3, 6, 6, 2), np.random.default_rng(0))
    full.weights = [w.astype(float) for w in net.weights]
    full.biases = [b.astype(float) for b in net.biases]
    full.forward(x)
    net.grad_flat.fill(7.0)
    net.forward(x)
    got = net.backward(coeff, input_only=True)
    assert got.dtype == net.flat.dtype
    assert np.all(net.grad_flat == 7.0)
    net.forward(x)
    assert net.backward(coeff) is None
    return got, full.backward(coeff)


@pytest.mark.usefixtures("float64_nets")
def test_input_only_backward_returns_the_same_input_gradient():
    got, expected = input_only_and_full_backward()
    assert np.array_equal(got, expected)


def test_float32_input_only_backward_matches_the_full_one():
    # Float32 rounding against the float64 full backward of the same
    # weights: measured 5.3e-8 of the largest entry (numpy 2.4, OpenBLAS,
    # x86-64); the bound is twice that.
    got, expected = input_only_and_full_backward()
    assert np.max(np.abs(got - expected)) <= 1.1e-7 * np.abs(expected).max()


def test_parameters_and_gradients_are_views_of_the_flat_buffers():
    net = make_mlp((3, 5, 4, 2), np.random.default_rng(11))
    assert net.flat.size == net.grad_flat.size == 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2
    for buffer, views in ((net.flat, net.weights + net.biases),
                          (net.grad_flat, net.grad_weights + net.grad_biases)):
        assert all(np.shares_memory(a, buffer) for a in views)
    assert not np.shares_memory(net.flat, net.grad_flat)
    assert [a.shape for a in net.split(net.flat)] == [
        (3, 5), (5,), (5, 4), (4,), (4, 2), (2,)]
    net.flat[:] = np.arange(net.flat.size)
    assert net.weights[0][0, 1] == 1.0 and net.biases[0][0] == 15.0
    assert net.weights[1][0, 0] == 20.0


def test_he_initialization_scale_and_zero_bias():
    net = make_mlp((256, 128), np.random.default_rng(4))
    std = float(net.weights[0].std())
    assert std == pytest.approx(math.sqrt(2.0 / 256), rel=0.1)
    assert np.all(net.biases[0] == 0.0)


def test_validation_errors():
    rng = np.random.default_rng(6)
    with pytest.raises(ConfigError):
        make_mlp((3,), rng)
    with pytest.raises(ConfigError):
        make_mlp((3, 0, 1), rng)
    net = make_mlp((3, 2), rng)
    with pytest.raises(ConfigError):
        net.forward(np.zeros((1, 4)))
    with pytest.raises(ConfigError):
        net.backward(np.zeros((1, 2)))
    net.forward(np.zeros((1, 3)))
    with pytest.raises(ConfigError):
        net.backward(np.zeros((2, 2)))


def test_physical_memory_is_what_sysconf_reports():
    if not hasattr(os, "sysconf"):
        pytest.skip("no os.sysconf on this platform")
    assert nn.physical_memory() == os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("sysconf", [None, _unknown_name], ids=["no-sysconf", "unknown-name"])
def test_without_a_memory_size_the_system_refusal_is_the_check(monkeypatch, sysconf):
    if sysconf is None:
        monkeypatch.delattr(os, "sysconf", raising=False)
    else:
        monkeypatch.setattr(os, "sysconf", sysconf)
    assert nn.physical_memory() is None
    # 2**60 elements are past any 64-bit Linux address space, so the system
    # refuses them without touching memory.
    with pytest.raises(ConfigError, match=r"^hidden: cannot map a 4611686018427387904-byte "
                                          r"arena \((?!physical memory)"):
        nn.arena([2**60])


def forward_only_mlp(sizes, rng):
    """A network over an arena of its own, without a gradient buffer."""
    _, (flat,) = nn.arena([nn.Mlp.param_count(sizes)])
    return nn.Mlp(sizes, rng, flat, None)


@pytest.mark.parametrize("input_only", [False, True])
def test_a_network_without_gradients_keeps_no_activations(input_only):
    rng = np.random.default_rng(14)
    net = forward_only_mlp((3, 5, 5, 2), rng)
    x = rng.uniform(-1, 1, (4, 3))
    out = net.forward(x)
    assert all(np.shares_memory(a, net.flat) for a in held_arrays(net))
    with pytest.raises(ConfigError, match="^backward on a network without gradients: "
                                          "it runs forward only$"):
        net.backward(np.ones_like(out), input_only=input_only)
    # It computes what a network with gradients computes.
    twin = make_mlp(net.sizes, None)
    twin.flat[:] = net.flat
    assert twin.forward(x).tobytes() == out.tobytes()


@pytest.mark.parametrize("input_only", [False, True])
def test_each_forward_serves_one_backward(input_only):
    rng = np.random.default_rng(15)
    net = make_mlp((3, 5, 5, 2), rng)
    x = rng.uniform(-1, 1, (4, 3))
    coeff = rng.uniform(-1, 1, (4, 2))
    net.forward(x)
    first = net.backward(coeff, input_only=input_only)
    # The backward let go of every activation it read.
    buffers = (net.flat, net.grad_flat)
    assert all(any(np.shares_memory(a, b) for b in buffers) for a in held_arrays(net))
    with pytest.raises(ConfigError, match="^backward requires a preceding forward pass$"):
        net.backward(coeff, input_only=input_only)
    net.forward(x)
    again = net.backward(coeff, input_only=input_only)
    if input_only:
        assert again.tobytes() == first.tobytes()
    else:
        assert first is None and again is None


@pytest.mark.parametrize("size", [31, 2 * 7 * 3])   # one part, then two halves
def test_adam_holds_no_scratch_between_steps(monkeypatch, size):
    monkeypatch.setattr(nn, "CHUNK", 7)
    param = np.zeros(size)
    opt = adam([param])
    opt.step([np.ones(size)], 1)
    assert all(any(a is b for b in (param, opt.m[0], opt.v[0])) for a in held_arrays(opt))


def adam(params, **kwargs):
    return Adam(params, [np.zeros_like(p) for p in params],
                [np.zeros_like(p) for p in params], **kwargs)


def reference_adam(p0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam written longhand for cross-checking."""
    p, m, v = p0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


def test_adam_matches_scalar_reference():
    rng = np.random.default_rng(7)
    grads = rng.normal(size=25)
    param = np.array([2.5])
    opt = adam([param], lr=0.01)
    for t, g in enumerate(grads, start=1):
        opt.step([np.array([g])], t)
    assert param[0] == pytest.approx(reference_adam(2.5, grads, 0.01), abs=1e-12)


def test_adam_minimizes_quadratic():
    param = np.array([10.0])
    opt = adam([param], lr=0.1)
    for t in range(1, 501):
        opt.step([2.0 * (param - 3.0)], t)
    assert param[0] == pytest.approx(3.0, abs=0.05)


def test_adam_validation():
    with pytest.raises(ConfigError):
        adam([np.zeros(2)], lr=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="learning rate"):
            adam([np.zeros(2)], lr=bad)
    with pytest.raises(ConfigError, match="1-D"):
        adam([np.zeros(2), np.zeros((2, 2))])
    opt = adam([np.zeros(2)])
    with pytest.raises(ConfigError):
        opt.step([], 1)


def test_polyak_endpoints_and_blend():
    rng = np.random.default_rng(8)
    src = make_mlp((2, 3, 1), rng)
    dst = make_mlp((2, 3, 1), None)
    dst.flat[:] = src.flat
    dst.weights[0][:] += 1.0
    frozen = dst.flat.copy()

    polyak_update(dst, src, tau=0.0)
    assert np.array_equal(dst.flat, frozen)

    polyak_update(dst, src, tau=0.5)
    assert np.allclose(dst.flat, 0.5 * frozen + 0.5 * src.flat)

    polyak_update(dst, src, tau=1.0)
    assert np.allclose(dst.flat, src.flat)

    with pytest.raises(ConfigError):
        polyak_update(dst, src, tau=1.5)


def test_polyak_rejects_mismatched_networks():
    rng = np.random.default_rng(9)
    with pytest.raises(ConfigError):
        polyak_update(make_mlp((2, 3, 1), rng), make_mlp((2, 3, 1, 1), rng), tau=0.5)


def test_adam_rejects_mismatched_gradient_shape():
    opt = adam([np.arange(3.0)])
    opt.step([np.ones(3)], 1)
    before = [a.copy() for a in (opt.params[0], opt.m[0], opt.v[0])]
    with pytest.raises(ConfigError):
        opt.step([np.zeros(1)], 2)
    after = (opt.params[0], opt.m[0], opt.v[0])
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


@pytest.mark.parametrize("threaded", [False, True])
def test_both_runs_f_on_the_helper_and_leaves_no_thread(monkeypatch, threaded):
    monkeypatch.setattr(nn, "TWO_THREADS", threaded)
    before, me = threading.active_count(), threading.get_ident()
    assert both(threading.get_ident, threading.get_ident) == (me, me)
    with nn.helper_thread():
        for _ in range(3):   # the first pair starts one helper, which serves them all
            first, second = both(threading.get_ident, threading.get_ident)
            assert (first != me) == threaded and second == me
            assert threading.active_count() == before + threaded
        # A pair inside g runs inline: the helper is busy with f.
        _, inner = both(threading.get_ident,
                        lambda: both(threading.get_ident, threading.get_ident))
        assert inner == (me, me)
    assert threading.active_count() == before


class Boom(Exception):
    pass


def _boom():
    raise Boom("half")


@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("failing", ["f", "g", "both"])
def test_an_error_in_either_half_reaches_the_caller_after_f_ends(
        monkeypatch, threaded, failing):
    monkeypatch.setattr(nn, "TWO_THREADS", threaded)
    before, finished = threading.active_count(), []

    def slow():   # still running when the other half fails
        time.sleep(0.05)
        finished.append(threading.get_ident())

    f = _boom if failing in ("f", "both") else slow
    g = _boom if failing in ("g", "both") else slow
    with nn.helper_thread():
        with pytest.raises(Boom):
            both(f, g)
        # Inline, f's error stops g from starting; threaded, f has ended
        # before g's error is raised.
        assert len(finished) == (failing == "g" or (threaded and failing == "f"))
        assert both(lambda: 1, lambda: 2) == (1, 2)   # the helper still serves
    assert threading.active_count() == before


def test_f_wins_when_both_halves_fail(monkeypatch):
    monkeypatch.setattr(nn, "TWO_THREADS", True)

    def g():
        raise KeyError("g")

    with nn.helper_thread(), pytest.raises(Boom) as info:
        both(_boom, g)
    assert isinstance(info.value.__context__, KeyError)


def test_an_error_in_the_block_joins_the_helper(monkeypatch):
    monkeypatch.setattr(nn, "TWO_THREADS", True)
    before = threading.active_count()
    with pytest.raises(Boom), nn.helper_thread():
        both(lambda: None, lambda: None)
        assert threading.active_count() == before + 1
        _boom()
    assert threading.active_count() == before


def test_a_block_that_runs_no_pair_starts_no_thread(monkeypatch):
    monkeypatch.setattr(nn, "TWO_THREADS", True)
    before = threading.active_count()
    with nn.helper_thread():
        assert threading.active_count() == before
    assert threading.active_count() == before


@pytest.mark.parametrize("env, cpus, expected", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, True),
    ({"OMP_NUM_THREADS": "1"}, 2, True),
    # OpenBLAS reads its own variable first.
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "4"}, 2, False),
    ({}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
], ids=["openblas", "openblas-8-cpus", "omp", "openblas-first", "omp-ignored",
        "openblas-4", "unset", "one-cpu"])
def test_two_threads_only_where_blas_runs_one_per_call_on_two_cpus(
        monkeypatch, env, cpus, expected):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    # The affinity mask counts, not the machine's CPU count.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert nn.two_threads_help() is expected


def test_two_threads_count_cpus_where_there_is_no_affinity_mask(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus, expected in ((1, False), (None, False), (2, True)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert nn.two_threads_help() is expected


@pytest.mark.parametrize("threaded", [False, True])
def test_a_pair_of_parameters_steps_as_two_single_ones(monkeypatch, threaded):
    monkeypatch.setattr(nn, "TWO_THREADS", threaded)
    monkeypatch.setattr(nn, "CHUNK", 7)   # several chunks and a partial last one
    rng = np.random.default_rng(11)
    start = [rng.normal(size=n) for n in (30, 17)]
    grads = [[rng.normal(size=p.size) for p in start] for _ in range(3)]
    pair = [p.copy() for p in start]
    singles = [p.copy() for p in start]
    opt_pair = adam(pair)
    opt_singles = [adam([p]) for p in singles]
    before = threading.active_count()
    with nn.helper_thread():
        for t, g in enumerate(grads, start=1):
            opt_pair.step(g, t)
            for opt, gk in zip(opt_singles, g):
                opt.step([gk], t)
        assert threading.active_count() == before + threaded
    for a, b in zip(pair + opt_pair.m + opt_pair.v,
                    singles + [o.m[0] for o in opt_singles] + [o.v[0] for o in opt_singles]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("threaded", [False, True])
def test_a_lone_parameter_steps_as_two_halves_with_the_same_bytes(monkeypatch, threaded):
    rng = np.random.default_rng(13)
    start = rng.normal(size=31)
    grads = [rng.normal(size=start.size) for _ in range(3)]
    whole = start.copy()
    opt_whole = adam([whole])   # one part: 31 elements are far below 2 * CHUNK
    monkeypatch.setattr(nn, "TWO_THREADS", threaded)
    monkeypatch.setattr(nn, "CHUNK", 7)   # five chunks, the last partial: halves of 14 and 17
    halves = start.copy()
    opt_halves = adam([halves])
    pairs = []
    monkeypatch.setattr(nn, "both", lambda f, g: pairs.append(1) or both(f, g))
    before = threading.active_count()
    with nn.helper_thread():
        for t, g in enumerate(grads, start=1):
            opt_halves.step([g], t)
            opt_whole.step([g], t)
        assert threading.active_count() == before + threaded
    assert len(pairs) == len(grads)   # the halves stepped as a pair, and only they
    for a, b in ((halves, whole), (opt_halves.m[0], opt_whole.m[0]),
                 (opt_halves.v[0], opt_whole.v[0])):
        assert a.tobytes() == b.tobytes()
