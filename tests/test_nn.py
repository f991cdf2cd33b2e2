"""Backprop against central finite differences, Adam against a reference.

The finite-difference and oracle checks build float64 networks
(``float64_nets``); the rest run in the package's own dtype.
"""
import math

import numpy as np
import pytest

from schedtune.errors import ConfigError
from schedtune.nn import Adam, polyak_update
from tests.conftest import make_mlp
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
