"""Policy distribution math, update gradients, checkpoints, training loop."""
import csv
import gc
import hashlib
import io
import json
import math
import mmap
import os
import re
import struct
import sys
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from schedtune import agent as agent_module
from schedtune import nn
from schedtune.agent import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    LOG_COLUMNS,
    ReplayBuffer,
    SacAgent,
    SacConfig,
    env_action,
    train_agent,
    verify_checkpoint,
)
from schedtune.errors import CheckpointError, ConfigError
from schedtune.optimizers import run_tuning
from schedtune.synthfuncs import SyntheticTuningEnv
from schedtune.tunenv import VectorEnv
from tests.conftest import (
    float64_networks,
    held_arrays,
    make_mlp,
    pinned_for_blas_kernel,
    training_state,
)


def tiny_agent(seed=0, obs_dim=3, act_dim=2, **overrides):
    cfg = SacConfig(obs_dim=obs_dim, act_dim=act_dim, hidden=(8, 8),
                    batch_size=4, replay_capacity=64, start_steps=0,
                    **overrides)
    agent = SacAgent(cfg, seed=seed)
    # Nudge biases off zero so no pre-activation sits exactly on the ReLU
    # kink during finite-difference comparisons.
    jitter = np.random.default_rng(seed + 1000)
    for net in (agent.policy, agent.q1, agent.q2):
        for b in net.biases:
            b += jitter.normal(0.0, 0.05, size=b.shape)
    agent.q1_target.flat[:] = agent.q1.flat
    agent.q2_target.flat[:] = agent.q2.flat
    return agent


def per_array(buffers, *nets):
    """Each network's per-layer views of its buffer (``flat``, say)."""
    return [a for net in nets for a in net.split(getattr(net, buffers))]


def fd_check(loss_fn, params, grads, rng, h=1e-5, samples=8):
    worst = 0.0
    for param, grad in zip(params, grads):
        flat_p, flat_g = param.ravel(), grad.ravel()
        idx = rng.choice(flat_p.size, size=min(samples, flat_p.size),
                         replace=False)
        for i in idx:
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = loss_fn()
            flat_p[i] = orig - h
            down = loss_fn()
            flat_p[i] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(fd - flat_g[i])
                        / max(abs(fd), abs(flat_g[i]), 1e-8))
    return worst


@pytest.mark.usefixtures("float64_nets")
def test_critic_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    agent = tiny_agent(seed=1)
    obs = rng.uniform(-1, 1, (5, 3))
    act = np.tanh(rng.normal(size=(5, 2)))
    target = rng.normal(size=5)

    agent.critic_gradients(obs, act, target)
    g_all = [g.copy() for g in per_array("grad_flat", agent.q1, agent.q2)]
    worst = fd_check(lambda: agent.critic_gradients(obs, act, target),
                     per_array("flat", agent.q1, agent.q2), g_all, rng)
    assert worst < 1e-4


@pytest.mark.usefixtures("float64_nets")
def test_actor_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    agent = tiny_agent(seed=3)
    obs = rng.uniform(-1, 1, (5, 3))
    eps = rng.standard_normal((5, 2))

    agent.actor_gradients(obs, agent._heads(obs), eps)
    grads = [g.copy() for g in per_array("grad_flat", agent.policy)]
    worst = fd_check(lambda: agent.actor_gradients(obs, agent._heads(obs), eps)[0],
                     per_array("flat", agent.policy), grads, rng)
    assert worst < 1e-4


def test_actor_pass_leaves_critics_untouched():
    rng = np.random.default_rng(4)
    agent = tiny_agent(seed=5)
    obs = rng.uniform(-1, 1, (4, 3))
    critics = (agent.q1, agent.q2)
    before = [net.flat.copy() for net in critics]
    for net in critics:
        net.grad_flat.fill(7.0)
    agent.actor_gradients(obs, agent._heads(obs), rng.standard_normal((4, 2)))
    assert all(np.array_equal(net.flat, b) for net, b in zip(critics, before))
    assert all(np.all(net.grad_flat == 7.0) for net in critics)
    assert np.any(agent.policy.grad_flat != 0.0)


def test_actions_stay_inside_bounds():
    rng = np.random.default_rng(6)
    agent = tiny_agent(seed=7)
    obs = rng.uniform(-5, 5, (1000, 3))
    tanh_a, _ = agent.sample_action(obs)
    # tanh can hit the closed bound in float arithmetic when u is extreme.
    assert np.all(tanh_a >= -1.0) and np.all(tanh_a <= 1.0)
    mapped = env_action(tanh_a)
    assert np.all(mapped >= 0.0) and np.all(mapped <= 1.0)
    single = agent.act(obs[0])
    assert single.shape == (2,)
    assert np.all(single >= 0.0) and np.all(single <= 1.0)


def test_env_action_mapping_roundtrip():
    assert np.allclose(env_action(np.array([-1.0, 0.0, 1.0])), [0.0, 0.5, 1.0])
    a = np.linspace(-0.99, 0.99, 11)
    assert np.allclose(2.0 * env_action(a) - 1.0, a)


def test_deterministic_act_is_repeatable():
    agent = tiny_agent(seed=8)
    obs = np.array([0.3, -0.2, 0.9])
    assert np.array_equal(agent.act(obs), agent.act(obs))


def test_act_is_the_mean_action_and_draws_no_noise():
    agent = tiny_agent(seed=8)
    state = agent.rng.bit_generator.state
    for obs in np.random.default_rng(3).uniform(-3, 3, (6, 3)):
        mean = agent.policy.forward(obs[None].astype(agent.dtype))[:, :2]
        assert np.array_equal(agent.act(obs), env_action(np.tanh(mean)[0]))
    assert agent.rng.bit_generator.state == state


class FixedNoise:
    """Stands in for an agent's rng in ``sample_action``: returns given noise."""

    def __init__(self, eps):
        self.eps = eps

    def standard_normal(self, shape, dtype=np.float64):
        return np.broadcast_to(self.eps.astype(dtype), shape)


@pytest.mark.usefixtures("float64_nets")
def test_sampled_logp_matches_longhand_density():
    rng = np.random.default_rng(9)
    agent = tiny_agent(seed=10)
    obs = rng.uniform(-1, 1, (20, 3))
    agent.rng = np.random.default_rng(11)
    tanh_a, logp = agent.sample_action(obs)
    # Density of u = arctanh(a) under the Gaussian head, over the tanh Jacobian.
    out = agent.policy.forward(obs)
    mean, log_std = out[:, :2], np.clip(out[:, 2:], -20.0, 2.0)
    u = np.arctanh(np.clip(tanh_a, -1.0 + 1e-12, 1.0 - 1e-12))
    gauss = -0.5 * ((u - mean) / np.exp(log_std))**2 - log_std - 0.5 * np.log(2 * np.pi)
    recomputed = (gauss - np.log(1.0 - tanh_a**2 + 1e-6)).sum(axis=1)
    assert np.max(np.abs(logp - recomputed)) < 1e-9


def test_float32_logp_matches_a_float64_longhand():
    # The draws above at float32, with observations widened to +-8 so that
    # |u| reaches 8.2, where a float32 tanh rounds to within a few ulps of
    # +-1.  So the density is worked out from the noise, in float64 on the
    # float32 weights.  Measured worst gaps (numpy 2.4, OpenBLAS, x86-64):
    # logp 2.0e-6, actions 2.2e-7; the bounds are twice that.  The float32
    # form log(1 - a**2 + 1e-6) on the actions misses logp by 0.059.
    rng = np.random.default_rng(9)
    agent = tiny_agent(seed=10)
    obs = rng.uniform(-8, 8, (20, 3))
    agent.rng = np.random.default_rng(11)
    tanh_a, logp = agent.sample_action(obs)
    assert tanh_a.dtype == logp.dtype == np.float32
    eps = np.random.default_rng(11).standard_normal(tanh_a.shape, dtype=np.float32)
    with float64_networks():
        wide = make_mlp(agent.policy.sizes, None)
    wide.flat[:] = agent.policy.flat
    out = wide.forward(obs.astype(np.float32))
    mean, log_std = out[:, :2], np.clip(out[:, 2:], -20.0, 2.0)
    u = mean + np.exp(log_std) * eps
    gauss = -0.5 * eps.astype(float)**2 - log_std - 0.5 * np.log(2 * np.pi)
    recomputed = (gauss - np.log(1.0 - np.tanh(u)**2 + 1e-6)).sum(axis=1)
    assert np.max(np.abs(logp - recomputed)) < 4e-6
    assert np.max(np.abs(tanh_a - np.tanh(u))) < 4.5e-7


def test_policy_density_integrates_to_one():
    # One action dimension so the squashed density can be integrated directly.
    cfg = SacConfig(obs_dim=2, act_dim=1, hidden=(8,), batch_size=4,
                    replay_capacity=16)
    agent = SacAgent(cfg, seed=12)
    obs = np.array([[0.4, -0.7]])
    # Noise on a fine grid gives actions on a monotone grid over (-1, 1).
    eps = np.linspace(-9.0, 9.0, 200001)[:, None]
    agent.rng = FixedNoise(eps)
    grid, logp = agent.sample_action(np.repeat(obs, len(eps), axis=0))
    assert np.all(np.diff(grid[:, 0]) >= 0.0)
    mass = np.trapezoid(np.exp(logp), grid[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_config_validation():
    with pytest.raises(ConfigError):
        SacConfig(obs_dim=0, act_dim=2)
    with pytest.raises(ConfigError):
        SacConfig(obs_dim=3, act_dim=2, gamma=1.5)
    with pytest.raises(ConfigError):
        SacConfig(obs_dim=3, act_dim=2, batch_size=512, replay_capacity=10)


@pytest.mark.parametrize("key, value", [
    ("lr", math.nan), ("lr", math.inf), ("lr", -math.inf),
    pytest.param("lr", 10**400, id="lr-past-float-range"),
])
def test_config_rejects_a_learning_rate_that_is_not_finite(key, value):
    # A comparison with NaN is False, so "lr <= 0" alone lets NaN through.
    with pytest.raises(ConfigError, match=f"^{key}: must be"):
        SacConfig(obs_dim=3, act_dim=2, **{key: value})


@pytest.mark.parametrize("name, value", [
    ("updates_per_step", 1), ("target_entropy", -2.0), ("entropy_target", -2.0),
])
def test_config_takes_no_removed_setting(name, value):
    # One update per env step and a target entropy of -act_dim are fixed, not settings.
    with pytest.raises(TypeError, match=name):
        SacConfig(obs_dim=3, act_dim=2, **{name: value})

def test_replay_buffer_wraparound_and_sampling():
    buf = ReplayBuffer(capacity=8, obs_dim=2, act_dim=1)
    with pytest.raises(ConfigError):
        buf.sample(np.random.default_rng(0), 2)
    for i in range(12):
        buf.add(np.full(2, i), np.full(1, i), float(i), np.full(2, i + 1), i % 2)
    assert len(buf) == 8
    # The oldest four entries were overwritten.
    assert set(buf.rew) == set(range(4, 12))
    obs, act, rew, nxt, done = buf.sample(np.random.default_rng(1), 5)
    assert obs.shape == (5, 2) and act.shape == (5, 1)
    assert np.all(rew >= 4)
    again = buf.sample(np.random.default_rng(1), 5)
    assert np.array_equal(rew, again[2])


def test_update_changes_parameters_and_reports_losses():
    rng = np.random.default_rng(13)
    agent = tiny_agent(seed=14)
    batch = (rng.uniform(-1, 1, (4, 3)), np.tanh(rng.normal(size=(4, 2))),
             rng.uniform(0, 1, 4), rng.uniform(-1, 1, (4, 3)),
             np.zeros(4))
    before = [net.flat.copy() for net in (agent.policy, agent.q1)]
    stats = agent.update(batch)
    after = [agent.policy.flat, agent.q1.flat]
    assert all(not np.array_equal(a, b) for a, b in zip(before, after))
    for key in ("critic_loss", "actor_loss", "alpha_loss", "alpha", "entropy"):
        assert np.isfinite(stats[key])
    assert agent.grad_steps == 1


def test_critic_descends_on_fixed_regression_target():
    rng = np.random.default_rng(15)
    agent = tiny_agent(seed=16, lr=1e-2)
    obs = rng.uniform(-1, 1, (16, 3))
    act = np.tanh(rng.normal(size=(16, 2)))
    target = rng.normal(size=16)
    first = agent.critic_gradients(obs, act, target)
    agent.opt_critic.step([agent.q1.grad_flat, agent.q2.grad_flat], 1)
    last = first
    for t in range(2, 302):
        last = agent.critic_gradients(obs, act, target)
        agent.opt_critic.step([agent.q1.grad_flat, agent.q2.grad_flat], t)
    assert last < 0.1 * first


def _sac_batches(seed, cfg):
    data = np.random.default_rng(seed)
    n, obs_dim, act_dim = cfg.batch_size, cfg.obs_dim, cfg.act_dim
    while True:
        yield (data.normal(size=(n, obs_dim)), np.tanh(data.normal(size=(n, act_dim))),
               data.uniform(size=n), data.normal(size=(n, obs_dim)),
               (data.uniform(size=n) < 0.2).astype(float))


@pytest.mark.parametrize("hidden, batch_size, steps", [
    ((64, 64), 32, 6), (SacConfig(1, 1).hidden, 256, 1)], ids=["64x64", "default"])
def test_threaded_and_inline_updates_are_bit_identical(monkeypatch, hidden, batch_size,
                                                       steps):
    cfg = SacConfig(obs_dim=20, act_dim=8, hidden=hidden, batch_size=batch_size,
                    replay_capacity=batch_size, start_steps=0)
    runs, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch often, so that a shared write would show
    try:
        for threaded in (False, True):
            monkeypatch.setattr(nn, "TWO_THREADS", threaded)
            agent, data = SacAgent(cfg, seed=41), _sac_batches(42, cfg)
            before = threading.active_count()
            stats = [repr(agent.update(next(data))) for _ in range(steps)]
            assert threading.active_count() == before
            # The arena holds every piece of the training state.
            runs.append((agent.arena.tobytes(), stats, agent.rng.bit_generator.state))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1]


def test_an_update_allocates_under_a_bound(monkeypatch):
    # tracemalloc counts numpy's allocations, not the arena's mapping.  One
    # default-size update measured a 5.6 MB peak inline (numpy 2.4,
    # OpenBLAS, x86-64); the bound is 25 % over that.  Activations kept by
    # the forward-only networks or past their backward, with Adam scratch
    # kept between steps, read 11.3 MB.
    monkeypatch.setattr(nn, "TWO_THREADS", False)
    cfg = SacConfig(obs_dim=20, act_dim=8, replay_capacity=256, start_steps=0)
    agent, data = SacAgent(cfg, seed=41), _sac_batches(42, cfg)
    agent.update(next(data))   # so that the traced update follows another
    batch = next(data)
    tracemalloc.start()
    try:
        agent.update(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.0e6


@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("half", ["q1_target", "q2_target", "q1", "q2", "next_policy",
                                  "policy", "next_policy+policy"])
def test_an_error_in_a_critic_half_leaves_no_thread(monkeypatch, threaded, half):
    # The next-state policy forward and q1's half of each critic pair run on
    # the helper thread, the actor's policy forward and q2's on the caller's.
    # When both policy forwards fail, the helper's error is raised.
    monkeypatch.setattr(nn, "TWO_THREADS", threaded)
    agent = tiny_agent(seed=43)
    for name in half.split("+"):
        def fail(*args, name=name, **kwargs):
            raise FloatingPointError(f"{name} failed")

        monkeypatch.setattr(getattr(agent, name), "forward", fail)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"^{half.split('+')[0]} failed"):
        agent.update(next(_sac_batches(44, agent.config)))
    assert threading.active_count() == before


def test_target_networks_track_with_tau_one():
    rng = np.random.default_rng(17)
    cfg = SacConfig(obs_dim=3, act_dim=2, hidden=(8, 8), batch_size=4,
                    replay_capacity=64, tau=1.0)
    agent = SacAgent(cfg, seed=18)
    batch = (rng.uniform(-1, 1, (4, 3)), np.tanh(rng.normal(size=(4, 2))),
             rng.uniform(0, 1, 4), rng.uniform(-1, 1, (4, 3)), np.zeros(4))
    agent.update(batch)
    assert np.array_equal(agent.q1_target.flat, agent.q1.flat)
    assert np.array_equal(agent.q2_target.flat, agent.q2.flat)


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(19)
    agent = tiny_agent(seed=20)
    batch = (rng.uniform(-1, 1, (4, 3)), np.tanh(rng.normal(size=(4, 2))),
             rng.uniform(0, 1, 4), rng.uniform(-1, 1, (4, 3)), np.zeros(4))
    agent.update(batch)
    agent.env_steps = 1234
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    clone = SacAgent.load(path)
    for (name_a, arr_a), (name_b, arr_b) in zip(agent._named_arrays(),
                                                clone._named_arrays()):
        assert name_a == name_b
        assert np.array_equal(arr_a, arr_b), name_a
    assert clone.env_steps == 1234
    assert clone.grad_steps == agent.grad_steps == 1
    assert clone.config == agent.config
    obs = rng.uniform(-1, 1, 3)
    assert np.array_equal(agent.act(obs), clone.act(obs))
    second = tmp_path / "again.ckpt"
    clone.save(second)
    assert path.read_bytes() == second.read_bytes()


# SHA-256 of `trained_tiny_agent`'s arena: every float32 bit of three updates
# in every piece, in arena order (numpy 2.4, OpenBLAS, x86-64), by the BLAS
# kernel that computed it.  Zen runs the Haswell kernel.
PINNED_ARENA_SHA256 = {
    "SkylakeX": "4dda569a938887af2f0205d17621b49c03974fa7d274f433535bfd5c22367a47",
    "Haswell": "04e7c10a0669574792931d737983261d5ad44a931a793df160295bac260e9eb8",
}
# SHA-256 of the checkpoint it saves: the format and the trained policy.  The
# policy's bits are the same under every kernel, so this is one value.
PINNED_CHECKPOINT_SHA256 = "b15ae18a0d51fe5c977454e26744fcd3d1e17b5a790b72a441a060351f2804d5"
# The policy's digest in its header, the one version-5 and version-6
# checkpoints of the same agent carried: the policy's bytes did not change
# with the format.
PINNED_POLICY_SHA256 = "7e4e5fe16f3ab93307ba49ae126ffbb6d2a507f3234dda5c5518fda599018cd7"


def trained_tiny_agent():
    rng = np.random.default_rng(31)
    agent = tiny_agent(seed=30)
    for _ in range(3):
        agent.update((rng.uniform(-1, 1, (4, 3)), np.tanh(rng.normal(size=(4, 2))),
                      rng.uniform(0, 1, 4), rng.uniform(-1, 1, (4, 3)),
                      np.zeros(4)))
    agent.env_steps = 12
    return agent


def test_after_an_update_the_agent_holds_only_its_arena():
    # No network keeps activations and no optimizer keeps scratch.
    agent = trained_tiny_agent()
    for name in ("policy", "next_policy", "q1", "q2", "q1_target", "q2_target",
                 "opt_policy", "opt_critic", "opt_alpha"):
        held = held_arrays(getattr(agent, name))
        assert held and all(np.shares_memory(a, agent.arena) for a in held), name


def header_of(raw):
    """The header of checkpoint bytes ``raw``, parsed."""
    return json.loads(raw[16:16 + struct.unpack("<Q", raw[8:16])[0]])


def test_training_bits_and_checkpoint_bytes_are_pinned(tmp_path):
    agent = trained_tiny_agent()
    arena = hashlib.sha256(agent.arena.tobytes()).hexdigest()
    assert arena == pinned_for_blas_kernel(PINNED_ARENA_SHA256)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == PINNED_CHECKPOINT_SHA256
    assert header_of(raw)["policy_sha256"] == PINNED_POLICY_SHA256


def test_a_save_that_fails_halfway_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "agent.ckpt"
    first = tiny_agent(seed=32)
    first.save(path)
    good = path.read_bytes()
    real_open = open

    class DiskFull(io.FileIO):
        def write(self, data):
            if self.tell() + memoryview(data).nbytes > len(good) // 2:
                raise OSError(28, "No space left on device")
            return super().write(data)

    def failing_open(file, mode="r", *args, **kwargs):
        return DiskFull(file, mode) if "w" in mode else real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(agent_module, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        trained_tiny_agent().save(path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["agent.ckpt"]
    assert path.read_bytes() == good
    loaded = SacAgent.load(path)
    for (name, a), (_, b) in zip(first._named_arrays(), loaded._named_arrays()):
        assert np.array_equal(a, b), name


def assert_views_of_one_arena(agent):
    """Every piece of the training state and the trained networks' gradient
    buffers are views of ``agent.arena``, and no two of them overlap.  The
    target networks keep no gradients."""
    assert agent.q1_target.grad_flat is None and agent.q2_target.grad_flat is None
    nets = (agent.policy, agent.q1, agent.q2)
    arrays = [a for _, a in training_state(agent)] + [net.grad_flat for net in nets]
    assert all(np.shares_memory(a, agent.arena) for a in arrays)
    spans = sorted((a.ctypes.data, a.ctypes.data + a.nbytes) for a in arrays)
    lo, hi = agent.arena.ctypes.data, agent.arena.ctypes.data + agent.arena.nbytes
    assert lo <= spans[0][0] and spans[-1][1] <= hi
    assert all(end <= begin for (_, end), (begin, _) in zip(spans, spans[1:]))


def test_arrays_are_views_of_their_network_buffers(tmp_path):
    agent = tiny_agent(seed=22)
    owners = {"policy": (agent.policy, agent.opt_policy, 0),
              "q1": (agent.q1, agent.opt_critic, 0),
              "q2": (agent.q2, agent.opt_critic, 1)}
    for net, opt, k in owners.values():
        for views, buffer in ((net.weights + net.biases, net.flat),
                              (net.grad_weights + net.grad_biases, net.grad_flat),
                              (net.split(opt.m[k]), opt.m[k]),
                              (net.split(opt.v[k]), opt.v[k])):
            assert all(np.shares_memory(a, buffer) for a in views)
        assert opt.params[k] is net.flat
    assert agent._named_arrays() == [("policy", agent.policy.flat)]
    assert agent.opt_alpha.params[0] is agent.log_alpha
    assert_views_of_one_arena(agent)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    loaded = SacAgent.load(path)
    assert np.shares_memory(loaded.policy.flat, loaded.arena)
    assert not np.shares_memory(agent.arena, loaded.arena)
    assert not np.shares_memory(agent.arena, tiny_agent(seed=22).arena)


def test_the_training_state_opens_the_arena_in_order():
    agent = tiny_agent(seed=29)
    state = [a for _, a in training_state(agent)]
    # policy: 3 * 8 + 8, 8 * 8 + 8 and 8 * 4 + 4; critics: 5 * 8 + 8, 8 * 8 + 8, 8 + 1.
    assert [a.size for a in state] == [140] + [129] * 4 + [1] + [140] * 2 + [129] * 4 + [1] * 2
    assert all(a.ndim == 1 for a in state)
    starts = [a.ctypes.data for a in state]
    ends = [a.ctypes.data + a.nbytes for a in state]
    assert starts[0] == agent.arena.ctypes.data
    # Each piece begins at the first 64-byte boundary after the one before.
    assert all(0 <= start - end < 64 for end, start in zip(ends, starts[1:]))
    nets = (agent.policy, agent.q1, agent.q2)
    assert all(net.grad_flat.ctypes.data >= ends[-1] for net in nets)
    assert agent.q1_target.grad_flat is None and agent.q2_target.grad_flat is None


def mappings_over(lo, hi):
    """(start, end, permissions) of each of this process's mappings that
    overlaps the bytes [lo, hi), from /proc/self/maps."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()   # read whole, before anything is parsed
    out = []
    for line in lines:
        span, perms = line.split()[:2]
        start, end = (int(x, 16) for x in span.split("-"))
        if start < hi and lo < end:
            out.append((start, end, perms))
    return out


def test_the_arena_is_a_private_mapping_where_mmap_offers_one():
    if not hasattr(mmap, "MAP_PRIVATE"):
        pytest.skip("mmap has no private mappings here")
    arena = tiny_agent().arena
    assert isinstance(arena.base, memoryview) and isinstance(arena.base.obj, mmap.mmap)
    if os.path.exists("/proc/self/maps"):
        lo = arena.ctypes.data
        [(start, end, perms)] = mappings_over(lo, lo + arena.nbytes)
        assert start <= lo and lo + arena.nbytes <= end and perms.endswith("p")


# A tiny agent's arena is a few kB, smaller than anything the allocators
# map on their own, so no other allocation takes its place once it is gone.
@pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE") or not os.path.exists("/proc/self/maps"),
                    reason="needs private mappings and /proc/self/maps")
def test_the_arena_is_unmapped_once_no_piece_is_left():
    agent = tiny_agent()
    lo = agent.arena.ctypes.data
    hi = lo + agent.arena.nbytes
    assert mappings_over(lo, hi)
    flat = agent.policy.flat
    del agent
    gc.collect()
    assert mappings_over(lo, hi)
    del flat
    gc.collect()
    assert not mappings_over(lo, hi)


def test_an_agent_without_private_mappings_trains_to_the_same_bits(tmp_path, monkeypatch):
    reference = trained_tiny_agent()
    monkeypatch.delattr(mmap, "MAP_PRIVATE", raising=False)
    agent = trained_tiny_agent()
    assert agent.arena.flags.owndata   # np.zeros, not a mapping
    assert_views_of_one_arena(agent)
    assert agent.arena.tobytes() == reference.arena.tobytes()
    arena = hashlib.sha256(agent.arena.tobytes()).hexdigest()
    assert arena == pinned_for_blas_kernel(PINNED_ARENA_SHA256)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHECKPOINT_SHA256
    loaded = SacAgent.load(path)
    assert loaded.arena.flags.owndata
    assert np.shares_memory(loaded.policy.flat, loaded.arena)


def test_target_critics_start_as_independent_copies():
    cfg = SacConfig(obs_dim=3, act_dim=2, hidden=(8, 8), batch_size=4,
                    replay_capacity=64)
    agent = SacAgent(cfg, seed=33)
    assert not np.array_equal(agent.q1.flat, agent.q2.flat)
    for net, target in ((agent.q1, agent.q1_target), (agent.q2, agent.q2_target)):
        assert target.sizes == net.sizes
        assert np.array_equal(target.flat, net.flat)
        assert target.grad_flat is None
        assert not np.shares_memory(target.flat, net.flat)
        net.weights[0][0, 0] += 1.0
        assert target.weights[0][0, 0] != net.weights[0][0, 0]


def test_a_loaded_agent_acts_like_the_saved_one(tmp_path):
    path = tmp_path / "agent.ckpt"
    agent = trained_tiny_agent()
    agent.save(path)
    loaded = SacAgent.load(path)
    obs = np.random.default_rng(26).uniform(-3, 3, (20, 3))
    for o in obs:
        assert np.array_equal(agent.act(o), loaded.act(o))
    # Stochastic: each agent draws its noise from its own rng, seeded alike.
    agent.rng, loaded.rng = np.random.default_rng(25), np.random.default_rng(25)
    for a, b in zip(agent.sample_action(obs), loaded.sample_action(obs)):
        assert np.array_equal(a, b)
    assert np.array_equal(agent.act_batch(obs), loaded.act_batch(obs))
    assert (loaded.env_steps, loaded.grad_steps) == (agent.env_steps, agent.grad_steps) == (12, 3)


def test_a_loaded_agent_keeps_only_the_policy(tmp_path):
    path = tmp_path / "agent.ckpt"
    agent = trained_tiny_agent()
    agent.save(path)
    loaded = SacAgent.load(path)
    assert sorted(vars(loaded)) == ["arena", "config", "dtype", "env_steps", "grad_steps",
                                    "policy", "rng"]
    assert loaded.policy.grad_flat is None
    assert loaded.arena.nbytes == -(-agent.policy.flat.nbytes // 64) * 64
    assert np.shares_memory(loaded.policy.flat, loaded.arena)
    named = loaded._named_arrays()
    assert [n for n, _ in named] == [n for n, _ in agent._named_arrays()] == ["policy"]
    assert named[0][1].tobytes() == agent.policy.flat.tobytes()


def _payload_offset(raw):
    """Offset in checkpoint bytes ``raw`` of the policy's first byte."""
    return 16 + struct.unpack("<Q", raw[8:16])[0]


def test_each_reader_names_a_damaged_policy(tmp_path):
    path = tmp_path / "agent.ckpt"
    trained_tiny_agent().save(path)
    verify_checkpoint(path)
    raw = bytearray(path.read_bytes())
    raw[_payload_offset(raw)] ^= 0x01
    path.write_bytes(bytes(raw))
    for read in (verify_checkpoint, SacAgent.load):
        with pytest.raises(CheckpointError,
                           match=r"agent\.ckpt: policy does not match its digest$"):
            read(path)


@pytest.mark.parametrize("read", [verify_checkpoint, SacAgent.load], ids=["verify", "load"])
@pytest.mark.parametrize("view", range(6), ids=["w0", "b0", "w1", "b1", "w2", "b2"])
def test_each_reader_names_a_flip_in_any_layer_of_the_policy(tmp_path, read, view):
    agent = trained_tiny_agent()
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    layer = agent.policy.split(agent.policy.flat)[view]
    # The layer's last byte, counted from the policy's first one.
    offset = layer.ctypes.data + layer.nbytes - 1 - agent.policy.flat.ctypes.data
    raw = bytearray(path.read_bytes())
    raw[_payload_offset(raw) + offset] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError) as info:
        read(path)
    assert str(info.value) == f"{path}: policy does not match its digest"


def _checkpoint_holding(path, agent, numbers):
    """Write a checkpoint of ``agent``'s config whose payload is ``numbers``
    in float32, under a digest that agrees with them."""
    payload = numbers.astype("<f4").tobytes()
    header = checkpoint_header(agent.config, payload)
    return _write_checkpoint(path, json.dumps(header).encode(), payload)


@pytest.mark.parametrize("length", [0, 139, 141])
def test_a_policy_of_another_length_fails_with_one_error_line(tmp_path, length):
    # Payload and digest agree with each other, but the config implies 140.
    agent = tiny_agent(seed=25)
    path = _checkpoint_holding(tmp_path / "a.ckpt", agent, np.resize(agent.policy.flat, length))
    for read in (verify_checkpoint, SacAgent.load):
        with pytest.raises(CheckpointError) as info:
            read(path)
        assert str(info.value) == f"{path} payload is {4 * length} bytes, expected 560"


@pytest.mark.parametrize("obs_dim, act_dim, hidden", [
    (3, 2, (8,)), (1, 1, (4, 4)), (5, 3, (16, 8, 4)), (24, 2, (32, 32)),
])
def test_a_loaded_agent_of_any_shape_acts_like_the_saved_one(tmp_path, obs_dim, act_dim,
                                                             hidden):
    config = SacConfig(obs_dim=obs_dim, act_dim=act_dim, hidden=hidden, batch_size=4,
                       replay_capacity=16)
    agent = SacAgent(config, seed=7)
    path, again = tmp_path / "agent.ckpt", tmp_path / "again.ckpt"
    agent.save(path)
    raw = path.read_bytes()
    assert len(raw) == _payload_offset(raw) + 4 * agent.policy.flat.size
    loaded = SacAgent.load(path)
    assert loaded.config == config and loaded.policy.sizes == agent.policy.sizes
    assert loaded.policy.flat.tobytes() == agent.policy.flat.tobytes()
    obs = np.random.default_rng(8).uniform(-3, 3, (6, obs_dim))
    for o in obs:
        assert np.array_equal(agent.act(o), loaded.act(o))
    # Sampled: each agent draws its noise from its own rng, seeded alike.
    agent.rng, loaded.rng = np.random.default_rng(9), np.random.default_rng(9)
    assert np.array_equal(agent.act_batch(obs), loaded.act_batch(obs))
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("env_steps, grad_steps", [(0, 0), (12, 3), (2**53 + 1, 2**40)])
def test_a_checkpoint_keeps_its_step_counts_exactly(tmp_path, env_steps, grad_steps):
    # 2**53 + 1 is the first count a float would round.
    agent = tiny_agent(seed=34)
    agent.env_steps, agent.grad_steps = env_steps, grad_steps
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    assert header_of(path.read_bytes())["env_steps"] == env_steps
    loaded = SacAgent.load(path)
    assert (loaded.env_steps, loaded.grad_steps) == (env_steps, grad_steps)
    assert type(loaded.env_steps) is int and type(loaded.grad_steps) is int


def test_every_reader_checks_the_header_before_it_allocates(tmp_path):
    path = _write_checkpoint(tmp_path / "huge.ckpt", json.dumps(huge_policy_header()).encode())
    for read in (verify_checkpoint, SacAgent.load):
        with pytest.raises(CheckpointError, match="payload is 0 bytes, expected 400001200000016$"):
            read(path)


def test_a_loaded_agent_cannot_update(tmp_path):
    path = tmp_path / "agent.ckpt"
    tiny_agent(seed=27).save(path)
    loaded = SacAgent.load(path)
    with pytest.raises(CheckpointError) as info:
        loaded.update(None)
    assert str(info.value) == "cannot update a loaded agent: it keeps only its policy"


def test_a_loaded_agent_saves_the_bytes_it_was_loaded_from(tmp_path):
    path, again = tmp_path / "agent.ckpt", tmp_path / "again.ckpt"
    trained_tiny_agent().save(path)
    SacAgent.load(path).save(again)
    assert again.read_bytes() == path.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.ckpt", "agent.ckpt"]


def test_a_checkpoint_stores_the_policy_alone(tmp_path):
    agent = trained_tiny_agent()
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    raw = path.read_bytes()
    policy = agent.policy.flat.astype("<f4").tobytes()
    assert header_of(raw) == checkpoint_header(agent.config, policy, env_steps=12, grad_steps=3)
    assert sorted(header_of(raw)) == ["config", "dtype", "env_steps", "grad_steps",
                                      "policy_sha256"]
    assert raw.endswith(policy) and len(raw) == _payload_offset(raw) + len(policy)


@pytest.mark.parametrize("version", [5, 6])
def test_an_older_checkpoint_fails_with_one_error_line(tmp_path, version):
    path = _forge_checkpoint(tmp_path / "old.ckpt", tiny_agent(seed=28), version=version)
    for read in (verify_checkpoint, SacAgent.load):
        with pytest.raises(CheckpointError) as info:
            read(path)
        assert str(info.value) == f"unsupported checkpoint version {version}, expected 7"


def test_checkpoint_rejects_corruption(tmp_path):
    agent = tiny_agent(seed=21)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(CheckpointError):
        SacAgent.load(bad_magic)

    versioned = bytearray(raw)
    versioned[4] = 99
    future = tmp_path / "future.ckpt"
    future.write_bytes(bytes(versioned))
    with pytest.raises(CheckpointError):
        SacAgent.load(future)

    with pytest.raises(CheckpointError):
        SacAgent.load(tmp_path / "missing.ckpt")
    assert raw[:4] == CHECKPOINT_MAGIC


def _flip(offset):
    def mutate(raw):
        raw[offset] ^= 0xFF
        return raw
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (lambda raw: raw[:-40], "payload is"),
    (lambda raw: raw[:-1], "payload is"),
    (lambda raw: raw + b"\0", "payload is"),
    (lambda raw: raw[:30], "header"),
    (_flip(-1), "policy does not match its digest"),   # last byte of the one array
    (_flip(-5), "policy does not match its digest"),   # the (float32) element before it
], ids=["short-40", "short-1", "trailing-1", "short-header", "flip-last",
        "flip-second-last"])
def test_checkpoint_rejects_bad_payload(tmp_path, mutate, message):
    agent = tiny_agent(seed=21)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    path.write_bytes(bytes(mutate(bytearray(path.read_bytes()))))
    with pytest.raises(CheckpointError, match=message):
        SacAgent.load(path)


def test_a_checkpoint_of_another_piece_fails_with_one_error_line(tmp_path):
    # q1's bytes, a piece version 5 stored, where the policy belongs.
    agent = tiny_agent(seed=25)
    path = _checkpoint_holding(tmp_path / "q1.ckpt", agent, agent.q1.flat)
    for read in (verify_checkpoint, SacAgent.load):
        with pytest.raises(CheckpointError) as info:
            read(path)
        # q1: 5 * 8 + 8, 8 * 8 + 8 and 8 * 1 + 1 weights and biases; the
        # policy: 3 * 8 + 8, 8 * 8 + 8 and 8 * 4 + 4.
        assert str(info.value) == f"{path} payload is 516 bytes, expected 560"


def checkpoint_header(config, payload=b"", **values):
    """The header :meth:`SacAgent.save` writes for an agent of ``config``
    whose policy's bytes are ``payload``, at step counts 0, with ``values``
    over its own, as JSON reads it back."""
    header = {"config": {**asdict(config), "hidden": list(config.hidden)}, "env_steps": 0,
              "grad_steps": 0, "dtype": "<f4",
              "policy_sha256": hashlib.sha256(payload).hexdigest()}
    header.update(values)
    return header


def huge_policy_header():
    """A consistent header for a 400 TB policy: 100 000 300 000 004 numbers."""
    return checkpoint_header(SacConfig(obs_dim=24, act_dim=2, hidden=(10_000_000, 10_000_000)))


def _forge_checkpoint(path, agent, drop=(), dtype=None, version=CHECKPOINT_VERSION, **values):
    """Write a checkpoint of ``agent``'s policy in ``dtype`` (the agent's own
    by default), under a header without the keys in ``drop`` and with
    ``values`` over its own; the payload length and the digest stay
    consistent."""
    dtype = np.dtype(dtype or agent.dtype).newbyteorder("<")
    payload = agent.policy.flat.astype(dtype).tobytes()
    header = checkpoint_header(agent.config, payload, dtype=dtype.str, **values)
    for key in drop:
        del header[key]
    return _write_checkpoint(path, json.dumps(header).encode(), payload, version)


def _write_checkpoint(path, blob, payload=b"", version=CHECKPOINT_VERSION):
    """Write the magic, ``version``, the header bytes ``blob`` and ``payload``."""
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", version)
                     + struct.pack("<Q", len(blob)) + blob + payload)
    return path


@pytest.mark.parametrize("key", ["config", "env_steps", "grad_steps", "dtype", "policy_sha256"])
def test_checkpoint_rejects_header_without_required_key(tmp_path, key):
    path = _forge_checkpoint(tmp_path / "a.ckpt", tiny_agent(seed=23), drop=[key])
    with pytest.raises(CheckpointError, match=key):
        SacAgent.load(path)


@pytest.mark.parametrize("digest, message", [
    (None, " has a malformed header: policy_sha256: missing"),
    (0, " has a malformed header: policy_sha256: expected a string, got int"),
    (["0" * 64], " has a malformed header: policy_sha256: expected a string, got list"),
    ("0" * 64, ": policy does not match its digest"),
], ids=["missing", "int", "list", "mismatched"])
def test_a_missing_or_wrong_policy_digest_fails_with_one_error_line(tmp_path, digest,
                                                                     message):
    agent = tiny_agent(seed=23)
    if digest is None:
        path = _forge_checkpoint(tmp_path / "a.ckpt", agent, drop=["policy_sha256"])
    else:
        path = _forge_checkpoint(tmp_path / "a.ckpt", agent, policy_sha256=digest)
    for read in (verify_checkpoint, SacAgent.load):
        with pytest.raises(CheckpointError) as info:
            read(path)
        assert str(info.value) == f"{path}{message}"


@pytest.mark.parametrize("extra, key", [
    ({"bogus": "x"}, "bogus"),
    ({"adam_steps": {"opt_policy": 1000, "opt_critic": 0, "opt_alpha": 7}}, "adam_steps"),
    ({"bogus": "x", "adam_steps": {"opt_policy": 3}}, "adam_steps"),
], ids=["bogus", "v3-adam-steps", "both"])
def test_checkpoint_rejects_an_unknown_header_key(tmp_path, extra, key):
    # The header lies outside the payload digest, so a key this build does
    # not read would be state dropped without a word.
    path = _forge_checkpoint(tmp_path / "a.ckpt", tiny_agent(seed=23), **extra)
    with pytest.raises(CheckpointError,
                       match=rf"malformed header: {key}: unknown field$") as info:
        SacAgent.load(path)
    assert len(str(info.value).splitlines()) == 1


@pytest.mark.parametrize("key", ["env_steps", "grad_steps"])
def test_checkpoint_rejects_a_negative_step_count(tmp_path, key):
    # Counts are never negative; at grad_steps -1 the next update's Adam
    # bias correction would divide by 1 - beta**0 = 0.
    path = _forge_checkpoint(tmp_path / "a.ckpt", tiny_agent(seed=23), **{key: -1})
    message = rf"malformed header: negative step count: .*{key} -1"
    with pytest.raises(CheckpointError, match=message):
        SacAgent.load(path)


@pytest.mark.parametrize("key", ["env_steps", "grad_steps", "config.obs_dim", "config.gamma",
                                 "config.lr", "config.start_steps"])
@pytest.mark.parametrize("value", [True, False])
def test_checkpoint_rejects_a_boolean_number(tmp_path, key, value):
    # JSON's true is not the number 1, in a header as in a config.
    agent = tiny_agent(seed=23)
    payload = agent.policy.flat.tobytes()
    header = checkpoint_header(agent.config, payload)
    *parent, name = key.split(".")
    (header[parent[0]] if parent else header)[name] = value
    path = _write_checkpoint(tmp_path / "a.ckpt", json.dumps(header).encode(), payload)
    kind = "a number" if key in ("config.gamma", "config.lr") else "an integer"
    for read in (verify_checkpoint, SacAgent.load):
        with pytest.raises(CheckpointError) as info:
            read(path)
        assert str(info.value) == (f"{path} has a malformed header: {key}: "
                                   f"expected {kind}, got bool")


def test_checkpoint_rejects_header_that_is_not_an_object(tmp_path):
    path = _write_checkpoint(tmp_path / "list.ckpt", b"[1, 2]")
    with pytest.raises(CheckpointError, match="header"):
        SacAgent.load(path)


def test_run_tuning_drives_the_agent_through_full_episodes():
    env = SyntheticTuningEnv("ackley")
    agent = tiny_agent(obs_dim=env.observation_dim, act_dim=2)
    episodes = [run_tuning(agent, env, seed) for seed in (1, 2, 3)]
    assert len({id(ep) for ep in episodes}) == 3
    for ep in episodes:
        assert ep.done and len(ep.trials) == env.n_steps
        assert 0.0 <= ep.best_score <= 1.0


def test_agent_suggest_acts_on_the_episode_and_draws_nothing():
    env = SyntheticTuningEnv("ackley")
    agent = tiny_agent(obs_dim=env.observation_dim, act_dim=2)
    obs = env.reset(7)
    rng = np.random.default_rng(3)
    states = rng.bit_generator.state, agent.rng.bit_generator.state
    for _ in range(env.n_steps):
        action = agent.suggest(env.episode, rng)
        assert np.array_equal(action, agent.act(obs))
        obs = env.step(action)[0]
    assert (rng.bit_generator.state, agent.rng.bit_generator.state) == states


@pytest.mark.parametrize("eval_every, saved_at", [(8, [8, 16]), (0, [16])])
def test_train_agent_saves_once_per_env_step_count(tmp_path, monkeypatch, eval_every,
                                                   saved_at):
    steps = []
    real_save = SacAgent.save

    def counting_save(agent, path):
        steps.append(agent.env_steps)
        real_save(agent, path)

    monkeypatch.setattr(SacAgent, "save", counting_save)
    env = SyntheticTuningEnv("himmelblau")
    cfg = SacConfig(obs_dim=env.observation_dim, act_dim=2, hidden=(8,), batch_size=4,
                    replay_capacity=64, start_steps=8)
    train_agent(SacAgent(cfg, seed=1), VectorEnv([env, SyntheticTuningEnv("himmelblau")]),
                ReplayBuffer(64, cfg.obs_dim, cfg.act_dim), tmp_path, total_env_steps=16,
                seed=2, log_every=0, eval_env=SyntheticTuningEnv("himmelblau", mode="test"),
                eval_seeds=[5], eval_every=eval_every)
    assert steps == saved_at
    assert SacAgent.load(tmp_path / "agent.ckpt").env_steps == 16


def test_train_agent_smoke(tmp_path, capsys):
    env = SyntheticTuningEnv("himmelblau")
    cfg = SacConfig(obs_dim=env.observation_dim, act_dim=2, hidden=(16, 16),
                    batch_size=16, replay_capacity=512, start_steps=32)
    agent = SacAgent(cfg, seed=22)
    vec = VectorEnv([SyntheticTuningEnv("himmelblau") for _ in range(2)])
    buffer = ReplayBuffer(cfg.replay_capacity, cfg.obs_dim, cfg.act_dim)
    assert train_agent(agent, vec, buffer, tmp_path, total_env_steps=120, seed=23,
                       log_every=40, eval_env=SyntheticTuningEnv("himmelblau", mode="test"),
                       eval_seeds=[5], eval_every=60) is None
    assert agent.env_steps >= 120
    assert agent.grad_steps > 0
    with open(tmp_path / "train_log.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["env_steps"]) for row in rows] == [40, 80, 120]
    assert all(float(row["alpha"]) > 0.0 for row in rows)
    evaluations = [re.fullmatch(r"\[eval\] (\d+)/120 env steps: mean best (\S+) "
                                r"improvement (\S+)", line)
                   for line in capsys.readouterr().err.splitlines()
                   if line.startswith("[eval] ")]
    assert [int(match[1]) for match in evaluations] == [60, 120]
    for match in evaluations:
        assert 0.0 <= float(match[2]) <= 1.0
        assert math.isfinite(float(match[3]))
    reloaded = SacAgent.load(tmp_path / "agent.ckpt")
    assert (reloaded.env_steps, reloaded.grad_steps) == (agent.env_steps, agent.grad_steps)


def test_train_agent_always_writes_its_log_and_checkpoint(tmp_path, capsys):
    env = SyntheticTuningEnv("himmelblau")
    cfg = SacConfig(obs_dim=env.observation_dim, act_dim=2, hidden=(8,),
                    batch_size=8, replay_capacity=64, start_steps=8)
    agent = SacAgent(cfg, seed=24)
    vec = VectorEnv([SyntheticTuningEnv("himmelblau") for _ in range(2)])
    buffer = ReplayBuffer(cfg.replay_capacity, cfg.obs_dim, cfg.act_dim)
    train_agent(agent, vec, buffer, tmp_path, total_env_steps=20, seed=25,
                log_every=0, eval_every=0)
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["agent.ckpt", "train_log.csv"]
    with open(tmp_path / "train_log.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [list(LOG_COLUMNS)]
    reloaded = SacAgent.load(tmp_path / "agent.ckpt")
    assert agent.grad_steps > 0
    assert (reloaded.env_steps, reloaded.grad_steps) == (agent.env_steps, agent.grad_steps)


def test_train_log_rows_are_on_disk_when_training_crashes(tmp_path):
    env = SyntheticTuningEnv("himmelblau")
    cfg = SacConfig(obs_dim=env.observation_dim, act_dim=2, hidden=(8,),
                    batch_size=16, replay_capacity=256, start_steps=16)
    agent = SacAgent(cfg, seed=26)
    real_update, calls = agent.update, []

    def update(batch):
        calls.append(agent.env_steps)
        if len(calls) == 21:
            raise RuntimeError("crash inside update")
        return real_update(batch)

    agent.update = update
    vec = VectorEnv([SyntheticTuningEnv("himmelblau") for _ in range(2)])
    buffer = ReplayBuffer(cfg.replay_capacity, cfg.obs_dim, cfg.act_dim)
    path = tmp_path / "train_log.csv"
    with pytest.raises(RuntimeError, match="crash"):
        train_agent(agent, vec, buffer, tmp_path, total_env_steps=200, seed=27,
                    log_every=8)
    # Two updates per vector step from 16 env steps on: the 21st is at 36.
    assert calls[-1] == 36
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert tuple(reader.fieldnames) == LOG_COLUMNS and len(LOG_COLUMNS) == 8
    assert [int(row["env_steps"]) for row in rows] == [8, 16, 24, 32]
    assert all(row[key] == "" for key in LOG_COLUMNS[3:] for row in rows[:1])
    assert all(float(row["alpha"]) > 0.0 for row in rows[1:])


def test_train_agent_rejects_dimension_mismatch(tmp_path):
    agent = tiny_agent()
    vec = VectorEnv([SyntheticTuningEnv("ackley")])
    buffer = ReplayBuffer(agent.config.replay_capacity, agent.config.obs_dim,
                          agent.config.act_dim)
    with pytest.raises(ConfigError):
        train_agent(agent, vec, buffer, tmp_path, total_env_steps=10, seed=0)
    assert not list(tmp_path.iterdir())
