"""Differential test: the production SAC update against the pre-rewrite
oracle.

From the same config, seed and batches, both agents must hold bit-identical
weights, target weights and Adam moments after every update, with equal
Adam step counts, rng states and ``repr``-equal statistics.
"""
import numpy as np
import pytest

from schedtune import nn
from schedtune.agent import SacAgent, SacConfig
from tests.sac_oracle import OracleSac

UPDATES = 25


def assert_same_state(agent, oracle, step):
    mine, theirs = agent._named_arrays(), oracle._named_arrays()
    assert [name for name, _ in mine] == [name for name, _ in theirs]
    for (name, a), (_, b) in zip(mine, theirs):
        assert a.shape == b.shape and np.array_equal(a, b), (step, name)
    for name in ("opt_policy", "opt_critic", "opt_alpha"):
        assert getattr(agent, name).t == getattr(oracle, name).t, (step, name)
    assert agent.rng.bit_generator.state == oracle.rng.bit_generator.state
    assert agent.grad_steps == oracle.grad_steps


# The last case shrinks Adam's and Polyak's chunk so that every buffer
# spans several chunks and a partial last one, as default-size ones do.
@pytest.mark.parametrize("hidden, obs_dim, act_dim, seed, chunk", [
    ((32, 32, 32), 5, 3, 0, nn.CHUNK),
    ((24,), 4, 8, 1, nn.CHUNK),
    ((32, 32, 32), 5, 3, 2, 97),
])
def test_updates_match_the_oracle_bit_for_bit(hidden, obs_dim, act_dim, seed,
                                             chunk, monkeypatch):
    monkeypatch.setattr(nn, "CHUNK", chunk)
    cfg = SacConfig(obs_dim=obs_dim, act_dim=act_dim, hidden=hidden,
                    batch_size=16, replay_capacity=64, start_steps=0)
    agent, oracle = SacAgent(cfg, seed=seed), OracleSac(cfg, seed=seed)
    assert_same_state(agent, oracle, 0)
    data = np.random.default_rng(seed + 100)
    n = cfg.batch_size
    for step in range(1, UPDATES + 1):
        batch = (data.normal(0.0, 1.0, (n, obs_dim)),
                 np.tanh(data.normal(0.0, 1.5, (n, act_dim))),
                 data.uniform(0.0, 1.0, n),
                 data.normal(0.0, 1.0, (n, obs_dim)),
                 (data.uniform(0.0, 1.0, n) < 0.2).astype(float))
        stats = agent.update(batch)
        expected = oracle.update(batch)
        assert repr(stats) == repr(expected), step
        assert_same_state(agent, oracle, step)
