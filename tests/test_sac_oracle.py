"""Differential test: the production SAC update against the pre-rewrite
oracle.

With float64 networks (``float64_nets``), from the same config, seed and
batches, both agents must hold bit-identical weights, target weights and
Adam moments after every update, with equal Adam step counts, rng states and
``repr``-equal statistics.  The agent stores each network and moment buffer
as one piece and the oracle per layer, so they are compared by group: a
network, ``log_alpha``, or one optimizer's first or second moments.  That
leaves the dtype as the only numeric change of float32 training, and the
last test measures how far that moves it.
"""
import numpy as np
import pytest

from schedtune import nn
from schedtune.agent import SacAgent, SacConfig
from tests.conftest import training_state
from tests.sac_oracle import OracleSac

UPDATES = 25


def group_of(name):
    """``policy`` for the agent's ``policy`` and the oracle's ``policy.w0``;
    ``opt_critic.m`` for the agent's ``opt_critic.m1`` and the oracle's
    ``opt_critic.m5``."""
    head, _, tail = name.partition(".")
    return f"{head}.{tail[0]}" if head.startswith("opt_") else head


def grouped(arrays):
    """Each group's arrays, in their order, by group in order of first
    appearance."""
    groups = {}
    for name, a in arrays:
        groups.setdefault(group_of(name), []).append(a)
    return groups


def assert_same_state(agent, oracle, step):
    mine, theirs = grouped(training_state(agent)), grouped(oracle._named_arrays())
    assert list(mine) == list(theirs)
    for name in mine:
        a, b = (np.concatenate([x.ravel() for x in g[name]]) for g in (mine, theirs))
        assert a.shape == b.shape and np.array_equal(a, b), (step, name)
    for name in ("opt_policy", "opt_critic", "opt_alpha"):
        assert agent.grad_steps == getattr(oracle, name).t, (step, name)
    assert agent.rng.bit_generator.state == oracle.rng.bit_generator.state
    assert agent.grad_steps == oracle.grad_steps


def batches(seed, obs_dim, act_dim, n=16, obs_scale=1.0):
    data = np.random.default_rng(seed + 100)
    while True:
        yield (data.normal(0.0, obs_scale, (n, obs_dim)),
               np.tanh(data.normal(0.0, 1.5, (n, act_dim))),
               data.uniform(0.0, 1.0, n),
               data.normal(0.0, obs_scale, (n, obs_dim)),
               (data.uniform(0.0, 1.0, n) < 0.2).astype(float))


CASES = [((32, 32, 32), 5, 3, 0), ((24,), 4, 8, 1), ((32, 32, 32), 5, 3, 2)]


# The last case shrinks Adam's and Polyak's chunk so that every buffer
# spans several chunks and a partial last one, as default-size ones do.
@pytest.mark.usefixtures("float64_nets")
@pytest.mark.parametrize("hidden, obs_dim, act_dim, seed, chunk", [
    case + (chunk,) for case, chunk in zip(CASES, (nn.CHUNK, nn.CHUNK, 97))])
def test_updates_match_the_oracle_bit_for_bit(hidden, obs_dim, act_dim, seed,
                                             chunk, monkeypatch):
    monkeypatch.setattr(nn, "CHUNK", chunk)
    cfg = SacConfig(obs_dim=obs_dim, act_dim=act_dim, hidden=hidden,
                    batch_size=16, replay_capacity=64, start_steps=0)
    agent, oracle = SacAgent(cfg, seed=seed), OracleSac(cfg, seed=seed)
    assert_same_state(agent, oracle, 0)
    data = batches(seed, obs_dim, act_dim)
    for step in range(1, UPDATES + 1):
        batch = next(data)
        stats = agent.update(batch)
        expected = oracle.update(batch)
        assert repr(stats) == repr(expected), step
        assert_same_state(agent, oracle, step)


class Float32Noise:
    """The oracle's rng: it hands out the float32 normals that the float32
    agent draws from the same stream, widened, so both see one noise."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, shape):
        return self.rng.standard_normal(shape, dtype=np.float32).astype(float)


def drift_gap(agent, oracle, start, net):
    """How far the float32 network is from the oracle's, as a share of how
    far the oracle's has moved from the shared initial weights."""
    mine, theirs, init = (np.concatenate(
        [a.ravel() for name, a in arrays if name.split(".")[0] == net]).astype(float)
        for arrays in (training_state(agent), oracle._named_arrays(), start))
    return float(np.linalg.norm(mine - theirs) / np.linalg.norm(theirs - init))


# The bound is twice the worst gap measured over the three cases, both
# observation scales and 25 updates (numpy 2.4 with OpenBLAS on x86-64), so
# that another BLAS's summation order does not trip it: policy, q1 and q2
# read at most 4.9e-5, float32 rounding carried through Adam.  At scale 1.0
# some tanh actions saturate (|u| up to about 9); the gap stays as small
# only because the agent works out 1 - tanh(u)**2 in float64 (in float32 it
# read 0.172 there).  The targets are left out: each update moves them by
# tau times the critics' drift, a few float32 spacings of the weights, so
# their share measures rounding, not tracking.
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("obs_scale", [0.1, 1.0])
def test_float32_updates_track_the_float64_oracle(case, obs_scale):
    hidden, obs_dim, act_dim, seed = case
    cfg = SacConfig(obs_dim=obs_dim, act_dim=act_dim, hidden=hidden,
                    batch_size=16, replay_capacity=64, start_steps=0)
    agent, oracle = SacAgent(cfg, seed=seed), OracleSac(cfg, seed=seed)
    assert agent.policy.flat.dtype == np.float32
    # The oracle starts from the float32 weights, widened: each group's
    # pieces are written back into its per-layer arrays in order.
    theirs = grouped(oracle._named_arrays())
    for name, pieces in grouped(training_state(agent)).items():
        flat = np.concatenate(pieces)
        for b in theirs[name]:
            b[...] = flat[:b.size].reshape(b.shape)
            flat = flat[b.size:]
        assert flat.size == 0, name
    start = [(name, a.copy()) for name, a in oracle._named_arrays()]
    oracle.rng = Float32Noise(oracle.rng)
    data = batches(seed, obs_dim, act_dim, obs_scale=obs_scale)
    worst = 0.0
    for _ in range(UPDATES):
        batch = next(data)
        agent.update(batch)
        oracle.update(batch)
        worst = max([worst] + [drift_gap(agent, oracle, start, net)
                               for net in ("policy", "q1", "q2")])
    assert worst <= 1e-4
