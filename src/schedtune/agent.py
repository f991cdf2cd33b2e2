"""Soft actor-critic over the tuning environments.

The policy is a tanh-squashed diagonal Gaussian and the twin critics take
tanh-space actions in (-1, 1); the environment boundary maps actions to the
unit box via (a + 1) / 2.  Temperature is learned against the target
entropy -|A|, the negated action dimension (Haarnoja et al., arXiv:1812.05905).
All learning math is explicit numpy; gradients flow through the critics'
action inputs for the actor update, so no autodiff framework is needed.
An update's work comes in pairs that do not depend on each other: the
next-state and the actor's policy forwards, then the twin critics' halves
from the target forwards to the Polyak updates, then each policy layer's
parameter and input gradients and the two halves of the policy's Adam step.
Each pair goes through :func:`nn.both`, which runs its halves on two cores
where BLAS runs one thread per call (:func:`nn.helper_thread`).  Either way
every float operation and every random draw is the same, in the same order.
:func:`train_agent` writes the training log and the checkpoint into one
output directory.  A checkpoint holds the policy's parameters alone, all
that a command reads: ``eval`` acts with the mean action, and
``train-agent`` always starts fresh.  :meth:`SacAgent.suggest` lets
:func:`optimizers.run_tuning` drive a trained agent as it drives a baseline.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import operator
import os
import struct
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data import unique_keys
from .errors import CheckpointError, ConfigError, writing
from .nn import Adam, Mlp, both, helper_thread, polyak_update
from .optimizers import run_tuning
from .tunenv import TuningEnv, TuningEpisode, VectorEnv

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
SQUASH_EPS = 1e-6
LOG_2PI = float(np.log(2.0 * np.pi))

CHECKPOINT_MAGIC = b"STCK"
CHECKPOINT_VERSION = 7


@dataclass(frozen=True)
class SacConfig:
    obs_dim: int
    act_dim: int
    hidden: tuple[int, ...] = (512, 512, 512)
    gamma: float = 0.99
    tau: float = 0.005
    lr: float = 3e-4
    batch_size: int = 256
    replay_capacity: int = 100_000
    start_steps: int = 1000

    def __post_init__(self):
        # Integers, not floats that equal them: the sizes shape arrays.
        for name in ("obs_dim", "act_dim"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "hidden", tuple(operator.index(h) for h in self.hidden))
        for name in ("obs_dim", "act_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be a positive integer")
        for i, h in enumerate(self.hidden):
            if h < 1:
                raise ConfigError(f"hidden[{i}]: expected a positive integer")
        for name in ("gamma", "tau"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name}: must lie in [0, 1]")
        if self.replay_capacity < self.batch_size:
            raise ConfigError(f"replay_capacity: must hold at least one batch of "
                              f"{self.batch_size}, got {self.replay_capacity}")
        # Written so that NaN fails too; the bound also stops an int past float range.
        if not 0.0 < self.lr <= sys.float_info.max:
            raise ConfigError(f"lr: must be a positive finite number, got {self.lr!r}")
        if self.start_steps < 0:
            raise ConfigError("start_steps: must not be negative")

    @property
    def policy_sizes(self) -> tuple[int, ...]:
        return (self.obs_dim,) + self.hidden + (2 * self.act_dim,)

    @property
    def critic_sizes(self) -> tuple[int, ...]:
        return (self.obs_dim + self.act_dim,) + self.hidden + (1,)


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions, stored in ``nn.DTYPE``.
    A capacity the system refuses to allocate is a ``ConfigError``."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        self.capacity = capacity
        try:
            self.obs = np.zeros((capacity, obs_dim), nn.DTYPE)
            self.act = np.zeros((capacity, act_dim), nn.DTYPE)
            self.rew = np.zeros(capacity, nn.DTYPE)
            self.next_obs = np.zeros((capacity, obs_dim), nn.DTYPE)
            self.done = np.zeros(capacity, nn.DTYPE)
        except (MemoryError, ValueError) as exc:   # refused, or past numpy's size limit
            nbytes = capacity * (2 * obs_dim + act_dim + 2) * np.dtype(nn.DTYPE).itemsize
            raise ConfigError(f"replay_capacity: cannot allocate a {nbytes}-byte "
                              f"replay buffer") from exc
        self.idx = 0
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def add(self, obs, act, rew, next_obs, done) -> None:
        i = self.idx
        self.obs[i] = obs
        self.act[i] = act
        self.rew[i] = rew
        self.next_obs[i] = next_obs
        self.done[i] = float(done)
        self.idx = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        if self.size < 1:
            raise ConfigError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        return (self.obs[idx], self.act[idx], self.rew[idx],
                self.next_obs[idx], self.done[idx])


def env_action(tanh_action: np.ndarray) -> np.ndarray:
    """Map tanh-space actions in (-1, 1) to the environment's unit box."""
    return (np.asarray(tanh_action, dtype=float) + 1.0) / 2.0


def tanh_slope(u: np.ndarray) -> np.ndarray:
    """1 - tanh(u)**2 in u's dtype, via float64: float32 cancels past |u| ~ 4."""
    return (1.0 - np.tanh(u.astype(np.float64))**2).astype(u.dtype)


def _squash(mean: np.ndarray, log_std: np.ndarray, eps: np.ndarray):
    """The draw ``u = mean + std * eps`` through tanh: ``std``, the action
    ``tanh(u)``, its slope ``1 - tanh(u)**2`` and its log-probability,
    summed over the action dimensions."""
    std = np.exp(log_std)
    u = mean + std * eps
    slope = tanh_slope(u)
    logp = (-0.5 * eps**2 - log_std - 0.5 * LOG_2PI).sum(axis=1)
    logp -= np.log(slope + SQUASH_EPS).sum(axis=1)
    return std, np.tanh(u), slope, logp


class SacAgent:
    """Every float the agent keeps is a view of one zero-filled
    ``nn.arena``, ``self.arena``, in ``nn.DTYPE``: the five networks'
    parameters, ``log_alpha``, each optimizer's first moments and then its
    second, one per parameter buffer (``opt_critic``'s 0 is q1, its 1 is
    q2), and last the trained three's gradients.  A checkpoint stores the
    policy's parameters alone, so an agent :meth:`load` builds keeps only
    those: it acts and saves, but cannot update."""

    def __init__(self, config: SacConfig, seed: int = 0):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.env_steps = 0
        self.grad_steps = 0
        policy_sizes, critic_sizes = config.policy_sizes, config.critic_sizes
        n_pi, n_q = Mlp.param_count(policy_sizes), Mlp.param_count(critic_sizes)
        # The target networks never run backward, so keep no gradients.
        self.arena, pieces = nn.arena([n_pi] + [n_q] * 4 + [1] + [n_pi] * 2 + [n_q] * 4
                                      + [1] * 2 + [n_pi, n_q, n_q])
        params, moments, grads = pieces[:6], pieces[6:14], pieces[14:]
        self.dtype = self.arena.dtype
        self.policy, self.q1, self.q2, self.q1_target, self.q2_target = (
            Mlp(*args) for args in zip([policy_sizes] + [critic_sizes] * 4,
                                       [self.rng] * 3 + [None] * 2, params, grads + [None] * 2))
        # The policy's parameters again, for the next-state forward: its
        # cache of its own leaves the policy's for the actor's backward.
        self.next_policy = Mlp(policy_sizes, None, self.policy.flat, None)
        self.q1_target.flat[:] = self.q1.flat
        self.q2_target.flat[:] = self.q2.flat
        self.log_alpha = params[5]
        self.opt_policy = Adam([self.policy.flat], moments[0:1], moments[1:2], config.lr)
        self.opt_critic = Adam([self.q1.flat, self.q2.flat], moments[2:4], moments[4:6],
                               config.lr)
        self.opt_alpha = Adam([self.log_alpha], moments[6:7], moments[7:8], config.lr)

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    # -- policy heads ----------------------------------------------------
    def _heads(self, obs: np.ndarray, policy: Mlp | None = None):
        """Mean, raw and clipped log-std heads of ``policy``, by default
        ``self.policy``; ``forward`` casts ``obs`` to 2-D ``dtype``."""
        out = (policy or self.policy).forward(obs)
        mean = out[:, : self.config.act_dim]
        raw = out[:, self.config.act_dim:]
        log_std = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
        return mean, raw, log_std

    def sample_action(self, obs: np.ndarray):
        """Tanh-space actions and their log-probabilities for a batch; noise from ``self.rng``."""
        mean, _, log_std = self._heads(obs)
        eps = self.rng.standard_normal(mean.shape, dtype=self.dtype)
        _, a, _, logp = _squash(mean, log_std, eps)
        return a, logp

    def act(self, obs: np.ndarray) -> np.ndarray:
        """The policy's mean action for one observation, in the unit box; it draws no noise."""
        mean, _, _ = self._heads(obs)
        return env_action(np.tanh(mean)[0])

    def suggest(self, episode: TuningEpisode, rng: np.random.Generator) -> np.ndarray:
        """The mean action on ``episode.observation()``; it draws no random number."""
        return self.act(episode.observation())

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """Sampled tanh-space actions for a batch of observations."""
        return self.sample_action(obs)[0]

    # -- gradient computations ---------------------------------------------
    def critic_targets(self, rew, next_obs, done, next_a, next_logp) -> np.ndarray:
        """Entropy-regularized TD targets from the frozen twin critics, for
        the policy's sampled next actions and their log-probabilities."""
        next_in = np.concatenate([next_obs, next_a], axis=1)
        qt = np.minimum(*both(lambda: self.q1_target.forward(next_in)[:, 0],
                              lambda: self.q2_target.forward(next_in)[:, 0]))
        return rew + self.config.gamma * (1.0 - done) * (qt - self.alpha * next_logp)

    def critic_gradients(self, obs, act, target) -> float:
        """Write gradients of the summed twin MSE losses; return loss."""
        n = len(obs)
        critic_in = np.concatenate([obs, act], axis=1)

        def fit(q: Mlp) -> np.ndarray:
            pred = q.forward(critic_in)[:, 0]
            q.backward((2.0 * (pred - target) / n)[:, None])
            return pred

        q1_pred, q2_pred = both(lambda: fit(self.q1), lambda: fit(self.q2))
        return float(np.mean((q1_pred - target) ** 2)
                     + np.mean((q2_pred - target) ** 2))

    def actor_gradients(self, obs, heads, eps) -> tuple[float, np.ndarray]:
        """Write policy gradients of mean(alpha * logp - min_q).

        ``heads`` is :meth:`_heads` of ``obs``, whose forward pass the
        policy's backward reads, and ``eps`` the fixed reparameterization
        noise.  Gradients reach the policy directly through the entropy
        terms and through the critics' action inputs; the critics' backward
        passes are input-only, so their gradient buffers are left as they
        were.
        """
        n = len(obs)
        alpha = self.alpha
        mean, raw, log_std = heads
        std, a_new, one_minus_sq, logp = _squash(mean, log_std, eps)

        actor_in = np.concatenate([obs, a_new], axis=1)
        q1_new, q2_new = both(lambda: self.q1.forward(actor_in)[:, 0],
                              lambda: self.q2.forward(actor_in)[:, 0])
        use_q1 = (q1_new <= q2_new).astype(self.dtype)
        q_min = np.where(use_q1 > 0, q1_new, q2_new)
        gin1, gin2 = both(
            lambda: self.q1.backward((-use_q1 / n)[:, None], input_only=True),
            lambda: self.q2.backward((-(1.0 - use_q1) / n)[:, None], input_only=True))
        # d(loss)/d(action), already scaled by -1/n through the output grads.
        dq_da = (gin1 + gin2)[:, self.config.obs_dim:]

        squash_grad = 2.0 * a_new * one_minus_sq / (one_minus_sq + SQUASH_EPS)
        d_u = (alpha / n) * squash_grad + dq_da * one_minus_sq
        d_mean = d_u
        d_log_std = -(alpha / n) * np.ones_like(log_std) + d_u * std * eps
        clamp_mask = (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)
        d_raw = d_log_std * clamp_mask
        grad_out = np.concatenate([d_mean, d_raw], axis=1)
        self.policy.backward(grad_out)
        loss = float(np.mean(alpha * logp - q_min))
        return loss, logp

    # -- one gradient step -----------------------------------------------
    def update(self, batch) -> dict:
        if self.policy.grad_flat is None:
            raise CheckpointError("cannot update a loaded agent: it keeps only its policy")
        obs, act, rew, next_obs, done = (np.asarray(a, self.dtype) for a in batch)
        cfg = self.config
        self.grad_steps += 1   # the step number all three optimizers take
        # The next-state noise, then the actor's, in the order SAC uses them.
        next_eps, eps = (self.rng.standard_normal((len(obs), cfg.act_dim), dtype=self.dtype)
                         for _ in range(2))

        def next_sample():
            mean, _, log_std = self._heads(next_obs, self.next_policy)
            _, next_a, _, next_logp = _squash(mean, log_std, next_eps)
            return next_a, next_logp

        with helper_thread():   # joined before the temperature's Adam step
            # The policy changes only in its Adam step, so both of its
            # forwards can run first.
            next_a_logp, heads = both(next_sample, lambda: self._heads(obs))
            target = self.critic_targets(rew, next_obs, done, *next_a_logp)
            critic_loss = self.critic_gradients(obs, act, target)
            self.opt_critic.step([self.q1.grad_flat, self.q2.grad_flat], self.grad_steps)
            # The targets move now: the next update is the first to read them.
            both(lambda: polyak_update(self.q1_target, self.q1, cfg.tau),
                 lambda: polyak_update(self.q2_target, self.q2, cfg.tau))
            actor_loss, logp = self.actor_gradients(obs, heads, eps)
            self.opt_policy.step([self.policy.grad_flat], self.grad_steps)

        # Temperature: loss -log_alpha * mean(logp + target entropy -act_dim).
        entropy_gap = float(np.mean(logp) - cfg.act_dim)
        self.opt_alpha.step([np.array([-entropy_gap], self.dtype)], self.grad_steps)
        alpha_loss = float(-self.log_alpha[0] * entropy_gap)
        return {
            "critic_loss": critic_loss,
            "actor_loss": actor_loss,
            "alpha_loss": alpha_loss,
            "alpha": self.alpha,
            "entropy": float(-np.mean(logp)),
        }

    # -- persistence -------------------------------------------------------
    def _named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """The pieces a checkpoint stores, by name: the policy's parameters
        alone, on a trained agent and on a loaded one alike."""
        return [("policy", self.policy.flat)]

    def save(self, path) -> None:
        """Write the header, then the policy's little-endian bytes in the
        networks' dtype.  The header carries their digest, so one pass hashes
        them before a second writes them; neither copies them on a
        little-endian host.  The bytes go to a temporary file beside ``path``
        that then replaces it, so a write that fails leaves the previous
        checkpoint as it was.  A loaded agent saves the bytes it was loaded
        from."""
        dtype = self.dtype.newbyteorder("<")
        policy = np.ascontiguousarray(self.policy.flat, dtype=dtype)
        header = {
            "config": asdict(self.config),
            "env_steps": self.env_steps,
            "grad_steps": self.grad_steps,
            "dtype": dtype.str,
            "policy_sha256": hashlib.sha256(policy).hexdigest(),
        }
        blob = json.dumps(header, sort_keys=True).encode()
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(CHECKPOINT_MAGIC)
                fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)))
                fh.write(blob)
                fh.write(policy)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> "SacAgent":
        """Read a checkpoint written by :meth:`save`.

        :func:`_read_checkpoint` checks the whole header before anything is
        allocated.  The policy's bytes then go into an arena of their own
        and are checked against their digest.  The agent acts as the saved
        one does and can save again, but keeps no critics, targets,
        gradients or optimizers, so it cannot ``update``.  Its rng starts
        from seed 0.
        """
        agent = cls.__new__(cls)

        def into(n):
            agent.arena, (flat,) = nn.arena([n])
            return flat

        agent.config, (agent.env_steps, agent.grad_steps), flat = _read_checkpoint(path, into)
        agent.rng, agent.dtype = np.random.default_rng(0), agent.arena.dtype
        agent.policy = Mlp(agent.config.policy_sizes, None, flat, None)
        return agent


def verify_checkpoint(path) -> None:
    """Check every byte of the checkpoint at ``path`` as :meth:`SacAgent.load`
    does, but build no agent: the policy passes through a scratch buffer."""
    _read_checkpoint(path, lambda n: np.empty(n, nn.DTYPE))


def _read_checkpoint(path, into):
    """Read the checkpoint at ``path``.  First check its whole header, reading
    no payload byte: its keys (only the five ``save`` writes, each once: any
    other is state this build would drop), its step counts (not negative),
    the dtype against ``nn.DTYPE``, the digest (a string) and the payload
    length, which the config implies, against the file size.  Then read the
    policy's ``n`` numbers into ``into(n)`` and check them against the digest.
    Return the config, ``[env_steps, grad_steps]`` and the filled array."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if len(head) < 16 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path} is not an agent checkpoint")
        version, header_len = struct.unpack("<IQ", head[4:])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}, "
                                  f"expected {CHECKPOINT_VERSION}")
        if size < 16 + header_len:
            raise CheckpointError(f"{path} is truncated inside the header")
        try:
            header = json.loads(fh.read(header_len).decode(),
                                object_pairs_hook=unique_keys)
        # Not UTF-8, not JSON, a repeated key, or an integer past
        # Python's digit limit.
        except ValueError as exc:
            raise CheckpointError(f"{path} has a corrupt header: {exc}") from exc
        try:
            config = SacConfig(**header["config"])
            counters = [operator.index(header[key]) for key in ("env_steps", "grad_steps")]
            if min(counters) < 0:
                raise ValueError("negative step count: env_steps {}, grad_steps {}"
                                 .format(*counters))
            dtype = header["dtype"]
            if not isinstance(digest := header["policy_sha256"], str):
                raise TypeError(f"policy_sha256 is {type(digest).__name__}, not a string")
            if extra := sorted(header.keys() - {"config", "env_steps", "grad_steps", "dtype",
                                                "policy_sha256"}):
                raise ValueError(f"unknown key {extra[0]!r}")
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise CheckpointError(
                f"{path} has a malformed header: {type(exc).__name__} {exc}") from exc
        if dtype != (want := np.dtype(nn.DTYPE).newbyteorder("<").str):
            raise CheckpointError(f"{path} holds {dtype!r} arrays, this build reads {want!r}")

        n = Mlp.param_count(config.policy_sizes)
        payload = size - 16 - header_len
        expected = np.dtype(nn.DTYPE).itemsize * n
        if payload != expected:
            raise CheckpointError(f"{path} payload is {payload} bytes, expected {expected}")
        dst = into(n)
        if fh.readinto(dst) != dst.nbytes:
            raise CheckpointError(f"{path} is truncated inside the payload")
    if hashlib.sha256(dst).hexdigest() != digest:
        raise CheckpointError(f"{path}: policy does not match its digest")
    if sys.byteorder == "big":
        dst.byteswap(inplace=True)
    return config, counters, dst


LOG_COLUMNS = ("env_steps", "episodes", "mean_terminal_reward", "critic_loss",
               "actor_loss", "alpha_loss", "alpha", "entropy")


def _write_log_row(path, mode: str, row) -> None:
    """Write one CSV row and close the file, so the row is on disk."""
    with writing(path), open(path, mode, newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(row)


def train_agent(agent: SacAgent, vec_env: VectorEnv, buffer: ReplayBuffer, out_dir: Path,
                total_env_steps: int, seed: int, log_every: int = 500,
                eval_env: TuningEnv | None = None, eval_seeds=(),
                eval_every: int = 0) -> None:
    """Standard off-policy loop: uniform warm-up actions until
    ``start_steps``, then one gradient step per environment step, with the
    transitions in ``buffer``.  It writes ``out_dir/train_log.csv``, a
    header and then a row every ``log_every`` environment steps, each with
    a ``[train]`` stderr line (env steps, elapsed seconds, env steps and
    gradient steps per second, and the row's mean terminal reward).  Every
    ``eval_every`` steps the agent tunes ``eval_seeds`` in ``eval_env``,
    prints an ``[eval]`` stderr line (mean best score and improvement) and
    saves ``out_dir/agent.ckpt``, then once more at the end if unsaved."""
    cfg = agent.config
    if vec_env.observation_dim != cfg.obs_dim or vec_env.action_dim != cfg.act_dim:
        raise ConfigError("agent and environment dimensions differ")
    rng = np.random.default_rng(seed)
    k = vec_env.num_envs
    obs = vec_env.reset([int(rng.integers(2**63 - 1)) for _ in range(k)])
    terminal_rewards: list[float] = []
    stats: dict = {}
    next_log = log_every
    next_eval = eval_every
    saved_at = None
    log_path, checkpoint_path = out_dir / "train_log.csv", out_dir / "agent.ckpt"
    _write_log_row(log_path, "w", LOG_COLUMNS)
    start, first_step, first_update = time.perf_counter(), agent.env_steps, agent.grad_steps

    def save():
        with writing(checkpoint_path):
            agent.save(checkpoint_path)

    while agent.env_steps < total_env_steps:
        if agent.env_steps < cfg.start_steps:
            actions = rng.uniform(-1.0, 1.0, size=(k, cfg.act_dim))
        else:
            actions = agent.act_batch(obs)
        next_obs, rewards, dones, infos = vec_env.step(env_action(actions))
        for i in range(k):
            true_next = infos[i].get("terminal_observation", next_obs[i])
            buffer.add(obs[i], actions[i], rewards[i], true_next, dones[i])
            if dones[i]:
                terminal_rewards.append(float(rewards[i]))
        obs = next_obs
        agent.env_steps += k

        if agent.env_steps >= cfg.start_steps and len(buffer) >= cfg.batch_size:
            for _ in range(k):
                stats = agent.update(buffer.sample(agent.rng, cfg.batch_size))

        if log_every and agent.env_steps >= next_log:
            next_log += log_every
            recent = terminal_rewards[-50:]
            entry = {"env_steps": agent.env_steps,
                     "episodes": len(terminal_rewards),
                     "mean_terminal_reward":
                         float(np.mean(recent)) if recent else 0.0}
            entry.update(stats)
            _write_log_row(log_path, "a", [entry.get(c, "") for c in LOG_COLUMNS])
            elapsed = time.perf_counter() - start
            print(f"[train] {agent.env_steps}/{total_env_steps} env steps: "
                  f"{elapsed:.2f} s, {(agent.env_steps - first_step) / elapsed:.1f} "
                  f"env steps/s, {(agent.grad_steps - first_update) / elapsed:.1f} "
                  f"updates/s, mean terminal reward "
                  f"{entry['mean_terminal_reward']:+.4f}", file=sys.stderr, flush=True)

        if eval_every and agent.env_steps >= next_eval:
            next_eval += eval_every
            episodes = [run_tuning(agent, eval_env, seed) for seed in eval_seeds]
            print(f"[eval] {agent.env_steps}/{total_env_steps} env steps: "
                  f"mean best {np.mean([e.best_score for e in episodes]):.4f} "
                  f"improvement {np.mean([e.improvement for e in episodes]):+.4f}",
                  file=sys.stderr, flush=True)
            save()
            saved_at = agent.env_steps

    if saved_at != agent.env_steps:
        save()
