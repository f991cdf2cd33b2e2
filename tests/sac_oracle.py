"""The SAC update as it stood before the flat-buffer rewrite, kept as a test
oracle.

``Mlp``, ``Adam`` and ``polyak_update`` below are the pre-rewrite networks
verbatim: per-layer weight, bias and gradient arrays, an actor step that
runs the full backward pass through both critics and then clears the critic
gradients, and Adam and Polyak built from whole-array temporaries.
``OracleSac`` is the pre-rewrite ``SacAgent`` update math on top of them.
The differential test in ``test_sac_oracle.py`` requires the production
agent to give bit-identical parameters, Adam moments and update statistics.
Do not optimise this file.
"""
from __future__ import annotations

import numpy as np

from schedtune.agent import LOG_2PI, LOG_STD_MAX, LOG_STD_MIN, SQUASH_EPS
from schedtune.errors import ConfigError


class Mlp:
    def __init__(self, sizes, rng: np.random.Generator):
        sizes = tuple(int(s) for s in sizes)
        self.sizes = sizes
        shapes = list(zip(sizes[:-1], sizes[1:]))
        self.weights = [rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
                        for fan_in, fan_out in shapes]
        self.biases = [np.zeros(fan_out) for _, fan_out in shapes]
        self._alloc_grads()
        self._cache = None

    def _alloc_grads(self) -> None:
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


def polyak_update(target: Mlp, source: Mlp, tau: float) -> None:
    if not 0.0 <= tau <= 1.0:
        raise ConfigError("tau must lie in [0, 1]")
    for dst, src in zip(target.parameters, source.parameters):
        dst *= 1.0 - tau
        dst += tau * src


class Adam:
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


class OracleSac:
    """The pre-rewrite ``SacAgent`` construction and update, for a config
    and seed shared with the agent under test."""

    def __init__(self, config, seed: int = 0):
        self.config = config
        self.rng = np.random.default_rng(seed)
        sizes = (config.obs_dim,) + config.hidden
        self.policy = Mlp(sizes + (2 * config.act_dim,), self.rng)
        critic_sizes = (config.obs_dim + config.act_dim,) + config.hidden + (1,)
        self.q1 = Mlp(critic_sizes, self.rng)
        self.q2 = Mlp(critic_sizes, self.rng)
        self.q1_target = self.q1.clone()
        self.q2_target = self.q2.clone()
        self.log_alpha = np.zeros(1)
        self.opt_policy = Adam(self.policy.parameters, lr=config.lr)
        self.opt_critic = Adam(self.q1.parameters + self.q2.parameters,
                               lr=config.lr)
        self.opt_alpha = Adam([self.log_alpha], lr=config.lr)
        self.grad_steps = 0

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    def _heads(self, obs: np.ndarray):
        out = self.policy.forward(obs)
        mean = out[:, : self.config.act_dim]
        raw = out[:, self.config.act_dim:]
        log_std = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
        return mean, raw, log_std

    def sample_action(self, obs: np.ndarray, deterministic: bool = False,
                      rng: np.random.Generator | None = None):
        rng = self.rng if rng is None else rng
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        mean, _, log_std = self._heads(obs)
        std = np.exp(log_std)
        eps = (np.zeros_like(mean) if deterministic
               else rng.standard_normal(mean.shape))
        u = mean + std * eps
        a = np.tanh(u)
        logp = (-0.5 * eps**2 - log_std - 0.5 * LOG_2PI).sum(axis=1)
        logp -= np.log(1.0 - a**2 + SQUASH_EPS).sum(axis=1)
        return a, logp

    def critic_targets(self, rew, next_obs, done,
                       rng: np.random.Generator | None = None) -> np.ndarray:
        next_a, next_logp = self.sample_action(next_obs, rng=rng)
        next_in = np.concatenate([next_obs, next_a], axis=1)
        qt = np.minimum(self.q1_target.forward(next_in)[:, 0],
                        self.q2_target.forward(next_in)[:, 0])
        return rew + self.config.gamma * (1.0 - done) * (qt - self.alpha * next_logp)

    def critic_gradients(self, obs, act, target) -> float:
        n = len(obs)
        critic_in = np.concatenate([obs, act], axis=1)
        q1_pred = self.q1.forward(critic_in)[:, 0]
        self.q1.zero_grads()
        self.q1.backward((2.0 * (q1_pred - target) / n)[:, None])
        q2_pred = self.q2.forward(critic_in)[:, 0]
        self.q2.zero_grads()
        self.q2.backward((2.0 * (q2_pred - target) / n)[:, None])
        return float(np.mean((q1_pred - target) ** 2)
                     + np.mean((q2_pred - target) ** 2))

    def actor_gradients(self, obs, eps) -> tuple[float, np.ndarray]:
        n = len(obs)
        alpha = self.alpha
        mean, raw, log_std = self._heads(obs)
        std = np.exp(log_std)
        u = mean + std * eps
        a_new = np.tanh(u)
        logp = (-0.5 * eps**2 - log_std - 0.5 * LOG_2PI).sum(axis=1)
        logp -= np.log(1.0 - a_new**2 + SQUASH_EPS).sum(axis=1)

        actor_in = np.concatenate([obs, a_new], axis=1)
        q1_new = self.q1.forward(actor_in)[:, 0]
        q2_new = self.q2.forward(actor_in)[:, 0]
        use_q1 = (q1_new <= q2_new).astype(float)
        q_min = np.where(use_q1 > 0, q1_new, q2_new)
        self.q1.zero_grads()
        self.q2.zero_grads()
        gin1 = self.q1.backward((-use_q1 / n)[:, None])
        gin2 = self.q2.backward((-(1.0 - use_q1) / n)[:, None])
        dq_da = (gin1 + gin2)[:, self.config.obs_dim:]
        self.q1.zero_grads()
        self.q2.zero_grads()

        one_minus_sq = 1.0 - a_new**2
        squash_grad = 2.0 * a_new * one_minus_sq / (one_minus_sq + SQUASH_EPS)
        d_u = (alpha / n) * squash_grad + dq_da * one_minus_sq
        d_mean = d_u
        d_log_std = -(alpha / n) * np.ones_like(log_std) + d_u * std * eps
        clamp_mask = (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)
        d_raw = d_log_std * clamp_mask
        self.policy.zero_grads()
        self.policy.backward(np.concatenate([d_mean, d_raw], axis=1))
        loss = float(np.mean(alpha * logp - q_min))
        return loss, logp

    def update(self, batch) -> dict:
        obs, act, rew, next_obs, done = batch
        cfg = self.config

        target = self.critic_targets(rew, next_obs, done)
        critic_loss = self.critic_gradients(obs, act, target)
        self.opt_critic.step(self.q1.gradients + self.q2.gradients)

        eps = self.rng.standard_normal((len(obs), cfg.act_dim))
        actor_loss, logp = self.actor_gradients(obs, eps)
        self.opt_policy.step(self.policy.gradients)

        entropy_gap = float(np.mean(logp) + -cfg.act_dim)
        self.opt_alpha.step([np.array([-entropy_gap])])
        alpha_loss = float(-self.log_alpha[0] * entropy_gap)

        polyak_update(self.q1_target, self.q1, cfg.tau)
        polyak_update(self.q2_target, self.q2, cfg.tau)
        self.grad_steps += 1
        return {
            "critic_loss": critic_loss,
            "actor_loss": actor_loss,
            "alpha_loss": alpha_loss,
            "alpha": self.alpha,
            "entropy": float(-np.mean(logp)),
        }

    def _named_arrays(self) -> list[tuple[str, np.ndarray]]:
        out: list[tuple[str, np.ndarray]] = []
        nets = (("policy", self.policy), ("q1", self.q1), ("q2", self.q2),
                ("q1_target", self.q1_target), ("q2_target", self.q2_target))
        for name, net in nets:
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                out.append((f"{name}.w{i}", w))
                out.append((f"{name}.b{i}", b))
        out.append(("log_alpha", self.log_alpha))
        opts = (("opt_policy", self.opt_policy), ("opt_critic", self.opt_critic),
                ("opt_alpha", self.opt_alpha))
        for name, opt in opts:
            for i, (m, v) in enumerate(zip(opt.m, opt.v)):
                out.append((f"{name}.m{i}", m))
                out.append((f"{name}.v{i}", v))
        return out
