"""Sample-efficient weight optimizers for the tuning environments.

Every optimizer proposes points in the unit box [0, 1]^d.  They all see the
same evaluation budget: the environment's reset evaluates the fixed initial
weights (giving r0), then the optimizer supplies one suggestion per step.
``run_tuning`` drives a full episode of any method, the trained agent's
(:meth:`agent.SacAgent.suggest`) included, and returns its TuningEpisode.

The episode is the only history.  An optimizer keeps no state:
``suggest(episode, rng)`` reads the points and scores evaluated so far from
``episode.evaluations()``, the reference pair first, and draws only from
``rng``.  Each baseline is still a class of its own in ``OPTIMIZERS``, so
that a tracer can wrap ``suggest`` on each class and count the suggestions.

The Bayesian optimizer keeps a Gaussian-process surrogate with a squared
exponential kernel over centered scores and suggests the maximizer of an
upper confidence bound over uniform candidates.  The TPE optimizer splits
observations into good and bad fractions, fits per-dimension Parzen windows
(truncated normals on [0, 1]) to each, and suggests the candidate with the
best good-to-bad density ratio.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .tunenv import TuningEnv, TuningEpisode

_SQRT2 = math.sqrt(2.0)

# Surrogate and acquisition of the Bayesian optimizer.
GP_LENGTHSCALE = 0.5
GP_SIGNAL_VAR = 1.0
GP_NOISE_VAR = 1e-6
UCB_BETA = 0.5
BO_CANDIDATES = 2048

# Good-set fraction, candidates per suggestion and Parzen bandwidth floor of
# the TPE optimizer.
TPE_GAMMA = 0.25
TPE_CANDIDATES = 24
TPE_BANDWIDTH_FLOOR = 1e-3


def suggest_random(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=dim)


def se_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared-exponential Gram matrix between row sets a and b."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return GP_SIGNAL_VAR * np.exp(-sq / (2.0 * GP_LENGTHSCALE**2))


def gp_posterior(x_obs: np.ndarray, y_obs: np.ndarray,
                 x_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at query points, via Cholesky solves.

    Scores are centered on their mean before conditioning, so the returned
    mean is relative to that baseline; the acquisition only needs ranking.
    With no observations this degenerates to the prior (zero mean,
    signal variance).
    """
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    y_obs = np.asarray(y_obs, dtype=float).reshape(-1)
    if y_obs.size == 0:
        return np.zeros(len(x_query)), np.full(len(x_query), GP_SIGNAL_VAR)
    x_obs = np.atleast_2d(np.asarray(x_obs, dtype=float))
    if x_obs.shape[0] != y_obs.shape[0]:
        raise ConfigError("x_obs and y_obs must have matching lengths")
    gram = se_kernel(x_obs, x_obs)
    gram[np.diag_indices_from(gram)] += GP_NOISE_VAR
    chol = np.linalg.cholesky(gram)
    centered = y_obs - y_obs.mean()
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, centered))
    cross = se_kernel(x_query, x_obs)
    mean = cross @ alpha
    half = np.linalg.solve(chol, cross.T)
    var = np.maximum(GP_SIGNAL_VAR - (half**2).sum(axis=0), 0.0)
    return mean, var


def suggest_bo(x_obs: np.ndarray, y_obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Maximize mean + beta * std over uniform candidates in the unit box,
    whose dimension is the number of columns of the 2-D ``x_obs``."""
    candidates = rng.uniform(0.0, 1.0, size=(BO_CANDIDATES, x_obs.shape[1]))
    mean, var = gp_posterior(x_obs, y_obs, candidates)
    ucb = mean + UCB_BETA * np.sqrt(var)
    return candidates[int(np.argmax(ucb))]


def _parzen_components(locs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component centers and bandwidths for a 1-D Parzen window on [0, 1].

    Each component's bandwidth is the larger distance to its neighboring
    components; a lone component spans the whole interval.
    """
    mus = np.sort(np.asarray(locs, dtype=float))
    if mus.size == 1:
        sigmas = np.array([1.0])
    else:
        gaps = mus[1:] - mus[:-1]
        sigmas = np.empty(mus.size)
        sigmas[0] = gaps[0]
        sigmas[-1] = gaps[-1]
        np.maximum(gaps[:-1], gaps[1:], out=sigmas[1:-1])
    return mus, np.minimum(np.maximum(sigmas, TPE_BANDWIDTH_FLOOR), 1.0)


def _truncnorm_z(mus: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Probability mass each component keeps inside [0, 1]."""
    scale = sigmas * _SQRT2
    args = np.concatenate([(1.0 - mus) / scale, (0.0 - mus) / scale])
    # numpy has no erf; one pass over Python floats keeps math.erf cheap.
    upper, lower = 0.5 * (1.0 + np.array([math.erf(v) for v in args.tolist()])
                          .reshape(2, -1))
    return np.maximum(upper - lower, 1e-12)


def _parzen_pdf(x: np.ndarray, mus: np.ndarray, sigmas: np.ndarray,
                z: np.ndarray) -> np.ndarray:
    """Mixture density of truncated normals, evaluated inside [0, 1]."""
    diff = (x[:, None] - mus) / sigmas
    dens = np.exp(-0.5 * diff**2) / (sigmas * math.sqrt(2.0 * math.pi))
    return (dens / z).sum(axis=1) / len(mus)


def _parzen_sample(rng: np.random.Generator, mus: np.ndarray, sigmas: np.ndarray,
                   count: int) -> np.ndarray:
    """Rejection-sample the truncated mixture; falls back to clipping."""
    picks = rng.integers(0, len(mus), size=count)
    out = np.empty(count)
    pending = np.arange(count)
    for _ in range(1000):
        draw = rng.normal(mus[picks[pending]], sigmas[picks[pending]])
        ok = (draw >= 0.0) & (draw <= 1.0)
        out[pending[ok]] = draw[ok]
        pending = pending[~ok]
        if pending.size == 0:
            break
    else:
        out[pending] = np.clip(
            rng.normal(mus[picks[pending]], sigmas[picks[pending]]), 0.0, 1.0)
    return out


def suggest_tpe(x_obs: np.ndarray, y_obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Propose the candidate maximizing the good/bad density ratio, in as
    many dimensions as the 2-D ``x_obs`` has columns.

    With no observations the suggestion is uniform.  Otherwise the top
    ceil(gamma * n) observations by score form the good set.  With no bad
    observations the bad density is uniform, so the ratio reduces to the
    good density alone.
    """
    x_obs, y_obs = np.asarray(x_obs, dtype=float), np.asarray(y_obs, dtype=float).reshape(-1)
    n, dim = y_obs.size, x_obs.shape[1]
    if n == 0:
        return suggest_random(rng, dim)
    if x_obs.shape != (n, dim):
        raise ConfigError("x_obs must be an (n, dim) array matching y_obs")
    n_good = math.ceil(TPE_GAMMA * n)
    order = np.argsort(-y_obs, kind="stable")
    good = x_obs[order[:n_good]]
    bad = x_obs[order[n_good:]]

    candidates = np.empty((TPE_CANDIDATES, dim))
    log_ratio = np.zeros(TPE_CANDIDATES)
    for d in range(dim):
        g_mus, g_sig = _parzen_components(good[:, d])
        g_z = _truncnorm_z(g_mus, g_sig)
        col = _parzen_sample(rng, g_mus, g_sig, TPE_CANDIDATES)
        candidates[:, d] = col
        log_ratio += np.log(np.maximum(_parzen_pdf(col, g_mus, g_sig, g_z), 1e-300))
        if len(bad) > 0:
            b_mus, b_sig = _parzen_components(bad[:, d])
            b_z = _truncnorm_z(b_mus, b_sig)
            log_ratio -= np.log(np.maximum(_parzen_pdf(col, b_mus, b_sig, b_z), 1e-300))
    return candidates[int(np.argmax(log_ratio))]


class FixedOptimizer:
    """Repeats the episode's initial weights, the reference point."""

    def suggest(self, episode: TuningEpisode, rng: np.random.Generator) -> np.ndarray:
        return episode.initial_action.copy()


class RandomSearchOptimizer:
    def suggest(self, episode: TuningEpisode, rng: np.random.Generator) -> np.ndarray:
        return suggest_random(rng, len(episode.initial_action))


class BoOptimizer:
    def suggest(self, episode: TuningEpisode, rng: np.random.Generator) -> np.ndarray:
        x, y = episode.evaluations()
        return suggest_bo(x, y, rng)


class TpeOptimizer:
    def suggest(self, episode: TuningEpisode, rng: np.random.Generator) -> np.ndarray:
        x, y = episode.evaluations()
        return suggest_tpe(x, y, rng)


OPTIMIZERS = {
    "fixed": FixedOptimizer,
    "random": RandomSearchOptimizer,
    "bo": BoOptimizer,
    "tpe": TpeOptimizer,
}


def run_tuning(optimizer, env: TuningEnv, seed: int) -> TuningEpisode:
    """One full episode: reset (evaluates the fixed initial weights), then
    one suggestion per environment step.  Total benchmark runs: n_steps + 1.
    """
    rng = np.random.default_rng(seed)
    env.reset(seed)
    for _ in range(env.n_steps):
        env.step(optimizer.suggest(env.episode, rng))
    return env.episode
