"""GP posterior against a dense-solve oracle, TPE density behavior,
suggestion bounds, and the five-evaluation tuning loop."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedtune.errors import ConfigError
from schedtune.optimizers import (
    BO_CANDIDATES,
    GP_LENGTHSCALE,
    GP_NOISE_VAR,
    GP_SIGNAL_VAR,
    OPTIMIZERS,
    TPE_BANDWIDTH_FLOOR,
    UCB_BETA,
    BoOptimizer,
    FixedOptimizer,
    RandomSearchOptimizer,
    TpeOptimizer,
    _parzen_components,
    _parzen_pdf,
    _truncnorm_z,
    gp_posterior,
    run_tuning,
    se_kernel,
    suggest_bo,
    suggest_random,
    suggest_tpe,
)
from schedtune.scheduler import FIXED_WEIGHTS
from schedtune.synthfuncs import synth_space_set
from schedtune.tunenv import TuningEpisode, default_space_set

from test_tunenv import ScriptedEnv, count_evaluations


# -- reference implementations, deliberately written differently -----------

def oracle_posterior(x_obs, y_obs, x_query):
    """Dense-solve GP posterior: no Cholesky, no centering shortcuts."""
    def kern(a, b):
        out = np.empty((len(a), len(b)))
        for i in range(len(a)):
            for j in range(len(b)):
                d2 = float(np.sum((a[i] - b[j]) ** 2))
                out[i, j] = GP_SIGNAL_VAR * math.exp(-d2 / (2.0 * GP_LENGTHSCALE**2))
        return out

    gram = kern(x_obs, x_obs) + GP_NOISE_VAR * np.eye(len(x_obs))
    centered = y_obs - np.mean(y_obs)
    weights = np.linalg.solve(gram, centered)
    cross = kern(x_query, x_obs)
    mean = cross @ weights
    prior = np.array([kern(q[None], q[None])[0, 0] for q in x_query])
    var = prior - np.einsum("qn,nq->q", cross, np.linalg.solve(gram, cross.T))
    return mean, np.maximum(var, 0.0)


def test_gp_posterior_matches_dense_oracle():
    rng = np.random.default_rng(0)
    worst_mean, worst_var = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(1, 13))
        d = int(rng.choice([2, 8]))
        x_obs = rng.uniform(0, 1, (n, d))
        y_obs = rng.uniform(0, 1, n)
        x_query = rng.uniform(0, 1, (20, d))
        mean, var = gp_posterior(x_obs, y_obs, x_query)
        ref_mean, ref_var = oracle_posterior(x_obs, y_obs, x_query)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - ref_mean))))
        worst_var = max(worst_var, float(np.max(np.abs(var - ref_var))))
    assert worst_mean < 1e-8
    assert worst_var < 1e-8


def test_gp_posterior_interpolates_up_to_the_noise():
    # At the observed points the mean misses the centered scores by exactly
    # noise * alpha, where alpha = (K + noise I)^-1 y, and the variance of the
    # latent function stays below the noise.
    rng = np.random.default_rng(1)
    x_obs = rng.uniform(0, 1, (6, 2))
    y_obs = rng.uniform(0, 1, 6)
    mean, var = gp_posterior(x_obs, y_obs, x_obs)
    centered = y_obs - y_obs.mean()
    alpha = np.linalg.solve(se_kernel(x_obs, x_obs) + GP_NOISE_VAR * np.eye(6), centered)
    miss = GP_NOISE_VAR * np.abs(alpha)
    assert np.all(np.abs(mean - centered) <= 1.001 * miss + 1e-12)
    assert np.all(np.abs(mean - centered) >= 0.999 * miss - 1e-12)
    assert np.max(var) <= GP_NOISE_VAR


def test_gp_posterior_prior_with_no_observations():
    mean, var = gp_posterior(np.empty((0, 4)), np.empty(0),
                             np.random.default_rng(0).uniform(0, 1, (7, 4)))
    assert np.array_equal(mean, np.zeros(7))
    assert np.array_equal(var, np.full(7, GP_SIGNAL_VAR))


def test_gp_variance_shrinks_near_observations():
    x_obs = np.array([[0.5, 0.5]])
    y_obs = np.array([0.7])
    queries = np.array([[0.5, 0.5], [0.0, 1.0]])
    _, var = gp_posterior(x_obs, y_obs, queries)
    assert var[0] < var[1] < GP_SIGNAL_VAR + 1e-12


def test_se_kernel_values():
    a = np.array([[0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.5, 0.0]])
    gram = se_kernel(a, b)
    assert gram[0, 0] == GP_SIGNAL_VAR
    assert gram[0, 1] == pytest.approx(
        GP_SIGNAL_VAR * math.exp(-0.25 / (2.0 * GP_LENGTHSCALE**2)), rel=1e-12)


def test_suggest_fixed_matches_default_weights():
    rng = np.random.default_rng(0)
    for space, expected in ((default_space_set(), FIXED_WEIGHTS),
                            (synth_space_set(), [0.5, 0.5])):
        episode = TuningEpisode(r0=0.3, initial_action=space.initial_action.copy(),
                                trials=[(np.full(len(expected), 0.9), 0.8)])
        got = FixedOptimizer().suggest(episode, rng)
        assert np.array_equal(got, expected)
        got[:] = -1.0   # a copy, not the episode's own array
        assert np.array_equal(FixedOptimizer().suggest(episode, rng), expected)


def test_suggest_random_seeded_and_bounded():
    a = suggest_random(np.random.default_rng(4), dim=8)
    b = suggest_random(np.random.default_rng(4), dim=8)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_suggest_bo_without_history_is_uniform_candidate():
    rng = np.random.default_rng(5)
    got = suggest_bo(np.empty((0, 3)), np.empty(0), rng, dim=3)
    # All candidates tie on the prior UCB, so argmax picks the first.
    expected = np.random.default_rng(5).uniform(0, 1, (BO_CANDIDATES, 3))[0]
    assert np.array_equal(got, expected)


def test_suggest_bo_picks_the_oracle_ucb_argmax():
    x_obs = np.array([[0.2, 0.2], [0.7, 0.4], [0.5, 0.9]])
    y_obs = np.array([0.9, 0.3, 0.6])
    got = suggest_bo(x_obs, y_obs, np.random.default_rng(6), dim=2)
    cands = np.random.default_rng(6).uniform(0, 1, (BO_CANDIDATES, 2))
    mean, var = oracle_posterior(x_obs, y_obs, cands)
    ucb = np.sort(mean + UCB_BETA * np.sqrt(var))
    assert ucb[-1] - ucb[-2] > 1e-9   # no near tie for rounding to break
    assert np.array_equal(got, cands[int(np.argmax(mean + UCB_BETA * np.sqrt(var)))])


def test_suggest_bo_prefers_region_around_best_observation():
    # A grid of observations leaves little variance to explore, so the
    # pick lands near the best-scoring corner.
    grid = np.linspace(0.1, 0.9, 5)
    x_obs = np.array([[a, b] for a in grid for b in grid])
    y_obs = -np.linalg.norm(x_obs - 0.9, axis=1)
    got = suggest_bo(x_obs, y_obs, np.random.default_rng(7), dim=2)
    assert np.linalg.norm(got - 0.9) < np.linalg.norm(got - 0.1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 10),
       dim=st.sampled_from([2, 8]))
def test_suggestions_stay_in_unit_box(seed, n, dim):
    rng = np.random.default_rng(seed)
    x_obs = rng.uniform(0, 1, (n, dim))
    y_obs = rng.uniform(0, 1, n)
    for point in (
        suggest_bo(x_obs, y_obs, rng, dim=dim),
        suggest_tpe(x_obs, y_obs, rng, dim=dim),
        suggest_random(rng, dim=dim),
    ):
        assert point.shape == (dim,)
        assert np.all(point >= 0.0) and np.all(point <= 1.0)


def test_parzen_bandwidths_use_larger_neighbor_gap():
    mus, sigmas = _parzen_components(np.array([0.5, 0.1, 0.2]))
    assert np.array_equal(mus, [0.1, 0.2, 0.5])
    assert np.allclose(sigmas, [0.1, 0.3, 0.3])


def test_parzen_lone_component_spans_interval():
    mus, sigmas = _parzen_components(np.array([0.3]))
    assert np.array_equal(mus, [0.3])
    assert np.array_equal(sigmas, [1.0])


def test_parzen_bandwidth_floor_applies_to_duplicates():
    _, sigmas = _parzen_components(np.array([0.4, 0.4]))
    assert np.all(sigmas == TPE_BANDWIDTH_FLOOR)


def test_parzen_pdf_integrates_to_one():
    mus, sigmas = _parzen_components(np.array([0.2, 0.7]))
    z = _truncnorm_z(mus, sigmas)
    grid = np.linspace(0.0, 1.0, 20001)
    pdf = _parzen_pdf(grid, mus, sigmas, z)
    assert np.trapezoid(pdf, grid) == pytest.approx(1.0, abs=1e-4)


def test_tpe_startup_falls_back_to_uniform():
    got = suggest_tpe(np.empty((0, 4)), np.empty(0), np.random.default_rng(8), dim=4)
    expected = suggest_random(np.random.default_rng(8), dim=4)
    assert np.array_equal(got, expected)


def test_tpe_single_observation_good_set_has_one_member():
    x_obs = np.array([[0.5, 0.5]])
    y_obs = np.array([0.7])
    got = suggest_tpe(x_obs, y_obs, np.random.default_rng(9), dim=2)
    assert got.shape == (2,)
    assert np.all(got >= 0.0) and np.all(got <= 1.0)


def test_tpe_concentrates_near_good_observations():
    x_obs = np.array([[0.18], [0.20], [0.22], [0.78], [0.80], [0.82]])
    y_obs = np.array([0.90, 1.00, 0.95, 0.10, 0.20, 0.15])
    for seed in range(10):
        rng = np.random.default_rng(seed)
        points = np.array([suggest_tpe(x_obs, y_obs, rng, dim=1)[0]
                           for _ in range(200)])
        mean = points.mean()
        assert abs(mean - 0.2) < abs(mean - 0.8)


def test_tpe_suggestion_rejects_mismatched_history():
    with pytest.raises(ConfigError):
        suggest_tpe(np.zeros((3, 2)), np.zeros(4), np.random.default_rng(0), dim=2)


def test_optimizers_registry():
    assert OPTIMIZERS == {"fixed": FixedOptimizer, "random": RandomSearchOptimizer,
                          "bo": BoOptimizer, "tpe": TpeOptimizer}
    # A tracer wraps suggest on each class, so each defines its own.
    assert all("suggest" in cls.__dict__ for cls in OPTIMIZERS.values())


def test_run_tuning_spends_exactly_five_evaluations():
    env = ScriptedEnv(0.5, [0.4, 0.7, 0.6, 0.5])
    scores = count_evaluations(env)
    episode = run_tuning(RandomSearchOptimizer(), env, seed=0)
    assert scores == [0.5, 0.4, 0.7, 0.6, 0.5]
    assert len(episode.trials) == 4
    x_hist, y_hist = episode.evaluations()
    assert x_hist.shape == (5, 2)
    assert y_hist[0] == 0.5
    assert episode.best_score == 0.7
    assert episode.improvement == pytest.approx(0.4, abs=1e-12)


def test_run_tuning_optimizer_sees_reference_score_first():
    class Recording(TpeOptimizer):
        def suggest(self, episode, rng):
            seen.append(episode.evaluations())
            return super().suggest(episode, rng)

    seen = []
    env = ScriptedEnv(0.5, [0.4, 0.7, 0.6, 0.5])
    run_tuning(Recording(), env, seed=0)
    assert [len(y) for _, y in seen] == [1, 2, 3, 4]
    x_hist, y_hist = seen[0]
    assert np.array_equal(x_hist[0], env.initial_action)
    assert y_hist[0] == 0.5


def test_fixed_optimizer_repeats_initial_weights():
    class ValueEnv(ScriptedEnv):
        def _begin_episode(self, rng):
            def evaluate(action):
                return 1.0 - float(np.mean(np.abs(np.asarray(action) - 0.3)))
            return self.values, evaluate(self.initial_action), evaluate, "value"

    env = ValueEnv(0.0, [0.0] * 4)
    episode = run_tuning(FixedOptimizer(), env, seed=0)
    assert episode.improvement == 0.0
    assert all(score == episode.r0 for _, score in episode.trials)


def test_fixed_optimizer_tunes_with_the_environment_initial_action():
    env = ScriptedEnv(0.5, [0.4] * 4, initial_action=[0.2, 0.9])
    episode = run_tuning(FixedOptimizer(), env, seed=0)
    assert len(episode.trials) == 4
    assert all(np.array_equal(action, [0.2, 0.9]) for action, _ in episode.trials)


def test_bo_optimizer_locates_smooth_optimum():
    target = np.array([0.7, 0.7])

    def score(a):
        return 1.0 - float(np.sum((a - target) ** 2))

    reference = np.array([0.5, 0.5])
    episode = TuningEpisode(r0=score(reference), initial_action=reference)
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = BoOptimizer().suggest(episode, rng)
        episode.trials.append((a, score(a)))
    assert episode.best_score > 0.98
