"""Landscape values against known minima, score mapping, episode protocol."""
import numpy as np
import pytest

from schedtune.errors import ConfigError
from schedtune.synthfuncs import (
    LANDSCAPES,
    SYNTH_STATIC_NAMES,
    SyntheticTuningEnv,
    landscape_score,
    synth_space_set,
)


@pytest.mark.parametrize("name", sorted(LANDSCAPES))
def test_known_minima_attain_minimum_value(name):
    lscape = LANDSCAPES[name]
    for mx, my in lscape.minima:
        value = float(lscape.fn(np.array([mx]), np.array([my]))[0])
        assert value == pytest.approx(lscape.f_min, abs=1e-3)


def test_exact_minimum_values():
    assert float(LANDSCAPES["himmelblau"].fn(np.array([3.0]), np.array([2.0]))[0]) == 0.0
    assert float(LANDSCAPES["rastrigin"].fn(np.array([0.0]), np.array([0.0]))[0]) == 0.0
    assert float(LANDSCAPES["goldstein_price"].fn(
        np.array([0.0]), np.array([-1.0]))[0]) == pytest.approx(3.0, abs=1e-9)
    assert abs(float(LANDSCAPES["ackley"].fn(
        np.array([0.0]), np.array([0.0]))[0])) < 1e-12


@pytest.mark.parametrize("name", sorted(LANDSCAPES))
def test_grid_argmin_lands_on_known_minimum(name):
    lscape = LANDSCAPES[name]
    n = 801
    axis = np.linspace(lscape.lo, lscape.hi, n)
    spacing = (lscape.hi - lscape.lo) / (n - 1)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    values = lscape.fn(xs, ys)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    best = np.array([axis[i], axis[j]])
    dist = min(np.linalg.norm(best - np.array(m)) for m in lscape.minima)
    assert dist <= spacing * 1.5
    assert values[i, j] <= lscape.f_min + 1.0


@pytest.mark.parametrize("name", sorted(LANDSCAPES))
def test_corner_cap_dominates_minimum(name):
    lscape = LANDSCAPES[name]
    cap = lscape.corner_cap
    assert cap > lscape.f_min
    corners = [(lscape.lo, lscape.lo), (lscape.lo, lscape.hi),
               (lscape.hi, lscape.lo), (lscape.hi, lscape.hi)]
    for x, y in corners:
        assert float(lscape.fn(np.array([x]), np.array([y]))[0]) <= cap


def test_score_mapping_endpoints_and_clipping():
    lscape = LANDSCAPES["himmelblau"]
    cap = lscape.corner_cap
    assert landscape_score(lscape, 0.0) == 1.0
    assert landscape_score(lscape, cap) == 0.0
    assert landscape_score(lscape, 2.0 * cap) == 0.0
    assert landscape_score(lscape, 0.5 * cap) == pytest.approx(0.5)


def test_score_monotone_decreasing_in_function_value():
    lscape = LANDSCAPES["rastrigin"]
    values = np.linspace(0.0, lscape.corner_cap, 50)
    scores = landscape_score(lscape, values)
    assert np.all(np.diff(scores) <= 0.0)


def test_env_observation_layout():
    env = SyntheticTuningEnv("himmelblau")
    assert env.observation_dim == 3 + 5 * 4 + 1 == 24
    obs = env.reset(0)
    assert obs.shape == (24,)
    assert np.all(obs[3:] == 0.0)
    assert np.all((obs[:3] >= 0.0) & (obs[:3] <= 1.0))


def _episode_params(env: SyntheticTuningEnv, obs: np.ndarray):
    """Recover shift fractions and scale from the static features."""
    stat = dict(zip(SYNTH_STATIC_NAMES, obs[:3]))
    shift = np.array([stat["shift_x"], stat["shift_y"]]) * 0.1 - 0.05
    scale = stat["scale"] * 0.2 + 0.9
    return shift, scale


def test_optimum_action_scores_one():
    env = SyntheticTuningEnv("ackley", mode="train")
    obs = env.reset(13)
    shift, _ = _episode_params(env, obs)
    lscape = env.landscape
    # The shifted optimum sits at native coordinate shift * width.
    z_star = (shift * lscape.width - lscape.lo) / lscape.width
    _, _, _, info = env.step(z_star)
    assert info["score"] == pytest.approx(1.0, abs=1e-9)
    assert info["score"] > env.episode.r0


def test_center_action_is_optimal_for_unshifted_ackley():
    env = SyntheticTuningEnv("ackley")
    env.reset(13)
    # Force a zero-shift, unit-scale evaluation through the raw landscape.
    value = float(env.landscape.fn(np.array([0.0]), np.array([0.0]))[0])
    assert landscape_score(env.landscape, value) == pytest.approx(1.0, abs=1e-12)


def test_train_and_test_domains_are_disjoint_halves():
    env_train = SyntheticTuningEnv("rastrigin", mode="train")
    env_test = SyntheticTuningEnv("rastrigin", mode="test")
    for seed in range(30):
        shift_tr, scale_tr = _episode_params(env_train, env_train.reset(seed))
        shift_te, scale_te = _episode_params(env_test, env_test.reset(seed))
        assert np.all(shift_tr <= 1e-9) and np.all(shift_te >= -1e-9)
        assert scale_tr <= 1.0 + 1e-9 and scale_te >= 1.0 - 1e-9


def test_episode_protocol_and_sparse_reward():
    env = SyntheticTuningEnv("schwefel", n_steps=3)
    env.reset(2)
    rewards = []
    for _ in range(3):
        _, reward, done, info = env.step(np.array([0.25, 0.75]))
        rewards.append(reward)
    assert done
    assert rewards[0] == rewards[1] == 0.0
    expected = (env.episode.best_score - env.episode.r0) / max(env.episode.r0, 1e-6)
    assert rewards[2] == pytest.approx(expected, rel=1e-12)


def test_env_deterministic_for_seed():
    a = SyntheticTuningEnv("goldstein_price")
    b = SyntheticTuningEnv("goldstein_price")
    assert np.array_equal(a.reset(7), b.reset(7))
    assert a.episode.r0 == b.episode.r0
    act = np.array([0.6, 0.4])
    assert a.step(act)[3]["score"] == b.step(act)[3]["score"]


def test_identical_actions_score_identically_within_episode():
    env = SyntheticTuningEnv("himmelblau")
    env.reset(3)
    act = np.array([0.31, 0.62])
    s1 = env.step(act)[3]["score"]
    s2 = env.step(act)[3]["score"]
    assert s1 == s2


def test_coarse_mask_hides_all_synthetic_statics():
    env = SyntheticTuningEnv("himmelblau", mask_level="coarse")
    obs = env.reset(0)
    assert np.all(obs[:3] == 0.0)


def test_unknown_landscape_and_mode_raise():
    with pytest.raises(ConfigError):
        SyntheticTuningEnv("rosenbrock")
    with pytest.raises(ConfigError):
        SyntheticTuningEnv("ackley", mode="validation")


def test_synth_space_set_shapes():
    space = synth_space_set()
    assert space.action_names == ("z_x", "z_y")
    assert np.array_equal(space.initial_action, [0.5, 0.5])
    ranges = [space.static_range(name) for name in SYNTH_STATIC_NAMES]
    assert [(v.min, v.max) for v in ranges] == [(-0.05, 0.05), (-0.05, 0.05),
                                                (0.9, 1.1)]
