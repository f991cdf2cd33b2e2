"""Episode protocol, reward shape, observation layout, scenario sampling."""
import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedtune import data
from schedtune.cluster import PRESETS
from schedtune.errors import ConfigError, ProtocolError
from schedtune.scheduler import FIXED_WEIGHTS, SCORING_FUNCTIONS
from schedtune.synthfuncs import SyntheticTuningEnv
from schedtune.tunenv import (
    EPS_REWARD,
    FAAS_COARSE_NAMES,
    FAAS_STATIC_NAMES,
    MASK_LEVELS,
    MODES,
    FaasTuningEnv,
    SpaceSet,
    SpaceVar,
    TRAIN_PRESETS,
    TuningEnv,
    TuningEpisode,
    VectorEnv,
    default_space_set,
    sample_scenario,
)


class ScriptedEnv(TuningEnv):
    """Returns a fixed r0 followed by scripted per-step scores.  Its static
    features ``s0, s1, ...`` have no domain range, so they show as given;
    ``coarse`` names those that survive coarse masking."""

    def __init__(self, r0, scores, n_steps=4, static=(0.5,), mask_level="full",
                 coarse=(), initial_action=(0.5, 0.5)):
        self._script = [float(r0)] + [float(s) for s in scores]
        self.values = {f"s{i}": float(v) for i, v in enumerate(static)}
        space = SpaceSet(domain_train=(), domain_test=(),
                         action_names=tuple(f"a{i}" for i in range(len(initial_action))),
                         initial_action=np.array(initial_action),
                         static_names=tuple(self.values), coarse_names=coarse)
        super().__init__(space, "train", n_steps, mask_level)

    def _begin_episode(self, rng):
        r0, *scores = self._script
        it = iter(scores)

        def evaluate(action):
            return next(it)

        return self.values, r0, evaluate, "scripted"


def count_evaluations(env):
    """Wrap every scenario ``env`` begins; the returned list gains its r0,
    then one score per finished trial evaluation."""
    scores = []
    begin = env._begin_episode

    def counted_begin(rng):
        values, r0, evaluate, digest = begin(rng)
        scores.append(r0)

        def counted(action):
            scores.append(evaluate(action))
            return scores[-1]

        return values, r0, counted, digest

    env._begin_episode = counted_begin
    return scores


def run_scripted(r0, scores):
    env = ScriptedEnv(r0, scores, n_steps=len(scores))
    env.reset(0)
    rewards = []
    for _ in scores:
        _, reward, done, _ = env.step(np.array([0.5, 0.5]))
        rewards.append(reward)
    assert done
    return env, rewards


def test_reward_zero_until_terminal():
    _, rewards = run_scripted(0.5, [0.4, 0.7, 0.6, 0.5])
    assert rewards[:-1] == [0.0, 0.0, 0.0]


def test_terminal_reward_is_relative_improvement():
    _, rewards = run_scripted(0.5, [0.4, 0.7, 0.6, 0.5])
    assert rewards[-1] == pytest.approx((0.7 - 0.5) / 0.5, abs=1e-12)


def test_terminal_reward_negative_when_no_trial_beats_reference():
    _, rewards = run_scripted(0.5, [0.45, 0.45, 0.45, 0.45])
    assert rewards[-1] == pytest.approx(-0.1, abs=1e-12)


def test_terminal_reward_zero_reference_uses_epsilon_floor():
    _, rewards = run_scripted(0.0, [0.0, 0.0, 0.0, 0.0])
    assert rewards[-1] == 0.0
    _, rewards = run_scripted(0.0, [0.0, 1e-7, 0.0, 0.0])
    assert rewards[-1] == pytest.approx(1e-7 / EPS_REWARD, rel=1e-12)


@pytest.mark.parametrize("c", [0.1, 10.0])
def test_terminal_reward_invariant_to_score_scaling(c):
    base = [0.41, 0.62, 0.55, 0.47]
    _, rewards = run_scripted(0.5, base)
    _, scaled = run_scripted(0.5 * c, [s * c for s in base])
    assert scaled[-1] == pytest.approx(rewards[-1], abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    r0=st.floats(0.0, 1.0),
    scores=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_terminal_reward_formula_property(r0, scores):
    _, rewards = run_scripted(r0, scores)
    expected = (max(scores) - r0) / max(r0, EPS_REWARD)
    assert rewards[-1] == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert all(r == 0.0 for r in rewards[:-1])


def test_reset_returns_zero_frames_and_zero_step_index():
    env = ScriptedEnv(0.5, [0.6] * 4, static=(0.25, 0.75))
    obs = env.reset(0)
    static, frames, step = np.split(obs, [2, 2 + (env.n_steps + 1) * (env.action_dim + 2)])
    assert np.array_equal(static, [0.25, 0.75])
    assert np.all(frames == 0.0)
    assert step[0] == 0.0


def test_frame_zero_carries_initial_pair_after_first_step():
    env = ScriptedEnv(0.5, [0.6] * 4)
    env.reset(0)
    action = np.array([0.1, 0.9])
    obs, _, _, _ = env.step(action)
    n_static = len(env.space.static_names)
    frames = obs[n_static:-1].reshape(env.n_steps + 1, env.action_dim + 2)
    assert np.array_equal(frames[0], [0.5, 0.5, 0.5, 1.0])
    assert np.array_equal(frames[1], [0.1, 0.9, 0.6, 1.0])
    assert np.all(frames[2:] == 0.0)
    assert obs[-1] == pytest.approx(0.25)


def test_step_index_counts_completed_trials():
    env = ScriptedEnv(0.5, [0.6] * 4)
    env.reset(0)
    for k in range(1, 5):
        obs, _, _, _ = env.step(np.array([0.5, 0.5]))
        assert obs[-1] == pytest.approx(k / 4)


def test_step_after_done_raises():
    env, _ = run_scripted(0.5, [0.6] * 4)
    with pytest.raises(ProtocolError):
        env.step(np.array([0.5, 0.5]))


def test_step_before_reset_raises():
    env = ScriptedEnv(0.5, [0.6] * 4)
    with pytest.raises(ProtocolError):
        env.step(np.array([0.5, 0.5]))


def test_action_validation():
    env = ScriptedEnv(0.5, [0.6] * 4)
    env.reset(0)
    with pytest.raises(ConfigError):
        env.step(np.array([0.5]))
    with pytest.raises(ConfigError):
        env.step(np.array([0.5, 1.5]))
    with pytest.raises(ConfigError):
        env.step(np.array([-0.5, 0.5]))
    for bad in ([np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]):
        with pytest.raises(ConfigError, match="unit box"):
            env.step(np.array(bad))
    assert env.episode.trials == []


def test_one_evaluation_at_reset_plus_one_per_step():
    env = ScriptedEnv(0.5, [0.6] * 4)
    scores = count_evaluations(env)
    env.reset(0)
    assert scores == [0.5]
    for _ in range(4):
        env.step(np.array([0.5, 0.5]))
    assert scores == [0.5, 0.6, 0.6, 0.6, 0.6]


def test_episode_improvement_empty_trials_is_zero():
    ep = TuningEpisode(r0=0.5, initial_action=np.zeros(2), static=np.zeros(0), n_steps=4)
    assert ep.improvement == 0.0
    with pytest.raises(ConfigError):
        _ = ep.best_score


@pytest.mark.parametrize("level, shown", [("full", [1, 2, 3, 4, 5]),
                                          ("coarse", [0, 2, 0, 4, 0]),
                                          ("none", [0, 0, 0, 0, 0])])
def test_mask_levels_show_the_named_static_features(level, shown):
    env = ScriptedEnv(0.5, [0.6] * 4, static=(1, 2, 3, 4, 5), mask_level=level,
                      coarse=("s1", "s3"))
    obs = env.reset(0)
    assert np.array_equal(obs[:5], shown)
    # Every later observation carries the same static part.
    assert np.array_equal(env.step(np.array([0.5, 0.5]))[0][:5], shown)


def test_masking_leaves_the_static_values_unchanged():
    env = ScriptedEnv(0.5, [0.6] * 4, static=(1, 2, 3, 4, 5), mask_level="none")
    env.reset(0)
    assert env.values == {"s0": 1.0, "s1": 2.0, "s2": 3.0, "s3": 4.0, "s4": 5.0}


def _faas_and_synthetic_envs(mode, level):
    from schedtune.synthfuncs import SyntheticTuningEnv

    return [FaasTuningEnv(mode=mode, mask_level=level, duration_s=20),
            SyntheticTuningEnv("ackley", mode=mode, mask_level=level)]


@pytest.mark.parametrize("mode", MODES)
def test_each_mask_level_shows_the_full_features_times_shown(mode):
    full = [env.reset(5)[:len(env.space.static_names)]
            for env in _faas_and_synthetic_envs(mode, "full")]
    faas_coarse = [FAAS_STATIC_NAMES.index(name) for name in FAAS_COARSE_NAMES]
    assert faas_coarse == [8, 9, 10, 11, 13, 14]
    for level in MASK_LEVELS:
        for env, features in zip(_faas_and_synthetic_envs(mode, level), full):
            coarse = faas_coarse if isinstance(env, FaasTuningEnv) else []
            n_static = len(env.space.static_names)
            shown = np.zeros(n_static)
            shown[{"full": slice(None), "coarse": coarse, "none": []}[level]] = 1.0
            assert np.array_equal(env.reset(5)[:n_static], features * shown)


def test_space_var_validation_and_normalize():
    with pytest.raises(ConfigError):
        SpaceVar("x", 2.0, 1.0)
    v = SpaceVar("x", 10.0, 10.0)
    with pytest.raises(ConfigError):
        v.normalize(10.0)
    v = SpaceVar("x", 0.0, 4.0)
    assert v.normalize(1.0) == 0.25
    assert v.normalize(9.0) == 1.0
    assert v.normalize(-3.0) == 0.0


def test_space_var_degenerate_sampling():
    v = SpaceVar("x", 10.0, 10.0)
    rng = np.random.default_rng(0)
    assert v.sample(rng) == 10.0
    assert v.sample_int(rng) == 10


def test_static_ranges_are_the_union_of_train_and_test():
    space = default_space_set()
    nodes = space.static_range("num_nodes")
    assert (nodes.name, nodes.min, nodes.max) == ("num_nodes", 30, 400)
    train, test = space.domain("train"), space.domain("test")
    for name in train:
        union = space.static_range(name)
        assert (union.min, union.max) == (min(train[name].min, test[name].min),
                                          max(train[name].max, test[name].max))


def test_default_space_actions_match_scoring_functions():
    space = default_space_set()
    assert space.action_names == tuple(f"w_{n}" for n in SCORING_FUNCTIONS)
    assert np.array_equal(space.initial_action, FIXED_WEIGHTS)
    train = space.domain("train")
    assert train["requests_per_second"].min == train["requests_per_second"].max == 10
    assert train["percent_nodes_to_score"].min == 1.0


def test_sampled_scenarios_respect_domain_bounds():
    space = default_space_set()
    rng = np.random.default_rng(0)
    for mode, presets, node_lo, node_hi in (
        ("train", TRAIN_PRESETS, 30, 180),
        ("test", PRESETS, 200, 400),
    ):
        dom = space.domain(mode)
        for _ in range(50):
            sc = sample_scenario(space, mode, rng)
            assert sc.cluster_spec.preset in presets
            assert node_lo <= sc.cluster_spec.total_nodes <= node_hi
            rps_total = sum(r for _, r in sc.workload.functions)
            assert dom["requests_per_second"].min - 1e-9 <= rps_total \
                <= dom["requests_per_second"].max + 1e-9
            names = [fn.name for fn, _ in sc.workload.functions]
            assert len(set(names)) == len(names)
            assert dom["min_replicas"].min <= sc.options.min_replicas \
                <= dom["min_replicas"].max
            assert sc.options.min_replicas <= sc.options.max_replicas
            pct = sc.options.percent_nodes_to_score
            assert dom["percent_nodes_to_score"].min - 1e-9 <= pct \
                <= dom["percent_nodes_to_score"].max + 1e-9


def test_scenario_rps_split_evenly_across_functions():
    space = default_space_set()
    rng = np.random.default_rng(3)
    sc = sample_scenario(space, "train", rng)
    per_fn = [r for _, r in sc.workload.functions]
    assert all(r == pytest.approx(per_fn[0]) for r in per_fn)
    assert sum(per_fn) == pytest.approx(10.0)


def test_scenario_digest_deterministic():
    space = default_space_set()
    a = sample_scenario(space, "test", np.random.default_rng(11))
    b = sample_scenario(space, "test", np.random.default_rng(11))
    c = sample_scenario(space, "test", np.random.default_rng(12))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_faas_observation_dimension():
    env = FaasTuningEnv()
    assert len(env.space.static_names) == len(FAAS_STATIC_NAMES) == 20
    assert env.observation_dim == 20 + 5 * 10 + 1 == 71


@pytest.mark.parametrize("make_env", [lambda: FaasTuningEnv(duration_s=20.0),
                                      lambda: SyntheticTuningEnv("himmelblau")],
                         ids=["faas", "synthetic"])
def test_every_observation_is_observation_dim_wide(make_env):
    env = make_env()
    obs = env.reset(3)
    assert not env.episode.trials and obs.shape == (env.observation_dim,)
    for _ in range(env.n_steps):
        obs, *_ = env.step(env.initial_action)
        assert obs.shape == (env.observation_dim,)


def test_faas_static_features_well_formed():
    env = FaasTuningEnv(mode="train", mask_level="full")
    obs = env.reset(9)
    static = obs[:20]
    assert np.all(static >= 0.0) and np.all(static <= 1.0)
    assert static[:8].sum() == 1.0
    assert static[8:11].sum() == 1.0
    preset = PRESETS[int(np.argmax(static[:8]))]
    assert preset in TRAIN_PRESETS


def test_faas_coarse_mask_hides_fine_features():
    env = FaasTuningEnv(mode="train", mask_level="coarse")
    obs = env.reset(9)
    static = obs[:20]
    coarse = [FAAS_STATIC_NAMES.index(name) for name in FAAS_COARSE_NAMES]
    fine = [i for i in range(20) if i not in coarse]
    assert np.all(static[fine] == 0.0)
    assert static[coarse].sum() > 0.0
    assert coarse == [8, 9, 10, 11, 13, 14]


def test_faas_reset_deterministic():
    env_a = FaasTuningEnv(mode="train")
    env_b = FaasTuningEnv(mode="train")
    obs_a = env_a.reset(21)
    obs_b = env_b.reset(21)
    assert np.array_equal(obs_a, obs_b)
    assert env_a.episode.r0 == env_b.episode.r0
    a = np.full(8, 0.5)
    sa = env_a.step(a)[3]["score"]
    sb = env_b.step(a)[3]["score"]
    assert sa == sb


def test_vector_env_matches_single_instance():
    from schedtune.synthfuncs import SyntheticTuningEnv

    single = SyntheticTuningEnv("rastrigin")
    vec = VectorEnv([SyntheticTuningEnv("rastrigin"),
                     SyntheticTuningEnv("rastrigin")])
    obs_s = single.reset(5)
    obs_v = vec.reset([5, 77])
    assert np.array_equal(obs_v[0], obs_s)
    rng = np.random.default_rng(1)
    for _ in range(4):
        a = rng.uniform(0, 1, 2)
        obs_s, rew_s, done_s, _ = single.step(a)
        obs_v, rew_v, done_v, infos = vec.step(np.stack([a, a]))
        assert rew_v[0] == rew_s
        assert done_v[0] == done_s
        if done_s:
            assert np.array_equal(infos[0]["terminal_observation"], obs_s)
        else:
            assert np.array_equal(obs_v[0], obs_s)


def test_vector_env_auto_resets_finished_instances():
    from schedtune.synthfuncs import SyntheticTuningEnv

    vec = VectorEnv([SyntheticTuningEnv("ackley", n_steps=2)])
    vec.reset([3])
    actions = np.array([[0.4, 0.4]])
    vec.step(actions)
    obs, rewards, dones, infos = vec.step(actions)
    assert dones[0]
    assert infos[0]["terminal_observation"][-1] == 1.0
    # The returned observation is already a fresh episode.
    assert obs[0][-1] == 0.0
    frames = obs[0][3:-1]
    assert np.all(frames == 0.0)
    # The fresh episode accepts further steps without protocol errors.
    vec.step(actions)


def test_step_info_holds_only_the_score():
    from schedtune.synthfuncs import SyntheticTuningEnv

    env = SyntheticTuningEnv("ackley", n_steps=2)
    env.reset(4)
    for _ in range(2):
        _, _, _, info = env.step(np.array([0.3, 0.6]))
        assert info == {"score": env.episode.trials[-1][1]}
    vec = VectorEnv([SyntheticTuningEnv("ackley", n_steps=2)])
    vec.reset([4])
    _, _, _, infos = vec.step(np.array([[0.3, 0.6]]))
    assert set(infos[0]) == {"score"}
    _, _, dones, infos = vec.step(np.array([[0.3, 0.6]]))
    assert dones[0] and set(infos[0]) == {"score", "terminal_observation"}


def test_vector_env_validation():
    from schedtune.synthfuncs import SyntheticTuningEnv

    with pytest.raises(ConfigError):
        VectorEnv([])
    with pytest.raises(ConfigError):
        VectorEnv([SyntheticTuningEnv("ackley", n_steps=2),
                   SyntheticTuningEnv("ackley", n_steps=3)])
    vec = VectorEnv([SyntheticTuningEnv("ackley")])
    with pytest.raises(ConfigError):
        vec.reset([1, 2])


def test_faas_env_rejects_bad_configuration():
    with pytest.raises(ConfigError):
        FaasTuningEnv(mode="validation")
    with pytest.raises(ConfigError):
        FaasTuningEnv(mask_level="blurry")
    with pytest.raises(ConfigError):
        ScriptedEnv(0.5, [0.6], n_steps=0)
    with pytest.raises(ConfigError, match="unknown mask level 'partial'"):
        ScriptedEnv(0.5, [0.6], mask_level="partial")


def _record_reads(monkeypatch) -> list[Path]:
    """Every path ``data.read_json`` opens from now on, in order."""
    paths, real = [], data.read_json

    def recording(path, what):
        paths.append(Path(path))
        return real(path, what)

    monkeypatch.setattr(data, "read_json", recording)
    return paths


DATA_FILES = ("devices.json", "functions.json", "presets.json")


def test_a_reset_reads_no_data_file(monkeypatch):
    reads = _record_reads(monkeypatch)
    env = FaasTuningEnv(mode="train", duration_s=20)
    assert sorted(path.name for path in reads) == list(DATA_FILES)
    reads.clear()
    for seed in range(5):
        env.reset(seed)
    assert reads == []


@pytest.mark.parametrize("explicit", [False, True])
def test_the_data_dir_setting_wins_over_the_environment_variable(tmp_path, monkeypatch,
                                                                 explicit):
    # SCHEDTUNE_DATA_DIR in the environment overrides nothing.
    from_env, configured = tmp_path / "from_env", tmp_path / "configured"
    packaged = data.data_dir()
    shutil.copytree(packaged, from_env)
    shutil.copytree(packaged, configured)
    monkeypatch.setenv("SCHEDTUNE_DATA_DIR", str(from_env))
    reads = _record_reads(monkeypatch)
    FaasTuningEnv(data_dir=str(configured) if explicit else None)
    expected = configured if explicit else packaged
    assert sorted(reads) == [expected / name for name in DATA_FILES]



# SHA-256 over every observation and reward below; any change to the static
# features, their normalization ranges, masking, frames or scores moves it.
OBSERVATION_DIGEST = "d958ea3b45528c26c70108787027981eb3e7c9dabf9ed0df6bdc4d95f46add41"


def test_observation_and_reward_digest_is_pinned():
    from schedtune.synthfuncs import LANDSCAPES, SyntheticTuningEnv

    digest = hashlib.sha256()
    rng = np.random.default_rng(0)
    for mode in MODES:
        for level in MASK_LEVELS:
            envs = [FaasTuningEnv(mode=mode, mask_level=level, duration_s=20)]
            envs += [SyntheticTuningEnv(name, mode=mode, mask_level=level)
                     for name in sorted(LANDSCAPES)]
            for env in envs:
                for seed in (1, 2):
                    digest.update(env.reset(seed).tobytes())
                    done = False
                    while not done:
                        action = rng.uniform(0.0, 1.0, env.action_dim)
                        obs, reward, done, _ = env.step(action)
                        digest.update(obs.tobytes())
                        digest.update(np.float64(reward).tobytes())
    assert digest.hexdigest() == OBSERVATION_DIGEST
