"""Multi-step tuning environments over benchmark runs.

An episode is one tuning session on a frozen scenario: the reset evaluates
the fixed initial weights to obtain the reference score r0, then the agent
gets ``n_steps`` trials, each a full benchmark run with its proposed weight
vector.  The reward is sparse: zero everywhere except the terminal step,
which pays the relative improvement of the best trial over r0.

Observations concatenate a normalized static description of the scenario,
``n_steps + 1`` frames of (action, raw score, valid) triples -- frame 0 is
reserved for the initial (fixed weights, r0) pair -- and the normalized step
index.  Reset returns all-zero frames; trial history appears from the first
step onward.  Static features come in fine and coarse variants so that
masking can hide exact scenario parameters during training.

A ``SpaceSet``'s train and test domains are the only source of scenario
ranges: scenarios are drawn from the mode's domain, and each numeric static
feature is normalized over the union of both, so a value means the same in
either mode.  ``docs/formats.md`` gives the full layout.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .cluster import PRESET_CLASS, PRESETS, TOPOLOGY_KINDS, ClusterSpec, build_cluster
from .errors import ConfigError, ProtocolError, UnschedulableError
from .scheduler import FIXED_WEIGHTS, SCORING_FUNCTIONS
from .simengine import SimOptions, run_benchmark
from .workload import WorkloadSpec, catalog, train_catalog

EPS_REWARD = 1e-6
DEFAULT_N_STEPS = 4
MASK_LEVELS = ("full", "coarse", "none")
MODES = ("train", "test")
# Resets draw again when the fixed weights cannot schedule a scenario.
MAX_RESET_RETRIES = 10

TRAIN_PRESETS = ("cloud_cpu", "cloud_gpu", "edge_cloudlet")

# Node-count bucket edges for the coarse cluster-size descriptor.
NODE_BUCKETS = (60, 120, 240)


@dataclass(frozen=True)
class SpaceVar:
    """Named closed interval; [min, max] may collapse for fixed parameters."""

    name: str
    min: float
    max: float

    def __post_init__(self):
        if not self.name:
            raise ConfigError("space variable needs a name")
        if self.min > self.max:
            raise ConfigError(f"{self.name}: min must not exceed max")

    def normalize(self, x: float) -> float:
        if self.min == self.max:
            raise ConfigError(f"{self.name}: cannot normalize a degenerate range")
        return float(np.clip((x - self.min) / (self.max - self.min), 0.0, 1.0))

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.min, self.max))

    def sample_int(self, rng: np.random.Generator) -> int:
        return int(rng.integers(int(self.min), int(self.max) + 1))


@dataclass
class SpaceSet:
    """The train and test domains of one tuning problem, plus its actions."""

    domain_train: tuple[SpaceVar, ...]
    domain_test: tuple[SpaceVar, ...]
    action_names: tuple[str, ...]
    initial_action: np.ndarray

    def domain(self, mode: str) -> dict[str, SpaceVar]:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
        space = self.domain_train if mode == "train" else self.domain_test
        return {v.name: v for v in space}

    def static_range(self, name: str) -> SpaceVar:
        """The union of ``name``'s train and test ranges."""
        train, test = self.domain("train")[name], self.domain("test")[name]
        return SpaceVar(name, min(train.min, test.min), max(train.max, test.max))

    def normalize_static(self, name: str, value: float) -> float:
        """``value`` as a static feature in [0, 1] over ``static_range(name)``."""
        return self.static_range(name).normalize(value)


def default_space_set() -> SpaceSet:
    """Spaces for the cluster-scheduling problem.

    Train and test domains differ deliberately: training sees three cluster
    presets, a fixed request rate and small-to-medium clusters, while test
    scenarios span all presets, larger clusters and wider knob ranges.
    """
    domain_train = (
        SpaceVar("cluster_preset", 0, len(TRAIN_PRESETS) - 1),
        SpaceVar("topology", 0, 1),
        SpaceVar("num_nodes", 30, 180),
        SpaceVar("num_functions", 1, 5),
        SpaceVar("requests_per_second", 10, 10),
        SpaceVar("percent_nodes_to_score", 1.0, 1.0),
        SpaceVar("min_replicas", 1, 1),
        SpaceVar("max_replicas", 100, 100),
        SpaceVar("scale_factor", 1, 1),
    )
    domain_test = (
        SpaceVar("cluster_preset", 0, len(PRESETS) - 1),
        SpaceVar("topology", 0, 1),
        SpaceVar("num_nodes", 200, 400),
        SpaceVar("num_functions", 1, 8),
        SpaceVar("requests_per_second", 5, 30),
        SpaceVar("percent_nodes_to_score", 0.1, 1.0),
        SpaceVar("min_replicas", 1, 10),
        SpaceVar("max_replicas", 50, 100),
        SpaceVar("scale_factor", 1, 5),
    )
    return SpaceSet(
        domain_train=domain_train,
        domain_test=domain_test,
        action_names=tuple(f"w_{name}" for name in SCORING_FUNCTIONS),
        initial_action=FIXED_WEIGHTS.copy(),
    )


@dataclass(frozen=True)
class Scenario:
    """One frozen benchmark configuration shared by all trials of an episode."""

    cluster_spec: ClusterSpec
    workload: WorkloadSpec
    options: SimOptions

    def describe(self) -> dict:
        return {
            "preset": self.cluster_spec.preset,
            "topology": self.cluster_spec.topology_kind,
            "num_nodes": self.cluster_spec.total_nodes,
            "cluster_seed": self.cluster_spec.seed,
            "functions": [fn.name for fn, _ in self.workload.functions],
            "rps": [rps for _, rps in self.workload.functions],
            "workload_seed": self.workload.seed,
            "duration_s": self.workload.duration_s,
            "percent_nodes_to_score": self.options.percent_nodes_to_score,
            "min_replicas": self.options.min_replicas,
            "max_replicas": self.options.max_replicas,
            "scale_factor": self.options.scale_factor,
            "sim_seed": self.options.seed,
        }

    def digest(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:12]


def sample_scenario(space: SpaceSet, mode: str, rng: np.random.Generator,
                    duration_s: float = 100.0, data_dir=None) -> Scenario:
    """Draw one scenario uniformly from the mode's domain space."""
    dom = space.domain(mode)
    presets = TRAIN_PRESETS if mode == "train" else PRESETS
    preset = presets[dom["cluster_preset"].sample_int(rng)]
    topology = TOPOLOGY_KINDS[dom["topology"].sample_int(rng)]
    num_nodes = dom["num_nodes"].sample_int(rng)
    pool = train_catalog(data_dir) if mode == "train" else catalog(data_dir)
    num_functions = min(dom["num_functions"].sample_int(rng), len(pool))
    chosen = sorted(rng.choice(len(pool), size=num_functions, replace=False))
    rps_total = dom["requests_per_second"].sample(rng)
    rps_each = rps_total / num_functions
    percent = dom["percent_nodes_to_score"].sample(rng)
    min_replicas = dom["min_replicas"].sample_int(rng)
    max_replicas = dom["max_replicas"].sample_int(rng)
    scale_factor = dom["scale_factor"].sample_int(rng)
    cluster_seed = int(rng.integers(2**63 - 1))
    workload_seed = int(rng.integers(2**63 - 1))
    sim_seed = int(rng.integers(2**63 - 1))

    return Scenario(
        cluster_spec=ClusterSpec(preset, num_nodes, topology, cluster_seed),
        workload=WorkloadSpec(
            functions=tuple((pool[i], rps_each) for i in chosen),
            duration_s=duration_s,
            seed=workload_seed,
        ),
        options=SimOptions(
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            scale_factor=scale_factor,
            percent_nodes_to_score=percent,
            seed=sim_seed,
        ),
    )


@dataclass
class TuningEpisode:
    """Outcome of one tuning session: reference score plus the trials."""

    r0: float
    initial_action: np.ndarray
    trials: list[tuple[np.ndarray, float]] = field(default_factory=list)
    scenario_digest: str = ""

    @property
    def best_score(self) -> float:
        if not self.trials:
            raise ConfigError("episode has no trials yet")
        return max(score for _, score in self.trials)

    @property
    def improvement(self) -> float:
        if not self.trials:
            return 0.0
        return (self.best_score - self.r0) / max(self.r0, EPS_REWARD)


def mask_static(features: np.ndarray, level: str,
                coarse_indices: tuple[int, ...]) -> np.ndarray:
    """Zero out static entries the given masking level hides."""
    out = np.array(features, dtype=float)
    if level == "none":
        out[:] = 0.0
    elif level == "coarse":
        keep = np.zeros(len(out), dtype=bool)
        keep[list(coarse_indices)] = True
        out[~keep] = 0.0
    return out


class TuningEnv:
    """Shared episode mechanics; subclasses supply scenarios and evaluation.

    Protocol: ``reset(seed) -> obs`` then exactly ``n_steps`` calls of
    ``step(action) -> (obs, reward, done, info)``.  Stepping a finished or
    unreset episode raises ProtocolError.
    """

    def __init__(self, static_dim: int, coarse_indices: tuple[int, ...],
                 initial_action: np.ndarray, n_steps: int = DEFAULT_N_STEPS,
                 mask_level: str = "full"):
        if n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if mask_level not in MASK_LEVELS:
            raise ConfigError(
                f"unknown mask level {mask_level!r}, expected one of {MASK_LEVELS}")
        self.initial_action = np.asarray(initial_action, dtype=float)
        self.action_dim = len(self.initial_action)
        self.static_dim = static_dim
        self.coarse_indices = coarse_indices
        self.n_steps = n_steps
        self.n_frames = n_steps + 1
        self.frame_width = self.action_dim + 2
        self.mask_level = mask_level
        self.benchmark_calls = 0
        self.episode: TuningEpisode | None = None
        self._static: np.ndarray | None = None
        self._evaluate = None
        self._done = True

    @property
    def observation_dim(self) -> int:
        return self.static_dim + self.n_frames * self.frame_width + 1

    # -- subclass hook -------------------------------------------------
    def _begin_episode(self, rng: np.random.Generator):
        """Return (static_features, evaluate, digest) for a fresh scenario."""
        raise NotImplementedError

    # -- protocol ------------------------------------------------------
    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        last_error = None
        for _ in range(MAX_RESET_RETRIES):
            static, evaluate, digest = self._begin_episode(rng)
            try:
                r0 = float(evaluate(self.initial_action))
            except UnschedulableError as exc:
                last_error = exc
                continue
            break
        else:
            raise ConfigError(
                f"could not find a schedulable scenario in "
                f"{MAX_RESET_RETRIES} attempts: {last_error}")
        self.benchmark_calls += 1
        if static.shape != (self.static_dim,):
            raise ConfigError("static features have the wrong dimension")
        self._static = mask_static(static, self.mask_level, self.coarse_indices)
        self._evaluate = evaluate
        self.episode = TuningEpisode(r0=r0, initial_action=self.initial_action.copy(),
                                     scenario_digest=digest)
        self._done = False
        return self._observation(zero_frames=True)

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        if self.episode is None or self._done:
            raise ProtocolError("step called on a finished or unreset episode")
        a = np.asarray(action, dtype=float).reshape(-1)
        if a.shape != (self.action_dim,):
            raise ConfigError(f"action must have dimension {self.action_dim}")
        # NaN fails both comparisons, so it is rejected here too.
        if not (a.min() >= -1e-9 and a.max() <= 1.0 + 1e-9):
            raise ConfigError("action outside the unit box")
        a = np.clip(a, 0.0, 1.0)
        score = float(self._evaluate(a))
        self.benchmark_calls += 1
        self.episode.trials.append((a.copy(), score))
        k = len(self.episode.trials)
        self._done = k >= self.n_steps
        reward = float(self.episode.improvement) if self._done else 0.0
        info = {
            "score": score,
            "r0": self.episode.r0,
            "trial_index": k,
            "scenario_digest": self.episode.scenario_digest,
        }
        if self._done:
            info["best_score"] = self.episode.best_score
            info["improvement"] = self.episode.improvement
        return self._observation(zero_frames=False), reward, self._done, info

    def _observation(self, zero_frames: bool) -> np.ndarray:
        frames = np.zeros((self.n_frames, self.frame_width))
        k = 0
        if not zero_frames:
            ep = self.episode
            frames[0, :self.action_dim] = ep.initial_action
            frames[0, self.action_dim] = ep.r0
            frames[0, self.action_dim + 1] = 1.0
            k = len(ep.trials)
            for i, (a, s) in enumerate(ep.trials, start=1):
                frames[i, :self.action_dim] = a
                frames[i, self.action_dim] = s
                frames[i, self.action_dim + 1] = 1.0
        step_index = np.array([k / self.n_steps])
        return np.concatenate([self._static, frames.reshape(-1), step_index])


# Static feature layout of the cluster-scheduling environment: preset and
# exact knobs are fine-grained; the broad cluster class, topology flag,
# node-count bucket and function count survive coarse masking.
FAAS_STATIC_NAMES = tuple(
    [f"preset_{p}" for p in PRESETS]
    + ["class_cloud", "class_edge", "class_hybrid", "topology_urban",
       "num_nodes", "num_nodes_bucket", "num_functions",
       "requests_per_second", "percent_nodes_to_score",
       "min_replicas", "max_replicas", "scale_factor"]
)
FAAS_COARSE_INDICES = tuple(
    FAAS_STATIC_NAMES.index(n) for n in
    ("class_cloud", "class_edge", "class_hybrid", "topology_urban",
     "num_nodes_bucket", "num_functions")
)


class FaasTuningEnv(TuningEnv):
    """Weight tuning over full cluster benchmark runs."""

    def __init__(self, mode: str = "train", mask_level: str = "full",
                 n_steps: int = DEFAULT_N_STEPS, duration_s: float = 100.0,
                 data_dir=None):
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
        self.space = default_space_set()
        self.mode = mode
        self.duration_s = duration_s
        self.data_dir = data_dir
        self.scenario: Scenario | None = None
        super().__init__(
            static_dim=len(FAAS_STATIC_NAMES),
            coarse_indices=FAAS_COARSE_INDICES,
            initial_action=self.space.initial_action,
            n_steps=n_steps,
            mask_level=mask_level,
        )

    def _static_features(self, scenario: Scenario) -> np.ndarray:
        spec = scenario.cluster_spec
        feats = np.zeros(len(FAAS_STATIC_NAMES))
        feats[PRESETS.index(spec.preset)] = 1.0
        cls = PRESET_CLASS[spec.preset]
        feats[FAAS_STATIC_NAMES.index(f"class_{cls}")] = 1.0
        feats[FAAS_STATIC_NAMES.index("topology_urban")] = \
            1.0 if spec.topology_kind == "urban" else 0.0
        bucket = sum(spec.total_nodes >= b for b in NODE_BUCKETS)
        feats[FAAS_STATIC_NAMES.index("num_nodes_bucket")] = bucket / len(NODE_BUCKETS)
        raw = {
            "num_nodes": spec.total_nodes,
            "num_functions": len(scenario.workload.functions),
            # A left fold, not sum(), which compensates rounding from 3.12 on.
            "requests_per_second": reduce(add, (rps for _, rps in scenario.workload.functions),
                                          0.0),
            "percent_nodes_to_score": scenario.options.percent_nodes_to_score,
            "min_replicas": scenario.options.min_replicas,
            "max_replicas": scenario.options.max_replicas,
            "scale_factor": scenario.options.scale_factor,
        }
        for name, value in raw.items():
            feats[FAAS_STATIC_NAMES.index(name)] = self.space.normalize_static(name, value)
        return feats

    def _begin_episode(self, rng: np.random.Generator):
        scenario = sample_scenario(self.space, self.mode, rng,
                                   duration_s=self.duration_s,
                                   data_dir=self.data_dir)
        cluster = build_cluster(scenario.cluster_spec, self.data_dir)
        self.scenario = scenario

        def evaluate(weights: np.ndarray) -> float:
            return run_benchmark(cluster, scenario.workload, weights,
                                 scenario.options).score

        return self._static_features(scenario), evaluate, scenario.digest()


class VectorEnv:
    """Drives k environment instances in lockstep with auto-reset.

    Auto-reset seeds come from a per-instance generator seeded at reset,
    so batched output i is identical to running instance i alone.
    """

    def __init__(self, envs: list[TuningEnv]):
        if not envs:
            raise ConfigError("vector env needs at least one instance")
        dims = {(e.observation_dim, e.action_dim, e.n_steps) for e in envs}
        if len(dims) != 1:
            raise ConfigError("all instances must share dimensions")
        self.envs = envs
        self._reseed: list[np.random.Generator] = []

    @property
    def num_envs(self) -> int:
        return len(self.envs)

    @property
    def observation_dim(self) -> int:
        return self.envs[0].observation_dim

    @property
    def action_dim(self) -> int:
        return self.envs[0].action_dim

    def reset(self, seeds: list[int]) -> np.ndarray:
        if len(seeds) != self.num_envs:
            raise ConfigError("need one seed per instance")
        self._reseed = [np.random.default_rng(int(s) + 1) for s in seeds]
        return np.stack([env.reset(int(s)) for env, s in zip(self.envs, seeds)])

    def step(self, actions: np.ndarray):
        actions = np.asarray(actions, dtype=float)
        if actions.shape != (self.num_envs, self.action_dim):
            raise ConfigError("actions must be a (num_envs, action_dim) array")
        obs_out, rewards, dones, infos = [], [], [], []
        for i, env in enumerate(self.envs):
            obs, reward, done, info = env.step(actions[i])
            if done:
                info["terminal_observation"] = obs
                obs = env.reset(int(self._reseed[i].integers(2**63 - 1)))
            obs_out.append(obs)
            rewards.append(reward)
            dones.append(done)
            infos.append(info)
        return (np.stack(obs_out), np.array(rewards),
                np.array(dones, dtype=bool), infos)
