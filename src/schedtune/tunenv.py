"""Multi-step tuning environments over benchmark runs.

An episode is one tuning session on a frozen scenario: the reset takes the
scenario and r0, the score of the fixed initial weights on it, from the
subclass hook ``_begin_episode``, then the agent gets ``n_steps`` trials,
each a full benchmark run with its proposed weight vector.  The reward is
sparse: zero everywhere except the terminal step, which pays the relative
improvement of the best trial over r0.  ``simulate`` draws through the same
:meth:`FaasTuningEnv.draw_scenario`, so a scenario seed has one r0.

Observations concatenate a static description of the scenario,
``n_steps + 1`` frames of (action, raw score, valid) triples -- frame 0 is
reserved for the initial (fixed weights, r0) pair -- and the normalized step
index.  The episode record (:class:`TuningEpisode`), static features and
budget included, is the whole state of a session and builds the
observation: while it holds no trial, as at reset, every frame is zero, and
it is done at ``n_steps`` trials.

A ``SpaceSet`` describes each tuning problem once: its actions, its static
features and those that survive coarse masking, and its train and test
domains, the only source of scenario ranges.  Scenarios are drawn from the
mode's domain, and a static feature with a domain range is normalized over
the union of both, so a value means the same in either mode.
``docs/formats.md`` gives the full layout.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .cluster import (PRESET_CLASS, PRESETS, TOPOLOGY_KINDS, Cluster, ClusterSpec,
                      build_cluster, load_presets)
from .errors import ConfigError, ProtocolError, UnschedulableError
from .scheduler import FIXED_WEIGHTS, SCORING_FUNCTIONS
from .simengine import SimOptions, SimResult, run_benchmark
from .workload import DEFAULT_DURATION_S, FunctionSpec, WorkloadSpec, catalog

EPS_REWARD = 1e-6
DEFAULT_N_STEPS = 4
MASK_LEVELS = ("full", "coarse", "none")
MODES = ("train", "test")
# Draws per scenario seed while the fixed weights cannot schedule a scenario.
MAX_RESET_RETRIES = 10

TRAIN_PRESETS = ("cloud_cpu", "cloud_gpu", "edge_cloudlet")

# Node-count bucket edges for the coarse cluster-size descriptor.
NODE_BUCKETS = (60, 120, 240)

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
FAAS_COARSE_NAMES = ("class_cloud", "class_edge", "class_hybrid", "topology_urban",
                     "num_nodes_bucket", "num_functions")


def short_digest(payload: dict) -> str:
    """The first 12 hex digits of the SHA-1 of ``payload`` as sorted JSON."""
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


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
    """One tuning problem: its train and test domains, its actions, and the
    static features of its observations, of which ``coarse_names`` survive
    coarse masking."""

    domain_train: tuple[SpaceVar, ...]
    domain_test: tuple[SpaceVar, ...]
    action_names: tuple[str, ...]
    initial_action: np.ndarray
    static_names: tuple[str, ...]
    coarse_names: tuple[str, ...] = ()

    def domain(self, mode: str) -> dict[str, SpaceVar]:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
        space = self.domain_train if mode == "train" else self.domain_test
        return {v.name: v for v in space}

    def static_range(self, name: str) -> SpaceVar:
        """The union of ``name``'s train and test ranges."""
        train, test = self.domain("train")[name], self.domain("test")[name]
        return SpaceVar(name, min(train.min, test.min), max(train.max, test.max))


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
        static_names=FAAS_STATIC_NAMES,
        coarse_names=FAAS_COARSE_NAMES,
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
        return short_digest(self.describe())


def sample_scenario(space: SpaceSet, mode: str, rng: np.random.Generator,
                    duration_s: float = DEFAULT_DURATION_S,
                    functions: list[FunctionSpec] | None = None) -> Scenario:
    """Draw one scenario uniformly from the mode's domain space, over
    ``functions`` (a fresh :func:`catalog` by default); train mode draws only
    the training functions."""
    dom = space.domain(mode)
    presets = TRAIN_PRESETS if mode == "train" else PRESETS
    preset = presets[dom["cluster_preset"].sample_int(rng)]
    topology = TOPOLOGY_KINDS[dom["topology"].sample_int(rng)]
    num_nodes = dom["num_nodes"].sample_int(rng)
    pool = catalog() if functions is None else functions
    if mode == "train":
        pool = [fn for fn in pool if fn.training]
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


def improvement(best, r0):
    """Relative gain of ``best`` over ``r0``, floats or arrays, with r0 floored
    at ``EPS_REWARD``: the terminal reward and the summary's statistic."""
    return (best - r0) / np.maximum(r0, EPS_REWARD)


@dataclass
class TuningEpisode:
    """One tuning session: masked static features, r0, budget and trials."""

    r0: float
    initial_action: np.ndarray
    static: np.ndarray
    n_steps: int
    trials: list[tuple[np.ndarray, float]] = field(default_factory=list)
    scenario_digest: str = ""

    @property
    def done(self) -> bool:
        return len(self.trials) >= self.n_steps

    @property
    def best_score(self) -> float:
        if not self.trials:
            raise ConfigError("episode has no trials yet")
        return max(score for _, score in self.trials)

    @property
    def improvement(self) -> float:
        if not self.trials:
            return 0.0
        return float(improvement(self.best_score, self.r0))

    def evaluations(self) -> tuple[np.ndarray, np.ndarray]:
        """Every evaluated point as a row and its score, the reference
        pair (initial action, r0) first, then the trials in order."""
        points = np.stack([self.initial_action] + [a for a, _ in self.trials])
        scores = np.array([self.r0] + [s for _, s in self.trials])
        return points, scores

    def observation(self) -> np.ndarray:
        """Static features, ``n_steps + 1`` frames and the step index."""
        action_dim = len(self.initial_action)
        frames = np.zeros((self.n_steps + 1, action_dim + 2))
        k = len(self.trials)
        if k:
            points, scores = self.evaluations()
            frames[:k + 1, :action_dim] = points
            frames[:k + 1, action_dim] = scores
            frames[:k + 1, action_dim + 1] = 1.0
        step_index = np.array([k / self.n_steps])
        return np.concatenate([self.static, frames.reshape(-1), step_index])


class TuningEnv:
    """Shared episode mechanics over one ``SpaceSet`` in one mode, whose
    ``domain`` subclasses draw scenarios from.  The static features follow
    ``space.static_names``; ``mask_level`` shows all of them, only
    ``space.coarse_names`` or none.

    Protocol: ``reset(seed) -> obs`` then exactly ``n_steps`` calls of
    ``step(action) -> (obs, reward, done, info)``, where ``info`` is
    ``{"score": score}``; ``episode`` records the rest.  Stepping a finished
    or unreset episode raises ProtocolError.
    """

    def __init__(self, space: SpaceSet, mode: str, n_steps: int = DEFAULT_N_STEPS,
                 mask_level: str = "full"):
        self.space, self.mode = space, mode
        self.domain = space.domain(mode)
        if n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if mask_level not in MASK_LEVELS:
            raise ConfigError(
                f"unknown mask level {mask_level!r}, expected one of {MASK_LEVELS}")
        shown = {"full": space.static_names, "coarse": space.coarse_names}.get(mask_level, ())
        self._shown = np.array([name in shown for name in space.static_names], dtype=float)
        self._ranges = {name: space.static_range(name)
                        for name in space.static_names if name in self.domain}
        self.initial_action = np.asarray(space.initial_action, dtype=float)
        self.action_dim = len(self.initial_action)
        self.n_steps = n_steps
        self.episode: TuningEpisode | None = None
        self._evaluate = None

    @property
    def observation_dim(self) -> int:
        """The width of :meth:`TuningEpisode.observation`, read off a blank
        episode's, so the layout lives in that method alone."""
        blank = TuningEpisode(r0=0.0, initial_action=self.initial_action,
                              static=np.zeros(len(self.space.static_names)),
                              n_steps=self.n_steps)
        return blank.observation().size

    # -- subclass hook -------------------------------------------------
    def _begin_episode(self, rng: np.random.Generator):
        """Return (static values by name, r0, evaluate, digest) for a fresh
        scenario drawn from ``rng``, where r0 is the score of
        ``initial_action`` on it and ``evaluate(action)`` scores a trial."""
        raise NotImplementedError

    def _static_features(self, values: dict) -> np.ndarray:
        """``values`` in ``space.static_names`` order, masked: a name with a
        domain range is normalized over its union range, and any other (a
        one-hot, the node bucket) is taken as given."""
        feats = np.array([self._ranges[name].normalize(values[name]) if name in self._ranges
                          else values[name] for name in self.space.static_names], dtype=float)
        return feats * self._shown

    # -- protocol ------------------------------------------------------
    def reset(self, seed: int) -> np.ndarray:
        values, r0, evaluate, digest = self._begin_episode(np.random.default_rng(seed))
        self._evaluate = evaluate
        self.episode = TuningEpisode(r0=float(r0), initial_action=self.initial_action.copy(),
                                     static=self._static_features(values),
                                     n_steps=self.n_steps, scenario_digest=digest)
        return self.episode.observation()

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        if self.episode is None or self.episode.done:
            raise ProtocolError("step called on a finished or unreset episode")
        a = np.asarray(action, dtype=float).reshape(-1)
        if a.shape != (self.action_dim,):
            raise ConfigError(f"action must have dimension {self.action_dim}")
        # NaN fails both comparisons, so it is rejected here too.
        if not (a.min() >= -1e-9 and a.max() <= 1.0 + 1e-9):
            raise ConfigError("action outside the unit box")
        a = np.clip(a, 0.0, 1.0)
        score = float(self._evaluate(a))
        self.episode.trials.append((a.copy(), score))
        done = self.episode.done
        reward = float(self.episode.improvement) if done else 0.0
        return self.episode.observation(), reward, done, {"score": score}


class FaasTuningEnv(TuningEnv):
    """Weight tuning over full cluster benchmark runs.  The presets and the
    function catalog are read and checked once, here; resets read no file."""

    def __init__(self, mode: str = "train", mask_level: str = "full",
                 n_steps: int = DEFAULT_N_STEPS, duration_s: float = DEFAULT_DURATION_S,
                 data_dir=None):
        super().__init__(default_space_set(), mode, n_steps, mask_level)
        self.duration_s = duration_s
        self.presets = load_presets(data_dir)
        self.functions = catalog(data_dir)

    def draw_scenario(self, rng: np.random.Generator) -> tuple[Scenario, Cluster, SimResult]:
        """Draw a scenario, build its cluster and run the initial weights on
        it; draw again, up to ``MAX_RESET_RETRIES`` times in all, while they
        cannot schedule it."""
        for _ in range(MAX_RESET_RETRIES):
            scenario = sample_scenario(self.space, self.mode, rng,
                                       duration_s=self.duration_s,
                                       functions=self.functions)
            cluster = build_cluster(scenario.cluster_spec, self.presets)
            try:
                return scenario, cluster, run_benchmark(
                    cluster, scenario.workload, self.initial_action, scenario.options)
            except UnschedulableError as exc:
                last_error = exc
        raise ConfigError(f"could not find a schedulable scenario in "
                          f"{MAX_RESET_RETRIES} attempts: {last_error}")

    def _begin_episode(self, rng: np.random.Generator):
        scenario, cluster, result = self.draw_scenario(rng)
        spec, options = scenario.cluster_spec, scenario.options
        values = dict.fromkeys(FAAS_STATIC_NAMES, 0.0)
        values[f"preset_{spec.preset}"] = 1.0
        values[f"class_{PRESET_CLASS[spec.preset]}"] = 1.0
        values.update(
            topology_urban=1.0 if spec.topology_kind == "urban" else 0.0,
            num_nodes=spec.total_nodes,
            num_nodes_bucket=sum(spec.total_nodes >= b for b in NODE_BUCKETS) / len(NODE_BUCKETS),
            num_functions=len(scenario.workload.functions),
            # A left fold, not sum(), which compensates rounding from 3.12 on.
            requests_per_second=reduce(add, (rps for _, rps in scenario.workload.functions),
                                       0.0),
            percent_nodes_to_score=options.percent_nodes_to_score,
            min_replicas=options.min_replicas,
            max_replicas=options.max_replicas,
            scale_factor=options.scale_factor,
        )

        def evaluate(weights: np.ndarray) -> float:
            return run_benchmark(cluster, scenario.workload, weights,
                                 scenario.options).score

        return values, result.score, evaluate, scenario.digest()


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
