"""End-to-end acceptance gate.

Ten criteria cover the tuning reward, the scheduler's scoring invariants,
benchmark determinism, both optimizer backends, the agent's numerics, and
desk-scale learning runs on the synthetic and cluster environments.  Each
test prints exactly one PASS/FAIL line with its wall-clock time, bypassing
output capture, so a full run reads as a ten-line scorecard:

    pytest tests/test_acceptance.py -v
"""
import time
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from schedtune import cluster as cl
from schedtune import scheduler as sched
from schedtune import simengine as se
from schedtune import workload as wl
from schedtune.agent import ReplayBuffer, SacAgent, SacConfig, env_action, train_agent
from schedtune.optimizers import (GP_NOISE_VAR, GP_SIGNAL_VAR, OPTIMIZERS, FixedOptimizer,
                                  RandomSearchOptimizer, gp_posterior, run_tuning,
                                  se_kernel, suggest_tpe)
from schedtune.synthfuncs import SyntheticTuningEnv
from schedtune.tunenv import (FAAS_STATIC_NAMES, FaasTuningEnv, VectorEnv,
                              default_space_set, sample_scenario)
from tests.conftest import float64_networks, make_function, random_weights, score_columns
from tests.test_tunenv import count_evaluations, run_scripted


def _criterion(capsys, num, name, budget_s, body):
    """Run one criterion body, print its scorecard line, enforce the budget."""
    t0 = time.perf_counter()
    status, detail = "FAIL", ""
    try:
        detail = body()
        status = "PASS"
    except BaseException as exc:  # report, then let pytest handle it
        detail = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"[acceptance] {num:>2}/10 {status} {elapsed:7.1f}s  "
                  f"{name}: {detail}")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s over {budget_s}s cap"


def test_01_reward_arithmetic_and_sparsity(capsys):
    def body():
        cases = [(0.5, [0.6, 0.7, 0.65, 0.6], 0.4),
                 (0.5, [0.5, 0.4, 0.3, 0.45], 0.0),
                 (0.5, [0.45, 0.44, 0.40, 0.43], -0.1)]
        for r0, scores, expected in cases:
            _, rewards = run_scripted(r0, scores)
            assert all(r == 0.0 for r in rewards[:-1])
            assert abs(rewards[-1] - expected) < 1e-12

        rng = np.random.default_rng(42)
        for _ in range(1000):
            r0 = float(rng.uniform(0.05, 1.0))
            scores = rng.uniform(0.0, 1.0, 4)
            _, rewards = run_scripted(r0, scores)
            assert all(r == 0.0 for r in rewards[:-1])
            expected = (max(scores) - r0) / max(r0, 1e-6)
            assert abs(rewards[-1] - expected) < 1e-12

        worst = 0.0
        for _ in range(200):
            r0 = float(rng.uniform(0.05, 1.0))
            scores = rng.uniform(0.01, 1.0, 4)
            base = run_scripted(r0, scores)[1][-1]
            for c in (0.1, 10.0):
                scaled = run_scripted(c * r0, list(c * scores))[1][-1]
                worst = max(worst, abs(scaled - base))
        assert worst < 1e-9
        return (f"3 examples exact to 1e-12; 1000 episodes terminal-only; "
                f"scale drift {worst:.1e} < 1e-9")

    _criterion(capsys, 1, "episode reward arithmetic", 1.0, body)


def test_02_scheduler_scoring_invariants(capsys):
    def body():
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(1000):
            spec = cl.ClusterSpec(
                preset=cl.PRESETS[rng.integers(len(cl.PRESETS))],
                total_nodes=int(rng.integers(5, 41)),
                topology_kind=("internet", "urban")[rng.integers(2)],
                seed=int(rng.integers(1 << 31)))
            cluster = cl.build_cluster(spec)
            for node in range(cluster.n_nodes):
                frac = rng.uniform(0.0, 0.6)
                cluster.commit(node, frac * cluster.capacity_cpu[node],
                               frac * cluster.capacity_mem[node])
            fn = make_function(
                name="probe", cpu=float(rng.uniform(0.1, 1.0)),
                mem=float(rng.uniform(16.0, 384.0)),
                accel=("none", "gpu", "tpu")[rng.integers(3)],
                locality=("any", "cloud", "edge")[rng.integers(3)],
                image_bytes=float(rng.uniform(1e7, 2e9)),
                dataset_bytes=float(rng.uniform(0.0, 1e9)))
            table = sched._score_table(fn, cluster, sched.FIXED_WEIGHTS)
            ids = table.ids
            assert len(ids) > 0
            scores = score_columns(fn, cluster).take(ids, axis=0)

            for i in range(sched.N_WEIGHTS):
                one_hot = np.zeros(sched.N_WEIGHTS)
                one_hot[i] = 1.0
                assert np.array_equal(scores @ one_hot, scores[:, i])

            w = random_weights(rng)
            totals = scores @ w
            for lam in (0.5, 4.0):  # exact powers of two
                assert np.argmax(scores @ (lam * w)) == np.argmax(totals)
            pick = sched.place(fn, cluster, w, 1.0, rng)
            assert pick == sched.place(fn, cluster, 0.5 * w, 1.0, rng)

            assert np.max(np.abs(scores[:, 0] + scores[:, 1] - 1.0)) < 1e-12
            assert np.max(np.abs(scores[:, 2] - scores[:, 1])) < 1e-12
            checked += len(ids)
        return (f"one-hot, scaling-argmax, spread/pack sum, default-curve "
                f"identity on 1000 instances ({checked} node scores)")

    _criterion(capsys, 2, "scheduler scoring invariants", 30.0, body)


def test_03_benchmark_determinism_and_conservation(capsys):
    def body():
        space = default_space_set()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            scenario = sample_scenario(space, "train", rng, duration_s=50.0)
            cluster = cl.build_cluster(scenario.cluster_spec)
            first = se.run_benchmark(cluster, scenario.workload,
                                     sched.FIXED_WEIGHTS, scenario.options)
            second = se.run_benchmark(cluster, scenario.workload,
                                      sched.FIXED_WEIGHTS, scenario.options)
            assert first.score == second.score
            assert first.placements == second.placements
            for name, fm in first.metrics.per_function.items():
                other = second.metrics.per_function[name]
                assert (fm.mu_fet_s, fm.mu_wait_s, fm.n_success, fm.n_total) \
                    == (other.mu_fet_s, other.mu_wait_s, other.n_success,
                        other.n_total)

            arrivals = Counter(
                scenario.workload.functions[f][0].name
                for _, f in wl.generate_arrivals(scenario.workload))
            for name, fm in first.metrics.per_function.items():
                assert fm.n_total == arrivals.get(name, 0)
                assert 0 <= fm.n_success <= fm.n_total
            assert sum(f.n_total
                       for f in first.metrics.per_function.values()) \
                == sum(arrivals.values())

        # two identical servers, one replica, three requests, hand-traced
        cluster = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 2, "internet"))
        fn = make_function(name="f", cpu=1.0, mem=1024.0, image_bytes=1.25e8,
                           dataset_bytes=6.25e7, base_exec_s=1.0)
        requests = [(0.0, 0), (0.1, 0), (5.0, 0)]
        result = se.simulate_requests(
            cluster, wl.WorkloadSpec(((fn, 1.0),)), requests, sched.FIXED_WEIGHTS,
            se.SimOptions(min_replicas=1, max_replicas=1))
        pull = 0.002 + 1.25e8 / 1.25e8
        fetch = 0.002 + 6.25e7 / 1.25e8
        s1 = 1.0 + pull + fetch  # first request also pays the image pull
        s2 = 1.0 + fetch
        fm = result.metrics.per_function["f"]
        assert fm.n_success == 3
        assert fm.mu_fet_s == ((s1 + s2) + s2) / 3
        assert fm.mu_wait_s == (0.0 + (s1 - 0.1) + 0.0) / 3
        return ("100 seeded runs replay bit-identically, arrivals conserved; "
                "3-request golden trace exact")

    _criterion(capsys, 3, "benchmark determinism", 60.0, body)


def test_04_gp_posterior_matches_dense_oracle(capsys):
    def oracle(x_obs, y_obs, x_query):
        n = len(x_obs)
        gram = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                gram[i, j] = se_kernel(x_obs[i:i + 1], x_obs[j:j + 1])[0, 0]
        gram += GP_NOISE_VAR * np.eye(n)
        center = y_obs - y_obs.mean()
        weights = np.linalg.solve(gram, center)
        cross = np.empty((len(x_query), n))
        for q in range(len(x_query)):
            for j in range(n):
                cross[q, j] = se_kernel(x_query[q:q + 1], x_obs[j:j + 1])[0, 0]
        # mean is reported relative to the observed average (ranking only)
        mean = cross @ weights
        var = GP_SIGNAL_VAR - np.einsum(
            "qn,qn->q", cross, cross @ np.linalg.inv(gram))
        return mean, np.maximum(var, 0.0)

    def body():
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            x = rng.uniform(0.0, 1.0, (5, 3))
            y = rng.normal(0.0, 1.0, 5)
            queries = rng.uniform(0.0, 1.0, (20, 3))
            mean, var = gp_posterior(x, y, queries)
            ref_mean, ref_var = oracle(x, y, queries)
            worst = max(worst, float(np.max(np.abs(mean - ref_mean))),
                        float(np.max(np.abs(var - ref_var))))
        assert worst < 1e-8

        # At an observation the mean misses the centered score by exactly
        # noise * alpha, alpha = (K + noise I)^-1 y: allow that and 0.1 %.
        worst_interp = 0.0
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, (5, 3))
            y = rng.normal(0.0, 1.0, 5)
            center = y - y.mean()
            mean, _ = gp_posterior(x, y, x)
            alpha = np.linalg.solve(se_kernel(x, x) + GP_NOISE_VAR * np.eye(5), center)
            gap = np.abs(mean - center) / (GP_NOISE_VAR * np.abs(alpha))
            worst_interp = max(worst_interp, float(np.max(np.abs(gap - 1.0))))
        assert worst_interp < 1e-3
        return (f"50 problems x 20 queries, worst gap {worst:.1e} < 1e-8; "
                f"interpolation within noise x alpha to {worst_interp:.1e} < 1e-3")

    _criterion(capsys, 4, "gaussian-process oracle equivalence", 10.0, body)


def test_05_tpe_concentrates_on_good_region(capsys):
    def body():
        hits = 0
        means = []
        for rep in range(100):
            rng = np.random.default_rng(1000 + rep)
            x = np.clip(np.concatenate([rng.normal(0.2, 0.05, 8),
                                        rng.normal(0.8, 0.05, 24)]),
                        0.0, 1.0)[:, None]
            y = np.concatenate([rng.uniform(0.8, 1.0, 8),
                                rng.uniform(0.0, 0.3, 24)])
            suggestions = [suggest_tpe(x, y, rng)[0]
                           for _ in range(1000)]
            mean = float(np.mean(suggestions))
            means.append(mean)
            hits += abs(mean - 0.2) < abs(mean - 0.8)
        assert hits >= 95
        return (f"{hits}/100 repetitions concentrated near the good cluster "
                f"(grand mean {np.mean(means):.3f})")

    _criterion(capsys, 5, "parzen-estimator concentration", 30.0, body)


def _jitter(net, rng, scale=0.05):
    # zero-init biases put ReLU pre-activations exactly on the subgradient
    # kink, where one-sided numeric and analytic derivatives legitimately
    # disagree; a small offset moves probes off the corner.
    for b in net.biases:
        b += rng.normal(0.0, scale, size=b.shape)


def _fd_gradients(loss_fn, arrays, h=1e-5):
    grads = []
    for array in arrays:
        grad = np.zeros_like(array)
        flat, gflat = array.ravel(), grad.ravel()
        for i in range(flat.size):
            kept = flat[i]
            flat[i] = kept + h
            hi = loss_fn()
            flat[i] = kept - h
            lo = loss_fn()
            flat[i] = kept
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(grad)
    return grads


def _worst_relative(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    return worst


def test_06_agent_numerics(capsys, tmp_path):
    def body():
        rng = np.random.default_rng(0)
        config = SacConfig(obs_dim=3, act_dim=2, hidden=(8, 8), batch_size=4,
                           start_steps=0)
        # Central differences at h = 1e-5 need float64 rounding: in float32
        # the critic's gap reads 0.68, so only this agent is built in float64.
        with float64_networks():
            agent = SacAgent(config, seed=0)
        for net in (agent.policy, agent.q1, agent.q2):
            _jitter(net, rng)
        batch = 4
        obs = rng.normal(0.0, 1.0, (batch, 3))
        act = np.tanh(rng.normal(0.0, 1.0, (batch, 2)))
        target = rng.normal(0.0, 1.0, batch)

        def critic_loss():
            joined = np.concatenate([obs, act], axis=1)
            q1 = agent.q1.forward(joined)[:, 0]
            q2 = agent.q2.forward(joined)[:, 0]
            return float(np.mean((q1 - target) ** 2)
                         + np.mean((q2 - target) ** 2))

        agent.critic_gradients(obs, act, target)
        analytic = [agent.q1.grad_flat.copy(), agent.q2.grad_flat.copy()]
        numeric = _fd_gradients(critic_loss, [agent.q1.flat, agent.q2.flat])
        critic_err = _worst_relative(analytic, numeric)
        assert critic_err < 1e-4

        eps = rng.standard_normal((batch, 2))
        alpha = float(np.exp(agent.log_alpha[0]))

        def actor_loss():
            mean, _, log_std = agent._heads(obs)
            u = mean + np.exp(log_std) * eps
            a = np.tanh(u)
            logp = (-0.5 * eps ** 2 - log_std
                    - 0.5 * np.log(2.0 * np.pi)).sum(axis=1)
            logp -= np.log(1.0 - a ** 2 + 1e-6).sum(axis=1)
            joined = np.concatenate([obs, a], axis=1)
            q_min = np.minimum(agent.q1.forward(joined)[:, 0],
                               agent.q2.forward(joined)[:, 0])
            return float(np.mean(alpha * logp - q_min))

        agent.actor_gradients(obs, agent._heads(obs), eps)
        analytic = [agent.policy.grad_flat.copy()]
        numeric = _fd_gradients(actor_loss, [agent.policy.flat])
        actor_err = _worst_relative(analytic, numeric)
        assert actor_err < 1e-4

        draws = 0
        for net_seed in range(20):
            probe = SacAgent(SacConfig(obs_dim=6, act_dim=3, hidden=(32, 32)),
                             seed=net_seed)
            wide_obs = np.random.default_rng(net_seed).normal(0.0, 3.0,
                                                              (5000, 6))
            tanh_a = probe.act_batch(wide_obs)
            assert np.all(tanh_a >= -1.0) and np.all(tanh_a <= 1.0)
            boxed = env_action(tanh_a)
            assert np.all(boxed >= 0.0) and np.all(boxed <= 1.0)
            draws += len(wide_obs)
        assert draws == 100_000

        # exercise optimizer state, then require a bit-exact round-trip of
        # the policy, the checkpoint's one piece, in the networks' own dtype
        agent = SacAgent(config, seed=0)
        assert agent.dtype == np.float32
        for _ in range(5):
            batch = (rng.normal(size=(4, 3)), np.tanh(rng.normal(size=(4, 2))),
                     rng.normal(size=4), rng.normal(size=(4, 3)),
                     rng.integers(0, 2, 4).astype(float))
            agent.update(batch)
        path = tmp_path / "agent.ckpt"
        agent.save(path)
        clone = SacAgent.load(path)
        assert clone.policy.flat.tobytes() == agent.policy.flat.tobytes()
        probes = rng.normal(size=(8, 3))
        assert all(np.array_equal(agent.act(o), clone.act(o)) for o in probes)
        assert (clone.env_steps, clone.grad_steps) \
            == (agent.env_steps, agent.grad_steps)
        clone.save(tmp_path / "resaved.ckpt")
        assert (tmp_path / "resaved.ckpt").read_bytes() == path.read_bytes()
        return (f"float64 finite-difference gaps: critic {critic_err:.1e}, "
                f"actor {actor_err:.1e} < 1e-4; bounds held on 1e5 draws; "
                f"float32 policy checkpoint bit-identical")

    _criterion(capsys, 6, "agent numerics", 120.0, body)


def test_07_synthetic_learning_beats_random_search(capsys, tmp_path):
    def body():
        def env(mode):
            return SyntheticTuningEnv("himmelblau", mode=mode)

        probe = env("train")
        agent = SacAgent(SacConfig(obs_dim=probe.observation_dim,
                                   act_dim=probe.action_dim,
                                   hidden=(128, 128), lr=1e-3,
                                   batch_size=128, start_steps=1000),
                         seed=0)
        cfg = agent.config
        train_agent(agent, VectorEnv([env("train") for _ in range(4)]),
                    ReplayBuffer(cfg.replay_capacity, cfg.obs_dim, cfg.act_dim),
                    tmp_path, total_env_steps=10_000, seed=0, log_every=0)

        seeds = [int(s) for s in
                 np.random.default_rng(999).integers(2**31, size=100)]
        test_env = env("test")
        agent_best = np.array([run_tuning(agent, test_env, seed=s).best_score
                               for s in seeds])
        random_best = np.array([
            run_tuning(RandomSearchOptimizer(), test_env,
                       seed=s).best_score for s in seeds])
        outcome = scipy.stats.ttest_rel(agent_best, random_best,
                                        alternative="greater")
        assert agent_best.mean() >= random_best.mean()
        assert outcome.pvalue < 0.05
        return (f"agent {agent_best.mean():.4f} >= random search "
                f"{random_best.mean():.4f} on 100 held-out episodes "
                f"(paired p={outcome.pvalue:.1e})")

    _criterion(capsys, 7, "synthetic-landscape learning", 1800.0, body)


def test_08_model_based_tuners_beat_fixed_weights(capsys):
    def body():
        counts = {}
        for method in ("bo", "tpe"):
            env = FaasTuningEnv(mode="train")
            wins = 0
            for s in range(20):
                episode = run_tuning(OPTIMIZERS[method](), env, seed=1000 + s)
                wins += episode.best_score >= episode.r0
            counts[method] = wins
            assert wins >= 14, f"{method} matched fixed on only {wins}/20"
        return (f"bo {counts['bo']}/20, tpe {counts['tpe']}/20 scenarios "
                f">= fixed weights (need 14)")

    _criterion(capsys, 8, "model-based tuning beats fixed weights", 1200.0,
               body)


def test_09_evaluation_budget_and_observation_layout(capsys):
    def body():
        for method in ("fixed", "random", "bo", "tpe"):
            env = FaasTuningEnv(mode="train")
            scores = count_evaluations(env)
            run_tuning(OPTIMIZERS[method](), env, seed=5)
            assert len(scores) == 5, method

        env = FaasTuningEnv(mode="train")
        scores = count_evaluations(env)
        scout = SacAgent(SacConfig(obs_dim=env.observation_dim,
                                   act_dim=env.action_dim, hidden=(16, 16)),
                         seed=0)
        run_tuning(scout, env, seed=5)
        assert len(scores) == 5

        expected = len(FAAS_STATIC_NAMES) + 5 * (env.action_dim + 2) + 1
        assert expected == 71
        assert env.observation_dim == expected
        obs = env.reset(seed=3)
        shapes = {obs.shape}
        done = False
        while not done:
            obs, _, done, _ = env.step(np.full(8, 0.5))
            shapes.add(obs.shape)
        assert shapes == {(71,)}
        return ("all five methods spend exactly 1+4 benchmark evaluations; "
                "observation fixed at 20+5*10+1 = 71")

    _criterion(capsys, 9, "evaluation budget and observation layout", 60.0,
               body)


def test_10_cluster_agent_generalizes_across_presets(capsys, tmp_path):
    def body():
        def env(mode):
            return FaasTuningEnv(mode=mode, mask_level="coarse")

        probe = env("train")
        agent = SacAgent(SacConfig(obs_dim=probe.observation_dim,
                                   act_dim=probe.action_dim, hidden=(64, 64),
                                   lr=1e-3, batch_size=64, start_steps=400),
                         seed=0)
        cfg = agent.config
        train_agent(agent, VectorEnv([env("train") for _ in range(4)]),
                    ReplayBuffer(cfg.replay_capacity, cfg.obs_dim, cfg.act_dim),
                    tmp_path, total_env_steps=2000, seed=0, log_every=0)

        test_env = env("test")
        presets_seen = set()
        used_seeds = []
        agent_best = []
        for seed in range(200, 300):
            if len(presets_seen) == len(cl.PRESETS) and len(used_seeds) >= 20:
                break
            obs = test_env.reset(seed=seed)
            # The reset's draw, redrawn from its seed and checked by digest.
            scenario = sample_scenario(test_env.space, "test", np.random.default_rng(seed),
                                       duration_s=test_env.duration_s,
                                       functions=test_env.functions)
            assert scenario.digest() == test_env.episode.scenario_digest
            presets_seen.add(scenario.cluster_spec.preset)
            assert 200 <= scenario.cluster_spec.total_nodes <= 400
            total_rps = sum(rate for _, rate in scenario.workload.functions)
            assert 5.0 - 1e-9 <= total_rps <= 30.0 + 1e-9
            done = False
            while not done:
                action = agent.act(obs)
                assert action.shape == (8,)
                assert np.all(action >= 0.0) and np.all(action <= 1.0)
                obs, _, done, _ = test_env.step(action)
            used_seeds.append(seed)
            agent_best.append(test_env.episode.best_score)
        assert presets_seen == set(cl.PRESETS)

        fixed_best = [run_tuning(FixedOptimizer(), test_env,
                                 seed=s).best_score for s in used_seeds]
        agent_mean = float(np.mean(agent_best))
        fixed_mean = float(np.mean(fixed_best))
        assert agent_mean >= fixed_mean
        return (f"all {len(cl.PRESETS)} presets covered in "
                f"{len(used_seeds)} test scenarios, actions in bounds; "
                f"agent {agent_mean:.4f} >= fixed weights {fixed_mean:.4f}")

    _criterion(capsys, 10, "cluster agent generalization", 1800.0, body)
