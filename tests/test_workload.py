from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from schedtune import workload as wl
from schedtune.errors import ConfigError
from tests import arrivals_oracle
from tests.conftest import make_function


def test_catalog_has_eight_functions(function_catalog):
    assert len(function_catalog) == 8
    names = {fn.name for fn in function_catalog}
    assert set(wl.TRAIN_FUNCTION_NAMES) <= names
    assert len(wl.TRAIN_FUNCTION_NAMES) == 5


def test_catalog_fields_are_sane(function_catalog):
    for fn in function_catalog:
        assert fn.req_cpu > 0 and fn.req_mem > 0
        assert fn.base_exec_s > 0
        assert fn.image_bytes >= 0 and fn.dataset_bytes >= 0


def test_train_catalog_subset(function_catalog):
    train = wl.train_catalog()
    assert [fn.name for fn in train] == list(wl.TRAIN_FUNCTION_NAMES)


def test_execution_seconds_speed_factor(device_catalog):
    fn = make_function(base_exec_s=2.0)
    assert wl.execution_seconds(fn, device_catalog["xeon_cpu"]) == 2.0
    assert wl.execution_seconds(fn, device_catalog["rpi3"]) == 24.0


def test_execution_seconds_accelerator_match(device_catalog):
    fn = make_function(accel="gpu", base_exec_s=2.0)
    plain = wl.execution_seconds(fn, device_catalog["xeon_cpu"])
    matched = wl.execution_seconds(fn, device_catalog["xeon_gpu"])
    assert matched == plain * 0.2
    # tpu preference is not satisfied by a gpu
    fn_tpu = make_function(accel="tpu", base_exec_s=2.0)
    assert wl.execution_seconds(fn_tpu, device_catalog["xeon_gpu"]) == 2.0
    assert wl.execution_seconds(fn_tpu, device_catalog["coral_devboard"]) == 2.0 * 7.0 * 0.2


def _workload(rps=4.0, n=2, duration=100.0, seed=0):
    fns = tuple((make_function(name=f"f{i}"), rps) for i in range(n))
    return wl.WorkloadSpec(functions=fns, duration_s=duration, seed=seed)


def test_arrivals_sorted_and_within_horizon():
    reqs = wl.generate_arrivals(_workload(seed=3))
    times = [t for t, _ in reqs]
    assert times == sorted(times)
    assert all(0.0 < t < 100.0 for t in times)


def test_arrivals_deterministic_per_seed():
    a = wl.generate_arrivals(_workload(seed=11))
    b = wl.generate_arrivals(_workload(seed=11))
    c = wl.generate_arrivals(_workload(seed=12))
    assert a == b
    assert a != c


def test_arrival_counts_match_poisson_moments():
    # Summed over many seeds the count is Poisson(n_seeds * rate * T);
    # check the total within six standard deviations.
    rate, duration, n_seeds = 5.0, 50.0, 100
    total = 0
    for seed in range(n_seeds):
        spec = wl.WorkloadSpec(functions=((make_function(), rate),),
                               duration_s=duration, seed=seed)
        total += len(wl.generate_arrivals(spec))
    expected = n_seeds * rate * duration
    assert abs(total - expected) < 6.0 * np.sqrt(expected)


def test_interarrival_gaps_are_exponential():
    # KS test on one function's gaps at alpha=0.01 with ~1e4 samples.
    rate = 100.0
    spec = wl.WorkloadSpec(functions=((make_function(), rate),),
                           duration_s=100.0, seed=21)
    times = [t for t, _ in wl.generate_arrivals(spec)]
    gaps = np.diff(np.array(times))
    assert len(gaps) > 8000
    result = stats.kstest(gaps, "expon", args=(0.0, 1.0 / rate))
    assert result.pvalue > 0.01


def test_multi_function_traces_are_independent_streams():
    spec = _workload(rps=50.0, n=2, seed=5)
    reqs = wl.generate_arrivals(spec)
    per = {}
    for t, f in reqs:
        per.setdefault(spec.functions[f][0].name, []).append(t)
    assert set(per) == {"f0", "f1"}
    for times in per.values():
        gaps = np.diff(np.array(times))
        result = stats.kstest(gaps, "expon", args=(0.0, 1.0 / 50.0))
        assert result.pvalue > 0.01


def _oracle_spec(log_rates, duration, seed):
    fns = tuple((make_function(name=f"f{i}"), 10.0**r) for i, r in enumerate(log_rates))
    return wl.WorkloadSpec(functions=fns, duration_s=duration, seed=seed)


# Rates from 1e-3 to 1e3 rps over horizons down to a microsecond.
ORACLE_SPECS = st.builds(
    _oracle_spec,
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
    st.floats(1e-6, 1e-2) | st.floats(1e-2, 8.0),
    st.integers(0, 2**32 - 1))
# A stream whose first gap passes the horizon, and one that outgrows its
# first block of gaps; test_oracle_examples_cover_the_edge_streams pins both.
EMPTY_STREAM = ([-3.0, 0.0], 0.5, 1)
REGROWN_STREAM = ([0.0, 3.0, 1.0], 3.0, 2)


@settings(max_examples=150, deadline=None)
@given(ORACLE_SPECS)
@example(_oracle_spec(*EMPTY_STREAM))
@example(_oracle_spec(*REGROWN_STREAM))
def test_arrivals_match_scalar_oracle(spec):
    assert wl.generate_arrivals(spec) == arrivals_oracle.arrival_pairs(spec)


def test_oracle_examples_cover_the_edge_streams():
    empty = wl.generate_arrivals(_oracle_spec(*EMPTY_STREAM))
    assert empty and all(f == 1 for _, f in empty)
    regrown = wl.generate_arrivals(_oracle_spec(*REGROWN_STREAM))
    assert sum(f == 1 for _, f in regrown) > wl.ARRIVAL_BLOCK


def test_workload_validation():
    with pytest.raises(ConfigError):
        wl.WorkloadSpec(functions=())
    with pytest.raises(ConfigError):
        wl.WorkloadSpec(functions=((make_function(), 0.0),))
    fn = make_function()
    with pytest.raises(ConfigError):
        wl.WorkloadSpec(functions=((fn, 1.0), (fn, 2.0)))
    with pytest.raises(ConfigError):
        make_function(cpu=-1.0)


@pytest.mark.parametrize("field", ["req_cpu", "req_mem", "image_bytes",
                                   "dataset_bytes", "base_exec_s"])
def test_function_spec_rejects_nan(field):
    # Every comparison with NaN is False, so the checks must be written to fail.
    with pytest.raises(ConfigError, match="probe: "):
        replace(make_function(), **{field: float("nan")})
