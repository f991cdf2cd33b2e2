import contextlib

import numpy as np
import pytest

from schedtune import cluster as cl
from schedtune import nn
from schedtune import scheduler as sched
from schedtune import workload as wl


@pytest.fixture(scope="session")
def device_catalog():
    """Every device class some preset names, by name."""
    return {device.name: device
            for pairs in cl.load_presets().values() for device, _ in pairs}


@pytest.fixture(scope="session")
def function_catalog():
    return wl.catalog()


@pytest.fixture()
def small_cluster():
    return cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 40, "internet", seed=5))


def make_function(name="probe", cpu=1.0, mem=1024.0, accel="none", locality="any",
                  image_bytes=1e8, dataset_bytes=1e7, base_exec_s=1.0):
    return wl.FunctionSpec(
        name=name, req_cpu=cpu, req_mem=mem,
        preferred_accelerator=accel, preferred_locality=locality,
        image_name=f"{name}-image", image_bytes=image_bytes,
        dataset_bytes=dataset_bytes, base_exec_s=base_exec_s,
    )


def score_columns(fn, cluster):
    """The function's (n_nodes, 8) scores, built on a clone so that the
    cluster's own tables stay as they are: column j is a fresh table's
    totals under the one-hot weights of column j.  Every other product is
    +-0, so the column is exact up to the sign of a zero; compare with
    ``==``, not bytes."""
    twin = cluster.clone()
    return np.column_stack([sched._score_table(fn, twin, one_hot).totals
                            for one_hot in np.eye(sched.N_WEIGHTS)])


@pytest.fixture()
def probe_function():
    return make_function()


def random_weights(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.0, 1.0, 8)


@contextlib.contextmanager
def float64_networks():
    """Inside the block, networks, optimizers and replay buffers are built in
    float64: finite differences and bit-for-bit oracles need its rounding."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "DTYPE", np.float64)
        yield


@pytest.fixture()
def float64_nets():
    with float64_networks():
        yield


def make_mlp(sizes, rng):
    """A network over an arena of its own, in ``nn.DTYPE`` as it is now."""
    _, (flat, grad_flat) = nn.arena([nn.Mlp.param_count(sizes)] * 2)
    return nn.Mlp(sizes, rng, flat, grad_flat)
