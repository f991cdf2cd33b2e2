import contextlib
import ctypes
import glob
import os

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


def training_state(agent):
    """``(name, array)`` of every piece of a trained agent's state, in arena
    order, each named by the attribute that holds it: the five networks'
    ``flat``, ``log_alpha``, then each optimizer's first moments and its
    second (``opt_critic``'s 0 is q1, its 1 is q2)."""
    nets = [(name, getattr(agent, name).flat)
            for name in ("policy", "q1", "q2", "q1_target", "q2_target")]
    moments = [(f"{name}.{moment}{i}", a)
               for name in ("opt_policy", "opt_critic", "opt_alpha") for moment in "mv"
               for i, a in enumerate(getattr(getattr(agent, name), moment))]
    return nets + [("log_alpha", agent.log_alpha)] + moments


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs, as OpenBLAS names it
    (``SkylakeX``, ``Haswell``, ...).  Float32 GEMM results differ in their
    last bits between kernels, so a pin of BLAS output has one value per
    kernel.  A BLAS whose kernel cannot be read fails the calling test."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        [lib] = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
        corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    except (ValueError, OSError, AttributeError) as exc:
        pytest.fail(f"cannot read the BLAS kernel from numpy's bundled OpenBLAS in "
                    f"{os.path.normpath(libs)}: {exc}")
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pinned_for_blas_kernel(pins: dict):
    """``pins[kernel]`` for the kernel :func:`blas_kernel` reads.  A kernel
    with no pinned value fails the calling test, naming the kernel."""
    kernel = blas_kernel()
    if kernel not in pins:
        pytest.fail(f"no value pinned for BLAS kernel {kernel!r}, only for {sorted(pins)}; "
                    f"capture one under OPENBLAS_CORETYPE={kernel}")
    return pins[kernel]
