import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedtune import cluster as cl
from schedtune.errors import ConfigError


def test_device_catalog_covers_nine_classes(device_catalog):
    assert len(device_catalog) == 9
    speeds = [d.speed_factor for d in device_catalog.values()]
    assert min(speeds) == 1.0
    assert max(speeds) == 12.0
    for dev in device_catalog.values():
        assert dev.cpu_cores >= 1
        assert dev.memory_mb > 0
        assert dev.accelerator in cl.ACCELERATORS
        assert dev.locality in cl.LOCALITIES


def _fractions(preset):
    return {device.name: frac for device, frac in cl.load_presets()[preset]}


def test_preset_distributions_sum_to_one():
    presets = cl.load_presets()
    assert tuple(presets) == cl.PRESETS
    for pairs in presets.values():
        fracs = [frac for _, frac in pairs]
        assert abs(sum(fracs) - 1.0) < 1e-9
        assert all(0.0 <= f <= 1.0 for f in fracs)


def test_pinned_preset_fractions():
    assert _fractions("cloud_cpu")["xeon_cpu"] == 0.71
    assert _fractions("cloud_gpu")["xeon_gpu"] == 0.70
    assert _fractions("edge_sbc")["nvidia_tx2"] == 0.0


def test_cloud_cpu_hundred_nodes_gives_71_xeons():
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 100))
    xeons = [d for d in c.devices if d.name == "xeon_cpu"]
    assert len(xeons) == 71
    assert c.n_nodes == 100


def test_single_node_cluster_uses_largest_fraction_class():
    for preset in cl.PRESETS:
        c = cl.build_cluster(cl.ClusterSpec(preset, 1))
        dist = _fractions(preset)
        best = max(dist, key=lambda k: (dist[k], -list(dist).index(k)))
        assert c.n_nodes == 1
        assert c.devices[0].name == best


def test_largest_remainder_exact_total():
    rng = np.random.default_rng(0)
    for _ in range(200):
        raw = rng.uniform(0, 1, 9)
        fracs = list(raw / raw.sum())
        total = int(rng.integers(1, 500))
        counts = cl.largest_remainder_counts(fracs, total)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)
        # never off by a full node from the real quota
        assert all(abs(c - f * total) < 1.0 for c, f in zip(counts, fracs))


def test_build_is_pure_function_of_spec():
    rng = np.random.default_rng(42)
    for _ in range(100):
        spec = cl.ClusterSpec(
            preset=cl.PRESETS[rng.integers(len(cl.PRESETS))],
            total_nodes=int(rng.integers(1, 120)),
            topology_kind=cl.TOPOLOGY_KINDS[rng.integers(2)],
            seed=int(rng.integers(2**31)),
        )
        a, b = cl.build_cluster(spec), cl.build_cluster(spec)
        assert a == b
        for name in ("alloc_cpu", "store_latency", "store_bw"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


# SHA-256 over every built array and each node's device name, per preset, for
# both topologies at 1, 37 and 400 nodes with the seed 1000 + nodes.  The
# registry rows, once arrays of their own, are hashed under their old names
# from store 0's row, which pulls read.
PINNED_CLUSTER_SHA256 = {
    "cloud_cpu": "8937fcde45c982ec6bd385ab9544eb384e06b67f7d31b815595da2789e5b967b",
    "cloud_gpu": "c27aaa57d2b168db367e4da1fc70d24c424faa29556a1789dcb8dd108d29a39c",
    "edge_cloudlet": "b41d81bae0ab104326575017d22e3e4d06f0f3331fde3cd3576a6b7acfb6acca",
    "edge_gpu": "045fcec148c6a30711d6ea09a0548037a1e18aa1daf4d54c8f4809a1b3e40fa4",
    "edge_sbc": "32b7943f1dde9bcbe02438beffd4ca08be19dd904b8a77d1bc226743e6a90976",
    "edge_tpu": "df5af63c9ab78e239ec7accd932f999cfb50cde5df8993b512a82ccf790157a5",
    "hybrid_balanced": "8d8ac012e653ec3d8f83fda5e39d9e62998641fdb593517952f073895f8a7237",
    "hybrid_balanced_jetson":
        "9796dcc07ed64d3d059e76db1c3d26b4f3264e9f21aa3482115fb87433e28e57",
}


@pytest.mark.parametrize("preset", cl.PRESETS)
def test_built_clusters_are_pinned(preset):
    digest = hashlib.sha256()
    for topology in cl.TOPOLOGY_KINDS:
        for n in (1, 37, 400):
            c = cl.build_cluster(cl.ClusterSpec(preset, n, topology, seed=1000 + n))
            arrays = {name: getattr(c, name) for name in (
                "capacity_cpu", "capacity_mem", "alloc_cpu", "alloc_mem",
                "locality_code", "accel_code")}
            arrays.update(registry_latency=c.store_latency[0], registry_bw=c.store_bw[0],
                          store_latency=c.store_latency, store_bw=c.store_bw)
            for name, arr in arrays.items():
                digest.update(f"{name}{arr.dtype.str}{arr.shape}".encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
            digest.update(" ".join(d.name for d in c.devices).encode())
    assert digest.hexdigest() == PINNED_CLUSTER_SHA256[preset]


def test_node_capacity_matches_device_class(small_cluster):
    assert small_cluster.n_nodes == len(small_cluster.devices)
    for node, device in enumerate(small_cluster.devices):
        assert small_cluster.capacity_cpu[node] == device.cpu_cores
        assert small_cluster.capacity_mem[node] == device.memory_mb
    assert not small_cluster.alloc_cpu.any()
    assert not small_cluster.alloc_mem.any()


def test_internet_path_hand_value():
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 4, "internet"))
    # two hops through the core switch at uniform bandwidth
    expected = (0.001 + 0.001) + 2.5e8 / 1.25e8
    assert c.store_latency.shape == (1, 4)
    assert c.pull_times(2.5e8).shape == c.fetch_times(2.5e8).shape == (4,)
    for node in range(4):
        assert c.pull_times(2.5e8)[node] == expected
        assert c.fetch_times(2.5e8)[node] == expected


# Per urban layer: the latencies and bandwidths to the cloud, metro and edge
# stores; the registry sits beside the cloud store, so pulls share its path.
# A path runs over the node's link, the switch chain (each switch-to-switch
# link at the slower layer's parameters), then the target's link.
URBAN_PATHS = {
    "cloud": ((0.002, 0.011, 0.026000000000000002), (1.25e8, 2.5e7, 1.25e7)),
    "metro": ((0.011, 0.01, 0.025), (2.5e7, 2.5e7, 1.25e7)),
    "edge": ((0.026000000000000002, 0.025, 0.02), (1.25e7, 1.25e7, 1.25e7)),
}


def _urban_cluster():
    # hybrid preset guarantees both cloud and edge devices at this size
    return cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 60, "urban", seed=9))


def _nodes_by_layer(c):
    """Node ids per urban layer, told apart by their cloud-store latency."""
    layer_by_latency = {lats[0]: layer for layer, (lats, _) in URBAN_PATHS.items()}
    by_layer = {}
    for node in range(c.n_nodes):
        layer = layer_by_latency[c.store_latency[0, node]]
        by_layer.setdefault(layer, []).append(node)
    return by_layer


def test_urban_cross_layer_slower_than_intra_layer():
    c = _urban_cluster()
    by_layer = _nodes_by_layer(c)
    assert set(by_layer) == {"cloud", "metro", "edge"}

    nbytes = 1e8
    for layer, ids in by_layer.items():
        a = ids[0]
        own = cl.URBAN_LAYERS.index(layer)
        intra = c.store_latency[own, a] + nbytes / c.store_bw[own, a]
        for store, other_layer in enumerate(cl.URBAN_LAYERS):
            if other_layer == layer:
                continue
            cross = c.store_latency[store, a] + nbytes / c.store_bw[store, a]
            faster = min(layer, other_layer, key=lambda l: cl.URBAN_LATENCY_S[l])
            assert c.store_bw[store, a] < cl.URBAN_BANDWIDTH_BPS[faster]
            if layer == faster:
                assert cross > intra


def test_urban_cross_layer_hand_value():
    c = _urban_cluster()
    by_layer = _nodes_by_layer(c)
    nbytes = 1e8
    for layer, ids in by_layer.items():
        store_lat, store_bw = URBAN_PATHS[layer]
        for node in ids:
            assert tuple(c.store_latency[:, node]) == store_lat
            assert tuple(c.store_bw[:, node]) == store_bw
            assert c.pull_times(nbytes)[node] == store_lat[0] + nbytes / store_bw[0]
            # cloud devices sit on the cloud layer, edge devices below it
            assert (layer == "cloud") == (c.devices[node].locality == "cloud")
    edge_a = by_layer["edge"][0]
    assert c.pull_times(nbytes)[edge_a] == 0.026000000000000002 + nbytes / 1.25e7


def test_urban_has_one_store_per_layer_and_registry():
    c = _urban_cluster()
    assert c.store_latency.shape == c.store_bw.shape == (3, c.n_nodes)
    # registry sits in the cloud layer: pulling to a cloud node is fastest
    by_layer = _nodes_by_layer(c)
    t_cloud = c.pull_times(1e8)[by_layer["cloud"][0]]
    t_edge = c.pull_times(1e8)[by_layer["edge"][0]]
    assert t_cloud < t_edge


def test_data_fetch_uses_nearest_store():
    c = _urban_cluster()
    nbytes = 5e7
    layer_by_node = {n: layer for layer, ids in _nodes_by_layer(c).items() for n in ids}
    for node in range(c.n_nodes):
        store_lat, store_bw = URBAN_PATHS[layer_by_node[node]]
        direct = min(lat + nbytes / bw for lat, bw in zip(store_lat, store_bw))
        assert c.fetch_times(nbytes)[node] == direct


def test_commit_updates_node_and_arrays(small_cluster):
    small_cluster.commit(3, 2.0, 512.0)
    small_cluster.commit(3, 1.0, 0.0)
    assert small_cluster.alloc_cpu[3] == 3.0
    assert small_cluster.alloc_mem[3] == 512.0


def test_clone_is_independent(small_cluster):
    small_cluster.commit(0, 1.0, 128.0)
    small_cluster.add_image(0, "img")
    other = small_cluster.clone()
    other.commit(0, 1.0, 128.0)
    other.add_image(1, "img")
    assert small_cluster.alloc_cpu[0] == 1.0
    assert other.alloc_cpu[0] == 2.0
    assert small_cluster.image_mask("img").tolist() == [True] + [False] * 39
    assert other.image_mask("img")[:2].tolist() == [True, True]


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        cl.ClusterSpec("nonsense", 10)
    with pytest.raises(ConfigError):
        cl.ClusterSpec("cloud_cpu", 0)
    with pytest.raises(ConfigError):
        cl.ClusterSpec("cloud_cpu", 10, "mesh")
    with pytest.raises(ConfigError):
        cl.DeviceClass("bad", 0, 1.0, 1024)
    with pytest.raises(ConfigError):
        cl.DeviceClass("bad", 2, 13.0, 1024)


@settings(max_examples=40, deadline=None)
@given(total=st.integers(min_value=1, max_value=400),
       preset=st.sampled_from(cl.PRESETS))
def test_build_count_always_matches_total(total, preset):
    c = cl.build_cluster(cl.ClusterSpec(preset, total))
    assert c.n_nodes == total
