"""Heterogeneous cluster inventories and their network paths.

A cluster is built from a preset distribution over nine device classes
(largest-remainder rounding turns fractions into node counts) and wired into
one of two fixed tree topologies, each a chain of layer switches:

* ``internet``: a single core switch, uniform link bandwidth and latency.
* ``urban``: three layers (cloud, metro, edge) with strictly decreasing
  bandwidth and increasing latency towards the edge.  Cloud devices attach to
  the cloud switch; edge devices are split between the metro and edge
  switches by the build seed.

Every node, and one data store per layer, hangs off its layer's switch by a
link with that layer's parameters; the image registry hangs off the top
switch by a top-layer link, exactly like store 0, so a pull travels store 0's
path.  The link between two adjacent switches runs at the lower layer's
parameters.  Scheduling only ever needs node-to-registry and node-to-store
transfers, so the builder computes them in closed form per node layer: the
summed link latency along the path plus the payload size divided by the
bottleneck bandwidth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as _data
from .errors import ConfigError

ACCELERATORS = ("none", "gpu", "tpu")
LOCALITIES = ("cloud", "edge")
TOPOLOGY_KINDS = ("internet", "urban")

# Broad class of each preset, used as a coarse observation feature.
PRESET_CLASS = {
    "cloud_cpu": "cloud",
    "cloud_gpu": "cloud",
    "edge_cloudlet": "edge",
    "edge_gpu": "edge",
    "edge_sbc": "edge",
    "edge_tpu": "edge",
    "hybrid_balanced": "hybrid",
    "hybrid_balanced_jetson": "hybrid",
}
PRESETS = tuple(PRESET_CLASS)

INTERNET_BANDWIDTH_BPS = 1.25e8
INTERNET_LATENCY_S = 1e-3

URBAN_LAYERS = ("cloud", "metro", "edge")
URBAN_BANDWIDTH_BPS = {"cloud": 1.25e8, "metro": 2.5e7, "edge": 1.25e7}
URBAN_LATENCY_S = {"cloud": 1e-3, "metro": 5e-3, "edge": 1e-2}

# (latency, bandwidth) of each topology's layers, top layer first.
_LAYER_LINKS = {
    "internet": ((INTERNET_LATENCY_S, INTERNET_BANDWIDTH_BPS),),
    "urban": tuple((URBAN_LATENCY_S[layer], URBAN_BANDWIDTH_BPS[layer])
                   for layer in URBAN_LAYERS),
}


@dataclass(frozen=True)
class DeviceClass:
    """Hardware profile shared by all nodes of one class."""

    name: str
    cpu_cores: int
    speed_factor: float
    memory_mb: int
    accelerator: str = "none"
    locality: str = "cloud"

    def __post_init__(self):
        if self.cpu_cores < 1:
            raise ConfigError(f"{self.name}: cpu_cores must be >= 1")
        if self.memory_mb <= 0:
            raise ConfigError(f"{self.name}: memory_mb must be > 0")
        if not 1.0 <= self.speed_factor <= 12.0:
            raise ConfigError(f"{self.name}: speed_factor must lie in [1, 12]")
        if self.accelerator not in ACCELERATORS:
            raise ConfigError(f"{self.name}: unknown accelerator {self.accelerator!r}")
        if self.locality not in LOCALITIES:
            raise ConfigError(f"{self.name}: unknown locality {self.locality!r}")


_load_devices = _data.entry_loader("devices.json", DeviceClass)


@dataclass(frozen=True)
class ClusterSpec:
    preset: str
    total_nodes: int
    topology_kind: str = "internet"
    seed: int = 0

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}, expected one of {PRESETS}")
        if self.total_nodes < 1:
            raise ConfigError("total_nodes must be >= 1")
        if self.topology_kind not in TOPOLOGY_KINDS:
            raise ConfigError(
                f"unknown topology_kind {self.topology_kind!r}, expected one of {TOPOLOGY_KINDS}"
            )


@dataclass
class Cluster:
    """A built inventory: node i's device class is ``devices[i]``, and
    per-node arrays serve vectorized scoring.

    Capacities and allocations live only in these arrays, and allocations
    change through :meth:`commit` alone.  The path arrays hold, per node, the
    latency and bottleneck bandwidth to each data store (one row per store,
    top layer first); the registry hangs off the top switch like store 0, so
    pulls read row 0.  :meth:`fetch_times` and :meth:`pull_times` turn them
    into every node's transfer time, for scoring and the engine alike.
    ``images`` maps each image name that some node has pulled to a boolean
    array over the nodes, so scoring reads a whole candidate set's cache
    state with one fancy index; images change through :meth:`add_image`
    alone.  ``static_scores`` is the scheduler's cache of the score
    templates, which depend only on the nodes and their paths, keyed by
    function.  :meth:`clone` shares it; ``dataclasses.replace`` starts it
    empty, since the replaced fields may be the very paths it was computed
    from.
    ``score_tables`` is the scheduler's cache of score tables, one per
    function scored on this copy, each holding every node's weighted total
    and feasibility.  ``changes`` logs the node id of every :meth:`commit`
    and :meth:`add_image`, in order; the scheduler reads it to find the
    nodes whose totals a table must recompute.  :meth:`clone` and
    ``dataclasses.replace`` start both empty.
    """

    spec: ClusterSpec
    devices: tuple[DeviceClass, ...]
    capacity_cpu: np.ndarray = field(compare=False, repr=False)
    capacity_mem: np.ndarray = field(compare=False, repr=False)
    alloc_cpu: np.ndarray = field(compare=False, repr=False)
    alloc_mem: np.ndarray = field(compare=False, repr=False)
    locality_code: np.ndarray = field(compare=False, repr=False)
    accel_code: np.ndarray = field(compare=False, repr=False)
    store_latency: np.ndarray = field(compare=False, repr=False)
    store_bw: np.ndarray = field(compare=False, repr=False)
    images: dict[str, np.ndarray] = field(default_factory=dict, compare=False, repr=False)
    static_scores: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    score_tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    changes: list[int] = field(default_factory=list, init=False, compare=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.devices)

    def commit(self, node_id: int, cpu: float, mem: float) -> None:
        """Reserve resources on a node (warm-up and autoscale placements)."""
        self.alloc_cpu[node_id] += cpu
        self.alloc_mem[node_id] += mem
        self.changes.append(node_id)

    def add_image(self, node_id: int, image_name: str) -> None:
        if image_name not in self.images:
            self.images[image_name] = np.zeros(self.n_nodes, dtype=bool)
        self.images[image_name][node_id] = True
        self.changes.append(node_id)

    def image_mask(self, image_name: str) -> np.ndarray:
        """Boolean array over the nodes: which ones hold the image."""
        cached = self.images.get(image_name)
        return np.zeros(self.n_nodes, dtype=bool) if cached is None else cached

    def fetch_times(self, nbytes: float) -> np.ndarray:
        """Per node, the transfer time of ``nbytes`` from the nearest data store."""
        return (self.store_latency + nbytes / self.store_bw).min(axis=0)

    def pull_times(self, nbytes: float) -> np.ndarray:
        """Per node, the transfer time of ``nbytes`` from the registry."""
        return self.store_latency[0] + nbytes / self.store_bw[0]

    def clone(self) -> "Cluster":
        """Independent copy of the allocations and image caches, with no
        score tables and an empty change log; the devices, the read-only
        arrays and ``static_scores`` stay shared."""
        twin = replace(self, alloc_cpu=self.alloc_cpu.copy(),
                       alloc_mem=self.alloc_mem.copy(),
                       images={name: cached.copy() for name, cached in self.images.items()})
        twin.static_scores = self.static_scores
        return twin


def load_presets(data_dir=None) -> dict[str, tuple[tuple[DeviceClass, float], ...]]:
    """Each preset's (device class, fraction) pairs in file order, from one
    read of ``devices.json`` and ``presets.json``.  Every preset in PRESETS
    is checked here, whether or not a scenario ever draws it: it must be
    present, name known devices only, and have fractions in [0, 1] that sum
    to 1."""
    directory = _data.data_dir(data_dir)
    devices = {device.name: device for device in _load_devices(directory)}
    path, table = _data.load_json("presets.json", dict, directory)
    dists = {preset: {name: _data.check(frac, float, f"{path}: presets.{preset}.{name}")
                      for name, frac in _data.check(dist, dict, f"{path}: presets.{preset}")
                      .items()}
             for preset, dist in table.items()}
    presets = {}
    for preset in PRESETS:
        where = f"{path}: presets.{preset}"
        if preset not in dists:
            raise ConfigError(f"{where}: missing")
        dist = dists[preset]
        for name, frac in dist.items():
            if name not in devices:
                raise ConfigError(f"{where}.{name}: unknown device")
            if not 0.0 <= frac <= 1.0:
                raise ConfigError(
                    f"{where}.{name}: expected a fraction in [0, 1], got {frac!r}")
        total = math.fsum(dist.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"{where}: fractions sum to {total:.12g}, expected 1")
        presets[preset] = tuple((devices[name], frac) for name, frac in dist.items())
    return presets


def largest_remainder_counts(fractions: list[float], total: int) -> list[int]:
    """Integer apportionment of ``total`` by the largest-remainder method.

    Ties in the fractional remainders are broken by position, so the result
    is deterministic for a fixed input order.
    """
    quotas = [f * total for f in fractions]
    counts = [int(math.floor(q)) for q in quotas]
    short = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def _layer_path(links, node_layer: int, store_layer: int) -> tuple[float, float]:
    """Summed latency and bottleneck bandwidth from a node on ``node_layer``
    to the data store on ``store_layer``.

    The hops are the node's own link, the switch chain, then the store's
    link.  The latency is summed left to right in that order (not with
    ``sum``, which compensates rounding from Python 3.12 on), so an edge
    node's latency to the cloud store is 0.01 + 0.01 + 0.005 + 0.001 =
    0.026000000000000002.
    """
    step = 1 if store_layer >= node_layer else -1
    chain = [max(i, i + step) for i in range(node_layer, store_layer, step)]
    hops = [links[layer] for layer in (node_layer, *chain, store_layer)]
    latency = 0.0
    for lat, _ in hops:
        latency += lat
    return latency, min(bw for _, bw in hops)


def build_cluster(spec: ClusterSpec, presets=None) -> Cluster:
    """Materialize a cluster from a spec.  Pure function of the spec and
    ``presets``, which defaults to a fresh :func:`load_presets`."""
    pairs = (load_presets() if presets is None else presets)[spec.preset]
    counts = largest_remainder_counts([frac for _, frac in pairs], spec.total_nodes)

    devices = tuple(device for (device, _), count in zip(pairs, counts)
                    for _ in range(count))

    # Layer index per node: cloud devices and every internet node sit on the
    # top layer; each urban edge device draws metro (0) or edge (1), in node
    # order.
    rng = np.random.default_rng(spec.seed)
    layer = np.array([
        0 if spec.topology_kind == "internet" or device.locality == "cloud"
        else 1 + int(rng.integers(2))
        for device in devices])
    # paths[s, l] = (latency, bandwidth) from a node on layer l to store s.
    links = _LAYER_LINKS[spec.topology_kind]
    paths = np.array([[_layer_path(links, lay, s) for lay in range(len(links))]
                      for s in range(len(links))])

    n = len(devices)
    return Cluster(
        spec=spec,
        devices=devices,
        capacity_cpu=np.array([float(d.cpu_cores) for d in devices]),
        capacity_mem=np.array([float(d.memory_mb) for d in devices]),
        alloc_cpu=np.zeros(n),
        alloc_mem=np.zeros(n),
        locality_code=np.array([LOCALITIES.index(d.locality) for d in devices]),
        accel_code=np.array([ACCELERATORS.index(d.accelerator) for d in devices]),
        store_latency=paths[:, layer, 0],
        store_bw=paths[:, layer, 1],
    )
