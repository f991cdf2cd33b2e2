"""Synthetic 2-D tuning environments built on classic test landscapes.

These environments share the episode protocol of the cluster benchmark but
evaluate in microseconds, which makes them the workhorse for agent training
studies.  An episode fixes a random shift and scale of the landscape; the
action is a point in the unit square, mapped affinely into the native box.
Scores map function values into [0, 1] via 1 - clip(f / f_cap, 0, 1) with
f_cap the worst corner value of the native box, so lower function values
score higher and the global minimum of an unshifted landscape scores ~1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError
from .tunenv import DEFAULT_N_STEPS, SpaceSet, SpaceVar, TuningEnv, short_digest

# Train and test domains occupy disjoint halves of the episode parameters'
# ranges, so test episodes are genuinely held out.
TRAIN_SHIFT = (-0.05, 0.0)
TEST_SHIFT = (0.0, 0.05)
TRAIN_SCALE = (0.9, 1.0)
TEST_SCALE = (1.0, 1.1)


@dataclass(frozen=True)
class Landscape:
    """A 2-D test function on a square native box with known minima."""

    name: str
    lo: float
    hi: float
    f_min: float
    minima: tuple[tuple[float, float], ...]
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @cached_property
    def corner_cap(self) -> float:
        corners = [(self.lo, self.lo), (self.lo, self.hi),
                   (self.hi, self.lo), (self.hi, self.hi)]
        return float(max(self.fn(np.array([x]), np.array([y]))[0]
                         for x, y in corners))


def _himmelblau(x, y):
    return (x**2 + y - 11.0) ** 2 + (x + y**2 - 7.0) ** 2


def _ackley(x, y):
    r = np.sqrt(0.5 * (x**2 + y**2))
    cos_term = 0.5 * (np.cos(2.0 * np.pi * x) + np.cos(2.0 * np.pi * y))
    return -20.0 * np.exp(-0.2 * r) - np.exp(cos_term) + 20.0 + np.e


def _rastrigin(x, y):
    return (20.0 + x**2 - 10.0 * np.cos(2.0 * np.pi * x)
            + y**2 - 10.0 * np.cos(2.0 * np.pi * y))


def _goldstein_price(x, y):
    a = 1.0 + (x + y + 1.0) ** 2 * (
        19.0 - 14.0 * x + 3.0 * x**2 - 14.0 * y + 6.0 * x * y + 3.0 * y**2)
    b = 30.0 + (2.0 * x - 3.0 * y) ** 2 * (
        18.0 - 32.0 * x + 12.0 * x**2 + 48.0 * y - 36.0 * x * y + 27.0 * y**2)
    return a * b


def _schwefel(x, y):
    return (418.9829 * 2.0
            - x * np.sin(np.sqrt(np.abs(x)))
            - y * np.sin(np.sqrt(np.abs(y))))


LANDSCAPES: dict[str, Landscape] = {
    lscape.name: lscape
    for lscape in (
        Landscape("himmelblau", -5.0, 5.0, 0.0,
                  ((3.0, 2.0), (-2.805118, 3.131312),
                   (-3.779310, -3.283186), (3.584428, -1.848126)),
                  _himmelblau),
        Landscape("ackley", -5.0, 5.0, 0.0, ((0.0, 0.0),), _ackley),
        Landscape("rastrigin", -5.12, 5.12, 0.0, ((0.0, 0.0),), _rastrigin),
        Landscape("goldstein_price", -2.0, 2.0, 3.0, ((0.0, -1.0),),
                  _goldstein_price),
        Landscape("schwefel", -500.0, 500.0, 0.0,
                  ((420.9687, 420.9687),), _schwefel),
    )
}

SYNTH_STATIC_NAMES = ("shift_x", "shift_y", "scale")


def landscape_score(lscape: Landscape, f_value: np.ndarray) -> np.ndarray:
    """Map function values into [0, 1]; lower values score higher."""
    return 1.0 - np.clip(np.asarray(f_value, dtype=float) / lscape.corner_cap,
                         0.0, 1.0)


def synth_space_set() -> SpaceSet:
    return SpaceSet(
        domain_train=(
            SpaceVar("shift_x", *TRAIN_SHIFT),
            SpaceVar("shift_y", *TRAIN_SHIFT),
            SpaceVar("scale", *TRAIN_SCALE),
        ),
        domain_test=(
            SpaceVar("shift_x", *TEST_SHIFT),
            SpaceVar("shift_y", *TEST_SHIFT),
            SpaceVar("scale", *TEST_SCALE),
        ),
        action_names=("z_x", "z_y"),
        initial_action=np.array([0.5, 0.5]),
        static_names=SYNTH_STATIC_NAMES,
    )


class SyntheticTuningEnv(TuningEnv):
    """Tuning episodes over one shifted and scaled landscape."""

    def __init__(self, function: str = "himmelblau", mode: str = "train",
                 mask_level: str = "full", n_steps: int = DEFAULT_N_STEPS):
        if function not in LANDSCAPES:
            raise ConfigError(
                f"unknown landscape {function!r}, expected one of "
                f"{sorted(LANDSCAPES)}")
        self.landscape = LANDSCAPES[function]
        super().__init__(synth_space_set(), mode, n_steps, mask_level)

    def _begin_episode(self, rng: np.random.Generator):
        values = {name: self.domain[name].sample(rng) for name in SYNTH_STATIC_NAMES}
        scale, lscape = values["scale"], self.landscape
        shift = np.array([values["shift_x"], values["shift_y"]]) * lscape.width

        def evaluate(action: np.ndarray) -> float:
            z = np.asarray(action, dtype=float)
            native = lscape.lo + z * lscape.width
            u = scale * (native - shift)
            f = lscape.fn(np.array([u[0]]), np.array([u[1]]))[0]
            return float(landscape_score(lscape, f))

        return (values, evaluate(self.initial_action), evaluate,
                short_digest({"function": lscape.name, **values}))
