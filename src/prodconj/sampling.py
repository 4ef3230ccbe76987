"""Deterministic probe-point generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Points are inset from the box faces by this fraction of each edge so they
# stay strictly interior even when the generator emits 0.0 exactly.
_INSET = 1e-6

# Largest sample count a plan accepts, from a scenario file or a flag.
_MAX_COUNT = 10**6


@dataclass(frozen=True)
class SamplePlan:
    """Seeded uniform draw of `count` points from an axis-aligned box."""

    seed: int
    count: int
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"sample seed must be nonnegative, got {self.seed}")
        if not 1 <= self.count <= _MAX_COUNT:
            raise ConfigError(f"sample count must be in 1..{_MAX_COUNT}, got {self.count}")
        if not self.box:
            raise ConfigError("sample box must have at least one coordinate interval")
        for lo, hi in self.box:
            if not (hi > lo):
                raise ConfigError(f"empty box interval [{lo}, {hi}]")

    def replace(self, seed: int | None = None, count: int | None = None) -> "SamplePlan":
        return SamplePlan(self.seed if seed is None else seed,
                          self.count if count is None else count,
                          self.box)


def sample_points(plan: SamplePlan) -> np.ndarray:
    """(count, dim) array; identical bits for identical plans."""
    lo = np.array([b[0] for b in plan.box])
    hi = np.array([b[1] for b in plan.box])
    u = np.random.default_rng(plan.seed).random((plan.count, len(plan.box)))
    return lo + (_INSET + (1.0 - 2.0 * _INSET) * u) * (hi - lo)
