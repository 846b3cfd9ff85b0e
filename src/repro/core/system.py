"""Heterogeneous multicore system description.

The paper's sample architecture (its Figure 1) is a quad-core system in
which each core has a private configurable L1 and a fixed cache size
subsetting the design space:

* Core 1 — 2 KB,
* Core 2 — 4 KB,
* Core 3 — 8 KB, secondary profiling core,
* Core 4 — 8 KB, primary profiling core (runs the scheduler, the ANN and
  the profiling table; executes the base configuration 8KB_4W_64B when
  profiling).

"This general structure could be scaled up or down for different system
requirements" — :class:`SystemConfig` accepts any core list, and the
*base system* of the evaluation (all cores fixed at 8KB_4W_64B) is just
another instance (:func:`base_system`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cache.config import (
    BASE_CONFIG,
    CacheConfig,
    configs_for_size,
)

__all__ = [
    "CoreSpec",
    "SystemConfig",
    "paper_system",
    "base_system",
    "scaled_system",
    "system_for",
]


@dataclass(frozen=True)
class CoreSpec:
    """One core: a fixed cache size plus its tunable configurations.

    Attributes
    ----------
    index:
        Zero-based core index (Core 1 of the paper is index 0).
    cache_size_kb:
        The fixed L1 capacity of this core.
    profiling:
        Whether this core can run the profiler/scheduler (Cores 3 and 4).
    primary_profiling:
        Whether this is the primary profiling core (Core 4).
    initial_config:
        Configuration installed at reset; defaults to the largest
        associativity/line the size offers if not given.
    """

    index: int
    cache_size_kb: int
    profiling: bool = False
    primary_profiling: bool = False
    initial_config: Optional[CacheConfig] = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("core index must be non-negative")
        if self.primary_profiling and not self.profiling:
            raise ValueError("the primary profiling core must be a profiling core")
        if (
            self.initial_config is not None
            and self.initial_config.size_kb != self.cache_size_kb
        ):
            raise ValueError(
                f"initial config {self.initial_config.name} does not match "
                f"core cache size {self.cache_size_kb} KB"
            )

    @property
    def name(self) -> str:
        """Paper-style one-based name, e.g. ``Core 4``."""
        return f"Core {self.index + 1}"

    @property
    def configs(self) -> List[CacheConfig]:
        """All configurations this core's tuner can install."""
        return configs_for_size(self.cache_size_kb)

    @property
    def reset_config(self) -> CacheConfig:
        """The configuration installed at system reset."""
        if self.initial_config is not None:
            return self.initial_config
        return max(self.configs, key=lambda c: (c.assoc, c.line_b))

    def supports(self, config: CacheConfig) -> bool:
        """Whether the tuner can install ``config`` on this core."""
        return config.size_kb == self.cache_size_kb and config in self.configs


@dataclass(frozen=True)
class SystemConfig:
    """A complete machine: an ordered tuple of cores."""

    cores: Tuple[CoreSpec, ...]

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValueError("a system needs at least one core")
        indices = [core.index for core in self.cores]
        if indices != list(range(len(self.cores))):
            raise ValueError("core indices must be 0..n-1 in order")
        if not any(core.profiling for core in self.cores):
            raise ValueError("a system needs at least one profiling core")
        primaries = [core for core in self.cores if core.primary_profiling]
        if len(primaries) != 1:
            raise ValueError("exactly one primary profiling core is required")

    def __len__(self) -> int:
        return len(self.cores)

    @property
    def primary_profiling_core(self) -> CoreSpec:
        """Core 4's role: hosts the profiling table and the ANN."""
        return next(c for c in self.cores if c.primary_profiling)

    @property
    def profiling_cores(self) -> Tuple[CoreSpec, ...]:
        """Cores able to profile, primary first."""
        return tuple(
            sorted(
                (c for c in self.cores if c.profiling),
                key=lambda c: not c.primary_profiling,
            )
        )

    @property
    def cache_sizes_kb(self) -> Tuple[int, ...]:
        """Distinct cache sizes present, ascending."""
        return tuple(sorted({c.cache_size_kb for c in self.cores}))

    def cores_with_size(self, size_kb: int) -> Tuple[CoreSpec, ...]:
        """All cores whose fixed cache size is ``size_kb``."""
        return tuple(c for c in self.cores if c.cache_size_kb == size_kb)

    def nearest_size_kb(self, size_kb: int) -> int:
        """The closest available cache size to a requested one.

        The ANN's snapped prediction is always a design-space size, but a
        scaled-down system may not offer it; ties resolve to the smaller
        (lower-leakage) size.
        """
        return min(
            self.cache_sizes_kb,
            key=lambda s: (abs(s - size_kb), s),
        )


def paper_system() -> SystemConfig:
    """The paper's quad-core heterogeneous system (its Figure 1)."""
    return SystemConfig(
        cores=(
            CoreSpec(index=0, cache_size_kb=2),
            CoreSpec(index=1, cache_size_kb=4),
            CoreSpec(index=2, cache_size_kb=8, profiling=True),
            CoreSpec(
                index=3,
                cache_size_kb=8,
                profiling=True,
                primary_profiling=True,
                initial_config=BASE_CONFIG,
            ),
        )
    )


def scaled_system(core_sizes_kb: Sequence[int]) -> SystemConfig:
    """A heterogeneous system with the given per-core cache sizes.

    Implements §III's "this general structure could be scaled up or
    down": any mix of design-space cache sizes, e.g. ``(4, 8)`` for a
    dual-core or ``(2, 2, 4, 4, 8, 8, 8, 8)`` for an eight-core machine.
    The largest-cache cores become the profiling cores (the last one
    primary), mirroring the paper's choice of Core 4; profiling requires
    the base configuration, so at least one core must match its size.
    """
    sizes = list(core_sizes_kb)
    if not sizes:
        raise ValueError("need at least one core")
    if BASE_CONFIG.size_kb not in sizes:
        raise ValueError(
            f"at least one core must have the base configuration's "
            f"{BASE_CONFIG.size_kb} KB cache to host profiling"
        )
    base_size_indices = [
        i for i, size in enumerate(sizes) if size == BASE_CONFIG.size_kb
    ]
    primary = base_size_indices[-1]
    # Up to two profiling cores, like the paper's Cores 3 and 4.
    profiling = set(base_size_indices[-2:])
    cores = []
    for i, size in enumerate(sizes):
        cores.append(
            CoreSpec(
                index=i,
                cache_size_kb=size,
                profiling=i in profiling,
                primary_profiling=i == primary,
                initial_config=BASE_CONFIG if i == primary else None,
            )
        )
    return SystemConfig(cores=tuple(cores))


def base_system(num_cores: int = 4) -> SystemConfig:
    """The evaluation's base system: every core fixed at 8KB_4W_64B."""
    if num_cores <= 0:
        raise ValueError("num_cores must be positive")
    cores = []
    for i in range(num_cores):
        cores.append(
            CoreSpec(
                index=i,
                cache_size_kb=BASE_CONFIG.size_kb,
                profiling=i == num_cores - 1,
                primary_profiling=i == num_cores - 1,
                initial_config=BASE_CONFIG,
            )
        )
    return SystemConfig(cores=tuple(cores))


def system_for(policy_name: str) -> SystemConfig:
    """The machine a named policy is evaluated on.

    The paper's base system runs the ``base`` policy; every other
    policy runs on the heterogeneous quad-core.
    """
    return base_system() if policy_name == "base" else paper_system()
