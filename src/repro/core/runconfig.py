"""The settings of one simulation run, validated once.

:class:`RunConfig` holds every setting that can change a simulated
answer without being an object of its own.  The public constructors
build one from their keyword arguments; the engine layers below them
read the object.  Like :class:`~repro.power.budget.PowerConfig` it is
frozen, hashable pure data with a JSON round trip, and
:meth:`RunConfig.digest` (SHA-256 over the canonical JSON) is a content
address for the settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import ClassVar, Dict, Mapping, Optional, Tuple

from repro.cache.tuner import TunerCostModel
from repro.power.budget import PowerConfig, normalize_power

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Everything a run's settings can vary, checked on construction.

    ``power`` is normalised: a configuration that enables nothing
    becomes ``None``, so every engine keeps its exact pre-power paths.
    """

    #: Ready-queue service orders: ``fifo`` (the paper), ``priority``
    #: (static priority, FIFO within a level) or ``edf`` (earliest
    #: deadline first; deadline-free jobs go last).
    DISCIPLINES: ClassVar[Tuple[str, ...]] = ("fifo", "priority", "edf")

    discipline: str = "fifo"
    #: Let a waiting job preempt a strictly less urgent running one
    #: (needs the ``priority`` or ``edf`` discipline).
    preemptive: bool = False
    #: Minimum execution window around a preemption.
    preemption_quantum_cycles: int = 10_000
    #: Extra cycles/energy charged on a profiling run for the counters.
    profiling_overhead_fraction: float = 0.003
    #: §IV.B: every benchmark arrives pre-profiled and pre-tuned.
    preload_profiles: bool = False
    tuner_costs: TunerCostModel = TunerCostModel()
    power: Optional[PowerConfig] = None

    def __post_init__(self) -> None:
        if self.profiling_overhead_fraction < 0:
            raise ValueError("profiling_overhead_fraction must be >= 0")
        if self.discipline not in self.DISCIPLINES:
            raise ValueError(
                f"unknown discipline {self.discipline!r}; "
                f"choose from {self.DISCIPLINES}"
            )
        if self.preemptive and self.discipline == "fifo":
            raise ValueError(
                "preemption needs an urgency order; use the 'priority' "
                "or 'edf' discipline"
            )
        if self.preemption_quantum_cycles < 0:
            raise ValueError("preemption_quantum_cycles must be >= 0")
        object.__setattr__(self, "power", normalize_power(self.power))

    def kwargs(self) -> Dict[str, object]:
        """The fields as the public constructors' keyword arguments."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "discipline": self.discipline,
            "preemptive": self.preemptive,
            "preemption_quantum_cycles": self.preemption_quantum_cycles,
            "profiling_overhead_fraction": self.profiling_overhead_fraction,
            "preload_profiles": self.preload_profiles,
            "tuner_costs": dataclasses.asdict(self.tuner_costs),
            "power": None if self.power is None else self.power.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunConfig":
        power = payload["power"]
        return cls(
            discipline=payload["discipline"],
            preemptive=payload["preemptive"],
            preemption_quantum_cycles=payload["preemption_quantum_cycles"],
            profiling_overhead_fraction=payload[
                "profiling_overhead_fraction"
            ],
            preload_profiles=payload["preload_profiles"],
            tuner_costs=TunerCostModel(**payload["tuner_costs"]),
            power=None if power is None else PowerConfig.from_dict(power),
        )

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical (sorted, compact) JSON.

        Numbers are canonical as floats, so equal configurations whose
        values were given as ``0`` and ``0.0`` share a digest.
        """
        text = json.dumps(
            _floats(self.to_dict()), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _floats(value):
    if isinstance(value, dict):
        return {key: _floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_floats(item) for item in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value
