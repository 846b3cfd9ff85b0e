"""Power-token budgets and DVFS operating points (ROADMAP item 4).

See ``docs/power.md`` for the token model, the DVFS scaling rules and
the frontier workflow.
"""

from .budget import (
    PowerConfig,
    TokenPool,
    normalize_power,
    pick_degraded,
    settle_unaffordable,
    slack_admissible,
)
from .dvfs import DEFAULT_DVFS_TABLE, NOMINAL_NAME, DvfsPoint, DvfsTable

__all__ = [
    "PowerConfig",
    "TokenPool",
    "normalize_power",
    "pick_degraded",
    "settle_unaffordable",
    "slack_admissible",
    "DvfsPoint",
    "DvfsTable",
    "DEFAULT_DVFS_TABLE",
    "NOMINAL_NAME",
]
