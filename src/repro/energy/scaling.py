"""DVFS scaling of per-dispatch charges, shared by every engine.

Every dispatch's work cycles and dynamic/static charges come from this
one helper: in the reference loop, in the struct-of-arrays loop, and
for each candidate of :func:`repro.power.budget.settle_unaffordable`.
So the power-token price, the charged energy and the DVFS stretch are
float-identical across engines, as the equivalence suites and the
ledger's token account need.

Scaling model (see :mod:`repro.power.dvfs`): only the *work* component
of service stretches by ``1/freq_scale`` — reconfiguration and profiling
overhead cycles are untouched; dynamic energy scales by ``volt**2`` and
busy-static energy by ``volt/freq``.  Knowledge updates (profiling
table, best-known, tuning sessions) always use the *unscaled* estimate:
the knowledge describes the configuration, not the operating point of
one dispatch.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.power.dvfs import DvfsPoint

__all__ = ["scaled_charges"]


def scaled_charges(
    total_cycles: int,
    dynamic_nj: float,
    static_nj: float,
    fraction: float,
    point: Optional[DvfsPoint] = None,
) -> Tuple[int, float, float]:
    """``(work_cycles, dynamic_charge_nj, static_charge_nj)`` for one
    dispatch of ``fraction`` of an execution at operating point
    ``point`` (``None`` or nominal leaves the charges untouched)."""
    # Lean on purpose: the degradation ladder prices every candidate
    # here.  round() of a float is already an int.
    if fraction == 1.0:
        work = total_cycles
        dynamic = dynamic_nj
        static = static_nj
    else:
        work = round(total_cycles * fraction)
        if work < 1:
            work = 1
        dynamic = dynamic_nj * fraction
        static = static_nj * fraction
    if point is None or point.is_nominal:
        return work, dynamic, static
    work = round(work / point.freq_scale)
    if work < 1:
        work = 1
    return work, dynamic * point.dyn_factor, static * point.static_factor
