"""Glue between :class:`SchedulerSimulation` and the SoA event loop.

``SchedulerSimulation.run(engine="fast")`` runs its closed batch on the
one struct-of-arrays loop, :class:`~repro.sim.stream.StreamingSimulation`:
:func:`run_fast` replays the arrival list through a
:class:`~repro.workloads.arrivals.ReplayProcess` as a finite stream that
retains every job record, built over the
:class:`~repro.sim.fast.FastSimulation` tables prebuilt at construction.
:func:`build_fast` hands the tables the simulation's validated
:class:`~repro.core.runconfig.RunConfig` as is, so no run setting is
re-declared or re-checked here.  :func:`run_fast` then writes the
stream's end-of-run state back into the reference object — engine
clock and counters, core occupancy/tuner/residency state, the
profiling table, tuning sessions and the decision accumulators — so
post-run introspection (``sim.engine.processed``,
``sim.cores[i].busy_cycles``, ``sim.table``, ``sim.heuristic``)
observes exactly what a reference run would have left behind.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.profiling import ExecutionRecord, ProfilingTable
from repro.core.results import SimulationResult
from repro.core.tuning import TuningHeuristic
from repro.sim.fast import FastSimulation
from repro.sim.stream import StreamConfig, StreamingSimulation
from repro.workloads.arrivals import JobArrival, ReplayProcess

__all__ = ["batch_stream", "build_fast", "run_fast", "take_tables"]

#: Run accumulators the reference keeps as ``sim._<name>``.
_ACCUMULATORS = (
    "dynamic_nj", "busy_static_nj", "reconfig_nj", "reconfig_cycles",
    "profiling_overhead_nj", "stall_decisions", "non_best_decisions",
    "tuning_executions", "profiling_executions", "preemption_count",
)


def build_fast(sim) -> FastSimulation:
    """The SoA tables of ``sim``'s run."""
    return FastSimulation(
        sim.system, sim.policy, sim.store, sim.predictor, sim.energy_table,
        sim.run_config,
    )


def take_tables(sim) -> FastSimulation:
    """The tables prebuilt at construction, or fresh ones once used.

    A table set carries the knowledge state of the run it serves, so
    each one is handed out exactly once.
    """
    tables = sim._fast
    sim._fast = None
    return build_fast(sim) if tables is None else tables


def batch_stream(sim, count: int) -> StreamingSimulation:
    """The finite, record-retaining stream that runs ``sim``'s batch."""
    return StreamingSimulation._over(
        take_tables(sim),
        StreamConfig(max_jobs=count, retain_jobs=True),
        sim.telemetry,
        closed_batch=True,
    )


def run_fast(sim, arrivals: Sequence[JobArrival]) -> SimulationResult:
    """Run ``sim``'s configuration on the SoA loop.

    ``sim`` must have been constructed with the obs/validate/faults
    hooks all off (engine resolution guarantees this), and the arrivals
    must already be checked (non-empty, every benchmark characterised).
    """
    stream = batch_stream(sim, len(arrivals))
    result = stream.run(ReplayProcess(arrivals)).sim_result
    _write_back(sim, stream, result, len(arrivals))
    return result


def _write_back(
    sim,
    stream: StreamingSimulation,
    result: SimulationResult,
    n_arrivals: int,
) -> None:
    """Install the stream's end-of-run state on the reference object."""
    s = stream._s
    f = stream.f
    cfg_objs = f.cfg_objs
    engine = sim.engine
    engine._now = s["now"]
    engine._processed = s["processed"]
    # The reference numbers the n arrivals 0..n-1 before the first
    # completion it schedules.
    engine._sequence = n_arrivals + s["seq"]

    sim.queue.enqueued_total = s["enqueued_total"]
    sim.queue.max_length = s["max_queue_len"]

    for ci, core in enumerate(sim.cores):
        core.current_job = None
        core.dvfs = s["core_dvfs"][ci]
        core.busy_until = s["busy_until"][ci]
        core.busy_cycles = s["busy_cycles"][ci]
        core.executions = s["execs"][ci]
        core.epoch = s["epoch"][ci]
        core.run_started_at = s["run_started"][ci]
        core._residency_closed = s["res_closed"][ci]
        core._residency_start = s["res_start"][ci]
        core._residency_busy = s["res_busy"][ci]
        tuner = core.tuner
        tuner._current = cfg_objs[s["cur_cfg"][ci]]
        tuner.reconfigurations = s["recfg_count"][ci]
        tuner.total_cycles = s["recfg_cycles_core"][ci]
        tuner.total_energy_nj = s["recfg_nj_core"][ci]

    # Rebuild the profiling table in the run's touch order (the
    # reference table's dict order is observable through benchmarks(),
    # exploration_counts() and predictions_kb).
    table = ProfilingTable()
    for b in f.touch_order:
        name = f.bench_names[b]
        profile = table.profile(name)
        if f.profiled[b]:
            profile.counters = sim.store.counters(name)
        if f.pred_raw[b] is not None:
            profile.predicted_size_kb = f.pred_raw[b]
        for cid in f.executed[b]:
            config = cfg_objs[cid]
            entry = f._est[b][cid]
            profile.executions[config] = ExecutionRecord(
                config=config,
                total_energy_nj=entry[3],
                total_cycles=entry[0],
            )
        profile.tuned_sizes = set(f.tuned[b])
    sim.table = table

    heuristic = TuningHeuristic()
    heuristic._sessions = {
        (f.bench_names[b], size_kb): session
        for (b, size_kb), session in f.sessions.items()
    }
    sim.heuristic = heuristic

    for name in _ACCUMULATORS:
        setattr(sim, "_" + name, s[name])
    sim._records = list(result.jobs)
    if f._power_pool is not None:
        sim._power_pool.load_state(f._power_pool.state_dict())
