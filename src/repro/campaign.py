"""Process-parallel replication campaigns.

The paper's evaluation claims are statements about *distributions* —
energy and latency of each scheduling policy over many arrival streams —
so every ablation replays a (policy × seed × load) grid of independent
simulations.  This module runs that grid as a campaign: each replication
is one deterministic :class:`~repro.core.simulation.SchedulerSimulation`
run, the grid fans out over a process pool sharing the read-only
characterisation store, and the results aggregate to per-cell
mean / std / 95 % confidence intervals.

Determinism contract: a replication's arrival stream derives only from
its :class:`ReplicationSpec` (the replication seed feeds
:func:`~repro.workloads.arrivals.uniform_arrivals` directly), and
``pool.map``/``pool.imap`` preserve task order, so campaign results are
identical for
any worker count — including the in-process serial path — and for any
scheduling of tasks onto workers.  The ``fork`` start method is
preferred when available (workers inherit the store without pickling);
the initializer ships the shared state once per worker either way, so
per-task payloads stay tiny.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.characterization.store import CharacterizationStore
from repro.core.policies import (
    ALL_POLICY_NAMES,
    DEADLINE_POLICY_NAMES,
    POLICY_NAMES,
    make_policy,
)
from repro.core.predictor import BestCorePredictor, OraclePredictor
from repro.core.runconfig import RunConfig
from repro.core.simulation import SchedulerSimulation, resolve_engine
from repro.core.system import system_for
from repro.energy.tables import EnergyTable
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.power.budget import PowerConfig, normalize_power
from repro.power.dvfs import DvfsTable
from repro.workloads.arrivals import uniform_arrivals
from repro.workloads.eembc import eembc_suite

logger = logging.getLogger(__name__)

__all__ = [
    "CampaignCell",
    "CampaignResult",
    "DagLoad",
    "MetricAggregate",
    "ReplicationResult",
    "ReplicationSpec",
    "StreamLoad",
    "check_grid",
    "power_grid",
    "run_campaign",
]

#: Metrics aggregated per campaign cell, in report order.
CAMPAIGN_METRICS = (
    "total_energy_nj",
    "idle_energy_nj",
    "dynamic_energy_nj",
    "makespan_cycles",
    "mean_waiting_cycles",
    "jobs_completed",
    "non_best_decisions",
)


@dataclass(frozen=True)
class StreamLoad:
    """Open-system load axis: replications stream instead of replaying.

    When passed to :func:`run_campaign`, every replication consumes a
    generator-backed arrival process through the streaming engine
    (:mod:`repro.sim.stream`) instead of materialising a batch: the
    grid's ``(count, gap)`` loads become ``(max_jobs,
    mean_interarrival_cycles)`` of the stream, and the replication seed
    seeds the process.  Hashable/picklable pure data, like
    :class:`~repro.faults.plan.FaultPlan`.
    """

    #: Arrival process kind (see
    #: :func:`~repro.workloads.arrivals.make_process`).
    process: str = "poisson"
    #: Metrics-only warm-up: jobs arriving before this cycle are
    #: excluded from the waiting/turnaround quantiles.
    warmup_cycles: int = 0
    #: Ready-queue bound (``None`` = unbounded, no admission control).
    queue_capacity: Optional[int] = None
    #: Admission policy under a full queue: ``drop`` / ``shed`` /
    #: ``block``.
    admission: str = "block"
    #: Extra keyword arguments for the process constructor, as a sorted
    #: tuple of ``(name, value)`` pairs so the spec stays hashable.
    process_args: Tuple[Tuple[str, float], ...] = ()


@dataclass(frozen=True)
class DagLoad:
    """Task-graph load axis: replications run generated DAG workloads.

    When passed to :func:`run_campaign`, every replication generates a
    seed-keyed task-graph set
    (:func:`~repro.workloads.dag.generate_task_graphs`) and runs it
    through :meth:`~repro.core.simulation.SchedulerSimulation.run_dags`
    with precedence gating: the grid's ``(count, gap)`` loads become
    ``(graph count, mean graph interarrival)``, and the replication
    seed keys the generator.  Deadline/slack outcomes ride back through
    :attr:`CampaignCell.observed` under ``dag.*`` keys.  DAG campaigns
    are reference-engine territory, so the metrics/validation/fault
    hooks all compose with this axis; the open-system ``stream`` axis
    does not.  Hashable/picklable pure data, like :class:`StreamLoad`.
    """

    #: Tasks per graph, drawn uniformly from this range.
    tasks_min: int = 3
    tasks_max: int = 8
    #: Probability of a forward precedence edge between any task pair.
    edge_density: float = 0.35
    #: Deadline looseness multiplier (smaller = tighter = more misses).
    deadline_slack: float = 2.5
    #: DAG-level criticality is drawn from ``1..criticality_levels``.
    criticality_levels: int = 3


def power_grid(
    caps: Sequence[Optional[float]] = (None,),
    *,
    slacks: Sequence[float] = (0.0,),
    dvfs: Optional[DvfsTable] = None,
    cluster_caps: Tuple[Tuple[int, float], ...] = (),
) -> Tuple[Optional[PowerConfig], ...]:
    """The ``caps × slacks`` power axis for :func:`run_campaign`.

    Builds one :class:`~repro.power.budget.PowerConfig` per (cap, slack)
    pair, sharing the optional DVFS table and per-cluster caps.  A cap of
    ``None`` (or ``inf``) means uncapped; configurations that end up
    disabled entirely normalise to ``None`` (the unconstrained cell) and
    collapse to a single ``None`` entry, so a sweep like
    ``power_grid([None, 4e5, 2e5], slacks=[0, 20])`` yields exactly one
    baseline cell plus the four capped ones.
    """
    if not caps:
        raise ValueError("need at least one power cap (None = uncapped)")
    if not slacks:
        raise ValueError("need at least one slack percentage (0 = none)")
    grid = []
    seen_clean = False
    for cap in caps:
        cap_nj = None if cap is None or cap == float("inf") else float(cap)
        for slack in slacks:
            config = normalize_power(
                PowerConfig(
                    cap_nj=cap_nj,
                    cluster_caps_nj=cluster_caps,
                    slack_pct=float(slack),
                    dvfs=dvfs,
                )
            )
            if config is None:
                if seen_clean:
                    continue
                seen_clean = True
            grid.append(config)
    return tuple(grid)


@dataclass(frozen=True)
class ReplicationSpec:
    """One point of the campaign grid: policy × load × fault plan × seed."""

    policy: str
    seed: int
    #: Jobs in the arrival stream.
    count: int
    #: Mean gap between arrivals (smaller = heavier load).
    mean_interarrival_cycles: int
    #: Fault plan injected into the replication (``None`` = clean run).
    #: :class:`~repro.faults.plan.FaultPlan` is hashable/picklable pure
    #: data, so the spec stays frozen and pool-shippable.
    fault_plan: Optional[FaultPlan] = None
    #: Simulation engine (``auto`` / ``fast`` / ``reference``), forwarded
    #: to :class:`~repro.core.simulation.SchedulerSimulation`.
    engine: str = "auto"
    #: Open-system load (``None`` = closed-batch replay, the default).
    stream: Optional[StreamLoad] = None
    #: Task-graph load (``None`` = independent-job arrivals).
    dag: Optional[DagLoad] = None
    #: Power budget / DVFS configuration (``None`` = unconstrained).
    #: :class:`~repro.power.budget.PowerConfig` is hashable/picklable
    #: pure data, like :class:`~repro.faults.plan.FaultPlan`.
    power: Optional[PowerConfig] = None


@dataclass(frozen=True)
class ReplicationResult:
    """Metrics of one simulated replication."""

    spec: ReplicationSpec
    jobs_completed: int
    makespan_cycles: int
    total_energy_nj: float
    idle_energy_nj: float
    dynamic_energy_nj: float
    mean_waiting_cycles: float
    non_best_decisions: int
    #: Wall time of this replication (instrumentation only; never part
    #: of the aggregates, so it cannot break worker-count independence).
    seconds: float
    #: Flat per-replication metric snapshot
    #: (:meth:`~repro.obs.metrics.MetricsRegistry.scalars`); empty unless
    #: the campaign ran with ``collect_metrics=True``.
    observed: Dict[str, float] = field(default_factory=dict)

    def metric(self, name: str) -> float:
        """Metric value by aggregate name."""
        if name not in CAMPAIGN_METRICS:
            raise KeyError(f"unknown campaign metric {name!r}")
        return float(getattr(self, name))


@dataclass(frozen=True)
class MetricAggregate:
    """Mean / sample std / 95 % CI half-width over a cell's replications."""

    mean: float
    std: float
    ci95: float
    n: int


@dataclass(frozen=True)
class CampaignCell:
    """Aggregates of every replication sharing (policy, load, plan)."""

    policy: str
    count: int
    mean_interarrival_cycles: int
    metrics: Dict[str, MetricAggregate]
    n: int
    #: Name of the injected fault plan (``None`` = clean cell).
    faults: Optional[str] = None
    #: Engine mode the cell's replications ran under.  Part of the cell
    #: label whenever it is not the default ``auto``, so results from
    #: explicitly pinned engines are never silently aggregated with
    #: others.
    engine: str = "auto"
    #: Aggregates of the per-replication registry scalars (empty unless
    #: the campaign ran with ``collect_metrics=True``).  Keys follow the
    #: flat ``sim.*`` naming of
    #: :meth:`~repro.obs.metrics.MetricsRegistry.scalars`; open-system
    #: campaigns report their windowed metrics here under ``stream.*``.
    observed: Dict[str, MetricAggregate] = field(default_factory=dict)
    #: Arrival-process kind of an open-system campaign (``None`` =
    #: closed-batch replay).  Part of the cell label, like ``engine``.
    stream: Optional[str] = None
    #: Whether the cell's replications ran task-graph workloads
    #: (:class:`DagLoad`).  Part of the cell label (``policy^dag``), so
    #: DAG results are never silently aggregated with plain-job ones.
    dag: bool = False
    #: Label of the cell's power configuration
    #: (:attr:`~repro.power.budget.PowerConfig.label`; ``None`` =
    #: unconstrained).  Part of the cell label (``policy%cap=...``) and
    #: of the cell identity, so differently capped results are never
    #: silently aggregated.
    power: Optional[str] = None

    def metric(self, name: str) -> MetricAggregate:
        """Aggregate by metric name."""
        return self.metrics[name]


#: Two-tailed 95 % Student-t critical values by degrees of freedom.
#: Campaign cells aggregate a handful of replications, where the
#: normal z=1.96 understates the interval badly (at n=2, df=1, the true
#: critical value is 12.706 — a ~6.5× narrower-than-real CI).  The
#: table covers df 1..30 exactly plus the conventional 40/60/120
#: waypoints; untabulated df fall back to the largest tabulated df not
#: exceeding them, which rounds the interval *wider* (conservative).
_T_CRITICAL_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}


def _t_critical(df: int) -> float:
    """Two-tailed 95 % t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    exact = _T_CRITICAL_95.get(df)
    if exact is not None:
        return exact
    # Conservative fallback: the largest tabulated df below the actual
    # one has a slightly *larger* critical value, so the reported
    # interval can only err wide, never narrow.
    floor_df = max(d for d in _T_CRITICAL_95 if d <= df)
    return _T_CRITICAL_95[floor_df]


def _aggregate(values: Sequence[float]) -> MetricAggregate:
    n = len(values)
    if n == 0:
        raise ValueError("cannot aggregate an empty cell")
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(var)
        ci95 = _t_critical(n - 1) * std / math.sqrt(n)
    else:
        std = 0.0
        ci95 = 0.0
    return MetricAggregate(mean=mean, std=std, ci95=ci95, n=n)


@dataclass(frozen=True)
class CampaignResult:
    """Everything a campaign produced.

    ``replications`` are in grid order (policy-major, then load, then
    seed); ``cells`` aggregate each (policy, load) over its seeds.
    """

    replications: Tuple[ReplicationResult, ...]
    cells: Tuple[CampaignCell, ...]
    wall_seconds: float
    workers: int

    def cell(
        self,
        policy: str,
        *,
        count: Optional[int] = None,
        mean_interarrival_cycles: Optional[int] = None,
        faults: Optional[str] = None,
        power: Optional[str] = None,
    ) -> CampaignCell:
        """The unique cell matching the selectors.

        Load, fault and power selectors may be omitted when the campaign
        swept only one load / fault plan / power configuration;
        ambiguous or empty selections raise ``KeyError``.  ``faults``
        matches the plan name and ``power`` the
        :attr:`~repro.power.budget.PowerConfig.label`; pass the string
        ``"none"`` to select the clean / unconstrained cell of a mixed
        campaign.
        """

        def faults_match(cell: CampaignCell) -> bool:
            if faults is None:
                return True
            if faults == "none":
                return cell.faults is None
            return cell.faults == faults

        def power_match(cell: CampaignCell) -> bool:
            if power is None:
                return True
            if power == "none":
                return cell.power is None
            return cell.power == power

        matches = [
            cell
            for cell in self.cells
            if cell.policy == policy
            and (count is None or cell.count == count)
            and (
                mean_interarrival_cycles is None
                or cell.mean_interarrival_cycles == mean_interarrival_cycles
            )
            and faults_match(cell)
            and power_match(cell)
        ]
        if not matches:
            raise KeyError(
                f"no campaign cell matches policy={policy!r}, count={count}, "
                f"mean_interarrival_cycles={mean_interarrival_cycles}"
            )
        if len(matches) > 1:
            raise KeyError(
                f"{len(matches)} campaign cells match policy={policy!r}; "
                "pass count= / mean_interarrival_cycles= / faults= / "
                "power= to disambiguate"
            )
        return matches[0]

    def summary(self) -> str:
        """Text table of per-cell mean ± CI for the headline metrics."""
        def label_for(cell: CampaignCell) -> str:
            label = cell.policy
            if cell.faults is not None:
                label = f"{label}+{cell.faults}"
            if cell.engine != "auto":
                label = f"{label}@{cell.engine}"
            if cell.stream is not None:
                label = f"{label}~{cell.stream}"
            if cell.dag:
                label = f"{label}^dag"
            if cell.power is not None:
                label = f"{label}%{cell.power}"
            return label

        width = max([15] + [len(label_for(cell)) for cell in self.cells])
        header = (
            f"{'policy':<{width}} {'jobs':>6} {'gap':>8} {'n':>3} "
            f"{'energy (mJ)':>16} {'makespan (Mcyc)':>18} {'wait (kcyc)':>14}"
        )
        lines = [header, "-" * len(header)]
        for cell in self.cells:
            energy = cell.metrics["total_energy_nj"]
            makespan = cell.metrics["makespan_cycles"]
            wait = cell.metrics["mean_waiting_cycles"]
            label = label_for(cell)
            lines.append(
                f"{label:<{width}} {cell.count:>6} "
                f"{cell.mean_interarrival_cycles:>8} {cell.n:>3} "
                f"{energy.mean / 1e6:>9.3f} ±{energy.ci95 / 1e6:<5.3f} "
                f"{makespan.mean / 1e6:>11.2f} ±{makespan.ci95 / 1e6:<5.2f} "
                f"{wait.mean / 1e3:>8.1f} ±{wait.ci95 / 1e3:<4.1f}"
            )
        lines.append(
            f"replications={len(self.replications)} workers={self.workers} "
            f"wall={self.wall_seconds:.2f}s"
        )
        return "\n".join(lines)


#: :class:`~repro.sim.stream.StreamResult` fields an open-system
#: replication reports as ``stream.*`` observed keys, in report order.
_STREAM_OBSERVED = (
    "jobs_generated", "jobs_dropped", "jobs_shed", "shed_rate",
    "blocked_cycles", "observed_jobs", "throughput_jobs_per_mcycle",
    "energy_rate_nj_per_cycle",
)

# Shared read-only state, installed once per worker by the pool
# initializer (or once in-process on the serial path).
_WORKER_STATE: dict = {}


def _init_worker(
    store: CharacterizationStore,
    predictor: BestCorePredictor,
    energy_table: EnergyTable,
    run: RunConfig,
    collect_metrics: bool = False,
    validate: bool = False,
) -> None:
    _WORKER_STATE["store"] = store
    _WORKER_STATE["predictor"] = predictor
    _WORKER_STATE["energy_table"] = energy_table
    _WORKER_STATE["run"] = run
    _WORKER_STATE["collect_metrics"] = collect_metrics
    _WORKER_STATE["validate"] = validate


def _run_replication(spec: ReplicationSpec) -> ReplicationResult:
    """Simulate one grid point (executed inside a worker process).

    The workload — closed batch, task graphs or open stream — decides
    only how the arrivals are generated and which extra keys ride back
    through ``observed``, flat floats that cells aggregate like the
    registry scalars.
    """
    start = time.perf_counter()
    policy = make_policy(spec.policy)
    registry = (
        MetricsRegistry() if _WORKER_STATE.get("collect_metrics") else None
    )
    run = replace(_WORKER_STATE["run"], power=spec.power)
    simulation = SchedulerSimulation(
        system_for(spec.policy),
        policy,
        _WORKER_STATE["store"],
        predictor=(
            _WORKER_STATE["predictor"] if policy.uses_predictor else None
        ),
        energy_table=_WORKER_STATE["energy_table"],
        metrics=registry,
        validate=_WORKER_STATE.get("validate", False),
        faults=spec.fault_plan,
        engine=spec.engine,
        **run.kwargs(),
    )
    # Keys of the workload's own outcomes, after the registry scalars.
    extra: Dict[str, float] = {}
    suite = eembc_suite()
    if spec.stream is not None:
        from repro.sim.stream import StreamConfig
        from repro.workloads.arrivals import make_process

        load = spec.stream
        result = simulation.stream(
            make_process(
                load.process,
                suite,
                mean_interarrival_cycles=spec.mean_interarrival_cycles,
                seed=spec.seed,
                **dict(load.process_args),
            ),
            StreamConfig(
                max_jobs=spec.count,
                warmup_cycles=load.warmup_cycles,
                queue_capacity=load.queue_capacity,
                admission=load.admission,
            ),
        )
        mean_waiting = result.waiting.get("mean", 0.0)
        power = result.power
        for name in _STREAM_OBSERVED:
            extra[f"stream.{name}"] = float(getattr(result, name))
        for prefix, snapshot in (
            ("stream.waiting", result.waiting),
            ("stream.turnaround", result.turnaround),
        ):
            for key, value in snapshot.items():
                extra[f"{prefix}.{key}"] = value
    elif spec.dag is not None:
        from repro.workloads.dag import generate_task_graphs

        load = spec.dag
        graphs = generate_task_graphs(
            count=spec.count,
            seed=spec.seed,
            benchmarks=[s.name for s in suite],
            tasks_min=load.tasks_min,
            tasks_max=load.tasks_max,
            edge_density=load.edge_density,
            deadline_slack=load.deadline_slack,
            criticality_levels=load.criticality_levels,
            mean_interarrival_cycles=spec.mean_interarrival_cycles,
        )
        result = simulation.run_dags(graphs)
        extra.update({
            "dag.graphs": float(len(graphs)),
            "dag.tasks": float(sum(g.task_count for g in graphs)),
            "dag.edges": float(sum(g.edge_count for g in graphs)),
            "dag.deadline_jobs": float(result.deadline_jobs),
            "dag.deadline_misses": float(result.deadline_misses),
            "dag.deadline_miss_rate": result.deadline_miss_rate,
        })
    else:
        result = simulation.run(
            uniform_arrivals(
                suite,
                count=spec.count,
                seed=spec.seed,
                mean_interarrival_cycles=spec.mean_interarrival_cycles,
            )
        )
    if spec.stream is None:
        mean_waiting = result.mean_waiting_cycles
        pool = simulation.power_pool
        power = None if pool is None else pool.gauges()
    observed = dict(registry.scalars()) if registry is not None else {}
    observed.update(extra)
    for key, value in (power or {}).items():
        observed[f"power.{key}"] = float(value)
    return ReplicationResult(
        spec=spec,
        jobs_completed=result.jobs_completed,
        makespan_cycles=result.makespan_cycles,
        total_energy_nj=result.total_energy_nj,
        idle_energy_nj=result.idle_energy_nj,
        dynamic_energy_nj=result.dynamic_energy_nj,
        mean_waiting_cycles=mean_waiting,
        non_best_decisions=result.non_best_decisions,
        seconds=time.perf_counter() - start,
        observed=observed,
    )


def _pool_context() -> multiprocessing.context.BaseContext:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context()


def check_grid(
    policies: Sequence[str],
    seeds: Sequence[int],
    loads: Sequence[Tuple[int, int]],
) -> None:
    """Reject an empty, unknown, invalid or repeated grid value.

    A repeated seed, policy or load would aggregate copies of one run
    as independent replications, narrowing the confidence interval.
    """
    if not policies:
        raise ValueError("need at least one policy")
    for name in policies:
        if name not in ALL_POLICY_NAMES:
            raise ValueError(
                f"unknown policy {name!r}; choose from {ALL_POLICY_NAMES}"
            )
    if not seeds:
        raise ValueError("need at least one replication seed")
    if not loads:
        raise ValueError("need at least one load")
    for count, gap in loads:
        if count <= 0:
            raise ValueError("load count must be positive")
        if gap <= 0:
            raise ValueError("mean_interarrival_cycles must be positive")
    for axis, values in (
        ("policy", policies), ("seed", seeds), ("load", loads)
    ):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(
                    f"{axis} {value!r} is repeated; a grid value may "
                    "appear once"
                )


def run_campaign(
    store: CharacterizationStore,
    predictor: Optional[BestCorePredictor] = None,
    *,
    policies: Sequence[str] = POLICY_NAMES,
    seeds: Sequence[int] = (0,),
    loads: Sequence[Tuple[int, int]] = ((1000, 56_000),),
    discipline: str = "fifo",
    energy_table: Optional[EnergyTable] = None,
    workers: Optional[int] = 1,
    collect_metrics: bool = False,
    validate: bool = False,
    fault_plans: Sequence[Optional[FaultPlan]] = (None,),
    engine: str = "auto",
    stream: Optional[StreamLoad] = None,
    dag: Optional[DagLoad] = None,
    power_configs: Sequence[Optional[PowerConfig]] = (None,),
    progress: Optional[Callable[[int, int], None]] = None,
) -> CampaignResult:
    """Run a (policy × load × fault plan × seed) grid, optionally parallel.

    Parameters
    ----------
    store:
        Characterisation of every benchmark that can arrive — shared
        read-only by all replications.
    predictor:
        Best-core predictor for predictor-driven policies; ``None``
        uses an :class:`~repro.core.predictor.OraclePredictor` over the
        store.
    policies:
        Policy names to sweep (see
        :data:`~repro.core.policies.POLICY_NAMES`).
    seeds:
        Replication seeds; each seed generates an independent arrival
        stream per load, and cells aggregate over seeds.
    loads:
        ``(count, mean_interarrival_cycles)`` pairs — sweep either the
        stream length or the arrival rate (or both).
    discipline:
        Ready-queue service order, forwarded to the simulation.
    energy_table:
        Energy constants; defaults to the paper's table.
    workers:
        Worker processes; ``None`` means one per CPU.  Clamped to the
        replication count; ``<= 1`` runs serially in-process.  Results
        are identical for every worker count.
    collect_metrics:
        Attach a fresh :class:`~repro.obs.metrics.MetricsRegistry` to
        every replication; each worker ships the flat scalar snapshot
        back with its result, and cells expose per-key aggregates via
        :attr:`CampaignCell.observed`.  Off by default (small but
        nonzero simulation overhead).
    validate:
        Attach the energy-conservation ledger and runtime invariant
        checks (:mod:`repro.validate`) to every replication; a
        violation raises :class:`~repro.validate.ledger.ValidationError`
        out of the failing worker.  Results are unchanged when all
        checks pass.
    fault_plans:
        Fault plans to sweep as a grid axis (see :mod:`repro.faults`);
        each entry is a :class:`~repro.faults.plan.FaultPlan` or
        ``None`` for a clean run.  The default single-``None`` axis
        leaves campaign behaviour bit-identical to before the axis
        existed.  Plan names must be unique within the sweep (they key
        the cells).
    engine:
        Simulation engine for every replication (``auto`` / ``fast`` /
        ``reference``, see
        :class:`~repro.core.simulation.SchedulerSimulation`).  The
        default ``auto`` picks the fast engine for clean runs and the
        reference engine whenever metrics/validation/faults are on;
        requesting ``fast`` together with any of those hooks raises
        ``ValueError`` before any replication starts.  Non-default
        engines appear in the cell labels (``policy@engine``) so
        differently pinned results are never silently aggregated.
    stream:
        Open-system load axis (:class:`StreamLoad`).  When set, every
        replication consumes a generator-backed arrival process through
        the streaming engine instead of replaying a materialised batch:
        ``loads`` become ``(max_jobs, mean_interarrival_cycles)`` of
        the stream, and the windowed waiting/turnaround quantiles,
        throughput and shed rates come back through
        :attr:`CampaignCell.observed` under ``stream.*`` keys.  Like
        ``engine='fast'``, streaming rejects the metrics/validation/
        fault hooks up front.
    dag:
        Task-graph load axis (:class:`DagLoad`).  When set, every
        replication generates a seed-keyed DAG set and runs it with
        precedence gating
        (:meth:`~repro.core.simulation.SchedulerSimulation.run_dags`):
        ``loads`` become ``(graph count, mean graph interarrival)``,
        and deadline/slack outcomes come back through
        :attr:`CampaignCell.observed` under ``dag.*`` keys.  DAG
        campaigns run on the reference engine, so ``collect_metrics``,
        ``validate`` and ``fault_plans`` all compose with this axis;
        ``stream`` and ``engine='fast'`` do not.  The deadline-aware
        ``edf``/``heft`` policies
        (:data:`~repro.core.policies.DEADLINE_POLICY_NAMES`) are
        accepted alongside the paper's four.
    power_configs:
        Power budget / DVFS configurations to sweep as a grid axis (see
        :mod:`repro.power` and the :func:`power_grid` helper); each
        entry is a :class:`~repro.power.budget.PowerConfig` or ``None``
        for an unconstrained run.  The default single-``None`` axis
        leaves campaign behaviour bit-identical to before the axis
        existed.  Labels must be unique within the sweep (they key the
        cells); entries whose configuration enables nothing normalise
        to ``None``.  The axis composes with every engine and with the
        ``dag``/``stream``/``fault_plans`` axes; powered replications
        ship their token-pool gauges back through
        :attr:`CampaignCell.observed` under ``power.*`` keys, and
        combined with ``dag`` the per-cell (energy, deadline-miss)
        pairs feed :func:`repro.analysis.render_frontier`.
    progress:
        ``progress(done, total)`` callback invoked after every finished
        replication (and once with ``(0, total)`` before the first), in
        completion order on the driving process.  The parallel path
        switches from ``pool.map`` to the equally order-preserving
        ``pool.imap`` so results stream back as they finish; the
        replications and aggregates are identical either way.
    """
    check_grid(policies, seeds, loads)
    if not fault_plans:
        raise ValueError("need at least one fault-plan entry (None = clean)")
    plan_names = [p.name for p in fault_plans if p is not None]
    if len(plan_names) != len(set(plan_names)):
        raise ValueError("fault plan names must be unique within a campaign")
    if not power_configs:
        raise ValueError(
            "need at least one power entry (None = unconstrained)"
        )
    power_configs = tuple(normalize_power(p) for p in power_configs)
    if sum(1 for p in power_configs if p is None) > 1:
        raise ValueError(
            "only one unconstrained power entry (None, or a disabled "
            "PowerConfig) is allowed per campaign"
        )
    power_labels = [p.label for p in power_configs if p is not None]
    if len(power_labels) != len(set(power_labels)):
        raise ValueError(
            "power configuration labels must be unique within a campaign"
        )
    # Fail the whole campaign up front instead of deep inside a worker
    # process on the first replication.
    resolve_engine(
        engine,
        hooks=(
            collect_metrics
            or validate
            or any(p is not None for p in fault_plans)
        ),
        ordering=[p for p in policies if p in DEADLINE_POLICY_NAMES],
        stream=stream is not None,
        dag=dag is not None,
    )
    run = RunConfig(discipline=discipline)
    if stream is not None:
        from repro.sim.stream import ADMISSION_POLICIES

        if stream.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {stream.admission!r}; "
                f"choose from {ADMISSION_POLICIES}"
            )
    if dag is not None:
        if not 0 < dag.tasks_min <= dag.tasks_max:
            raise ValueError("need 0 < tasks_min <= tasks_max")
        if not 0.0 <= dag.edge_density <= 1.0:
            raise ValueError("edge_density must be within [0, 1]")
        if dag.deadline_slack <= 0:
            raise ValueError("deadline_slack must be positive")
        if dag.criticality_levels < 1:
            raise ValueError("criticality_levels must be >= 1")

    if predictor is None:
        predictor = OraclePredictor(store)
    if energy_table is None:
        energy_table = EnergyTable()

    specs = [
        ReplicationSpec(
            policy=policy,
            seed=seed,
            count=count,
            mean_interarrival_cycles=gap,
            fault_plan=plan,
            engine=engine,
            stream=stream,
            dag=dag,
            power=pcfg,
        )
        for policy in policies
        for count, gap in loads
        for plan in fault_plans
        for pcfg in power_configs
        for seed in seeds
    ]

    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, len(specs)))

    logger.info(
        "campaign: %d replications (%d policies x %d loads x %d plans "
        "x %d seeds), %d worker(s), metrics %s",
        len(specs), len(policies), len(loads), len(fault_plans), len(seeds),
        workers, "on" if collect_metrics else "off",
    )
    start = time.perf_counter()
    if progress is not None:
        progress(0, len(specs))
    if workers == 1 or len(specs) <= 1:
        _init_worker(store, predictor, energy_table, run,
                     collect_metrics, validate)
        replications = []
        for spec in specs:
            replications.append(_run_replication(spec))
            if progress is not None:
                progress(len(replications), len(specs))
    else:
        ctx = _pool_context()
        with ctx.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(store, predictor, energy_table, run,
                      collect_metrics, validate),
        ) as pool:
            if progress is None:
                replications = pool.map(_run_replication, specs)
            else:
                replications = []
                for result in pool.imap(_run_replication, specs):
                    replications.append(result)
                    progress(len(replications), len(specs))
    wall_seconds = time.perf_counter() - start
    logger.info("campaign: finished in %.2fs", wall_seconds)

    # One pass: a cell is every replication whose spec differs only in
    # its seed.  Specs are frozen pure-data dataclasses, so the key
    # compares by value — the pool's pickled copies land in the same
    # cell — and first-seen order is the grid order.
    by_cell: Dict[ReplicationSpec, list] = {}
    for replication in replications:
        key = replace(replication.spec, seed=0)
        by_cell.setdefault(key, []).append(replication)
    powered = any(p is not None for p in power_configs)
    cells = []
    for spec, members in by_cell.items():
        metrics = {
            name: _aggregate([m.metric(name) for m in members])
            for name in CAMPAIGN_METRICS
        }
        # Registry scalars aggregate over the union of keys (missing
        # keys default to 0.0, matching a never-incremented counter),
        # so cells stay well-formed even across heterogeneous runs.
        observed: Dict[str, MetricAggregate] = {}
        if collect_metrics or stream is not None or dag is not None or powered:
            keys = sorted({key for m in members for key in m.observed})
            observed = {
                key: _aggregate([m.observed.get(key, 0.0) for m in members])
                for key in keys
            }
        cells.append(
            CampaignCell(
                policy=spec.policy,
                count=spec.count,
                mean_interarrival_cycles=spec.mean_interarrival_cycles,
                metrics=metrics,
                n=len(members),
                observed=observed,
                faults=(
                    None if spec.fault_plan is None else spec.fault_plan.name
                ),
                engine=engine,
                stream=None if stream is None else stream.process,
                dag=dag is not None,
                power=None if spec.power is None else spec.power.label,
            )
        )

    return CampaignResult(
        replications=tuple(replications),
        cells=tuple(cells),
        wall_seconds=wall_seconds,
        workers=workers,
    )
