"""The benchmark's four workloads, driven through the public API only.

Each workload has the same shape:

* ``setup()`` builds what a timed repetition needs and returns it;
  ``run.py`` times it several times and reports the median as ``setup_s``;
* ``prepare(state)`` makes a fresh directory for one repetition;
* ``run(state, out, tracer)`` is one timed repetition.  It returns
  ``(jobs, output, laps)``: ``laps`` (a :class:`Laps`) times the
  repetition's parts, which are the same work in every repetition, so
  ``run.py`` can take each part's median;
* ``check(state, output, checks, tracer)`` is the untimed correctness
  pass over the last repetition's output;
* ``layers(state, output, rep_s, tracer, checks)`` is the traced run,
  given the median untraced repetition time ``rep_s``.  It returns the
  per-layer metrics that the span tree does not give.

The host-side work is batch work: the open system exists only in
simulated time.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import time
from pathlib import Path
from typing import List

import numpy as np

from repro.analysis import (
    jobs_to_csv,
    render_figure6,
    render_figure7,
    results_to_csv,
    results_to_json,
)
from repro.ann.training import TrainingConfig
from repro.campaign import DagLoad, ReplicationSpec, run_campaign
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.predictor import AnnPredictor
from repro.core.simulation import SchedulerSimulation
from repro.core.system import base_system, paper_system
from repro.energy.tables import EnergyTable
from repro.experiment import (
    default_dataset,
    default_predictor,
    default_store,
    run_four_systems,
)
from repro.obs.metrics import Histogram
from repro.obs.telemetry import Telemetry
from repro.sim.stream import StreamConfig, StreamingSimulation, read_checkpoint
from repro.validate.ledger import ValidationError
from repro.workloads.arrivals import PoissonProcess, uniform_arrivals
from repro.workloads.dag import generate_task_graphs
from repro.workloads.eembc import eembc_suite

from hostspeed import scaled, speed
from tracing import NullTracer, TimedProcess, TimedTelemetry

#: The paper's mean inter-arrival gap (cycles) and a light load.
PAPER_GAP = 56_000
LIGHT_GAP = 120_000

#: Characterisation and training settings of the warm cache: the
#: defaults of :func:`repro.experiment.default_predictor`.
CACHE_SEED = 0

NULL = NullTracer()


def load_warm(cache_dir: Path):
    """Store and predictor from the benchmark's own cache.

    A pure load once the cache is warm; on an empty directory it
    characterises and trains, which is how the cache gets warmed.
    """
    store = default_store(cache_dir / "suite.json", seed=CACHE_SEED)
    predictor = default_predictor(
        store,
        seed=CACHE_SEED,
        dataset_cache_path=cache_dir / "dataset.json",
        model_cache_path=cache_dir / "model.json",
    )
    return store, predictor


def _outcome(result) -> tuple:
    """What a replication reports, minus its wall time.

    Campaign ``ReplicationResult`` and ``SimulationResult`` share these
    attribute names.
    """
    return (
        result.jobs_completed, result.makespan_cycles,
        result.total_energy_nj, result.idle_energy_nj,
        result.dynamic_energy_nj, result.mean_waiting_cycles,
        result.non_best_decisions,
    )


class Laps:
    """Wall time of each consecutive part of one repetition.

    When ``calibrated``, the host's speed is measured before the first
    part and after each one, outside the parts' times, with the
    arguments of :func:`hostspeed.speed`; ``scaled`` holds each part's
    time on the reference host and ``speeds`` the measured speeds.
    Traced repetitions are not calibrated.
    """

    def __init__(self, calibrated: bool = True, all_cpus: bool = False,
                 samples: int = 1) -> None:
        self.times: List[float] = []
        self.scaled: List[float] = []
        self.speeds: List[float] = []
        self._speed_args = (all_cpus, samples)
        if calibrated:
            self.speeds.append(speed(*self._speed_args))
        self._last = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        self.times.append(now - self._last)
        if self.speeds:
            self.speeds.append(speed(*self._speed_args))
            self.scaled.append(scaled(self.times[-1], *self.speeds[-2:]))
            now = time.perf_counter()
        self._last = now


class Workload:
    name = ""
    uses_warm_cache = True
    #: Scale each step by the host speed measured at its two ends.  A
    #: step that lasts longer than the host holds one speed (about a
    #: second), or that a pool spreads over every CPU, sees the mean
    #: speed over its span, which the whole run's mean speed estimates
    #: better than two samples do; such workloads set this False and
    #: take ``SPEED_SAMPLES`` loop runs per measurement.
    speed_per_step = True
    SPEED_SAMPLES = 4

    def __init__(self, seed: int, workdir: Path, cache_dir: Path,
                 workers: int) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cache_dir = cache_dir
        self.workers = workers

    def prepare(self, state) -> Path:
        self._reps = getattr(self, "_reps", 0) + 1
        out = self.workdir / f"rep-{self._reps}"
        out.mkdir(parents=True)
        return out


# -- reproduce-cold ---------------------------------------------------------


class ReproduceCold(Workload):
    """The paper's evaluation from empty caches, as a researcher runs it."""

    name = "reproduce-cold"
    uses_warm_cache = False
    speed_per_step = False
    JOBS = 5000
    VARIANTS = 12
    MEMBERS = 10
    EPOCHS = 200

    def setup(self):
        suite = eembc_suite()
        return {"arrivals": uniform_arrivals(suite, count=self.JOBS,
                                             seed=self.seed)}

    def run(self, state, out: Path, tracer=NULL):
        with tracer.span("run"):
            return self._run(state, out, tracer)

    def _run(self, state, out: Path, tracer):
        # Characterisation and training use the library's default seed;
        # the workload seed draws the arrivals.  The seed of the trained
        # model moves how congested energy_centric gets several-fold,
        # which would swamp run-to-run comparisons.
        arrivals = state["arrivals"]
        seed = CACHE_SEED
        laps = Laps(calibrated=not tracer.enabled,
                    samples=self.SPEED_SAMPLES)
        with tracer.span("characterization.suite"):
            store = default_store(out / "suite.json", seed=seed)
        laps.lap()
        if tracer.enabled:
            # The traced run calls the layers default_predictor wraps
            # one by one, so dataset building and training get spans.
            with tracer.span("characterization.dataset"):
                dataset, dstore = default_dataset(
                    self.VARIANTS, cache_path=out / "dataset.json",
                    seed=seed, base_store=store,
                )
            predictor = self._traced_training(dataset, tracer)
            laps.lap()
            results = {}
            for name in POLICY_NAMES:
                policy = make_policy(name)
                with tracer.span("core.build"):
                    sim = SchedulerSimulation(
                        base_system() if name == "base" else paper_system(),
                        policy, store,
                        predictor=predictor if policy.uses_predictor else None,
                        energy_table=EnergyTable(),
                    )
                with tracer.span("sim.fast.run"):
                    results[name] = sim.run(arrivals)
            tracer.count("sim.fast.jobs", sum(
                r.jobs_completed for r in results.values()))
            tracer.count("characterization.benchmarks", len(
                set(store.names()) | set(dstore.names())))
        else:
            predictor = default_predictor(
                store, seed=seed, n_members=self.MEMBERS, epochs=self.EPOCHS,
                variants_per_family=self.VARIANTS,
                dataset_cache_path=out / "dataset.json",
                model_cache_path=out / "model.json",
            )
            laps.lap()
            results = run_four_systems(arrivals, store, predictor)
        laps.lap()
        with tracer.span("reporting.render"):
            self._render(results, out)
        laps.lap()
        jobs = sum(r.jobs_completed for r in results.values())
        return jobs, {"store": store, "predictor": predictor,
                      "results": results, "out": out}, laps

    def _traced_training(self, dataset, tracer):
        """Train as default_predictor does, keeping the epoch counts."""
        predictor = AnnPredictor(n_members=self.MEMBERS, seed=CACHE_SEED)
        fit = predictor.ensemble.fit

        def counting_fit(*args, **kwargs):
            histories = fit(*args, **kwargs)
            tracer.count("ann.epochs", sum(h.epochs_run for h in histories))
            return histories

        predictor.ensemble.fit = counting_fit
        with tracer.span("ann.train"):
            split = dataset.split(seed=CACHE_SEED, by_family=False)
            predictor.fit(
                split.train, val_dataset=split.val,
                config=TrainingConfig(epochs=self.EPOCHS, seed=CACHE_SEED),
            )
        return predictor

    @staticmethod
    def _render(results, out: Path) -> None:
        (out / "REPORT.md").write_text(
            "# Figure 6\n\n" + render_figure6(results)
            + "\n\n# Figure 7\n\n" + render_figure7(results) + "\n"
        )
        results_to_csv(results, out / "summary.csv")
        results_to_json(results, out / "results.json", include_jobs=True)
        jobs_to_csv(results["proposed"], out / "jobs_proposed.csv")

    def check(self, state, output, checks, tracer=NULL):
        reference = run_four_systems(
            state["arrivals"], output["store"], output["predictor"],
            engine="reference",
        )
        for name, result in output["results"].items():
            checks.expect(
                f"{name}: fast engine equals the reference loop",
                result == reference[name],
            )
        for file in ("REPORT.md", "summary.csv", "results.json",
                     "jobs_proposed.csv"):
            path = output["out"] / file
            checks.expect(f"report file {file} written",
                          path.is_file() and path.stat().st_size > 0)

    def layers(self, state, output, rep_s, tracer, checks):
        traced = self.run(state, self.prepare(state), tracer)[1]
        checks.expect("traced results equal the untraced ones",
                      traced["results"] == output["results"])
        return {"trace.overhead_s": tracer.total("run") - rep_s}


# -- batch-grid -------------------------------------------------------------


class _CampaignWorkload(Workload):
    """Shared shape of the two campaign workloads."""

    SEEDS = 10
    speed_per_step = False
    dag = None
    validate = False

    def seeds(self) -> List[int]:
        return [self.seed * 1000 + i for i in range(self.SEEDS)]

    def setup(self):
        store, predictor = load_warm(self.cache_dir)
        return {"store": store, "predictor": predictor}

    def specs(self) -> List[ReplicationSpec]:
        return [
            ReplicationSpec(policy=policy, seed=seed, count=count,
                            mean_interarrival_cycles=gap, dag=self.dag)
            for policy in self.policies
            for count, gap in self.loads
            for seed in self.seeds()
        ]

    def run(self, state, out, tracer=NULL):
        # The pool keeps every CPU busy, so the host speed is every CPU's.
        laps = Laps(all_cpus=True, samples=self.SPEED_SAMPLES)
        result = run_campaign(
            state["store"], state["predictor"],
            policies=self.policies, seeds=self.seeds(), loads=self.loads,
            workers=self.workers, dag=self.dag, validate=self.validate,
        )
        laps.lap()
        jobs = sum(r.jobs_completed for r in result.replications)
        return jobs, result, laps

    def serial(self, state, tracer=NULL, validate=None):
        """Every replication of the grid, one after another in-process.

        Returns ``(results, wall_s, sim_s)``; ``results`` holds a key
        tuple per replication (or the ValidationError it raised) and
        ``sim_s`` the summed run/run_dags time.
        """
        validate = self.validate if validate is None else validate
        suite = eembc_suite()
        names = [spec.name for spec in suite]
        energy_table = EnergyTable()
        results = []
        sim_s = 0.0
        start = time.perf_counter()
        for spec in self.specs():
            if self.dag is None:
                with tracer.span("workloads.arrivals.gen"):
                    arrivals = uniform_arrivals(
                        suite, count=spec.count, seed=spec.seed,
                        mean_interarrival_cycles=spec.mean_interarrival_cycles,
                    )
                tracer.count("workloads.arrivals.chunks")
            else:
                with tracer.span("workloads.dag.gen"):
                    graphs = generate_task_graphs(
                        count=spec.count, seed=spec.seed, benchmarks=names,
                        tasks_min=self.dag.tasks_min,
                        tasks_max=self.dag.tasks_max,
                        edge_density=self.dag.edge_density,
                        deadline_slack=self.dag.deadline_slack,
                        criticality_levels=self.dag.criticality_levels,
                        mean_interarrival_cycles=spec.mean_interarrival_cycles,
                    )
            policy = make_policy(spec.policy)
            with tracer.span("core.build"):
                sim = SchedulerSimulation(
                    base_system() if spec.policy == "base" else paper_system(),
                    policy, state["store"],
                    predictor=(state["predictor"] if policy.uses_predictor
                               else None),
                    energy_table=energy_table, validate=validate,
                )
            t0 = time.perf_counter()
            try:
                if self.dag is None:
                    with tracer.span("sim.fast.run"):
                        result = sim.run(arrivals)
                    tracer.count("sim.fast.jobs", result.jobs_completed)
                else:
                    with tracer.span("core.simulation.run_dags"):
                        result = sim.run_dags(graphs)
                    tracer.count("core.simulation.tasks",
                                 result.jobs_completed)
            except ValidationError as error:
                results.append(error)
                continue
            finally:
                sim_s += time.perf_counter() - t0
            results.append(_outcome(result))
        return results, time.perf_counter() - start, sim_s

    def check(self, state, output, checks, tracer=NULL):
        self._serial = self.serial(state)
        self._compare(output, self._serial[0], checks, "serial")

    def _compare(self, output, serial, checks, label) -> int:
        failed = 0
        for rep, mine in zip(output.replications, serial):
            ok = not isinstance(mine, Exception) and (
                _outcome(rep) == mine)
            failed += not ok
            checks.expect(
                f"{label} {rep.spec.policy} seed={rep.spec.seed} "
                f"gap={rep.spec.mean_interarrival_cycles} equals the "
                "pooled cell", ok, "" if ok else repr(mine),
            )
        checks.expect(f"{label} pass ran every pooled cell",
                      len(serial) == len(output.replications))
        return failed

    def layers(self, state, output, rep_s, tracer, checks):
        with tracer.span("run"):
            serial, _, _ = self.serial(state, tracer)
        failed = self._compare(output, serial, checks, "traced")
        # The untraced baseline runs after the correctness pass, so both
        # sides of the overhead see a warmed-up process.
        self._baseline = self.serial(state)
        _, wall_s, _ = self._baseline
        return {
            "campaign.overhead_s": rep_s - wall_s / self.workers,
            "campaign.cells": len(output.replications),
            "campaign.cells_failed": failed,
            "trace.overhead_s": tracer.total("run") - wall_s,
        }


class BatchGrid(_CampaignWorkload):
    """Paper policies over many seeds at two loads on the fast engine."""

    name = "batch-grid"
    policies = POLICY_NAMES
    loads = ((1000, PAPER_GAP), (1000, LIGHT_GAP))


class DagValidated(_CampaignWorkload):
    """DAG grid on the reference loop with the energy ledger on."""

    name = "dag-validated"
    policies = ("base", "proposed", "edf", "heft")
    loads = ((50, 300_000),)
    dag = DagLoad()
    validate = True
    SEEDS = 8

    def check(self, state, output, checks, tracer=NULL):
        super().check(state, output, checks, tracer)
        self._violations = sum(
            isinstance(r, ValidationError) for r in self._serial[0])
        checks.expect("ledger and invariants raised nothing",
                      self._violations == 0)

    def layers(self, state, output, rep_s, tracer, checks):
        metrics = super().layers(state, output, rep_s, tracer, checks)
        _, _, unvalidated_s = self.serial(state, validate=False)
        metrics["validate.ledger_s"] = self._baseline[2] - unvalidated_s
        metrics["validate.violations"] = self._violations
        return metrics


# -- stream-open ------------------------------------------------------------


class StreamOpen(Workload):
    """One long open-system stream with telemetry and checkpoints on."""

    name = "stream-open"
    JOBS = 200_000
    #: Completions per timed step, and steps per checkpoint.
    STEP = 5_000
    CHECKPOINT_STEPS = 10

    def setup(self):
        store, predictor = load_warm(self.cache_dir)
        state = {"store": store, "predictor": predictor}
        # A stream runs once, so each repetition builds its own outside
        # the timed steps; building one here puts that cost in setup_s.
        self._build(state, StreamConfig(max_jobs=self.JOBS),
                    Telemetry(out=None))
        return state

    def _build(self, state, config, telemetry=None):
        return StreamingSimulation(
            paper_system(), make_policy("proposed"), state["store"],
            predictor=state["predictor"], energy_table=EnergyTable(),
            config=config, telemetry=telemetry,
        )

    def _process(self):
        return PoissonProcess(eembc_suite(),
                              mean_interarrival_cycles=PAPER_GAP,
                              seed=self.seed)

    def run(self, state, out: Path, tracer=NULL):
        telemetry_path = out / "telemetry.jsonl"
        process = self._process()
        if tracer.enabled:
            telemetry = TimedTelemetry(tracer, out=telemetry_path)
            process = TimedProcess(process, tracer)
            with tracer.span("core.build"):
                sim = self._build(state, StreamConfig(max_jobs=self.JOBS),
                                  telemetry)
        else:
            telemetry = Telemetry(out=telemetry_path)
            sim = self._build(state, StreamConfig(max_jobs=self.JOBS),
                              telemetry)
        checkpoints = []
        laps = Laps(calibrated=not tracer.enabled)
        with tracer.span("run"):
            sim.start(process)
            more = True
            while more:
                with tracer.span("sim.stream"):
                    more = sim.advance(max_completions=self.STEP)
                if not more or len(laps.times) % self.CHECKPOINT_STEPS == (
                        self.CHECKPOINT_STEPS - 1):
                    path = out / f"checkpoint-{len(checkpoints)}.json"
                    with tracer.span("sim.stream.checkpoint_write"):
                        sim.write_checkpoint(str(path))
                    checkpoints.append(path)
                laps.lap()
            with tracer.span("sim.stream"):
                result = sim.result()
            laps.lap()
        telemetry.close()
        return result.jobs_completed, {
            "sim": sim, "result": result, "telemetry": telemetry,
            "telemetry_path": telemetry_path, "checkpoints": checkpoints,
            "out": out,
        }, laps

    def check(self, state, output, checks, tracer=NULL):
        result = output["result"]
        sim = output["sim"]
        checks.expect(
            "generated = completed + dropped + shed",
            result.jobs_generated == self.JOBS
            and result.jobs_generated == result.jobs_completed
            + result.jobs_dropped + result.jobs_shed,
        )
        slots = len(sim.snapshot()["engine"]["jbid"])
        self._slots = slots
        checks.expect(
            "job slots bounded by cores + peak queue",
            slots <= sim.f.n_cores + result.max_queue_len,
            f"{slots} slots",
        )

        # Resume from a mid-run checkpoint (150,000 of 200,000 jobs) into
        # a copy of the telemetry file.
        mid = output["checkpoints"][len(output["checkpoints"]) // 2]
        resumed_path = output["out"] / "telemetry-resumed.jsonl"
        shutil.copyfile(output["telemetry_path"], resumed_path)
        snapshot = read_checkpoint(str(mid))
        telemetry = Telemetry(out=resumed_path)
        resumed = self._build(state, StreamConfig(max_jobs=self.JOBS),
                              telemetry)
        with tracer.span("sim.stream.restore"):
            resumed.restore(snapshot, self._process())
        while resumed.advance():
            pass
        resumed_result = resumed.result()
        telemetry.close()
        checks.expect("resume from a mid-run checkpoint equals the "
                      "uninterrupted run", resumed_result == result)
        checks.expect(
            "resumed telemetry file is byte-identical",
            resumed_path.read_bytes() == output["telemetry_path"].read_bytes(),
        )

        # The same arrivals with every per-job record retained.
        retained_sim = self._build(
            state, StreamConfig(max_jobs=self.JOBS, retain_jobs=True))
        retained = retained_sim.run(self._process())
        batch = retained.sim_result
        checks.expect(
            "retain_jobs run matches energy, counters and quantiles",
            dataclasses.replace(retained, sim_result=None) == result,
        )
        checks.expect(
            "retained records match the streaming totals",
            batch.jobs_completed == result.jobs_completed
            and batch.total_energy_nj == result.total_energy_nj,
        )
        self._records = batch.jobs

    def layers(self, state, output, rep_s, tracer, checks):
        traced = self.run(state, self.prepare(state), tracer)[1]
        checks.expect("traced run equals the untraced run",
                      traced["result"] == output["result"])
        result = output["result"]
        waiting = [r.waiting_cycles for r in self._records]
        turnaround = [r.completion_cycle - r.arrival_cycle
                      for r in self._records]
        # Replay the run's own values, in completion order, into fresh
        # P² histograms: the estimator's cost and its exactness check.
        wait_hist = Histogram("waiting")
        turn_hist = Histogram("turnaround")
        with tracer.span("obs.metrics.observe"):
            for w, t in zip(waiting, turnaround):
                wait_hist.observe(w)
                turn_hist.observe(t)
        tracer.count("obs.metrics.observations", 2 * len(waiting))
        checks.expect(
            "replayed histograms equal the engine's",
            wait_hist.snapshot() == result.waiting
            and turn_hist.snapshot() == result.turnaround,
        )
        checkpoint_sizes = [p.stat().st_size for p in output["checkpoints"]]
        return {
            "quantile_rel_err": quantile_rel_err(result, waiting, turnaround),
            "sim.stream.jobs": result.jobs_completed,
            "sim.stream.job_slots": self._slots,
            "sim.stream.max_queue_len": result.max_queue_len,
            "obs.telemetry.samples": output["telemetry"].samples,
            "obs.telemetry.bytes": output["telemetry"].out_bytes,
            "sim.stream.checkpoint_write_ms": (
                tracer.total("sim.stream.checkpoint_write") * 1e3
                / len(checkpoint_sizes)),
            "sim.stream.checkpoint_bytes": statistics.median(
                checkpoint_sizes),
            "sim.stream.checkpoints": len(checkpoint_sizes),
            "sim.stream.restore_ms": tracer.total("sim.stream.restore") * 1e3,
            "trace.overhead_s": tracer.total("run") - rep_s,
        }


def quantile_rel_err(result, waiting, turnaround) -> float:
    """Largest |reported - exact| / exact over the six stream quantiles."""
    worst = 0.0
    for snapshot, values in ((result.waiting, waiting),
                             (result.turnaround, turnaround)):
        exact = np.quantile(np.asarray(values, dtype=float),
                            [0.5, 0.9, 0.99])
        for key, truth in zip(("p50", "p90", "p99"), exact):
            worst = max(worst, abs(snapshot[key] - truth) / truth)
    return float(worst)


WORKLOADS = {
    cls.name: cls
    for cls in (ReproduceCold, BatchGrid, StreamOpen, DagValidated)
}
