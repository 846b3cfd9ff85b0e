"""Oracle equivalence and behaviour of the open-system streaming engine.

The streaming engine (:mod:`repro.sim.stream`) feeds the fast engine's
event loop from a generator-backed arrival process in bounded memory.
Its correctness contract has two halves:

* **Closed-batch equivalence** — a finite stream (``max_jobs=N``, no
  admission bound, per-job retention on) must produce a
  :class:`SimulationResult` *bit-identical* to the reference loop's
  ``run(poisson_arrivals(count=N))``, across the full policy ×
  discipline × preemption grid.  The reference loop is the oracle.
* **Open-system semantics** — admission control (drop / shed / block),
  warm-up truncation, duration bounds, bounded slot tables and the
  windowed quantile metrics, none of which have a batch counterpart.

The streaming front end on :class:`SchedulerSimulation` is pinned here
too, including the up-front rejection of hook-bearing configurations
(the campaign stream axis lives in ``tests/test_campaign.py``, which
has the full-suite store streaming replications need).
"""

import itertools
import os
import stat

import numpy as np
import pytest

from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.system import base_system, paper_system
from repro.obs import MetricsRegistry
from repro.obs.metrics import RELATIVE_ERROR
from repro.sim.stream import (
    ADMISSION_POLICIES,
    STREAM_SNAPSHOT_VERSION,
    StreamConfig,
    StreamingSimulation,
    read_checkpoint,
)
from repro.workloads.arrivals import (
    PoissonProcess,
    QoSProcess,
    poisson_arrivals,
    with_qos,
)
from repro.workloads.eembc import eembc_benchmark

from tests.scenarios import (
    SUITE_NAMES,
    build_energy_table,
    build_oracle,
    build_small_store,
    make_simulation,
)

DISCIPLINES = ("fifo", "priority", "edf")

#: Every (policy, discipline, preemption) combination the simulation
#: accepts (fifo+preemptive is rejected by the constructor).
GRID = [
    (policy, discipline, preemptive)
    for policy, discipline, preemptive in itertools.product(
        POLICY_NAMES, DISCIPLINES, (False, True)
    )
    if not (preemptive and discipline == "fifo")
]

N_JOBS = 400
MEAN_GAP = 30_000.0
SEED = 3

#: The paper's mean inter-arrival gap.
PAPER_GAP = 56_000.0


@pytest.fixture(scope="module")
def store():
    return build_small_store()


@pytest.fixture(scope="module")
def oracle(store):
    return build_oracle(store)


@pytest.fixture(scope="module")
def energy_table():
    return build_energy_table()


@pytest.fixture(scope="module")
def specs():
    return [eembc_benchmark(name) for name in SUITE_NAMES]


def _process(specs, *, qos=False, mean_gap=MEAN_GAP, seed=SEED):
    process = PoissonProcess(
        specs, mean_interarrival_cycles=mean_gap, seed=seed
    )
    if qos:
        process = QoSProcess(
            process,
            service_estimate=lambda name: 400_000,
            priority_levels=4,
            seed=seed,
        )
    return process


def _streaming(policy_name, store, oracle, energy_table, config,
               **kwargs):
    policy = make_policy(policy_name)
    system = (
        base_system() if policy_name == "base" else paper_system()
    )
    return StreamingSimulation(
        system,
        policy,
        store,
        predictor=oracle if policy.uses_predictor else None,
        energy_table=energy_table,
        config=config,
        **kwargs,
    )


def _reference(policy_name, store, oracle, energy_table, **kwargs):
    return make_simulation(
        policy_name, store, predictor=oracle, energy_table=energy_table,
        engine="reference", **kwargs,
    )


class TestClosedBatchEquivalence:
    @pytest.mark.parametrize("policy,discipline,preemptive", GRID)
    def test_finite_stream_bit_identical_to_batch(
        self, policy, discipline, preemptive, store, oracle,
        energy_table, specs,
    ):
        qos = discipline != "fifo"
        arrivals = poisson_arrivals(
            specs, count=N_JOBS,
            mean_interarrival_cycles=MEAN_GAP, seed=SEED,
        )
        if qos:
            arrivals = with_qos(
                arrivals,
                service_estimate=lambda name: 400_000,
                priority_levels=4,
                seed=SEED,
            )
        batch = _reference(
            policy, store, oracle, energy_table,
            discipline=discipline, preemptive=preemptive,
        ).run(arrivals)
        streaming = _streaming(
            policy, store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS, retain_jobs=True),
            discipline=discipline, preemptive=preemptive,
        )
        result = streaming.run(_process(specs, qos=qos))
        assert result.sim_result == batch
        assert result.jobs_completed == N_JOBS
        assert result.jobs_generated == N_JOBS
        assert result.makespan_cycles == batch.makespan_cycles

    def test_preloaded_profiles_equivalent(
        self, store, oracle, energy_table, specs
    ):
        arrivals = poisson_arrivals(
            specs, count=N_JOBS,
            mean_interarrival_cycles=MEAN_GAP, seed=SEED,
        )
        batch = _reference(
            "proposed", store, oracle, energy_table,
            preload_profiles=True,
        ).run(arrivals)
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS, retain_jobs=True),
            preload_profiles=True,
        )
        assert streaming.run(_process(specs)).sim_result == batch

    def test_stepwise_advance_matches_single_drive(
        self, store, oracle, energy_table, specs
    ):
        config = StreamConfig(max_jobs=N_JOBS, retain_jobs=True)
        one = _streaming("proposed", store, oracle, energy_table, config)
        whole = one.run(_process(specs))
        stepped = _streaming(
            "proposed", store, oracle, energy_table, config
        )
        stepped.start(_process(specs))
        while stepped.advance(max_events=17):
            pass
        assert stepped.result() == whole

    @pytest.mark.parametrize("budget", [0, -1, -50])
    def test_spent_budget_returns_at_once(
        self, store, oracle, energy_table, specs, budget
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS, retain_jobs=True),
        )
        streaming.start(_process(specs))
        streaming.advance(max_events=3)
        before = streaming.snapshot()
        assert streaming.advance(max_events=budget)
        assert streaming.advance(max_completions=budget)
        assert streaming.snapshot() == before


class TestBoundedMemory:
    def test_slot_table_stays_small_without_retention(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=5_000),
        )
        result = streaming.run(_process(specs, mean_gap=56_000.0))
        assert result.jobs_completed == 5_000
        slots = len(streaming._s["jbid"])
        assert slots < 200, slots
        assert streaming._s["records"] == []

    def test_retention_keeps_every_job(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=300, retain_jobs=True),
        )
        result = streaming.run(_process(specs))
        assert len(result.sim_result.jobs) == 300
        assert len(streaming._s["jbid"]) == 300


class TestAdmissionControl:
    def test_drop_rejects_and_accounts(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(
                max_jobs=1_000, queue_capacity=4, admission="drop"
            ),
        )
        result = streaming.run(_process(specs, mean_gap=6_000.0))
        assert result.jobs_dropped > 0
        assert result.jobs_shed == 0
        assert (
            result.jobs_completed + result.jobs_dropped == 1_000
        )
        assert result.shed_rate == pytest.approx(
            result.jobs_dropped / 1_000
        )

    def test_shed_evicts_queued_jobs(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(
                max_jobs=1_000, queue_capacity=4, admission="shed"
            ),
        )
        result = streaming.run(_process(specs, mean_gap=6_000.0))
        assert result.jobs_shed > 0
        assert result.jobs_dropped == 0
        assert result.jobs_completed + result.jobs_shed == 1_000

    def test_shed_under_priority_evicts_worst(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(
                max_jobs=600, queue_capacity=4, admission="shed"
            ),
            discipline="priority",
        )
        result = streaming.run(
            _process(specs, qos=True, mean_gap=6_000.0)
        )
        assert result.jobs_shed > 0
        assert result.jobs_completed + result.jobs_shed == 600

    def test_block_completes_everything(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(
                max_jobs=800, queue_capacity=4, admission="block"
            ),
        )
        result = streaming.run(_process(specs, mean_gap=6_000.0))
        assert result.jobs_completed == 800
        assert result.jobs_dropped == 0 and result.jobs_shed == 0
        assert result.blocked_cycles > 0
        assert result.max_queue_len <= 4 + 1  # one forced admission slot

    def test_unbounded_queue_never_drops(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=400),
        )
        result = streaming.run(_process(specs, mean_gap=6_000.0))
        assert result.jobs_completed == 400
        assert result.jobs_dropped == 0 and result.jobs_shed == 0


class TestStreamBounds:
    def test_duration_truncates_generation(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(duration_cycles=20_000_000),
        )
        result = streaming.run(_process(specs, mean_gap=25_000.0))
        assert 0 < result.jobs_generated
        assert result.jobs_completed == result.jobs_generated
        # Every admitted arrival happened inside the horizon; the jobs
        # themselves may complete after it.
        assert result.makespan_cycles >= 0

    def test_warmup_truncates_metrics_only(
        self, store, oracle, energy_table, specs
    ):
        cold = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS),
        ).run(_process(specs))
        warm = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS, warmup_cycles=3_000_000),
        ).run(_process(specs))
        # Engine arithmetic is untouched; only observation changes.
        assert warm.makespan_cycles == cold.makespan_cycles
        assert warm.total_energy_nj == cold.total_energy_nj
        assert warm.jobs_completed == cold.jobs_completed
        assert 0 < warm.observed_jobs < cold.observed_jobs
        assert cold.observed_jobs == cold.jobs_completed

    def test_quantile_snapshots_track_waiting(
        self, store, oracle, energy_table, specs
    ):
        result = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS),
        ).run(_process(specs, mean_gap=6_000.0))
        waiting = result.waiting
        assert waiting["count"] == result.observed_jobs
        assert (
            waiting["p50"] <= waiting["p90"] <= waiting["p99"]
            <= waiting["max"]
        )
        assert result.turnaround["min"] >= waiting["min"]

    def test_quantiles_within_bound_of_retained_records(
        self, store, oracle, energy_table, specs
    ):
        """Reported P50/P90/P99 against numpy over every job record.

        Each must lie within ``RELATIVE_ERROR`` of the bracket of order
        statistics that ``numpy.quantile`` interpolates between.
        """
        result = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=2_000, retain_jobs=True),
        ).run(_process(specs, mean_gap=PAPER_GAP, seed=1))
        records = result.sim_result.jobs
        assert result.observed_jobs == len(records) == 2_000
        exact = {
            "waiting": [r.waiting_cycles for r in records],
            "turnaround": [
                r.completion_cycle - r.arrival_cycle for r in records
            ],
        }
        for name, values in exact.items():
            data = np.asarray(values, dtype=float)
            snapshot = getattr(result, name)
            for key, p in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
                low = np.quantile(data, p, method="lower")
                high = np.quantile(data, p, method="higher")
                assert (
                    low * (1 - RELATIVE_ERROR)
                    <= snapshot[key]
                    <= high * (1 + RELATIVE_ERROR)
                ), (name, key, low, high, snapshot[key])


class TestValidation:
    def test_config_requires_a_bound(self):
        with pytest.raises(ValueError, match="max_jobs"):
            StreamConfig()

    def test_config_rejects_bad_admission(self):
        with pytest.raises(ValueError, match="admission"):
            StreamConfig(max_jobs=10, admission="reject")

    def test_admission_policies_tuple(self):
        assert ADMISSION_POLICIES == ("drop", "shed", "block")

    def test_engine_requires_config(self, store, oracle, energy_table):
        with pytest.raises(ValueError, match="StreamConfig"):
            StreamingSimulation(
                paper_system(), make_policy("proposed"), store,
                predictor=oracle, energy_table=energy_table,
            )

    def test_runs_exactly_once(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=20),
        )
        streaming.run(_process(specs))
        with pytest.raises(RuntimeError, match="exactly once"):
            streaming.run(_process(specs))

    def test_result_requires_finished_run(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=200),
        )
        streaming.start(_process(specs))
        streaming.advance(max_events=5)
        with pytest.raises(RuntimeError, match="pending events"):
            streaming.result()

    def test_unknown_benchmark_raises(
        self, store, oracle, energy_table
    ):
        foreign = [eembc_benchmark("cacheb")]
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=5),
        )
        with pytest.raises(KeyError, match="cacheb"):
            streaming.run(_process(foreign))


class TestSchedulerSimulationFrontEnd:
    def test_stream_matches_direct_engine(
        self, store, oracle, energy_table, specs
    ):
        sim = make_simulation(
            "proposed", store, predictor=oracle,
            energy_table=energy_table,
        )
        config = StreamConfig(max_jobs=N_JOBS, retain_jobs=True)
        via_front_end = sim.stream(_process(specs), config)
        direct = _streaming(
            "proposed", store, oracle, energy_table, config
        ).run(_process(specs))
        assert via_front_end == direct

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"metrics": MetricsRegistry()},
            {"validate": True},
            {"engine": "reference"},
        ),
        ids=("metrics", "validate", "reference"),
    )
    def test_hooked_simulation_rejected_up_front(
        self, kwargs, store, oracle, energy_table, specs
    ):
        sim = make_simulation(
            "proposed", store, predictor=oracle,
            energy_table=energy_table, **kwargs,
        )
        with pytest.raises(ValueError, match="windowed metrics"):
            sim.stream(_process(specs), StreamConfig(max_jobs=10))


class TestDurableCheckpoint:
    def test_write_fsyncs_file_and_directory(
        self, store, oracle, energy_table, specs, tmp_path, monkeypatch
    ):
        config = StreamConfig(max_jobs=N_JOBS)
        whole = _streaming(
            "proposed", store, oracle, energy_table, config
        ).run(_process(specs))

        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        killed = _streaming("proposed", store, oracle, energy_table, config)
        killed.start(_process(specs))
        killed.advance(max_completions=150)
        path = tmp_path / "stream.ckpt"
        killed.write_checkpoint(str(path))
        # The temporary file before the rename, its directory after.
        assert synced == [False, True]
        assert not (tmp_path / "stream.ckpt.tmp").exists()

        resumed = _streaming(
            "proposed", store, oracle, energy_table, config
        )
        assert resumed.resume(
            read_checkpoint(str(path)), _process(specs)
        ) == whole

    def test_v3_checkpoint_refused(
        self, store, oracle, energy_table, specs, tmp_path
    ):
        """A checkpoint carrying P² estimator state (v3) is not read."""
        assert STREAM_SNAPSHOT_VERSION == 4
        config = StreamConfig(max_jobs=N_JOBS)
        killed = _streaming("proposed", store, oracle, energy_table, config)
        killed.start(_process(specs))
        killed.advance(max_completions=150)
        snapshot = killed.snapshot()
        snapshot["version"] = 3
        resumed = _streaming(
            "proposed", store, oracle, energy_table, config
        )
        with pytest.raises(
            ValueError, match="unsupported stream snapshot version 3"
        ):
            resumed.resume(snapshot, _process(specs))
