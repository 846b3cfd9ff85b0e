"""Property tests for the power axis.

Three contracts from the issue, Hypothesis-driven where the input space
matters and pinned where the scenario is the specification:

* token conservation — the pool's account agrees with the validation
  ledger's ``fsum``-exact token lists at ``2**-40`` relative tolerance,
  on randomly drawn cap/slack/DVFS/queue-shape combinations;
* a pinned congested sweep shows the energy / deadline trade-off:
  tokens consumed monotone non-increasing and the deadline-miss rate
  monotone non-decreasing as the cap tightens;
* DVFS/pool state survives ``state_dict``/``load_state`` exactly, and a
  powered streaming run killed at any point resumes bit-identically
  (byte-identical final snapshots, same settled token account).
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.system import paper_system
from repro.power.budget import PowerConfig, TokenPool
from repro.power.dvfs import DEFAULT_DVFS_TABLE
from repro.sim.stream import (
    STREAM_SNAPSHOT_VERSION,
    StreamConfig,
    StreamingSimulation,
)
from repro.validate.ledger import REL_TOLERANCE
from repro.workloads.arrivals import PoissonProcess, QoSProcess
from repro.workloads.eembc import eembc_benchmark

from .conftest import SUITE_NAMES, make_simulation, qos_arrivals

#: The pinned congested scenario: EDF-ordered QoS stream dense enough
#: that the cap binds, caps descending through the region where the
#: trade-off is monotone (the loose end, where the first degraded
#: dispatches can *help* EDF by rebalancing load, is pinned separately
#: by the bit-identity suite's uncapped baseline).
PINNED_CAPS = (1_000_000.0, 500_000.0, 250_000.0, 125_000.0)


#: Power configurations of the engine-equivalence grid: every gate path
#: (degrade along the config and DVFS axes, overdraft, wait), cluster
#: caps, the slack test, and DVFS with no cap at all.
POWERED_CONFIGS = {
    "cap3e5-4kb1.5e5-slack25-dvfs": PowerConfig(
        cap_nj=300_000.0,
        cluster_caps_nj=((4, 150_000.0),),
        slack_pct=25.0,
        dvfs=DEFAULT_DVFS_TABLE,
    ),
    "cap2.5e5-dvfs": PowerConfig(cap_nj=250_000.0, dvfs=DEFAULT_DVFS_TABLE),
    "dvfs": PowerConfig(dvfs=DEFAULT_DVFS_TABLE),
    "cap1.25e5-slack50": PowerConfig(cap_nj=125_000.0, slack_pct=50.0),
}

#: ``(policy, discipline, preemptive, power)`` cases run on both
#: engines: the pinned frontier's loosest and tightest caps, then every
#: paper policy under each queue shape and power configuration.
POWERED_GRID = [
    pytest.param(
        "proposed", "edf", False, PowerConfig(cap_nj=cap), id=f"{cap}"
    )
    for cap in (PINNED_CAPS[0], PINNED_CAPS[-1])
] + [
    pytest.param(
        policy, discipline, preemptive, power,
        id=f"{policy}-{discipline}-{preemptive}-{label}",
    )
    for policy in POLICY_NAMES
    for discipline, preemptive in (
        ("fifo", False), ("priority", True), ("edf", True), ("edf", False)
    )
    for label, power in POWERED_CONFIGS.items()
]


def _pinned_arrivals():
    return qos_arrivals(repeats=10, gap=12_000, seed=2)


def _run_pinned(store, oracle, energy_table, cap, *, engine="fast",
                validate=False):
    sim = make_simulation(
        "proposed", store, oracle, energy_table,
        discipline="edf", preemptive=False, engine=engine,
        validate=validate, power=PowerConfig(cap_nj=cap),
    )
    result = sim.run(_pinned_arrivals())
    return sim, result


class TestTokenConservation:
    @given(
        cap=st.sampled_from((200_000.0, 400_000.0, 800_000.0)),
        slack=st.sampled_from((0.0, 25.0)),
        dvfs=st.booleans(),
        shape=st.sampled_from(
            (("fifo", False), ("priority", False), ("priority", True),
             ("edf", False), ("edf", True))
        ),
        gap=st.integers(min_value=8_000, max_value=40_000),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_pool_agrees_with_ledger(
        self, cap, slack, dvfs, shape, gap, seed, small_store, oracle,
        energy_table,
    ):
        discipline, preemptive = shape
        power = PowerConfig(
            cap_nj=cap,
            slack_pct=slack,
            dvfs=DEFAULT_DVFS_TABLE if dvfs else None,
        )
        sim = make_simulation(
            "proposed", small_store, oracle, energy_table,
            discipline=discipline, preemptive=preemptive,
            validate=True, power=power,
        )
        arrivals = qos_arrivals(repeats=5, gap=gap, seed=seed)
        # validate=True already raises on any ledger/invariant breach,
        # including the run-end token-conservation check.
        result = sim.run(arrivals)
        assert result.jobs_completed == len(arrivals)

        pool = sim.power_pool
        ledger = sim._validator.ledger
        # Every grant settled: nothing still held after the drain.
        assert pool.idle()
        assert pool.grants == len(ledger.token_grants)
        assert pool.refunds == len(ledger.token_refunds)
        # The pool's running gauges agree with the ledger's exact fsum
        # account at the validation tolerance.
        net = ledger.token_granted_nj - ledger.token_refunded_nj
        assert math.isclose(
            pool.consumed_nj, net, rel_tol=REL_TOLERANCE, abs_tol=1e-9
        )
        assert pool.grants >= result.jobs_completed


class TestPinnedMonotoneFrontier:
    @pytest.fixture(scope="class")
    def sweep(self, small_store, oracle, energy_table):
        rows = []
        for cap in PINNED_CAPS:
            sim, result = _run_pinned(
                small_store, oracle, energy_table, cap
            )
            rows.append(
                (cap, sim.power_pool.consumed_nj,
                 result.deadline_miss_rate, sim.power_pool.throttled)
            )
        return rows

    def test_energy_monotone_non_increasing(self, sweep):
        consumed = [row[1] for row in sweep]
        assert consumed == sorted(consumed, reverse=True), sweep

    def test_miss_rate_monotone_non_decreasing(self, sweep):
        misses = [row[2] for row in sweep]
        assert misses == sorted(misses), sweep
        # The pinned caps genuinely bind: the extremes differ.
        assert misses[-1] > misses[0]

    def test_caps_bind(self, sweep):
        assert all(row[3] > 0 for row in sweep), sweep

    def test_ledger_validates_sweep_extremes(self, small_store, oracle,
                                             energy_table):
        """The acceptance criterion: the pinned sweep's conservation is
        ledger-checked, not just pool-reported (reference engine)."""
        for cap in (PINNED_CAPS[0], PINNED_CAPS[-1]):
            sim, result = _run_pinned(
                small_store, oracle, energy_table, cap,
                engine="reference", validate=True,
            )
            pool = sim.power_pool
            ledger = sim._validator.ledger
            assert pool.idle()
            net = ledger.token_granted_nj - ledger.token_refunded_nj
            assert math.isclose(
                pool.consumed_nj, net,
                rel_tol=REL_TOLERANCE, abs_tol=1e-9,
            )

    @pytest.mark.parametrize("policy,discipline,preemptive,power",
                             POWERED_GRID)
    def test_reference_and_fast_agree_powered(
        self, policy, discipline, preemptive, power, small_store, oracle,
        energy_table,
    ):
        """Engine equivalence holds with the power axis *enabled* too:
        the same result, token account and per-core operating points."""
        runs = []
        for engine in ("reference", "fast"):
            sim = make_simulation(
                policy, small_store, oracle, energy_table,
                discipline=discipline, preemptive=preemptive,
                engine=engine, power=power,
            )
            result = sim.run(_pinned_arrivals())
            runs.append((
                result,
                sim.power_pool.state_dict(),
                [core.dvfs for core in sim.cores],
            ))
        ref, fast = runs
        assert ref[0] == fast[0]
        assert ref[1] == fast[1]
        assert ref[2] == fast[2]


STREAM_POWER = PowerConfig(
    cap_nj=300_000.0,
    cluster_caps_nj=((4, 150_000.0),),
    slack_pct=25.0,
    dvfs=DEFAULT_DVFS_TABLE,
)

N_JOBS = 120


def _stream_engine(store, oracle, energy_table, power=STREAM_POWER):
    policy = make_policy("proposed")
    return StreamingSimulation(
        paper_system(),
        policy,
        store,
        predictor=oracle,
        energy_table=energy_table,
        config=StreamConfig(max_jobs=N_JOBS),
        discipline="priority",
        preemptive=True,
        power=power,
    )


def _stream_process():
    specs = [eembc_benchmark(name) for name in SUITE_NAMES]
    return QoSProcess(
        PoissonProcess(specs, mean_interarrival_cycles=10_000.0, seed=3),
        service_estimate=lambda name: 400_000,
        priority_levels=4,
        seed=3,
    )


class TestPoweredCheckpointResume:
    @given(kill_at=st.integers(min_value=1, max_value=N_JOBS - 1))
    @settings(max_examples=10, deadline=None)
    def test_kill_resume_byte_identical(self, kill_at, small_store,
                                        oracle, energy_table):
        straight = _stream_engine(small_store, oracle, energy_table)
        straight.start(_stream_process())
        while straight.advance():
            pass
        baseline = straight.result()
        assert baseline.power is not None
        assert baseline.power["grants"] >= N_JOBS

        killed = _stream_engine(small_store, oracle, energy_table)
        killed.start(_stream_process())
        killed.advance(max_completions=kill_at)
        snapshot = json.loads(json.dumps(killed.snapshot()))
        assert snapshot["version"] == STREAM_SNAPSHOT_VERSION
        assert snapshot["engine"]["power"] is not None

        resumed = _stream_engine(small_store, oracle, energy_table)
        result = resumed.resume(snapshot, _stream_process())
        assert result == baseline
        assert result.power == baseline.power
        assert json.dumps(
            resumed.snapshot(), sort_keys=True
        ) == json.dumps(straight.snapshot(), sort_keys=True)

    def test_power_fingerprint_mismatch_fails_loudly(
        self, small_store, oracle, energy_table
    ):
        donor = _stream_engine(small_store, oracle, energy_table)
        donor.start(_stream_process())
        donor.advance(max_completions=10)
        snapshot = donor.snapshot()
        unpowered = _stream_engine(
            small_store, oracle, energy_table, power=None
        )
        with pytest.raises(ValueError, match="power"):
            unpowered.restore(snapshot, _stream_process())
