"""Input order of a closed batch: the fast engine's stable-sort contract.

``SchedulerSimulation.run`` accepts arrivals in any order.  The
reference loop pushes them onto its event heap in input order, so
equal-time arrivals pop in input order; the fast engine replays the
list through :class:`~repro.workloads.arrivals.ReplayProcess`, which
stable-sorts by ``(arrival_cycle, input order)`` to match.  This
property feeds shuffled lists with many equal-time ties and QoS
priorities/deadlines to both engines and demands bit-identical results
and post-run state.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import POLICY_NAMES
from repro.workloads.arrivals import JobArrival

from tests.scenarios import (
    SUITE_NAMES,
    build_energy_table,
    build_oracle,
    build_small_store,
)
from tests.sim.test_fast_engine_equivalence import (
    DISCIPLINES,
    _assert_state_parity,
    _pair,
)

#: Few distinct cycles, so most arrivals tie with another one.
TIE_CYCLES = (0, 40_000, 90_000, 300_000)


@pytest.fixture(scope="module")
def store():
    return build_small_store()


@pytest.fixture(scope="module")
def oracle(store):
    return build_oracle(store)


@pytest.fixture(scope="module")
def energy_table():
    return build_energy_table()


@st.composite
def shuffled_arrivals(draw):
    jobs = draw(st.lists(
        st.tuples(
            st.sampled_from(SUITE_NAMES),
            st.sampled_from(TIE_CYCLES),
            st.integers(0, 3),                      # priority
            st.one_of(st.none(), st.integers(0, 4_000_000)),  # slack
        ),
        min_size=1,
        max_size=30,
    ))
    arrivals = [
        JobArrival(
            job_id=i, benchmark=name, arrival_cycle=cycle,
            priority=priority,
            deadline_cycle=None if slack is None else cycle + slack,
        )
        for i, (name, cycle, priority, slack) in enumerate(jobs)
    ]
    return draw(st.permutations(arrivals))


class TestInputOrder:
    @given(
        arrivals=shuffled_arrivals(),
        policy=st.sampled_from(POLICY_NAMES),
        discipline=st.sampled_from(DISCIPLINES),
        preemptive=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_shuffled_ties_bit_identical(self, arrivals, policy,
                                         discipline, preemptive, store,
                                         oracle, energy_table):
        if preemptive and discipline == "fifo":
            discipline = "priority"
        ref, fast = _pair(
            policy, store, oracle, energy_table,
            discipline=discipline, preemptive=preemptive,
        )
        assert ref.run(arrivals) == fast.run(arrivals)
        _assert_state_parity(ref, fast)
