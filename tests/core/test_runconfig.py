"""The run-settings object and the engine-compatibility rules.

:class:`~repro.core.runconfig.RunConfig` is the one copy of the run
settings' checks: the public constructors must raise its messages
unchanged, and its JSON round trip and digest must be exact.
:func:`~repro.core.simulation.resolve_engine` is the one copy of the
engine rules; it is checked against a restatement of the per-caller
ladders it replaced.
"""

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.tuner import TunerCostModel
from repro.core.policies import make_policy
from repro.core.runconfig import RunConfig
from repro.core.simulation import SchedulerSimulation, resolve_engine
from repro.core.system import paper_system
from repro.power.budget import PowerConfig
from repro.power.dvfs import DEFAULT_DVFS_TABLE
from repro.sim.stream import StreamConfig, StreamingSimulation

# One changed value per RunConfig field, shared with the fingerprint test
# (which checks that it covers every field).
from tests.sim.test_stream_checkpoint import RUN_VARIANTS

_floats = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)

_power = st.one_of(
    st.none(),
    st.builds(
        PowerConfig,
        cap_nj=st.one_of(st.none(), _floats.filter(lambda x: x > 0)),
        slack_pct=_floats,
        dvfs=st.sampled_from([None, DEFAULT_DVFS_TABLE]),
    ),
)


@st.composite
def run_configs(draw):
    discipline = draw(st.sampled_from(RunConfig.DISCIPLINES))
    return RunConfig(
        discipline=discipline,
        preemptive=discipline != "fifo" and draw(st.booleans()),
        preemption_quantum_cycles=draw(st.integers(0, 10**9)),
        profiling_overhead_fraction=draw(_floats),
        preload_profiles=draw(st.booleans()),
        tuner_costs=draw(st.builds(
            TunerCostModel,
            flush_cycles_per_line=st.integers(0, 1000),
            control_cycles=st.integers(0, 10**6),
            flush_energy_per_line_nj=_floats,
            control_energy_nj=_floats,
        )),
        power=draw(_power),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(run=run_configs())
    def test_json_round_trip_keeps_value_and_digest(self, run):
        payload = json.loads(json.dumps(run.to_dict()))
        back = RunConfig.from_dict(payload)
        assert back == run
        assert hash(back) == hash(run)
        assert back.digest() == run.digest()

    def test_kwargs_rebuild_the_same_config(self):
        run = RunConfig(discipline="edf", preemptive=True,
                        power=PowerConfig(cap_nj=1e6))
        assert RunConfig(**run.kwargs()) == run

    def test_disabled_power_normalises_to_none(self):
        assert RunConfig(power=PowerConfig()).power is None
        assert RunConfig(power=PowerConfig()) == RunConfig()


class TestDigest:
    @pytest.mark.parametrize("field", sorted(RUN_VARIANTS))
    def test_changing_one_field_changes_the_digest(self, field):
        base = RunConfig(discipline="priority")
        changed = dataclasses.replace(base, **{field: RUN_VARIANTS[field]})
        assert changed != base
        assert changed.digest() != base.digest()

    def test_equal_configs_share_a_digest(self):
        pairs = [
            (RunConfig(profiling_overhead_fraction=0),
             RunConfig(profiling_overhead_fraction=0.0)),
            (RunConfig(power=PowerConfig(cap_nj=500_000)),
             RunConfig(power=PowerConfig(cap_nj=500_000.0))),
            (RunConfig(tuner_costs=TunerCostModel(control_energy_nj=5)),
             RunConfig()),
        ]
        for a, b in pairs:
            assert a == b
            assert a.digest() == b.digest()


#: Invalid settings and the exact message each has always raised.
INVALID = [
    ({"profiling_overhead_fraction": -0.1},
     "profiling_overhead_fraction must be >= 0"),
    ({"discipline": "lifo"},
     "unknown discipline 'lifo'; choose from ('fifo', 'priority', 'edf')"),
    ({"preemptive": True},
     "preemption needs an urgency order; use the 'priority' or 'edf' "
     "discipline"),
    ({"discipline": "edf", "preemption_quantum_cycles": -1},
     "preemption_quantum_cycles must be >= 0"),
]


class TestInvalidSettings:
    @pytest.mark.parametrize("kwargs,message", INVALID)
    def test_run_config_message(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            RunConfig(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs,message", INVALID)
    def test_scheduler_simulation_message(self, kwargs, message,
                                          small_store):
        with pytest.raises(ValueError) as info:
            SchedulerSimulation(
                paper_system(), make_policy("base"), small_store, **kwargs
            )
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs,message", INVALID)
    def test_streaming_simulation_message(self, kwargs, message,
                                          small_store):
        with pytest.raises(ValueError) as info:
            StreamingSimulation(
                paper_system(), make_policy("base"), small_store,
                config=StreamConfig(max_jobs=10), **kwargs,
            )
        assert str(info.value) == message

    def test_power_must_be_a_power_config(self, small_store):
        for build in (
            lambda: RunConfig(power="cap"),
            lambda: SchedulerSimulation(
                paper_system(), make_policy("base"), small_store,
                power="cap",
            ),
        ):
            with pytest.raises(TypeError, match="got str"):
                build()


def _ladders(engine, hooks, telemetry, ordering, workload):
    """The per-caller rule ladders the rule function replaced.

    Returns the engine the run resolved to, or ``None`` where one of
    them rejected it.  Construction rules apply to every workload; the
    stream and DAG entry points added theirs on top.  The campaign and
    CLI ladders restated these same conditions.
    """
    if engine not in ("auto", "fast", "reference"):
        return None
    if engine == "fast" and ordering:
        return None
    eligible = not hooks and not ordering
    if engine == "fast" and not eligible:
        return None
    if engine == "auto":
        resolved = "fast" if eligible else "reference"
    else:
        resolved = engine
    if telemetry and resolved == "reference":
        return None
    if workload == "stream":
        if ordering or engine == "reference" or not eligible:
            return None
        return "fast"
    if workload == "dag":
        if engine == "fast" or telemetry:
            return None
        return "reference"
    return resolved


GRID = list(itertools.product(
    ("auto", "fast", "reference", "warp"),
    (False, True),
    (False, True),
    ((), ("edf",)),
    ("batch", "stream", "dag"),
))


class TestEngineRules:
    @pytest.mark.parametrize(
        "engine,hooks,telemetry,ordering,workload", GRID
    )
    def test_same_grid_as_the_removed_ladders(
        self, engine, hooks, telemetry, ordering, workload
    ):
        expected = _ladders(engine, hooks, telemetry, ordering, workload)
        kwargs = dict(
            hooks=hooks,
            telemetry=telemetry,
            ordering=ordering,
            stream=workload == "stream",
            dag=workload == "dag",
        )
        if expected is None:
            with pytest.raises(ValueError):
                resolve_engine(engine, **kwargs)
        else:
            assert resolve_engine(engine, **kwargs) == expected

    def test_stream_and_dag_are_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            resolve_engine("auto", stream=True, dag=True)
