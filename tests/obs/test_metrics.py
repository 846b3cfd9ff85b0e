"""Counters, gauges, log-bucket histograms and the registry.

The histogram's contract is checked with Hypothesis against
``numpy.quantile``: every reported quantile lies within
``RELATIVE_ERROR`` of the bracket of order statistics it interpolates,
quantiles are monotone in ``p`` and independent of observation order,
small integers are exact, and a checkpointed histogram resumes
bit-identically.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    PRECISION_BITS,
    RELATIVE_ERROR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter():
    counter = Counter("c")
    counter.inc()
    counter.inc(5)
    assert counter.value == 6
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge():
    gauge = Gauge("g")
    assert gauge.value == 0.0
    gauge.set(3)
    gauge.set(1.5)
    assert gauge.value == 1.5


def test_histogram_state_round_trip():
    rng = random.Random(23)
    samples = [rng.gauss(50, 20) for _ in range(3_000)]

    straight = Histogram("h")
    for x in samples:
        straight.observe(x)

    first = Histogram("h")
    for x in samples[:1_000]:
        first.observe(x)
    resumed = Histogram("h")
    resumed.load_state(first.state_dict())
    for x in samples[1_000:]:
        resumed.observe(x)

    assert resumed.snapshot() == straight.snapshot()
    assert resumed.state_dict() == straight.state_dict()


def test_histogram_load_state_rejects_estimator_mismatch():
    donor = Histogram("h", quantiles=(0.5,))
    donor.observe(1.0)
    histogram = Histogram("h")
    with pytest.raises(ValueError, match="quantiles"):
        histogram.load_state(donor.state_dict())


def test_histogram_snapshot():
    histogram = Histogram("h")
    empty = histogram.snapshot()
    assert empty == {
        "count": 0.0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
        "p50": 0.0, "p90": 0.0, "p99": 0.0,
    }
    for value in (4, 1, 3, 2):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == 10.0
    assert snap["mean"] == 2.5
    assert snap["min"] == 1.0
    assert snap["max"] == 4.0
    assert histogram.quantile(0.5) == 2.5
    with pytest.raises(KeyError):
        histogram.quantile(0.42)


# Single-quantile checks kept from the P² estimator the histogram
# replaced: they pin the same behaviour on the bucket histogram.


def test_p2_exact_under_five_samples():
    histogram = Histogram("h", (0.5,))
    assert histogram.quantile(0.5) == 0.0
    histogram.observe(10.0)
    assert histogram.quantile(0.5) == 10.0
    histogram.observe(20.0)
    assert histogram.quantile(0.5) == 15.0  # interpolated median of {10, 20}
    histogram.observe(30.0)
    assert histogram.quantile(0.5) == 20.0


def test_p2_converges_on_uniform():
    rng = random.Random(7)
    samples = [rng.random() for _ in range(20_000)]
    for p in (0.5, 0.9, 0.99):
        histogram = _observed(samples, (p,))
        exact = sorted(samples)[int(p * len(samples))]
        assert histogram.quantile(p) == pytest.approx(exact, abs=0.02)


def test_p2_heavy_duplicates():
    """Long runs of identical values report that value exactly."""
    constant = _observed([7.0] * 10_000, (0.9,))
    assert constant.quantile(0.9) == 7.0
    assert constant.count == 10_000

    # Duplicates with a sprinkle of outliers: the median stays on the
    # dominant value (90% of mass IS 5.0).
    rng = random.Random(11)
    mixed = _observed(
        [5.0 if rng.random() < 0.9 else 100.0 for _ in range(20_000)], (0.5,)
    )
    assert mixed.quantile(0.5) == pytest.approx(5.0, abs=1e-6)


def test_p2_tiny_sample_exactness():
    """With few samples the estimate is the exact linear-interpolated
    quantile, for every p, in any feed order."""
    samples = [3.0, 1.0, 4.0, 1.5]
    for p in (0.25, 0.5, 0.75, 0.9):
        histogram = _observed(samples, (p,))
        data = sorted(samples)
        rank = p * (len(data) - 1)
        low = int(rank)
        exact = data[low] + (data[low + 1] - data[low]) * (rank - low)
        assert histogram.quantile(p) == exact
        assert histogram.count == 4


def test_p2_snapshot_is_merge_free():
    """snapshot() reads without perturbing: the estimate sequence is
    identical whether or not snapshots are interleaved."""
    rng = random.Random(5)
    samples = [rng.gauss(10, 3) for _ in range(4_000)]

    plain = _observed(samples, (0.9,))

    snapshotted = Histogram("h", (0.9,))
    views = []
    for i, x in enumerate(samples):
        snapshotted.observe(x)
        if i % 7 == 0:
            views.append(snapshotted.snapshot())

    assert snapshotted.quantile(0.9) == plain.quantile(0.9)
    assert snapshotted.state_dict() == plain.state_dict()
    last = views[-1]
    assert "p90" in last
    assert last["count"] == 3998.0  # last i with i % 7 == 0 is 3997
    # Snapshots are plain floats (windowed reporting serialises them).
    assert all(isinstance(v, float) for v in last.values())


def test_p2_state_round_trip_continues_bit_identically():
    """Checkpoint mid-stream, restore, and the tail of the stream
    produces the same estimate as the uninterrupted run."""
    rng = random.Random(17)
    samples = [rng.expovariate(0.01) for _ in range(6_000)]

    straight = _observed(samples, (0.99,))

    first = _observed(samples[:2_500], (0.99,))
    state = json.loads(json.dumps(first.state_dict()))

    resumed = Histogram("h", (0.99,))
    resumed.load_state(state)
    for x in samples[2_500:]:
        resumed.observe(x)

    assert resumed.quantile(0.99) == straight.quantile(0.99)
    assert resumed.state_dict() == straight.state_dict()


def test_p2_load_state_rejects_wrong_quantile():
    donor = Histogram("h", (0.5,))
    donor.observe(1.0)
    histogram = Histogram("h", (0.9,))
    with pytest.raises(ValueError, match=r"quantiles \[0\.5\]"):
        histogram.load_state(donor.state_dict())


#: Values below this are exact when they are integers.
EXACT_BELOW = 2 ** PRECISION_BITS


def _pareto(alpha, scale):
    """Heavy-tailed integers: inverse-CDF Pareto draws from a unit float."""
    return st.floats(0.0, 1.0, exclude_max=True).map(
        lambda u: int(scale * (1.0 - u) ** (-1.0 / alpha))
    )


#: Wide-range floats of either sign (1e-6 .. 1e9 in magnitude).
_FLOATS = st.builds(
    lambda m, e: m * 10.0 ** e,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-6, 9),
)

#: Observation streams: plain ints and floats, heavy-tailed (Pareto)
#: latencies, duplicate-heavy, zero-heavy and negative (slack-like).
SAMPLES = st.one_of(
    st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1, max_size=300),
    st.lists(_FLOATS, min_size=1, max_size=300),
    st.lists(_pareto(1.1, 1_000), min_size=1, max_size=400),
    st.lists(
        st.one_of(st.sampled_from([7, 7, 7, 300, 70_000]), _pareto(2.0, 50)),
        min_size=1, max_size=300,
    ),
    st.lists(
        st.one_of(st.just(0), st.just(0.0), st.integers(1, 10 ** 7)),
        min_size=1, max_size=300,
    ),
    st.lists(st.integers(-(10 ** 8), 0), min_size=1, max_size=300),
)

QUANTILES = st.lists(
    st.floats(0.001, 0.999), min_size=1, max_size=4, unique=True
).map(tuple)


def _observed(values, quantiles=(0.5, 0.9, 0.99)):
    histogram = Histogram("h", quantiles)
    for value in values:
        histogram.observe(value)
    return histogram


def _bracket(values, p):
    """numpy's order statistics at floor and ceil of p(n-1)."""
    data = np.asarray(values, dtype=float)
    return (
        float(np.quantile(data, p, method="lower")),
        float(np.quantile(data, p, method="higher")),
    )


def _within_bound(reported, low, high):
    slack = 1e-12 * max(abs(low), abs(high))
    return (
        low - RELATIVE_ERROR * abs(low) - slack
        <= reported
        <= high + RELATIVE_ERROR * abs(high) + slack
    )


@settings(max_examples=150, deadline=None)
@given(SAMPLES, QUANTILES)
def test_quantiles_within_bound_of_numpy_bracket(values, quantiles):
    histogram = _observed(values, quantiles)
    for p in quantiles:
        low, high = _bracket(values, p)
        assert _within_bound(histogram.quantile(p), low, high), (p, low, high)


@settings(max_examples=150, deadline=None)
@given(SAMPLES)
def test_quantiles_monotone_in_p(values):
    snap = _observed(values).snapshot()
    assert snap["min"] <= snap["p50"] <= snap["p90"] <= snap["p99"]
    assert snap["p99"] <= snap["max"]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.integers(-(EXACT_BELOW - 1), EXACT_BELOW - 1),
        min_size=1, max_size=300,
    ),
    QUANTILES,
)
def test_small_integers_are_exact(values, quantiles):
    histogram = _observed(values, quantiles)
    for p in quantiles:
        low, high = _bracket(values, p)
        reported = histogram.quantile(p)
        assert low <= reported <= high
        assert reported == pytest.approx(
            float(np.quantile(np.asarray(values, dtype=float), p)),
            rel=1e-12, abs=1e-12,
        )
        if low == high:
            assert reported == low


@settings(max_examples=100, deadline=None)
@given(SAMPLES, st.randoms(use_true_random=False))
def test_quantiles_independent_of_observation_order(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    straight = _observed(values).snapshot()
    reordered = _observed(shuffled).snapshot()
    # Only the running float sum (and so the mean) may round differently.
    for snap in (straight, reordered):
        del snap["sum"], snap["mean"]
    assert straight == reordered


@settings(max_examples=100, deadline=None)
@given(SAMPLES, st.data())
def test_state_round_trip_resumes_bit_identically(values, data):
    cut = data.draw(st.integers(0, len(values)))
    straight = _observed(values)

    first = _observed(values[:cut])
    state = json.loads(json.dumps(first.state_dict()))
    resumed = Histogram("h")
    resumed.load_state(state)
    for i, value in enumerate(values[cut:]):
        resumed.observe(value)
        if i % 7 == 0:
            resumed.snapshot()  # reading must not perturb the state

    assert resumed.state_dict() == straight.state_dict()
    assert json.dumps(resumed.snapshot()) == json.dumps(straight.snapshot())


def test_state_stores_dense_counts_from_lowest_bucket():
    histogram = _observed([0, 3, 3, 5, -2])
    state = histogram.state_dict()
    assert state["zeros"] == 1
    positive = state["positive"]["counts"]
    assert positive[0] == 2 and positive[-1] == 1
    assert sum(positive) == 3 and len(positive) > 2
    assert state["negative"]["counts"] == [1]


def test_ints_and_floats_share_buckets():
    ints = _observed([1, 200, 300, 70_000, 10 ** 9])
    floats = _observed([1.0, 200.0, 300.0, 70_000.0, 1e9])
    assert ints.snapshot() == floats.snapshot()
    assert ints.state_dict()["positive"] == floats.state_dict()["positive"]


def test_histogram_rejects_bad_quantiles_and_values():
    for quantiles in ((0.0,), (0.5, 1.0)):
        with pytest.raises(ValueError, match="quantiles"):
            Histogram("h", quantiles)
    histogram = Histogram("h")
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=r"got -?(nan|inf)"):
            histogram.observe(value)
    assert histogram.count == 0


def test_registry_create_on_first_use():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.histogram("c") is registry.histogram("c")


def test_registry_snapshot_and_scalars():
    registry = MetricsRegistry()
    registry.counter("jobs").inc(3)
    registry.gauge("rate").set(0.75)
    registry.histogram("wait").observe(10)
    registry.histogram("wait").observe(30)

    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"jobs": 3}
    assert snapshot["gauges"] == {"rate": 0.75}
    assert snapshot["histograms"]["wait"]["mean"] == 20.0

    scalars = registry.scalars()
    assert scalars["jobs"] == 3.0
    assert scalars["rate"] == 0.75
    assert scalars["wait.count"] == 2.0
    assert scalars["wait.mean"] == 20.0
    assert all(isinstance(v, float) for v in scalars.values())


def test_registry_span_times_blocks():
    registry = MetricsRegistry()
    with registry.span("work"):
        pass
    snap = registry.histogram("work_seconds").snapshot()
    assert snap["count"] == 1
    assert snap["max"] >= 0.0


def test_registry_rejects_histogram_with_other_quantiles():
    registry = MetricsRegistry()
    registry.histogram("wait", quantiles=(0.5, 0.9))
    assert registry.histogram("wait", (0.5, 0.9)) is registry.histogram(
        "wait", [0.5, 0.9]
    )
    with pytest.raises(ValueError, match=r"\[0\.5, 0\.9\].*\[0\.99\]"):
        registry.histogram("wait", quantiles=(0.99,))
