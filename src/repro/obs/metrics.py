"""Metrics registry: counters, gauges and log-bucket histograms.

One API for every stage of the reproduction — the scheduler simulation,
the characterisation sweeps, predictor training and replication
campaigns all report through a :class:`MetricsRegistry`.  Instruments
are created on first use and live for the registry's lifetime:

* :class:`Counter` — monotonically increasing event counts;
* :class:`Gauge` — last-written point-in-time values;
* :class:`Histogram` — running count/sum/min/max plus a log-linear
  bucket histogram (HdrHistogram / DDSketch style) for its quantiles
  (p50/p90/p99 by default).

A positive value falls in one of ``2**PRECISION_BITS`` equal buckets of
its octave, indexed by its exponent (``int.bit_length`` or
:func:`math.frexp`, never libm's ``log``) and top mantissa bits; ints
and floats of equal value share a bucket.  A bucket reports its
midpoint or, below ``2**(PRECISION_BITS + 1)`` where buckets are twice
as fine, its lower edge, so small integers are exact.  Either way the
report is within :data:`RELATIVE_ERROR` (0.39%) of every value in the
bucket.  Zero has its own count, negatives a mirrored store, and the
counts of two histograms add exactly.  As ``numpy.quantile`` does by
default, quantile ``p`` interpolates between the order statistics at
ranks ``floor(p(n-1))`` and ``ceil(p(n-1))``, each its bucket's report
clamped to ``[min, max]``: within :data:`RELATIVE_ERROR` of the exact
bracket, and monotone in ``p``.

:meth:`MetricsRegistry.snapshot` returns a nested plain-dict view;
:meth:`MetricsRegistry.scalars` flattens it to ``name -> float`` (with
``histogram.field`` keys), which is what campaign workers ship back
across the fork pool for per-cell aggregation.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from contextlib import contextmanager
from itertools import accumulate, chain
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PRECISION_BITS",
    "RELATIVE_ERROR",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)


#: Mantissa bits kept per octave: ``2**PRECISION_BITS`` buckets each.
PRECISION_BITS = 7

#: Bound on the relative error of every reported order statistic.
RELATIVE_ERROR = 2.0 ** -(PRECISION_BITS + 1)

#: Default histogram quantiles (reported as p50 / p90 / p99).
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

# Values from _FINE (2**(PRECISION_BITS + 1)) up use midpoint buckets;
# bucket index = (octave shift << PRECISION_BITS) + top mantissa bits,
# which puts the first of them at index _FINE.  Smaller values use
# lower-edge buckets twice as fine, at indexes below _FINE.
_FINE = 2 << PRECISION_BITS
_SHIFT = PRECISION_BITS + 1


def _bucket(value) -> int:
    """Bucket index of a positive finite int or float."""
    if type(value) is int and value >= _FINE:
        shift = value.bit_length() - _SHIFT
        return (shift << PRECISION_BITS) + (value >> shift)
    mantissa, exponent = math.frexp(value)
    if exponent > _SHIFT:
        return ((exponent - _SHIFT) << PRECISION_BITS) + int(mantissa * _FINE)
    return ((exponent - _SHIFT) << _SHIFT) + int(mantissa * 2 * _FINE) - _FINE


def _representative(index: int) -> float:
    """The value a bucket reports: midpoint, or lower edge below _FINE."""
    if index >= _FINE:
        shift = (index >> PRECISION_BITS) - 1
        top = (index & (_FINE // 2 - 1)) + _FINE // 2
        return float((2 * top + 1) << (shift - 1))
    return math.ldexp((index & (_FINE - 1)) + _FINE, (index >> _SHIFT) - 1)


def _dense(store: Dict[int, int]) -> Tuple[int, List[int]]:
    """``(lowest index, counts from it to the highest index)``."""
    if not store:
        return 0, []
    low = min(store)
    counts = [0] * (max(store) - low + 1)
    for index, count in store.items():
        counts[index - low] = count
    return low, counts


class Histogram:
    """Count/sum/min/max plus log-linear buckets for the quantiles."""

    __slots__ = (
        "name", "quantiles", "count", "total", "min", "max", "_zeros",
        "_pos", "_neg",
    )

    def __init__(
        self, name: str, quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> None:
        if not all(0.0 < p < 1.0 for p in quantiles):
            raise ValueError("quantiles must be in (0, 1)")
        self.name = name
        self.quantiles = tuple(quantiles)
        self.count = 0
        self.total = 0
        self.min = float("inf")
        self.max = float("-inf")
        self._zeros = 0
        # Bucket index -> count, for positive values and for the
        # magnitudes of negative ones.
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Feed one observation (an int, or anything ``float`` takes)."""
        if type(value) is not int:
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"histogram {self.name!r} got {value}")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0:
            store, key = self._pos, _bucket(value)
        elif value < 0:
            store, key = self._neg, _bucket(-value)
        else:
            self._zeros += 1
            return
        store[key] = store.get(key, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def _values(self, quantiles: Sequence[float]) -> List[float]:
        """The given quantiles, from one walk over the counts."""
        n = self.count
        if not n:
            return [0.0] * len(quantiles)
        neg_low, neg = _dense(self._neg)
        pos_low, pos = _dense(self._pos)
        # Ascending value order: negatives by falling magnitude, zero,
        # then positives.
        cumulative = list(
            accumulate(chain(reversed(neg), (self._zeros,), pos))
        )

        def order_statistic(rank: int) -> float:
            slot = bisect_right(cumulative, rank) - len(neg)
            if slot < 0:
                value = -_representative(neg_low - 1 - slot)
            elif slot == 0:
                value = 0.0
            else:
                value = _representative(pos_low + slot - 1)
            return float(min(max(value, self.min), self.max))

        values = []
        for p in quantiles:
            rank = p * (n - 1)
            low = int(rank)
            below = order_statistic(low)
            above = order_statistic(min(low + 1, n - 1))
            values.append(min(below + (above - below) * (rank - low), above))
        return values

    def quantile(self, p: float) -> float:
        """Current value of one of the configured quantiles."""
        if p not in self.quantiles:
            raise KeyError(f"histogram {self.name!r} does not track p={p}")
        return self._values((p,))[0]

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict summary of the distribution so far."""
        empty = self.count == 0
        summary: Dict[str, float] = {
            "count": float(self.count),
            "sum": float(self.total),
            "mean": self.mean,
            "min": 0.0 if empty else float(self.min),
            "max": 0.0 if empty else float(self.max),
        }
        for p, value in zip(self.quantiles, self._values(self.quantiles)):
            summary[f"p{p * 100:g}".replace(".", "_")] = value
        return summary

    def state_dict(self) -> dict:
        """Exact JSON state (for checkpoint/resume), counts kept dense."""
        neg_low, neg = _dense(self._neg)
        pos_low, pos = _dense(self._pos)
        return {
            "quantiles": list(self.quantiles),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "zeros": self._zeros,
            "positive": {"offset": pos_low, "counts": pos},
            "negative": {"offset": neg_low, "counts": neg},
        }

    def load_state(self, state: dict) -> None:
        """Restore the exact state captured by :meth:`state_dict`."""
        if tuple(state["quantiles"]) != self.quantiles:
            raise ValueError(
                f"state tracks quantiles {list(state['quantiles'])}, "
                f"histogram {self.name!r} tracks {list(self.quantiles)}"
            )
        self.count = state["count"]
        self.total = state["total"]
        self.min = state["min"]
        self.max = state["max"]
        self._zeros = state["zeros"]
        self._pos, self._neg = (
            dict(enumerate(store["counts"], store["offset"]))
            for store in (state["positive"], state["negative"])
        )


class MetricsRegistry:
    """Create-on-first-use registry of named instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created at zero on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created at zero on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> Histogram:
        """The histogram called ``name`` (created empty on first use).

        Asking again for ``name`` with other quantiles is an error.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, quantiles)
        elif instrument.quantiles != tuple(quantiles):
            raise ValueError(
                f"histogram {name!r} tracks quantiles "
                f"{list(instrument.quantiles)}, not {list(quantiles)}"
            )
        return instrument

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the ``<name>_seconds`` histogram."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(f"{name}_seconds").observe(
                time.perf_counter() - start
            )

    # -- views ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Nested plain-dict view of every instrument (sorted names)."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }

    def scalars(self) -> Dict[str, float]:
        """Flat ``name -> value`` view (histogram fields dot-suffixed).

        This is the exchange format campaign workers return across the
        process pool; every value is a plain float, so the dict pickles
        cheaply and aggregates uniformly.
        """
        flat: Dict[str, float] = {}
        for name in sorted(self._counters):
            flat[name] = float(self._counters[name].value)
        for name in sorted(self._gauges):
            flat[name] = self._gauges[name].value
        for name in sorted(self._histograms):
            for field, value in self._histograms[name].snapshot().items():
                flat[f"{name}.{field}"] = value
        return flat
