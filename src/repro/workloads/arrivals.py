"""Arrival-stream generation for the scheduler simulation.

The paper "created 5000 uniform distribution arrival times of these
benchmarks to ensure that the system executed long enough to depict
stable results"; benchmarks are enqueued on arrival and processed FIFO.

:func:`uniform_arrivals` reproduces that setup: job arrival times drawn
uniformly over a horizon, each job an independently drawn benchmark from
the suite.  A Poisson process generator is provided for the arrival-rate
ablation.

Open-system streaming runs consume *unbounded* arrival processes
instead of materialised lists: :class:`PoissonProcess`,
:class:`MMPPProcess` (bursty, Markov-modulated) and
:class:`DiurnalProcess` (sinusoidal rate curve) generate jobs one fixed
chunk at a time, so arrival memory stays O(chunk) no matter how long
the run lasts.  Every process draws its randomness in a fixed per-chunk
order, which makes streams **prefix-stable**: the first N jobs are the
same no matter how far the stream is eventually advanced, and
:func:`poisson_arrivals` delegates to :class:`PoissonProcess` so a
truncated stream is bit-identical to the closed-batch list.  Processes
expose :meth:`~ArrivalProcess.state_dict` / :meth:`~ArrivalProcess.load_state`
so a streaming checkpoint can capture and resume the RNG mid-stream.
"""

from __future__ import annotations

import hashlib
import math

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .benchmark import BenchmarkSpec

__all__ = [
    "ArrivalProcess",
    "DiurnalProcess",
    "JobArrival",
    "MMPPProcess",
    "PoissonProcess",
    "QoSProcess",
    "ReplayProcess",
    "STREAM_CHUNK",
    "make_process",
    "poisson_arrivals",
    "uniform_arrivals",
    "with_qos",
]

#: Arrivals generated per refill.  The chunk size is part of a stream's
#: identity: RNG draws are batched per chunk, so two streams are
#: bit-identical only when they share it.  The default is what
#: :func:`poisson_arrivals` (and therefore the closed-batch prefix
#: guarantee) is pinned to.
STREAM_CHUNK = 1024


@dataclass(frozen=True)
class JobArrival:
    """One job: which benchmark arrives, and when (in cycles).

    ``priority`` and ``deadline_cycle`` feed the priority/deadline
    scheduling extension (paper future work); the defaults reproduce the
    paper's plain FIFO workload.
    """

    job_id: int
    benchmark: str
    arrival_cycle: int
    priority: int = 0
    deadline_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValueError("job_id must be non-negative")
        if self.arrival_cycle < 0:
            raise ValueError("arrival_cycle must be non-negative")
        if (
            self.deadline_cycle is not None
            and self.deadline_cycle < self.arrival_cycle
        ):
            raise ValueError("deadline cannot precede the arrival")


def _draw_benchmarks(
    specs: Sequence[BenchmarkSpec], count: int, rng: np.random.Generator
) -> List[str]:
    if not specs:
        raise ValueError("need at least one benchmark spec")
    indices = rng.integers(0, len(specs), size=count)
    return [specs[i].name for i in indices]


def uniform_arrivals(
    specs: Sequence[BenchmarkSpec],
    count: int = 5000,
    horizon_cycles: int = None,
    seed: int = 0,
    mean_interarrival_cycles: int = 56_000,
) -> List[JobArrival]:
    """Uniformly distributed arrival times over a horizon (paper §V).

    Parameters
    ----------
    specs:
        Benchmark suite to draw jobs from (uniformly).
    count:
        Number of arrivals (the paper used 5000).
    horizon_cycles:
        Arrival window; defaults to ``count * mean_interarrival_cycles``.
    seed:
        RNG seed.
    mean_interarrival_cycles:
        Used only to size the default horizon; tuning it controls
        contention (smaller → more simultaneous jobs → busier best cores).
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if horizon_cycles is None:
        horizon_cycles = count * mean_interarrival_cycles
    if horizon_cycles <= 0:
        raise ValueError("horizon_cycles must be positive")
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(0, horizon_cycles, size=count))
    names = _draw_benchmarks(specs, count, rng)
    return [
        JobArrival(job_id=i, benchmark=name, arrival_cycle=int(t))
        for i, (name, t) in enumerate(zip(names, times))
    ]


def poisson_arrivals(
    specs: Sequence[BenchmarkSpec],
    count: int = 5000,
    mean_interarrival_cycles: float = 60_000.0,
    seed: int = 0,
) -> List[JobArrival]:
    """Poisson arrival process (exponential inter-arrival times).

    Used by the arrival-rate ablation; the paper itself used uniform
    arrival times.  This is exactly the first ``count`` jobs of
    :class:`PoissonProcess` with the same parameters, so closed-batch
    runs are bit-identical prefixes of the open-system stream.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return PoissonProcess(
        specs,
        mean_interarrival_cycles=mean_interarrival_cycles,
        seed=seed,
    ).take(count)


# -- open-system arrival processes ------------------------------------------


def _rng_state(rng: np.random.Generator) -> dict:
    """JSON-serialisable generator state (plain dicts and ints)."""
    return rng.bit_generator.state


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


class ArrivalProcess:
    """An unbounded arrival stream, generated one chunk at a time.

    Subclasses implement :meth:`next_chunk`, which returns the next
    ``chunk`` jobs in non-decreasing ``arrival_cycle`` order with
    consecutive ``job_id`` values.  All randomness is drawn in a fixed
    per-chunk order, so the stream is *prefix-stable*: the first N jobs
    never depend on how far the stream is later advanced.

    :meth:`state_dict` / :meth:`load_state` capture and restore the
    full generator state (RNG, clock, next job id) for checkpointing;
    :meth:`params` is the compatibility fingerprint a checkpoint embeds
    so resuming against a differently-configured process fails loudly.
    """

    kind = "arrival"

    def __init__(
        self,
        specs: Sequence[BenchmarkSpec],
        *,
        seed: int = 0,
        chunk: int = STREAM_CHUNK,
    ) -> None:
        if not specs:
            raise ValueError("need at least one benchmark spec")
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        self.names: List[str] = [spec.name for spec in specs]
        self.seed = seed
        self.chunk = chunk
        self._rng = np.random.default_rng(seed)
        self._next_id = 0

    def next_chunk(self) -> List[JobArrival]:
        """The next ``chunk`` arrivals (advances the stream)."""
        raise NotImplementedError

    def take(self, count: int) -> List[JobArrival]:
        """Materialise the next ``count`` jobs.

        Whole chunks are always drawn (that is what keeps truncation
        prefix-stable), so up to ``chunk - 1`` generated jobs beyond
        ``count`` are discarded.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        out: List[JobArrival] = []
        while len(out) < count:
            chunk = self.next_chunk()
            if not chunk:
                break
            out.extend(chunk)
        return out[:count]

    def params(self) -> Dict[str, object]:
        """Stream-identity fingerprint (checked on checkpoint resume)."""
        return {
            "kind": self.kind,
            "names": list(self.names),
            "seed": self.seed,
            "chunk": self.chunk,
        }

    def state_dict(self) -> dict:
        """JSON-serialisable stream position (RNG, clock, next id)."""
        return {
            "rng": _rng_state(self._rng),
            "next_id": self._next_id,
        }

    def load_state(self, state: dict) -> None:
        """Restore a position previously captured by :meth:`state_dict`."""
        self._rng = _restore_rng(state["rng"])
        self._next_id = int(state["next_id"])


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals (exponential inter-arrival gaps).

    Per chunk the draw order is: all gaps, then all benchmark indices —
    the batched order :func:`poisson_arrivals` has always used, now at
    fixed chunk granularity so any prefix of the stream matches the
    closed-batch list bit for bit.
    """

    kind = "poisson"

    def __init__(
        self,
        specs: Sequence[BenchmarkSpec],
        *,
        mean_interarrival_cycles: float = 60_000.0,
        seed: int = 0,
        chunk: int = STREAM_CHUNK,
    ) -> None:
        super().__init__(specs, seed=seed, chunk=chunk)
        if mean_interarrival_cycles <= 0:
            raise ValueError("mean_interarrival_cycles must be positive")
        self.mean_interarrival_cycles = float(mean_interarrival_cycles)
        self._clock = 0.0

    def next_chunk(self) -> List[JobArrival]:
        rng = self._rng
        chunk = self.chunk
        gaps = rng.exponential(self.mean_interarrival_cycles, size=chunk)
        # Seeding the cumulative sum with the carried clock reproduces
        # the exact left-to-right float additions one long cumsum over
        # the whole stream would perform (x + 0.0 is exact for the
        # first chunk), so chunking never perturbs arrival times.
        times = np.cumsum(np.concatenate(((self._clock,), gaps)))[1:]
        self._clock = float(times[-1])
        cycles = times.astype(np.int64)
        indices = rng.integers(0, len(self.names), size=chunk)
        names = self.names
        base = self._next_id
        self._next_id = base + chunk
        return [
            JobArrival(
                job_id=base + i,
                benchmark=names[indices[i]],
                arrival_cycle=int(cycles[i]),
            )
            for i in range(chunk)
        ]

    def params(self) -> Dict[str, object]:
        fingerprint = super().params()
        fingerprint["mean_interarrival_cycles"] = (
            self.mean_interarrival_cycles
        )
        return fingerprint

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["clock"] = self._clock
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._clock = float(state["clock"])


class MMPPProcess(ArrivalProcess):
    """Bursty arrivals: a two-state Markov-modulated Poisson process.

    The process alternates between a *normal* phase (mean gap
    ``mean_interarrival_cycles``) and a *burst* phase (mean gap divided
    by ``burst_factor``); phase sojourns are exponential.  A gap that
    would cross the current phase boundary is redrawn from the boundary
    in the new phase — exact for exponential gaps (memorylessness), and
    what keeps the draw sequence a pure function of the jobs emitted so
    far (hence prefix-stable at any truncation point, not just chunk
    multiples).
    """

    kind = "mmpp"

    def __init__(
        self,
        specs: Sequence[BenchmarkSpec],
        *,
        mean_interarrival_cycles: float = 60_000.0,
        burst_factor: float = 8.0,
        mean_normal_sojourn_cycles: float = 50_000_000.0,
        mean_burst_sojourn_cycles: float = 10_000_000.0,
        seed: int = 0,
        chunk: int = STREAM_CHUNK,
    ) -> None:
        super().__init__(specs, seed=seed, chunk=chunk)
        if mean_interarrival_cycles <= 0:
            raise ValueError("mean_interarrival_cycles must be positive")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if mean_normal_sojourn_cycles <= 0 or mean_burst_sojourn_cycles <= 0:
            raise ValueError("phase sojourns must be positive")
        self.mean_interarrival_cycles = float(mean_interarrival_cycles)
        self.burst_factor = float(burst_factor)
        self.mean_normal_sojourn_cycles = float(mean_normal_sojourn_cycles)
        self.mean_burst_sojourn_cycles = float(mean_burst_sojourn_cycles)
        self._gap_means = (
            self.mean_interarrival_cycles,
            self.mean_interarrival_cycles / self.burst_factor,
        )
        self._sojourn_means = (
            self.mean_normal_sojourn_cycles,
            self.mean_burst_sojourn_cycles,
        )
        self._clock = 0.0
        self._phase = 0
        self._phase_end = float(
            self._rng.exponential(self._sojourn_means[0])
        )

    def next_chunk(self) -> List[JobArrival]:
        rng = self._rng
        names = self.names
        n_names = len(names)
        out: List[JobArrival] = []
        clock = self._clock
        phase = self._phase
        phase_end = self._phase_end
        gap_means = self._gap_means
        sojourn_means = self._sojourn_means
        base = self._next_id
        for i in range(self.chunk):
            while True:
                gap = rng.exponential(gap_means[phase])
                if clock + gap <= phase_end:
                    clock = clock + gap
                    break
                clock = phase_end
                phase = 1 - phase
                phase_end = clock + rng.exponential(sojourn_means[phase])
            name = names[int(rng.integers(0, n_names))]
            out.append(
                JobArrival(
                    job_id=base + i,
                    benchmark=name,
                    arrival_cycle=int(clock),
                )
            )
        self._clock = clock
        self._phase = phase
        self._phase_end = phase_end
        self._next_id = base + self.chunk
        return out

    def params(self) -> Dict[str, object]:
        fingerprint = super().params()
        fingerprint.update(
            mean_interarrival_cycles=self.mean_interarrival_cycles,
            burst_factor=self.burst_factor,
            mean_normal_sojourn_cycles=self.mean_normal_sojourn_cycles,
            mean_burst_sojourn_cycles=self.mean_burst_sojourn_cycles,
        )
        return fingerprint

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(
            clock=self._clock,
            phase=self._phase,
            phase_end=self._phase_end,
        )
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._clock = float(state["clock"])
        self._phase = int(state["phase"])
        self._phase_end = float(state["phase_end"])


class DiurnalProcess(ArrivalProcess):
    """Non-homogeneous Poisson arrivals under a sinusoidal rate curve.

    The instantaneous rate is ``(1 + amplitude * sin(2π t / period +
    phase)) / mean_interarrival_cycles``, sampled by Lewis-Shedler
    thinning against the peak rate.  Candidate gap and acceptance draws
    interleave per accepted job, so the stream is prefix-stable at any
    truncation point.
    """

    kind = "diurnal"

    def __init__(
        self,
        specs: Sequence[BenchmarkSpec],
        *,
        mean_interarrival_cycles: float = 60_000.0,
        period_cycles: float = 100_000_000.0,
        amplitude: float = 0.5,
        phase: float = 0.0,
        seed: int = 0,
        chunk: int = STREAM_CHUNK,
    ) -> None:
        super().__init__(specs, seed=seed, chunk=chunk)
        if mean_interarrival_cycles <= 0:
            raise ValueError("mean_interarrival_cycles must be positive")
        if period_cycles <= 0:
            raise ValueError("period_cycles must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be within [0, 1)")
        self.mean_interarrival_cycles = float(mean_interarrival_cycles)
        self.period_cycles = float(period_cycles)
        self.amplitude = float(amplitude)
        self.phase = float(phase)
        self._clock = 0.0

    def next_chunk(self) -> List[JobArrival]:
        rng = self._rng
        names = self.names
        n_names = len(names)
        mean = self.mean_interarrival_cycles
        peak_rate = (1.0 + self.amplitude) / mean
        peak_gap_mean = mean / (1.0 + self.amplitude)
        omega = 2.0 * math.pi / self.period_cycles
        amplitude = self.amplitude
        phase = self.phase
        sin = math.sin
        out: List[JobArrival] = []
        clock = self._clock
        base = self._next_id
        for i in range(self.chunk):
            while True:
                clock = clock + rng.exponential(peak_gap_mean)
                rate = (1.0 + amplitude * sin(omega * clock + phase)) / mean
                if rng.random() * peak_rate <= rate:
                    break
            name = names[int(rng.integers(0, n_names))]
            out.append(
                JobArrival(
                    job_id=base + i,
                    benchmark=name,
                    arrival_cycle=int(clock),
                )
            )
        self._clock = clock
        self._next_id = base + self.chunk
        return out

    def params(self) -> Dict[str, object]:
        fingerprint = super().params()
        fingerprint.update(
            mean_interarrival_cycles=self.mean_interarrival_cycles,
            period_cycles=self.period_cycles,
            amplitude=self.amplitude,
            phase=self.phase,
        )
        return fingerprint

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["clock"] = self._clock
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._clock = float(state["clock"])


class QoSProcess(ArrivalProcess):
    """Wrap a process with :func:`with_qos`-style priorities/deadlines.

    Annotation randomness comes from its own stream (``seed``), drawn
    per job in :func:`with_qos`'s exact order, so
    ``QoSProcess(inner).take(N)`` equals
    ``with_qos(inner.take(N), ...)`` with the same seed.
    """

    kind = "qos"

    def __init__(
        self,
        inner: ArrivalProcess,
        *,
        service_estimate: Callable[[str], int],
        priority_levels: int = 3,
        deadline_slack: float = 3.0,
        deadline_fraction: float = 1.0,
        seed: int = 0,
    ) -> None:
        if priority_levels <= 0:
            raise ValueError("priority_levels must be positive")
        if deadline_slack <= 0:
            raise ValueError("deadline_slack must be positive")
        if not 0.0 <= deadline_fraction <= 1.0:
            raise ValueError("deadline_fraction must be within [0, 1]")
        self.inner = inner
        self.names = list(inner.names)
        self.seed = seed
        self.chunk = inner.chunk
        self.service_estimate = service_estimate
        self.priority_levels = priority_levels
        self.deadline_slack = float(deadline_slack)
        self.deadline_fraction = float(deadline_fraction)
        self._rng = np.random.default_rng(seed)

    def next_chunk(self) -> List[JobArrival]:
        rng = self._rng
        levels = self.priority_levels
        fraction = self.deadline_fraction
        slack = self.deadline_slack
        estimate = self.service_estimate
        out: List[JobArrival] = []
        for arrival in self.inner.next_chunk():
            priority = int(rng.integers(0, levels))
            deadline: Optional[int] = None
            if rng.random() < fraction:
                nominal = int(estimate(arrival.benchmark))
                if nominal <= 0:
                    raise ValueError(
                        f"service estimate must be positive for "
                        f"{arrival.benchmark!r}"
                    )
                deadline = arrival.arrival_cycle + int(
                    round(slack * nominal)
                )
            out.append(
                replace(arrival, priority=priority, deadline_cycle=deadline)
            )
        return out

    def params(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "priority_levels": self.priority_levels,
            "deadline_slack": self.deadline_slack,
            "deadline_fraction": self.deadline_fraction,
            "inner": self.inner.params(),
        }

    def state_dict(self) -> dict:
        return {
            "rng": _rng_state(self._rng),
            "inner": self.inner.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self._rng = _restore_rng(state["rng"])
        self.inner.load_state(state["inner"])


class ReplayProcess(ArrivalProcess):
    """A materialised arrival list served as a finite stream.

    The arrivals are stable-sorted by ``(arrival_cycle, input order)``
    — the order the reference event heap pops equal-time arrivals — and
    handed out ``chunk`` at a time.  Once the list is exhausted every
    chunk is empty, which ends generation.  This is how closed batches
    run on the streaming loop, and the landing point for captured
    traces (capture once, replay many).
    """

    kind = "replay"

    def __init__(
        self, arrivals: Sequence[JobArrival], *, chunk: int = STREAM_CHUNK
    ) -> None:
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        self.arrivals: List[JobArrival] = sorted(
            arrivals, key=attrgetter("arrival_cycle")
        )
        self.chunk = chunk
        self._next = 0

    def next_chunk(self) -> List[JobArrival]:
        start = self._next
        out = self.arrivals[start:start + self.chunk]
        self._next = start + len(out)
        return out

    def params(self) -> Dict[str, object]:
        digest = hashlib.sha256()
        for a in self.arrivals:
            digest.update(repr((
                a.job_id, a.benchmark, a.arrival_cycle, a.priority,
                a.deadline_cycle,
            )).encode())
        return {
            "kind": self.kind,
            "count": len(self.arrivals),
            "chunk": self.chunk,
            "sha256": digest.hexdigest(),
        }

    def state_dict(self) -> dict:
        return {"next": self._next}

    def load_state(self, state: dict) -> None:
        self._next = int(state["next"])


#: Factory-constructible process kinds (CLI / campaign surface).
PROCESS_KINDS = ("poisson", "mmpp", "diurnal")


def make_process(
    kind: str,
    specs: Sequence[BenchmarkSpec],
    *,
    mean_interarrival_cycles: float = 60_000.0,
    seed: int = 0,
    chunk: int = STREAM_CHUNK,
    **kwargs,
) -> ArrivalProcess:
    """Build one of the named arrival processes (CLI/campaign surface)."""
    if kind == "poisson":
        cls = PoissonProcess
    elif kind == "mmpp":
        cls = MMPPProcess
    elif kind == "diurnal":
        cls = DiurnalProcess
    else:
        raise ValueError(
            f"unknown arrival process {kind!r}; "
            f"choose from {PROCESS_KINDS}"
        )
    return cls(
        specs,
        mean_interarrival_cycles=mean_interarrival_cycles,
        seed=seed,
        chunk=chunk,
        **kwargs,
    )


def with_qos(
    arrivals: Sequence[JobArrival],
    *,
    service_estimate: Callable[[str], int],
    priority_levels: int = 3,
    deadline_slack: float = 3.0,
    deadline_fraction: float = 1.0,
    seed: int = 0,
) -> List[JobArrival]:
    """Annotate an arrival stream with priorities and deadlines.

    Supports the paper's future-work extension ("systems with
    preemption, priority, and deadlines"):

    * each job draws a uniform priority in ``[0, priority_levels)``;
    * a ``deadline_fraction`` share of jobs receive a completion
      deadline of ``arrival + deadline_slack × service_estimate``,
      where ``service_estimate(benchmark)`` supplies a nominal
      execution time (typically the base-configuration cycles from the
      characterisation store).
    """
    if priority_levels <= 0:
        raise ValueError("priority_levels must be positive")
    if deadline_slack <= 0:
        raise ValueError("deadline_slack must be positive")
    if not 0.0 <= deadline_fraction <= 1.0:
        raise ValueError("deadline_fraction must be within [0, 1]")
    rng = np.random.default_rng(seed)
    annotated: List[JobArrival] = []
    for arrival in arrivals:
        priority = int(rng.integers(0, priority_levels))
        deadline: Optional[int] = None
        if rng.random() < deadline_fraction:
            nominal = int(service_estimate(arrival.benchmark))
            if nominal <= 0:
                raise ValueError(
                    f"service estimate must be positive for "
                    f"{arrival.benchmark!r}"
                )
            deadline = arrival.arrival_cycle + int(
                round(deadline_slack * nominal)
            )
        annotated.append(
            replace(arrival, priority=priority, deadline_cycle=deadline)
        )
    return annotated
