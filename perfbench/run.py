"""The simulator's benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream-open --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``NOTES.md``): ``reproduce-cold``,
``batch-grid``, ``stream-open`` and ``dag-validated``.  One run

1. warms the benchmark's own store/predictor cache under
   ``perfbench/cache/`` in a child process if it is missing (never the
   user's ``~/.cache/repro``);
2. times the workload's set-up several times, before and after the
   timed phase, scaled as in 3 (``setup_s`` is the median);
3. repeats the timed phase until ``--seconds`` have passed and reads
   the peak RSS of this process.  The host's speed is measured between
   timed steps (``hostspeed.py``), and each step's time is scaled to the
   reference host (see ``median_run``); ``run_s`` is one repetition's
   scaled time and ``jobs_per_s`` divides the jobs or DAG tasks of one
   repetition by it;
4. runs the untimed correctness pass; each failed check is a failed
   operation;
5. with ``--trace 1``, runs the traced repetition instead of reporting
   the end-to-end metrics, prints every per-layer metric and writes the
   spans to ``perfbench/out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
environment block the run is stamped with.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import scaled, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Each of the two set-up batches runs at least this many times and
#: for at least this long; ``setup_s`` is the median of all of them.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

#: Span name (self time) -> per-layer metric.
SPAN_METRICS = {
    "characterization.suite": "characterization.suite_s",
    "characterization.dataset": "characterization.dataset_s",
    "ann.train": "ann.train_s",
    "core.build": "core.build_s",
    "sim.fast.run": "sim.fast.run_s",
    "workloads.arrivals.gen": "workloads.arrivals.gen_s",
    "sim.stream": "sim.stream.self_s",
    "obs.metrics.observe": "obs.metrics.observe_s",
    "obs.telemetry.sample": "obs.telemetry.sample_s",
    "workloads.dag.gen": "workloads.dag.gen_s",
    "core.simulation.run_dags": "core.simulation.run_dags_s",
    "reporting.render": "reporting.render_s",
    "run": "trace.glue_s",
}


class Checks:
    """Counts correctness checks; reports each failure on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {name} {detail}".rstrip(), file=sys.stderr)


def source_digest() -> str:
    """SHA-256 over the program's source files, in path order."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD's commit id read from ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, workers: int) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
    }


def ensure_warm_cache(cache_dir: Path) -> None:
    """Build the warm cache in a child process, then move it into place.

    A child keeps characterisation out of this process's peak RSS; the
    rename makes a half-written cache impossible.  The child is a plain
    interpreter that ``subprocess.run`` waits for: a ``multiprocessing``
    spawn would also start a resource tracker that outlives this run.
    """
    if cache_dir.is_dir():
        return
    tmp = cache_dir.with_name(f"{cache_dir.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    code = ("import sys; from pathlib import Path; "
            "sys.path[:0] = sys.argv[1:3]; "
            "from workloads import load_warm; load_warm(Path(sys.argv[3]))")
    child = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(HERE), str(tmp)],
        stdout=subprocess.DEVNULL, check=False)
    if child.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError(f"warming the cache failed ({child.returncode})")
    try:
        os.rename(tmp, cache_dir)
    except OSError:
        # Another run finished warming first; its cache is identical.
        shutil.rmtree(tmp, ignore_errors=True)


def time_setup(workload, times: list):
    """Time one batch of set-ups into ``times``; return the last state.

    Each set-up is timed between two host-speed measurements and scaled
    to the reference host, as the timed phase's steps are.
    """
    began = time.perf_counter()
    count = 0
    before = speed()
    while count < SETUP_REPEATS or time.perf_counter() - began < SETUP_SECONDS:
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        wall = time.perf_counter() - start
        after = speed()
        times.append(scaled(wall, before, after))
        before = after
        count += 1
    return state


def median_run(rep_laps, per_step: bool) -> float:
    """Sum over a repetition's steps of each step's median scaled time.

    Every repetition does the same deterministic work in the same steps.
    Scaling by the host speed takes out the host's drift; the median over
    repetitions takes out short bursts.  With ``per_step`` each step is
    scaled by the speed at its ends, otherwise each step's median wall
    time is scaled by the mean speed over the whole timed phase.
    """
    if len({len(laps.times) for laps in rep_laps}) != 1:
        raise RuntimeError("repetitions took different numbers of steps")
    if per_step:
        return sum(statistics.median(times)
                   for times in zip(*(laps.scaled for laps in rep_laps)))
    mean_speed = statistics.fmean(
        value for laps in rep_laps for value in laps.speeds)
    return mean_speed * sum(statistics.median(times)
                            for times in zip(*(laps.times for laps in rep_laps)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workers = min(2, os.cpu_count() or 1)
    env = environment(args, workers)
    cache_dir = HERE / "cache" / env["source_sha256"][:16]
    workdir = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](
            args.seed, workdir, cache_dir, workers)
        if workload.uses_warm_cache:
            ensure_warm_cache(cache_dir)

        setup_times = []
        state = time_setup(workload, setup_times)

        rep_laps = []
        began = time.perf_counter()
        while not rep_laps or time.perf_counter() - began < args.seconds:
            output = None  # the last repetition's objects are not kept alive
            out = workload.prepare(state)
            gc.collect()
            jobs, output, laps = workload.run(state, out)
            rep_laps.append(laps)
        peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        run_s = median_run(rep_laps, workload.speed_per_step)
        # A second batch of set-ups, away from the first in time.
        time_setup(workload, setup_times)

        checks = Checks()
        tracer = Tracer() if args.trace else NullTracer()
        workload.check(state, output, checks, tracer)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {
            metric["name"]: metric["unit"]
            for metric in spec["per_layer" if args.trace else "end_to_end"]
        }
        if args.trace:
            metrics = dict.fromkeys(units, 0.0)
            rep_s = statistics.median(sum(laps.times) for laps in rep_laps)
            extra = workload.layers(state, output, rep_s, tracer, checks)
            for name, seconds in tracer.self_times().items():
                if name in SPAN_METRICS:
                    metrics[SPAN_METRICS[name]] = seconds
            metrics.update(tracer.counts)
            metrics.update(extra)
            metrics["trace.run_s"] = tracer.total("run")
            metrics["host.run_wall_s"] = rep_s
            metrics["host.speed"] = statistics.median(
                value for laps in rep_laps for value in laps.speeds)
            unknown = set(metrics) - set(units)
            if unknown:
                raise RuntimeError(f"unlisted per-layer metrics {unknown}")
            spans_path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
            spans_path.write_text(json.dumps({
                "environment": env, "spans": tracer.to_records(),
                "metrics": metrics,
            }))
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "run_s": run_s,
                "jobs_per_s": jobs / run_s,
                "peak_rss_mib": peak_rss_mib,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"environment": env, "repetitions": len(rep_laps),
                      "setup_repetitions": len(setup_times)}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
