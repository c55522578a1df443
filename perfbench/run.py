"""Benchmark for vdtoda: named workloads, checked outputs, per-layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports ``vdtoda`` from its ``src``.
One process, one caller, a closed loop: each op starts when the previous
one has returned and been checked.  ``VDTODA_THREADS`` is unset for the run,
so ``run_suite`` stays serial, and BLAS runs on one thread: at n <= 8 a
second BLAS thread only spins, and on a two-core host it competes with the
caller for the other core.

The timed phase covers whole passes over the workload's inputs, at least
one, until ``--seconds`` have passed, so every run sees the same input mix.
Every op's output is checked; an op whose check fails or that raises a
library error counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of fresh processes that import vdtoda, generate the inputs and run the
first op), ``ops_per_s``, ``op_p50_ms``, ``op_tail_ms`` (latency at the
90th percentile, or lower if that would leave fewer than ten samples
beyond it) and ``peak_rss_mb``.

The three latency metrics are gauge-scaled.  On a shared 2-vCPU cloud host
the CPU's speed drifts by up to 1.5x over seconds to minutes, and that
drift, not the program, set the spread of plain wall times between runs
(interquartile range up to 21% of the median over ten 45 s runs, against
2-6% scaled).  So a fixed NumPy kernel that never calls vdtoda
(``gauge``) is timed after every op, and each op's wall latency is
multiplied by ``GAUGE_NOMINAL_S`` over the mean of the gauge times just
before and after it: latencies read as at a host speed where the gauge
takes 4 ms.  ``ops_per_s`` is completed ops over the sum of scaled
latencies.  The plain wall-clock figures and the median gauge time are in
the detail line.  ``setup_s`` stays plain wall time: scaling each probe by
a gauge timed in this process around it widened the spread of ``setup_s``
(interquartile range 35-39% of the median over ten runs, against 14-25%).

``--trace 1`` alternates untraced passes with passes under
``tracing.Tracer`` and reports the per-layer metrics plus
``trace.overhead_frac``, the traced over the untraced median latency.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (tail percentile, failures, environment).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "VDTODA_THREADS")
FOUND = {var: os.environ.get(var) for var in ENV_VARS}
# Before NumPy is imported; the set-up probes inherit it.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
os.environ.pop("VDTODA_THREADS", None)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150
TAIL_BEYOND = 10
TAIL_PERCENTILE = 90
GAUGE_NOMINAL_S = 4e-3
GAUGE_ROUNDS = 300
_GAUGE_X = np.random.default_rng(0).standard_normal(8)
_GAUGE_M = np.random.default_rng(1).standard_normal((8, 8))


def gauge() -> float:
    """Wall seconds of a fixed kernel of small-array NumPy calls, the kind
    of work vdtoda does at n <= 8, that never calls vdtoda."""
    x = _GAUGE_X
    start = time.perf_counter()
    for _ in range(GAUGE_ROUNDS):
        y = np.exp(x) * np.cosh(x) + _GAUGE_M @ x
        x = np.clip(y * 1e-3, -1.0, 1.0)
    return time.perf_counter() - start


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs one workload's ops over its inputs and checks every output."""

    def __init__(self, work: workloads.Workload, seed: int):
        self.work = work
        self.inputs = work.make_inputs(seed)
        self.errors = workloads.library_errors()
        self.attempted = 0
        self.failures: list[str] = []
        self.gauge_s = gauge()

    def run_op(self, index: int) -> tuple[float, float] | None:
        """(wall latency s, gauge s around it) of op ``index``, or None if it failed."""
        item = self.inputs[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = self.work.op(item)
        except self.errors as err:
            self.failures.append(f"input {index}: {type(err).__name__}: {err}")
            return None
        took = time.perf_counter() - start
        before, self.gauge_s = self.gauge_s, gauge()
        reason = self.work.check(item, output)
        if reason is not None:
            self.failures.append(f"input {index}: {reason}")
            return None
        return took, (before + self.gauge_s) / 2

    def one_pass(self) -> list[tuple[float, float]]:
        """``run_op`` results of the ops that succeeded in one pass over the inputs."""
        timings = (self.run_op(index) for index in range(len(self.inputs)))
        return [timing for timing in timings if timing is not None]

    def timed_passes(self, seconds: float) -> tuple[list[tuple[float, float]], list[float]]:
        """Whole passes until ``seconds`` have passed: (timings, wall s of each pass)."""
        latencies, walls = [], []
        while not walls or sum(walls) < seconds:
            start = time.perf_counter()
            latencies += self.one_pass()
            walls.append(time.perf_counter() - start)
        return latencies, walls

    def traced_passes(self, seconds: float, tracer: Tracer):
        """Untraced and traced passes in turn until ``seconds`` have passed.

        Alternating keeps slow drift of the machine out of the overhead
        ratio.  Returns (untraced latencies, traced latencies, traced ops,
        pairs of passes).
        """
        plain, traced = [], []
        traced_ops = pairs = 0
        start = time.perf_counter()
        while pairs == 0 or time.perf_counter() - start < seconds:
            plain += [took for took, _ in self.one_pass()]
            before = self.attempted
            with tracer:
                traced += [took for took, _ in self.one_pass()]
            traced_ops += self.attempted - before
            pairs += 1
        return plain, traced, traced_ops, pairs


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at ``TAIL_PERCENTILE``, or at the
    highest percentile that leaves ``TAIL_BEYOND`` samples beyond it when
    that is lower; the maximum if there are no more samples than that.

    Capping the percentile keeps the tail out of the few slowest ops of a
    long run, which on a shared host are scheduling hiccups.
    """
    ordered = sorted(latencies)
    m = len(ordered)
    if m <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    beyond = max(TAIL_BEYOND, math.ceil(m * (100 - TAIL_PERCENTILE) / 100))
    return ordered[m - beyond - 1], 100.0 * (m - beyond) / m, beyond


def setup_seconds(name: str, seed: int) -> list[float]:
    """Wall times of fresh probe processes (import, inputs, first op)."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, script, name, str(seed)],
            cwd=str(workloads.ROOT),
            check=True,
            timeout=PROBE_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(workloads.ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env_found": FOUND,
        "env_used": {var: os.environ.get(var) for var in ENV_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads.load_vdtoda()
    except (FileNotFoundError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload]

    setup = [] if args.trace else setup_seconds(work.name, args.seed)
    runner = Runner(work, args.seed)
    runner.run_op(0)  # warm-up, checked but not timed

    detail = {"workload": work.name, "seed": args.seed, "inputs": len(runner.inputs)}
    if args.trace:
        tracer = Tracer()
        plain, traced, traced_ops, pairs = runner.traced_passes(args.seconds, tracer)
        metrics = tracer.metrics(traced_ops)
        overhead = statistics.median(traced) / statistics.median(plain) if traced and plain else 0.0
        metrics["trace.overhead_frac"] = metric(overhead, "ratio")
        detail.update(
            pairs_of_passes=pairs,
            absent_spans=tracer.absent,
            idle_spans=[n for n, (calls, _, _) in tracer.totals.items() if calls == 0],
        )
    else:
        timings, walls = runner.timed_passes(args.seconds)
        wall = sum(walls)
        done = len(timings)
        timings = timings or [(0.0, 1.0)]  # every op failed: zeros, and correct is false
        latencies = [took * GAUGE_NOMINAL_S / gauge_s for took, gauge_s in timings]
        tail_value, tail_pct, beyond = tail(latencies)
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "ops_per_s": metric(done / sum(latencies) if done else 0.0, "1/s"),
            "op_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": metric(1e3 * tail_value, "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        detail.update(
            pass_s=walls,
            timed_s=wall,
            wall_ops_per_s=done / wall,
            wall_op_p50_ms=1e3 * statistics.median(took for took, _ in timings),
            gauge_p50_ms=1e3 * statistics.median(gauge_s for _, gauge_s in timings),
            setup_samples_s=setup,
            op_tail={"percentile": tail_pct, "samples": done, "beyond": beyond},
        )

    failed = len(runner.failures)
    detail.update(
        ops_attempted=runner.attempted,
        ops_failed=failed,
        failures=runner.failures[:20],
        environment=environment(),
    )
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'ops_attempted':34s} {runner.attempted} count")
    print(f"{'ops_failed':34s} {failed} count")
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
