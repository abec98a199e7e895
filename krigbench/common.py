"""Metric declarations and measurement helpers shared by every workload."""

from __future__ import annotations

import bisect
import json
import pathlib
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: End-to-end metrics (``--trace 0``): name -> unit.  BENCHMARK.json lists
#: the same names and units; the smoke test keeps the two in step.
END_TO_END = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "estimator_over_simulate": "ratio",
    "interpolated_pct": "%",
    "mean_error": "dB",
    "success_pct": "%",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Times and counts are
#: per unit of work; a layer a workload never enters reads 0.
PER_LAYER = {
    "simulate.s": "s",
    "simulate.calls": "count",
    "variogram.empirical_s": "s",
    "variogram.select_s": "s",
    "variogram.fit_s": "s",
    "variogram.refits": "count",
    "factor_cache.s": "s",
    "factor_cache.hits": "count",
    "factor_cache.updates": "count",
    "factor_cache.fresh": "count",
    "factor_cache.fallbacks": "count",
    "factor_cache.invalidations": "count",
    "factor_cache.evictions": "count",
    "factor_cache.reuse_pct": "%",
    "neighbors.s": "s",
    "neighbors.calls": "count",
    "neighbors.mean_support": "count",
    "exact_hit.s": "s",
    "exact_hit.hit_pct": "%",
    "solve.s": "s",
    "solve.assembly_s": "s",
    "solve.factorize_s": "s",
    "solve.backsolve_s": "s",
    "solve.flushes": "count",
    "bookkeeping.s": "s",
    "optimizer.s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.flush_wait_ms": "ms",
    "serve.batch_size": "count",
    "serve.generator_lag_ms": "ms",
    "serve.sent": "count",
    "serve.failed": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    "host.calib_s": "s",
}

#: ``estimator_over_simulate`` on the workloads where it does not apply.
#: Only ``dse`` has a simulate budget to set the estimator against: the
#: others simulate nothing or a few microseconds' worth.  A metric whose
#: median is 0 has no relative spread, so "not applicable" reads 1.
NOT_APPLICABLE = 1.0

#: Failure messages kept per run (every failure still counts).
MAX_PROBLEMS = 10

#: Layer coverage below this share of the traced wall clock fails the run.
MIN_COVERAGE_PCT = 95.0

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def bound(metric: str) -> float:
    """The regression bound BENCHMARK.json gives an end-to-end metric."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return float(next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric))


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str, failed: int = 1) -> None:
        """Record a correctness check; a failed one counts ``failed`` answers
        and makes the run incorrect.  The first few messages are kept."""
        if not ok:
            self.correct = False
            self.failed += failed
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(message)

    def success_pct(self) -> float:
        return 100.0 * (self.attempted - self.failed) / max(self.attempted, 1)


def median(samples: list[float]) -> float:
    return float(statistics.median(samples))


def percentile(samples: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), pct))


def lower_quartile(samples: list[float]) -> float:
    """The set-up statistic.  Set-up steps last a millisecond (a second on
    ``serve``) and take a slow spell's full toll even after host scaling
    (builds ran 1.65x slower where the probe ran 1.48x); the lower quartile
    follows the quieter spells, and a slower program still moves it."""
    return percentile(samples, 25.0)


#: Seconds :func:`probe_kernel` takes on a quiet core of the reference host,
#: a two-vCPU VM (``nproc`` 2) shared with other tenants.
PROBE_REFERENCE_S = 0.0040

_PROBE_RNG = np.random.default_rng(7)
_PROBE_SMALL = (lambda a: a @ a.T + 20.0 * np.eye(20))(_PROBE_RNG.standard_normal((20, 20)))
_PROBE_RHS = np.ones(20)
_PROBE_MATRIX = _PROBE_RNG.standard_normal((120, 120))
_PROBE_STREAM = np.ones(500_000)  # 4 MB: streams through the caches
_PROBE_OUT = np.empty_like(_PROBE_STREAM)


def probe_kernel() -> float:
    """Best of two timings of a fixed kernel of four parts of about 1 ms each
    on the reference host: interpreter work, small dense solves, a dense
    matrix product and a memory stream.  A host's slow spell slows each
    kind of work by its own factor (1.2x to 1.8x on the reference host); the
    estimator's layers mix all four, and so does the probe."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(16_000):
            total += i * i % 7
        for _ in range(80):
            np.linalg.solve(_PROBE_SMALL, _PROBE_RHS)
        for _ in range(15):
            _PROBE_MATRIX @ _PROBE_MATRIX
        for _ in range(3):
            np.multiply(_PROBE_STREAM, 1.0001, out=_PROBE_OUT)
        best = min(best, time.perf_counter() - start)
    return best


class HostClock:
    """Turns wall-clock intervals into seconds at the reference host speed.

    The host's speed shifts for seconds at a time: on the reference VM its
    cores switch between two speeds about 1.55x apart whenever other tenants
    load the machine, with no steal time and CPU time tracking wall time.
    Such a spell moves every timing inside it by the same factor, and when
    it covers a whole run no statistic over the run's timings removes it.
    So the benchmark times :func:`probe_kernel` (``probe``) between its
    timed stretches, and a wall interval between two probes counts as
    ``PROBE_REFERENCE_S`` over the mean of those two probes' seconds per
    second; time spent in probes is left out.  The probe is benchmark
    code no change to the program runs, so a slower program shows in full.
    """

    def __init__(self, kernel=probe_kernel) -> None:
        self.kernel = kernel
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        seconds = self.kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.seconds.append(seconds)

    def since_probe(self) -> float:
        return time.perf_counter() - self.ends[-1]

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        n = len(self.seconds)
        if n == 0:
            raise RuntimeError("the host clock was never probed")
        total = 0.0
        k = bisect.bisect_right(self.ends, start)  # the gap ``start`` falls in
        while True:
            # Gap k runs from the end of probe k-1 to the start of probe k.
            gap_start = self.ends[k - 1] if k > 0 else start
            gap_end = self.starts[k] if k < n else end
            overlap = min(end, gap_end) - max(start, gap_start)
            if overlap > 0.0:
                around = self.seconds[max(k - 1, 0):k + 1]
                total += overlap * PROBE_REFERENCE_S * len(around) / sum(around)
            if k >= n or gap_end >= end:
                return total
            k += 1


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest ended child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def host_calibration() -> float:
    """Median seconds of a fixed pure-Python plus NumPy kernel (host drift probe).

    No change to the program can move it: it tells a slower host from a
    slower program in the raw timings.  One untimed call warms up BLAS.
    """
    matrix = np.random.default_rng(12345).standard_normal((160, 160))

    def kernel() -> None:
        total = 0
        for i in range(100_000):
            total += i * i % 7
        for _ in range(20):
            np.linalg.cholesky(matrix @ matrix.T + 160.0 * np.eye(160))

    kernel()
    return timed_median(kernel, 5)


def simulator_spec(coefficients: np.ndarray) -> dict:
    """The program's own linear simulator over the synthetic field."""
    from inputs import FIELD_OFFSET

    return {"kind": "linear", "coefficients": coefficients.tolist(), "offset": FIELD_OFFSET}


def program_simulator(coefficients: np.ndarray):
    """The simulate callable the program builds from :func:`simulator_spec`."""
    from inputs import NUM_VARIABLES
    from repro.service.session import make_simulator

    return make_simulator(simulator_spec(coefficients), NUM_VARIABLES)[0]


def timed_median(fn, repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)
