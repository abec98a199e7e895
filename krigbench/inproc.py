"""The in-process workloads: ``dse``, ``sweep`` and ``grow``.

Each run draws its inputs from the seed, then repeats one *unit* -- a fixed
amount of work from a fresh estimator, so no unit depends on how many ran
before it -- until the window closes.  Set-up (building the estimator and
ingesting support) happens before every unit and is timed on its own;
input generation and correctness checks are never inside either timing.
Timings are recorded as wall-clock stamps and turned into seconds at the
reference host speed by the run's :class:`common.HostClock`, probed before
every unit (and every ``PROBE_PERIOD_S`` inside a ``dse`` optimisation).

With ``--trace 1`` units alternate untraced and traced.  Layer metrics come
from the traced units; ``trace.overhead_pct`` compares the two halves.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from common import (
    MIN_COVERAGE_PCT,
    NOT_APPLICABLE,
    PER_LAYER,
    HostClock,
    Outcome,
    bound,
    lower_quartile,
    median,
    peak_rss_mb,
    program_simulator,
)
from inputs import field_values
from tracing import LayerTotals, LayerTracer

ENVELOPE = 1e-9  # the engine's documented equivalence tolerance

SCALES = {
    "full": {
        "dse": dict(n_blocks=15, min_value=4, max_value=20),
        "sweep": dict(n_support=2000, side=12, n_clusters=100, cluster_size=20),
        "grow": dict(n_support=600, side=5, n_queries=32, rounds=6),
    },
    "tiny": {
        "dse": dict(n_blocks=2, min_value=8, max_value=13),
        "sweep": dict(n_support=300, side=8, n_clusters=10, cluster_size=10),
        "grow": dict(n_support=200, side=5, n_queries=8, rounds=3),
    },
}

SWEEP_DISTANCE = 4.0
GROW_DISTANCE = 4.75
NN_MIN = 1
HEVC_THRESHOLD_DB = -50.0

#: Inside a ``dse`` optimisation, longer than the host's fast and slow
#: spells, the host clock is probed between evaluator calls this often.
PROBE_PERIOD_S = 0.25

#: Runs of at least this many units and seconds check that the median
#: unit times of their first and last third agree within this many times
#: the ``time_to_solution_s`` bound.  In host-clock seconds those medians
#: differed by at most 10% in six 20 s runs of unchanged code (in raw wall
#: seconds by up to 47%); twice the bound leaves room for a slow spell the
#: probe under-corrects and still catches a cost that grows with run
#: length the way one estimator's rounds did (+88% over six rounds).  That
#: every unit does the same work is checked exactly, on its counters.
MIN_DRIFT_UNITS = 10
MIN_DRIFT_SECONDS = 10.0
DRIFT_BOUNDS = 2.0

#: Per workload, the layers its traced run must enter and the layers that
#: carry it.  A layer recording no calls means the estimator stopped
#: calling the wrapped function, so that work now folds silently into its
#: caller's self time; the carrying layers must also hold a non-negligible
#: share of the traced wall clock.
LAYERS = {
    "sweep": (("neighbors", "exact_hit", "solve", "factor_cache"), ("neighbors",)),
    "grow": (("factor_cache", "neighbors", "exact_hit", "solve", "simulate"),
             ("factor_cache",)),
    "dse": (("variogram.empirical", "variogram.select", "variogram.fit", "simulate",
             "neighbors", "exact_hit", "solve", "factor_cache", "optimizer"),
            ("variogram.empirical", "variogram.select", "variogram.fit")),
}
MIN_CARRYING_PCT = 1.0


# ----------------------------------------------------------------------
# layer wrapping
# ----------------------------------------------------------------------
def _count_support(extra: dict, rows) -> None:
    extra["neighbors.support"] = extra.get("neighbors.support", 0) + len(rows)


def _count_hit(extra: dict, value) -> None:
    extra["exact_hit.hits"] = extra.get("exact_hit.hits", 0) + (value is not None)


def layer_tracer() -> LayerTracer:
    """Wrappers over the public functions each layer consists of, named the
    way the estimator, evaluator and optimiser call them."""
    import repro.core.estimator as estimator_module
    import repro.core.fitting as fitting_module
    from repro.core.cache import SimulationCache
    from repro.core.estimator import KrigingEstimator
    from repro.core.factor_cache import FactorCache
    from repro.optimization.evaluator import KrigingMetricEvaluator, MetricEvaluator
    from repro.optimization.minplusone import MinPlusOneOptimizer

    return LayerTracer([
        (estimator_module, "empirical_semivariogram", "variogram.empirical", None),
        (estimator_module, "select_variogram", "variogram.select", None),
        (estimator_module, "fit_variogram", "variogram.fit", None),
        (fitting_module, "fit_variogram", "variogram.fit", None),
        (FactorCache, "factor_for", "factor_cache", None),
        (estimator_module, "find_neighbors", "neighbors", _count_support),
        (SimulationCache, "lookup", "exact_hit", _count_hit),
        (estimator_module, "ordinary_kriging_grouped", "solve", None),
        (estimator_module, "ordinary_kriging", "solve", None),
        (KrigingEstimator, "evaluate", "bookkeeping", None),
        (KrigingEstimator, "evaluate_batch", "bookkeeping", None),
        (KrigingEstimator, "force_simulate", "bookkeeping", None),
        (MetricEvaluator, "evaluate", "bookkeeping", None),
        (KrigingMetricEvaluator, "evaluate_batch", "bookkeeping", None),
        (KrigingMetricEvaluator, "ensure_simulated", "bookkeeping", None),
        (MinPlusOneOptimizer, "run", "optimizer", None),
    ])


class StatSums:
    """Factor-cache and solve-phase counters summed over traced units."""

    FACTOR = ("hits", "updates", "fresh", "fallbacks", "invalidations", "evictions",
              "failures")

    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def add(self, stats) -> None:
        for name in self.FACTOR:
            self._bump(f"factor_cache.{name}", getattr(stats.factor, name))
        self._bump("solve.assembly_s", stats.solve.assembly_seconds)
        self._bump("solve.factorize_s", stats.solve.factorize_seconds)
        self._bump("solve.backsolve_s", stats.solve.backsolve_seconds)
        self._bump("solve.flushes", stats.solve.n_flushes)

    def _bump(self, key: str, value: float) -> None:
        self.values[key] = self.values.get(key, 0) + value


def layer_metrics(totals: LayerTotals, sums: StatSums, overhead_pct: float) -> dict[str, float]:
    """Per-unit layer metrics from the traced units."""
    units = max(totals.units, 1)
    out = {name: 0.0 for name in PER_LAYER}
    for layer in ("simulate", "factor_cache", "neighbors", "exact_hit", "solve",
                  "bookkeeping", "optimizer"):
        out[f"{layer}.s"] = totals.seconds.get(layer, 0.0) / units
    out["simulate.calls"] = totals.calls.get("simulate", 0) / units
    out["variogram.empirical_s"] = totals.seconds.get("variogram.empirical", 0.0) / units
    out["variogram.select_s"] = totals.seconds.get("variogram.select", 0.0) / units
    out["variogram.fit_s"] = totals.seconds.get("variogram.fit", 0.0) / units
    out["variogram.refits"] = totals.calls.get("variogram.empirical", 0) / units
    calls = totals.calls.get("neighbors", 0)
    out["neighbors.calls"] = calls / units
    out["neighbors.mean_support"] = totals.extra.get("neighbors.support", 0) / max(calls, 1)
    lookups = totals.calls.get("exact_hit", 0)
    out["exact_hit.hit_pct"] = 100.0 * totals.extra.get("exact_hit.hits", 0) / max(lookups, 1)
    for key, value in sums.values.items():
        if key in out:
            out[key] = value / units
    requests = sum(sums.values.get(f"factor_cache.{k}", 0)
                   for k in ("hits", "updates", "fresh", "failures"))
    useful = sums.values.get("factor_cache.hits", 0) + sums.values.get("factor_cache.updates", 0)
    out["factor_cache.reuse_pct"] = 100.0 * useful / max(requests, 1)
    out["trace.overhead_pct"] = overhead_pct
    out["trace.coverage_pct"] = totals.coverage_pct()
    return out


class UnitLoop:
    """Runs units until the window closes; alternates tracing in trace mode.

    The host clock is probed before every unit and once after the last, so
    each unit's stamps fall between two probes."""

    def __init__(self, workload: str, seconds: float, spans_path: pathlib.Path | None,
                 min_units: int, clock: HostClock, max_traced: int = 8):
        self.workload = workload
        self.seconds = seconds
        self.spans_path = spans_path
        self.trace = spans_path is not None
        self.min_units = min_units
        self.clock = clock
        self.max_traced = max_traced
        self.tracer = layer_tracer().install() if self.trace else None
        self.sums = StatSums()
        self.untraced: list[tuple[float, float]] = []  # stamps of the timed windows
        self.traced: list[tuple[float, float]] = []
        self.work: list[tuple] = []  # of the first and the latest untraced unit

    def run(self, unit) -> None:
        """``unit(tracer_or_None)`` does one unit and returns the stamps of its
        timed window and the estimator whose stats it used; it times its work
        inside :func:`timed_window` so set-up stays out of the traced root span."""
        deadline = time.perf_counter() + self.seconds
        i = 0
        try:
            while i < self.min_units or (
                time.perf_counter() < deadline
                and (not self.trace or len(self.traced) < self.max_traced)
            ):
                traced = self.trace and i % 2 == 1
                self.clock.probe()
                if traced:
                    stamps, estimator = unit(self.tracer)
                    self.sums.add(estimator.stats)
                    self.traced.append(stamps)
                else:
                    stamps, estimator = unit(None)
                    self.untraced.append(stamps)
                    self.work[1:] = [work_done(estimator.stats)]
                i += 1
            self.clock.probe()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    def walls(self, traced: bool = False) -> list[float]:
        """Reference seconds of the untraced (or traced) units, in run order."""
        return [self.clock.scaled(*stamps) for stamps in (self.traced if traced
                                                          else self.untraced)]

    def finish(self, outcome: Outcome) -> None:
        outcome.check(self.work[0] == self.work[-1],
                      f"the first and the last unit did different work: {self.work[0]} "
                      f"against {self.work[-1]}", failed=0)
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
        if not self.trace:
            return
        self.tracer.write(self.spans_path)
        overhead = 100.0 * (median(self.walls(traced=True)) / median(self.walls()) - 1.0)
        totals = self.tracer.totals()
        metrics = layer_metrics(totals, self.sums, overhead)
        outcome.check(
            metrics["trace.coverage_pct"] >= MIN_COVERAGE_PCT,
            f"layer self times cover {metrics['trace.coverage_pct']:.2f}% "
            f"of the traced wall clock (< {MIN_COVERAGE_PCT}%)",
            failed=0,
        )
        entered, carrying = LAYERS[self.workload]
        silent = [layer for layer in entered if not totals.calls.get(layer)]
        outcome.check(not silent, f"layers never entered: {silent}; their work folds into "
                      "a caller's self time", failed=0)
        share = 100.0 * sum(totals.seconds.get(layer, 0.0) for layer in carrying) \
            / max(totals.root_seconds, 1e-12)
        outcome.check(share >= MIN_CARRYING_PCT,
                      f"{'+'.join(carrying)} hold {share:.3f}% of the traced wall clock "
                      f"(< {MIN_CARRYING_PCT}%)", failed=0)
        outcome.metrics.update(metrics)


def work_done(stats) -> tuple:
    """The work counters of one unit: equal for every unit of fixed work."""
    factor = tuple(getattr(stats.factor, name) for name in StatSums.FACTOR)
    return (stats.n_simulated, stats.n_interpolated, stats.n_exact_hits,
            stats.solve.n_flushes) + factor


@contextlib.contextmanager
def timed_window(tracer, box: list):
    """Stamp the start and end of the measured part of a unit into ``box``;
    traced units also open the root span there."""
    span = tracer.unit() if tracer is not None else contextlib.nullcontext()
    with span:
        start = time.perf_counter()
        try:
            yield
        finally:
            box.append((start, time.perf_counter()))


def first_last(walls: list[float], outcome: Outcome) -> str:
    """Median unit time of the first and of the last third of a run: equal
    work per unit means they differ only by host noise, however long it ran.
    A long run fails when they differ by more than the drift limit."""
    k = max(1, len(walls) // 3)
    first, last = median(walls[:k]), median(walls[-k:])
    if len(walls) >= MIN_DRIFT_UNITS and sum(walls) >= MIN_DRIFT_SECONDS:
        limit = DRIFT_BOUNDS * bound("time_to_solution_s")
        outcome.check(abs(last / first - 1.0) <= limit,
                      f"unit time drifts over the run: first third {first:.4f} s, last "
                      f"third {last:.4f} s (bound {limit:.0%})", failed=0)
    return (f"first/last third of units: median {first:.4f} / {last:.4f} s "
            f"over {len(walls)} units")


def _compare(values, reference, outcome: Outcome, what: str) -> None:
    values = np.asarray(values, dtype=np.float64)
    bad = int(np.sum(~np.isclose(values, reference, rtol=ENVELOPE, atol=ENVELOPE)))
    outcome.check(bad == 0, f"{what}: {bad} answers outside the 1e-9 envelope", failed=bad)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def run_sweep(seed: int, seconds: float, spans_path: pathlib.Path | None,
              scale: str) -> tuple[Outcome, list[str]]:
    from inputs import sweep_inputs
    from repro.core.estimator import KrigingEstimator
    from repro.core.models import LinearVariogram

    cfg = SCALES[scale]["sweep"]
    data = sweep_inputs(seed, distance=SWEEP_DISTANCE, nn_min=NN_MIN, **cfg)
    n_support, n_queries = data.support.shape[0], data.queries.shape[0]
    outcome = Outcome()

    def read_only(config) -> float:
        raise AssertionError(f"sweep simulated {config!r}; the sweep must stay read-only")

    def build(factor_cache: bool = True) -> KrigingEstimator:
        est = KrigingEstimator(read_only, data.support.shape[1], distance=SWEEP_DISTANCE,
                               nn_min=NN_MIN, variogram=LinearVariogram(1.0),
                               factor_cache=factor_cache)
        for point, value in zip(data.support, data.values):
            est.record_measurement(point, value)
        return est

    reference = np.array([o.value for o in build(False).evaluate_batch(data.queries)])
    clock = HostClock()
    setups: list[tuple[float, float]] = []
    interpolated_pct: list[float] = []

    def unit(tracer):
        start = time.perf_counter()
        est = build()
        setups.append((start, time.perf_counter()))
        box: list[float] = []
        with timed_window(tracer, box):
            answers = est.evaluate_batch(data.queries)
        outcome.attempted += n_queries
        _compare([o.value for o in answers], reference, outcome, "sweep")
        outcome.check(len(est.cache) == n_support and est.stats.n_simulated == n_support,
                      "sweep changed the support cache", failed=0)
        interpolated_pct.append(100.0 * sum(o.interpolated for o in answers) / n_queries)
        return box[0], est

    loop = UnitLoop("sweep", seconds, spans_path, min_units=3, clock=clock)
    loop.run(unit)
    walls = loop.walls()  # end-to-end metrics come from untraced units only
    unit_s = median(walls)
    truth = field_values(data.queries, data.coefficients)
    outcome.metrics.update({
        "setup_s": lower_quartile([clock.scaled(*stamps) for stamps in setups]),
        "time_to_solution_s": unit_s,
        "queries_per_s": n_queries / unit_s,
        "latency_p50_ms": 1000.0 * unit_s,  # the sweep is one evaluate_batch call
        "estimator_over_simulate": NOT_APPLICABLE,
        "interpolated_pct": median(interpolated_pct),
        "mean_error": float(np.mean(np.abs(reference - truth))),
    })
    info = [first_last(walls, outcome)]
    loop.finish(outcome)
    return outcome, info


# ----------------------------------------------------------------------
# grow
# ----------------------------------------------------------------------
def run_grow(seed: int, seconds: float, spans_path: pathlib.Path | None,
             scale: str) -> tuple[Outcome, list[str]]:
    from inputs import grow_inputs
    from repro.core.estimator import KrigingEstimator
    from repro.core.models import ExponentialVariogram

    cfg = SCALES[scale]["grow"]
    data = grow_inputs(seed, distance=GROW_DISTANCE, **cfg)
    simulate = program_simulator(data.coefficients)
    outcome = Outcome()
    # A bounded strictly-PD variogram: the Gamma matrices factorize, so the
    # factor cache has factors to reuse and derive.
    variogram = ExponentialVariogram(sill=25.0, range_=8.0)

    def build(sim, factor_cache: bool = True) -> KrigingEstimator:
        est = KrigingEstimator(sim, data.support.shape[1], distance=GROW_DISTANCE,
                               nn_min=NN_MIN, variogram=variogram, factor_cache=factor_cache)
        for point, value in zip(data.support, data.values):
            est.record_measurement(point, value)
        return est

    def rounds(est, latencies: list) -> tuple[list[float], int]:
        values, interpolated = [], 0
        for point in data.new_points:
            start = time.perf_counter()
            answers = est.evaluate_batch(data.queries)
            latencies.append((start, time.perf_counter()))
            values.extend(o.value for o in answers)
            interpolated += sum(o.interpolated for o in answers)
            values.append(est.force_simulate(point).value)
        return values, interpolated

    reference, _ = rounds(build(simulate, factor_cache=False), [])
    reference = np.asarray(reference)
    clock = HostClock()
    setups: list[tuple[float, float]] = []
    latencies: list[tuple[float, float]] = []
    interpolated_pct: list[float] = []

    def unit(tracer):
        sim = simulate if tracer is None else tracer.wrap_callable(simulate, "simulate")
        start = time.perf_counter()
        est = build(sim)
        setups.append((start, time.perf_counter()))
        box: list[float] = []
        with timed_window(tracer, box):
            values, interpolated = rounds(est, latencies if tracer is None else [])
        outcome.attempted += len(values)
        _compare(values, reference, outcome, "grow")
        interpolated_pct.append(100.0 * interpolated / len(values))
        return box[0], est

    loop = UnitLoop("grow", seconds, spans_path, min_units=3, clock=clock)
    loop.run(unit)
    walls = loop.walls()  # end-to-end metrics come from untraced units only
    unit_s = median(walls)
    n_answers = reference.size
    truth = field_values(data.queries, data.coefficients)
    per_round = len(data.queries) + 1
    estimates = reference.reshape(len(data.new_points), per_round)[:, :-1]
    outcome.metrics.update({
        "setup_s": lower_quartile([clock.scaled(*stamps) for stamps in setups]),
        "time_to_solution_s": unit_s,
        "queries_per_s": n_answers / unit_s,
        # one round's evaluate_batch
        "latency_p50_ms": 1000.0 * median([clock.scaled(*stamps) for stamps in latencies]),
        "estimator_over_simulate": NOT_APPLICABLE,
        "interpolated_pct": median(interpolated_pct),
        "mean_error": float(np.mean(np.abs(estimates - truth[None, :]))),
    })
    info = [first_last(walls, outcome)]
    loop.finish(outcome)
    return outcome, info


# ----------------------------------------------------------------------
# dse
# ----------------------------------------------------------------------
_resimulated = None  # the substrate forked re-simulation workers use


def _chunk_errors(answers) -> list[float]:
    return [abs(value - _resimulated.noise_power_db(config)) for config, value in answers]


def absolute_errors(bench, answers: list) -> list[float]:
    """``|value - simulated|`` of each ``(configuration, value)``, outside any
    timing and split over forked processes, one per CPU (at most two): at
    ~8 ms a simulation, thousands of answers would otherwise double the run."""
    global _resimulated
    workers = min(2, len(os.sched_getaffinity(0)))
    chunks = [answers[i::workers] for i in range(workers)]
    _resimulated = bench
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return [error for part in pool.map(_chunk_errors, chunks) for error in part]
    finally:
        _resimulated = None

def run_dse(seed: int, seconds: float, spans_path: pathlib.Path | None,
            scale: str) -> tuple[Outcome, list[str]]:
    from inputs import hevc_inputs
    from repro.core.estimator import KrigingEstimator
    from repro.optimization.evaluator import KrigingMetricEvaluator
    from repro.optimization.minplusone import MinPlusOneOptimizer
    from repro.optimization.problem import DSEProblem, MetricSense
    from repro.video import BlockWorkload, MotionCompensationBenchmark

    cfg = SCALES[scale]["dse"]
    frame = hevc_inputs(seed, n_blocks=cfg["n_blocks"])
    outcome = Outcome()

    clock = HostClock()

    class TimedEvaluator(KrigingMetricEvaluator):
        """Stamps each call the optimiser makes into its evaluator and, when
        ``probing``, probes the host clock between calls."""

        def __init__(self, estimator) -> None:
            super().__init__(estimator)
            self.calls: list[tuple[float, float]] = []
            self.probing = False

        def _timed(self, method, *args, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                self.calls.append((start, time.perf_counter()))
                if self.probing and clock.since_probe() >= PROBE_PERIOD_S:
                    clock.probe()

        def evaluate(self, configuration, *, phase=""):
            return self._timed(super().evaluate, configuration, phase=phase)

        def evaluate_batch(self, configurations, *, phase=""):
            return self._timed(super().evaluate_batch, configurations, phase=phase)

        def ensure_simulated(self, configuration, *, phase=""):
            return self._timed(super().ensure_simulated, configuration, phase=phase)

    def build(simulate_wrapper):
        workload = BlockWorkload(frame=frame.frame, positions=frame.positions,
                                 phases=frame.phases)
        bench = MotionCompensationBenchmark(workload=workload)
        simulate = simulate_wrapper(bench.noise_power_db)
        problem = DSEProblem(
            name="hevc", num_variables=bench.NUM_VARIABLES, min_value=cfg["min_value"],
            max_value=cfg["max_value"], simulate=simulate,
            sense=MetricSense.LOWER_IS_BETTER, threshold=HEVC_THRESHOLD_DB,
        )
        # The paper's replay settings.
        estimator = KrigingEstimator(simulate, bench.NUM_VARIABLES, distance=3.0,
                                     nn_min=NN_MIN, metric="l1", variogram="auto",
                                     min_fit_points=4, refit_interval=1)
        return bench, problem, estimator, TimedEvaluator(estimator)

    # Builds are timed before, between and after the long steps of the run,
    # each group between two probes of the host clock.
    builds: list[tuple[float, float]] = []

    def time_builds() -> None:
        clock.probe()
        for _ in range(17):
            start = time.perf_counter()
            build(lambda fn: fn)
            builds.append((start, time.perf_counter()))
        clock.probe()

    time_builds()
    results = []
    details: dict = {}

    def unit(tracer):
        sim_time = [0.0]

        def timing(fn):
            if tracer is not None:
                return tracer.wrap_callable(fn, "simulate")

            def timed(config):
                start = time.perf_counter()
                value = fn(config)
                sim_time[0] += time.perf_counter() - start
                return value
            return timed

        bench, problem, estimator, evaluator = build(timing)
        # The traced optimisation is not probed: a probe inside its root
        # span would count against the layers' coverage.
        evaluator.probing = tracer is None
        box: list[tuple[float, float]] = []
        with timed_window(tracer, box):
            result = MinPlusOneOptimizer(problem, evaluator).run()
        records = result.trace.records
        outcome.attempted += len(records) + 1
        ok = result.satisfied and problem.satisfied(bench.noise_power_db(result.solution))
        outcome.check(ok, "dse solution misses its threshold when re-simulated",
                      failed=len(records) + 1)
        outcome.check(all(np.isfinite(r.value) for r in records), "dse answer not finite")
        results.append((round(100.0 * estimator.stats.interpolated_fraction, 9), result.cost))
        if tracer is None:
            # A ratio of two wall times of the same spell: no host scaling.
            call_s = sum(end - start for start, end in evaluator.calls)
            details.setdefault("estimator_s", []).append(call_s - sim_time[0])
            details.setdefault("simulate_s", []).append(sim_time[0])
            details.setdefault("calls", []).append(evaluator.calls)
            details["last"] = (bench, records, estimator)
        return box[0], estimator

    # One optimisation is longer than the window, so a plain run does one;
    # the traced run does two, one of them untraced, and checks they agree.
    loop = UnitLoop("dse", 0.0, spans_path, min_units=1 if spans_path is None else 2,
                    clock=clock)
    loop.run(unit)
    outcome.check(len(set(results)) == 1,
                  f"dse interpolated_pct and solution cost differ between units: {results}")
    bench, records, estimator = details["last"]
    time_builds()
    # Every interpolated answer is re-simulated: the errors are heavy-tailed
    # (a few queries past a word-length cliff miss by 10-25 dB), so a sample
    # of a few hundred moved the mean by a fifth from draw to draw.
    errors = absolute_errors(bench, [(r.configuration, r.value) for r in records
                                     if not r.simulated and not r.exact_hit])
    time_builds()
    unit_s = median(loop.walls())
    latency_s = [median([clock.scaled(*stamps) for stamps in calls])
                 for calls in details["calls"]]
    outcome.metrics.update({
        "setup_s": lower_quartile([clock.scaled(*stamps) for stamps in builds]),
        "time_to_solution_s": unit_s,
        "queries_per_s": len(records) / unit_s,
        "latency_p50_ms": 1000.0 * median(latency_s),
        "estimator_over_simulate": median(details["estimator_s"]) / median(details["simulate_s"]),
        "interpolated_pct": 100.0 * estimator.stats.interpolated_fraction,
        "mean_error": float(np.mean(errors)),
    })
    groups = [builds[i:i + 17] for i in range(0, len(builds), 17)]
    info = [f"solution cost {results[0][1]:g}, {len(records)} queries, "
            f"{estimator.stats.n_simulated} simulations",
            "set-up reference ms, median of each group of builds: " + " ".join(
                f"{1000 * median([clock.scaled(*stamps) for stamps in group]):.4f}"
                for group in groups)]
    loop.finish(outcome)
    return outcome, info

