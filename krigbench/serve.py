"""The ``serve`` workload: open-loop traffic against a spawned ``repro serve``.

One read-only session with a fixed variogram is seeded with the support
values; every query is screened to interpolate, so no request changes the
session.  A single asyncio load generator, on one CPU while the servers
have the other, drives it over a few pipelined connections per server:

1. a closed-loop warm-up of each server, so factor caches and lazy set-up
   are filled;
2. twenty-four closed-loop bursts of a fixed number of requests, back to back
   and taking turns over four spawned servers: the server's capacity
   (``queries_per_s``) and the burst time (``time_to_solution_s``), from
   their median;
3. Poisson arrivals at one fixed offered rate below saturation, in four
   segments, each request timed from its due time, so a stall shows in the
   latency of the requests behind it (``latency_p50_ms``: the median of the
   segments' medians).

The host clock (``common.HostClock``) is probed on both CPUs before every
set-up, burst and segment and after the last, and every timing is taken
to seconds at the reference host speed.

Every answer is compared with an in-process ``evaluate_batch`` over the same
session state, after each step rather than on the timed path.  How late
the generator sent each request is reported (``serve.generator_lag_ms``
and the info line), so a stalled generator is not blamed on the server.
The tail latency and a highest-rate search are not metrics: five runs
spread 52% and 24% on a two-CPU host.  The tail is printed as information.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np

from common import (
    MIN_COVERAGE_PCT,
    NOT_APPLICABLE,
    PER_LAYER,
    HostClock,
    Outcome,
    lower_quartile,
    median,
    peak_rss_mb,
    percentile,
    probe_kernel,
    simulator_spec,
)
from inputs import (
    NUM_VARIABLES,
    clustered_queries,
    field_coefficients,
    field_values,
    lattice_support,
)

ENVELOPE = 1e-9
CONNECTIONS = 4
BURST_WINDOW = 8  # requests each connection keeps in flight in a burst
FIXED_RATE_QPS = 120.0
FIXED_SHARE = 0.4  # of --seconds, for the fixed-rate step
FIXED_SEGMENTS = 4
SETUPS = 7
SERVERS = 4  # the last set-ups stay up and share the bursts
SWITCH_INTERVAL_S = 1e-4

SCALES = {
    "full": dict(side=6, n_support=1500, n_clusters=256, cluster_size=4, burst=750,
                 bursts=24),
    "tiny": dict(side=5, n_support=300, n_clusters=8, cluster_size=4, burst=64, bursts=4),
}
DISTANCE = 4.0
NN_MIN = 1
JITTER = (0.02, 0.12)
VARIOGRAM = {"family": "ExponentialVariogram",
             "params": {"sill": 25.0, "range_": 8.0, "nugget_": 0.0}}
SERVER_START_TIMEOUT_S = 60.0


def serve_inputs(seed: int, cfg: dict):
    """Support, field and a pool of clustered queries that all interpolate."""
    rng = np.random.default_rng(seed)
    coefficients = field_coefficients(rng)
    support = lattice_support(rng, cfg["n_support"], cfg["side"])
    values = field_values(support, coefficients)
    pool = clustered_queries(rng, support, n_clusters=cfg["n_clusters"],
                             cluster_size=cfg["cluster_size"], jitter=JITTER,
                             distance=DISTANCE, nn_min=NN_MIN)
    return support, values, pool, coefficients, rng


def cpu_pair() -> tuple[int, int] | None:
    """Two distinct CPUs, one for the load generator and one for the server,
    so the two never queue for the same core; None on a one-CPU host."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


def two_cpu_probe(cpus: tuple[int, int]):
    """A host-clock kernel timed on the generator's CPU and on the server's:
    a burst or a request runs on both."""
    def kernel() -> float:
        own = probe_kernel()
        os.sched_setaffinity(0, {cpus[1]})
        try:
            other = probe_kernel()
        finally:
            os.sched_setaffinity(0, {cpus[0]})
        return 0.5 * (own + other)
    return kernel


class Server:
    """A ``repro serve`` subprocess on an ephemeral port, pinned to ``cpu``."""

    def __init__(self, root: pathlib.Path, workdir: pathlib.Path, index: int,
                 cpu: int | None) -> None:
        self.port_file = workdir / f"port-{index}"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(self.port_file)],
            env=env, cwd=str(workdir), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})
        self.port = 0

    def wait_ready(self) -> int:
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.strip():
                self.port = int(text)
                return self.port
            time.sleep(0.005)
        raise RuntimeError("server did not start in time")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
class Load:
    """Pipelined connections to one session, plus the answer checker."""

    def __init__(self, clients, session: str, pool: np.ndarray, reference: np.ndarray,
                 outcome: Outcome) -> None:
        self.clients = clients
        self.session = session
        self.pool = [list(map(float, q)) for q in pool]
        self.reference = reference
        self.outcome = outcome
        self.interpolated = 0
        self.answered = 0
        self.answers: list[tuple[int, object, object]] = []

    async def one(self, i: int, index: int, clients=None) -> dict | None:
        """One evaluate request; returns the response, or None if it failed.
        Answers are checked later, in :meth:`check`, off the timed path."""
        clients = clients or self.clients
        self.outcome.attempted += 1
        try:
            response = await clients[i % len(clients)].request(
                "evaluate", session=self.session, config=self.pool[index])
        except Exception as exc:  # a refused or failed request is a miss
            self.outcome.check(False, f"request failed: {type(exc).__name__}: {exc}")
            return None
        self.answers.append((index, response.get("value"), response.get("interpolated")))
        return response

    def check(self) -> None:
        """Compare every answer received so far with ``evaluate_batch``."""
        for index, value, interpolated in self.answers:
            expected = self.reference[index]
            ok = isinstance(value, float) and bool(
                np.isclose(value, expected, rtol=ENVELOPE, atol=ENVELOPE))
            self.outcome.check(ok, f"served {value!r} where evaluate_batch gives {expected!r}")
            self.answered += 1
            self.interpolated += bool(interpolated)
        self.answers.clear()

    async def burst(self, order: np.ndarray) -> tuple[float, float]:
        """Closed loop: every connection keeps a window in flight; stamps."""
        queue = iter(range(len(order)))

        async def worker(i: int) -> None:
            for k in queue:
                await self.one(i, int(order[k]))

        start = time.perf_counter()
        await asyncio.gather(*(worker(i) for i in range(len(self.clients) * BURST_WINDOW)))
        stamps = (start, time.perf_counter())
        self.check()
        return stamps

    async def open_loop(self, rng: np.random.Generator, rate: float, seconds: float,
                        clients=None) -> dict:
        """Poisson arrivals at ``rate`` for ``seconds``; per-request timings
        (``stamps`` are each request's due time and answer time)."""
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < seconds]
        order = rng.integers(0, len(self.pool), size=offsets.size)
        latencies, stamps, lags, queue_waits, flush_waits = [], [], [], [], []
        failed_before = self.outcome.failed

        async def timed(i: int, due: float) -> None:
            sent = time.perf_counter()
            response = await self.one(i, int(order[i]), clients)
            done = time.perf_counter()
            lags.append(sent - due)
            latencies.append(done - due)
            stamps.append((due, done))
            if response is not None:
                queue_waits.append(response.get("queue_wait_ms", 0.0))
                flush_waits.append(response.get("flush_wait_ms", 0.0))

        # A thread paces the arrivals: the event loop's timers round up to
        # whole milliseconds, which alone would make the generator ~1 ms late.
        loop = asyncio.get_running_loop()
        tasks: list[asyncio.Task] = []

        def fire(i: int, due: float) -> None:
            tasks.append(loop.create_task(timed(i, due)))

        def pace(start: float) -> None:
            for i, offset in enumerate(offsets):
                due = start + float(offset)
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                loop.call_soon_threadsafe(fire, i, due)

        start = time.perf_counter() + 0.02
        await asyncio.to_thread(pace, start)
        await asyncio.sleep(0)  # let the last fire() callbacks run
        await asyncio.gather(*tasks)
        self.check()
        return {"sent": len(tasks), "failed": self.outcome.failed - failed_before,
                "latencies": latencies, "stamps": stamps, "lags": lags,
                "queue_waits": queue_waits, "flush_waits": flush_waits}


async def _batcher_counts(client) -> tuple[float, float]:
    families = {f["name"]: f for f in await client.metrics()}

    def total(name: str) -> float:
        return float(sum(s.get("value", 0.0) for s in families[name]["samples"]))

    return total("repro_batcher_requests_total"), total("repro_batcher_flushes_total")


async def _drive(ports: list[int], session: str, pool, reference, outcome: Outcome, rng,
                 seconds: float, spans_path: pathlib.Path | None, cfg: dict,
                 info: list[str], clock: HostClock) -> list[Load]:
    """Bursts and fixed-rate segments each take turns over the servers on
    ``ports``.  Returns one :class:`Load` per server."""
    from repro.service.client import AsyncServiceClient

    loads = []
    for port in ports:
        clients = [await AsyncServiceClient.connect("127.0.0.1", port, timeout=30.0)
                   for _ in range(CONNECTIONS)]
        loads.append(Load(clients, session, pool, reference, outcome))
    # The traced run repeats every fixed-rate segment right after it through
    # clients of the program's own that trace every request.
    traced_clients = [
        [await AsyncServiceClient.connect("127.0.0.1", port, timeout=30.0, trace_sample=1.0)
         for _ in range(CONNECTIONS)]
        for port in (ports if spans_path is not None else [])
    ]
    # The pacing thread must get the GIL back promptly when a request is
    # due, not after the default 5 ms switch interval, and no collector
    # pause may stall the generator mid-step.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    gc.collect()
    gc.disable()
    try:
        for each in loads:
            await each.burst(rng.permutation(len(pool)))  # warm-up, not measured
        # The bursts run before the fixed-rate step, not between its
        # segments: the first burst after an open-loop step ran up to 1.4x
        # slower than the rest while the server settled into batching again,
        # so the warm-up above takes that once.  They take turns over the
        # servers: in one interleaved run one server process answered bursts
        # 25% slower than another, for the whole run.
        bursts, segments, traced_segments = [], [], []
        for i in range(cfg["bursts"]):
            clock.probe()
            bursts.append(await loads[i % len(loads)].burst(
                rng.integers(0, len(pool), size=cfg["burst"])))
        requests = flushes = 0.0
        segment_s = FIXED_SHARE * seconds / FIXED_SEGMENTS
        for i in range(FIXED_SEGMENTS):
            load = loads[i % len(loads)]
            before = await _batcher_counts(load.clients[0])
            clock.probe()
            segments.append(await load.open_loop(rng, FIXED_RATE_QPS, segment_s))
            after = await _batcher_counts(load.clients[0])
            requests, flushes = requests + after[0] - before[0], flushes + after[1] - before[1]
            if traced_clients:
                clock.probe()
                traced_segments.append(await load.open_loop(
                    rng, FIXED_RATE_QPS, segment_s, traced_clients[i % len(loads)]))
        clock.probe()
        for segment in segments + traced_segments:
            segment["latencies_ref"] = [clock.scaled(*stamps) for stamps in segment["stamps"]]
        burst_walls = [clock.scaled(*stamps) for stamps in bursts]
        burst_s = median(burst_walls)
        fixed = _merge(segments)
        segment_p50s = [percentile(segment["latencies_ref"], 50.0) for segment in segments]
        info.append("burst reference seconds " + " ".join(f"{b:.3f}" for b in burst_walls)
                    + "; segment p50 ms " + " ".join(f"{1000 * p:.3f}" for p in segment_p50s))
        # The tail: the highest percentile with at least ten samples beyond it.
        tail_pct = np.floor(1000.0 * (1.0 - 10.0 / fixed["sent"])) / 10.0
        info.append(f"fixed rate {FIXED_RATE_QPS:g}/s: {fixed['sent']} requests, latency "
                    f"p50 {1000 * percentile(fixed['latencies_ref'], 50):.3f} ms, p{tail_pct:g} "
                    f"{1000 * percentile(fixed['latencies_ref'], tail_pct):.3f} ms; generator lag "
                    f"p50/p99 {1000 * percentile(fixed['lags'], 50):.3f}/"
                    f"{1000 * percentile(fixed['lags'], 99):.3f} ms")
        outcome.metrics.update({
            "time_to_solution_s": burst_s,
            "queries_per_s": cfg["burst"] / burst_s,
            "latency_p50_ms": 1000.0 * median(segment_p50s),
        })
        if traced_clients:
            client_spans = [span for group in traced_clients for client in group
                            for span in client.tracer.spans()
                            if span["name"] == "client.request"]
            server_spans = [await load.clients[0].traces() for load in loads]
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(
                json.dumps({"client": client_spans, "server": server_spans}) + "\n")
            batch_size = requests / max(flushes, 1.0)
            outcome.metrics.update(
                _layer_metrics(fixed, _merge(traced_segments), client_spans, batch_size))
            outcome.check(outcome.metrics["trace.coverage_pct"] >= MIN_COVERAGE_PCT,
                          f"the program's request spans cover "
                          f"{outcome.metrics['trace.coverage_pct']:.2f}% of the traced round "
                          f"trips (< {MIN_COVERAGE_PCT}%)", failed=0)
    finally:
        gc.enable()
        sys.setswitchinterval(switch_interval)
        for client in [c for group in [load.clients for load in loads] + traced_clients
                       for c in group]:
            await client.close()
    return loads


def _merge(steps: list[dict]) -> dict:
    """One open-loop result out of several consecutive ones."""
    return {key: sum((step[key] for step in steps), type(steps[0][key])())
            for key in steps[0]}


def _layer_metrics(fixed: dict, traced: dict, client_spans: list[dict],
                   batch_size: float) -> dict[str, float]:
    """Per-layer metrics of the fixed-rate step and its traced twin.

    The tracing overhead compares the two medians.  Coverage is the share
    of the traced round trips (send to answer, the generator's own lag
    excluded) that the program's client spans record; means, because each
    client's span ring keeps only its latest requests.
    """
    round_trip_ms = 1000.0 * (sum(traced["latencies"]) - sum(traced["lags"])) / traced["sent"]
    span_ms = float(np.mean([span["duration_ms"] for span in client_spans] or [0.0]))
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "serve.queue_wait_ms": median(fixed["queue_waits"]),
        "serve.flush_wait_ms": median(fixed["flush_waits"]),
        "serve.batch_size": batch_size,
        "serve.generator_lag_ms": 1000.0 * percentile(fixed["lags"], 99.0),
        "serve.sent": float(fixed["sent"]),
        "serve.failed": float(fixed["failed"]),
        "trace.overhead_pct": 100.0 * (median(traced["latencies_ref"])
                                       / median(fixed["latencies_ref"]) - 1.0),
        "trace.coverage_pct": 100.0 * span_ms / round_trip_ms,
    })
    return metrics


def _setup(root, workdir, index, cpu, session, support, values,
           coefficients) -> tuple[Server, tuple[float, float]]:
    """Spawn, wait for ``ping``, create and seed the session; returns the
    server and the stamps of the start and end of that."""
    from repro.service.client import ServiceClient

    start = time.perf_counter()
    server = Server(root, workdir, index, cpu)
    try:
        port = server.wait_ready()
        with ServiceClient("127.0.0.1", port, timeout=30.0) as client:
            client.ping()
            client.create_session(
                session,
                simulator=simulator_spec(coefficients),
                num_variables=NUM_VARIABLES, distance=DISTANCE, nn_min=NN_MIN,
                variogram=VARIOGRAM,
            )
            client.simulate_many(session, support.tolist(), values.tolist())
    except BaseException:
        server.stop()
        raise
    return server, (start, time.perf_counter())


def run_serve(seed: int, seconds: float, spans_path: pathlib.Path | None,
              scale: str) -> tuple[Outcome, list[str]]:
    from repro.core.estimator import KrigingEstimator
    from repro.core.models import variogram_from_state

    cfg = SCALES[scale]
    root = pathlib.Path(__file__).resolve().parents[1]
    workdir = root / ".krigbench" / "serve"
    support, values, pool, coefficients, rng = serve_inputs(seed, cfg)
    session = "bench"
    outcome = Outcome()
    info: list[str] = []

    # The in-process answer to every query, from the same session state.
    twin = KrigingEstimator(lambda config: float("nan"), NUM_VARIABLES, distance=DISTANCE,
                            nn_min=NN_MIN, variogram=variogram_from_state(VARIOGRAM))
    for point, value in zip(support, values):
        twin.record_measurement(point, value)
    reference = np.array([o.value for o in twin.evaluate_batch(pool)])
    truth = field_values(pool, coefficients)

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    servers: list[Server] = []
    affinity = os.sched_getaffinity(0)
    cpus = cpu_pair()
    try:
        if cpus is not None:
            os.sched_setaffinity(0, {cpus[0]})
        clock = HostClock(two_cpu_probe(cpus) if cpus is not None else probe_kernel)
        setups = []
        for index in range(SETUPS):
            clock.probe()
            server, stamps = _setup(root, workdir, index, cpus[1] if cpus else None, session,
                                    support, values, coefficients)
            servers.append(server)
            setups.append(stamps)
            if index < SETUPS - SERVERS:
                server.stop()
        clock.probe()
        setups = [clock.scaled(*stamps) for stamps in setups]
        info.append("set-up reference seconds " + " ".join(f"{t:.3f}" for t in setups))
        loads = asyncio.run(_drive([server.port for server in servers[-SERVERS:]], session,
                                   pool, reference, outcome, rng, seconds, spans_path, cfg,
                                   info, clock))
    finally:
        os.sched_setaffinity(0, affinity)
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    outcome.metrics.update({
        "setup_s": lower_quartile(setups),
        "estimator_over_simulate": NOT_APPLICABLE,
        "interpolated_pct": 100.0 * sum(load.interpolated for load in loads)
        / max(sum(load.answered for load in loads), 1),
        "mean_error": float(np.mean(np.abs(reference - truth))),
        "peak_rss_mb": peak_rss_mb(children=True),
    })
    return outcome, info
