"""Benchmark of the kriging error-evaluation system, one workload per run.

Usage (from the root of a checkout)::

    python3 krigbench/run.py --workload {dse,sweep,grow,serve} --seed N \\
        --seconds S --trace {0,1}

The program is imported from ``src/`` next to this directory and driven
only through its public API; every input is generated from ``--seed``
before timing starts.  Standard output ends with one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) declared in ``common.py``, each as ``{"value", "unit"}``.
Lines before it are informational; a traced run also writes its spans
to ``.krigbench/<workload>-seed<seed>.jsonl``.  The exit code is 0 only when every
answer was checked correct and every check held: every unit did the same
work as the first, unit time did not drift over a long run, and in a
traced run layer coverage was at least 95%, every expected layer was
entered, and the carrying layer held a real share.

Workloads and their units of work
---------------------------------
``dse``    one min+1 word-length optimisation of the HEVC motion-compensation
           module (Nv = 23) through the kriging evaluator, paper settings.
``sweep``  one read-only clustered fractional sweep (2000 queries) over a
           2000-point support set with a fixed variogram, fresh estimator.
``grow``   a fresh estimator seeded with ~600 points, then six rounds of one
           32-query ``evaluate_batch`` plus one ``force_simulate`` beside it.
``serve``  spawned ``repro serve`` processes with one read-only session:
           closed-loop bursts of 750 ``evaluate`` requests, then open-loop
           Poisson arrivals at a fixed rate (see ``serve.py``).

End-to-end metric definitions
-----------------------------
Every time is in seconds at the reference host speed: wall-clock stamps
scaled by a probe kernel timed between the timed stretches of the run
(``common.HostClock``), because the host's speed shifts by up to 1.55x
for seconds at a time.  Medians are over the run's units.

``setup_s``              lower quartile of the run's timings of the one-time
                         program work before the first query (never input
                         generation): building the substrate and estimator
                         on ``dse``, building the estimator and ingesting the
                         support on ``sweep``/``grow``, and on ``serve``
                         spawning the server until it answers ``ping``,
                         creating the session and seeding it.
``time_to_solution_s``   time of one unit: the median over the run's units
                         (a burst on ``serve``, the one optimisation on
                         ``dse``).
``queries_per_s``        answers per second of unit time; on ``serve`` the
                         closed-loop capacity, never the offered rate.
``latency_p50_ms``       median time from a request to its answer.  On
                         ``serve`` a request is one ``evaluate`` at the fixed
                         offered rate, timed from its due time, and the value
                         is the median of four segments' medians; in
                         process it is one call into the program's API (the
                         sweep's ``evaluate_batch``, a ``grow`` round's
                         ``evaluate_batch``, each evaluator call on ``dse``).
``estimator_over_simulate`` estimator seconds over simulate seconds of the
                         ``dse`` optimisation: the paper's budget.  The other
                         workloads simulate nothing or microseconds' worth, so
                         there it is not applicable and reads 1 (not 0: a
                         metric's spread is taken relative to its median).
``interpolated_pct``     share of answers not simulated (the paper's p).
``mean_error``           mean absolute error in dB of interpolated answers
                         against the true value (re-simulated on ``dse``).
``success_pct``          correct answers over attempted answers.
``peak_rss_mb``          peak resident set of the program's process.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS = ROOT / ".krigbench"  # traced runs write their spans here
WORKLOADS = ("dse", "sweep", "grow", "serve")

# One BLAS/OpenMP thread, set before NumPy loads: two cores should measure
# the program, not thread scheduling.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS")
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'repro'} is missing\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"imported repro from {repro.__file__}, not from {SRC}\n")
        raise SystemExit(2)


def run(argv: list[str] | None = None) -> tuple[int, dict]:
    """Run one workload; returns the exit code and the result object."""
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    import_program()

    from common import END_TO_END, PER_LAYER, host_calibration
    from inproc import run_dse, run_grow, run_sweep
    from serve import run_serve

    workload = {"dse": run_dse, "sweep": run_sweep, "grow": run_grow,
                "serve": run_serve}[args.workload]
    calib_start = host_calibration()
    spans_path = SPANS / f"{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    outcome, info = workload(args.seed, args.seconds, spans_path, args.scale)
    calib_end = host_calibration()

    outcome.metrics["success_pct"] = outcome.success_pct()
    if args.trace:
        outcome.metrics["host.calib_s"] = (calib_start + calib_end) / 2.0
    declared = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(declared) - set(outcome.metrics))
    outcome.check(not missing, f"metrics not measured: {missing}", failed=0)
    info.append(f"host calibration {calib_start:.5f} s at start, {calib_end:.5f} s at end "
                "(raw wall seconds)")
    for line in info + outcome.problems:
        sys.stdout.write(f"# {line}\n")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return (0 if outcome.correct else 1), result


if __name__ == "__main__":
    raise SystemExit(run()[0])
