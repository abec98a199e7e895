"""CI gate: compare a fresh benchmark run against its committed baseline (shim).

The gate logic now lives in the harness as declarative per-metric specs —
:mod:`repro.bench.gates` — and the history writer in
:mod:`repro.bench.history`; this script keeps the historical CLI working::

    python benchmarks/bench_query_engine.py --quick --output current.json
    python benchmarks/check_regression.py BENCH_query_engine.json current.json \
        --history BENCH_history.jsonl --commit "$GITHUB_SHA"

Exit status 0 when every tracked ratio holds up, 1 on regression, 2 on a
malformed report.  Absolute seconds are machine-dependent, so the gate
compares the *speedup ratios* each benchmark computes on the same box; a
run regresses when any tracked ratio falls below ``baseline / factor``
(default factor 2: "fail on >2x regression"), and fails outright when its
own ``acceptance.passed`` is false.
"""

from __future__ import annotations

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

try:
    import repro.bench  # noqa: F401
except ImportError:  # running from a checkout without an editable install
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.gates import (  # noqa: E402,F401
    CLUSTER_MIN_CPUS,
    CLUSTER_SPEEDUP_FLOOR,
    GATE_SETS,
    KNOWN_BENCHMARKS,
    MalformedReport,
    compare,
    evaluate,
    main,
)
from repro.bench.history import (  # noqa: E402,F401
    HISTORY_SCHEMA_VERSION,
    append_history,
    history_entry,
    read_history,
)

if __name__ == "__main__":
    raise SystemExit(main())
