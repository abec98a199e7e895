"""In-memory span recorder that times the program's layers from outside.

Nothing under ``src/`` is instrumented.  :class:`LayerTracer` replaces the
public functions each layer is made of -- the module attributes and class
methods the estimator actually calls -- with thin wrappers that record a
span (name, start, end, parent, request id) and restores the originals on
exit.  A layer whose function has been renamed or removed makes
:meth:`LayerTracer.install` raise :class:`MissingLayer`, so its time can
never fold silently into its caller.

Self time of a span is its duration minus the time its child spans cover;
a layer's time is the sum of its spans' self times.  The benchmark opens a
root span around each unit of work; the root's own self time is the part
of the unit no layer accounts for, which is what ``trace.coverage_pct``
measures.
"""

from __future__ import annotations

import contextlib
import functools
import json
import pathlib
import time
from dataclasses import dataclass, field

ROOT_SPAN = "unit"


class MissingLayer(RuntimeError):
    """A wrapped public function no longer exists under its expected name."""


@dataclass
class LayerTotals:
    """Self seconds and call counts per layer, plus result-derived counts."""

    seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    root_seconds: float = 0.0
    root_self_seconds: float = 0.0
    units: int = 0

    def coverage_pct(self) -> float:
        if self.root_seconds <= 0.0:
            return 0.0
        return 100.0 * (1.0 - self.root_self_seconds / self.root_seconds)


class LayerTracer:
    """Span recorder with wrappers over named public functions.

    ``targets`` is a list of ``(owner, attribute, layer, on_result)``:
    ``owner`` is a module or class, ``layer`` the name the span is
    recorded under, and ``on_result`` an optional ``(extra, result)``
    callback that derives counts from the wrapped call's return value.
    """

    def __init__(self, targets: list[tuple[object, str, str, object]]) -> None:
        self._targets = targets
        self._saved: list[tuple[object, str, object]] = []
        # Span rows: [name, start, end, parent index, request id].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._requests = 0
        self.enabled = False
        self.extra: dict[str, float] = {}

    # -- installation -------------------------------------------------
    def install(self) -> "LayerTracer":
        missing = [
            f"{owner.__name__}.{attr}"
            for owner, attr, _, _ in self._targets
            if not callable(vars(owner).get(attr))
        ]
        if missing:
            raise MissingLayer("wrapped public functions not found: " + ", ".join(missing))
        for owner, attr, layer, on_result in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, on_result))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap_callable(self, fn, layer: str):
        """A traced version of a callable the benchmark owns (the simulator)."""
        return self._wrap(fn, layer, None)

    def _wrap(self, fn, layer: str, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(tracer.extra, result)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._requests += 1
            request = self._requests
        else:
            request = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, request])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def unit(self):
        """One traced unit of work: the root span every layer span nests in."""
        self.enabled = True
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self.enabled = False

    def write(self, path: pathlib.Path) -> None:
        """Write the recorded spans out (one JSON row per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write('["name", "start", "end", "parent", "request"]\n')
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def totals(self) -> LayerTotals:
        """Fold the recorded spans into per-layer self times."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = LayerTotals(extra=dict(self.extra))
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            if name == ROOT_SPAN:
                out.units += 1
                out.root_seconds += end - start
                out.root_self_seconds += own
                continue
            out.seconds[name] = out.seconds.get(name, 0.0) + own
            out.calls[name] = out.calls.get(name, 0) + 1
        return out
