"""Tiny-scale smoke test of the benchmark.

Run from the root of the repository::

    python3 -m pytest -q krigbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from common import END_TO_END, PER_LAYER  # noqa: E402


def _run(workload: str, trace: int, seed: int = 3) -> tuple[int, dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, result = run.run(["--workload", workload, "--seed", str(seed),
                                "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"])
    text = out.getvalue()
    assert json.loads(text.strip().splitlines()[-1]) == result
    return code, result, text


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    code, result, _ = _run(workload, trace)
    assert code == 0 and result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        assert result["metrics"]["trace.coverage_pct"]["value"] >= 95.0


def test_planted_wrong_answer_fails_the_run(monkeypatch):
    from repro.core.estimator import KrigingEstimator

    original = KrigingEstimator.evaluate_batch

    def planted(self, configurations):
        outcomes = original(self, configurations)
        if self.factor_cache is not None:  # the measured estimator, not the reference twin
            first = outcomes[0]
            outcomes[0] = type(first)(first.value + 1e-3, first.interpolated, first.n_neighbors,
                                      first.variance, first.exact_hit)
        return outcomes

    monkeypatch.setattr(KrigingEstimator, "evaluate_batch", planted)
    code, result, text = _run("sweep", 0)
    assert code == 1 and not result["correct"]
    assert result["failed"] >= 1 and result["metrics"]["success_pct"]["value"] < 100.0
    assert "outside the 1e-9 envelope" in text


def test_renamed_layer_fails_the_traced_run(monkeypatch):
    from repro.core.factor_cache import FactorCache
    from tracing import MissingLayer

    monkeypatch.delattr(FactorCache, "factor_for")
    with pytest.raises(MissingLayer, match="factor_for"):
        _run("grow", 1)


def test_bypassed_layer_fails_the_traced_run(monkeypatch):
    import repro.core.estimator as estimator_module

    direct = estimator_module.find_neighbors

    def bypass(self, config):
        # The estimator's own call, made past the module attribute the
        # tracer wraps: neighbour search still runs but records no span.
        return direct(self.cache.points, config, self.distance, metric=self.metric,
                      max_neighbors=self._max_neighbors, index=self.neighbor_index)

    monkeypatch.setattr(estimator_module.KrigingEstimator, "_find_neighbors", bypass)
    code, result, text = _run("sweep", 1)
    assert code == 1 and not result["correct"]
    assert "layers never entered: ['neighbors']" in text


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
