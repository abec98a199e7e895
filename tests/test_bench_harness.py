"""Unit tests for the benchmark harness core (:mod:`repro.bench`).

The gate layer is exercised over synthetic report pairs in BOTH
directions — a planted regression must fail, and a healthy pair must not
false-alarm — for each gate species: plain ratchets, invariant flags and
cpu-guarded metrics.  The runner, spec, report, provenance, history and
registry layers get direct unit coverage.
"""

from __future__ import annotations

import copy
import json
import pathlib
import random

import pytest

from repro.bench.gates import (
    CLUSTER_MIN_CPUS,
    GATE_SETS,
    KNOWN_BENCHMARKS,
    compare,
    evaluate,
)
from repro.bench.history import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    history_entry,
    read_history,
)
from repro.bench.provenance import experiment_dir, write_experiment
from repro.bench.registry import REGISTRY, get, listing, listing_json
from repro.bench.report import (
    REPORT_SCHEMA_VERSION,
    finalize_report,
    hardware_stamp,
    strip_private,
)
from repro.bench.runner import (
    LatencyStats,
    SampleLog,
    best_of,
    latency_summary,
    measure,
    paced_arrivals,
)
from repro.bench.spec import FaultScheduleSpec, LoadSpec, WorkloadSpec


# ---------------------------------------------------------------------------
# synthetic reports
# ---------------------------------------------------------------------------
def _cluster_report(speedup=1.8, cpus=8, bitwise=True, lost=0):
    return {
        "benchmark": "cluster",
        "hardware": {"cpus": cpus, "machine": "test"},
        "scenarios": {
            "single_worker": {"seconds": 1.0, "qps": 500.0},
            "two_workers": {"seconds": 0.6, "qps": 500.0 * speedup},
        },
        "migration": {"bitwise_preserved": bitwise, "seconds": 0.01},
        "failover": {
            "sessions_lost": lost,
            "all_sessions_answer": True,
            "detected_in_s": 0.1,
        },
        "equivalence_ok": True,
        "speedup_cluster_vs_single": speedup,
    }


def _chaos_report(qps=500.0, cpus=8, invariants_ok=True, seeds=3):
    seed_rows = {}
    for i in range(seeds):
        seed = 101 * (i + 1)
        seed_rows[f"seed{seed}"] = {
            "seed": seed,
            "seconds": 2.0,
            "qps": qps,
            "served": int(qps * 2),
            "invariants": {
                "no_call_outlives_deadline": True,
                "failures_structured": invariants_ok,
                "no_session_lost": True,
                "reconverged": True,
                "made_progress": True,
            },
            "invariants_ok": invariants_ok,
        }
    return {
        "benchmark": "chaos",
        "hardware": {"cpus": cpus, "machine": "test"},
        "scenarios": seed_rows,
        "qps_under_chaos": qps,
        "acceptance": {"seeds_run": seeds, "all_invariants_ok": invariants_ok},
    }


class TestClusterGates:
    def test_healthy_pair_no_false_alarm(self):
        report = _cluster_report()
        assert compare(report, report, factor=2.0) == []

    def test_scaling_floor_fails_on_multicore(self):
        failures = compare(
            _cluster_report(speedup=1.8), _cluster_report(speedup=1.1), factor=2.0
        )
        assert any("speedup_cluster_vs_single" in f for f in failures)

    def test_scaling_not_gated_on_single_core(self, capsys):
        failures = compare(
            _cluster_report(speedup=1.8, cpus=8),
            _cluster_report(speedup=0.9, cpus=1),
            factor=2.0,
        )
        assert failures == []
        assert "not gated" in capsys.readouterr().out

    def test_single_core_baseline_does_not_ratchet(self):
        # Floor still applies, but baseline/factor is ignored when the
        # baseline itself ran on one core.
        failures = compare(
            _cluster_report(speedup=0.9, cpus=1),
            _cluster_report(speedup=1.6, cpus=8),
            factor=2.0,
        )
        assert failures == []

    def test_migration_bitwise_flag(self):
        failures = compare(
            _cluster_report(), _cluster_report(bitwise=False), factor=2.0
        )
        assert any("bitwise_preserved" in f for f in failures)

    def test_sessions_lost_gate(self):
        failures = compare(_cluster_report(), _cluster_report(lost=2), factor=2.0)
        assert any("sessions_lost" in f for f in failures)

    def test_min_cpus_constant_guards_the_floor(self):
        below = CLUSTER_MIN_CPUS - 1
        failures = compare(
            _cluster_report(cpus=below), _cluster_report(speedup=0.5, cpus=below),
            factor=2.0,
        )
        assert failures == []


class TestChaosGates:
    def test_healthy_pair_no_false_alarm(self):
        report = _chaos_report()
        assert compare(report, report, factor=2.0) == []

    def test_invariant_violation_fails_everywhere(self):
        # Robustness invariants gate even on a single core.
        failures = compare(
            _chaos_report(cpus=1), _chaos_report(cpus=1, invariants_ok=False),
            factor=2.0,
        )
        assert any("invariants" in f for f in failures)

    def test_qps_gated_only_when_both_multicore(self, capsys):
        failures = compare(
            _chaos_report(qps=500.0, cpus=8), _chaos_report(qps=100.0, cpus=1),
            factor=2.0,
        )
        assert failures == []
        assert "not gated" in capsys.readouterr().out
        failures = compare(
            _chaos_report(qps=500.0, cpus=8), _chaos_report(qps=100.0, cpus=8),
            factor=2.0,
        )
        assert any("qps_under_chaos" in f for f in failures)

    def test_seed_coverage_cannot_shrink(self):
        failures = compare(_chaos_report(seeds=3), _chaos_report(seeds=1), factor=2.0)
        assert any("seeds_run" in f for f in failures)

    def test_empty_scenarios_fail(self):
        current = _chaos_report()
        current["scenarios"] = {}
        failures = compare(_chaos_report(), current, factor=2.0)
        assert any("no per-seed drills" in f for f in failures)


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _committed_baselines():
    return [
        (row["kind"], json.loads((REPO_ROOT / row["baseline"]).read_text()))
        for row in listing(gated_only=True)
    ]


class TestAcceptanceGate:
    def test_synthetic_failing_report_fails(self):
        baseline = _cluster_report()
        current = _cluster_report()
        current["acceptance"] = {"passed": False}
        failures = compare(baseline, current, factor=2.0)
        assert failures == ["acceptance.passed: false in the current report"]

    def test_every_kind_gates_acceptance(self):
        for kind, baseline in _committed_baselines():
            current = copy.deepcopy(baseline)
            current["acceptance"]["passed"] = False
            failures = compare(baseline, current, factor=2.0)
            assert "acceptance.passed: false in the current report" in failures, kind

    def test_committed_baselines_pass(self):
        for kind, baseline in _committed_baselines():
            assert baseline["acceptance"]["passed"] is True, kind
            assert compare(baseline, baseline, factor=2.0) == [], kind


class TestGateEvaluate:
    def test_every_known_benchmark_has_a_gate_set(self):
        for kind in KNOWN_BENCHMARKS:
            assert kind in GATE_SETS

    def test_evaluate_returns_notes_and_failures(self):
        result = evaluate(
            _cluster_report(cpus=8), _cluster_report(speedup=0.9, cpus=1), factor=2.0
        )
        assert result.failures == []
        assert any("not gated" in note for note in result.notes)


class TestHistorySchema:
    def test_entry_stamped_with_schema_version_and_seed(self):
        report = finalize_report("cluster", _cluster_report(), seed=7)
        entry = history_entry(report, commit="abc")
        assert entry["schema_version"] == HISTORY_SCHEMA_VERSION
        assert entry["seed"] == 7

    def test_read_history_upgrades_legacy_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        legacy = {"benchmark": "query_engine", "absolute_seconds": {"a": 1.0}}
        path.write_text(json.dumps(legacy) + "\n")
        append_history(path, finalize_report("cluster", _cluster_report(), seed=3))
        entries = list(read_history(path))
        assert entries[0]["schema_version"] == 1
        assert entries[0]["seed"] is None
        assert entries[1]["schema_version"] == HISTORY_SCHEMA_VERSION
        assert entries[1]["seed"] == 3

    def test_read_history_reports_bad_line(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"ok": 1}\n{nope\n')
        with pytest.raises(json.JSONDecodeError, match=r"history\.jsonl:2:"):
            list(read_history(path))


class TestReport:
    def test_finalize_stamps_schema_and_provenance(self):
        report = finalize_report("cluster", _cluster_report(cpus=2), seed=(1, 2))
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["seed"] == [1, 2]
        assert report["benchmark"] == "cluster"
        # The body's own cpu count is authoritative; the stamp fills the rest.
        assert report["hardware"]["cpus"] == 2
        assert report["hardware"]["python"]
        assert report["provenance"]["timestamp"].endswith("Z")
        assert report["provenance"]["harness"] == "repro.bench/2"

    def test_hardware_stamp_fields(self):
        stamp = hardware_stamp()
        assert stamp["cpus"] >= 1
        assert stamp["python"]

    def test_strip_private_removes_underscore_keys(self):
        body = {"a": 1, "_raw": [1, 2], "nested": {"_x": 0, "y": [{"_z": 1, "k": 2}]}}
        assert strip_private(body) == {"a": 1, "nested": {"y": [{"k": 2}]}}


class TestRunner:
    def test_measure_returns_best_and_result(self):
        seconds, value = measure(lambda: 42, repetitions=3)
        assert value == 42
        assert seconds >= 0.0

    def test_best_of_picks_minimum_key(self):
        calls = iter([3.0, 1.0, 2.0])
        row = best_of(3, lambda: {"seconds": next(calls)})
        assert row["seconds"] == 1.0

    def test_latency_stats_summary(self):
        stats = LatencyStats()
        for ms in range(1, 101):
            stats.update(ms / 1000.0)
        summary = stats.summary()
        assert summary["p50"] == pytest.approx(50.0, rel=0.1)
        assert summary["jitter"] == pytest.approx(summary["p99"] - summary["p50"])
        assert summary["max"] == pytest.approx(100.0)
        assert LatencyStats().summary() == {}

    def test_latency_summary_one_shot(self):
        summary = latency_summary([0.001, 0.002, 0.003])
        assert summary["mean"] == pytest.approx(2.0)

    def test_paced_arrivals_schedule(self):
        times = list(paced_arrivals(100.0, n_arrivals=5))
        assert times == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])
        by_duration = list(paced_arrivals(10.0, duration_s=0.35))
        assert len(by_duration) == 4
        with pytest.raises(ValueError):
            list(paced_arrivals(10.0))

    def test_sample_log_records_and_times(self):
        log = SampleLog()
        log.record(0.5, label="a")
        with log.time(label="b"):
            pass
        rows = log.rows()
        assert [row["label"] for row in rows] == ["a", "b"]
        assert log.durations("a") == [0.5]
        assert all(row["t"] >= 0.0 for row in rows)


class TestSpec:
    def test_load_spec_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(mode="bursty")
        with pytest.raises(ValueError):
            LoadSpec(mode="open")  # open-loop needs a rate
        assert LoadSpec(mode="open", rate_hz=10.0).rate_hz == 10.0

    def test_fault_schedule_draw_order_is_deterministic(self):
        schedule = FaultScheduleSpec(n_events=4, kinds=("reset", "blackhole"))
        a = [schedule.draw_event(random.Random(7), [0, 1, 2]) for _ in range(4)]
        b = [schedule.draw_event(random.Random(7), [0, 1, 2]) for _ in range(4)]
        assert a == b
        victim, kind, duration, gap = a[0]
        assert victim in (0, 1, 2)
        assert kind in ("reset", "blackhole")
        assert 0.25 <= duration <= 0.7
        assert 0.15 <= gap <= 0.4

    def test_quick_resolve_merges_overrides(self):
        spec = WorkloadSpec(
            name="x",
            kind="k",
            repetitions=3,
            params={"n": 100, "m": 5},
            quick={"n": 10, "repetitions": 1},
        )
        quick = spec.resolve(quick=True)
        assert quick.repetitions == 1
        assert quick.params == {"n": 10, "m": 5}
        assert spec.resolve(quick=False) is spec

    def test_to_config_is_json_safe(self):
        spec = WorkloadSpec(
            name="x",
            kind="k",
            seed=(1, 2),
            load=LoadSpec(mode="open", rate_hz=40.0),
            faults=FaultScheduleSpec(n_events=2, kinds=("reset",)),
        )
        config = spec.to_config()
        json.dumps(config)  # must not raise
        assert config["seed"] == [1, 2]
        assert config["load"]["mode"] == "open"
        assert config["faults"]["n_events"] == 2


class TestProvenance:
    def test_experiment_dir_dates_and_collides(self, tmp_path):
        first = experiment_dir(tmp_path, "service", date="2026-08-08")
        assert first.name == "service-2026-08-08"
        assert first.is_dir()
        second = experiment_dir(tmp_path, "service", date="2026-08-08")
        assert second.name == "service-2026-08-08-2"

    def test_write_experiment_layout(self, tmp_path):
        directory = tmp_path / "run-2026-08-08"
        report = finalize_report("cluster", _cluster_report(), seed=0)
        write_experiment(
            directory,
            report=report,
            config={"name": "cluster"},
            samples=[{"label": "a", "seconds": 0.1}],
        )
        assert json.loads((directory / "report.json").read_text())["benchmark"] == "cluster"
        assert json.loads((directory / "config.json").read_text())["name"] == "cluster"
        (line,) = (directory / "samples.jsonl").read_text().splitlines()
        assert json.loads(line)["label"] == "a"
        readme = (directory / "README.md").read_text()
        assert "check_regression" in readme
        # No slow traces captured: the file is not written at all.
        assert not (directory / "slow_traces.json").exists()

    def test_write_experiment_slow_traces(self, tmp_path):
        directory = tmp_path / "run-2026-08-08"
        trace = {
            "trace_id": "ab" * 16,
            "root": "server.dispatch",
            "duration_ms": 312.5,
            "threshold_ms": 250.0,
            "spans": [{"name": "server.dispatch"}],
        }
        write_experiment(
            directory,
            report=finalize_report("cluster", _cluster_report(), seed=0),
            config={"name": "cluster"},
            slow_traces=[trace],
        )
        (written,) = json.loads((directory / "slow_traces.json").read_text())
        assert written == trace
        assert "slow_traces.json" in (directory / "README.md").read_text()


class TestRegistry:
    def test_gated_subset_matches_known_benchmarks(self):
        gated = listing(gated_only=True)
        assert sorted(row["kind"] for row in gated) == sorted(KNOWN_BENCHMARKS)
        assert all(row["baseline"] for row in gated)

    def test_listing_json_single_line(self):
        payload = listing_json(gated_only=True)
        assert "\n" not in payload
        assert json.loads(payload)[0]["gated"] is True

    def test_unknown_name_is_helpful(self):
        with pytest.raises(KeyError, match="known:"):
            get("nope")

    def test_every_entry_has_a_spec(self):
        for name, definition in REGISTRY.items():
            spec = definition.load().get_spec(name)
            assert spec.kind
            json.dumps(spec.to_config())


class TestBenchCli:
    def test_list_gated_prints_matrix_payload(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list", "--gated"]) == 0
        payload = capsys.readouterr().out.strip()
        rows = json.loads(payload)
        assert {row["name"] for row in rows} == {
            "query-engine", "solve", "service", "cluster", "chaos"
        }

    def test_unknown_benchmark_errors(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", "definitely-not-a-bench"])
        assert exc.value.code == 2
        assert "known:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve gates (stacked solve path, warm restore)
# ---------------------------------------------------------------------------
def _solve_report(stacked_speedup=1.5, warm_speedup=5.0, warm_fresh=0, cpus=8):
    return {
        "benchmark": "solve",
        "hardware": {"cpus": cpus, "machine": "test"},
        "stacked": {
            "n_groups": 120,
            "speedup_stacked_vs_pergroup": stacked_speedup,
            "bitwise_equal": True,
        },
        "warm_restore": {
            "speedup_warm_vs_cold": warm_speedup,
            "warm_fresh_factorizations": warm_fresh,
            "cold_fresh_factorizations": 10,
        },
    }


class TestSolveGates:
    def test_healthy_pair_no_false_alarm(self):
        report = _solve_report()
        assert compare(report, report, factor=2.0) == []

    def test_stacked_floor_fails_on_multicore(self):
        failures = compare(
            _solve_report(), _solve_report(stacked_speedup=0.9), factor=2.0
        )
        assert any("stacked.speedup_stacked_vs_pergroup" in f for f in failures)

    def test_ratios_not_gated_on_single_core(self, capsys):
        failures = compare(
            _solve_report(),
            _solve_report(stacked_speedup=0.7, cpus=1),
            factor=2.0,
        )
        assert failures == []
        assert "not gated" in capsys.readouterr().out

    def test_warm_refactorization_fails_on_any_hardware(self):
        failures = compare(
            _solve_report(), _solve_report(warm_fresh=3, cpus=1), factor=2.0
        )
        assert any("warm_fresh_factorizations" in f for f in failures)

    def test_warm_speedup_ratchets(self):
        failures = compare(
            _solve_report(warm_speedup=6.0), _solve_report(warm_speedup=1.5),
            factor=2.0,
        )
        assert any("speedup_warm_vs_cold" in f for f in failures)

    def test_query_engine_report_carries_solve_ratios(self):
        """The reduced-scale stacked section embedded in the query-engine
        report gates through the same guarded spec."""
        from repro.bench.gates import GATE_SETS, GuardedRatchetGate

        sections = {
            gate.section
            for gate in GATE_SETS["query_engine"]
            if isinstance(gate, GuardedRatchetGate)
        }
        assert "stacked" in sections
