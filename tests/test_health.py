"""Tests for the SLO/alert rules engine and the numerical-health probes.

Covers :mod:`repro.observability.health` end to end — selector
resolution over registry snapshots, the four rule kinds, the default
rule pack, JSON rule-pack loading, :class:`HealthMonitor` with
rate-of-change state, the ``health.*`` gauges published by traced
UMSC / anchor / sparse / streaming fits — and the ``repro health check`` CLI
including its CI exit-code contract (0 healthy / 1 critical / 2
unreadable input) with the fault-injected recovery-rate acceptance
path.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.core.anchor_model import AnchorMVSC
from repro.core.model import UnifiedMVSC
from repro.core.sparse_model import SparseMVSC
from repro.datasets.synth import make_multiview_blobs
from repro.exceptions import ValidationError
from repro.observability import Trace, use_trace
from repro.observability.health import (
    HealthMonitor,
    HealthRule,
    default_rule_pack,
    evaluate_rule,
    evaluate_rules,
    load_rules,
    resolve_metric,
    rules_to_dicts,
    weight_entropy,
)
from repro.observability.metrics import MetricsRegistry


def _snapshot(counters=None, gauges=None, histogram_values=None):
    """Build a real registry snapshot from plain dicts."""
    registry = MetricsRegistry()
    for name, value in (counters or {}).items():
        registry.counter(name).inc(value)
    for name, value in (gauges or {}).items():
        registry.gauge(name).set(value)
    for name, values in (histogram_values or {}).items():
        for v in values:
            registry.histogram(name).observe(v)
    return registry.snapshot()


class TestResolveMetric:
    def test_counter_gauge_and_missing(self):
        snap = _snapshot(counters={"a.b": 3}, gauges={"g": 1.5})
        assert resolve_metric(snap, "counter:a.b") == 3.0
        assert resolve_metric(snap, "gauge:g") == 1.5
        assert resolve_metric(snap, "counter:nope") is None
        assert resolve_metric(snap, "gauge:nope") is None

    def test_prefix_glob_sums_the_family(self):
        snap = _snapshot(
            counters={"act.x": 2, "act.y": 3, "other": 99}
        )
        assert resolve_metric(snap, "counter:act.*") == 5.0
        assert resolve_metric(snap, "counter:missing.*") is None

    def test_plus_joins_selector_sums(self):
        snap = _snapshot(counters={"a": 1, "b": 2})
        assert resolve_metric(snap, "counter:a+counter:b") == 3.0

    def test_histogram_stats(self):
        snap = _snapshot(histogram_values={"h": [0.1, 0.2, 0.3, 0.4]})
        assert resolve_metric(snap, "histogram:h:count") == 4.0
        assert resolve_metric(snap, "histogram:h:mean") == pytest.approx(0.25)
        p99 = resolve_metric(snap, "histogram:h:p99")
        assert p99 is not None and p99 >= 0.3

    def test_malformed_selector_raises(self):
        snap = _snapshot()
        with pytest.raises(ValidationError):
            resolve_metric(snap, "bogus:a")
        with pytest.raises(ValidationError):
            resolve_metric(snap, "counter")


class TestRuleValidation:
    def test_unknown_kind_and_severity_rejected(self):
        with pytest.raises(ValidationError):
            HealthRule(name="x", kind="nope", selector="counter:a")
        with pytest.raises(ValidationError):
            HealthRule(
                name="x",
                kind="threshold",
                selector="counter:a",
                max_value=1.0,
                severity="fatal",
            )

    def test_threshold_needs_a_bound_ratio_needs_denominator(self):
        with pytest.raises(ValidationError):
            HealthRule(name="x", kind="threshold", selector="counter:a")
        with pytest.raises(ValidationError):
            HealthRule(
                name="x", kind="ratio", selector="counter:a", max_value=1.0
            )


class TestEvaluation:
    def test_threshold_both_directions(self):
        snap = _snapshot(gauges={"g": 0.5})
        high = HealthRule(
            name="hi", kind="threshold", selector="gauge:g", max_value=0.4
        )
        low = HealthRule(
            name="lo", kind="threshold", selector="gauge:g", min_value=0.6
        )
        ok = HealthRule(
            name="ok",
            kind="threshold",
            selector="gauge:g",
            min_value=0.0,
            max_value=1.0,
        )
        assert evaluate_rule(high, snap).failing
        assert evaluate_rule(low, snap).failing
        assert evaluate_rule(ok, snap).status == "ok"

    def test_missing_metric_skips_not_fails(self):
        snap = _snapshot()
        rule = HealthRule(
            name="x", kind="threshold", selector="gauge:gone", max_value=1.0
        )
        res = evaluate_rule(rule, snap)
        assert res.status == "skipped"
        assert not res.failing

    def test_ratio_semantics(self):
        rule = HealthRule(
            name="rate",
            kind="ratio",
            selector="counter:bad",
            denominator="counter:all",
            max_value=0.1,
        )
        fired = evaluate_rule(rule, _snapshot(counters={"bad": 5, "all": 10}))
        assert fired.failing and fired.value == pytest.approx(0.5)
        # Missing numerator counts as zero when the denominator exists.
        clean = evaluate_rule(rule, _snapshot(counters={"all": 10}))
        assert clean.status == "ok" and clean.value == 0.0
        # Missing/zero denominator skips (no traffic, no verdict).
        assert evaluate_rule(rule, _snapshot()).status == "skipped"

    def test_absence_rule_fails_on_missing(self):
        rule = HealthRule(
            name="must-exist",
            kind="absence",
            selector="counter:beats",
            severity="critical",
        )
        assert evaluate_rule(rule, _snapshot()).failing
        res = evaluate_rule(rule, _snapshot(counters={"beats": 1}))
        assert res.status == "ok"

    def test_rate_of_change_needs_previous(self):
        rule = HealthRule(
            name="spike",
            kind="rate_of_change",
            selector="counter:errs",
            max_value=10.0,
        )
        now = _snapshot(counters={"errs": 100})
        # First sight: nothing to diff against -> skipped.
        assert evaluate_rule(rule, now).status == "skipped"
        prev = _snapshot(counters={"errs": 5})
        res = evaluate_rule(rule, now, previous=prev)
        assert res.failing and res.value == pytest.approx(95.0)

    def test_report_aggregation_and_severity(self):
        rules = [
            HealthRule(
                name="warn",
                kind="threshold",
                selector="gauge:g",
                max_value=0.0,
            ),
            HealthRule(
                name="crit",
                kind="threshold",
                selector="gauge:g",
                max_value=0.0,
                severity="critical",
            ),
        ]
        report = evaluate_rules(rules, _snapshot(gauges={"g": 1.0}))
        assert len(report.failing) == 2
        assert [r.rule.name for r in report.critical_failures] == ["crit"]
        assert not report.ok
        doc = report.to_dict()
        json.dumps(doc)
        assert doc["critical"] is True


class TestRulePack:
    def test_default_pack_names_and_severities(self):
        pack = default_rule_pack()
        names = [r.name for r in pack]
        assert names == [
            "recovery-rate",
            "service-rejection-rate",
            "serving-p99-latency",
            "drift-escalation-frequency",
            "weight-collapse",
            "eigengap-collapse",
        ]
        critical = {r.name for r in pack if r.severity == "critical"}
        assert critical == {"recovery-rate", "service-rejection-rate"}

    def test_load_rules_round_trip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps({"rules": rules_to_dicts(default_rule_pack())})
        )
        assert load_rules(path) == default_rule_pack()
        # A bare list is accepted too.
        path.write_text(json.dumps(rules_to_dicts(default_rule_pack())[:2]))
        assert len(load_rules(path)) == 2

    def test_load_rules_rejects_unknown_keys_and_empty(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "name": "x",
                        "kind": "threshold",
                        "selector": "gauge:g",
                        "max_value": 1.0,
                        "surprise": True,
                    }
                ]
            )
        )
        with pytest.raises(ValidationError):
            load_rules(path)
        path.write_text("[]")
        with pytest.raises(ValidationError):
            load_rules(path)


class TestHealthMonitor:
    def test_monitor_carries_previous_snapshot(self):
        registry = MetricsRegistry()
        rule = HealthRule(
            name="growth",
            kind="rate_of_change",
            selector="counter:n",
            max_value=5.0,
            severity="critical",
        )
        monitor = HealthMonitor(registry, rules=[rule])
        registry.counter("n").inc(1)
        assert monitor.check().ok  # first check has no previous
        registry.counter("n").inc(100)
        report = monitor.check()
        assert report.critical_failures
        registry.counter("n").inc(1)
        assert monitor.check().ok  # growth back under the cap


class TestWeightEntropy:
    def test_uniform_collapsed_and_degenerate(self):
        assert weight_entropy([0.5, 0.5]) == pytest.approx(1.0)
        assert weight_entropy([1.0, 0.0, 0.0]) == pytest.approx(0.0)
        assert weight_entropy([1.0]) == 1.0
        assert weight_entropy([]) == 1.0
        mid = weight_entropy([0.7, 0.2, 0.1])
        assert 0.0 < mid < 1.0


class TestNumericalHealthProbes:
    def _views(self):
        return make_multiview_blobs(60, 3, random_state=0)

    def test_traced_umsc_fit_publishes_health_gauges(self):
        data = self._views()
        trace = Trace("probe-test")
        with use_trace(trace):
            UnifiedMVSC(3, random_state=0, max_iter=3).fit(data.views)
        gauges = trace.metrics.snapshot()["gauges"]
        for name in (
            "health.eigengap",
            "health.weight_entropy",
            "health.rotation_residual",
        ):
            assert name in gauges, name
            assert math.isfinite(gauges[name])
        assert 0.0 <= gauges["health.weight_entropy"] <= 1.0

    def test_traced_anchor_fit_publishes_health_gauges(self):
        data = self._views()
        trace = Trace("probe-test-anchor")
        model = AnchorMVSC(
            3, n_anchors=12, random_state=0, max_iter=3, n_restarts=2
        )
        with use_trace(trace):
            model.fit_predict([v[:40] for v in data.views])
            model.partial_fit([v[40:] for v in data.views])
        gauges = trace.metrics.snapshot()["gauges"]
        for name in (
            "health.eigengap",
            "health.weight_entropy",
            "health.anchor_coverage",
        ):
            assert name in gauges, name
            assert math.isfinite(gauges[name])

    def test_traced_sparse_fit_publishes_health_gauges(self):
        data = self._views()
        trace = Trace("probe-test-sparse")
        with use_trace(trace):
            SparseMVSC(
                3, random_state=0, max_iter=3, n_restarts=2
            ).fit_predict(data.views)
        gauges = trace.metrics.snapshot()["gauges"]
        assert 0.0 <= gauges["health.weight_entropy"] <= 1.0

    @pytest.mark.parametrize(
        "solver", ["UnifiedMVSC", "AnchorMVSC", "SparseMVSC"]
    )
    def test_untraced_fit_is_bit_identical(self, solver, fit_solver):
        # UMSC keeps its default ten restarts.
        inputs = {"n_restarts": 10} if solver == "UnifiedMVSC" else {}
        plain = fit_solver(solver, **inputs)
        with use_trace(Trace("identity")):
            traced = fit_solver(solver, **inputs)
        np.testing.assert_array_equal(plain[0], traced[0])
        np.testing.assert_array_equal(plain[1], traced[1])
        assert [replace(e, block_seconds={}) for e in plain[2]] == [
            replace(e, block_seconds={}) for e in traced[2]
        ]


class TestHealthCli:
    def _write_trace(self, tmp_path, faulty):
        from repro.observability import JsonlSink
        from repro.robust import FailurePolicy, use_policy
        from repro.robust.faults import FaultSpec, inject_faults

        data = make_multiview_blobs(60, 3, random_state=0)
        path = tmp_path / ("faulty.jsonl" if faulty else "healthy.jsonl")
        trace = Trace("cli-test", sinks=(JsonlSink(str(path)),))
        with use_trace(trace):
            if faulty:
                with use_policy(FailurePolicy(max_retries=3)):
                    with inject_faults(
                        FaultSpec("eigen.dense", mode="raise", times=2)
                    ):
                        UnifiedMVSC(3, random_state=0, max_iter=3).fit(
                            data.views
                        )
            else:
                UnifiedMVSC(3, random_state=0, max_iter=3).fit(data.views)
        return path

    def test_from_trace_healthy_exits_zero(self, tmp_path):
        path = self._write_trace(tmp_path, faulty=False)
        out = io.StringIO()
        code = main(["health", "check", "--from-trace", str(path)], out=out)
        assert code == 0
        assert "— OK" in out.getvalue()

    @pytest.mark.faults
    def test_from_trace_fault_injected_exits_one(self, tmp_path):
        """Acceptance: recovery-rate fires critical on a fault-injected
        run and the CLI exits nonzero."""
        path = self._write_trace(tmp_path, faulty=True)
        out = io.StringIO()
        json_out = tmp_path / "health.json"
        code = main(
            [
                "health",
                "check",
                "--from-trace",
                str(path),
                "--json",
                str(json_out),
            ],
            out=out,
        )
        assert code == 1
        text = out.getvalue()
        assert "recovery-rate" in text and "— FAIL" in text
        doc = json.loads(json_out.read_text())
        assert doc["ok"] is False and doc["critical"] >= 1

    def test_strict_promotes_warnings(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                [
                    {
                        "name": "gap-floor",
                        "kind": "threshold",
                        "selector": "gauge:health.eigengap",
                        "min_value": 1e9,  # unreachable -> always fails
                    }
                ]
            )
        )
        path = self._write_trace(tmp_path, faulty=False)
        args = ["health", "check", "--from-trace", str(path), "--rules",
                str(rules)]
        assert main(args, out=io.StringIO()) == 0  # warning only
        assert main(args + ["--strict"], out=io.StringIO()) == 1

    def test_unreadable_inputs_exit_two(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["health", "check", "--from-trace", str(tmp_path / "no.jsonl")],
            out=out,
        )
        assert code == 2
        code = main(["health", "check"], out=io.StringIO())
        assert code == 2  # no metrics source at all

    def test_from_bench_evaluates_every_entry(self, tmp_path):
        from repro import bench as bench_mod

        report = bench_mod.run_benches(
            ["graph_build"], quick=True, repeats=1, tag="t", profile=False,
            memory=False,
        )
        path = tmp_path / "BENCH_t.json"
        bench_mod.write_report(report, str(path))
        out = io.StringIO()
        code = main(["health", "check", "--from-bench", str(path)], out=out)
        assert code == 0
        assert "bench:graph_build" in out.getvalue()
