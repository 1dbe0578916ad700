"""Streaming subsystem: fold-in, drift detection, stream generation, serving adapt."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from io import StringIO

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.anchor_model import AnchorMVSC
from repro.core.config import StreamingConfig, UMSCConfig
from repro.datasets.scenarios import (
    StreamDrift,
    get_scenario,
    stream_batches,
)
from repro.exceptions import ValidationError
from repro.metrics import adjusted_rand_index
from repro.observability import Trace, use_trace
from repro.robust import FaultSpec, collect_recoveries, inject_faults
from repro.serving import ModelArtifact, Predictor
from repro.streaming import (
    BatchStats,
    DriftDecision,
    DriftDetector,
    ObjectiveShiftDetector,
    StreamingMVSC,
    ViewWeightShiftDetector,
    worst_decision,
)

#: The deterministic drifted stream the integration tests share: the
#: shift batch is a documented contract (the detector must fire there,
#: and only there).
SHIFT_BATCH = 5


def _drifted_stream(n_batches=8, batch_size=150, seed=0):
    """The shared test stream; short streams simply end before the shift."""
    scenario = get_scenario("confused_pairs").with_size(batch_size)
    drift = (
        StreamDrift(at_batch=SHIFT_BATCH, mean_shift=4.0, imbalance=5.0)
        if SHIFT_BATCH < n_batches
        else None
    )
    return scenario, stream_batches(
        scenario, n_batches, drift=drift, random_state=seed
    )


def _stats(index=1, objective=1.0, batch_cost=1.0, weights=(0.5, 0.5)):
    return BatchStats(
        batch_index=index,
        n_new=50,
        n_total=50 * (index + 1),
        objective=objective,
        batch_cost=batch_cost,
        view_weights=tuple(weights),
    )


class TestStreamBatches:
    def test_deterministic(self):
        scenario = get_scenario("confused_pairs").with_size(60)
        a = stream_batches(scenario, 3, random_state=1)
        b = stream_batches(scenario, 3, random_state=1)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.labels, bb.labels)
            for va, vb in zip(ba.views, bb.views):
                np.testing.assert_array_equal(va, vb)

    def test_shapes_and_flags(self):
        scenario = get_scenario("confused_pairs").with_size(60)
        drift = StreamDrift(at_batch=2, mean_shift=2.0)
        batches = stream_batches(scenario, 4, drift=drift, random_state=0)
        assert [b.index for b in batches] == [0, 1, 2, 3]
        assert [b.drifted for b in batches] == [False, False, True, True]
        for b in batches:
            assert b.n_samples == 60
            assert len(b.views) == scenario.n_views
            assert all(v.shape[0] == 60 for v in b.views)
            assert b.labels.shape == (60,)

    def test_disabling_drift_keeps_predrift_batches_bit_identical(self):
        scenario = get_scenario("confused_pairs").with_size(60)
        drift = StreamDrift(at_batch=2, mean_shift=3.0)
        with_drift = stream_batches(scenario, 4, drift=drift, random_state=0)
        without = stream_batches(scenario, 4, random_state=0)
        for i in range(2):
            for va, vb in zip(with_drift[i].views, without[i].views):
                np.testing.assert_array_equal(va, vb)
        assert any(
            not np.array_equal(va, vb)
            for va, vb in zip(with_drift[2].views, without[2].views)
        )

    def test_imbalance_drift_changes_label_histogram(self):
        scenario = get_scenario("confused_pairs").with_size(120)
        drift = StreamDrift(at_batch=1, mean_shift=0.0, imbalance=6.0)
        batches = stream_batches(scenario, 2, drift=drift, random_state=0)
        before = np.bincount(batches[0].labels, minlength=scenario.n_clusters)
        after = np.bincount(batches[1].labels, minlength=scenario.n_clusters)
        assert np.ptp(before) < np.ptp(after)

    def test_rejects_unstreamable_scenarios(self):
        with pytest.raises(ValidationError, match="stream"):
            stream_batches("missing_views", 3)

    def test_validates_drift_and_counts(self):
        scenario = get_scenario("confused_pairs").with_size(60)
        with pytest.raises(ValidationError):
            stream_batches(scenario, 0)
        with pytest.raises(ValidationError, match="at_batch"):
            stream_batches(
                scenario, 3, drift=StreamDrift(at_batch=3, mean_shift=1.0)
            )
        with pytest.raises(ValidationError):
            StreamDrift(at_batch=0, mean_shift=1.0)
        with pytest.raises(ValidationError):
            StreamDrift(at_batch=1, mean_shift=-1.0)
        with pytest.raises(ValidationError):
            StreamDrift(at_batch=1, imbalance=0.5)


class TestPartialFit:
    def test_first_call_equals_fit_predict(self):
        _, batches = _drifted_stream(n_batches=1, batch_size=80)
        a = AnchorMVSC(4, random_state=0).fit_predict(batches[0].views)
        model = AnchorMVSC(4, random_state=0)
        b = model.partial_fit(batches[0].views)
        np.testing.assert_array_equal(a, b)

    def test_determinism_across_replays(self):
        _, batches = _drifted_stream(n_batches=3, batch_size=80)

        def replay():
            model = AnchorMVSC(4, random_state=0)
            for batch in batches:
                labels = model.partial_fit(batch.views)
            return labels

        np.testing.assert_array_equal(replay(), replay())

    def test_fold_in_tracks_full_fit(self):
        scenario, batches = _drifted_stream(n_batches=3, batch_size=100)
        truth = np.concatenate([b.labels for b in batches])
        model = AnchorMVSC(scenario.n_clusters, random_state=0)
        for batch in batches:
            stream_labels = model.partial_fit(batch.views)
        union = [
            np.vstack([b.views[v] for b in batches])
            for v in range(scenario.n_views)
        ]
        full_labels = AnchorMVSC(
            scenario.n_clusters, random_state=0
        ).fit_predict(union)
        ari_stream = adjusted_rand_index(truth, stream_labels)
        ari_full = adjusted_rand_index(truth, full_labels)
        # Documented tolerance: the cheap fold-in may trail a cold fit
        # on the union by at most 0.1 ARI on this stationary prefix.
        assert ari_stream >= ari_full - 0.1

    def test_state_grows_and_labels_cover_stream(self):
        _, batches = _drifted_stream(n_batches=2, batch_size=60)
        model = AnchorMVSC(4, random_state=0)
        model.partial_fit(batches[0].views)
        assert model.n_seen_ == 60
        labels = model.partial_fit(batches[1].views)
        assert model.n_seen_ == 120
        assert labels.shape == (120,)
        assert model.labels_.shape == (120,)

    def test_partial_refit_and_refit(self):
        _, batches = _drifted_stream(n_batches=2, batch_size=60)
        model = AnchorMVSC(4, random_state=0)
        for batch in batches:
            model.partial_fit(batch.views)
        partial = model.partial_refit()
        assert partial.shape == (120,)
        full = model.refit()
        assert full.shape == (120,)
        # A full refit re-selects anchors on everything seen, so it must
        # agree with a cold fit on the union bit-for-bit.
        union = [
            np.vstack([b.views[v] for b in batches]) for v in range(3)
        ]
        cold = AnchorMVSC(4, random_state=0)
        # refit() reuses the model's own rng state, so compare structure
        # rather than bits: same partition quality on the union.
        assert adjusted_rand_index(cold.fit_predict(union), full) > 0.4

    def test_one_eigensolve_per_fold_in_iteration(self):
        _, batches = _drifted_stream(n_batches=2, batch_size=80)
        model = AnchorMVSC(4, random_state=0)
        with use_trace(Trace("cold")) as cold:
            model.partial_fit(batches[0].views)
        # The cold start's full-spectrum F-step is not an eigsh solve.
        assert cold.metrics.counter("eigsh.calls").value == model.n_iter_ - 1
        with use_trace(Trace("fold-in")) as trace:
            model.partial_fit(batches[1].views)
        # The first refine iteration reuses the fold-in's embedding.
        assert model.n_iter_ >= 2
        assert trace.metrics.counter("eigsh.calls").value == model.n_iter_

    def test_fold_in_recovers_from_a_dense_eigensolve_fault(self):
        _, batches = _drifted_stream(n_batches=2, batch_size=80)

        def fold_in(faults):
            model = AnchorMVSC(4, random_state=0)
            model.partial_fit(batches[0].views)
            with faults, collect_recoveries() as events:
                labels = model.partial_fit(batches[1].views)
            return labels, events

        clean, none = fold_in(inject_faults())
        faulted, events = fold_in(
            inject_faults(FaultSpec("eigen.dense", times=1))
        )
        assert none == []
        assert [(e.site, e.strategy) for e in events] == [
            ("eigen.dense", "retry")
        ]
        np.testing.assert_array_equal(faulted, clean)

    def test_validation(self):
        model = AnchorMVSC(4, random_state=0)
        with pytest.raises(ValidationError):
            model.partial_refit()
        with pytest.raises(ValidationError):
            model.refit()
        _, batches = _drifted_stream(n_batches=2, batch_size=60)
        model.partial_fit(batches[0].views)
        with pytest.raises(ValidationError):
            model.partial_fit(batches[1].views, refine_iters=0)
        with pytest.raises(ValidationError):
            model.partial_fit(batches[1].views[:2])
        bad = [v[:, :-1] for v in batches[1].views]
        with pytest.raises(ValidationError):
            model.partial_fit(bad)


class TestDriftDetectors:
    def test_protocol(self):
        assert isinstance(ObjectiveShiftDetector(), DriftDetector)
        assert isinstance(ViewWeightShiftDetector(), DriftDetector)

    def test_objective_seeds_then_fires_on_shift(self):
        det = ObjectiveShiftDetector(threshold=0.25, cooldown=0)
        assert det.update(_stats(batch_cost=1.0)).action == "fold_in"
        assert det.update(_stats(batch_cost=1.01)).action == "fold_in"
        decision = det.update(_stats(batch_cost=1.4))
        assert decision.action == "partial_refit"
        assert decision.severity > 0.25

    def test_objective_full_refit_above_twice_threshold(self):
        det = ObjectiveShiftDetector(threshold=0.25, cooldown=0)
        det.update(_stats(batch_cost=1.0))
        assert det.update(_stats(batch_cost=3.0)).action == "full_refit"

    def test_quiet_on_stationary(self):
        det = ObjectiveShiftDetector(threshold=0.25)
        rng = np.random.default_rng(0)
        for i in range(20):
            value = 1.0 + 0.02 * rng.standard_normal()
            assert det.update(_stats(index=i, batch_cost=value)).action == (
                "fold_in"
            )

    def test_cooldown_and_hysteresis(self):
        det = ObjectiveShiftDetector(
            threshold=0.25, cooldown=2, hysteresis=0.5
        )
        det.update(_stats(batch_cost=1.0))
        assert det.update(_stats(batch_cost=1.5)).action == "partial_refit"
        # Cooldown: two quiet batches even though severity stays high.
        assert det.update(_stats(batch_cost=1.5)).action == "fold_in"
        assert det.update(_stats(batch_cost=1.5)).action == "fold_in"
        # Past cooldown the alarm is still latched (severity above
        # hysteresis * threshold), so it must not re-fire.
        assert det.update(_stats(batch_cost=1.5)).action == "fold_in"
        # Severity collapses below the re-arm level -> alarm clears ...
        assert det.update(_stats(batch_cost=1.02)).action == "fold_in"
        # ... and a fresh shift fires again.
        assert det.update(_stats(batch_cost=1.5)).action == "partial_refit"

    def test_notify_refit_reseeds_baseline(self):
        det = ObjectiveShiftDetector(threshold=0.25, cooldown=0)
        det.update(_stats(batch_cost=1.0))
        det.update(_stats(batch_cost=1.5))
        det.notify_refit()
        # Post-refit regime becomes the new baseline: 1.5 is now normal.
        assert det.update(_stats(batch_cost=1.5)).action == "fold_in"
        assert det.update(_stats(batch_cost=1.55)).action == "fold_in"

    def test_weight_detector_fires_on_weight_flip(self):
        det = ViewWeightShiftDetector(threshold=0.15, cooldown=0)
        assert det.update(_stats(weights=(0.8, 0.2))).action == "fold_in"
        assert det.update(_stats(weights=(0.79, 0.21))).action == "fold_in"
        decision = det.update(_stats(weights=(0.2, 0.8)))
        assert decision.action == "full_refit"
        assert decision.severity == pytest.approx(0.6)

    def test_disabled_detector_never_fires(self):
        det = ObjectiveShiftDetector(threshold=0.0)
        det.update(_stats(batch_cost=1.0))
        assert det.update(_stats(batch_cost=100.0)).action == "fold_in"

    def test_worst_decision_orders_by_rank_then_severity(self):
        fold = DriftDecision("fold_in", 0.9)
        partial = DriftDecision("partial_refit", 0.3)
        full = DriftDecision("full_refit", 0.1)
        assert worst_decision([fold, partial]).action == "partial_refit"
        assert worst_decision([partial, full]).action == "full_refit"
        assert worst_decision([]).action == "fold_in"

    def test_decision_validates_action(self):
        with pytest.raises(ValidationError):
            DriftDecision("retrain_everything")


class TestStreamingMVSC:
    def test_fires_exactly_at_injected_shift(self):
        scenario, batches = _drifted_stream()
        streamer = StreamingMVSC(
            AnchorMVSC(scenario.n_clusters, random_state=0)
        )
        for batch in batches:
            streamer.partial_fit(batch.views)
        actions = [r.action for r in streamer.history]
        assert actions[0] == "fit"
        assert actions[SHIFT_BATCH] in ("partial_refit", "full_refit")
        for i, action in enumerate(actions[1:], start=1):
            if i != SHIFT_BATCH:
                assert action == "fold_in", f"unexpected {action} at {i}"
        assert {e.batch_index for e in streamer.events} == {SHIFT_BATCH}

    def test_stationary_stream_stays_on_fold_in(self):
        scenario = get_scenario("confused_pairs").with_size(100)
        batches = stream_batches(scenario, 5, random_state=0)
        streamer = StreamingMVSC(
            AnchorMVSC(scenario.n_clusters, random_state=0)
        )
        for batch in batches:
            streamer.partial_fit(batch.views)
        assert [r.action for r in streamer.history][1:] == ["fold_in"] * 4
        assert streamer.events == []

    def test_detectors_off(self):
        scenario, batches = _drifted_stream(n_batches=6, batch_size=80)
        streamer = StreamingMVSC(
            AnchorMVSC(scenario.n_clusters, random_state=0), detectors=()
        )
        for batch in batches:
            streamer.partial_fit(batch.views)
        assert [r.action for r in streamer.history][1:] == ["fold_in"] * 5

    def test_records_are_json_ready(self):
        scenario, batches = _drifted_stream(n_batches=2, batch_size=60)
        streamer = StreamingMVSC(
            AnchorMVSC(scenario.n_clusters, random_state=0)
        )
        for batch in batches:
            streamer.partial_fit(batch.views)
        payload = json.dumps([r.to_dict() for r in streamer.history])
        rows = json.loads(payload)
        assert rows[0]["action"] == "fit"
        assert rows[1]["n_total"] == 120

    def test_from_config(self):
        config = UMSCConfig(n_clusters=4, gamma=3.0, max_iter=7)
        streamer = StreamingMVSC.from_config(
            config,
            streaming=StreamingConfig(refine_iters=3),
            random_state=0,
        )
        assert streamer.model.n_clusters == 4
        assert streamer.model.gamma == 3.0
        assert streamer.model.max_iter == 7
        assert streamer.config.refine_iters == 3
        with pytest.raises(ValidationError):
            StreamingMVSC.from_config(object())

    def test_rejects_non_anchor_model(self):
        with pytest.raises(ValidationError):
            StreamingMVSC(object())

    def test_streaming_config_validation(self):
        with pytest.raises(ValidationError):
            StreamingConfig(refine_iters=0)
        with pytest.raises(ValidationError):
            StreamingConfig(hysteresis=1.5)
        with pytest.raises(ValidationError):
            StreamingConfig(cooldown=-1)
        with pytest.raises(ValidationError):
            StreamingConfig(window=0)


class TestStreamingArtifacts:
    def test_artifact_carries_anchor_extras(self, tmp_path):
        _, batches = _drifted_stream(n_batches=2, batch_size=60)
        model = AnchorMVSC(4, random_state=0)
        for batch in batches:
            model.partial_fit(batch.views)
        artifact = model.to_artifact()
        assert set(artifact.extras) == {
            f"anchors_view_{i}" for i in range(3)
        }
        for i, anchors in enumerate(model.anchors_):
            np.testing.assert_array_equal(
                artifact.extras[f"anchors_view_{i}"], anchors
            )
        assert artifact.config.get("anchor_seed") == 0
        manifest = artifact.manifest()
        assert set(manifest["extras"]) == set(artifact.extras)

    def test_extras_roundtrip_in_fresh_process(self, tmp_path):
        _, batches = _drifted_stream(n_batches=1, batch_size=60)
        model = AnchorMVSC(4, random_state=0)
        model.partial_fit(batches[0].views)
        model.save(tmp_path / "art")
        script = (
            "import sys, numpy as np\n"
            "from repro.serving import ModelArtifact\n"
            "art = ModelArtifact.load(sys.argv[1])\n"
            "np.savez(sys.argv[2], **art.extras)\n"
        )
        src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(tmp_path / "art"),
                str(tmp_path / "extras.npz"),
            ],
            check=True,
            env=env,
        )
        with np.load(tmp_path / "extras.npz") as data:
            assert set(data.files) == {
                f"anchors_view_{i}" for i in range(3)
            }
            for i, anchors in enumerate(model.anchors_):
                np.testing.assert_array_equal(
                    data[f"anchors_view_{i}"], anchors
                )

    def test_artifacts_without_extras_still_load(self, tmp_path):
        artifact = ModelArtifact(
            model_class="AnchorMVSC",
            train_views=[np.eye(6), np.eye(6) * 2.0],
            train_labels=np.array([0, 0, 1, 1, 2, 2], dtype=np.int64),
            view_weights=np.array([0.5, 0.5]),
            n_clusters=3,
        )
        artifact.save(tmp_path)
        manifest = artifact.manifest()
        assert "extras" not in manifest
        loaded = ModelArtifact.load(tmp_path)
        assert loaded.extras == {}
        assert loaded.content_hash() == artifact.content_hash()


class TestPredictorAdapt:
    @staticmethod
    def _fitted_predictor():
        _, batches = _drifted_stream(n_batches=2, batch_size=60)
        model = AnchorMVSC(4, random_state=0)
        model.partial_fit(batches[0].views)
        return Predictor(model.to_artifact()), batches[1]

    def test_adapt_with_labels_extends_reference(self):
        predictor, batch = self._fitted_predictor()
        n_before = predictor.artifact.n_samples
        returned = predictor.adapt(batch.views, labels=batch.labels)
        np.testing.assert_array_equal(returned, batch.labels)
        assert predictor.artifact.n_samples == n_before + batch.n_samples
        np.testing.assert_array_equal(
            predictor.artifact.train_labels[-batch.n_samples :],
            batch.labels,
        )

    def test_adapt_without_labels_propagates(self):
        predictor, batch = self._fitted_predictor()
        expected = predictor.predict(batch.views)
        returned = predictor.adapt(batch.views)
        np.testing.assert_array_equal(returned, expected)

    def test_adapted_index_matches_rebuilt_predictor(self):
        predictor, batch = self._fitted_predictor()
        predictor.adapt(batch.views, labels=batch.labels)
        rebuilt = Predictor(predictor.artifact)
        queries = [v[::2] for v in batch.views]
        np.testing.assert_array_equal(
            predictor.predict(queries), rebuilt.predict(queries)
        )

    def test_adapt_then_save_roundtrips(self, tmp_path):
        predictor, batch = self._fitted_predictor()
        predictor.adapt(batch.views, labels=batch.labels)
        predictor.save(tmp_path)
        loaded = Predictor.load(tmp_path)
        assert loaded.artifact.n_samples == predictor.artifact.n_samples
        queries = [v[::2] for v in batch.views]
        np.testing.assert_array_equal(
            loaded.predict(queries), predictor.predict(queries)
        )

    def test_adapt_validates_labels(self):
        predictor, batch = self._fitted_predictor()
        with pytest.raises(ValidationError, match="shape"):
            predictor.adapt(batch.views, labels=batch.labels[:-1])
        with pytest.raises(ValidationError):
            predictor.adapt(
                batch.views, labels=np.full(batch.n_samples, 99)
            )


class TestStreamCLI:
    def test_stream_quick_runs(self, tmp_path):
        out = StringIO()
        code = main(
            [
                "stream",
                "confused_pairs",
                "--quick",
                "--seed",
                "0",
                "--json",
                str(tmp_path / "stream.json"),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "fold_in" in text
        assert "total" in text
        payload = json.loads((tmp_path / "stream.json").read_text())
        assert payload["n_batches"] == 4
        assert len(payload["records"]) == 4
        assert {"acc", "nmi", "ari"} <= set(payload["records"][0])

    def test_stream_with_drift_reports_detector(self):
        out = StringIO()
        code = main(
            [
                "stream",
                "confused_pairs",
                "--quick",
                "--drift-at",
                "2",
                "--drift-mean-shift",
                "4",
                "--seed",
                "0",
            ],
            out=out,
        )
        assert code == 0
        assert "objective_shift" in out.getvalue()

    def test_stream_rejects_bad_drift_batch(self):
        with pytest.raises(ValidationError, match="at_batch"):
            main(
                [
                    "stream",
                    "confused_pairs",
                    "--quick",
                    "--drift-at",
                    "9",
                ],
                out=StringIO(),
            )
