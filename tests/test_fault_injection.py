"""Fault-injection tests: every registered site, every recovery contract.

For each fault site registered by the library, these tests arm the
:mod:`repro.robust` harness and assert the unified failure policy's
contract:

* where a fallback exists, a *persistent* injected failure recovers
  through it, and the recovered output is bit-for-bit the fallback's own
  output;
* where only retries exist, a one-shot fault recovers and a persistent
  fault exhausts into :class:`~repro.exceptions.RecoveryExhaustedError`
  (a :class:`~repro.exceptions.NumericalError`) carrying the site name
  and attempt count — never a raw numpy/scipy exception;
* with no plan armed, the harness is inert and solver outputs are
  bit-identical to the uninjected path.

The whole module carries the ``faults`` marker, so ``-m faults`` runs it
as the robustness smoke subset.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import repro.linalg.eigen as eigen_mod
from repro.cluster.kmeans import KMeans, _spread_centers
from repro.core.discrete import rotation_initialize
from repro.core.graph_builder import build_multiview_affinities
from repro.core.model import UnifiedMVSC
from repro.evaluation.registry import default_method_registry
from repro.evaluation.runner import run_method_once
from repro.exceptions import (
    NumericalError,
    RecoveryExhaustedError,
    ValidationError,
)
from repro.linalg.eigen import eigsh_smallest, sorted_eigh
from repro.linalg.gpi import gpi_stiefel
from repro.linalg.procrustes import _qr_polar, nearest_orthogonal
from repro.observability import Trace, use_trace
from repro.robust import (
    FailurePolicy,
    FaultSpec,
    InjectedFault,
    collect_recoveries,
    current_faults,
    inject_faults,
    maybe_inject,
    registered_fault_sites,
    use_policy,
)

pytestmark = pytest.mark.faults

ONE_SHOT = dict(mode="raise", times=1)
PERSISTENT = dict(mode="raise", times=None)


def _sym(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


def _stiefel(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.normal(size=(n, k)))[0]


class TestHarness:
    """The injection machinery itself."""

    def test_disarmed_is_passthrough(self):
        x = np.ones(3)
        assert maybe_inject("eigen.full", x) is x
        assert current_faults() is None

    def test_unknown_site_rejected(self):
        with pytest.raises(ValidationError, match="unknown fault site"):
            inject_faults(FaultSpec("no.such.site"))

    def test_unsupported_mode_rejected(self):
        # model.fit is a valueless guard site: nan corruption is meaningless.
        with pytest.raises(ValidationError, match="supports modes"):
            inject_faults(FaultSpec("model.fit", mode="nan"))

    def test_invocation_targeting(self):
        with inject_faults(
            FaultSpec("eigen.full", mode="raise", first=1, times=1)
        ) as plan:
            maybe_inject("eigen.full", None)  # invocation 0: clean
            with pytest.raises(InjectedFault):
                maybe_inject("eigen.full", None)  # invocation 1: fires
            maybe_inject("eigen.full", None)  # invocation 2: clean again
        assert [(t.site, t.invocation) for t in plan.triggered] == [
            ("eigen.full", 1)
        ]

    def test_nan_corruption_copies(self):
        x = np.ones((2, 2))
        with inject_faults(FaultSpec("eigen.full", mode="nan")):
            out = maybe_inject("eigen.full", x)
        assert np.isnan(out).any()
        assert np.all(np.isfinite(x))  # original untouched

    def test_delay_mode_passes_value_through(self):
        x = np.ones(2)
        with inject_faults(
            FaultSpec("eigen.full", mode="delay", delay=0.01)
        ) as plan:
            out = maybe_inject("eigen.full", x)
        assert out is x
        assert [t.mode for t in plan.triggered] == ["delay"]

    def test_injection_counted_on_trace(self):
        trace = Trace("faults")
        with use_trace(trace):
            with inject_faults(FaultSpec("eigen.full", mode="inf")):
                maybe_inject("eigen.full", np.ones(2))
        assert trace.metrics.counter("fault.injected").value == 1.0
        assert (
            trace.metrics.counter("fault.injected.eigen.full").value == 1.0
        )

    def test_plan_scope_is_lexical(self):
        with inject_faults(FaultSpec("eigen.full", **PERSISTENT)):
            pass
        # Outside the block the site is clean again.
        values, _ = sorted_eigh(_sym(6))
        assert np.all(np.isfinite(values))


class TestSiteCatalogue:
    """The registry is complete and every site here is exercised below."""

    EXPECTED = {
        "discrete.rotation",
        "eigen.dense",
        "eigen.full",
        "eigen.lanczos",
        "gpi.iterate",
        "gpi.solve",
        "graph.affinity",
        "kmeans.init",
        "model.fit",
        "procrustes.svd",
        "runner.run",
        "serving.load",
        "serving.predict",
        "streaming.partial_fit",
        "streaming.refit",
    }

    def test_all_library_sites_registered(self):
        # Doctest runs may add demo.* sites; the library's own catalogue
        # must match exactly.
        sites = {
            name
            for name in registered_fault_sites()
            if not name.startswith("demo.")
        }
        assert sites == self.EXPECTED

    def test_sites_carry_descriptions_and_modes(self):
        for site in registered_fault_sites().values():
            assert site.description
            assert "raise" in site.modes


class TestRetryOnlySites:
    """Sites without fallbacks: one-shot faults recover, persistent exhaust."""

    def test_eigen_full_one_shot_recovers_by_retry(self):
        a = _sym(8, seed=1)
        clean_values, clean_vectors = sorted_eigh(a)
        with inject_faults(FaultSpec("eigen.full", **ONE_SHOT)) as plan:
            with collect_recoveries() as events:
                values, vectors = sorted_eigh(a)
        assert len(plan.triggered) == 1
        assert [e.strategy for e in events] == ["retry"]
        # The retry solves a diagonally shifted matrix and un-shifts the
        # eigenvalues, so it is exact up to roundoff (not bit-identical).
        np.testing.assert_allclose(values, clean_values, atol=1e-6)
        assert vectors.shape == clean_vectors.shape

    def test_graph_affinity_one_shot_retry_is_bit_identical(self):
        view = np.random.default_rng(2).normal(size=(20, 4))
        clean = build_multiview_affinities([view], n_neighbors=5)
        with inject_faults(FaultSpec("graph.affinity", **ONE_SHOT)):
            with collect_recoveries() as events:
                recovered = build_multiview_affinities([view], n_neighbors=5)
        assert [e.strategy for e in events] == ["retry"]
        # Graph construction takes no perturbation: the retry re-runs the
        # identical computation, so recovery is bit-for-bit.
        np.testing.assert_array_equal(clean[0], recovered[0])

    @pytest.mark.parametrize(
        "site, call",
        [
            ("eigen.full", lambda: sorted_eigh(_sym(8, seed=1))),
            (
                "graph.affinity",
                lambda: build_multiview_affinities(
                    [np.random.default_rng(2).normal(size=(20, 4))],
                    n_neighbors=5,
                ),
            ),
        ],
    )
    def test_persistent_exhausts_with_context(self, site, call):
        with inject_faults(FaultSpec(site, **PERSISTENT)):
            with pytest.raises(RecoveryExhaustedError) as excinfo:
                call()
        err = excinfo.value
        assert err.site == site
        assert err.attempts >= 2  # primary + at least one retry
        assert site in str(err)
        assert isinstance(err, NumericalError)


class TestFallbackSites:
    """Sites with fallback chains: persistent faults recover bit-for-bit."""

    def test_lanczos_falls_back_to_dense(self):
        a = _sym(20, seed=3)
        sp = scipy.sparse.csr_matrix(a)
        expected = eigen_mod._dense_extremal(
            np.asarray(sp.todense()), 3, smallest=True
        )
        trace = Trace("faults")
        with use_trace(trace), inject_faults(
            FaultSpec("eigen.lanczos", **PERSISTENT)
        ), collect_recoveries() as events:
            got = eigen_mod._lanczos(sp, 3, which="SA")
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        assert [e.strategy for e in events] == ["fallback"]
        assert events[0].detail == "dense"
        assert trace.metrics.counter("eigsh.arpack_fallback").value == 1.0

    def test_dense_falls_back_to_full_eigh(self):
        a = _sym(10, seed=4)
        sym = (a + a.T) / 2.0
        # The "full" fallback computes the whole spectrum with the plain
        # eigh driver and slices; its output must match bit-for-bit.
        exp_values, exp_vectors = scipy.linalg.eigh(sym)
        with inject_faults(FaultSpec("eigen.dense", **PERSISTENT)):
            with collect_recoveries() as events:
                got_vals, got_vecs = eigen_mod._dense_extremal(
                    a, 3, smallest=True
                )
        np.testing.assert_array_equal(got_vals, exp_values[:3])
        np.testing.assert_array_equal(got_vecs, exp_vectors[:, :3])
        assert [e.detail for e in events] == ["full"]

    def test_procrustes_falls_back_to_qr(self):
        m = np.random.default_rng(5).normal(size=(9, 3))
        expected = _qr_polar(m)
        with inject_faults(FaultSpec("procrustes.svd", **PERSISTENT)):
            with collect_recoveries() as events:
                got = nearest_orthogonal(m)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_allclose(got.T @ got, np.eye(3), atol=1e-10)
        assert [e.detail for e in events] == ["qr"]

    def test_kmeans_init_falls_back_to_spread(self):
        rng = np.random.default_rng(6)
        x = np.vstack([rng.normal(size=(10, 2)), rng.normal(size=(10, 2)) + 9])
        with inject_faults(FaultSpec("kmeans.init", **PERSISTENT)):
            with collect_recoveries() as events:
                result = KMeans(2, n_init=2, random_state=0).fit(x)
        assert sorted(np.bincount(result.labels).tolist()) == [10, 10]
        # One fallback per restart, each bit-identical to the spread seeding.
        assert [e.detail for e in events] == ["spread", "spread"]
        np.testing.assert_array_equal(_spread_centers(x, 2), x[[0, 19]])

    # The eigsh fallback changes the descent path, so the objective may
    # legitimately wobble under a persistent fault.
    @pytest.mark.filterwarnings("ignore:UnifiedMVSC objective increased")
    def test_gpi_solve_falls_back_to_eigsh(self, small_dataset):
        with inject_faults(FaultSpec("gpi.solve", **PERSISTENT)):
            result = UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        fallbacks = [
            e for e in result.diagnostics.recoveries if e.site == "gpi.solve"
        ]
        assert fallbacks
        assert {e.detail for e in fallbacks} == {"eigsh"}
        assert result.labels.shape == (small_dataset.views[0].shape[0],)
        assert set(result.labels.tolist()) <= {0, 1, 2}

    def test_fallback_output_not_reinjected(self):
        # A persistent nan fault on the primary must not poison the
        # fallback's output — otherwise no fallback could ever demonstrate
        # recovery.
        m = np.random.default_rng(7).normal(size=(6, 2))
        with inject_faults(FaultSpec("procrustes.svd", mode="nan", times=None)):
            got = nearest_orthogonal(m)
        assert np.all(np.isfinite(got))


class TestStreamingSites:
    """Streaming fold-in degrades to a full refit and never corrupts state."""

    @staticmethod
    def _two_batches():
        from repro.datasets.scenarios import get_scenario, stream_batches

        scenario = get_scenario("confused_pairs").with_size(60)
        return stream_batches(scenario, 2, random_state=0)

    def test_partial_fit_falls_back_to_refit(self):
        from repro.core.anchor_model import AnchorMVSC

        batches = self._two_batches()
        union = [
            np.vstack([a, b])
            for a, b in zip(batches[0].views, batches[1].views)
        ]
        # The fallback refits on the accumulated stream with a fresh rng,
        # so it must match a cold fit on the union bit-for-bit.
        expected = AnchorMVSC(4, random_state=0).fit_predict(union)
        model = AnchorMVSC(4, random_state=0)
        model.partial_fit(batches[0].views)
        with inject_faults(
            FaultSpec("streaming.partial_fit", **PERSISTENT)
        ), collect_recoveries() as events:
            got = model.partial_fit(batches[1].views)
        np.testing.assert_array_equal(got, expected)
        assert [e.strategy for e in events] == ["fallback"]
        assert events[0].detail == "refit"
        assert model.n_seen_ == 120

    def test_one_shot_fault_retries_without_double_append(self):
        from repro.core.anchor_model import AnchorMVSC

        batches = self._two_batches()
        clean = AnchorMVSC(4, random_state=0)
        clean.partial_fit(batches[0].views)
        expected = clean.partial_fit(batches[1].views)
        model = AnchorMVSC(4, random_state=0)
        model.partial_fit(batches[0].views)
        # The fold-in body is pure (state commits only after the policy
        # returns), so the retry re-runs it on the same stream state and
        # the batch cannot be appended twice.
        with inject_faults(
            FaultSpec("streaming.partial_fit", **ONE_SHOT)
        ), collect_recoveries() as events:
            got = model.partial_fit(batches[1].views)
        np.testing.assert_array_equal(got, expected)
        assert [e.strategy for e in events] == ["retry"]
        assert model.n_seen_ == 120

    def test_refit_exhausts_typed_and_leaves_state_intact(self):
        from repro.core.anchor_model import AnchorMVSC

        batches = self._two_batches()
        model = AnchorMVSC(4, random_state=0)
        before = model.partial_fit(batches[0].views)
        with inject_faults(FaultSpec("streaming.refit", **PERSISTENT)):
            with pytest.raises(RecoveryExhaustedError, match="streaming.refit"):
                model.refit()
        assert model.n_seen_ == 60
        np.testing.assert_array_equal(model.labels_, before)


class TestSkipSites:
    """discrete.rotation: failing restarts are skipped, not fatal."""

    def test_single_failed_restart_is_skipped(self):
        f = _stiefel(30, 3, seed=8)
        clean_rot, clean_labels = rotation_initialize(
            f, 3, n_restarts=4, random_state=0
        )
        with inject_faults(FaultSpec("discrete.rotation", **ONE_SHOT)):
            with collect_recoveries() as events:
                rot, labels = rotation_initialize(
                    f, 3, n_restarts=4, random_state=0
                )
        assert [e.strategy for e in events] == ["skip"]
        assert rot.shape == clean_rot.shape
        assert labels.shape == clean_labels.shape

    def test_all_restarts_failing_exhausts(self):
        f = _stiefel(30, 3, seed=8)
        with inject_faults(FaultSpec("discrete.rotation", **PERSISTENT)):
            with pytest.raises(RecoveryExhaustedError) as excinfo:
                rotation_initialize(f, 3, n_restarts=4, random_state=0)
        assert excinfo.value.site == "discrete.rotation"
        assert excinfo.value.attempts == 4


class TestGuardSites:
    """model.fit / runner.run / gpi.iterate: wrapping and observability."""

    def test_model_fit_guard_wraps_injected_fault(self, small_dataset):
        with inject_faults(FaultSpec("model.fit", **ONE_SHOT)):
            with pytest.raises(RecoveryExhaustedError) as excinfo:
                UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        assert excinfo.value.site == "model.fit"
        assert excinfo.value.attempts == 1

    def test_gpi_iterate_nan_raises_numerical_error_directly(self):
        # gpi_stiefel itself has no policy wrap: a poisoned iterate
        # surfaces as NumericalError, and the recovery happens one level
        # up (the model's gpi.solve site) — see the next test.
        a = _sym(12, seed=9)
        b = np.random.default_rng(9).normal(size=(12, 3))
        with inject_faults(FaultSpec("gpi.iterate", mode="nan")):
            with pytest.raises(NumericalError, match="non-finite"):
                gpi_stiefel(a, b)

    def test_gpi_iterate_nan_recovers_inside_fit(self, small_dataset):
        with inject_faults(FaultSpec("gpi.iterate", mode="nan")):
            result = UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        pairs = {
            (e.site, e.strategy) for e in result.diagnostics.recoveries
        }
        assert ("gpi.solve", "retry") in pairs

    def test_runner_guard_wraps_failures(self, small_dataset):
        spec = default_method_registry()["UMSC"]
        with inject_faults(FaultSpec("runner.run", **ONE_SHOT)):
            with pytest.raises(RecoveryExhaustedError) as excinfo:
                run_method_once(spec, small_dataset, 0)
        assert excinfo.value.site == "runner.run"


class TestAcceptance:
    """The ISSUE's acceptance scenarios, end to end."""

    def test_injected_eigensolver_failure_recovers_in_fit(self, small_dataset):
        """A persistently failing eigensolver must not break ``fit``: the
        fallback chain absorbs it and the recovery lands on
        ``result.diagnostics``."""
        with inject_faults(FaultSpec("eigen.dense", **PERSISTENT)) as plan:
            result = UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        assert len(plan.triggered) > 0
        recoveries = [
            e for e in result.diagnostics.recoveries if e.site == "eigen.dense"
        ]
        assert recoveries, "fit must record its recoveries"
        assert all(e.strategy == "fallback" for e in recoveries)
        assert sorted(set(result.labels.tolist())) == [0, 1, 2]

    def test_arpack_failure_recovers_via_dense(self):
        """Injected ARPACK failure on the sparse path: the solve completes
        via the dense fallback, bit-identical to calling it directly."""
        a = _sym(25, seed=10)
        sp = scipy.sparse.csr_matrix(a)
        expected = eigen_mod._dense_extremal(
            np.asarray(sp.todense()), 4, smallest=True
        )
        with inject_faults(FaultSpec("eigen.lanczos", **PERSISTENT)):
            values, vectors = eigsh_smallest(sp, 4)
        np.testing.assert_array_equal(values, expected[0])
        np.testing.assert_array_equal(vectors, expected[1])

    def test_disarmed_run_is_bit_identical(self, small_dataset):
        """The armed-then-disarmed harness leaves no residue: outputs match
        a never-armed run exactly."""
        baseline = UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        with inject_faults():  # armed but empty plan
            armed = UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        after = UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        for other in (armed, after):
            np.testing.assert_array_equal(baseline.labels, other.labels)
            np.testing.assert_array_equal(baseline.embedding, other.embedding)
            np.testing.assert_array_equal(baseline.rotation, other.rotation)
            np.testing.assert_array_equal(
                np.asarray(baseline.objective_history),
                np.asarray(other.objective_history),
            )
        assert baseline.diagnostics.recoveries == ()

    def test_no_retry_policy_disables_recovery(self):
        """``use_policy`` reaches the kernels: with retries and fallbacks
        off, a one-shot fault becomes fatal."""
        with use_policy(FailurePolicy(max_retries=0, use_fallbacks=False)):
            with inject_faults(FaultSpec("eigen.full", **ONE_SHOT)):
                with pytest.raises(RecoveryExhaustedError) as excinfo:
                    sorted_eigh(_sym(6, seed=11))
        assert excinfo.value.attempts == 1


class TestRecoveryRequestIdentity:
    def test_recovery_events_inherit_ambient_request_id(self):
        from repro.observability import use_request
        from repro.robust.policy import (
            RecoveryEvent,
            collect_recoveries,
            record_recovery,
        )

        with collect_recoveries() as events:
            with use_request("req-9"):
                record_recovery(RecoveryEvent("demo.site", "retry", 1, "boom"))
            record_recovery(RecoveryEvent("demo.site", "retry", 2, "boom"))
            record_recovery(
                RecoveryEvent(
                    "demo.site", "retry", 3, "boom", request_id="explicit"
                )
            )
        assert events[0].request_id == "req-9"
        assert events[1].request_id == ""
        assert events[2].request_id == "explicit"  # explicit wins
        assert events[0].to_dict()["request_id"] == "req-9"
