"""Tests for repro.core.anchor_model (scalable UMSC variant)."""

import numpy as np
import pytest

from repro.core.anchor_model import AnchorMVSC
from repro.datasets import make_multiview_blobs
from repro.core.sparse_model import SparseMVSC
from repro.exceptions import ValidationError
from repro.graph.anchor import (
    anchor_affinity_factor,
    anchor_assignment,
    gram_left_singular,
    select_anchors,
)
from repro.metrics import clustering_accuracy


@pytest.fixture(scope="module")
def easy_big():
    return make_multiview_blobs(
        500,
        4,
        view_dims=(12, 16),
        view_noise=(0.1, 0.2),
        view_distractors=(0.0, 0.0),
        view_outliers=(0.0, 0.0),
        confusion_schedule=[[], []],
        separation=7.0,
        random_state=3,
    )


class TestAnchorMVSC:
    def test_recovers_easy_clusters(self, easy_big):
        labels = AnchorMVSC(4, random_state=0).fit_predict(easy_big.views)
        assert clustering_accuracy(easy_big.labels, labels) > 0.9

    def test_no_empty_clusters(self, easy_big):
        labels = AnchorMVSC(4, random_state=1).fit_predict(easy_big.views)
        assert np.all(np.bincount(labels, minlength=4) >= 1)

    def test_deterministic(self, easy_big):
        a = AnchorMVSC(4, random_state=7).fit_predict(easy_big.views)
        b = AnchorMVSC(4, random_state=7).fit_predict(easy_big.views)
        np.testing.assert_array_equal(a, b)

    def test_explicit_anchor_count(self, easy_big):
        labels = AnchorMVSC(
            4, n_anchors=40, random_state=0
        ).fit_predict(easy_big.views)
        assert clustering_accuracy(easy_big.labels, labels) > 0.85

    def test_weighting_modes(self, easy_big):
        for mode in ("exponential", "parameter_free", "uniform"):
            labels = AnchorMVSC(
                4, weighting=mode, random_state=0
            ).fit_predict(easy_big.views)
            assert clustering_accuracy(easy_big.labels, labels) > 0.85

    def test_validation(self, easy_big):
        with pytest.raises(ValidationError):
            AnchorMVSC(0)
        with pytest.raises(ValidationError):
            AnchorMVSC(2, n_anchors=-1)
        with pytest.raises(ValidationError):
            AnchorMVSC(2, weighting="vibes")
        with pytest.raises(ValidationError, match="exceeds"):
            AnchorMVSC(10_000).fit_predict(easy_big.views)

    @pytest.mark.parametrize("k", [0, -2])
    def test_rejects_nonpositive_anchor_neighbors(self, k):
        # anchor_assignment would quietly clamp k to 1 at fit time.
        with pytest.raises(ValidationError, match="n_anchor_neighbors"):
            AnchorMVSC(2, n_anchor_neighbors=k)

    @pytest.mark.parametrize("cls", [AnchorMVSC, SparseMVSC])
    def test_rejects_zero_restarts(self, cls):
        with pytest.raises(ValidationError, match="n_restarts"):
            cls(2, n_restarts=0)

    @pytest.mark.parametrize("cls", [AnchorMVSC, SparseMVSC])
    @pytest.mark.parametrize(
        "kwargs, match",
        [({"weighting": "exponential", "gamma": 1.0}, "gamma"),
         ({"n_jobs": 0}, "n_jobs")],
    )
    def test_rejects_shared_params_at_construction(self, cls, kwargs, match):
        # The same checks UnifiedMVSC runs; these used to surface only
        # after the whole graph build.
        with pytest.raises(ValidationError, match=match):
            cls(2, **kwargs)

    def test_rejects_too_few_anchors_before_selection(
        self, easy_big, monkeypatch
    ):
        import repro.core.anchor_model as anchor_model

        def select_anchors_unreachable(*args, **kwargs):
            raise AssertionError("anchors selected before the check")

        monkeypatch.setattr(
            anchor_model, "select_anchors", select_anchors_unreachable
        )
        with pytest.raises(ValidationError, match="n_anchors=1"):
            AnchorMVSC(4, n_anchors=1).fit_predict(easy_big.views)

    def test_anchor_budget_equal_to_clusters(self, easy_big):
        # 2 views x 2 anchors = 4 clusters: the smallest budget that fits.
        views = easy_big.views
        model = AnchorMVSC(4, n_anchors=2, max_iter=3, random_state=0)
        cold = model.fit_predict([v[:400] for v in views])
        labels = model.partial_fit([v[400:] for v in views])
        assert cold.shape == (400,) and labels.shape == (500,)
        assert set(labels.tolist()) <= set(range(4))

    def test_faster_than_dense_at_scale(self):
        import time

        from repro.core import UnifiedMVSC

        ds = make_multiview_blobs(
            900, 4, view_dims=(15, 15), separation=6.0, random_state=4
        )
        start = time.perf_counter()
        AnchorMVSC(4, random_state=0).fit_predict(ds.views)
        anchor_time = time.perf_counter() - start
        start = time.perf_counter()
        UnifiedMVSC(4, random_state=0).fit(ds.views)
        dense_time = time.perf_counter() - start
        assert anchor_time < dense_time


class TestWarmEmbedding:
    """Warm F-steps solve only the top c + 1 Gram pairs."""

    @pytest.fixture(scope="class")
    def stacked(self, easy_big):
        rng = np.random.default_rng(0)
        factors = [
            anchor_affinity_factor(
                anchor_assignment(x, select_anchors(x, 40, random_state=rng))
            )
            for x in easy_big.views
        ]
        return np.hstack([np.sqrt(0.5) * b for b in factors])

    def test_projector_and_eigengap_match_full_spectrum(self, stacked):
        full, full_gap = gram_left_singular(stacked, 4, full=True)
        warm, warm_gap = gram_left_singular(stacked, 4, full=False)
        assert warm.shape == full.shape
        # Same subspace; the column signs may differ.
        np.testing.assert_allclose(
            warm @ warm.T, full @ full.T, rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(warm_gap, full_gap, rtol=1e-8, atol=1e-12)
        assert warm_gap > 0

    def test_no_gap_without_a_next_pair(self, stacked):
        narrow = stacked[:, :4]
        for full in (True, False):
            u, gap = gram_left_singular(narrow, 4, full=full)
            assert u.shape == (stacked.shape[0], 4) and gap is None
