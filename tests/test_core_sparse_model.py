"""Tests for repro.core.sparse_model (sparse-graph variant)."""

import numpy as np
import pytest

from repro.core.sparse_model import SparseMVSC
from repro.datasets import make_multiview_blobs
from repro.exceptions import ValidationError
from repro.metrics import clustering_accuracy


@pytest.fixture(scope="module")
def easy():
    return make_multiview_blobs(
        240,
        3,
        view_dims=(10, 14),
        view_noise=(0.1, 0.25),
        view_distractors=(0.0, 0.0),
        view_outliers=(0.0, 0.0),
        confusion_schedule=[[], []],
        separation=6.5,
        random_state=8,
    )


class TestSparseMVSC:
    def test_recovers_clusters(self, easy):
        labels = SparseMVSC(3, random_state=0).fit_predict(easy.views)
        assert clustering_accuracy(easy.labels, labels) > 0.9

    def test_deterministic(self, easy):
        a = SparseMVSC(3, random_state=4).fit_predict(easy.views)
        b = SparseMVSC(3, random_state=4).fit_predict(easy.views)
        np.testing.assert_array_equal(a, b)

    def test_no_empty_clusters(self, easy):
        labels = SparseMVSC(3, random_state=1).fit_predict(easy.views)
        assert np.all(np.bincount(labels, minlength=3) >= 1)

    def test_blocked_construction_same_result(self, easy):
        a = SparseMVSC(3, block=32, random_state=0).fit_predict(easy.views)
        b = SparseMVSC(3, block=4096, random_state=0).fit_predict(easy.views)
        np.testing.assert_array_equal(a, b)

    def test_comparable_to_dense(self, easy):
        from repro.core import UnifiedMVSC

        sparse_labels = SparseMVSC(3, random_state=0).fit_predict(easy.views)
        dense = UnifiedMVSC(3, random_state=0).fit(easy.views)
        sparse_acc = clustering_accuracy(easy.labels, sparse_labels)
        dense_acc = clustering_accuracy(easy.labels, dense.labels)
        assert sparse_acc > dense_acc - 0.1

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_nonpositive_neighbors(self, k):
        # sparse_knn_affinity would quietly clamp k to 1 at fit time.
        with pytest.raises(ValidationError, match="n_neighbors"):
            SparseMVSC(2, n_neighbors=k)

    def test_validation(self, easy):
        with pytest.raises(ValidationError):
            SparseMVSC(0)
        with pytest.raises(ValidationError):
            SparseMVSC(2, weighting="chaos")
        with pytest.raises(ValidationError, match="exceeds"):
            SparseMVSC(10_000).fit_predict(easy.views)
