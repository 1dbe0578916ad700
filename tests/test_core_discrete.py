"""Tests for repro.core.discrete (rotation / indicator machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.discrete import (
    anchor_rotation,
    indicator_coordinate_descent,
    rotation_initialize,
    rotation_objective,
    scaled_indicator,
)
from repro.exceptions import ValidationError
from repro.observability.trace import Trace, use_trace


def _reference_coordinate_descent(m, labels, c, max_sweeps):
    """The row-by-row Y-step loop, kept as the oracle for the block screen.

    Returns ``(labels, moves, sweeps)``.
    """
    n = m.shape[0]
    labels = np.asarray(labels, dtype=np.int64).copy()
    counts = np.bincount(labels, minlength=c).astype(np.float64)
    q = np.zeros(c)
    np.add.at(q, labels, m[np.arange(n), labels])
    n_moves = 0
    n_sweeps = 0
    for n_sweeps in range(1, max_sweeps + 1):
        moved = False
        for i in range(n):
            a = labels[i]
            if counts[a] <= 1:
                continue
            base_a = q[a] / np.sqrt(counts[a])
            new_a = (q[a] - m[i, a]) / np.sqrt(counts[a] - 1.0)
            base_b = q / np.sqrt(counts)
            new_b = (q + m[i]) / np.sqrt(counts + 1.0)
            gain = (new_a - base_a) + (new_b - base_b)
            gain[a] = 0.0
            b = int(np.argmax(gain))
            if gain[b] > 1e-12:
                q[a] -= m[i, a]
                counts[a] -= 1.0
                q[b] += m[i, b]
                counts[b] += 1.0
                labels[i] = b
                moved = True
                n_moves += 1
        if not moved:
            break
    return labels, n_moves, n_sweeps


def _clean_embedding(sizes, seed=0):
    """Ideal indicator-like embedding: G(Y) for a known partition."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    rng.shuffle(labels)
    g = scaled_indicator(labels, len(sizes))
    return g, labels


class TestScaledIndicator:
    def test_orthonormal_columns(self):
        g, _ = _clean_embedding([4, 6, 2])
        np.testing.assert_allclose(g.T @ g, np.eye(3), atol=1e-12)

    def test_values(self):
        g = scaled_indicator(np.array([0, 0, 1, 1]), 2)
        np.testing.assert_allclose(g[0, 0], 1 / np.sqrt(2))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            scaled_indicator(np.array([0, 0, 0]), 2)


class TestRotationObjective:
    def test_upper_bound_sqrt_counts(self):
        # For M = G(Y) the objective is exactly c (each column contributes
        # n_j / sqrt(n_j) / sqrt(n_j) = 1).
        g, labels = _clean_embedding([5, 3, 7])
        assert rotation_objective(g, labels, 3) == pytest.approx(3.0)

    def test_wrong_assignment_scores_lower(self):
        g, labels = _clean_embedding([5, 5])
        wrong = 1 - labels
        assert rotation_objective(g, wrong, 2) < rotation_objective(g, labels, 2)


class TestCoordinateDescent:
    def test_monotone_objective(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(40, 4))
        labels = rng.integers(0, 4, size=40).astype(np.int64)
        labels[:4] = np.arange(4)  # keep clusters non-empty
        before = rotation_objective(m, labels, 4)
        improved = indicator_coordinate_descent(m, labels, 4)
        after = rotation_objective(m, improved, 4)
        assert after >= before - 1e-12

    def test_no_cluster_emptied(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(20, 5))
        labels = np.arange(20) % 5
        out = indicator_coordinate_descent(m, labels.astype(np.int64), 5)
        assert np.all(np.bincount(out, minlength=5) >= 1)

    def test_recovers_perfect_partition(self):
        g, labels = _clean_embedding([10, 10, 10], seed=2)
        noisy = labels.copy()
        rng = np.random.default_rng(3)
        flips = rng.choice(30, size=6, replace=False)
        noisy[flips] = (noisy[flips] + 1) % 3
        recovered = indicator_coordinate_descent(g, noisy, 3)
        assert rotation_objective(g, recovered, 3) >= rotation_objective(
            g, labels, 3
        ) - 1e-9

    def test_requires_feasible_start(self):
        m = np.zeros((4, 3))
        with pytest.raises(ValidationError, match="empty"):
            indicator_coordinate_descent(m, np.zeros(4, dtype=np.int64), 3)

    def test_column_mismatch(self):
        with pytest.raises(ValidationError, match="columns"):
            indicator_coordinate_descent(
                np.zeros((4, 2)), np.array([0, 1, 2, 0]), 3
            )

    def test_wrong_length_labels_rejected(self):
        m = np.zeros((5, 2))
        with pytest.raises(ValidationError, match="length 5"):
            indicator_coordinate_descent(m, np.array([0, 1, 0, 1]), 2)

    def test_out_of_range_labels_rejected(self):
        m = np.zeros((4, 2))
        with pytest.raises(ValidationError, match=r"\[0, 2\)"):
            indicator_coordinate_descent(m, np.array([0, 1, 2, 1]), 2)
        with pytest.raises(ValidationError, match=r"\[0, 2\)"):
            indicator_coordinate_descent(m, np.array([0, 1, -1, 1]), 2)

    def test_non_integral_labels_rejected(self):
        m = np.zeros((4, 2))
        with pytest.raises(ValidationError, match="integers"):
            indicator_coordinate_descent(m, np.array([0.0, 1.0, 0.5, 1.0]), 2)

    def test_integral_float_labels_accepted(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(12, 3))
        labels = np.arange(12) % 3
        np.testing.assert_array_equal(
            indicator_coordinate_descent(m, labels.astype(np.float64), 3),
            indicator_coordinate_descent(m, labels, 3),
        )

    @settings(deadline=None, max_examples=200)
    @given(
        c=st.integers(2, 8),
        extra=st.integers(0, 150),
        max_sweeps=st.sampled_from([1, 4, 20]),
        scale=st.sampled_from(["normal", "rounded", "coarse", "tiny"]),
        singletons=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_loop_oracle(
        self, c, extra, max_sweeps, scale, singletons, seed
    ):
        # The block screen must replay the row-by-row loop exactly: same
        # labels and same work counters, on tie-heavy and tiny inputs and
        # on starts that hold singleton clusters.
        rng = np.random.default_rng(seed)
        n = c + extra
        m = rng.normal(size=(n, c))
        if scale == "rounded":
            m = np.round(m, 1)
        elif scale == "coarse":
            m = np.round(2.0 * m) / 2.0
        elif scale == "tiny":
            m = 1e-3 * m
        labels = rng.integers(0, c, size=n)
        labels[:c] = np.arange(c)
        if singletons and extra:
            labels[c:] = rng.integers(0, max(1, c // 2), size=extra)
        want, moves, sweeps = _reference_coordinate_descent(
            m, labels, c, max_sweeps
        )
        with use_trace(Trace("oracle")) as trace:
            got = indicator_coordinate_descent(
                m, labels, c, max_sweeps=max_sweeps
            )
        np.testing.assert_array_equal(got, want)
        counters = trace.metrics.counters
        assert counters["y_step.moves"].value == moves
        assert counters["y_step.sweeps"].value == sweeps

    @settings(deadline=None, max_examples=20)
    @given(st.integers(2, 4), st.integers(0, 500))
    def test_property_monotone_and_feasible(self, c, seed):
        rng = np.random.default_rng(seed)
        n = 6 * c
        m = rng.normal(size=(n, c))
        labels = (np.arange(n) % c).astype(np.int64)
        before = rotation_objective(m, labels, c)
        out = indicator_coordinate_descent(m, labels, c)
        assert rotation_objective(m, out, c) >= before - 1e-12
        assert np.all(np.bincount(out, minlength=c) >= 1)


class TestAnchorRotation:
    def test_orthogonal_output(self):
        rng = np.random.default_rng(0)
        f, _ = np.linalg.qr(rng.normal(size=(30, 4)))
        rot = anchor_rotation(f, rng)
        np.testing.assert_allclose(rot.T @ rot, np.eye(4), atol=1e-10)


class TestRotationInitialize:
    def test_recovers_clean_partition(self):
        g, labels = _clean_embedding([12, 8, 10], seed=4)
        # Rotate the clean indicator arbitrarily: init must undo it.
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        f = g @ q
        _, found = rotation_initialize(f, 3, n_restarts=10, random_state=0)
        from repro.metrics import clustering_accuracy

        assert clustering_accuracy(labels, found) == 1.0

    def test_rotation_is_orthogonal(self):
        g, _ = _clean_embedding([6, 6, 6], seed=6)
        rot, _ = rotation_initialize(g, 3, random_state=1)
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-9)

    def test_all_clusters_present(self):
        rng = np.random.default_rng(7)
        f, _ = np.linalg.qr(rng.normal(size=(50, 5)))
        _, labels = rotation_initialize(f, 5, random_state=2)
        assert np.all(np.bincount(labels, minlength=5) >= 1)

    def test_validation(self):
        g, _ = _clean_embedding([5, 5])
        with pytest.raises(ValidationError, match="columns"):
            rotation_initialize(g, 3)
        with pytest.raises(ValidationError, match="n_restarts"):
            rotation_initialize(g, 2, n_restarts=0)
