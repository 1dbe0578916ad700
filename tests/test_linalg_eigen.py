"""Tests for repro.linalg.eigen."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import repro.linalg.eigen as eigen_mod
from repro.backends import current_backend, use_backend
from repro.exceptions import NumericalError, ValidationError
from repro.graph.sparse import sparse_knn_affinity, sparse_laplacian
from repro.linalg.eigen import eigsh_largest, eigsh_smallest, sorted_eigh
from repro.observability import Trace, use_trace
from repro.robust.policy import collect_recoveries


def _random_symmetric(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


class TestSortedEigh:
    def test_matches_numpy(self):
        a = _random_symmetric(12)
        values, vectors = sorted_eigh(a)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a), atol=1e-10)
        np.testing.assert_allclose(a @ vectors, vectors * values, atol=1e-8)

    def test_ascending(self):
        values, _ = sorted_eigh(_random_symmetric(9, seed=3))
        assert np.all(np.diff(values) >= -1e-12)


class TestEigshSmallest:
    def test_values_and_residual(self):
        a = _random_symmetric(15, seed=1)
        values, vectors = eigsh_smallest(a, 4)
        full = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(values, full[:4], atol=1e-10)
        np.testing.assert_allclose(a @ vectors, vectors * values, atol=1e-8)

    def test_orthonormal_vectors(self):
        _, vectors = eigsh_smallest(_random_symmetric(10, seed=2), 3)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(3), atol=1e-10)

    def test_k_equals_n(self):
        a = _random_symmetric(6, seed=4)
        values, _ = eigsh_smallest(a, 6)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a), atol=1e-10)

    def test_invalid_k(self):
        a = _random_symmetric(5)
        with pytest.raises(ValidationError):
            eigsh_smallest(a, 0)
        with pytest.raises(ValidationError):
            eigsh_smallest(a, 6)

    def test_sparse_input(self):
        a = _random_symmetric(20, seed=5)
        sp = scipy.sparse.csr_matrix(a)
        values, _ = eigsh_smallest(sp, 3)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a)[:3], atol=1e-8)


class TestEigshLargest:
    def test_values_descending(self):
        a = _random_symmetric(15, seed=6)
        values, vectors = eigsh_largest(a, 4)
        full = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(values, full[::-1][:4], atol=1e-10)
        np.testing.assert_allclose(a @ vectors, vectors * values, atol=1e-8)

    def test_agrees_with_negated_smallest(self):
        a = _random_symmetric(12, seed=7)
        large, _ = eigsh_largest(a, 3)
        small_of_neg, _ = eigsh_smallest(-a, 3)
        np.testing.assert_allclose(large, -small_of_neg, atol=1e-10)


class TestArpackFallback:
    """ARPACK non-convergence falls back to the dense path."""

    @pytest.fixture()
    def lanczos_always_fails(self, monkeypatch):
        # Make ARPACK "fail to converge" every time.
        def _no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: no convergence", np.array([]), np.array([])
            )

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _no_convergence)

    def test_smallest_falls_back_to_dense(self, lanczos_always_fails):
        a = _random_symmetric(20, seed=8)
        sp = scipy.sparse.csr_matrix(a)
        values, vectors = eigsh_smallest(sp, 3)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a)[:3], atol=1e-8)
        np.testing.assert_allclose(a @ vectors, vectors * values, atol=1e-8)

    def test_largest_falls_back_to_dense(self, lanczos_always_fails):
        a = _random_symmetric(20, seed=9)
        sp = scipy.sparse.csr_matrix(a)
        values, _ = eigsh_largest(sp, 3)
        np.testing.assert_allclose(
            values, np.linalg.eigvalsh(a)[::-1][:3], atol=1e-8
        )

    def test_fallback_counted(self, lanczos_always_fails):
        a = _random_symmetric(15, seed=10)
        sp = scipy.sparse.csr_matrix(a)
        trace = Trace("test")
        with use_trace(trace):
            eigsh_smallest(sp, 2)
        assert trace.metrics.counter("eigsh.arpack_fallback").value == 1.0

    def test_raises_numerical_error_when_dense_also_fails(
        self, lanczos_always_fails, monkeypatch
    ):
        def _dense_fails(*args, **kwargs):
            raise RuntimeError("LAPACK exploded")

        monkeypatch.setattr(eigen_mod, "_dense_extremal", _dense_fails)
        sp = scipy.sparse.csr_matrix(_random_symmetric(15, seed=11))
        with pytest.raises(NumericalError, match="dense fallback also failed"):
            eigsh_smallest(sp, 2)

    def test_no_fallback_counter_on_clean_run(self):
        a = _random_symmetric(12, seed=12)
        trace = Trace("test")
        with use_trace(trace):
            eigsh_smallest(a, 2)
        assert "eigsh.arpack_fallback" not in trace.metrics.counters


# --- sparse Lanczos route: seeded start, repeated eigenvalues ---------------


def _ring_with_chords(n, seed):
    """A connected weighted graph: a ring plus random chords."""
    rng = np.random.default_rng(seed)
    ring = np.arange(n)
    chords = rng.integers(0, n, size=(2, 2 * n))
    rows = np.r_[ring, chords[0]]
    cols = np.r_[(ring + 1) % n, chords[1]]
    w = scipy.sparse.csr_matrix(
        (rng.uniform(0.5, 1.5, rows.size), (rows, cols)), shape=(n, n)
    )
    w = (w + w.T).tolil()
    w.setdiag(0.0)
    return w.tocsr()


def _k_components():
    """kNN graph of three far-apart blobs: exactly 3 components."""
    rng = np.random.default_rng(6)
    x = np.vstack([rng.normal(size=(30, 3)) + 12.0 * i for i in range(3)])
    return sparse_knn_affinity(x, k=8), 3


def _identical_components():
    """Three copies of one graph: every eigenvalue is threefold."""
    block = _ring_with_chords(40, seed=4)
    return scipy.sparse.block_diag([block] * 3, format="csr"), 6


def _k_above_zero_multiplicity():
    """Three different graphs, two pairs past the threefold zero."""
    blocks = [_ring_with_chords(n, seed=n) for n in (30, 40, 50)]
    return scipy.sparse.block_diag(blocks, format="csr"), 5


REPEATED_SPECTRA = {
    "k_components": _k_components,
    "identical_components": _identical_components,
    "k_above_zero_multiplicity": _k_above_zero_multiplicity,
}

#: Agreement with dense LAPACK: float64 Lanczos to 1e-8, single-precision
#: Lanczos to its rounding (measured <= 1e-6 on these graphs).
LANCZOS_BOUNDS = {"numpy": 1e-8, "float32": 1e-5}


class TestLanczosRepeatedEigenvalues:
    """Sparse input goes to ARPACK; locking completes repeated eigenvalues."""

    @pytest.mark.parametrize("backend", sorted(LANCZOS_BOUNDS))
    @pytest.mark.parametrize("case", sorted(REPEATED_SPECTRA))
    @pytest.mark.parametrize("end", ["smallest", "largest"])
    def test_matches_dense(self, case, backend, end):
        w, k = REPEATED_SPECTRA[case]()
        n_components, _ = scipy.sparse.csgraph.connected_components(w)
        assert n_components == 3
        lap = sparse_laplacian(w)
        dense_values, dense_vectors = np.linalg.eigh(lap.toarray())
        assert dense_values[k] - dense_values[k - 1] > 1e-3, "gap at k"
        trace = Trace("test")
        with use_backend(backend), use_trace(trace):
            with collect_recoveries() as recoveries:
                if end == "smallest":
                    values, vectors = eigsh_smallest(lap, k)
                else:
                    values, vectors = eigsh_largest(-lap, k)
                    values = -values
        bound = LANCZOS_BOUNDS[backend]
        np.testing.assert_allclose(values, dense_values[:k], atol=bound)
        ref = dense_vectors[:, :k]
        assert np.max(np.abs(vectors @ vectors.T - ref @ ref.T)) < bound
        assert recoveries == []
        assert "eigsh.arpack_fallback" not in trace.metrics.counters
        assert trace.metrics.counter("eigsh.calls").value == 1.0

    def test_locking_swaps_in_missed_pairs(self, monkeypatch):
        """An ARPACK result missing two copies of a threefold zero is
        completed by two swaps against the outermost returned pairs."""
        w, _ = _k_above_zero_multiplicity()
        lap = sparse_laplacian(w)
        dense_values, dense_vectors = np.linalg.eigh(lap.toarray())
        backend = current_backend()
        solve = type(backend).eigsh_lanczos
        calls = []

        def one_zero_first(self, a, k, which, v0):
            calls.append(k)
            if len(calls) == 1:
                keep = [0, 3, 4, 5, 6]
                return dense_values[keep], dense_vectors[:, keep]
            return solve(self, a, k, which, v0)

        monkeypatch.setattr(type(backend), "eigsh_lanczos", one_zero_first)
        values, vectors = eigsh_smallest(lap, 5)
        assert calls == [5, 1, 1, 1]
        np.testing.assert_allclose(values, dense_values[:5], atol=1e-8)
        ref = dense_vectors[:, :5]
        assert np.max(np.abs(vectors @ vectors.T - ref @ ref.T)) < 1e-8

    def test_equal_copies_are_not_traded(self, monkeypatch):
        """A check value within rounding of the outermost returned one is
        another copy of that eigenvalue, not a missed pair."""
        lap = sparse_laplacian(_identical_components()[0])
        dense_values, dense_vectors = np.linalg.eigh(lap.toarray())
        calls = []

        def copy_rounded_low(self, a, k, which, v0):
            calls.append(k)
            if k == 1:
                return dense_values[[4]] - 1e-13, dense_vectors[:, [4]]
            return dense_values[:4].copy(), dense_vectors[:, :4].copy()

        monkeypatch.setattr(
            type(current_backend()), "eigsh_lanczos", copy_rounded_low
        )
        values, vectors = eigsh_smallest(lap, 4)
        assert calls == [4, 1]
        np.testing.assert_array_equal(values, dense_values[:4])
        np.testing.assert_array_equal(vectors, dense_vectors[:, :4])

    def test_unfinished_locking_goes_to_dense_fallback(self, monkeypatch):
        """A check that keeps finding a missed pair past k+1 swaps is a
        numerical failure: the policy falls back to the dense path."""
        lap = sparse_laplacian(_k_components()[0])
        n = lap.shape[0]
        calls = []

        def always_missing(self, a, k, which, v0):
            # Every check reports a pair below all returned so far.
            calls.append(k)
            rng = np.random.default_rng(len(calls))
            vectors = np.linalg.qr(rng.normal(size=(n, k)))[0]
            return np.full(k, -float(len(calls))), vectors

        monkeypatch.setattr(
            type(current_backend()), "eigsh_lanczos", always_missing
        )
        trace = Trace("test")
        with use_trace(trace):
            values, _ = eigsh_smallest(lap, 3)
        # Primary and one retry, each: the solve, then k+2 checks.
        assert calls == [3, 1, 1, 1, 1, 1] * 2
        assert trace.metrics.counter("eigsh.arpack_fallback").value == 1.0
        np.testing.assert_allclose(values, np.zeros(3), atol=1e-8)

    def test_repeated_large_solves_bit_identical(self):
        """The seeded start vector makes large sparse solves repeatable
        (ARPACK's own random start did not)."""
        n = 5000
        # Path-graph Laplacian plus a linear potential: well-separated
        # low end, so ARPACK converges in a fraction of a second.
        diagonal = np.r_[1.0, np.full(n - 2, 2.0), 1.0] + np.linspace(0, 4, n)
        off = -np.ones(n - 1)
        lap = scipy.sparse.diags([off, diagonal, off], [-1, 0, 1]).tocsr()
        first = eigsh_smallest(lap, 3)
        second = eigsh_smallest(lap, 3)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
