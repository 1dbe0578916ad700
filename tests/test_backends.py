"""The pluggable compute-backend layer (:mod:`repro.backends`).

Three contracts are pinned here:

* **Registry/selection** — ``use_backend`` / ``REPRO_BACKEND`` / default
  resolution order, eager rejection of unknown names, cache-key
  segregation between backends.
* **numpy bit-identity** — the default backend is the pre-backend code
  moved verbatim, so every kernel's output is pinned against blake2b
  hashes captured *before* the refactor.  A hash mismatch here means the
  default numerical contract changed — that is a bug, not a tolerance
  question.
* **Alternate-backend equivalence** — float32 (and numba, when
  installed) agree with numpy within each backend's documented
  ``tolerance`` on every kernel and produce identical clusterings
  (ARI 1.0) end to end.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.backends import (
    ArrayBackend,
    available_backends,
    current_backend,
    get_backend,
    use_backend,
)
from repro.cluster.labels import relabel_consecutive
from repro.exceptions import ValidationError
from repro.graph.affinity import (
    cosine_affinity,
    gaussian_affinity,
    self_tuning_affinity,
)
from repro.graph.distance import (
    pairwise_cosine_distances,
    pairwise_sq_euclidean,
)
from repro.graph.knn import kneighbors
from repro.linalg.eigen import eigsh_smallest, sorted_eigh
from repro.robust import FaultSpec, inject_faults
from repro.serving.predictor import kernel_vote_scores


def _digest(*arrays) -> str:
    """blake2b over shape/dtype/bytes — the pre-refactor pinning scheme."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}:{a.dtype.str}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _fixtures() -> dict:
    """Small deterministic inputs, including degenerate shapes.

    The generator consumption order is load-bearing: these must match
    the script that captured :data:`PRE_REFACTOR_HASHES` byte for byte.
    """
    rng = np.random.default_rng(0)
    blobs = np.vstack(
        [rng.normal(size=(12, 6)), rng.normal(size=(12, 6)) + 6.0]
    )
    zero_rows = blobs.copy()
    zero_rows[[2, 17]] = 0.0
    dup = blobs.copy()
    dup[5] = dup[4]
    dup[19] = dup[4]
    single = rng.normal(size=(18, 4)) * 0.05 + 3.0
    return {
        "blobs": blobs,
        "zero_rows": zero_rows,
        "duplicated": dup,
        "single_cluster": single,
    }


#: Captured on the pre-backend code (commit a6f1611) with the script in
#: this file's history; the numpy backend must reproduce every one.
PRE_REFACTOR_HASHES = {
    "cosine/blobs": "1f38eb4df145d6e8296c84bff6092dae",
    "cosine/duplicated": "11d90b55a49b44cf289060f34b45e472",
    "cosine/single_cluster": "5908ed25640577a9f082d3885b7da0a8",
    "cosine/zero_rows": "56d985512da171b8dd73c027313c657f",
    "cosine_dist/blobs": "b37bcaa0acfe12c75a8553efb2bb6fc5",
    "cosine_dist/duplicated": "e4eae05c8b41cab71690a7f5239444ec",
    "cosine_dist/single_cluster": "fb2f3c3687010fce5d0176a322a0b992",
    "cosine_dist/zero_rows": "fd328aaade5fa3c88e4c7c7f826208f8",
    "eigsh_smallest/blobs": "22ffd06e080637ab0e25d94f2db9866c",
    "gaussian/blobs": "1a5bf76042956fd440adb5f3945196c8",
    "gaussian/duplicated": "2d04eedb58fa215bf2d896df44fcea80",
    "gaussian/single_cluster": "95c8271aaa5c9461648ac5022e9e1f63",
    "gaussian/zero_rows": "e748ef1eae5c5ddf96b1696554bddfd0",
    "knn/blobs": "19f9a0112a1da9d3c69e43859475d9c6",
    "knn/duplicated": "c4087898720d49cdc6dd526c0616c6da",
    "knn/single_cluster": "c64a68dafef0e872b86567383d21b1a9",
    "knn/zero_rows": "19a0a94afbcdd4060d00b650380126cb",
    "self_tuning/blobs": "30e49eb313a08934d313299a692c22b2",
    "self_tuning/duplicated": "570d3f7c5254ba54952cbdf87935edf4",
    "self_tuning/single_cluster": "858d505f5fa50e73dcaceb24993930dd",
    "self_tuning/zero_rows": "5c33b81711cec19744910ea02a9b6c24",
    "sorted_eigh/blobs": "5e5c4e33f07481572428ebe529f72b4f",
    "sq_euclidean/blobs": "1cc3a2227b95e4f653ced3ea24bbc839",
    "sq_euclidean/duplicated": "f50bfb4f4a0f9fda748160568a24e03f",
    "sq_euclidean/single_cluster": "f8667b23edb4e687a2df07761525e918",
    "sq_euclidean/zero_rows": "5fd025276c85b63762a869e7b6b7022e",
    "umsc_embedding_abs": "16276292ec0212a6443c0f493ebd6826",
    "umsc_labels": "60e097bf854a7a3f12be1982da3d4dc3",
    "vote/blobs": "e00cfbb50a153f499a0406e40d9131cf",
}

#: Labels of every other Y-step caller on one small blobs set, captured
#: on the row-by-row coordinate-descent loop before the block-screened
#: rewrite; the rewrite must reproduce them bit for bit.
#: ``sparse_labels`` is the sparse fit with its eigensolves on the dense
#: LAPACK path, which a persistent ``eigen.lanczos`` fault forces;
#: ``sparse_lanczos_labels`` is the same fit on its ARPACK route,
#: captured when sparse input stopped being densified.
#: ``anchor_stream_refit_labels`` (three ``partial_fit`` batches, then
#: ``partial_refit``) was captured on the full-spectrum anchor F-step,
#: before warm F-steps moved to the top-``c + 1`` subset solve.
Y_STEP_LABEL_HASHES = {
    "anchor_labels": "a785568e544c51f7f2aa59d60c10dc99",
    "sparse_labels": "b334ee48799ac78eb2c234891e00ff08",
    "sparse_lanczos_labels": "d66459487111b64b8c8f87dcee7629c6",
    "anchor_partial_fit_labels": "51a6f4719037d03e546c0b042566fb6f",
    "anchor_stream_refit_labels": "55afcbfac0e4ca5ba96cff2258418411",
    "awp_labels": "b2b9fcd8b62eb58612cfbe6b0d220cd4",
}


def _y_step_labels(name: str) -> np.ndarray:
    """Fit the caller pinned under ``name`` and return its labels."""
    from repro import AnchorMVSC, SparseMVSC, make_multiview_blobs
    from repro.baselines.awp import AWP

    ds = make_multiview_blobs(
        240, 4, view_dims=(8, 12), separation=2.5, random_state=0
    )
    if name == "anchor_labels":
        return AnchorMVSC(4, random_state=0).fit_predict(ds.views)
    if name == "sparse_labels":
        with inject_faults(FaultSpec("eigen.lanczos", times=None)):
            return SparseMVSC(4, random_state=0).fit_predict(ds.views)
    if name == "sparse_lanczos_labels":
        return SparseMVSC(4, random_state=0).fit_predict(ds.views)
    if name == "anchor_partial_fit_labels":
        model = AnchorMVSC(4, random_state=0)
        model.partial_fit([v[:160] for v in ds.views])
        return model.partial_fit([v[160:] for v in ds.views])
    if name == "anchor_stream_refit_labels":
        model = AnchorMVSC(4, random_state=0)
        for lo, hi in ((0, 160), (160, 200), (200, 240)):
            model.partial_fit([v[lo:hi] for v in ds.views])
        return model.partial_refit()
    return AWP(4, random_state=0).fit_predict(ds.views)


#: Exact median-heuristic bandwidths from the pre-refactor masked-median
#: code; the mask-free :func:`repro.graph.affinity._median_offdiag` must
#: reproduce them bit for bit.
PRE_REFACTOR_SIGMAS = {
    "blobs": 12.434147276781045,
    "zero_rows": 12.434147276781045,
    "duplicated": 12.375566856625621,
    "single_cluster": 0.12459311588166148,
}


def _kernel_hashes() -> dict:
    """Every pinned kernel output under the currently active backend."""
    fixtures = _fixtures()
    out = {}
    for name, x in fixtures.items():
        out[f"gaussian/{name}"] = _digest(gaussian_affinity(x))
        out[f"self_tuning/{name}"] = _digest(self_tuning_affinity(x, k=5))
        out[f"cosine/{name}"] = _digest(cosine_affinity(x))
        out[f"sq_euclidean/{name}"] = _digest(pairwise_sq_euclidean(x))
        out[f"cosine_dist/{name}"] = _digest(pairwise_cosine_distances(x))
        idx, dd = kneighbors(np.sqrt(pairwise_sq_euclidean(x)), 4)
        out[f"knn/{name}"] = _digest(idx, dd)
    blobs = fixtures["blobs"]
    d2 = pairwise_sq_euclidean(blobs)
    labels = np.repeat([0, 1], 12).astype(np.int64)
    out["vote/blobs"] = _digest(kernel_vote_scores(d2, labels, 2, 5))
    w = gaussian_affinity(blobs)
    vals, vecs = sorted_eigh(w)
    out["sorted_eigh/blobs"] = _digest(vals, np.abs(vecs))
    vals, vecs = eigsh_smallest(w, 3)
    out["eigsh_smallest/blobs"] = _digest(vals, np.abs(vecs))
    return out


# --- registry and selection ------------------------------------------------


class TestSelection:
    """Backend registry, precedence, and error behavior."""

    def test_default_is_numpy(self):
        assert current_backend().name == "numpy"
        assert current_backend().compute_dtype == np.float64

    def test_available_backends_lists_default_first(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert set(names) == {"numpy", "float32", "numba"}

    def test_get_backend_resolves_names_and_instances(self):
        b = get_backend("float32")
        assert b.name == "float32"
        assert get_backend(b) is b

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            get_backend("float16")

    def test_use_backend_nests_and_restores(self):
        assert current_backend().name == "numpy"
        with use_backend("float32") as b:
            assert current_backend() is b
            with use_backend("numpy"):
                assert current_backend().name == "numpy"
            assert current_backend().name == "float32"
        assert current_backend().name == "numpy"

    @pytest.fixture
    def no_ambient_pin(self):
        """Clear any enclosing ``use_backend`` so the env var is reachable.

        The suite-wide conftest fixture pins numpy through the contextvar
        whenever ``REPRO_BACKEND`` is set (the float32 CI leg); these two
        tests probe the env-var tier underneath that pin.
        """
        from repro.backends import _ACTIVE

        token = _ACTIVE.set(None)
        yield
        _ACTIVE.reset(token)

    def test_env_var_resolution(self, monkeypatch, no_ambient_pin):
        monkeypatch.setenv("REPRO_BACKEND", "float32")
        assert current_backend().name == "float32"
        # An enclosing use_backend still wins over the environment.
        with use_backend("numpy"):
            assert current_backend().name == "numpy"

    def test_env_var_unknown_raises(self, monkeypatch, no_ambient_pin):
        monkeypatch.setenv("REPRO_BACKEND", "no_such_backend")
        with pytest.raises(ValidationError, match="unknown backend"):
            current_backend()

    def test_backends_are_arraybackend_instances(self):
        for name in available_backends():
            assert isinstance(get_backend(name), ArrayBackend)

    def test_model_param_rejects_unknown_backend_eagerly(self):
        from repro import AnchorMVSC, SparseMVSC, UnifiedMVSC

        for cls in (UnifiedMVSC, AnchorMVSC, SparseMVSC):
            with pytest.raises(ValidationError, match="unknown backend"):
                cls(2, backend="no_such_backend")


class TestCacheKeys:
    """Backend identity must segregate computation-cache entries."""

    def test_cache_key_differs_across_backends(self):
        from repro.pipeline.cache import cache_key

        x = np.ones((4, 3))
        default_key = cache_key("affinity", arrays=(x,), params={"k": 2})
        with use_backend("float32"):
            f32_key = cache_key("affinity", arrays=(x,), params={"k": 2})
        assert default_key != f32_key

    def test_numba_fallback_token_matches_numpy(self):
        # Without numba installed the backend computes with the numpy
        # kernels, so its cached results are interchangeable and must
        # share the numpy token; with numba installed they are not.
        numba_backend = get_backend("numba")
        numpy_token = get_backend("numpy").cache_token()
        if numba_backend.available:
            assert numba_backend.cache_token() != numpy_token
        else:
            assert numba_backend.cache_token() == numpy_token


# --- numpy bit-identity ----------------------------------------------------


class TestNumpyBitIdentity:
    """The default backend reproduces the pre-refactor bytes exactly."""

    def test_kernel_hashes_match_pre_refactor(self):
        assert _kernel_hashes() == {
            k: v
            for k, v in PRE_REFACTOR_HASHES.items()
            if not k.startswith("umsc_")
        }

    def test_median_heuristic_sigma_bit_identical(self):
        # The mask-free off-diagonal median must agree bit for bit with
        # the old boolean-mask implementation it replaced.
        from repro.graph.affinity import _median_offdiag

        for name, x in _fixtures().items():
            d2 = pairwise_sq_euclidean(x)
            med = _median_offdiag(d2)
            sigma = np.sqrt(med) if med > 0 else 1.0
            assert float(sigma) == PRE_REFACTOR_SIGMAS[name], name

    @pytest.mark.slow
    def test_umsc_fit_bit_identical(self):
        from repro import UnifiedMVSC, make_multiview_blobs

        ds = make_multiview_blobs(120, 3, view_dims=(10, 15), random_state=0)
        res = UnifiedMVSC(3, random_state=0).fit(ds.views)
        assert _digest(res.labels) == PRE_REFACTOR_HASHES["umsc_labels"]
        assert (
            _digest(np.abs(res.embedding))
            == PRE_REFACTOR_HASHES["umsc_embedding_abs"]
        )

    @pytest.mark.parametrize("name", sorted(Y_STEP_LABEL_HASHES))
    def test_y_step_caller_labels_bit_identical(self, name):
        assert _digest(_y_step_labels(name)) == Y_STEP_LABEL_HASHES[name]

    def test_sparse_routes_give_one_partition(self):
        # The Lanczos and dense eigensolver routes may order the cluster
        # ids differently, never the rows' grouping.
        lanczos = _y_step_labels("sparse_lanczos_labels")
        dense = _y_step_labels("sparse_labels")
        np.testing.assert_array_equal(
            relabel_consecutive(lanczos), relabel_consecutive(dense)
        )


# --- alternate-backend equivalence ----------------------------------------

ALTERNATES = ["float32", "numba"]


def _assert_close(ref, alt, tol, label):
    ref = np.asarray(ref, dtype=np.float64)
    alt = np.asarray(alt, dtype=np.float64)
    assert ref.shape == alt.shape, label
    scale = max(1.0, float(np.max(np.abs(ref))))
    np.testing.assert_allclose(
        alt, ref, atol=max(tol, 1e-15) * scale, rtol=tol + 1e-12, err_msg=label
    )


@pytest.mark.parametrize("name", ALTERNATES)
class TestBackendEquivalence:
    """Each alternate agrees with numpy within its documented tolerance."""

    def test_affinity_kernels_within_tolerance(self, name):
        backend = get_backend(name)
        for fx_name, x in _fixtures().items():
            for kernel, kwargs in (
                (gaussian_affinity, {}),
                (self_tuning_affinity, {"k": 5}),
                (cosine_affinity, {}),
            ):
                ref = kernel(x, **kwargs)
                with use_backend(name):
                    alt = kernel(x, **kwargs)
                _assert_close(
                    ref,
                    alt,
                    backend.tolerance,
                    f"{kernel.__name__}/{fx_name}/{name}",
                )

    def test_float32_outputs_stay_float32(self, name):
        if name != "float32":
            pytest.skip("dtype contract is float32-specific")
        x = _fixtures()["blobs"]
        with use_backend("float32"):
            assert gaussian_affinity(x).dtype == np.float32
            assert self_tuning_affinity(x, k=5).dtype == np.float32
            assert pairwise_sq_euclidean(x).dtype == np.float32
            # Eigensolvers and the vote always hand back float64 so the
            # solver/rotation/assignment layers keep their contract.
            w = gaussian_affinity(np.asarray(x, dtype=np.float64))
            vals, vecs = sorted_eigh(w)
            assert vals.dtype == np.float64 and vecs.dtype == np.float64

    def test_knn_same_neighbor_sets(self, name):
        for fx_name, x in _fixtures().items():
            d = np.sqrt(pairwise_sq_euclidean(x))
            idx_ref, _ = kneighbors(d, 4)
            with use_backend(name):
                idx_alt, _ = kneighbors(d, 4)
            # Ties may order differently across dtypes; the neighbor
            # *sets* must match row by row on these well-separated
            # fixtures.
            assert idx_ref.shape == idx_alt.shape
            same = [
                set(a) == set(b) for a, b in zip(idx_ref, idx_alt)
            ]
            assert all(same), f"knn/{fx_name}/{name}"

    def test_vote_scores_within_tolerance(self, name):
        backend = get_backend(name)
        x = _fixtures()["blobs"]
        d2 = pairwise_sq_euclidean(x)
        labels = np.repeat([0, 1], 12).astype(np.int64)
        ref = kernel_vote_scores(d2, labels, 2, 5)
        with use_backend(name):
            alt = kernel_vote_scores(d2, labels, 2, 5)
        assert alt.dtype == np.float64
        _assert_close(ref, alt, backend.tolerance, f"vote/{name}")

    def test_end_to_end_labels_identical(self, name, small_dataset):
        from repro import AnchorMVSC, UnifiedMVSC, evaluate_clustering

        c = small_dataset.n_clusters
        views = small_dataset.views

        def same(ref, alt):
            ari = evaluate_clustering(ref, alt, metrics=("ari",))["ari"]
            assert ari == 1.0

        same(
            UnifiedMVSC(c, random_state=0).fit_predict(views),
            UnifiedMVSC(c, random_state=0, backend=name).fit_predict(views),
        )
        # The anchor cold fit, then a fold-in whose warm F-steps run the
        # subset eigensolve in the backend's compute dtype.
        ref = AnchorMVSC(c, random_state=0)
        alt = AnchorMVSC(c, random_state=0, backend=name)
        for model in (ref, alt):
            model.partial_fit([v[:60] for v in views])
        same(ref.labels_, alt.labels_)
        same(
            ref.partial_fit([v[60:] for v in views]),
            alt.partial_fit([v[60:] for v in views]),
        )


class TestNumbaBackend:
    """The optional backend must degrade gracefully when numba is absent."""

    def test_importable_and_selectable_without_numba(self):
        backend = get_backend("numba")
        with use_backend("numba"):
            w = gaussian_affinity(_fixtures()["blobs"])
        assert w.dtype == np.float64
        if not backend.available:
            # Pure fallback: bit-identical to the numpy backend.
            assert _digest(w) == _digest(gaussian_affinity(_fixtures()["blobs"]))

    def test_jitted_kernels_match_numpy(self):
        backend = get_backend("numba")
        if not backend.available:
            pytest.skip("numba not installed")
        x = _fixtures()["blobs"]
        ref = self_tuning_affinity(x, k=5)
        with use_backend("numba"):
            alt = self_tuning_affinity(x, k=5)
        _assert_close(ref, alt, backend.tolerance, "numba/self_tuning")


class TestPredictorBackend:
    """The serving layer's ``backend=`` parameter scopes scoring."""

    def test_predict_labels_match_across_backends(self, small_dataset):
        from repro import UnifiedMVSC
        from repro.serving import Predictor

        model = UnifiedMVSC(small_dataset.n_clusters, random_state=0)
        model.fit(small_dataset.views)
        artifact = model.to_artifact()
        ref = Predictor(artifact).predict(small_dataset.views)
        alt = Predictor(artifact, backend="float32").predict(
            small_dataset.views
        )
        assert np.array_equal(ref, alt)

    def test_predictor_rejects_unknown_backend(self, small_dataset):
        from repro import UnifiedMVSC
        from repro.serving import Predictor

        model = UnifiedMVSC(small_dataset.n_clusters, random_state=0)
        model.fit(small_dataset.views)
        with pytest.raises(ValidationError, match="unknown backend"):
            Predictor(model.to_artifact(), backend="no_such_backend")


class TestRunnerBackend:
    """``run_experiment(backend=...)`` scopes the whole experiment."""

    def test_runner_backend_param(self, small_dataset):
        from repro import run_experiment

        results = run_experiment(
            small_dataset,
            methods=["UMSC"],
            n_runs=1,
            backend="float32",
            collect_phases=False,
        )
        assert results["UMSC"].scores["acc"].mean > 0.9
