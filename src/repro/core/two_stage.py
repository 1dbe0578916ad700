"""Two-stage ablation of the unified framework.

Identical graph pipeline, view weighting, and spectral-consensus term as
:class:`~repro.core.model.UnifiedMVSC` — auto-weighted affinity fusion with
joint normalization — but the embedding is discretized with K-means, the
status-quo pipeline the paper argues against.  Pairing the two isolates the
contribution of the one-stage discrete indicator learning (ablation A1 in
DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.kmeans import KMeans
from repro.core.config import UMSCConfig
from repro.core.graph_builder import build_laplacians, build_multiview_affinities
from repro.core.objective import spectral_costs
from repro.core.weights import fusion_multipliers, update_view_weights
from repro.exceptions import ValidationError
from repro.graph.fusion import fuse_affinities
from repro.graph.laplacian import laplacian
from repro.linalg.eigen import eigsh_smallest
from repro.utils.validation import check_symmetric


class TwoStageMVSC:
    """Two-stage multi-view spectral clustering (embedding + K-means).

    Stage 1 alternates the shared embedding ``F`` with the view weights
    (same fused-affinity updates as the unified framework, minus
    rotation/indicator); stage 2 row-normalizes ``F`` and runs K-means with
    ``n_init`` restarts.

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    gamma : float
        Weight-smoothing exponent for ``exponential`` weighting.
    weighting : {"exponential", "parameter_free", "uniform"}
        View-weighting regime.
    graph, n_neighbors : str, int
        Graph construction (see :class:`~repro.core.model.UnifiedMVSC`).
    max_iter : int
        Embedding/weight alternations.
    n_init : int
        K-means restarts in stage 2.
    random_state : int, Generator, or None
        Seeds the K-means stage.
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        consensus: float = 1.0,
        gamma: float = 2.0,
        weighting: str = "exponential",
        graph: str = "auto",
        n_neighbors: int = 10,
        max_iter: int = 10,
        n_init: int = 20,
        random_state=None,
    ) -> None:
        # Reuse UMSCConfig validation for the shared knobs.
        self.config = UMSCConfig(
            n_clusters=n_clusters,
            consensus=consensus,
            gamma=gamma,
            weighting=weighting,
            graph=graph,
            n_neighbors=n_neighbors,
            max_iter=max_iter,
        )
        if n_init < 1:
            raise ValidationError(f"n_init must be >= 1, got {n_init}")
        self.n_init = int(n_init)
        self.random_state = random_state

    def fit_predict(self, views) -> np.ndarray:
        """Cluster raw multi-view features; returns labels."""
        cfg = self.config
        affinities = build_multiview_affinities(
            views, kind=cfg.graph, n_neighbors=cfg.n_neighbors
        )
        return self.fit_affinities(affinities)

    def fit_affinities(self, affinities) -> np.ndarray:
        """Cluster precomputed per-view affinities; returns labels."""
        cfg = self.config
        affinities = [
            check_symmetric(w, f"affinities[{i}]") for i, w in enumerate(affinities)
        ]
        if not affinities:
            raise ValidationError("affinities must be non-empty")
        n = affinities[0].shape[0]
        if cfg.n_clusters > n:
            raise ValidationError(
                f"n_clusters={cfg.n_clusters} exceeds n_samples={n}"
            )
        f = self.embed(affinities)
        norms = np.linalg.norm(f, axis=1, keepdims=True)
        f = f / np.where(norms > 0, norms, 1.0)
        km = KMeans(cfg.n_clusters, n_init=self.n_init, random_state=self.random_state)
        return km.fit_predict(f)

    def embed(self, affinities) -> np.ndarray:
        """Stage 1: alternate the fused embedding with view weights."""
        cfg = self.config
        c = cfg.n_clusters
        view_laplacians = build_laplacians(affinities)
        n_views = len(affinities)
        if cfg.consensus > 0:
            view_bases = [eigsh_smallest(lap, c)[1] for lap in view_laplacians]
        else:
            view_bases = []
        w = np.full(n_views, 1.0 / n_views)
        f = None
        for _ in range(cfg.max_iter):
            multipliers = fusion_multipliers(
                w, mode=cfg.weighting, gamma=cfg.gamma
            )
            fused = fuse_affinities(affinities, multipliers, renormalize=True)
            operator = laplacian(fused)
            for m_v, u in zip(multipliers, view_bases):
                operator -= cfg.consensus * m_v * (u @ u.T)
            _, f = eigsh_smallest((operator + operator.T) / 2.0, c)
            h = spectral_costs(view_laplacians, f)
            if cfg.consensus > 0:
                disagreement = np.array(
                    [c - float(np.sum((u.T @ f) ** 2)) for u in view_bases]
                )
                h = h + cfg.consensus * np.maximum(disagreement, 0.0)
            new_w = update_view_weights(h, mode=cfg.weighting, gamma=cfg.gamma)
            if np.allclose(new_w, w, atol=1e-10):
                w = new_w
                break
            w = new_w
        assert f is not None
        return f
