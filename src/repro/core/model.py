"""The unified one-stage multi-view spectral clustering model (UMSC).

Solves

``min_{F,R,Y,w}  tr(F^T L(w) F) - beta sum_v m_v(w) ||U_v^T F||_F^2
                 + lam ||G(Y) - F R||_F^2``

where ``L(w)`` is the symmetric normalized Laplacian of the auto-weighted
fused affinity, ``U_v`` is view ``v``'s own spectral basis (bottom-``c``
eigenvectors of its normalized Laplacian, computed once), and
``G(Y) = Y (Y^T Y)^{-1/2}`` is the scaled discrete indicator (so the terms
live on comparable scales), subject to ``F^T F = I``, ``R^T R = I``, ``Y``
a cluster indicator matrix with no empty cluster, and ``w`` in the chosen
weighting regime.

The three ingredients the abstract's "unified" scheme integrates in one
stage: graph fusion (the ``L(w)`` term), per-view spectral consensus (the
``beta`` term — agreement between the shared embedding and each view's own
spectral subspace), and discrete indicator learning (the ``lam`` term —
the clustering is read off ``Y`` with no K-means).

Block coordinate descent; the F/R/Y blocks descend the objective exactly or
by a monotone inner solver, and the ``w`` block is the closed-form IRLS
reweighting of this literature (see :mod:`repro.core.objective`):

* ``F`` — generalized power iteration on the Stiefel manifold;
* ``R`` — orthogonal Procrustes (closed form);
* ``Y`` — coordinate descent with incremental column statistics (exact,
  monotone, never empties a cluster);
* ``w`` — closed form from the per-view spectral costs.

The final clustering is read directly off ``Y``: *no K-means stage
anywhere*, which is the paper's headline contribution.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict

import numpy as np

from repro.cluster.labels import indicator_from_labels
from repro.core.alternation import SITE_FIT, backend_ctx
from repro.core.config import UMSCConfig
from repro.core.discrete import (
    indicator_coordinate_descent,
    rotation_initialize,
    rotation_objective,
    scaled_indicator,
)
from repro.core.graph_builder import build_laplacians, build_multiview_affinities
from repro.core.objective import spectral_costs, umsc_objective
from repro.core.persistence import ServableModelMixin
from repro.core.result import UMSCResult
from repro.core.weights import fusion_multipliers, update_view_weights
from repro.exceptions import (
    ConvergenceWarning,
    MonotonicityWarning,
    RecoveryExhaustedError,
    ValidationError,
)
from repro.graph.laplacian import laplacian
from repro.linalg.eigen import eigsh_smallest
from repro.linalg.gpi import gpi_stiefel
from repro.observability.events import (
    FitDiagnostics,
    IterationEvent,
    dispatch_event,
)
from repro.observability.health import weight_entropy
from repro.observability.trace import (
    current_trace,
    metric_set,
    span,
    timed_block,
)
from repro.linalg.procrustes import nearest_orthogonal
from repro.robust.faults import maybe_inject, register_fault_site
from repro.robust.policy import (
    collect_recoveries,
    failure_guard,
    matrix_context,
    run_with_policy,
)
from repro.utils.rng import check_random_state
from repro.utils.validation import check_symmetric

_SITE_GPI_SOLVE = register_fault_site(
    "gpi.solve", "full F-step GPI solve (falls back to a plain eigensolve)"
)


class UnifiedMVSC(ServableModelMixin):
    """Unified (one-stage) multi-view spectral clustering.

    Parameters
    ----------
    n_clusters : int
        Number of clusters ``c``.
    lam : float
        Trade-off between the fused spectral term and the discretization
        term.  ``lam = 0`` degenerates into spectral rotation on the fused
        embedding (the embedding never feels the discrete labels).
    consensus : float
        Strength ``beta`` of the per-view spectral-consensus reward
        (0 disables; moderate values recover much of centroid
        co-regularization's robustness inside the one-stage scheme).
    gamma : float
        Weight-smoothing exponent (> 1) for the ``exponential`` regime;
        smaller values sharpen the view weighting.
    weighting : {"exponential", "parameter_free", "uniform"}
        View-weighting regime.
    graph : {"auto", "self_tuning", "gaussian", "cosine", "adaptive"}
        Affinity construction for :meth:`fit`; ignored by
        :meth:`fit_affinities`.
    n_neighbors : int
        Graph neighborhood size.
    max_iter : int
        Outer alternation cap.
    tol : float
        Relative objective-change stopping tolerance.
    n_restarts : int
        Random-rotation restarts in the initialization (the K-means-free
        analogue of discretization restarts).
    n_jobs : int or None
        Worker threads for per-view graph construction in :meth:`fit`;
        ``None`` defers to the ambient
        :func:`repro.pipeline.parallel.use_jobs` default (serial),
        ``-1`` uses every CPU.  Labels are bit-identical for any value.
    backend : str or None
        Compute backend for the hot kernels during :meth:`fit` /
        :meth:`fit_affinities` (``"numpy"``, ``"float32"``,
        ``"numba"``; see :mod:`repro.backends`).  ``None`` defers to the
        ambient backend.  The default numpy backend is bit-identical to
        earlier releases; alternates trade a documented tolerance for
        speed/memory.
    random_state : int, Generator, or None
        Seeds the rotation initialization (the only stochastic step).
    callbacks : sequence of FitCallback, optional
        Listeners receiving one structured
        :class:`~repro.observability.events.IterationEvent` per outer
        iteration (plus fit start/end hooks).  Iteration events also
        flow to the contextvar-active trace, if any; see
        :mod:`repro.observability`.

    Examples
    --------
    >>> from repro.datasets import make_multiview_blobs
    >>> ds = make_multiview_blobs(120, 3, view_dims=(10, 15), random_state=0)
    >>> model = UnifiedMVSC(n_clusters=3, random_state=0)
    >>> result = model.fit(ds.views)
    >>> sorted(set(result.labels.tolist()))
    [0, 1, 2]
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        lam: float = 1.0,
        consensus: float = 1.0,
        gamma: float = 2.0,
        weighting: str = "exponential",
        graph: str = "auto",
        n_neighbors: int = 10,
        max_iter: int = 50,
        tol: float = 1e-6,
        gpi_max_iter: int = 50,
        gpi_tol: float = 1e-8,
        n_restarts: int = 10,
        n_jobs: int | None = None,
        backend: str | None = None,
        random_state=None,
        callbacks=(),
    ) -> None:
        self.config = UMSCConfig(
            n_clusters=n_clusters,
            lam=lam,
            consensus=consensus,
            gamma=gamma,
            weighting=weighting,
            graph=graph,
            n_neighbors=n_neighbors,
            max_iter=max_iter,
            tol=tol,
            gpi_max_iter=gpi_max_iter,
            gpi_tol=gpi_tol,
            n_jobs=n_jobs,
            backend=backend,
        )
        if n_restarts < 1:
            raise ValidationError(f"n_restarts must be >= 1, got {n_restarts}")
        self.n_restarts = int(n_restarts)
        self.random_state = random_state
        self.callbacks = tuple(callbacks)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"{type(self).__name__}(n_clusters={cfg.n_clusters}, "
            f"lam={cfg.lam}, consensus={cfg.consensus}, "
            f"gamma={cfg.gamma}, weighting={cfg.weighting!r}, "
            f"graph={cfg.graph!r}, n_neighbors={cfg.n_neighbors}, "
            f"max_iter={cfg.max_iter}, tol={cfg.tol}, "
            f"n_restarts={self.n_restarts})"
        )

    def _serving_config(self) -> dict:
        return {**asdict(self.config), "n_restarts": self.n_restarts}

    def fit(self, views) -> UMSCResult:
        """Cluster raw multi-view features.

        Builds one graph per view with the configured recipe, then runs the
        unified optimization.

        Parameters
        ----------
        views : sequence of ndarray (n, d_v)
            Per-view feature matrices sharing rows.
        """
        cfg = self.config
        with backend_ctx(cfg.backend), collect_recoveries(), \
                failure_guard(SITE_FIT):
            with span("graph_build", kind=cfg.graph, n_views=len(views)):
                affinities = build_multiview_affinities(
                    views,
                    kind=cfg.graph,
                    n_neighbors=cfg.n_neighbors,
                    n_jobs=cfg.n_jobs,
                )
            result = self.fit_affinities(affinities)
        self._remember_fit(
            views,
            result.labels,
            result.view_weights,
            cfg.n_clusters,
            cfg.n_neighbors,
        )
        return result

    def fit_predict(self, views) -> np.ndarray:
        """Convenience: :meth:`fit` and return only the labels."""
        return self.fit(views).labels

    def fit_affinities(self, affinities) -> UMSCResult:
        """Run the unified optimization on precomputed per-view affinities.

        Parameters
        ----------
        affinities : sequence of ndarray (n, n)
            Symmetric non-negative per-view affinity matrices.

        Raises
        ------
        ReproError
            The only exception surface: invalid input raises
            :class:`~repro.exceptions.ValidationError`, and numerical
            failure that survives every recovery strategy raises
            :class:`~repro.exceptions.RecoveryExhaustedError` — a raw
            numpy/scipy exception never escapes.  Recovery actions taken
            along the way are recorded on ``result.diagnostics.recoveries``.
        """
        with backend_ctx(self.config.backend), \
                collect_recoveries() as recoveries, failure_guard(SITE_FIT):
            maybe_inject(SITE_FIT)
            return self._fit_affinities(affinities, recoveries)

    def _fit_affinities(self, affinities, recoveries: list) -> UMSCResult:
        """Body of :meth:`fit_affinities`, run under the failure guard."""
        cfg = self.config
        affinities = [
            check_symmetric(w, f"affinities[{i}]") for i, w in enumerate(affinities)
        ]
        if not affinities:
            raise ValidationError("affinities must be non-empty")
        n = affinities[0].shape[0]
        c = cfg.n_clusters
        if c > n:
            raise ValidationError(f"n_clusters={c} exceeds n_samples={n}")
        rng = check_random_state(self.random_state)
        dispatch_event(
            self.callbacks,
            "on_fit_start",
            {
                "solver": type(self).__name__,
                "n_samples": n,
                "n_views": len(affinities),
                "n_clusters": c,
            },
        )
        # Per-view Laplacians drive the weight update and supply the
        # spectral bases of the consensus term; the embedding operator is
        # the jointly normalized Laplacian of the fused affinity minus the
        # weighted per-view projectors.
        with span("view_laplacians", n_views=len(affinities)):
            view_laplacians = build_laplacians(affinities, n_jobs=cfg.n_jobs)
        n_views = len(affinities)
        if cfg.consensus > 0:
            with span("view_bases", n_views=n_views, k=c):
                view_bases = [
                    eigsh_smallest(lap, c)[1] for lap in view_laplacians
                ]
        else:
            view_bases = []

        # --- Initialization -------------------------------------------------
        with span("initialize", n_restarts=self.n_restarts):
            w = np.full(n_views, 1.0 / n_views)
            fused_lap = self._fused_operator(affinities, view_bases, w)
            _, f = eigsh_smallest(fused_lap, c)
            r, labels = rotation_initialize(
                f, c, n_restarts=self.n_restarts, random_state=rng
            )
            if current_trace() is not None and c + 1 <= n:
                # Numerical-health probe: the spectral gap behind the
                # embedding (lambda_{c+1} - lambda_c of the fused
                # operator).  One extra eigensolve, taken only under an
                # active trace; the fit state is untouched.
                gap_values, _ = eigsh_smallest(fused_lap, c + 1)
                metric_set(
                    "health.eigengap", float(gap_values[-1] - gap_values[-2])
                )

        history: list[float] = []
        events: list[IterationEvent] = []
        prev = np.inf
        rel_change: float | None = None
        converged = False
        n_iter = 0
        for n_iter in range(1, cfg.max_iter + 1):
            g = scaled_indicator(labels, c)
            block_seconds: dict[str, float] = {}
            gpi_iterations: int | None = None
            # F-step: quadratic problem on the Stiefel manifold (GPI).
            # With lam = 0 the subproblem is the plain eigenproblem of the
            # (reweighted) fused operator.
            with timed_block(
                block_seconds, "f_step", iteration=n_iter
            ) as f_span:
                if cfg.lam > 0:
                    f, gpi_iterations = self._solve_f_block(
                        fused_lap, g, r, f
                    )
                    if gpi_iterations is not None:
                        f_span.set(gpi_iterations=gpi_iterations)
                else:
                    _, f = eigsh_smallest(fused_lap, c)
            # R-step: orthogonal Procrustes.
            with timed_block(block_seconds, "r_step", iteration=n_iter):
                r = nearest_orthogonal(f.T @ g)
            # Y-step: exact coordinate descent on the scaled-indicator gain.
            # Restarted (R, Y)-step: also try fresh rotations on the current
            # embedding and keep the better pair.  Accept-only-if-better, so
            # the joint objective still descends monotonically.  Only the
            # early iterations benefit (labels are still mobile); skipping
            # it later keeps the per-iteration cost near the plain
            # spectral pipeline's.
            labels_before = labels
            with timed_block(
                block_seconds, "y_step", iteration=n_iter
            ) as y_span:
                labels = indicator_coordinate_descent(f @ r, labels, c)
                if n_iter <= 2:
                    r, labels = self._best_rotation_pair(f, r, labels, c, rng)
                label_moves = int(np.count_nonzero(labels != labels_before))
                y_span.set(label_moves=label_moves)
            if current_trace() is not None:
                # Numerical-health probe: how far the rotated embedding
                # sits from the discrete indicator it is chasing.
                metric_set(
                    "health.rotation_residual",
                    float(
                        np.linalg.norm(f @ r - scaled_indicator(labels, c))
                    ),
                )
            # The monotone F/R/Y block descent applies to the objective
            # under the weights the blocks just descended, so that value
            # is recorded before the w-step rebuilds the fused operator.
            with timed_block(block_seconds, "objective", iteration=n_iter):
                obj_pre = umsc_objective(
                    fused_lap, f, r, scaled_indicator(labels, c), lam=cfg.lam
                )
            # w-step: IRLS reweighting from the per-view costs (spectral
            # cost plus consensus disagreement, both non-negative).
            with timed_block(block_seconds, "w_step", iteration=n_iter):
                h = spectral_costs(view_laplacians, f)
                if cfg.consensus > 0:
                    disagreement = np.array(
                        [c - float(np.sum((u.T @ f) ** 2)) for u in view_bases]
                    )
                    h = h + cfg.consensus * np.maximum(disagreement, 0.0)
                w = update_view_weights(h, mode=cfg.weighting, gamma=cfg.gamma)
                if current_trace() is not None:
                    # Numerical-health probe: view-weight concentration
                    # (0 = one view dominates, the degeneracy the
                    # weight-collapse rule watches).
                    metric_set("health.weight_entropy", weight_entropy(w))
                fused_lap = self._fused_operator(affinities, view_bases, w)

            with timed_block(block_seconds, "objective", iteration=n_iter):
                obj = umsc_objective(
                    fused_lap, f, r, scaled_indicator(labels, c), lam=cfg.lam
                )
            if not (np.isfinite(obj) and np.isfinite(obj_pre)):
                raise RecoveryExhaustedError(
                    f"objective became non-finite at iteration {n_iter} "
                    f"(pre-reweight {obj_pre!r}, recorded {obj!r})",
                    site=SITE_FIT,
                    attempts=n_iter,
                    context=matrix_context(fused_lap, "fused_lap"),
                )
            scale = max(abs(obj), 1.0)
            rel_change = (
                abs(prev - obj) / scale if np.isfinite(prev) else None
            )
            if history:
                tol_band = cfg.tol * max(abs(history[-1]), 1.0)
                if obj_pre > history[-1] + tol_band:
                    warnings.warn(
                        f"UnifiedMVSC objective increased at iteration "
                        f"{n_iter} before reweighting "
                        f"({history[-1]:.6g} -> {obj_pre:.6g}): the "
                        f"monotone F/R/Y block descent was violated",
                        MonotonicityWarning,
                        stacklevel=2,
                    )
                elif obj > history[-1] + tol_band:
                    warnings.warn(
                        f"UnifiedMVSC recorded objective increased at "
                        f"iteration {n_iter} ({history[-1]:.6g} -> "
                        f"{obj:.6g}) due to the w-step reweighting; the "
                        f"pre-reweighting value {obj_pre:.6g} still "
                        f"descended (see result.diagnostics)",
                        MonotonicityWarning,
                        stacklevel=2,
                    )
            history.append(obj)
            event = IterationEvent(
                solver=type(self).__name__,
                iteration=n_iter,
                objective=obj,
                objective_pre_reweight=obj_pre,
                rel_change=rel_change,
                block_seconds=block_seconds,
                gpi_iterations=gpi_iterations,
                label_moves=label_moves,
                view_weights=tuple(float(x) for x in w),
            )
            events.append(event)
            dispatch_event(self.callbacks, "on_iteration", event)
            if abs(prev - obj) <= cfg.tol * scale:
                converged = True
                break
            prev = obj

        dispatch_event(
            self.callbacks,
            "on_fit_end",
            {
                "solver": type(self).__name__,
                "n_iter": n_iter,
                "converged": converged,
                "objective": history[-1] if history else float("nan"),
            },
        )
        if not converged:
            last_rel = "n/a" if rel_change is None else f"{rel_change:.3e}"
            warnings.warn(
                f"UnifiedMVSC stopped after max_iter={cfg.max_iter} without "
                f"meeting tol={cfg.tol}: last relative objective change "
                f"{last_rel}, last objective "
                f"{history[-1] if history else float('nan'):.6g}",
                ConvergenceWarning,
                stacklevel=2,
            )

        return UMSCResult(
            labels=labels,
            indicator=indicator_from_labels(labels, c),
            embedding=f,
            rotation=r,
            view_weights=w,
            objective_history=history,
            n_iter=n_iter,
            converged=converged,
            diagnostics=FitDiagnostics(
                events=tuple(events), recoveries=tuple(recoveries)
            ),
        )

    def _solve_f_block(
        self,
        fused_lap: np.ndarray,
        g: np.ndarray,
        r: np.ndarray,
        f: np.ndarray,
    ) -> tuple[np.ndarray, int | None]:
        """F-step under the failure policy: GPI, retried, then eigensolve.

        The primary is the plain GPI solve (bit-identical to calling
        :func:`~repro.linalg.gpi.gpi_stiefel` directly); retries re-run it
        from a deterministically perturbed warm start, and the fallback
        drops the linear coupling term and takes the bottom eigenvectors
        of the fused operator (the ``lam = 0`` subproblem), which always
        yields a feasible Stiefel point.

        Returns
        -------
        (f, gpi_iterations)
            New embedding and inner iteration count (``None`` when the
            eigensolve fallback produced ``f``).
        """
        cfg = self.config
        n, c = f.shape
        b = cfg.lam * (g @ r.T)

        def primary(perturb: float) -> tuple[np.ndarray, int | None]:
            f0 = f if perturb == 0.0 else nearest_orthogonal(
                f + perturb * np.eye(n, c)
            )
            gpi = gpi_stiefel(
                fused_lap,
                b,
                f0=f0,
                max_iter=cfg.gpi_max_iter,
                tol=cfg.gpi_tol,
            )
            return gpi.f, gpi.n_iter

        def eigensolve() -> tuple[np.ndarray, int | None]:
            return eigsh_smallest(fused_lap, c)[1], None

        return run_with_policy(
            _SITE_GPI_SOLVE,
            primary,
            fallbacks=(("eigsh", eigensolve),),
            context=lambda: matrix_context(fused_lap, "fused_lap"),
        )

    @staticmethod
    def _best_rotation_pair(
        f: np.ndarray,
        r: np.ndarray,
        labels: np.ndarray,
        c: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Keep the better of the current ``(R, Y)`` and a fresh restart.

        For fixed ``F``, the (R, Y) blocks enter the objective only through
        ``-2 lam tr(R^T F^T G(Y))``, so comparing
        :func:`~repro.core.discrete.rotation_objective` values picks the
        pair with the lower joint objective.
        """
        current = rotation_objective(f @ r, labels, c)
        cand_r, cand_labels = rotation_initialize(
            f, c, n_restarts=3, random_state=rng
        )
        candidate = rotation_objective(f @ cand_r, cand_labels, c)
        if candidate > current + 1e-12:
            return cand_r, cand_labels
        return r, labels

    def _fused_operator(
        self, affinities, view_bases, w: np.ndarray
    ) -> np.ndarray:
        """Embedding operator: fused Laplacian minus weighted projectors.

        ``A(w) = L(W(w)) - beta * sum_v m_v U_v U_v^T`` with normalized
        multipliers ``m``; symmetric (possibly indefinite), which both the
        eigensolver and GPI handle.
        """
        cfg = self.config
        multipliers = fusion_multipliers(w, mode=cfg.weighting, gamma=cfg.gamma)
        # Manual weighted sum: the affinities were validated once at entry,
        # and this runs every outer iteration.
        fused = multipliers[0] * affinities[0]
        for m_v, w_v in zip(multipliers[1:], affinities[1:]):
            fused = fused + m_v * w_v
        operator = laplacian(fused, normalization="symmetric")
        if cfg.consensus > 0:
            for m_v, u in zip(multipliers, view_bases):
                operator -= cfg.consensus * m_v * (u @ u.T)
        return (operator + operator.T) / 2.0
