"""The F/Y/w alternation engine of the scalable solvers.

:class:`~repro.core.sparse_model.SparseMVSC` and
:class:`~repro.core.anchor_model.AnchorMVSC` run one block descent at the
spectral-rotation end of the framework (no lam-coupling, so no R-block)
and differ only in how the graphs are stored.  Each hands
:func:`alternate` two callables: ``embed(multipliers, cold) -> F``, the
fused eigensolve, and ``view_costs(F) -> h``, the per-view W-step costs.
The engine owns the rest: the Y-step, the weight update, the objective
``sum_v m_v h_v``, the weight-entropy probe, the iteration events and the
stopping rule.

:class:`~repro.core.model.UnifiedMVSC` keeps its own loop (GPI F-step
coupled to ``Y``, R-block, restarted (R, Y) pairs) but shares the fit
plumbing here: the ``model.fit`` fault site and :func:`backend_ctx`.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.backends import use_backend
from repro.core.discrete import (
    indicator_coordinate_descent,
    rotation_initialize,
    scaled_indicator,
)
from repro.core.weights import fusion_multipliers, update_view_weights
from repro.linalg.procrustes import nearest_orthogonal
from repro.observability.events import IterationEvent, dispatch_event
from repro.observability.health import weight_entropy
from repro.observability.trace import current_trace, metric_set, timed_block
from repro.robust.faults import register_fault_site

SITE_FIT = register_fault_site(
    "model.fit",
    "whole UnifiedMVSC/AnchorMVSC/SparseMVSC fit body (outer guard)",
    modes=("raise", "delay"),
)


def backend_ctx(backend: str | None):
    """``use_backend(backend)``, or a no-op context for ``None``."""
    return nullcontext() if backend is None else use_backend(backend)


def alternate(
    embed,
    view_costs,
    model,
    *,
    labels: np.ndarray | None,
    w: np.ndarray,
    rng,
    max_iter: int,
    embedded: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Alternate F/Y/w steps until the view weights settle.

    ``model`` supplies ``n_clusters``, ``weighting``, ``gamma``,
    ``n_restarts`` and ``callbacks``.  ``labels=None`` cold-starts the
    Y-step with :func:`~repro.core.discrete.rotation_initialize`, which
    draws from ``rng``; ``embed`` is then called with ``cold=True``.
    ``embedded`` is ``F`` already solved under the starting ``w``: the
    first F-step reuses it.  Returns ``(labels, weights, objective,
    n_iter)``, the objective being that of the last iteration.
    """
    c = model.n_clusters
    objective = 0.0
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        block_seconds: dict[str, float] = {}
        with timed_block(block_seconds, "f_step", iteration=n_iter):
            multipliers = fusion_multipliers(
                w, mode=model.weighting, gamma=model.gamma
            )
            if embedded is None:
                embedded = embed(multipliers, labels is None)
            f, embedded = embedded, None
        labels_before = labels
        with timed_block(block_seconds, "y_step", iteration=n_iter):
            if labels is None:
                _, labels = rotation_initialize(
                    f, c, n_restarts=model.n_restarts, random_state=rng
                )
            else:
                rot = nearest_orthogonal(f.T @ scaled_indicator(labels, c))
                labels = indicator_coordinate_descent(f @ rot, labels, c)
        label_moves = (
            None
            if labels_before is None
            else int(np.count_nonzero(labels != labels_before))
        )
        with timed_block(block_seconds, "w_step", iteration=n_iter):
            h = np.maximum(view_costs(f), 0.0)
            new_w = update_view_weights(
                h, mode=model.weighting, gamma=model.gamma
            )
            if current_trace() is not None:
                # Numerical-health probe (see the weight-collapse rule).
                metric_set("health.weight_entropy", weight_entropy(new_w))
        objective = float(np.dot(multipliers, h))
        weights_converged = np.allclose(new_w, w, atol=1e-10)
        w = new_w
        dispatch_event(
            model.callbacks,
            "on_iteration",
            IterationEvent(
                solver=type(model).__name__,
                iteration=n_iter,
                objective=objective,
                block_seconds=block_seconds,
                label_moves=label_moves,
                view_weights=tuple(float(x) for x in w),
            ),
        )
        if weights_converged:
            break
    assert labels is not None
    return labels, w, objective, n_iter
