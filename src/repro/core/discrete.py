"""Discrete indicator learning: the rotation/assignment machinery.

The unified framework couples the continuous embedding ``F`` to a discrete
partition through the *scaled* indicator

``G(Y) = Y (Y^T Y)^{-1/2}``  —  column ``j`` of ``Y`` divided by
``sqrt(n_j)``, so ``G^T G = I`` and ``||G||_F^2 = c`` matches
``||F R||_F^2``.

Two solvers live here:

* :func:`indicator_coordinate_descent` — the exact Y-step.  Maximizing
  ``tr(R^T F^T G(Y)) = sum_j q_j / sqrt(n_j)`` (with ``q_j`` the sum of
  ``M = F R`` entries assigned to cluster ``j``) is not row-separable, so
  we run coordinate descent over rows with incremental column statistics,
  accepting only improving moves and never emptying a cluster.  Rows are
  screened in blocks: one vectorized step computes every block row's move
  gains from the current ``(q, n)``, and the first row that moves is
  applied before screening resumes after it.  The state changes only on
  an accepted move and the gains use the same elementwise float64
  formula, so labels and work counters equal those of a row-by-row loop.
  Cost: ``O(n c)`` per sweep plus ``O(B c)`` per accepted move for a
  block of ``B`` rows.
* :func:`rotation_initialize` — spectral-rotation initialization: from the
  eigenvector embedding, try several random rotations, alternate
  (rotation, assignment) to a fixed point, and keep the best.  This is the
  K-means-free analogue of discretization restarts.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.labels import indicator_from_labels, repair_empty_clusters
from repro.exceptions import RecoveryExhaustedError, ValidationError
from repro.linalg.procrustes import nearest_orthogonal
from repro.observability.trace import metric_inc, span
from repro.robust.faults import maybe_inject, register_fault_site
from repro.robust.policy import (
    RECOVERABLE_EXCEPTIONS,
    RecoveryEvent,
    matrix_context,
    record_recovery,
)
from repro.utils.rng import check_random_state
from repro.utils.validation import check_labels, check_matrix

_SITE_ROTATION = register_fault_site(
    "discrete.rotation",
    "one spectral-rotation restart (rotation_initialize)",
    modes=("raise", "delay"),
)


def scaled_indicator(labels: np.ndarray, n_clusters: int) -> np.ndarray:
    """The scaled indicator ``G = Y (Y^T Y)^{-1/2}`` from a label vector.

    Every cluster must be non-empty.
    """
    y = indicator_from_labels(labels, n_clusters)
    counts = y.sum(axis=0)
    if np.any(counts == 0):
        raise ValidationError("scaled indicator requires non-empty clusters")
    return y / np.sqrt(counts)[None, :]


def rotation_objective(m: np.ndarray, labels: np.ndarray, n_clusters: int) -> float:
    """``tr(R^T F^T G(Y)) = sum_j q_j / sqrt(n_j)`` for ``M = F R``."""
    m = check_matrix(m, "m")
    counts = np.bincount(labels, minlength=n_clusters).astype(np.float64)
    q = np.zeros(n_clusters)
    np.add.at(q, labels, m[np.arange(m.shape[0]), labels])
    safe = np.where(counts > 0, counts, 1.0)
    return float(np.sum(q / np.sqrt(safe)))


#: Rows screened per vectorized step of the Y-step.  A block with no
#: mover doubles the next one (up to :data:`_MAX_BLOCK`); an accepted
#: move resets it.  Any value gives the same labels.
_BLOCK = 32
_MAX_BLOCK = 1024


def indicator_coordinate_descent(
    m: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
    *,
    max_sweeps: int = 20,
) -> np.ndarray:
    """Exact Y-step: coordinate descent on ``max_Y sum_j q_j / sqrt(n_j)``.

    Rows are visited in order; each moves to the cluster with the largest
    gain when that gain exceeds ``1e-12`` and its own cluster keeps at
    least one row.  Rows are screened a block at a time: every row of the
    block gets its gains from the current ``(q, counts)`` in one
    vectorized step, and the first row that moves is applied before the
    screen resumes at the next row.  Rows before the mover would not have
    moved against the same state, so the result — labels and the
    ``y_step.moves`` / ``y_step.sweeps`` counters — is exactly that of a
    row-by-row loop.

    Parameters
    ----------
    m : ndarray of shape (n, c)
        The rotated embedding ``M = F R``.
    labels : array-like of int, shape (n,)
        Feasible starting assignment: integers in ``[0, c)``, every
        cluster non-empty.
    n_clusters : int
        Number of clusters ``c``.
    max_sweeps : int
        Full passes over the rows; stops early when a sweep changes
        nothing.

    Returns
    -------
    ndarray of int64, shape (n,)
        Improved assignment; objective never decreases, no cluster is ever
        emptied.
    """
    m = check_matrix(m, "m")
    n, c = m.shape
    if c != n_clusters:
        raise ValidationError(f"m must have {n_clusters} columns, got {c}")
    labels = check_labels(labels, n=n)
    if labels.min() < 0 or labels.max() >= c:
        raise ValidationError(
            f"labels must lie in [0, {c}), got values in "
            f"[{labels.min()}, {labels.max()}]"
        )
    counts = np.bincount(labels, minlength=c).astype(np.float64)
    if np.any(counts == 0):
        raise ValidationError("starting assignment must have no empty cluster")
    # own[i] = m[i, labels[i]]; q[j] = sum of m[i, j] over rows assigned to j.
    own = m[np.arange(n), labels]
    q = np.zeros(c)
    np.add.at(q, labels, own)
    block_rows = np.arange(_MAX_BLOCK)

    n_moves = 0
    n_sweeps = 0
    for n_sweeps in range(1, max_sweeps + 1):
        moved = False
        i = 0
        block = _BLOCK
        while i < n:
            j = min(i + block, n)
            a = labels[i:j]
            # Gain of moving each row from a to every b, with the scalar
            # loop's elementwise formula.  Singleton rows get a dummy
            # denominator; they are masked out below.
            base = q / np.sqrt(counts)
            down = np.sqrt(np.maximum(counts - 1.0, 1.0))
            gain = ((q[a] - own[i:j]) / down[a] - base[a])[:, None] + (
                (q + m[i:j]) / np.sqrt(counts + 1.0) - base
            )
            gain[block_rows[: j - i], a] = 0.0
            movers = np.flatnonzero((gain.max(axis=1) > 1e-12) & (counts[a] > 1.0))
            if movers.size == 0:
                i = j
                block = min(2 * block, _MAX_BLOCK)
                continue
            k = int(movers[0])
            row, src = i + k, a[k]
            dst = int(np.argmax(gain[k]))
            q[src] -= own[row]
            counts[src] -= 1.0
            own[row] = m[row, dst]
            q[dst] += own[row]
            counts[dst] += 1.0
            labels[row] = dst
            moved = True
            n_moves += 1
            i = row + 1
            block = _BLOCK
        if not moved:
            break
    metric_inc("y_step.moves", n_moves)
    metric_inc("y_step.sweeps", n_sweeps)
    return labels


def anchor_rotation(f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Yu-Shi style rotation seed from farthest-point-sampled rows of ``F``.

    Picks one row uniformly, then greedily adds the row least similar (in
    absolute cosine) to all chosen rows; the orthogonalized stack of those
    ``c`` rows aligns the rotation with actual data directions, which
    converges to better fixed points than Haar-random seeds (Yu & Shi,
    ICCV 2003).
    """
    f = check_matrix(f, "f")
    n, c = f.shape
    rows = f / np.maximum(np.linalg.norm(f, axis=1, keepdims=True), 1e-12)
    chosen = [int(rng.integers(n))]
    sim = np.abs(rows @ rows[chosen[0]])
    for _ in range(1, c):
        j = int(np.argmin(sim))
        chosen.append(j)
        sim = np.maximum(sim, np.abs(rows @ rows[j]))
    return nearest_orthogonal(rows[chosen].T)


def rotation_initialize(
    f: np.ndarray,
    n_clusters: int,
    *,
    n_restarts: int = 10,
    max_alt: int = 30,
    random_state=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral-rotation initialization of ``(R, labels)`` from an embedding.

    For each restart: seed an orthogonal rotation — alternating between
    Yu-Shi anchor-row seeds and Haar-random seeds — then alternate
    (assignment via coordinate descent, rotation via Procrustes) until the
    assignment stops changing.  The restart with the largest rotation
    objective wins.

    Parameters
    ----------
    f : ndarray of shape (n, c)
        Orthonormal spectral embedding.
    n_clusters : int
        Number of clusters ``c``.
    n_restarts : int
        Rotation restarts (odd restarts use anchor seeds, even use random).
    max_alt : int
        Alternation cap per restart.
    random_state : int, Generator, or None

    Returns
    -------
    (rotation, labels)
        The best ``(c, c)`` orthogonal rotation and its assignment.
    """
    f = check_matrix(f, "f")
    n, c = f.shape
    if c != n_clusters:
        raise ValidationError(f"f must have {n_clusters} columns, got {c}")
    if n_restarts < 1:
        raise ValidationError(f"n_restarts must be >= 1, got {n_restarts}")
    rng = check_random_state(random_state)

    best_obj = -np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None
    last_error = "no restart produced a finite rotation objective"
    with span("rotation_initialize", n_restarts=n_restarts, n=n, c=c):
        for restart in range(n_restarts):
            # A failing restart is skipped, not fatal: any surviving restart
            # still yields a feasible (R, Y) initialization.
            try:
                maybe_inject(_SITE_ROTATION)
                if restart % 2 == 0:
                    rot = anchor_rotation(f, rng)
                else:
                    qmat, rmat = np.linalg.qr(rng.normal(size=(c, c)))
                    rot = qmat * np.sign(np.diag(rmat))[None, :]
                scores = f @ rot
                labels = repair_empty_clusters(
                    np.argmax(scores, axis=1).astype(np.int64),
                    c,
                    scores=scores,
                    rng=rng,
                )
                prev = labels.copy()
                for _ in range(max_alt):
                    # Few sweeps per alternation: the outer loop re-polishes.
                    labels = indicator_coordinate_descent(
                        f @ rot, labels, c, max_sweeps=4
                    )
                    rot = nearest_orthogonal(f.T @ scaled_indicator(labels, c))
                    if np.array_equal(labels, prev):
                        break
                    prev = labels.copy()
                obj = rotation_objective(f @ rot, labels, c)
            except RECOVERABLE_EXCEPTIONS as exc:
                last_error = str(exc)
                record_recovery(
                    RecoveryEvent(
                        site=_SITE_ROTATION,
                        strategy="skip",
                        attempt=restart + 1,
                        error=last_error,
                        detail=f"restart {restart}",
                    )
                )
                continue
            if np.isfinite(obj) and obj > best_obj:
                best_obj = obj
                best = (rot, labels)
    if best is None:
        raise RecoveryExhaustedError(
            f"all {n_restarts} rotation restarts failed: {last_error}",
            site=_SITE_ROTATION,
            attempts=n_restarts,
            context=matrix_context(f, "f"),
        )
    return best
