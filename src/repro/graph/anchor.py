"""Anchor graphs: linear-time approximate affinities for large n.

The abstract motivates multi-view clustering with big data; dense n x n
graphs are the scalability bottleneck.  Anchor graphs (Liu, He & Chang,
ICML 2010) fix this: pick ``m << n`` anchor points, connect every sample to
its ``k`` nearest anchors with CAN-style closed-form weights, and represent
the affinity implicitly as

``W = Z Lambda^{-1} Z^T``,  ``Lambda = diag(Z^T 1)``

with row-stochastic ``Z`` of shape ``(n, m)``.  Because ``W``'s rows sum to
1, its normalized adjacency is ``W`` itself, and its spectral embedding is
obtained from the SVD of ``B = Z Lambda^{-1/2}`` in ``O(n m^2)`` — no n x n
matrix ever materializes.
"""

from __future__ import annotations

import numpy as np

from repro.backends import current_backend
from repro.exceptions import ValidationError
from repro.graph.distance import pairwise_sq_euclidean
from repro.linalg.eigen import eigsh_largest
from repro.utils.rng import check_random_state
from repro.utils.validation import check_matrix


def select_anchors(
    x: np.ndarray,
    n_anchors: int,
    *,
    method: str = "kmeans",
    n_iter: int = 5,
    random_state=None,
) -> np.ndarray:
    """Pick anchor points from the data.

    Parameters
    ----------
    x : ndarray of shape (n, d)
        Samples.
    n_anchors : int
        Number of anchors ``m``; must satisfy ``1 <= m <= n``.
    method : {"kmeans", "random"}
        ``kmeans`` runs a few Lloyd iterations from a k-means++ seed (the
        standard anchor selection); ``random`` samples points uniformly.
    n_iter : int
        Lloyd iterations for the ``kmeans`` method.
    random_state : int, Generator, or None

    Returns
    -------
    ndarray of shape (m, d)
    """
    x = check_matrix(x, "x")
    n = x.shape[0]
    if not 1 <= n_anchors <= n:
        raise ValidationError(f"n_anchors must be in [1, {n}], got {n_anchors}")
    rng = check_random_state(random_state)
    if method == "random":
        idx = rng.choice(n, size=n_anchors, replace=False)
        return x[idx].copy()
    if method == "kmeans":
        from repro.cluster.kmeans import KMeans

        result = KMeans(
            n_anchors, n_init=1, max_iter=n_iter, random_state=rng
        ).fit(x)
        return result.centers
    raise ValidationError(f"unknown anchor method: {method!r}")


def anchor_assignment(
    x: np.ndarray, anchors: np.ndarray, *, k: int = 5
) -> np.ndarray:
    """Row-stochastic sample-to-anchor weights ``Z``.

    Each sample connects to its ``k`` nearest anchors with the CAN
    closed-form weights (larger weight to nearer anchors; exact simplex
    rows).

    Returns
    -------
    ndarray of shape (n, m)
        At most ``k`` nonzeros per row; rows sum to 1.  The arithmetic
        after the distance computation is the active
        :class:`~repro.backends.ArrayBackend`'s ``anchor_can_weights``
        kernel (the reference backend is bit-identical to the
        pre-backend code).
    """
    x = check_matrix(x, "x")
    anchors = check_matrix(anchors, "anchors")
    if x.shape[1] != anchors.shape[1]:
        raise ValidationError(
            "x and anchors must share the feature dimension, got "
            f"{x.shape[1]} and {anchors.shape[1]}"
        )
    m = anchors.shape[0]
    if not 1 <= k <= m:
        k = max(1, min(k, m))
    d2 = pairwise_sq_euclidean(x, anchors)
    return current_backend().anchor_can_weights(d2, int(k))


def anchor_affinity_factor(z: np.ndarray) -> np.ndarray:
    """The factor ``B = Z Lambda^{-1/2}`` with ``W = B B^T``.

    ``W``'s rows sum to 1, so ``W`` *is* its own normalized adjacency and
    its top eigenvectors are the left singular vectors of ``B``.  Runs
    as the active backend's ``anchor_affinity_factor`` kernel.
    """
    z = check_matrix(z, "z")
    return current_backend().anchor_affinity_factor(z)


def anchor_affinity(z: np.ndarray) -> np.ndarray:
    """Materialize the dense ``W = Z Lambda^{-1} Z^T`` (small-n use only)."""
    b = anchor_affinity_factor(z)
    w = b @ b.T
    np.fill_diagonal(w, 0.0)
    return (w + w.T) / 2.0


def anchor_spectral_embedding(
    z: np.ndarray, n_components: int
) -> np.ndarray:
    """Spectral embedding of the anchor graph in ``O(n m^2)``.

    Returns the top-``n_components`` left singular vectors of
    ``B = Z Lambda^{-1/2}`` — the leading eigenvectors of the (implicitly
    normalized) anchor affinity, skipping nothing: the trivial constant
    eigenvector is retained to mirror :func:`spectral_embedding`'s
    convention of taking the bottom-``c`` Laplacian eigenvectors.
    """
    z = check_matrix(z, "z")
    n, m = z.shape
    if not 1 <= n_components <= min(n, m):
        raise ValidationError(
            f"n_components must be in [1, {min(n, m)}], got {n_components}"
        )
    return gram_left_singular(anchor_affinity_factor(z), n_components)[0]


def gram_left_singular(
    b: np.ndarray, k: int, *, full: bool = True
) -> tuple[np.ndarray, float | None]:
    """Top-``k`` left singular vectors of a tall ``b`` via its Gram matrix.

    The thin SVD of an ``(n, p)`` factor with ``p << n``: the top
    eigenpairs ``(s_i^2, v_i)`` of the ``p x p`` Gram ``B^T B`` give
    ``u_i = B v_i / s_i`` in ``O(n p^2 + p^3)``.

    ``full=True`` takes the whole Gram spectrum with ``np.linalg.eigh``.
    ``full=False`` asks :func:`~repro.linalg.eigen.eigsh_largest` for only
    the top ``k + 1`` pairs: the LAPACK subset driver, in the backend's
    compute dtype, under the ``eigen.dense`` failure policy.  Both span
    the same subspace, but their column signs differ, so a caller whose
    result depends on those signs must keep ``full=True``.

    Returns
    -------
    (u, gap)
        ``u`` of shape ``(n, k)``, columns by descending singular value;
        ``gap = s_k^2 - s_{k+1}^2``, or ``None`` when ``p <= k``.
    """
    gram = b.T @ b
    if full:
        values, vectors = np.linalg.eigh(gram)
        ranked = values[::-1]
        order = np.argsort(values)[::-1][:k]
        top, vectors = values[order], vectors[:, order]
    else:
        ranked, vectors = eigsh_largest(gram, min(k + 1, gram.shape[0]))
        top, vectors = ranked[:k], vectors[:, :k]
    gap = float(ranked[k - 1] - ranked[k]) if ranked.size > k else None
    return (b @ vectors) / np.sqrt(np.maximum(top, 1e-300))[None, :], gap
