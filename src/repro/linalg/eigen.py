"""Extremal eigenpair solvers for symmetric matrices.

Spectral clustering needs the ``k`` smallest eigenvectors of a graph
Laplacian (or the ``k`` largest of a normalized affinity).  Dense input
goes to LAPACK's subset ``eigh``.  Sparse input goes to ARPACK Lanczos
(:func:`scipy.sparse.linalg.eigsh`) at every size: ``eigh`` on the
densified matrix is a full O(n³) tridiagonalisation.  For the 4 smallest
pairs of a 2000-row kNN-graph Laplacian on one BLAS thread, the dense
solve takes 0.75 s and the locked Lanczos solve 0.037 s.  Only
``k >= n - 1``, which ARPACK cannot solve, is densified.

The Lanczos solve starts from a fixed-seed vector, so repeated calls are
bit-identical.  A single-vector Krylov space can miss copies of a repeated
eigenvalue (the c-fold zero of a graph with c components), so the solve
is completed by deflation locking: see :func:`_locked_lanczos`.

Every solve runs under the unified failure policy
(:func:`repro.robust.policy.run_with_policy`): a failing solve is retried
with a deterministic diagonal shift (eigenvectors are unchanged and the
shift is subtracted from the eigenvalues, so a successful retry is exact),
a Lanczos run that still fails falls back to the dense path — counted via
the ``eigsh.arpack_fallback`` metric — and only a fully exhausted policy
raises :class:`~repro.exceptions.RecoveryExhaustedError` (a
:class:`~repro.exceptions.NumericalError`).  The registered fault sites
``eigen.full``, ``eigen.dense``, and ``eigen.lanczos`` let tests inject
failures at each path (see :mod:`repro.robust`).

All three entry points are pure functions of their inputs, so they
memoize through the ambient :mod:`repro.pipeline` cache when one is
active (keyed on the matrix bytes, ``k``, and which end of the spectrum);
cached results are bit-identical to direct computation.

The primary paths — dense LAPACK *and* the sparse ARPACK Lanczos solve —
dispatch through the active :class:`~repro.backends.ArrayBackend`
(reduced-precision backends run the kernel in their compute dtype and
hand back float64 pairs); the fallbacks stay plain float64 — robustness
recovery and shift-invert iterations are precision-sensitive, and a
fallback must not share the failure mode of the path it rescues.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from repro.backends import current_backend
from repro.exceptions import NumericalError, ValidationError
from repro.observability.memory import memory_span
from repro.observability.trace import metric_inc
from repro.pipeline.cache import current_cache
from repro.robust.faults import register_fault_site
from repro.robust.policy import matrix_context, run_with_policy
from repro.utils.validation import check_square

_SITE_FULL = register_fault_site(
    "eigen.full", "full dense eigendecomposition (sorted_eigh)"
)
_SITE_DENSE = register_fault_site(
    "eigen.dense", "dense extremal eigenpairs (LAPACK subset eigh)"
)
_SITE_LANCZOS = register_fault_site(
    "eigen.lanczos", "sparse Lanczos extremal eigenpairs (ARPACK eigsh)"
)


def _shift_scale(a) -> float:
    """Deterministic magnitude for perturbed-retry diagonal shifts."""
    if scipy.sparse.issparse(a):
        peak = float(abs(a).max()) if a.nnz else 0.0
    else:
        peak = float(np.max(np.abs(a))) if a.size else 0.0
    return max(1.0, peak)


def sorted_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix, ascending eigenvalues.

    Parameters
    ----------
    a : ndarray of shape (n, n)
        Symmetric matrix (symmetrized internally to guard against roundoff).

    Returns
    -------
    (values, vectors)
        ``values`` ascending, ``vectors[:, i]`` the eigenvector of
        ``values[i]``.
    """
    a = check_square(a, "a")
    cache = current_cache()
    if cache is not None:
        return cache.memoize(
            "sorted_eigh", (a,), {}, lambda: _sorted_eigh(a)
        )
    return _sorted_eigh(a)


def _sorted_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sym = (a + a.T) / 2.0
    n = sym.shape[0]

    def primary(perturb: float) -> tuple[np.ndarray, np.ndarray]:
        shift = perturb * _shift_scale(sym)
        mat = sym if shift == 0.0 else sym + shift * np.eye(n)
        values, vectors = current_backend().sorted_eigh(mat)
        if shift != 0.0:
            values = values - shift
        if not np.all(np.isfinite(values)):
            raise NumericalError(
                "eigendecomposition produced non-finite eigenvalues"
            )
        return values, vectors

    return run_with_policy(
        _SITE_FULL, primary, context=lambda: matrix_context(sym, "a")
    )


def _validate_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")


def _lanczos(a, k: int, *, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Sparse Lanczos under the failure policy, dense path as fallback."""
    n = a.shape[0]
    label = "smallest" if which == "SA" else "largest"

    def primary(perturb: float) -> tuple[np.ndarray, np.ndarray]:
        backend = current_backend()
        shift = perturb * _shift_scale(a)
        mat = a if shift == 0.0 else a + shift * scipy.sparse.identity(n)
        metric_inc("eigsh.calls")
        with memory_span(
            "eigsh", n=n, k=k, which=label, path="lanczos",
            backend=backend.name,
        ):
            values, vectors = _locked_lanczos(backend, mat, k, which)
        if shift != 0.0:
            values = values - shift
        return values, vectors

    def dense() -> tuple[np.ndarray, np.ndarray]:
        metric_inc("eigsh.arpack_fallback")
        mat = np.asarray(a.todense())
        if which == "SA":
            return _dense_extremal(mat, k, smallest=True)
        values, vectors = _dense_extremal(mat, k, smallest=False)
        return values[::-1], vectors[:, ::-1]

    return run_with_policy(
        _SITE_LANCZOS,
        primary,
        fallbacks=(("dense", dense),),
        context=lambda: matrix_context(a, "a"),
    )


def _locked_lanczos(
    backend, a, k: int, which: str
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded ARPACK solve whose set is completed by deflation locking.

    A single-vector Krylov space holds one direction per distinct
    eigenvalue, so ARPACK can return one copy of a repeated eigenvalue
    (the c-fold zero of a graph with c components) and an outer pair in
    place of the others.  A k=1 solve on ``a + s·VVᵀ`` moves the found
    pairs past the far end of the spectrum (``s = 2‖a‖∞ + 1``, negated
    for ``LA``).  An eigenvalue it finds on the wanted side of the
    outermost returned one, by more than ``sqrt(eps)·|s|`` so that equal
    copies are not traded back and forth, is a missed pair: it replaces
    the outermost pair and the check repeats.  A set still incomplete
    after ``k + 1`` swaps raises :class:`NumericalError`.
    """
    sign = 1.0 if which == "SA" else -1.0
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, a.shape[0])
    dtype = backend.compute_dtype
    work = a.astype(dtype, copy=False)
    values, vectors = backend.eigsh_lanczos(work, k, which, v0)
    s = sign * (2.0 * float(abs(a).sum(axis=1).max()) + 1.0)
    tol = np.sqrt(np.finfo(dtype).eps) * abs(s)
    for _ in range(k + 2):
        basis = vectors.astype(dtype, copy=False)
        deflated = scipy.sparse.linalg.LinearOperator(
            a.shape,
            matvec=lambda x, v=basis: work @ x + v @ (s * (v.T @ x)),
            dtype=dtype,
        )
        theta, u = backend.eigsh_lanczos(deflated, 1, which, v0)
        outer = int(np.argmax(sign * values))
        if sign * theta[0] >= sign * values[outer] - tol:
            return values, vectors
        values[outer], vectors[:, outer] = theta[0], u[:, 0]
    raise NumericalError(
        f"Lanczos missed eigenpairs after {k + 1} deflation swaps"
    )


def _dense_extremal(
    a: np.ndarray, k: int, *, smallest: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``k`` extremal eigenpairs of a dense symmetric matrix, ascending."""
    a = check_square(a, "a")
    n = a.shape[0]
    sym = (a + a.T) / 2.0
    subset = (0, k - 1) if smallest else (n - k, n - 1)
    label = "smallest" if smallest else "largest"

    def primary(perturb: float) -> tuple[np.ndarray, np.ndarray]:
        backend = current_backend()
        shift = perturb * _shift_scale(sym)
        mat = sym if shift == 0.0 else sym + shift * np.eye(n)
        metric_inc("eigsh.calls")
        with memory_span(
            "eigsh", n=n, k=k, which=label, path="dense", backend=backend.name
        ):
            values, vectors = backend.eigh_extremal(mat, subset[0], subset[1])
        if shift != 0.0:
            values = values - shift
        if not np.all(np.isfinite(values)):
            raise NumericalError(
                "eigendecomposition produced non-finite eigenvalues"
            )
        return values, vectors

    def full() -> tuple[np.ndarray, np.ndarray]:
        # Different LAPACK driver (full spectrum, then slice): survives
        # the occasional subset-driver failure and any injected fault on
        # the primary path.
        values, vectors = scipy.linalg.eigh(sym)
        lo, hi = subset
        return values[lo : hi + 1], vectors[:, lo : hi + 1]

    return run_with_policy(
        _SITE_DENSE,
        primary,
        fallbacks=(("full", full),),
        context=lambda: matrix_context(sym, "a"),
    )


def _eigsh_smallest(a, k: int) -> tuple[np.ndarray, np.ndarray]:
    if scipy.sparse.issparse(a):
        if k >= a.shape[0] - 1:
            return _eigsh_smallest(np.asarray(a.todense()), k)
        values, vectors = _lanczos(a, k, which="SA")
        order = np.argsort(values)
        return values[order], vectors[:, order]
    return _dense_extremal(a, k, smallest=True)


def _eigsh_largest(a, k: int) -> tuple[np.ndarray, np.ndarray]:
    if scipy.sparse.issparse(a):
        if k >= a.shape[0] - 1:
            return _eigsh_largest(np.asarray(a.todense()), k)
        values, vectors = _lanczos(a, k, which="LA")
        order = np.argsort(values)[::-1]
        return values[order], vectors[:, order]
    values, vectors = _dense_extremal(a, k, smallest=False)
    return values[::-1], vectors[:, ::-1]


def eigsh_smallest(a, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` algebraically smallest eigenpairs of a symmetric matrix.

    Accepts dense arrays or scipy sparse matrices.  Dense input uses
    LAPACK's ``eigh`` with an index subset.  Sparse input with
    ``k < n - 1`` uses shift-invert-free Lanczos (``which='SA'``) from a
    fixed-seed start vector, completed by deflation locking, and falls
    back to the dense path if ARPACK fails to converge or locking cannot
    complete the set (via the unified failure policy).

    Returns
    -------
    (values, vectors)
        ``values`` ascending, shape ``(k,)``; ``vectors`` shape ``(n, k)``.
    """
    _validate_k(a.shape[0], k)
    cache = current_cache()
    if cache is not None:
        return cache.memoize(
            "eigsh",
            (a,),
            {"k": int(k), "which": "smallest"},
            lambda: _eigsh_smallest(a, k),
        )
    return _eigsh_smallest(a, k)


def eigsh_largest(a, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` algebraically largest eigenpairs of a symmetric matrix.

    Returns
    -------
    (values, vectors)
        ``values`` descending, shape ``(k,)``; ``vectors`` shape ``(n, k)``.
    """
    _validate_k(a.shape[0], k)
    cache = current_cache()
    if cache is not None:
        return cache.memoize(
            "eigsh",
            (a,),
            {"k": int(k), "which": "largest"},
            lambda: _eigsh_largest(a, k),
        )
    return _eigsh_largest(a, k)
