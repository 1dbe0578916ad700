"""View-weight updates for the unified framework.

Given the per-view spectral costs ``h_v = tr(F^T L_v F)``, each regime has
a closed-form optimal weight vector:

* **exponential** — minimize ``sum_v w_v^gamma h_v`` over the simplex.  The
  Lagrangian stationarity condition gives
  ``w_v ∝ h_v^{1/(1-gamma)}`` (gamma > 1): cheaper views get larger
  weights, with gamma controlling how sharply.
* **parameter_free** — the AMGL device: minimizing ``sum_v sqrt(h_v)`` is
  equivalent to iteratively reweighting with ``w_v = 1/(2 sqrt(h_v))``
  (no simplex constraint, no hyperparameter).
* **uniform** — fixed ``w_v = 1/V`` (the ablation control).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

#: Floor applied to spectral costs before reciprocal-style updates, so a
#: view whose cost hits exactly zero does not produce infinite weight.
_EPS = 1e-12


def update_view_weights(h: np.ndarray, *, mode: str, gamma: float = 4.0) -> np.ndarray:
    """Closed-form view-weight update.

    Parameters
    ----------
    h : array-like of shape (V,)
        Non-negative per-view spectral costs ``tr(F^T L_v F)``.
    mode : {"exponential", "parameter_free", "uniform"}
        Weighting regime (see module docstring).
    gamma : float
        Exponent for the ``exponential`` regime; must be > 1.

    Returns
    -------
    ndarray of shape (V,)
        New weights.  Exponential and uniform weights sum to 1;
        parameter-free weights are the raw ``1/(2 sqrt(h_v))`` values.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.size == 0:
        raise ValidationError("h must be a non-empty 1-D array")
    if np.any(h < -1e-10) or not np.all(np.isfinite(h)):
        raise ValidationError("spectral costs must be finite and non-negative")
    h = np.maximum(h, _EPS)
    v = h.size

    if mode == "uniform":
        return np.full(v, 1.0 / v)
    if mode == "parameter_free":
        return 1.0 / (2.0 * np.sqrt(h))
    if mode == "exponential":
        if gamma <= 1:
            raise ValidationError(f"gamma must be > 1, got {gamma}")
        # w_v ∝ h_v^{1/(1-gamma)}; compute in log-space for stability.
        log_w = np.log(h) / (1.0 - gamma)
        log_w -= np.max(log_w)
        w = np.exp(log_w)
        return w / np.sum(w)
    raise ValidationError(f"unknown weighting mode: {mode!r}")


def weight_exponents(w: np.ndarray, *, mode: str, gamma: float = 4.0) -> np.ndarray:
    """Effective multipliers ``w_v^gamma`` (or ``w_v``) applied to ``L_v``.

    The fused Laplacian in the embedding update is
    ``sum_v weight_exponents(w)[v] * L_v``; the exponential regime raises
    weights to ``gamma``, the other regimes use them directly.
    """
    w = np.asarray(w, dtype=np.float64)
    if mode == "exponential":
        return w**gamma
    if mode in ("parameter_free", "uniform"):
        return w
    raise ValidationError(f"unknown weighting mode: {mode!r}")


def fusion_multipliers(w: np.ndarray, *, mode: str, gamma: float) -> np.ndarray:
    """Normalized multipliers ``m_v`` the fused graph gives each view.

    :func:`weight_exponents` scaled to sum to one, so the fused graph
    stays on the scale of one view's graph whatever the regime.
    """
    multipliers = weight_exponents(w, mode=mode, gamma=gamma)
    return multipliers / np.sum(multipliers)
