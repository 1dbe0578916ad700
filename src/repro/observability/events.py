"""The iteration-event protocol: what one outer solver iteration emits.

Every outer iteration of the unified solvers produces one structured
:class:`IterationEvent` — objective value(s), per-block wall-times,
inner-solver effort, label mobility, current view weights — delivered
to any number of :class:`FitCallback` listeners and to the active
trace's sinks.  The full per-fit record rides on the result object as a
:class:`FitDiagnostics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IterationEvent:
    """One outer iteration of a solver, structured.

    Attributes
    ----------
    solver : str
        Emitting solver class name (``"UnifiedMVSC"``, ``"AnchorMVSC"``,
        ``"SparseMVSC"``).
    iteration : int
        1-based outer iteration index.
    objective : float or None
        Objective recorded for this iteration (for :class:`~repro.core.
        model.UnifiedMVSC` this is the *post-reweighting* value that
        enters ``objective_history``; for the scalable solvers it is the
        weighted view cost ``sum_v m_v h_v``).
    objective_pre_reweight : float or None
        Objective evaluated *before* the w-step rebuilt the fused
        operator — the value the monotone F/R/Y block-descent guarantee
        applies to.
    rel_change : float or None
        Relative change of ``objective`` vs. the previous iteration
        (the quantity the stopping rule thresholds).
    block_seconds : dict
        Wall-clock seconds per block this iteration, keyed by stable
        phase names (``"f_step"``, ``"r_step"``, ``"y_step"``,
        ``"w_step"``, ...).
    gpi_iterations : int or None
        Inner GPI iterations the F-step used (``None`` when the F-step
        is a plain eigensolve).
    label_moves : int or None
        Rows whose cluster assignment changed during this iteration's
        Y-block.
    view_weights : tuple of float
        View weights ``w`` after this iteration's w-step.
    """

    solver: str
    iteration: int
    objective: float | None = None
    objective_pre_reweight: float | None = None
    rel_change: float | None = None
    block_seconds: dict = field(default_factory=dict)
    gpi_iterations: int | None = None
    label_moves: int | None = None
    view_weights: tuple = ()

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the JSONL sink)."""
        return {
            "solver": self.solver,
            "iteration": self.iteration,
            "objective": self.objective,
            "objective_pre_reweight": self.objective_pre_reweight,
            "rel_change": self.rel_change,
            "block_seconds": dict(self.block_seconds),
            "gpi_iterations": self.gpi_iterations,
            "label_moves": self.label_moves,
            "view_weights": list(self.view_weights),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "IterationEvent":
        """Inverse of :meth:`to_dict` (JSONL round-trip)."""
        return cls(
            solver=payload["solver"],
            iteration=payload["iteration"],
            objective=payload.get("objective"),
            objective_pre_reweight=payload.get("objective_pre_reweight"),
            rel_change=payload.get("rel_change"),
            block_seconds=dict(payload.get("block_seconds", {})),
            gpi_iterations=payload.get("gpi_iterations"),
            label_moves=payload.get("label_moves"),
            view_weights=tuple(payload.get("view_weights", ())),
        )


class FitCallback:
    """Base class / protocol for per-fit listeners.

    Sinks override any subset; every hook is a no-op here, so partial
    implementations stay cheap.  Duck-typed objects with the same
    method names work too — the dispatcher looks methods up by name.
    """

    def on_fit_start(self, info: dict) -> None:
        """Called once before the first iteration; ``info`` identifies
        the solver and problem (``solver``, ``n_samples``, ...)."""

    def on_iteration(self, event: IterationEvent) -> None:
        """Called once per outer iteration with the structured event."""

    def on_fit_end(self, info: dict) -> None:
        """Called once after the last iteration with the outcome
        (``n_iter``, ``converged``, ``objective``, ...)."""


def dispatch_event(callbacks, method: str, payload) -> None:
    """Deliver ``payload`` to ``method`` of every callback and the
    active trace.

    ``callbacks`` is any iterable of listener objects; iteration events
    additionally flow to the contextvar-active
    :class:`~repro.observability.trace.Trace` (and through it to the
    trace's sinks), so enabling a trace observes an *un-modified* model.
    """
    from repro.observability.trace import current_trace

    for callback in callbacks:
        hook = getattr(callback, method, None)
        if hook is not None:
            hook(payload)
    trace = current_trace()
    if trace is not None and method == "on_iteration":
        trace.emit(payload)


@dataclass(frozen=True)
class FitDiagnostics:
    """The full per-iteration record of one fit.

    Attached to :class:`~repro.core.result.UMSCResult` as
    ``result.diagnostics``; always recorded (one small event per outer
    iteration) whether or not tracing is active.

    Attributes
    ----------
    events : tuple of IterationEvent
        One entry per outer iteration.
    recoveries : tuple of repro.robust.RecoveryEvent
        Every recovery action the failure policy took during the fit
        (perturbed retries, fallbacks, skipped restarts); empty on a
        clean run.
    """

    events: tuple = ()
    recoveries: tuple = ()

    def __len__(self) -> int:
        return len(self.events)

    def objectives(self) -> list:
        """Recorded objective per iteration (the history curve)."""
        return [e.objective for e in self.events]

    def phase_seconds(self) -> dict:
        """Total wall-clock seconds per block, summed over iterations."""
        totals: dict[str, float] = {}
        for event in self.events:
            for name, seconds in event.block_seconds.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def total_seconds(self) -> float:
        """Sum of every per-block timing over the whole fit."""
        return float(sum(self.phase_seconds().values()))

    def to_dicts(self) -> list:
        """JSON-ready list of event dicts."""
        return [e.to_dict() for e in self.events]
