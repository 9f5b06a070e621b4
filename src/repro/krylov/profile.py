"""Per-phase solve profiler for the Krylov drivers.

The solve phase of an iteration decomposes into four cost centres the
paper's analysis keeps separate (§2.1, §3.3): the preconditioner
application (``apply``), the coarse solve hidden inside it
(``coarse_solve`` — the most communication-intensive operation), the
operator product (``matvec``), and the basis orthogonalisation
(``orthogonalization`` — the reductions §3.5 pipelines away).

Every Krylov driver threads a :class:`SolveProfiler` through its hot
loop; preconditioner objects that hold a reference to the same profiler
(see :attr:`repro.core.coarse.CoarseOperator.profiler`) time their
coarse solves into it, so ``coarse_solve`` is a sub-interval of
``apply``.  The accumulated seconds surface on
:attr:`~repro.krylov.KrylovResult.profile` and in the CLI report.

As an adapter over the unified telemetry layer, a profiler constructed
with a :class:`repro.obs.Recorder` additionally records every phase as a
hierarchical span (``coarse_solve`` nests inside ``apply`` structurally,
because the coarse solve runs while the ``apply`` span is open on the
same thread) and emits per-iteration convergence events
(:meth:`iteration`, :meth:`restart`, :meth:`orthogonality_loss`) that
the drivers feed.  Without a recorder all telemetry calls are no-ops.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from ..obs.recorder import NULL_RECORDER


class SolveProfiler:
    """Accumulate wall-clock seconds and call counts per solve phase.

    Phases are created on first use.  ``coarse_solve`` time is nested
    inside ``apply`` (the coarse solve happens during the preconditioner
    application), so the phases are cost centres, not a partition.

    Parameters
    ----------
    recorder:
        Optional :class:`repro.obs.Recorder`; when attached, phases are
        mirrored as telemetry spans and the event helpers record.  The
        default is the shared no-op recorder (~zero cost).
    """

    __slots__ = ("times", "calls", "recorder")

    def __init__(self, recorder=None):
        self.times: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.recorder = NULL_RECORDER if recorder is None else recorder

    def _note(self, name: str, dt: float) -> None:
        self.times[name] = self.times.get(name, 0.0) + dt
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def phase(self, name: str):
        rec = self.recorder
        handle = rec.span(name).__enter__() if rec.enabled else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if handle is not None:
                handle.__exit__(None, None, None)
            self._note(name, dt)

    def wrap(self, fn, name: str):
        """Return *fn* instrumented to accumulate under phase *name*
        (one :meth:`phase` block per call)."""

        def timed(x):
            with self.phase(name):
                return fn(x)

        return timed

    # -- per-iteration convergence events ------------------------------
    def iteration(self, k: int, residual: float, *,
                  corrected: bool = False) -> None:
        """One relative-residual sample, aligned with
        ``KrylovResult.residuals`` (``corrected=True`` marks the restart
        loop replacing its last estimate with the true residual —
        :func:`repro.obs.iteration_residuals` reapplies the semantics)."""
        rec = self.recorder
        if rec.enabled:
            attrs = {"k": int(k), "residual": float(residual)}
            if corrected:
                attrs["corrected"] = True
            rec.event("iteration", attrs=attrs)

    def restart(self, cycle: int, k: int) -> None:
        """A restart boundary: cycle *cycle* begins at iteration *k*."""
        rec = self.recorder
        if rec.enabled:
            rec.event("restart", attrs={"cycle": int(cycle), "k": int(k)})

    def orthogonality_loss(self, k: int, value: float) -> None:
        """Orthogonalisation produced a (numerically) zero new direction
        — a lucky breakdown or a loss of basis orthogonality."""
        rec = self.recorder
        if rec.enabled:
            rec.event("orthogonality_loss",
                      attrs={"k": int(k), "value": float(value)})

    def column_converged(self, k: int, col: int, residual: float) -> None:
        """A block driver's column *col* reached its target at (block)
        iteration *k* — emitted once per right-hand side, so the trace
        shows when each column was deflated from the active block
        (:func:`repro.obs.column_iterations` reconstructs the map)."""
        rec = self.recorder
        if rec.enabled:
            rec.event("batch.column_converged",
                      attrs={"k": int(k), "col": int(col),
                             "residual": float(residual)})

    def as_dict(self) -> dict[str, float]:
        """Accumulated seconds per phase (a plain copy)."""
        return dict(self.times)


def finish_zero_rhs(n: int, *, profiler: SolveProfiler,
                    callback=None, health=None):
    """Shared ``‖b‖ = 0`` early return for every Krylov driver.

    Semantics (previously six diverging copies): a zero right-hand side
    has the exact solution ``x = 0`` for any nonsingular operator, so
    the drivers return it immediately — *discarding* any ``x0`` (the
    exact answer is known, iterating from a guess could only add noise).
    ``residuals`` is ``[0.0]`` by convention: the relative residual
    ``‖b − A x‖ / ‖b‖`` is 0/0 and the solve is converged, so the
    history records a single converged sample.  The callback and the
    health monitor each fire exactly once with that sample, mirroring
    the iteration-0 behaviour of a normal solve (previously both were
    silently skipped).
    """
    from .cycle import KrylovResult    # deferred: cycle imports profile
    x = np.zeros(n)
    profiler.iteration(0, 0.0)
    if health is not None:
        health.observe(0, 0.0, x)
    if callback is not None:
        callback(0, 0.0)
    return KrylovResult(x=x, iterations=0, residuals=[0.0],
                        converged=True, profile=profiler.as_dict())
