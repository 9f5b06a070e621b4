"""The phase accumulator behind every per-phase time the repo reports.

:class:`PhaseTimer` accumulates seconds and call counts per named phase.
``SchwarzSolver`` keeps one for its setup phases (the *factorization*,
*deflation*, *solution* columns of figures 8 and 10;
``SolveReport.timer``), and every Krylov driver threads one through its
hot loop as its ``profiler=`` argument, timing the cost centres the
paper's analysis keeps separate (§2.1, §3.3): ``matvec``, ``apply``, the
``coarse_solve`` inside it and ``orthogonalization`` (the reductions
§3.5 pipelines away), summarised on ``KrylovResult.profile``.

With a :class:`repro.obs.Recorder` attached, every phase is also a span
on the shared clock (``coarse_solve`` nests inside ``apply``
structurally, because it runs while the ``apply`` span is open on the
same thread), and the drivers' convergence events (:meth:`iteration`,
:meth:`restart`, :meth:`orthogonality_loss`, :meth:`column_converged`)
are recorded.  Without one, all telemetry calls are no-ops.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..obs.recorder import NULL_RECORDER


class PhaseTimer:
    """Accumulate wall-clock seconds and call counts under named phases.

    Usage::

        timer = PhaseTimer()
        with timer.phase("factorization"):
            factorize(...)
        timer.seconds("factorization")

    Phases are created on first use.  A phase entered while another is
    open is timed into both (``coarse_solve`` inside ``apply``), so the
    phases are cost centres, not a partition.

    Parameters
    ----------
    recorder:
        Optional :class:`repro.obs.Recorder`; when attached, phases are
        mirrored as telemetry spans and the event helpers record.  The
        default is the shared no-op recorder (~zero cost).
    """

    __slots__ = ("totals", "counts", "recorder")

    def __init__(self, recorder=None):
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.recorder = NULL_RECORDER if recorder is None else recorder

    @contextmanager
    def phase(self, name: str):
        rec = self.recorder
        handle = rec.span(name).__enter__() if rec.enabled else None
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            if handle is not None:
                handle.__exit__(None, None, None)
            self.add(name, elapsed)

    def wrap(self, fn, name: str):
        """Return *fn* instrumented to accumulate under phase *name*
        (one :meth:`phase` block per call)."""

        def timed(x):
            with self.phase(name):
                return fn(x)

        return timed

    def add(self, name: str, seconds: float) -> None:
        """Credit *seconds* to phase *name* without running a block."""
        self.totals[name] = self.totals.get(name, 0.0) + float(seconds)
        self.counts[name] = self.counts.get(name, 0) + 1

    def seconds(self, name: str) -> float:
        """Total accumulated seconds for *name* (0.0 if never entered)."""
        return self.totals.get(name, 0.0)

    def total(self) -> float:
        """Sum over all phases."""
        return sum(self.totals.values())

    def as_dict(self) -> dict[str, float]:
        """Accumulated seconds per phase (a plain copy)."""
        return dict(self.totals)

    # -- per-iteration convergence events (Krylov drivers) -------------
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


class Timer:
    """Minimal single-shot timer: ``with Timer() as t: ...; t.elapsed``."""

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
