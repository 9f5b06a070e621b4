"""Shared early return of the Krylov drivers for a zero right-hand side.

The drivers time their phases and feed their convergence events through
:class:`repro.common.timing.PhaseTimer` (their ``profiler=`` argument).
"""

from __future__ import annotations

import numpy as np

from ..common.timing import PhaseTimer


def finish_zero_rhs(n: int, *, profiler: PhaseTimer,
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
