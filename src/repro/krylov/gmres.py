"""Restarted GMRES with right preconditioning and synchronisation counting.

The paper's experiments stop GMRES at a relative 10⁻⁶ residual decrease
(10⁻⁸ for fig. 1) and use GMRES(40) for the elasticity comparison of
fig. 7.  Right preconditioning keeps the residual of the *original*
system observable at no extra cost, which is what the convergence
histograms plot.

Every global reduction (the dot-product batch of the Gram–Schmidt
orthogonalisation and the normalisation) increments a synchronisation
counter — the quantity the communication-avoiding variants of §3.5 are
designed to reduce.

The restart loop and the Arnoldi + Givens cycle are the shared engine of
:mod:`repro.krylov.cycle` (workspaces allocated once per solve, MGS
through preallocated buffers).  A :class:`~repro.common.timing.PhaseTimer`
times the ``matvec``, ``apply`` and ``orthogonalization`` cost centres;
the result carries the accumulated seconds in
:attr:`KrylovResult.profile`.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import KrylovError
from ..common.timing import PhaseTimer
from .cycle import (ArnoldiCycle, KrylovResult, RestartShell,  # noqa: F401
                    _as_operator)


def gmres(A, b: np.ndarray, *, M=None, x0: np.ndarray | None = None,
          tol: float = 1e-6, restart: int = 40, maxiter: int = 1000,
          callback=None, raise_on_stall: bool = False,
          profiler: PhaseTimer | None = None,
          health=None, keep_basis: bool = False,
          kernels=None) -> KrylovResult:
    """Right-preconditioned restarted GMRES: solve ``A (M y) = b``,
    ``x = M y``.

    Parameters
    ----------
    A, M:
        Operator and (right) preconditioner — callables or matrices.
    tol:
        Relative residual target ‖b − A x‖ / ‖b‖.
    restart:
        Krylov basis size m of GMRES(m).
    maxiter:
        Total iteration budget across restarts.
    raise_on_stall:
        Raise :class:`ConvergenceError` instead of returning an
        unconverged result (benchmarks *expect* the one-level method to
        stall, so the default is to return).
    profiler:
        Per-phase timer; pass the one shared with the preconditioner to
        also capture ``coarse_solve``.  Created internally if ``None``.
    health:
        Optional :class:`~repro.resilience.HealthMonitor`, checked once
        per iteration; the iterate is handed over at restart boundaries
        (where it is cheap), so checkpoint/rollback recovery restarts
        from the last completed cycle.  New basis vectors are scanned
        for NaN/Inf and a cheap orthogonality defect ``|v_{j+1}·v_0|``
        is reported.
    keep_basis:
        When True, attach the last cycle's Arnoldi data (basis V and the
        untransformed Hessenberg H̄) to :attr:`KrylovResult.basis` for a
        posteriori Ritz harvesting (subspace recycling).
    kernels:
        Optional :class:`~repro.kernels.KernelBackend` owning the
        orthogonalisation kernel; ``None`` uses the reference ``numpy``
        backend (bitwise-identical to the historical inline MGS).
    """
    from ..kernels import default_backend
    kern = default_backend() if kernels is None else kernels
    if restart < 1:
        raise KrylovError(f"restart must be >= 1, got {restart}")
    shell, M_mul = RestartShell.sequential(
        A, b, M=M, x0=x0, tol=tol, maxiter=maxiter, profiler=profiler,
        health=health, callback=callback)
    cycle = ArnoldiCycle(len(shell.b), restart, shell.A_mul, M_mul,
                         ortho=kern.ortho_step, keep_raw=keep_basis)
    res = shell.run(cycle, raise_on_stall=raise_on_stall)
    k = cycle.j_done
    if keep_basis and k:
        res.basis = (cycle.V[:, :k + 1].copy(), cycle.Hraw[:k + 1, :k].copy())
    return res
