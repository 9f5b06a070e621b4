"""Flexible GMRES (Saad 1993).

The two-level preconditioner becomes *variable* as soon as the coarse
problem is solved inexactly — e.g. by a few CG iterations on E instead
of a factorization (attractive when E outgrows the masters, §3.4's
closing concern).  Classical right-preconditioned GMRES assumes a fixed
M; FGMRES stores the preconditioned basis Z_j = M_j v_j and stays exact
under iteration-dependent preconditioning.

It is the classical cycle of :mod:`repro.krylov.cycle` with the flexible
basis switched on; workspaces and the per-phase profiler mirror
:func:`repro.krylov.gmres`.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import KrylovError
from ..common.timing import PhaseTimer
from .cycle import ArnoldiCycle, KrylovResult, RestartShell


def fgmres(A, b: np.ndarray, *, M=None, x0: np.ndarray | None = None,
           tol: float = 1e-6, restart: int = 40, maxiter: int = 1000,
           callback=None,
           profiler: PhaseTimer | None = None,
           health=None, kernels=None) -> KrylovResult:
    """Flexible restarted GMRES; *M* may change between applications.

    *kernels* selects the orthogonalisation kernel backend
    (:mod:`repro.kernels`); ``None`` is the bitwise-reference ``numpy``
    backend.
    """
    from ..kernels import default_backend
    kern = default_backend() if kernels is None else kernels
    if restart < 1:
        raise KrylovError(f"restart must be >= 1, got {restart}")
    shell, M_mul = RestartShell.sequential(
        A, b, M=M, x0=x0, tol=tol, maxiter=maxiter, profiler=profiler,
        health=health, callback=callback)
    return shell.run(ArnoldiCycle(len(shell.b), restart, shell.A_mul, M_mul,
                                  ortho=kern.ortho_step, flexible=True))
