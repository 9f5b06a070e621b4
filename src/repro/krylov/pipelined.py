"""p1-GMRES — the one-step pipelined GMRES of Ghysels et al. (§3.5).

The computational loop follows the paper's listing verbatim: iteration i
produces the *uncorrected* Hessenberg entries of column i (one fused
non-blocking reduction: the ⟨z_{i+1}, v_j⟩ batch together with ‖v_i‖),
and corrects column i−1 with the previous iteration's scale factor
h_{i−1,i−2}.  The reduction posted at iteration i is only consumed at
iteration i+1 — in a parallel run it hides behind the next matrix–vector
product, so each iteration costs **zero blocking** global
synchronisations (vs two for classical GMRES).

The synchronisation accounting distinguishes ``global_syncs`` (blocking:
one norm per restart boundary) from ``overlapped_reductions`` (posted
non-blocking and hidden); the §3.5 bench compares these across the three
GMRES variants.  The basis generator is a cycle of the shared
:mod:`repro.krylov.cycle`.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import KrylovError
from ..common.timing import PhaseTimer
from .cycle import KrylovResult, RestartShell


def p1_gmres(A, b: np.ndarray, *, M=None, x0: np.ndarray | None = None,
             tol: float = 1e-6, restart: int = 40, maxiter: int = 1000,
             callback=None,
             profiler: PhaseTimer | None = None,
             health=None) -> KrylovResult:
    """Right-preconditioned pipelined GMRES(m) (p1-GMRES).

    Mathematically equivalent to classical GMRES in exact arithmetic; the
    basis is built with a one-iteration-lagged normalisation.  The basis
    and Hessenberg workspaces are allocated once per solve and reused
    across restarts.
    """
    if restart < 1:
        raise KrylovError(f"restart must be >= 1, got {restart}")
    shell, M_mul = RestartShell.sequential(
        A, b, M=M, x0=x0, tol=tol, maxiter=maxiter, profiler=profiler,
        health=health, callback=callback)
    A_mul, prof, n = shell.A_mul, shell.prof, len(shell.b)
    m = restart
    V = np.empty((n, m + 2))
    Z = np.empty((n, m + 2))
    H = np.zeros((m + 2, m + 1))
    overlapped = 0

    def cycle(shell, x, r, beta):
        nonlocal overlapped
        H.fill(0.0)
        np.divide(r, beta, out=V[:, 0])
        Z[:, 0] = V[:, 0]
        finalized = 0            # number of fully corrected columns
        for i in range(m + 1):
            w = A_mul(M_mul(Z[:, i]))
            if i > 1:
                eta = H[i - 1, i - 2]
                if eta == 0.0:
                    # lucky breakdown: basis is invariant
                    prof.orthogonality_loss(shell.state.k, 0.0)
                    break
                V[:, i - 1] /= eta
                Z[:, i] /= eta
                w /= eta
                H[i - 1, i - 1] /= eta * eta
                H[:i - 1, i - 1] /= eta
            # line 8: z_{i+1} = w − Σ_{j<i} h_{j,i−1} z_{j+1}
            if i > 0:
                Z[:, i + 1] = w - Z[:, 1:i + 1] @ H[:i, i - 1]
            else:
                Z[:, i + 1] = w
            # line 10: v_i = z_i − Σ_{j<i} h_{j,i−1} v_j; h_{i,i−1} = ‖v_i‖
            if i > 0:
                V[:, i] = Z[:, i] - V[:, :i] @ H[:i, i - 1]
                H[i, i - 1] = float(np.linalg.norm(V[:, i]))
                finalized = i    # column i−1 of H̄ is now final
            # line 12: h_{j,i} = ⟨z_{i+1}, v_j⟩ — fused with the norm above
            # into ONE reduction, posted non-blocking (hidden behind the
            # next matvec in a parallel run)
            with prof.phase("orthogonalization"):
                H[:i + 1, i] = V[:, :i + 1].T @ Z[:, i + 1]
            overlapped += 1
            if finalized:
                y, res = _lsq(H, beta, finalized)
                if shell.report(res):
                    break
            if i > 1 and H[i - 1, i - 2] == 0.0:
                break
        if finalized:           # y solves the final H̄ prefix
            x = x + M_mul(V[:, :finalized] @ y)
        return x

    res = shell.run(cycle)
    res.overlapped_reductions = overlapped
    return res


def _lsq(H: np.ndarray, beta: float, k: int):
    """Least squares ``min ‖β e₁ − H̄_k y‖``: returns ``(y, residual)``."""
    g = np.zeros(k + 1)
    g[0] = beta
    Hk = H[:k + 1, :k]
    y, res2, *_ = np.linalg.lstsq(Hk, g, rcond=None)
    if res2.size:
        return y, float(np.sqrt(res2[0]))
    return y, float(np.linalg.norm(g - Hk @ y))
