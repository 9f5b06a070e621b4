"""A posteriori deflation from Ritz vectors (the paper's conclusion).

The GenEO vectors are computed *a priori* by local eigensolves — the
dominant setup cost of figures 8/10.  The paper's outlook proposes
retrieving deflation vectors *a posteriori* instead, "using for example
approximations of the Ritz vectors" harvested during the convergence of
the one-level method.  This module implements that construction:

1. run k Arnoldi steps of the one-level preconditioned operator
   ``A P⁻¹_RAS`` (a plain GMRES cycle does exactly this);
2. extract the harmonic Ritz pairs of the small Hessenberg matrix and
   keep the ``m`` smallest in magnitude — approximations of the
   slow modes that stall the one-level method;
3. split each global Ritz vector across subdomains through the partition
   of unity: ``W_i = D_i R_i v``.  Since Σ R_iᵀ D_i R_i = I the resulting
   deflation space *contains* the Ritz vectors.

The same :class:`~repro.core.coarse.CoarseOperator` machinery then builds
and applies E — demonstrating that the framework is agnostic to where the
deflation vectors come from (§3's "abstract deflation vectors").
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..common.errors import ReproError
from ..dd.decomposition import Decomposition
from ..kernels import default_backend
from ..krylov.cycle import ArnoldiCycle, RestartShell
from .deflation import DeflationSpace
from .ras import OneLevelRAS


def arnoldi(op, v0: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-step Arnoldi: returns (V, H̄) with V of shape (n, k+1) and
    H̄ of shape (k+1, k), op·V[:, :k] = V H̄ (modified Gram–Schmidt).
    One engine cycle, truncated at the first ``H[j+1, j] < 1e-14``."""
    n = v0.shape[0]
    if k < 1 or k > n:
        raise ReproError(f"arnoldi steps k={k} invalid for n={n}")
    beta = np.linalg.norm(v0)
    if beta == 0:
        raise ReproError("arnoldi requires a nonzero start vector")
    cycle = ArnoldiCycle(n, k, op, lambda v: v,
                         ortho=default_backend().ortho_step,
                         keep_raw=True, breakdown=1e-14)
    j = cycle.expand(RestartShell(op, v0, tol=0.0, maxiter=k), v0, beta)
    V, H = cycle.V[:, :j + 1], cycle.Hraw[:j + 1, :j]
    if H[j, j - 1] < 1e-14:
        V[:, j] = 0.0
    return V, H


def harmonic_ritz_pairs(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic Ritz values/vectors of the Arnoldi Hessenberg H̄ (k+1, k).

    Harmonic Ritz pairs target the *smallest* eigenvalues of the operator
    (the ones deflation wants), unlike ordinary Ritz pairs which favour
    the largest.  They solve (H_k + h²_{k+1,k} H_k⁻ᴴ e_k e_kᵀ) y = θ y.
    """
    k = H.shape[1]
    Hk = H[:k, :k]
    h2 = H[k, k - 1] ** 2
    ek = np.zeros(k)
    ek[-1] = 1.0
    try:
        f = np.linalg.solve(Hk.T, ek)
    except np.linalg.LinAlgError as exc:
        raise ReproError(f"singular Hessenberg in harmonic Ritz: {exc}") \
            from exc
    Hmod = Hk + h2 * np.outer(f, ek)
    theta, Y = sla.eig(Hmod)
    order = np.argsort(np.abs(theta))
    return theta[order], Y[:, order]


def ritz_deflation(dec: Decomposition, ras: OneLevelRAS, b: np.ndarray, *,
                   n_vectors: int = 10, n_arnoldi: int | None = None,
                   ) -> DeflationSpace:
    """Build a deflation space from harmonic Ritz vectors of ``A P⁻¹``.

    Parameters
    ----------
    dec, ras:
        The decomposition and its one-level preconditioner.
    b:
        Seed vector for the Arnoldi process (typically the right-hand
        side — the vectors come for free from a stalled one-level cycle).
    n_vectors:
        Number of Ritz vectors to deflate (the coarse dim is
        ``n_vectors``, *not* per-subdomain).
    n_arnoldi:
        Arnoldi steps (default ``3 · n_vectors + 10``).
    """
    n = dec.problem.num_free
    if n_arnoldi is None:
        n_arnoldi = min(n, 3 * n_vectors + 10)
    if n_vectors > n_arnoldi:
        raise ReproError(
            f"n_vectors={n_vectors} exceeds arnoldi steps {n_arnoldi}")

    def op(v):
        return dec.matvec(ras.apply(v))

    V, H = arnoldi(op, b, n_arnoldi)
    k = H.shape[1]
    theta, Y = harmonic_ritz_pairs(H)
    m = min(n_vectors, k)
    # combine complex-conjugate pairs into real vectors
    vecs = []
    i = 0
    while len(vecs) < m and i < k:
        y = Y[:, i]
        if np.abs(y.imag).max() > 1e-12:
            vecs.append(np.real(y))
            if len(vecs) < m:
                vecs.append(np.imag(y))
            i += 2
        else:
            vecs.append(np.real(y))
            i += 1
    Yr = np.column_stack(vecs[:m])
    # Ritz vectors of A P⁻¹ live in the Krylov space; apply P⁻¹ so the
    # deflation space targets A itself (right-preconditioned harvest)
    ritz = V[:, :k] @ Yr
    ritz = np.column_stack([ras.apply(ritz[:, j]) for j in range(m)])
    # orthonormalise for conditioning of E
    ritz, _ = np.linalg.qr(ritz)

    W_blocks = [(s.d[:, None] * ritz[s.dofs]) for s in dec.subdomains]
    return DeflationSpace(dec, W_blocks)
