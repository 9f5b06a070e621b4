"""The exact (direct-factorisation) coarse solve strategy.

``sparse`` assembles E straight into CSR row blocks from the
neighbour-block structure (one pass, no duplicate summing) and
factorises it sparsely: the fill of the factors follows the subdomain
connectivity graph — O(nnz(L)) instead of O(dim²) memory — which is the
regime a distributed *sparse* direct solver (MUMPS on masterComm) would
occupy.  The paper's dense distributed Cholesky on the masters is
:class:`repro.solvers.distributed.DistributedCholesky` (and the
``"dense"`` cost model of :mod:`repro.perfmodel.coarse_costs`); it is
not a strategy of this registry.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...solvers import factorize
from .base import CoarseSolveStrategy


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

def csr_from_blocks(space, blocks) -> sp.csr_matrix:
    """Direct CSR assembly from the neighbour-block structure.

    Block (i, j) exists iff j ∈ Ō_i, and the block keys are unique, so
    the CSR rows can be written in one pass: row block i holds the
    horizontally-stacked blocks of its sorted neighbour columns.  No
    COO expansion of per-entry coordinates, no duplicate-summing pass —
    the peak memory is the CSR itself, in canonical (sorted-index)
    form.
    """
    off = space.offsets
    nu = space.nu
    by_row: dict[int, list[int]] = {}
    for (i, j) in blocks:
        by_row.setdefault(i, []).append(j)
    indptr = np.zeros(space.m + 1, dtype=np.int64)
    indices_parts: list[np.ndarray] = []
    data_parts: list[np.ndarray] = []
    for i in range(len(nu)):
        js = sorted(by_row.get(i, ()))
        if not js:                   # pragma: no cover - empty subdomain
            indptr[off[i] + 1:off[i + 1] + 1] = indptr[off[i]]
            continue
        cols = np.concatenate(
            [np.arange(off[j], off[j + 1]) for j in js])
        vals = np.hstack([blocks[(i, j)] for j in js])
        row_nnz = cols.size
        for r in range(int(nu[i])):
            indices_parts.append(cols)
            data_parts.append(vals[r])
            indptr[off[i] + r + 1] = indptr[off[i] + r] + row_nnz
    return sp.csr_matrix(
        (np.concatenate(data_parts), np.concatenate(indices_parts),
         indptr), shape=(space.m, space.m))


# ----------------------------------------------------------------------
# Rank-deficiency fallback (shared by every strategy's degrade chain)
# ----------------------------------------------------------------------

class _PseudoInverse:
    """Truncated-decomposition solve for (near-)singular E.

    Symmetric E goes through ``eigh`` (the historical, bitwise-pinned
    route).  Nonsymmetric E — where an eigendecomposition with real
    ascending eigenvalues simply does not exist — is routed through the
    SVD instead: ``E⁺ = V_k diag(1/s_k) U_kᵀ`` over the singular values
    above the rank cut.  For symmetric positive semi-definite E the two
    coincide, so the SVD route is the strict generalisation.
    """

    def __init__(self, E, rank_tol: float):
        import scipy.linalg as sla
        from ...common.validation import matrix_is_symmetric
        self.n = E.shape[0]
        if matrix_is_symmetric(E):
            w, V = sla.eigh(E.toarray())
            cut = rank_tol * max(float(w.max()), 1e-300)
            keep = w > cut
            self.rank = int(keep.sum())
            self._U = self._V = V[:, keep]
            self._winv = 1.0 / w[keep]
        else:
            U, s, Vt = sla.svd(E.toarray())
            cut = rank_tol * max(float(s.max()), 1e-300)
            keep = s > cut
            self.rank = int(keep.sum())
            self._U = U[:, keep]
            self._V = Vt[keep].T
            self._winv = 1.0 / s[keep]
        self.nnz_factor = self.n * self.rank

    def solve(self, b):
        c = self._U.T @ b
        scaled = self._winv[:, None] * c if c.ndim == 2 else self._winv * c
        return self._V @ scaled


def robust_direct(coarse, backend: str, rank_tol: float):
    """Factorise ``coarse.E`` directly, degrading to the truncated
    pseudo-inverse when the factorization fails or fails its probe
    (numerically dependent deflation vectors make E singular).  The
    probe is one solve against a seeded vector — a factorization of a
    singular E may silently produce garbage.  The theory only needs E⁻¹
    on range(Zᵀ·), so the truncated decomposition is the stable
    generalisation (what MUMPS' null-pivot detection gives the paper)."""
    E = coarse.E
    try:
        fact = factorize(E, backend)
        w = np.random.default_rng(0).standard_normal(E.shape[0])
        resid = np.linalg.norm(E @ fact.solve(w) - w)
        if np.isfinite(resid) and resid <= 1e-6 * np.linalg.norm(w):
            return fact
    except Exception:  # noqa: BLE001 - any backend failure → fallback
        pass
    coarse.rank_deficient = True
    return _PseudoInverse(E, rank_tol)


# ----------------------------------------------------------------------
# The strategy
# ----------------------------------------------------------------------

class SparseStrategy(CoarseSolveStrategy):
    """Sparse-direct: one-pass CSR assembly + sparse factorisation."""

    name = "sparse"
    exact = True

    def build(self, coarse, backend: str, rank_tol: float):
        return robust_direct(coarse, backend, rank_tol)
