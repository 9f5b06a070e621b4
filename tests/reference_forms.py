"""Per-block reference forms of the deflation and coarse products.

These are §3.2 written literally — every subdomain works on its own
``W_i`` / ``T_i = A_i W_i`` block and the results are stitched through
the overlap — and the pre-cache A-DEF1 apply that recomputes ``A (Z y)``
with a global SpMV.  The production modules use the assembled-CSR
products instead; the tests use these to pin those fast paths down.
"""

from __future__ import annotations

import numpy as np


def zt_dot_blocks(space, u: np.ndarray) -> np.ndarray:
    """Zᵀu: each subdomain computes W_iᵀ u_i (gemv); the concatenation
    is the coarse right-hand side."""
    return np.concatenate([W.T @ u[s.dofs]
                           for W, s in zip(space.W, space.dec.subdomains)])


def z_dot_blocks(space, y: np.ndarray) -> np.ndarray:
    """Zy: z_i = W_i y_i locally, then the overlap sum Σ_j R_iR_jᵀ z_j
    (eq. 12), read off through the partition of unity."""
    off = space.offsets
    z_list = [W @ y[off[i]:off[i + 1]] for i, W in enumerate(space.W)]
    return space.dec.combine(space.dec.exchange_sum(z_list))


def az_dot_blocks(coarse, y: np.ndarray) -> np.ndarray:
    """A Z y: per-subdomain gemvs T_i y_i followed by the overlap sum
    Σ_i R_iᵀ(T_i y_i) — one neighbour exchange, no global SpMV."""
    off = coarse.space.offsets
    t_list = [Ti @ y[off[i]:off[i + 1]] for i, Ti in enumerate(coarse.T)]
    return coarse.space.dec.combine_raw(t_list)


def correction_blocks(coarse, u: np.ndarray) -> np.ndarray:
    """Z E⁻¹ Zᵀ u through the per-block products — one coarse solve."""
    y = coarse.solve(zt_dot_blocks(coarse.space, u))
    return z_dot_blocks(coarse.space, y)


def apply_reference(pre, u: np.ndarray) -> np.ndarray:
    """A-DEF1 without the A·Z cache: ``M (u − A Q u) + Q u`` with
    ``A (Q u)`` as a global SpMV (one extra overlap exchange)."""
    w = correction_blocks(pre.coarse, u)
    return pre.one_level.apply(u - pre.dec.matvec(w)) + w
