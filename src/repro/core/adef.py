"""Two-level deflated preconditioners (paper eq. 6–7; Tang et al. 2009).

With the coarse correction ``Q = Z E⁻¹ Zᵀ`` and a one-level part ``M``
(RAS or ASM), the three variants are one formula

    P⁻¹ u = [(I − Q A)] M [(I − A Q)] u + Q u

and differ only in which projection wraps ``M``:

* ``adef1`` — ``M (I − AQ) + Q``, the paper's choice (eq. 6): **one**
  coarse solve per application (its result is reused in both terms),
  which matters because the coarse solve is the most
  communication-intensive operation of an iteration (§2.1).
* ``adef2`` — ``(I − QA) M + Q`` (eq. 7): numerically similar but needs
  **two** coarse solves; kept for the ablation bench.
* ``bnn`` — both projections (hybrid balancing Neumann–Neumann):
  symmetric when ``M`` is (use :class:`~repro.core.ras.OneLevelASM`
  with CG); two coarse solves.

Fast apply path: ``Q`` and ``AQ`` are fixed linear maps once setup is
done, and the E assembly already computed ``T_i = A_i W_i`` (block
column i of A·Z).  The ``(I − AQ) u`` projection therefore reuses
``y = E⁻¹ Zᵀ u`` from the ``Q u`` term and evaluates ``A Z y`` through
:meth:`CoarseOperator.az_dot` — per-setup cached A·Z — instead of
recomputing ``A (Z y)`` with a global SpMV plus an extra overlap
exchange every iteration.  Only the ``(I − QA)`` projection applies A.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ReproError
from ..dd.decomposition import Decomposition
from .coarse import CoarseOperator

#: the two-level variants, named as ``SchwarzSolver(preconditioner=)``
KINDS = ("adef1", "adef2", "bnn")


class TwoLevel:
    """``[(I − QA)] M [(I − AQ)] u + Q u`` — the pre-projection for
    ``adef1`` and ``bnn``, the post-projection for ``adef2`` and ``bnn``
    (see the module docstring)."""

    def __init__(self, one_level, coarse: CoarseOperator,
                 kind: str = "adef1"):
        if kind not in KINDS:
            raise ReproError(f"unknown two-level kind {kind!r}; "
                             f"expected one of {list(KINDS)}")
        self.one_level = one_level
        self.coarse = coarse
        self.kind = kind
        self.dec: Decomposition = one_level.dec
        self.applications = 0
        self._pre = kind != "adef2"
        self._post = kind != "adef1"

    def apply(self, u: np.ndarray) -> np.ndarray:
        """One application: the ``Q u`` coarse solve is shared with the
        ``(I − AQ)`` projection, whose A·Z comes from the setup cache."""
        self.applications += 1
        coarse = self.coarse
        y = coarse.solve(coarse.space.zt_dot(u))   # E⁻¹ Zᵀ u
        w = coarse.space.z_dot(y)                  # Q u
        if self._pre:
            u = u - coarse.az_dot(y)               # (I − A Q) u
        v = self.one_level.apply(u)
        if self._post:                             # (I − Q A) v
            v = v - coarse.correction(self.dec.matvec(v))
        return v + w

    def apply_block(self, U: np.ndarray) -> np.ndarray:
        """Multi-RHS application — column k of the result is
        ``apply(U[:, k])``, computed with the same number of coarse
        solves as one vector (csrmm transfers + a blocked E solve) and
        one blocked one-level application."""
        self.applications += U.shape[1]
        coarse = self.coarse
        Y = coarse.solve(coarse.space.zt_dot_block(U))
        W = coarse.space.z_dot_block(Y)
        if self._pre:
            U = U - coarse.kernels.spmm(coarse.AZ, Y)
        V = self.one_level.apply_block(U)
        if self._post:
            V = V - coarse.correction_block(self.dec.matvec_block(V))
        return V + W

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)


#: the paper's name for the default kind (eq. 6):
#: ``TwoLevelADEF1(ras, coarse)`` is ``TwoLevel(ras, coarse, "adef1")``
TwoLevelADEF1 = TwoLevel
