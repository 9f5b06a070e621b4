"""The :class:`CoarseSolveStrategy` contract.

A strategy answers one question — *how is the coarse problem E y = w
solved?* — decoupled from how E is assembled and applied in the
correction (which the :class:`~repro.core.coarse.CoarseOperator` owns).
Two built-ins ship with the registry (:mod:`repro.core.coarse_strategies`):

``sparse``
    The exact default: E factorised sparsely — the fill of the factors
    follows the subdomain connectivity instead of dim(E)².
``multilevel``
    The method applied to itself: E is partitioned into second-level
    subdomains, preconditioned by a level-2 RAS + Nicolaides/GenEO
    coarse space, and solved *inexactly* by a few inner FGMRES
    iterations (Seelinger, Reinarz & Scheichl, arXiv:1906.10944).

The object a strategy builds is a *factorization-like* handle: it
exposes ``solve(w)`` for vectors or column blocks and ``nnz_factor``.
Inexact handles additionally carry ``exact = False`` so the resilience
degrade chain and the reduced-precision kernel mirrors know to treat
them differently.
"""

from __future__ import annotations


class CoarseSolveStrategy:
    """How a :class:`~repro.core.coarse.CoarseOperator` solves E y = w.

    Subclasses implement :meth:`build`.
    """

    #: registry name
    name = "abstract"
    #: True when ``build`` returns a direct (fixed linear) solve — the
    #: reduced-precision kernel mirrors only apply to exact strategies
    exact = True

    def build(self, coarse, backend: str, rank_tol: float):
        """Return the solve handle for *coarse* (a built
        :class:`~repro.core.coarse.CoarseOperator` whose ``E`` is
        assembled).  *backend* is the sparse-factorization method name,
        *rank_tol* the pseudo-inverse truncation threshold."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Capability row for ``repro backends`` / the docs table."""
        return {"name": self.name, "exact": self.exact}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CoarseSolveStrategy {self.name}>"
