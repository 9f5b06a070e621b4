"""Pluggable coarse-solve strategies (registry, mirrors ``repro.kernels``).

"How the coarse problem E y = w is solved" is a strategy chosen per
coarse operator:

``sparse``
    The exact default: sparse direct factorisation of the CSR-assembled
    E (connectivity-bounded fill).
``multilevel``
    The method applied to itself: level-2 RAS + Nicolaides/GenEO on
    the subdomain-connectivity graph of E, solved inexactly by a few
    inner FGMRES iterations (three-level in total).

Selection order for :func:`get_strategy`:

1. an explicit argument (``SchwarzSolver(coarse_strategy=...)``, CLI
   ``--coarse-strategy``) — a name or a ready
   :class:`~repro.core.coarse_strategies.base.CoarseSolveStrategy`
   instance (instances carry options, e.g.
   ``MultilevelStrategy(inner_iters=4)``);
2. the ``REPRO_COARSE_STRATEGY`` environment variable;
3. the exact ``"sparse"`` strategy.
"""

from __future__ import annotations

from ...common.registry import resolve_name
from .base import CoarseSolveStrategy
from .direct import SparseStrategy, csr_from_blocks
from .multilevel import MultilevelCoarseSolve, MultilevelStrategy

ENV_VAR = "REPRO_COARSE_STRATEGY"

_STRATEGIES: dict[str, type] = {}


def register_strategy(name: str, factory=None):
    """Register *factory* under *name* (usable as a decorator).  The
    factory takes no arguments and returns a
    :class:`~repro.core.coarse_strategies.base.CoarseSolveStrategy`."""
    if factory is None:
        def deco(f):
            _STRATEGIES[name] = f
            return f
        return deco
    _STRATEGIES[name] = factory
    return factory


def strategy_names() -> list[str]:
    return sorted(_STRATEGIES)


def get_strategy(spec=None) -> CoarseSolveStrategy:
    """Resolve a coarse-solve strategy (argument →
    ``$REPRO_COARSE_STRATEGY`` → ``"sparse"``).  A ready
    :class:`~repro.core.coarse_strategies.base.CoarseSolveStrategy`
    instance passes through unchanged."""
    if isinstance(spec, CoarseSolveStrategy):
        return spec
    resolved = resolve_name(spec, _STRATEGIES, env=ENV_VAR,
                            default="sparse", kind="coarse strategy")
    return _STRATEGIES[resolved]()


register_strategy("sparse", SparseStrategy)
register_strategy("multilevel", MultilevelStrategy)

__all__ = [
    "CoarseSolveStrategy",
    "SparseStrategy",
    "MultilevelStrategy",
    "MultilevelCoarseSolve",
    "csr_from_blocks",
    "register_strategy",
    "strategy_names",
    "get_strategy",
    "ENV_VAR",
]
