"""The one resolution rule of the repo's name registries.

Kernel backends (:func:`repro.kernels.get_backend`) and coarse spaces
(:func:`repro.core.geneo.get_coarse_space`) both pick a registered
name the same way: the explicit argument, else the
registry's ``$REPRO_*`` environment variable, else its default.
"""

from __future__ import annotations

import os

from .errors import ReproError


def resolve_name(name: str | None, names, *, env: str, default: str,
                 kind: str) -> str:
    """Resolve *name* against the registered *names*: the argument, else
    ``$env``, else *default* (``None`` and ``""`` both mean unset).  An
    unknown name raises :class:`ReproError` listing *names*."""
    resolved = name or os.environ.get(env) or default
    if resolved not in names:
        raise ReproError(f"unknown {kind} {resolved!r}; "
                         f"expected one of {sorted(names)}")
    return resolved
