"""Graph/mesh partitioning substrate (the paper's METIS/SCOTCH role)."""

from __future__ import annotations

import numpy as np

from ..common.errors import PartitionError
from ..mesh import SimplexMesh
from .kway import partition_graph, partition_rcb
from .metrics import edge_cut, imbalance, neighbour_counts, part_weights, parts_connected
from .kway import enforce_connected
from .multilevel import multilevel_bisect


def partition_mesh(mesh: SimplexMesh, nparts: int, *, method: str = "multilevel",
                   seed: int = 0, recorder=None) -> np.ndarray:
    """Partition a mesh's cells into *nparts* subdomains.

    ``method`` is ``"multilevel"`` (METIS-like, on the dual graph) or
    ``"rcb"`` (recursive coordinate bisection of cell centroids).
    Returns a per-cell part array.

    Every method is deterministic for a given *seed* and meshes are
    immutable, so the last result is kept on the mesh (its one-entry
    ``"partition"`` memo slot, keyed by ``(nparts, method, seed)``): a
    repeated call returns a copy of it without partitioning again.  The
    caller owns the returned array.  With a *recorder*, the gauge
    ``partition.reused`` says whether the memo answered (1) or the
    partitioner ran (0).
    """
    key = (nparts, method, seed)
    part, reused = mesh.memo("partition", key,
                             lambda: _partition(mesh, *key))
    if recorder is not None and recorder.enabled:
        recorder.gauge("partition.reused", float(reused))
    return part.copy()


def _partition(mesh: SimplexMesh, nparts: int, method: str,
               seed: int) -> np.ndarray:
    if method == "multilevel":
        return partition_graph(mesh.dual_graph, nparts, seed=seed)
    if method == "rcb":
        return partition_rcb(mesh.cell_centroids(), nparts)
    raise PartitionError(f"unknown partition method {method!r} "
                         "(expected 'multilevel' or 'rcb')")


__all__ = [
    "partition_mesh",
    "enforce_connected",
    "partition_graph",
    "partition_rcb",
    "multilevel_bisect",
    "edge_cut",
    "imbalance",
    "part_weights",
    "parts_connected",
    "neighbour_counts",
]
