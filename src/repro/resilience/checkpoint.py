"""Diskless neighbor checkpointing for the fault-tolerant SPMD solve.

The RAS overlap of the paper is natural redundancy: every subdomain
shares its boundary layers with its overlap neighbors, so a partner rank
can hold a full in-memory replica of a rank's recovery state at the cost
of one extra message per checkpoint interval — no filesystem involved
(Plank's *diskless checkpointing*).

Each rank replicates to ONE partner (its overlap neighbor with the most
shared dofs; ties break to the lowest rank so the map is deterministic):

* once, after setup: the **setup payload** — GenEO basis ``W``, the
  pristine coarse row block / row offsets / per-rank ν on masters — the
  state that is expensive (algorithms 1-2 + eigensolves) to rebuild;
* every ``checkpoint_every`` Krylov cycles: the **iterate checkpoint**
  (cycle number, local iterate, residual history).

On a communicator repair the substitute restores from the partner's
replica.  When the replica is missing or stale the subdomain is
reconstructed from its overlap neighbors by partition-of-unity
interpolation (:func:`pou_reconstruct`): shared dofs get the
PoU-weighted average of the neighbors' copies, interior dofs restart
from zero — the Krylov method re-converges from a worse but consistent
iterate.  A missing setup replica degrades the local solver to the
Jacobi surrogate (:func:`jacobi_surrogate`) of PR 4's degraded modes.

Everything here is policy-free mechanics (partner election, blob
packing, the send/recv choreography); the recovery *protocol* — who
restores what after a repair — lives in :mod:`repro.core.spmd_ft`.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ReproError
from ..krylov.cycle import KrylovState

#: tag bases, above the spmd layer's 11-13k and the coarse solver's 40k+q
TAG_CKPT_SETUP = 14_000
TAG_CKPT_ITER = 14_500
TAG_RESTORE = 15_000       # partner -> substitute: setup blob
TAG_RESTORE_ITER = 15_100  # partner -> substitute: iterate checkpoint
TAG_POU = 15_500           # neighbor -> substitute: PoU contribution


def partner_map(dec) -> list[int]:
    """Deterministic replication partner per subdomain.

    Partner of *i* = the overlap neighbor sharing the most dofs with
    *i* (the cheapest rank to also reconstruct *i* by interpolation);
    ties break to the lowest rank.  Raises when a subdomain has no
    neighbors — a disconnected subdomain has no diskless redundancy.
    """
    partners: list[int] = []
    for sub in dec.subdomains:
        if not sub.neighbors:
            raise ReproError(
                f"subdomain {sub.index} has no overlap neighbors; "
                "diskless neighbor checkpointing needs a connected "
                "overlap graph")
        best = min(sub.neighbors,
                   key=lambda j: (-len(sub.shared[j]), j))
        partners.append(int(best))
    return partners


def setup_payload(rank) -> dict:
    """Pack a :class:`~repro.core.spmd.SpmdRank`'s expensive setup
    state into a replicable blob (numpy arrays only — the meter prices
    it as its true wire size)."""
    blob = {"index": rank.index, "W": rank.W.copy(),
            "is_master": rank.layout.is_master}
    if rank.layout.is_master and rank.rows is not None:
        # pristine coarse rows need assemble_coarse_spmd(keep_rows=True);
        # a degraded master (rows already lost) replicates without them
        blob["rows"] = rank.rows.copy()
        blob["row_starts"] = rank.row_starts.copy()
        blob["nu_all"] = rank.nu_all.copy()
    return blob


class CheckpointStore:
    """One rank's end of the replication choreography.

    Holds the blobs this rank keeps for its *clients* (the ranks whose
    partner it is) and drives the symmetric send/recv rounds.  All
    rounds are collectively scheduled — every rank calls the same method
    at the same point of the algorithm, so the pairwise traffic matches
    up without a rendezvous."""

    def __init__(self, comm, partners: list[int], *,
                 checkpoint_every: int = 1):
        self.comm = comm
        self.partners = partners
        self.partner = partners[comm.rank]
        self.clients = sorted(i for i, p in enumerate(partners)
                              if p == comm.rank)
        self.checkpoint_every = int(checkpoint_every)
        #: client rank -> setup blob held on their behalf
        self.held_setup: dict[int, dict] = {}
        #: client rank -> latest iterate checkpoint
        self.held_iter: dict[int, KrylovState] = {}
        #: checkpoints this rank produced (for overhead accounting)
        self.ticks = 0

    # -- replication rounds -------------------------------------------
    def replicate_setup(self, blob: dict,
                        affected: set[int] | None = None) -> None:
        """Send my setup blob to my partner; absorb my clients' blobs.

        With *affected*, the round is restricted to replication pairs
        touching that set — a post-repair re-replication re-sends the
        blobs a dead rank held and re-homes the substitutes' own blobs
        without re-running the full round."""
        comm = self.comm
        me = comm.rank
        if (affected is None or me in affected
                or self.partner in affected):
            comm.isend(blob, self.partner, TAG_CKPT_SETUP)
        for c in self.clients:
            if affected is None or me in affected or c in affected:
                self.held_setup[c] = comm.recv(c, TAG_CKPT_SETUP)

    def tick(self, ckpt: KrylovState) -> None:
        """One iterate-checkpoint exchange (call at a cycle boundary on
        EVERY rank; the schedule is collective)."""
        comm = self.comm
        comm.isend({"cycle": ckpt.cycle, "k": ckpt.k, "x": ckpt.x.copy(),
                    "residuals": list(ckpt.residuals)},
                   self.partner, TAG_CKPT_ITER)
        for c in self.clients:
            d = comm.recv(c, TAG_CKPT_ITER)
            self.held_iter[c] = KrylovState(
                d["cycle"], d["k"], d["x"], d["residuals"])
        self.ticks += 1

    def due(self, cycle: int) -> bool:
        """Is a checkpoint due at this cycle boundary?"""
        return (self.checkpoint_every > 0
                and cycle % self.checkpoint_every == 0)

    # -- restore helpers (driven by the spmd_ft recovery protocol) -----
    def serve_setup(self, client: int) -> None:
        self.comm.isend(self.held_setup[client], client, TAG_RESTORE)

    def fetch_setup(self) -> dict:
        return self.comm.recv(self.partner, TAG_RESTORE)

    def serve_iter(self, client: int) -> None:
        ck = self.held_iter[client]
        self.comm.isend({"cycle": ck.cycle, "k": ck.k, "x": ck.x.copy(),
                         "residuals": list(ck.residuals)},
                        client, TAG_RESTORE_ITER)

    def fetch_iter(self) -> KrylovState:
        d = self.comm.recv(self.partner, TAG_RESTORE_ITER)
        return KrylovState(d["cycle"], d["k"], d["x"], d["residuals"])


# ----------------------------------------------------------------------
# Partition-of-unity reconstruction + Jacobi surrogate (last resorts)
# ----------------------------------------------------------------------

def pou_send_contribution(comm, sub, x: np.ndarray, lost: int) -> None:
    """Live neighbor side: ship my PoU-weighted copy of the dofs I share
    with the *lost* subdomain."""
    idx = sub.shared[lost]
    comm.isend({"vals": sub.d[idx] * x[idx], "wts": sub.d[idx].copy()},
               lost, TAG_POU)


def pou_reconstruct(comm, sub, neighbors: list[int]) -> np.ndarray:
    """Substitute side: rebuild a consistent local iterate from the
    overlap *neighbors*' contributions.

    Shared dofs get the PoU-weighted average ``Σ_j d_j x_j / Σ_j d_j``
    over the contributing neighbors (both sides order their ``shared``
    arrays by ascending global dof id, so the entries align); dofs
    exclusively owned by the lost subdomain restart from zero.
    """
    n = len(sub.dofs)
    num = np.zeros(n)
    den = np.zeros(n)
    for j in neighbors:
        d = comm.recv(j, TAG_POU)
        idx = sub.shared[j]
        num[idx] += d["vals"]
        den[idx] += d["wts"]
    x = np.zeros(n)
    mask = den > 0
    x[mask] = num[mask] / den[mask]
    return x


class JacobiFactor:
    """Diagonal (Jacobi) surrogate for a lost local factorization — the
    degraded local solve used when a subdomain's setup replica is gone.
    Matches the ``factorize`` backends' ``solve`` interface."""

    def __init__(self, A_dir):
        diag = np.asarray(A_dir.diagonal(), dtype=float).copy()
        diag[diag == 0.0] = 1.0
        self._inv = 1.0 / diag

    def solve(self, r: np.ndarray) -> np.ndarray:
        return self._inv * r


def jacobi_surrogate(sub) -> JacobiFactor:
    """Build the Jacobi surrogate local solver for *sub* (its direct
    stiffness ``A_dir`` is always reassemblable from the decomposition,
    only the factorization is lost)."""
    return JacobiFactor(sub.A_dir)
