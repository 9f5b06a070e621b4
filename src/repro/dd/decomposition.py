"""Overlapping decomposition: subdomain data + neighbour exchange maps.

This is the algebraic heart of the paper's §2: every subdomain carries

* its restriction ``R_i`` (an index set into the reduced global dofs),
* the assembled "Dirichlet" matrix ``A_i = R_i A R_iᵀ`` — obtained by the
  paper's approach 2 (assemble on V_i^{δ+1}, trim the extra layer; the
  global A is **never** assembled),
* the unassembled "Neumann" matrix ``A_i^δ`` (discretisation of the form
  on V_i^δ) used by the GenEO eigenproblem,
* the partition-of-unity diagonal ``D_i``,
* and the actions of ``R_i R_jᵀ`` for every neighbour j — position index
  pairs aligned by global dof, which is all eq. (5) needs to compute the
  distributed matrix–vector product with purely local data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from ..common.errors import DecompositionError
from ..common.validation import as_float64_block
from ..fem.space import FunctionSpace
from ..mesh import SimplexMesh
from ..parallel import ParallelConfig, parallel_map, resolve_parallel
from .dofmap import map_vector_dofs
from .overlap import grow_overlap
from .pou import chi_tilde, expand_to_vector, pou_diagonal
from .problem import Problem


@dataclass
class Subdomain:
    """All local data of one subdomain (one simulated MPI rank).

    The mesh-only fields come from the decomposition's cached
    :class:`SubdomainTopology` and are shared, read-only, by every build
    on the mesh; the matrices are this build's own."""

    index: int
    #: parent cell ids of T_i^δ and the layer at which each entered
    cells: np.ndarray
    layers: np.ndarray
    #: local overlapping mesh Ω_i^δ and its FE space V_i^δ
    mesh: SimplexMesh
    space: FunctionSpace
    #: R_i — reduced-global dof id of each kept local dof (length n_i)
    dofs: np.ndarray
    #: assembled (Dirichlet) matrix R_i A R_iᵀ
    A_dir: sp.csr_matrix
    #: unassembled (Neumann) matrix from discretising a on V_i^δ
    A_neu: sp.csr_matrix
    #: partition-of-unity diagonal D_i
    d: np.ndarray
    #: local right-hand side contribution? not stored; use restrict(b)
    neighbors: list[int] = field(default_factory=list)
    #: for each neighbour j, positions (into my local vector) of the dofs
    #: shared with j, ordered by ascending global dof id — the two sides'
    #: arrays align, giving the action of R_i R_jᵀ
    shared: dict[int, np.ndarray] = field(default_factory=dict)
    #: boolean mask of local dofs lying in the overlap ∪_j (V_i^δ ∩ V_j^δ)
    #: — the R_{i,0} of the GenEO eigenproblem (eq. 9)
    overlap_mask: np.ndarray | None = None
    #: SPD surrogate of A_neu for the extended-GenEO pencil (the form's
    #: ``assemble_geneo_matrix``); ``None`` for forms whose A_neu is
    #: already symmetric positive semi-definite
    A_geneo: sp.csr_matrix | None = None

    @property
    def size(self) -> int:
        return int(self.dofs.size)

    @property
    def num_deflation_neighbors(self) -> int:
        return len(self.neighbors)


@dataclass(frozen=True)
class SubdomainTopology:
    """The mesh-only data of one subdomain — everything the numeric phase
    needs that does not depend on the coefficients.  Arrays are
    read-only: one record serves every build on the same mesh."""

    index: int
    #: T_i^δ (cells, entry layers), Ω_i^δ and V_i^δ
    cells: np.ndarray
    layers: np.ndarray
    mesh: SimplexMesh
    space: FunctionSpace
    #: T_i^{δ+1} and V_i^{δ+1}, where the Dirichlet matrix is assembled
    cells_dp1: np.ndarray
    space_dp1: FunctionSpace
    #: positions in V_i^{δ+1} of the kept (free) V_i^δ dofs, and the
    #: kept V_i^δ dofs themselves
    sel: np.ndarray
    keep_idx: np.ndarray
    dofs: np.ndarray
    d: np.ndarray
    #: exchange maps, filled once every subdomain's dofs are known
    neighbors: tuple[int, ...] = ()
    shared: dict[int, np.ndarray] = field(default_factory=dict)
    overlap_mask: np.ndarray | None = None


@dataclass(frozen=True)
class Topology:
    """Mesh-only phase of a decomposition: overlaps, submeshes, spaces,
    dof maps, partition of unity and neighbour exchange maps."""

    subdomains: list[SubdomainTopology]
    #: number of subdomains sharing each free dof
    multiplicity: np.ndarray


class Decomposition:
    """The overlapping decomposition of a :class:`~repro.dd.problem.Problem`.

    Every build runs two phases.  The *topology* phase
    (:class:`Topology`) depends on the mesh alone; it is kept in the
    mesh's one-entry ``"topology"`` memo slot, keyed by δ, the space
    signature (type, degree, components), the ``part`` contents and the
    free dofs, so a second decomposition with the same key on the same
    mesh reuses it (:attr:`topology_reused`).  The *numeric* phase —
    local assembly, the trims to ``A_dir``/``A_neu``/``A_geneo``, Jacobi
    scaling and symmetry detection — runs on every build.

    Parameters
    ----------
    problem:
        Global problem (form + mesh + Dirichlet data).
    part:
        Per-cell subdomain ids (from :func:`repro.partition.partition_mesh`).
    delta:
        Overlap width δ >= 1 (the paper's strong-scaling runs use the
        minimal geometric overlap δ = 1).
    parallel:
        Executor for the per-subdomain extraction/assembly loops
        (:class:`~repro.parallel.ParallelConfig`, a backend name, or
        ``None`` for serial).  Results are executor-independent.
    recorder:
        Optional :class:`repro.obs.Recorder` — records the build steps
        as spans (``build_topology`` with its ``build_exchange`` when the
        topology is built, ``build_subdomains``, ``apply_scaling``), the
        gauge ``dd.topology_reused`` (1 when the memo answered), and
        counts every distributed matvec under the ``matvecs`` counter.
    kernels:
        Optional :class:`~repro.kernels.KernelBackend` owning the
        overlap-exchange kernel; ``None`` uses the reference ``numpy``
        backend (identical operations).
    """

    def __init__(self, problem: Problem, part: np.ndarray, delta: int = 1,
                 *, parallel: ParallelConfig | str | None = None,
                 recorder=None, kernels=None):
        from ..kernels import default_backend
        from ..obs.recorder import NULL_RECORDER
        part = np.asarray(part, dtype=np.int64)
        if part.shape != (problem.mesh.num_cells,):
            raise DecompositionError(
                f"part must have shape ({problem.mesh.num_cells},), "
                f"got {part.shape}")
        if delta < 1:
            raise DecompositionError(f"delta must be >= 1, got {delta}")
        self.problem = problem
        self.part = part
        self.delta = int(delta)
        self.parallel = resolve_parallel(parallel)
        self.num_subdomains = int(part.max()) + 1
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.kernels = default_backend() if kernels is None else kernels
        #: number of distributed A·x products performed (the solve-phase
        #: SpMV counter — the fast A-DEF1 apply path must not move it)
        self.matvecs = 0
        space = problem.space
        key = (self.delta, type(space), space.degree, space.ncomp, part,
               problem.free)
        with self.recorder.span("build_topology"):
            topology, self.topology_reused = problem.mesh.memo(
                "topology", key, lambda: _build_topology(
                    problem, part, self.delta, self.parallel,
                    self.recorder))
        if self.recorder.enabled:
            self.recorder.gauge("dd.topology_reused",
                                float(self.topology_reused))
        self.multiplicity = topology.multiplicity
        with self.recorder.span("build_subdomains"):
            self.subdomains = parallel_map(
                lambda t: _assemble_subdomain(problem.form, t),
                topology.subdomains, self.parallel)
        with self.recorder.span("apply_scaling"):
            self._apply_scaling()
        self._detect_symmetry()

    # ------------------------------------------------------------------
    def _detect_symmetry(self) -> None:
        """Detect (a)symmetry of the global operator once, from local data.

        Every global nonzero ``A[p, q]`` comes from a cell interior to
        some subdomain's T_i^δ, so both ``(p, q)`` and ``(q, p)`` appear
        in that subdomain's principal submatrix ``A_dir`` — all-local
        symmetry therefore implies global symmetry, without ever
        assembling A.  The result is recorded on the operator as
        :attr:`is_symmetric`/:attr:`is_spd`, the single flag that driver
        dispatch, ``solve_many``'s auto-pick, deflated-cg validation and
        the kernel backends all branch on.
        """
        from ..common.validation import matrix_is_symmetric
        self.is_symmetric = all(
            matrix_is_symmetric(s.A_dir) for s in self.subdomains)
        #: symmetric + the form's definiteness claim (indefinite forms
        #: such as Helmholtz declare spd=False even though symmetric)
        self.is_spd = bool(
            self.is_symmetric and getattr(self.problem.form, "spd", True))

    # ------------------------------------------------------------------
    def _apply_scaling(self) -> None:
        """Symmetric Jacobi scaling computed from *local* diagonals.

        diag(A)|_{V_i^δ} = diag(A_i) because A_i is the assembled Dirichlet
        matrix, so the global scale vector is available without ever
        assembling A — every subdomain just scatters its diagonal."""
        if self.problem.scaling is None:
            return
        scale = np.zeros(self.problem.num_free)
        for s in self.subdomains:
            # |diag|: indefinite operators carry negative diagonal
            # entries; bitwise identical to sqrt(diag) for SPD forms
            scale[s.dofs] = 1.0 / np.sqrt(np.abs(s.A_dir.diagonal()))
        self.problem.set_scale(scale)
        for s in self.subdomains:
            Si = sp.diags(scale[s.dofs])
            s.A_dir = (Si @ s.A_dir @ Si).tocsr()
            s.A_neu = (Si @ s.A_neu @ Si).tocsr()
            if s.A_geneo is not None:
                s.A_geneo = (Si @ s.A_geneo @ Si).tocsr()

    # ------------------------------------------------------------------
    # Global <-> local transfers (test / driver utilities)
    # ------------------------------------------------------------------
    def restrict(self, u: np.ndarray) -> list[np.ndarray]:
        """u_i = R_i u for every subdomain."""
        return [u[s.dofs] for s in self.subdomains]

    def combine(self, u_list: list[np.ndarray]) -> np.ndarray:
        """Σ_i R_iᵀ D_i u_i — the partition-of-unity prolongation.

        A subdomain's dofs are unique, so fancy-index accumulation is
        exact (and far cheaper than ``np.add.at``'s unbuffered path).
        """
        out = np.zeros(self.problem.num_free)
        for s, ui in zip(self.subdomains, u_list):
            out[s.dofs] += s.d * ui
        return out

    def combine_raw(self, u_list: list[np.ndarray]) -> np.ndarray:
        """Σ_i R_iᵀ u_i (no partition of unity)."""
        out = np.zeros(self.problem.num_free)
        for s, ui in zip(self.subdomains, u_list):
            out[s.dofs] += ui
        return out

    # ------------------------------------------------------------------
    # Neighbour exchange and the distributed matvec of eq. (5)
    # ------------------------------------------------------------------
    def exchange_sum(self, x_list: list[np.ndarray]) -> list[np.ndarray]:
        """y_i = Σ_{j ∈ Ō_i} R_i R_jᵀ x_j  (the j = i term is x_i itself).

        This is the communication pattern of one global sparse
        matrix–vector product (peer-to-peer transfers on the overlap);
        the loop itself lives in the kernel backend
        (:meth:`repro.kernels.KernelBackend.exchange_sum`).
        """
        return self.kernels.exchange_sum(self.subdomains, x_list)

    def matvec_local(self, x_list: list[np.ndarray]) -> list[np.ndarray]:
        """(Ax)_i from purely local data: eq. (5),
        (Ax)_i = Σ_j R_i R_jᵀ A_j D_j x_j, for consistent inputs x_i = R_i x.
        """
        t = [s.A_dir @ (s.d * xi) for s, xi in zip(self.subdomains, x_list)]
        return self.exchange_sum(t)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Global A·x computed through the distributed algorithm (never
        touching the assembled global matrix); returns the reduced vector.

        Consistency: the result is read off subdomain-local pieces using
        the partition of unity (each dof's value is identical on every
        subdomain owning it, so any weighted combination returns it)."""
        self.matvecs += 1
        if self.recorder.enabled:
            self.recorder.add("matvecs", 1)
        y_list = self.matvec_local(self.restrict(x))
        return self.combine(y_list)

    def matvec_block(self, X: np.ndarray) -> np.ndarray:
        """Blocked distributed A·X for a column block ``X (n_free, k)``.

        Same algorithm as :meth:`matvec` run on all k columns at once:
        one csrmm per subdomain instead of k csrmvs, and one neighbour
        exchange for the whole block (``exchange_sum`` is shape-generic —
        the shared-dof row indexing broadcasts over columns).  Counts as
        k distributed matvecs.
        """
        X = as_float64_block(X, "matvec_block", DecompositionError)
        k = X.shape[1]
        self.matvecs += k
        if self.recorder.enabled:
            self.recorder.add("matvecs", k)
        subs = self.subdomains
        t = [s.A_dir @ (s.d[:, None] * X[s.dofs, :]) for s in subs]
        summed = self.exchange_sum(t)
        out = np.zeros((self.problem.num_free, k))
        for s, yi in zip(subs, summed):
            out[s.dofs] += s.d[:, None] * yi
        return out

    # ------------------------------------------------------------------
    def neighbor_counts(self) -> np.ndarray:
        """|O_i| per subdomain (drives the fill of E in fig. 11)."""
        return np.array([len(s.neighbors) for s in self.subdomains])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Decomposition(N={self.num_subdomains}, delta={self.delta}, "
                f"n_free={self.problem.num_free})")


# ----------------------------------------------------------------------
# The two build phases
# ----------------------------------------------------------------------

def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _build_topology(problem: Problem, part: np.ndarray, delta: int,
                    parallel: ParallelConfig, recorder) -> Topology:
    """The mesh-only phase: overlaps to δ+1, both submeshes and spaces
    per subdomain, dof maps, partition of unity and exchange maps."""
    mesh, form, gspace = problem.mesh, problem.form, problem.space
    N = int(part.max()) + 1

    # pre-warm the shared caches every task reads (mesh topology and
    # the global dof layout), so concurrent tasks never race to
    # populate a lazily-computed attribute
    mesh.vertex_to_cells
    gspace.cell_scalar_dofs
    gspace.cell_dofs

    # grow to δ+1 once; T_i^δ is the layer <= δ prefix
    grown = parallel_map(lambda i: grow_overlap(mesh, part, i, delta + 1),
                         range(N), parallel)
    overlaps_d = []
    for cells, layers in grown:
        keep = layers <= delta
        overlaps_d.append((cells[keep], layers[keep]))
    chi, chi_total = chi_tilde(mesh, overlaps_d, delta)

    def build_one(i: int) -> SubdomainTopology:
        cells_dp1, _ = grown[i]
        cells_d, layers_d = overlaps_d[i]
        smesh1, vmap1, cmap1 = mesh.extract_cells(cells_dp1)
        space1 = form.make_space(smesh1)
        smesh0, vmap0, cmap0 = mesh.extract_cells(cells_d)
        space0 = form.make_space(smesh0)

        g_d = map_vector_dofs(space0, gspace, vmap0, cmap0)
        g_dp1 = map_vector_dofs(space1, gspace, vmap1, cmap1)
        inv = np.full(gspace.num_dofs, -1, dtype=np.int64)
        inv[g_dp1] = np.arange(g_dp1.size)
        pos_in_dp1 = inv[g_d]
        if np.any(pos_in_dp1 < 0):  # pragma: no cover - internal check
            raise DecompositionError(
                f"V_{i}^δ not contained in V_{i}^(δ+1)")

        reduced = problem.free_lookup[g_d]
        keep = reduced >= 0

        # partition-of-unity diagonal
        verts, chi_vals = chi[i]
        if not np.array_equal(verts, vmap0):  # pragma: no cover
            raise DecompositionError(
                "vertex sets of χ̃ and submesh disagree")
        d_scal = pou_diagonal(space0, chi_vals, chi_total[vmap0])
        return SubdomainTopology(
            index=i, cells=cmap0, layers=layers_d, mesh=smesh0,
            space=space0, cells_dp1=cmap1, space_dp1=space1,
            sel=pos_in_dp1[keep], keep_idx=np.flatnonzero(keep),
            dofs=reduced[keep],
            d=expand_to_vector(d_scal, gspace.ncomp)[keep])

    subs = parallel_map(build_one, range(N), parallel)
    with recorder.span("build_exchange"):
        shared, multiplicity = _exchange_maps([t.dofs for t in subs],
                                              problem.num_free)
    records = []
    for t, sh in zip(subs, shared):
        mask = np.zeros(t.dofs.size, dtype=bool)
        for pos in sh.values():
            mask[pos] = True
        t = replace(t, neighbors=tuple(sorted(sh)), shared=sh,
                    overlap_mask=mask)
        _freeze(*sh.values(), *(v for v in vars(t).values()
                                if isinstance(v, np.ndarray)))
        records.append(t)
    _freeze(multiplicity)
    return Topology(records, multiplicity)


def _exchange_maps(dofs: list[np.ndarray], num_free: int
                   ) -> tuple[list[dict[int, np.ndarray]], np.ndarray]:
    """Neighbour sets O_i and the aligned shared-dof position arrays that
    realise R_i R_jᵀ, plus the multiplicity of every free dof."""
    dofs_all = np.concatenate(dofs)
    owner = np.concatenate([np.full(d.size, i, dtype=np.int64)
                            for i, d in enumerate(dofs)])
    pos = np.concatenate([np.arange(d.size, dtype=np.int64) for d in dofs])
    order = np.argsort(dofs_all, kind="stable")
    dsort, osort, psort = dofs_all[order], owner[order], pos[order]
    starts = np.flatnonzero(np.r_[True, dsort[1:] != dsort[:-1]])
    ends = np.r_[starts[1:], dsort.size]

    from collections import defaultdict
    pair_pos: dict[tuple[int, int], list[int]] = defaultdict(list)
    multiplicity = np.zeros(num_free, dtype=np.int64)
    for s0, s1 in zip(starts, ends):
        multiplicity[dsort[s0]] = s1 - s0
        if s1 - s0 < 2:
            continue
        group_owner = osort[s0:s1]
        group_pos = psort[s0:s1]
        for a in range(s1 - s0):
            for b in range(s1 - s0):
                if group_owner[a] != group_owner[b]:
                    pair_pos[(group_owner[a], group_owner[b])].append(
                        group_pos[a])
    if np.any(multiplicity == 0):  # pragma: no cover - internal check
        raise DecompositionError("a free dof belongs to no subdomain")

    # entries appended in ascending global-dof order (groups are visited
    # in sorted order), so both sides align
    shared: list[dict[int, np.ndarray]] = [{} for _ in dofs]
    for (i, j), plist in pair_pos.items():
        shared[i][j] = np.asarray(plist, dtype=np.int64)
    return shared, multiplicity


def _assemble_subdomain(form, t: SubdomainTopology) -> Subdomain:
    """The numeric phase of one subdomain: assemble on V_i^{δ+1} and trim
    to the Dirichlet matrix (approach 2 of §2), discretise the Neumann
    matrix (and the extended-GenEO surrogate) directly on V_i^δ."""
    A_loc = form.assemble_matrix(t.space_dp1, cell_map=t.cells_dp1)
    A_dir = A_loc[t.sel][:, t.sel].tocsr()
    A_neu = form.assemble_matrix(t.space, cell_map=t.cells)
    A_neu = A_neu[t.keep_idx][:, t.keep_idx].tocsr()
    # SPD surrogate for the extended-GenEO pencil, same V_i^δ reduction
    # as A_neu (None for plain-GenEO-compatible forms)
    A_geneo = form.assemble_geneo_matrix(t.space, cell_map=t.cells)
    if A_geneo is not None:
        A_geneo = A_geneo[t.keep_idx][:, t.keep_idx].tocsr()
    # the dict and list are fresh per build; the arrays are the cached,
    # read-only ones
    return Subdomain(
        index=t.index, cells=t.cells, layers=t.layers, mesh=t.mesh,
        space=t.space, dofs=t.dofs, A_dir=A_dir, A_neu=A_neu, d=t.d,
        neighbors=list(t.neighbors), shared=dict(t.shared),
        overlap_mask=t.overlap_mask, A_geneo=A_geneo)
