"""Vectorised finite element assembly.

Assembles the bilinear forms of the paper:

* heterogeneous diffusion  ``a(u, v) = ∫ κ ∇u·∇v``  (weak-scaling problem),
* linear elasticity        ``a(u, v) = ∫ λ (∇·u)(∇·v) + 2 μ ε(u):ε(v)``
  (strong-scaling problem),
* mass matrices and load vectors.

All element matrices for all cells are computed in one batched einsum per
quadrature-independent factor and scattered into a COO triplet list — no
per-cell Python loop (see the project's HPC-Python guide on vectorising).
Coefficients may be per-cell arrays (piecewise constant, how the paper's
high-contrast fields are defined) or callables evaluated at quadrature
points.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..common.errors import FEMError
from .quadrature import simplex_quadrature
from .space import FunctionSpace


# ----------------------------------------------------------------------
# Geometry batches
# ----------------------------------------------------------------------

def _cell_geometry(space: FunctionSpace):
    """Jacobians, inverse Jacobians and |det J| for all cells.

    Memoised on the space: stiffness, mass and load assembly all need the
    same batch, and reassembling paths (elasticity's two forms, Picard's
    per-iteration reassembly) would otherwise recompute every cell
    Jacobian/inverse/determinant each time.  Mesh arrays are read-only
    (refinement returns new meshes, hence new spaces), so the cache
    cannot go stale.
    """
    cached = getattr(space, "_cell_geometry_cache", None)
    if cached is not None:
        return cached
    mesh = space.mesh
    v = mesh.vertices[mesh.cells]                 # (nc, dim+1, dim)
    J = np.swapaxes(v[:, 1:, :] - v[:, :1, :], 1, 2)   # (nc, dim, dim); col j = edge j
    detJ = np.linalg.det(J)
    if np.any(detJ <= 0):
        raise FEMError("mesh contains non-positively oriented cells")
    Jinv = np.linalg.inv(J)                       # (nc, dim, dim)
    space._cell_geometry_cache = (J, Jinv, detJ)
    return space._cell_geometry_cache


def _coefficient_at_quadrature(coeff, space: FunctionSpace, qpts: np.ndarray,
                               name: str) -> np.ndarray:
    """Evaluate *coeff* as a ``(nc, nq)`` array.

    Accepts: None (=> 1), a scalar, a per-cell array of length ``nc``, or a
    callable mapping ``(n, dim)`` physical points to values.
    """
    mesh = space.mesh
    nc, nq = mesh.num_cells, qpts.shape[0]
    if coeff is None:
        return np.ones((nc, nq))
    if callable(coeff):
        v = mesh.vertices[mesh.cells]
        origin = v[:, 0, :]
        edges = v[:, 1:, :] - v[:, :1, :]
        phys = origin[:, None, :] + np.einsum("qd,cde->cqe", qpts, edges)
        vals = np.asarray(coeff(phys.reshape(-1, mesh.dim)), dtype=np.float64)
        if vals.shape != (nc * nq,):
            raise FEMError(f"{name} callable returned shape {vals.shape}, "
                           f"expected ({nc * nq},)")
        return vals.reshape(nc, nq)
    arr = np.asarray(coeff, dtype=np.float64)
    if arr.ndim == 0:
        return np.full((nc, nq), float(arr))
    if arr.shape == (nc,):
        return np.repeat(arr[:, None], nq, axis=1)
    raise FEMError(f"{name} must be None, scalar, per-cell array of length "
                   f"{nc}, or callable; got array of shape {arr.shape}")


def _vector_coefficient_at_quadrature(coeff, space: FunctionSpace,
                                      qpts: np.ndarray,
                                      name: str) -> np.ndarray:
    """Evaluate a vector-valued *coeff* as a ``(nc, nq, dim)`` array.

    Accepts: a constant vector of length ``dim``, a per-cell ``(nc, dim)``
    array, or a callable mapping ``(n, dim)`` physical points to
    ``(n, dim)`` vectors.
    """
    mesh = space.mesh
    nc, nq, dim = mesh.num_cells, qpts.shape[0], mesh.dim
    if callable(coeff):
        v = mesh.vertices[mesh.cells]
        origin = v[:, 0, :]
        edges = v[:, 1:, :] - v[:, :1, :]
        phys = origin[:, None, :] + np.einsum("qd,cde->cqe", qpts, edges)
        vals = np.asarray(coeff(phys.reshape(-1, dim)), dtype=np.float64)
        if vals.shape != (nc * nq, dim):
            raise FEMError(f"{name} callable returned shape {vals.shape}, "
                           f"expected ({nc * nq}, {dim})")
        return vals.reshape(nc, nq, dim)
    arr = np.asarray(coeff, dtype=np.float64)
    if arr.shape == (dim,):
        return np.broadcast_to(arr, (nc, nq, dim)).copy()
    if arr.shape == (nc, dim):
        return np.repeat(arr[:, None, :], nq, axis=1)
    raise FEMError(f"{name} must be a length-{dim} vector, a per-cell "
                   f"({nc}, {dim}) array, or a callable; got shape "
                   f"{arr.shape}")


def _physical_gradients(space: FunctionSpace, qpts: np.ndarray):
    """Per-cell physical basis gradients ``(nc, nq, n_loc, dim)`` and the
    quadrature scaling ``w_q |det J|`` of shape ``(nc, nq)``."""
    _, Jinv, detJ = _cell_geometry(space)
    gref = space.ref.eval_basis_grads(qpts)       # (nq, n_loc, dim)
    # physical grad = J^{-T} @ ref grad  =>  g_phys[d] = sum_e Jinv[e, d] gref[e]
    gphys = np.einsum("ced,qie->cqid", Jinv, gref)
    return gphys, detJ


def _scatter(space: FunctionSpace, Ke: np.ndarray, *, vector: bool) -> sp.csr_matrix:
    """Scatter batched element matrices ``(nc, nd, nd)`` to global CSR."""
    dofs = space.cell_dofs if vector else space.cell_scalar_dofs
    nc, nd = dofs.shape
    rows = np.repeat(dofs, nd, axis=1).ravel()
    cols = np.tile(dofs, (1, nd)).ravel()
    n = space.num_dofs if vector else space.num_scalar_dofs
    A = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(n, n))
    return A.tocsr()


# ----------------------------------------------------------------------
# Bilinear forms
# ----------------------------------------------------------------------

def assemble_stiffness(space: FunctionSpace, kappa=None,
                       quad_degree: int | None = None) -> sp.csr_matrix:
    """Heterogeneous diffusion stiffness matrix ``∫ κ ∇u·∇v``.

    *space* must be scalar (ncomp == 1).  ``κ`` as per
    :func:`_coefficient_at_quadrature`.
    """
    if space.ncomp != 1:
        raise FEMError("assemble_stiffness requires a scalar space; "
                       "use assemble_elasticity for vector problems")
    k = space.degree
    qd = quad_degree if quad_degree is not None else max(0, 2 * (k - 1))
    qpts, qw = simplex_quadrature(space.mesh.dim, qd)
    gphys, detJ = _physical_gradients(space, qpts)
    kap = _coefficient_at_quadrature(kappa, space, qpts, "kappa")
    scale = kap * (qw[None, :] * detJ[:, None])   # (nc, nq)
    Ke = np.einsum("cq,cqid,cqjd->cij", scale, gphys, gphys, optimize=True)
    return _scatter(space, Ke, vector=False)


def assemble_mass(space: FunctionSpace, rho=None,
                  quad_degree: int | None = None) -> sp.csr_matrix:
    """Mass matrix ``∫ ρ u v`` (scalar or vector; vector mass is block
    diagonal per component)."""
    k = space.degree
    qd = quad_degree if quad_degree is not None else 2 * k
    qpts, qw = simplex_quadrature(space.mesh.dim, qd)
    _, _, detJ = _cell_geometry(space)
    phi = space.ref.eval_basis(qpts)              # (nq, n_loc)
    rho_q = _coefficient_at_quadrature(rho, space, qpts, "rho")
    scale = rho_q * (qw[None, :] * detJ[:, None])
    Me_scalar = np.einsum("cq,qi,qj->cij", scale, phi, phi, optimize=True)
    if space.ncomp == 1:
        return _scatter(space, Me_scalar, vector=False)
    # expand to interleaved vector layout: M[i*nc+a, j*nc+b] = delta_ab * m_ij
    nc_cells, n_loc, _ = Me_scalar.shape
    ncmp = space.ncomp
    nd = n_loc * ncmp
    Me = np.zeros((nc_cells, nd, nd))
    for a in range(ncmp):
        Me[:, a::ncmp, a::ncmp] = Me_scalar
    return _scatter(space, Me, vector=True)


def assemble_elasticity(space: FunctionSpace, lam, mu,
                        quad_degree: int | None = None) -> sp.csr_matrix:
    """Linear elasticity stiffness ``∫ λ (∇·u)(∇·v) + 2 μ ε(u):ε(v)``.

    *space* must have ``ncomp == mesh.dim``.  ``lam``/``mu`` are the Lamé
    coefficient fields (scalar, per-cell array or callable).

    For basis functions ``u = φ_i e_α``, ``v = φ_j e_β``::

        2 ε(u):ε(v) = ∂_β φ_i ∂_α φ_j + δ_αβ ∇φ_i·∇φ_j
        (∇·u)(∇·v) = ∂_α φ_i ∂_β φ_j
    """
    dim = space.mesh.dim
    if space.ncomp != dim:
        raise FEMError(f"elasticity requires ncomp == dim == {dim}, "
                       f"got ncomp={space.ncomp}")
    k = space.degree
    qd = quad_degree if quad_degree is not None else max(0, 2 * (k - 1))
    qpts, qw = simplex_quadrature(dim, qd)
    gphys, detJ = _physical_gradients(space, qpts)
    lam_q = _coefficient_at_quadrature(lam, space, qpts, "lam")
    mu_q = _coefficient_at_quadrature(mu, space, qpts, "mu")
    wdet = qw[None, :] * detJ[:, None]
    lam_s = lam_q * wdet
    mu_s = mu_q * wdet

    # λ (∇·u)(∇·v):  K[iα, jβ] += λ G_iα G_jβ
    K_lam = np.einsum("cq,cqia,cqjb->ciajb", lam_s, gphys, gphys,
                      optimize=True)
    # 2 μ ε:ε, part 1: μ ∂_β φ_i ∂_α φ_j
    K_mu1 = np.einsum("cq,cqib,cqja->ciajb", mu_s, gphys, gphys,
                      optimize=True)
    # part 2: μ δ_αβ ∇φ_i·∇φ_j
    gdot = np.einsum("cq,cqid,cqjd->cij", mu_s, gphys, gphys, optimize=True)
    eye = np.eye(dim)
    K_mu2 = np.einsum("cij,ab->ciajb", gdot, eye, optimize=True)

    Ke = K_lam + K_mu1 + K_mu2
    nc_cells, n_loc = Ke.shape[0], Ke.shape[1]
    nd = n_loc * dim
    return _scatter(space, Ke.reshape(nc_cells, nd, nd), vector=True)


def assemble_advection(space: FunctionSpace, beta,
                       quad_degree: int | None = None) -> sp.csr_matrix:
    """Advection matrix ``∫ (β·∇u) v`` — the nonsymmetric half of the
    convection–diffusion operator.

    *space* must be scalar.  ``β`` as per
    :func:`_vector_coefficient_at_quadrature`.  For constant ``β`` and
    homogeneous Dirichlet conditions on the whole boundary, the
    restriction of this matrix to the free dofs is exactly
    skew-symmetric (integration by parts with ∇·β = 0).
    """
    if space.ncomp != 1:
        raise FEMError("assemble_advection requires a scalar space")
    k = space.degree
    qd = quad_degree if quad_degree is not None else max(0, 2 * k - 1)
    qpts, qw = simplex_quadrature(space.mesh.dim, qd)
    gphys, detJ = _physical_gradients(space, qpts)
    phi = space.ref.eval_basis(qpts)              # (nq, n_loc)
    beta_q = _vector_coefficient_at_quadrature(beta, space, qpts, "beta")
    wdet = qw[None, :] * detJ[:, None]            # (nc, nq)
    # rows i = test function v, cols j = trial function u
    bgrad = np.einsum("cqd,cqjd->cqj", beta_q, gphys, optimize=True)
    Ke = np.einsum("cq,qi,cqj->cij", wdet, phi, bgrad, optimize=True)
    return _scatter(space, Ke, vector=False)


def assemble_streamline_diffusion(space: FunctionSpace, beta, tau,
                                  quad_degree: int | None = None
                                  ) -> sp.csr_matrix:
    """SUPG stabilisation matrix ``∫ τ (β·∇u)(β·∇v)`` with a per-cell
    stabilisation parameter ``τ`` (symmetric positive semi-definite)."""
    if space.ncomp != 1:
        raise FEMError("assemble_streamline_diffusion requires a "
                       "scalar space")
    k = space.degree
    qd = quad_degree if quad_degree is not None else max(0, 2 * k - 1)
    qpts, qw = simplex_quadrature(space.mesh.dim, qd)
    gphys, detJ = _physical_gradients(space, qpts)
    beta_q = _vector_coefficient_at_quadrature(beta, space, qpts, "beta")
    tau_c = np.asarray(tau, dtype=np.float64)
    if tau_c.ndim == 0:
        tau_c = np.full(space.mesh.num_cells, float(tau_c))
    if tau_c.shape != (space.mesh.num_cells,):
        raise FEMError(f"tau must be scalar or per-cell array of length "
                       f"{space.mesh.num_cells}, got shape {tau_c.shape}")
    wdet = qw[None, :] * detJ[:, None]
    bgrad = np.einsum("cqd,cqid->cqi", beta_q, gphys, optimize=True)
    scale = tau_c[:, None] * wdet                 # (nc, nq)
    Ke = np.einsum("cq,cqi,cqj->cij", scale, bgrad, bgrad, optimize=True)
    return _scatter(space, Ke, vector=False)


def assemble_streamline_load(space: FunctionSpace, beta, tau, f,
                             quad_degree: int | None = None) -> np.ndarray:
    """SUPG right-hand-side correction ``∫ τ f (β·∇v)`` — keeps the
    stabilised discretisation consistent for the exact solution."""
    if space.ncomp != 1:
        raise FEMError("assemble_streamline_load requires a scalar space")
    k = space.degree
    qd = quad_degree if quad_degree is not None else max(0, 2 * k - 1)
    qpts, qw = simplex_quadrature(space.mesh.dim, qd)
    gphys, detJ = _physical_gradients(space, qpts)
    beta_q = _vector_coefficient_at_quadrature(beta, space, qpts, "beta")
    fq = _coefficient_at_quadrature(f, space, qpts, "f")
    tau_c = np.asarray(tau, dtype=np.float64)
    if tau_c.ndim == 0:
        tau_c = np.full(space.mesh.num_cells, float(tau_c))
    wdet = qw[None, :] * detJ[:, None]
    bgrad = np.einsum("cqd,cqid->cqi", beta_q, gphys, optimize=True)
    be = np.einsum("c,cq,cq,cqi->ci", tau_c, wdet, fq, bgrad, optimize=True)
    b = np.zeros(space.num_dofs)
    np.add.at(b, space.cell_scalar_dofs.ravel(), be.ravel())
    return b


# ----------------------------------------------------------------------
# Linear forms
# ----------------------------------------------------------------------

def assemble_load(space: FunctionSpace, f, quad_degree: int | None = None) -> np.ndarray:
    """Load vector ``(f, v)``.

    *f* is a callable mapping ``(n, dim)`` points to values (scalar spaces)
    or to ``(n, ncomp)`` vectors, a constant scalar, or a constant vector of
    length ``ncomp``.
    """
    mesh = space.mesh
    k = space.degree
    qd = quad_degree if quad_degree is not None else 2 * k
    qpts, qw = simplex_quadrature(mesh.dim, qd)
    _, _, detJ = _cell_geometry(space)
    phi = space.ref.eval_basis(qpts)              # (nq, n_loc)
    nc, nq = mesh.num_cells, qpts.shape[0]

    if callable(f):
        v = mesh.vertices[mesh.cells]
        origin = v[:, 0, :]
        edges = v[:, 1:, :] - v[:, :1, :]
        phys = origin[:, None, :] + np.einsum("qd,cde->cqe", qpts, edges)
        vals = np.asarray(f(phys.reshape(-1, mesh.dim)), dtype=np.float64)
        expect = (nc * nq,) if space.ncomp == 1 else (nc * nq, space.ncomp)
        if vals.shape != expect:
            raise FEMError(f"load callable returned {vals.shape}, "
                           f"expected {expect}")
        fq = vals.reshape((nc, nq) if space.ncomp == 1 else (nc, nq, space.ncomp))
    else:
        arr = np.asarray(f, dtype=np.float64)
        if space.ncomp == 1:
            fq = np.full((nc, nq), float(arr))
        else:
            if arr.shape != (space.ncomp,):
                raise FEMError(f"constant vector load must have shape "
                               f"({space.ncomp},), got {arr.shape}")
            fq = np.broadcast_to(arr, (nc, nq, space.ncomp)).copy()

    wdet = qw[None, :] * detJ[:, None]            # (nc, nq)
    b = np.zeros(space.num_dofs)
    if space.ncomp == 1:
        be = np.einsum("cq,cq,qi->ci", wdet, fq, phi, optimize=True)
        np.add.at(b, space.cell_scalar_dofs.ravel(), be.ravel())
    else:
        be = np.einsum("cq,cqa,qi->cia", wdet, fq, phi, optimize=True)
        nd = be.shape[1] * be.shape[2]
        np.add.at(b, space.cell_dofs.ravel(), be.reshape(nc, nd).ravel())
    return b


# ----------------------------------------------------------------------
# Dirichlet boundary conditions
# ----------------------------------------------------------------------

def apply_dirichlet(A: sp.csr_matrix, b: np.ndarray, dofs, values=0.0):
    """Symmetric elimination of Dirichlet dofs.

    Returns ``(A_bc, b_bc)`` where constrained rows/columns are zeroed, the
    diagonal is set to 1 and the right-hand side carries the boundary
    values (columns are lifted into *b* first, preserving symmetry).
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    n = A.shape[0]
    vals = np.zeros(n)
    vals[dofs] = values
    A = A.tocsr()
    b = b - A @ vals
    mask = np.zeros(n, dtype=bool)
    mask[dofs] = True
    keep = ~mask
    # zero rows and columns via diagonal projector, then restore unit diag
    P = sp.diags(keep.astype(np.float64))
    A_bc = (P @ A @ P).tolil()
    A_bc[dofs, dofs] = 1.0
    b = b.copy()
    b[dofs] = vals[dofs]
    return A_bc.tocsr(), b


def restrict_to_free(A: sp.csr_matrix, b: np.ndarray, dofs):
    """Reduce the system to the free (non-Dirichlet, homogeneous) dofs.

    Returns ``(A_ff, b_f, free)`` — the paper's solvers all operate on the
    reduced SPD system.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    n = A.shape[0]
    mask = np.ones(n, dtype=bool)
    mask[dofs] = False
    free = np.flatnonzero(mask)
    A_ff = A.tocsr()[free][:, free].tocsr()
    return A_ff, b[free], free
