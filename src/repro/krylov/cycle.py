"""The restart engine shared by the single-vector GMRES drivers.

Every restarted GMRES (``gmres``, ``fgmres``, ``p1_gmres``,
``s_step_gmres``, :func:`~repro.core.spmd.spmd_gmres` and the
fault-tolerant SPMD solve) is one :class:`RestartShell` around a *cycle*
``cycle(shell, x, r, beta) -> x`` that builds one Krylov basis from
``r / beta``, hands each residual estimate to
:meth:`RestartShell.report` (which says when to stop) and returns the new
iterate.  The shell owns the ``‖b‖ = 0`` exit, one ``b − A x`` per cycle
boundary (counted as one global sync), the profiler, health and callback
hooks, the true-residual fix-up of the last history entry and the
:class:`KrylovResult`.  :class:`ArnoldiCycle` is the classical Arnoldi +
Givens cycle with a pluggable orthogonalisation step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ConvergenceError, KrylovError
from ..common.timing import PhaseTimer
from .profile import finish_zero_rhs


@dataclass
class KrylovResult:
    """Outcome of a Krylov solve."""

    x: np.ndarray
    iterations: int
    residuals: list[float] = field(default_factory=list)
    converged: bool = True
    #: number of global synchronisations (reductions) performed
    global_syncs: int = 0
    #: per-phase wall-clock seconds of the solve — ``apply`` (the
    #: preconditioner), ``coarse_solve`` (nested inside ``apply``),
    #: ``matvec``, ``orthogonalization``
    profile: dict[str, float] = field(default_factory=dict)
    #: last-cycle Arnoldi data ``(V, H̄)`` with ``V`` of shape
    #: ``(n, k+1)`` and the *untransformed* Hessenberg ``H̄`` of shape
    #: ``(k+1, k)`` — populated only by drivers called with
    #: ``keep_basis=True``; the raw material for harvesting recycled
    #: Ritz vectors (:mod:`repro.batch.recycle`)
    basis: tuple | None = None

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else np.inf


def _as_operator(op, n: int, name: str):
    """Accept a callable, a scipy sparse matrix or a dense array;
    matrix-like operands are validated against the system size *n*.

    Dtype contract: complex operators are rejected (the drivers are
    real-valued), and a reduced-precision matrix (e.g. float32) is
    wrapped so its products are upcast to float64 — the iterates the
    drivers hand back are always float64, whatever the operator's
    storage precision.
    """
    if op is None:
        return lambda x: x
    if callable(op):
        return op
    matrix = op
    shape = getattr(matrix, "shape", None)
    if shape is not None and tuple(shape) != (n, n):
        raise KrylovError(
            f"operator {name} has shape {tuple(shape)}, expected ({n}, {n})")
    dtype = getattr(matrix, "dtype", None)
    if dtype is not None and np.issubdtype(dtype, np.complexfloating):
        raise KrylovError(
            f"operator {name} has complex dtype {dtype}; the Krylov "
            f"drivers are real-valued")
    if dtype is not None and dtype != np.float64:
        def mul(x, _m=matrix):
            return np.asarray(_m @ x, dtype=np.float64)
        return mul

    def mul(x, _m=matrix):
        return _m @ x

    return mul


@dataclass
class KrylovState:
    """Resumable Krylov state at a cycle boundary — also the iterate
    checkpoint of the fault-tolerant SPMD driver."""

    cycle: int                      # completed restart cycles
    k: int                          # total iterations completed
    x: np.ndarray | None            # (local) iterate
    residuals: list = field(default_factory=list)

    def copy(self) -> "KrylovState":
        return KrylovState(self.cycle, self.k, self.x.copy(),
                           list(self.residuals))


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


class RestartShell:
    """The restart loop around a cycle.  *norm* is the global 2-norm
    (an allreduce on distributed vectors); *fault* fires once per boundary
    and once per inner step (:meth:`tick`); *on_boundary(done)* runs at
    each boundary before the history is touched.  A shell that is never
    run is the hook set of a standalone cycle."""

    def __init__(self, A_mul, b: np.ndarray, state=None, *, tol: float,
                 maxiter: int, norm=_norm, prof=None, health=None,
                 callback=None, fault=None, on_boundary=None):
        self.A_mul, self.b, self.norm = A_mul, b, norm
        self.state = KrylovState(0, 0, None) if state is None else state
        self.tol, self.maxiter = tol, maxiter
        self.prof = PhaseTimer() if prof is None else prof
        self.health, self.callback = health, callback
        self.tick = fault if fault is not None else lambda: None
        self.on_boundary = on_boundary
        self.syncs = 0
        self.bnorm, self.target = 1.0, 0.0

    @classmethod
    def sequential(cls, A, b, *, M, x0, tol, maxiter, profiler, health,
                   callback):
        """Shell of a sequential driver: float64 *b*, *A* and *M* timed
        as the profiler's ``matvec``/``apply`` phases, and the start
        iterate ``x0`` (copied) or zero.  Returns ``(shell, M_mul)``."""
        b = np.asarray(b, dtype=np.float64)
        n = b.shape[0]
        prof = profiler if profiler is not None else PhaseTimer()
        A_mul = prof.wrap(_as_operator(A, n, "A"), "matvec")
        M_mul = prof.wrap(_as_operator(M, n, "M"), "apply")
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
        if health is not None:
            health.profiler = prof
        return cls(A_mul, b, KrylovState(0, 0, x), tol=tol, maxiter=maxiter,
                   prof=prof, health=health, callback=callback), M_mul

    def _observe(self, rel: float, x=None) -> None:
        st = self.state
        st.residuals.append(rel)
        self.prof.iteration(st.k, rel)
        if self.health is not None:
            self.health.observe(st.k, rel, x)
        if self.callback is not None:
            self.callback(st.k, rel)

    def report(self, res: float, steps: int = 1) -> bool:
        """*steps* iterations done with residual estimate *res*; returns
        whether the cycle must stop."""
        self.state.k += steps
        self._observe(res / self.bnorm)
        return res <= self.target or self.state.k >= self.maxiter

    def run(self, cycle, *, raise_on_stall: bool = False) -> KrylovResult:
        """Iterate *cycle* from the state until the true residual meets
        ``tol · ‖b‖`` or ``maxiter`` iterations are spent."""
        st, b = self.state, self.b
        bnorm = self.norm(b)
        if bnorm == 0.0:
            return finish_zero_rhs(b.shape[0], profiler=self.prof,
                                   callback=self.callback,
                                   health=self.health)
        self.bnorm, self.target = bnorm, self.tol * bnorm
        while True:
            self.tick()
            r = b - self.A_mul(st.x)
            beta = self.norm(r)
            self.syncs += 1
            converged = beta <= self.target
            done = converged or st.k >= self.maxiter
            if self.on_boundary is not None:
                self.on_boundary(done)
            if st.cycle > 0 and converged:
                # the true residual replaces the cycle's estimate
                st.residuals[-1] = beta / bnorm
                self.prof.iteration(st.k, beta / bnorm, corrected=True)
            elif st.cycle > 0 and done:
                if raise_on_stall:
                    raise ConvergenceError(
                        f"GMRES stalled at {st.residuals[-1]:.3e} after "
                        f"{st.k} iterations", x=st.x,
                        residuals=st.residuals, profile=self.prof.as_dict())
            else:
                if st.cycle > 0:
                    self.prof.restart(st.cycle, st.k)
                self._observe(beta / bnorm, st.x)
            if done:
                return KrylovResult(
                    x=st.x, iterations=st.k, residuals=st.residuals,
                    converged=converged, global_syncs=self.syncs,
                    profile=self.prof.as_dict())
            st.x = cycle(self, st.x, r, beta)
            st.cycle += 1


class ArnoldiCycle:
    """Classical Arnoldi + Givens cycle of GMRES(m) for the operator
    *A_mul* and right preconditioner *M_mul*; workspaces are allocated
    once and reused across restarts.  *ortho* follows the
    :meth:`repro.kernels.KernelBackend.ortho_step` contract.  *flexible*
    stores ``Z[:, j] = M v_j`` and updates ``x += Z y`` (FGMRES);
    *keep_raw* keeps the Hessenberg before the Givens rotations in
    :attr:`Hraw`; a cycle stops once ``H[j+1, j] < breakdown``."""

    def __init__(self, n: int, m: int, A_mul, M_mul, *, ortho,
                 flexible: bool = False, keep_raw: bool = False,
                 breakdown: float = 0.0):
        self.m, self.A_mul, self.M_mul = m, A_mul, M_mul
        self.ortho, self.breakdown = ortho, breakdown
        self.V = np.empty((n, m + 1))
        self.Z = np.empty((n, m)) if flexible else None
        self.H = np.zeros((m + 1, m))
        self.Hraw = np.zeros((m + 1, m)) if keep_raw else None
        self.cs, self.sn, self.g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
        self.scratch = np.empty(n)
        self.j_done = 0                  # steps of the last cycle

    def expand(self, shell: RestartShell, r: np.ndarray, beta: float) -> int:
        """Build the basis from ``r / beta``; returns the steps taken."""
        V, Z, H, Hraw = self.V, self.Z, self.H, self.Hraw
        cs, sn, g = self.cs, self.sn, self.g
        prof, health = shell.prof, shell.health
        H.fill(0.0)
        g.fill(0.0)
        g[0] = beta
        np.divide(r, beta, out=V[:, 0])
        self.j_done = 0
        for j in range(self.m):
            shell.tick()
            z = self.M_mul(V[:, j])
            if Z is not None:
                Z[:, j] = z
            w = self.A_mul(z)
            k = shell.state.k
            with prof.phase("orthogonalization"):
                shell.syncs += self.ortho(V, w, H, j, self.scratch)
                if H[j + 1, j] > 0:
                    if health is not None and j > 0:
                        health.check_vector("basis", V[:, j + 1], k)
                        health.orthogonality(
                            k, float(V[:, j + 1] @ V[:, 0]))
                else:
                    # lucky breakdown — the basis stopped growing
                    prof.orthogonality_loss(k, float(H[j + 1, j]))
            if Hraw is not None:
                Hraw[:j + 2, j] = H[:j + 2, j]
            self.j_done = j + 1
            if H[j + 1, j] < self.breakdown:
                break
            # apply the stored Givens rotations to the new column, then
            # a new rotation annihilating H[j+1, j]
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            if shell.report(abs(g[j + 1])):
                break
        return self.j_done

    def __call__(self, shell: RestartShell, x: np.ndarray, r: np.ndarray,
                 beta: float) -> np.ndarray:
        k = self.expand(shell, r, beta)      # >= 1: m >= 1
        # back-substitute the triangularised least-squares system
        H, g = self.H, self.g
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1:k] @ y[i + 1:k]) / H[i, i]
        if self.Z is not None:
            return x + self.Z[:, :k] @ y
        return x + self.M_mul(self.V[:, :k] @ y)
