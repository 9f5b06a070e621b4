"""The three benchmark workloads and the two ways of running them.

Each workload is one caller in a closed loop: it waits for every answer
before it sends the next input.  Inputs come from the ``--seed``
argument only; the program sees nothing but the generated mesh, form and
right-hand sides.

Two paths run the same operations:

* :class:`PublicPath` — the user-facing API (``SchwarzSolver``,
  ``SchwarzSolver.solve``, ``SolveSession.solve_many``) with tracing
  off.  The end-to-end metrics come from it.
* :class:`TracedPath` — the same pipeline composed from the layers'
  public calls (``Problem`` → ``partition_mesh`` → ``Decomposition`` →
  ``OneLevelRAS`` → coarse-space builder per subdomain →
  ``DeflationSpace`` → ``CoarseOperator`` → ``TwoLevelADEF1`` →
  ``gmres`` / ``SolveSession.solve_many``), each call wrapped in a span.
  It must reproduce :class:`PublicPath` bitwise.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro import SchwarzSolver
from repro.batch import SolveSession
from repro.core import CoarseOperator, DeflationSpace, OneLevelRAS, TwoLevelADEF1
from repro.core.geneo import get_coarse_space
from repro.dd import Decomposition, Problem
from repro.fem import channels_and_inclusions, layered_elasticity
from repro.fem.forms import DiffusionForm, ElasticityForm
from repro.kernels import get_backend
from repro.krylov import gmres
from repro.mesh import cantilever_2d, unit_cube, unit_square
from repro.partition import edge_cut, imbalance, partition_mesh

#: a RHS fails its check above this multiple of the solver tolerance
FAIL_FACTOR = 2.0
#: GMRES cycle length and iteration budget (the ``SchwarzSolver.solve``
#: defaults, spelled out so both paths pass the same values)
RESTART = 40
MAXITER = 1000

SETUP_LAYERS = ("fem.problem", "partition", "dd.decomposition",
                "core.ras.factor", "core.geneo.eigensolve",
                "core.deflation", "core.coarse.setup")
SOLVE_LAYERS = ("krylov", "dd.matvec", "core.adef.apply",
                "core.ras.apply", "core.coarse.solve")


# ----------------------------------------------------------------------
# workload definitions and their seeded inputs
# ----------------------------------------------------------------------

def _diffusion(mesh, field_seed):
    kappa = channels_and_inclusions(mesh, seed=field_seed)
    return DiffusionForm(degree=2, kappa=kappa), None


def _elasticity_2d(mesh, field_seed):
    lam, mu = layered_elasticity(mesh, n_layers=8)
    form = ElasticityForm(degree=3, lam=lam, mu=mu,
                          f=np.array([0.0, -9.81]))
    return form, (lambda x: x[:, 0] < 1e-9)


@dataclass(frozen=True)
class Workload:
    name: str
    #: "sweep": every operation builds a solver for a new coefficient
    #: field and solves once; "stream": single-RHS solves on one solver;
    #: "batch": ``solve_many`` blocks of ``width`` RHS on one solver
    kind: str
    #: ``mesh() -> SimplexMesh`` and ``form(mesh, field_seed) ->
    #: (form, dirichlet)``
    mesh: object
    form: object
    num_subdomains: int
    nev: int
    tol: float
    #: the run continues past ``--seconds`` until this many operations
    min_ops: int
    width: int = 1
    #: solver set-ups timed during the loop (stream and batch)
    setup_reps: int = 0


WORKLOADS = {
    "sweep-diffusion3d": Workload(
        "sweep-diffusion3d", "sweep", lambda: unit_cube(10), _diffusion,
        num_subdomains=16, nev=8, tol=1e-8, min_ops=5),
    "stream-elasticity2d": Workload(
        "stream-elasticity2d", "stream",
        lambda: cantilever_2d(8, length=8.0, height=1.0), _elasticity_2d,
        num_subdomains=16, nev=14, tol=1e-6, min_ops=100, setup_reps=6),
    "batch-diffusion2d": Workload(
        "batch-diffusion2d", "batch", lambda: unit_square(64),
        _diffusion, num_subdomains=16, nev=8, tol=1e-8, min_ops=20,
        width=16, setup_reps=8),
}


class Inputs:
    """Everything a run feeds the program, drawn from one seed."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.rng = np.random.default_rng(seed)
        self.mesh = wl.mesh()
        self._fixed = None if wl.kind == "sweep" else \
            wl.form(self.mesh, self._field_seed())

    def _field_seed(self) -> int:
        return int(self.rng.integers(2**31))

    def problem(self):
        """``(mesh, form, dirichlet)`` of the next solver set-up: a new
        coefficient field per set-up on sweep, one fixed field else."""
        if self._fixed is not None:
            return (self.mesh, *self._fixed)
        return (self.mesh, *self.wl.form(self.mesh, self._field_seed()))

    def rhs(self, n: int) -> np.ndarray:
        if self.wl.kind == "batch":
            return self.rng.standard_normal((n, self.wl.width))
        return self.rng.standard_normal(n)


# ----------------------------------------------------------------------
# the two paths
# ----------------------------------------------------------------------

class PublicPath:
    """The user-facing API, untraced."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.solver = None
        self.session = None

    def setup(self, mesh, form, dirichlet):
        # release the previous solver first: two are never alive at once
        self.drop()
        self.solver = SchwarzSolver(
            mesh, form, num_subdomains=self.wl.num_subdomains,
            nev=self.wl.nev, dirichlet=dirichlet)

    @property
    def problem(self):
        return self.solver.problem

    def rhs(self):
        return self.solver.problem.rhs()

    def solve(self, b):
        """Returns ``(x, iterations, converged)`` on the reduced dofs."""
        rep = self.solver.solve(b, tol=self.wl.tol, restart=RESTART,
                                maxiter=MAXITER)
        return rep.krylov.x, rep.krylov.iterations, rep.krylov.converged

    def solve_many(self, B):
        if self.session is None:
            self.session = self.solver.session()
        rep = self.session.solve_many(B, tol=self.wl.tol)
        return rep.block.X, rep.block.iterations, rep.block.converged

    def drop(self):
        self.solver = self.session = None


class TracedPath:
    """The same pipeline composed from each layer's public calls, with
    every call into a layer recorded as a span of *tracer*."""

    def __init__(self, wl: Workload, tracer):
        self.wl = wl
        self.tr = tracer
        self.problem = None
        self.parts = {}

    def setup(self, mesh, form, dirichlet):
        wl, tr = self.wl, self.tr
        self.drop()
        kernels = get_backend(None)
        problem = tr.call("fem.problem", Problem, mesh, form,
                          dirichlet=dirichlet, scaling="jacobi")
        part = tr.call("partition", partition_mesh, mesh,
                       wl.num_subdomains, method="multilevel", seed=0)
        dec = tr.call("dd.decomposition", Decomposition, problem, part,
                      delta=1, kernels=kernels)
        ras = tr.call("core.ras.factor", OneLevelRAS, dec,
                      backend="superlu", kernels=kernels)
        _, builder = get_coarse_space(None, operator_is_spd=dec.is_spd)
        ncomp = problem.space.ncomp
        results = [tr.call("core.geneo.eigensolve", builder, s,
                           ncomp=ncomp, nev=wl.nev, tau=None,
                           method="lanczos", seed=s.index)
                   for s in dec.subdomains]
        space = tr.call("core.deflation", DeflationSpace, dec,
                        [r.W for r in results], kernels=kernels)
        coarse = tr.call("core.coarse.setup", CoarseOperator, space,
                         backend="superlu", kernels=kernels)
        pre = TwoLevelADEF1(ras, coarse)
        # instance attributes shadow the methods, so every caller —
        # the Krylov drivers and the preconditioner itself — goes
        # through the span
        dec.matvec = tr.wrap("dd.matvec", dec.matvec)
        dec.matvec_block = tr.wrap("dd.matvec", dec.matvec_block)
        pre.apply = tr.wrap("core.adef.apply", pre.apply)
        pre.apply_block = tr.wrap("core.adef.apply", pre.apply_block)
        ras.apply = tr.wrap("core.ras.apply", ras.apply)
        ras.apply_block = tr.wrap("core.ras.apply", ras.apply_block)
        coarse.solve = tr.wrap("core.coarse.solve", coarse.solve)
        self.problem = problem
        self.kernels = kernels
        self.pre = pre
        self.parts = {"part": part, "dec": dec, "ras": ras,
                      "coarse": coarse, "mesh": mesh}
        self.session = None

    def rhs(self):
        return self.tr.call("fem.rhs", self.problem.rhs)

    def solve(self, b):
        res = self.tr.call("krylov", gmres, self.parts["dec"].matvec, b,
                           M=self.pre.apply, tol=self.wl.tol,
                           restart=RESTART, maxiter=MAXITER,
                           kernels=self.kernels)
        return res.x, res.iterations, res.converged

    def solve_many(self, B):
        if self.session is None:
            coarse = self.parts["coarse"]
            self.session = SolveSession(SimpleNamespace(
                recorder=self.parts["dec"].recorder,
                preconditioner=self.pre, decomposition=self.parts["dec"],
                coarse=coarse, coarse_dim=coarse.dim, kernels=self.kernels,
                problem=self.problem, krylov_name="gmres"))
        rep = self.tr.call("krylov", self.session.solve_many, B,
                           tol=self.wl.tol)
        return rep.block.X, rep.block.iterations, rep.block.converged

    def structure(self) -> dict:
        """Count metrics of the current set-up."""
        p = self.parts
        dec, ras, coarse = p["dec"], p["ras"], p["coarse"]
        factor_nnz = int(ras.local_factor_nnz().sum())
        return {
            "partition.edge_cut": edge_cut(p["mesh"].dual_graph, p["part"]),
            "partition.imbalance": imbalance(p["part"]),
            "dd.overlap_ratio": sum(s.size for s in dec.subdomains)
            / dec.problem.num_free,
            "core.ras.factor_nnz": factor_nnz,
            # 8-byte value + 4-byte index per factor entry, read once
            # per application: computed from sizes, not measured
            "core.ras.apply.bytes_computed": 12 * factor_nnz,
            "core.geneo.coarse_dim": coarse.dim,
            "core.coarse.nnz_factor": coarse.nnz_factor(),
        }

    def drop(self):
        self.problem = self.session = self.pre = None
        self.parts = {}


# ----------------------------------------------------------------------
# operations, checks and the closed loop
# ----------------------------------------------------------------------

def relative_residuals(A, B, X) -> np.ndarray:
    """‖b − A x‖ / ‖b‖ per column (a vector counts as one column)."""
    B = B.reshape(B.shape[0], -1)
    X = X.reshape(X.shape[0], -1)
    return np.linalg.norm(B - A @ X, axis=0) / np.linalg.norm(B, axis=0)


@dataclass
class Tally:
    """Outcomes and timings of one path over a run."""

    setup: list = field(default_factory=list)
    tts: list = field(default_factory=list)
    #: latency of each operation of the workload's steady loop
    op: list = field(default_factory=list)
    #: Krylov iterations of those operations
    iterations: list = field(default_factory=list)
    #: wall time of those operations (sweep: set-up included)
    busy: float = 0.0
    #: right-hand sides they solved to tolerance
    solved: int = 0
    attempted: int = 0
    failed: int = 0
    worst: float = 0.0

    def outcome(self, ok: bool, rel: float = 0.0) -> None:
        self.attempted += 1
        self.failed += not ok
        if np.isfinite(rel):
            self.worst = max(self.worst, rel)


class Runner:
    """Runs one workload's closed loop on one path (or on both, paired,
    when *tracer* is given) and tallies timings and outcomes."""

    def __init__(self, wl: Workload, seed: int, *, tracer=None,
                 corrupt_op: int | None = None):
        self.wl = wl
        self.inputs = Inputs(wl, seed)
        self.tracer = tracer
        self.paths = {"public": PublicPath(wl)}
        if tracer is not None:
            self.paths["traced"] = TracedPath(wl, tracer)
        self.tally = {name: Tally() for name in self.paths}
        self.structure: list[dict] = []
        self.corrupt_op = corrupt_op
        self._ops = 0
        self._A = None

    # -- one operation on every path -------------------------------------
    def _check(self, tally: Tally, A, B, X, converged: bool,
               count: bool) -> bool:
        """The correctness check, outside every timed region."""
        if self.corrupt_op is not None and self._ops == self.corrupt_op:
            X = X * (1.0 + 1e-3)
        rel = relative_residuals(A, B, X)
        ok = bool(converged) and bool(np.all(rel <= FAIL_FACTOR
                                             * self.wl.tol))
        if count:
            tally.outcome(ok, float(rel.max()))
        return ok

    def _order(self) -> list[str]:
        names = list(self.paths)
        return names if self._ops % 2 == 0 else names[::-1]

    def _root(self, kind: str, fn, count: bool):
        """Run *fn* as the root span of this operation; operations left
        out of the statistics (the warm-up) get a negative id."""
        self.tracer.op = self._ops if count else -1 - self._ops
        return self.tracer.call(kind, fn)

    def tts_op(self, count: bool = True) -> None:
        """Build a solver for the next problem, assemble its natural RHS
        and solve it once."""
        mesh, form, dirichlet = self.inputs.problem()
        answers = {}
        for name in self._order():
            path, tally = self.paths[name], self.tally[name]
            try:
                gc.collect()

                def op():
                    t0 = time.perf_counter()
                    path.setup(mesh, form, dirichlet)
                    t1 = time.perf_counter()
                    b = path.rhs()
                    t2 = time.perf_counter()
                    x, its, conv = path.solve(b)
                    t3 = time.perf_counter()
                    return (t1 - t0, t2 - t1, t3 - t2), b, x, its, conv

                (setup, rhs, solve), b, x, its, conv = \
                    self._root("tts", op, count) if name == "traced" \
                    else op()
                A = path.problem.matrix()
                ok = self._check(tally, A, b, x, conv, count)
            except Exception:  # noqa: BLE001 - a raising op is a failure
                traceback.print_exc()
                if count:
                    tally.outcome(False, float("inf"))
                continue
            if count:
                tally.setup.append(setup)
                tally.tts.append(setup + rhs + solve)
                if self.wl.kind == "sweep":
                    tally.op.append(solve)
                    tally.iterations.append(its)
                    tally.busy += setup + rhs + solve
                    tally.solved += ok
            if name == "traced":
                self.structure.append(path.structure())
            answers[name] = (b, x, its)
            self._A = A
        self._compare(answers)
        self._ops += 1
        if self.wl.kind == "sweep":
            for path in self.paths.values():
                path.drop()
            gc.collect()

    def main_op(self, count: bool = True) -> None:
        """One solve (stream) or one ``solve_many`` block (batch) on the
        solver built by the last :meth:`tts_op`."""
        B = self.inputs.rhs(self._A.shape[0])
        answers = {}
        for name in self._order():
            path, tally = self.paths[name], self.tally[name]
            call = path.solve_many if self.wl.kind == "batch" else path.solve
            try:
                def op():
                    t0 = time.perf_counter()
                    out = call(B)
                    return time.perf_counter() - t0, out

                dt, (X, its, conv) = \
                    self._root(self.wl.kind, op, count) \
                    if name == "traced" else op()
                ok = self._check(tally, self._A, B, X, conv, count)
            except Exception:  # noqa: BLE001 - a raising op is a failure
                traceback.print_exc()
                if count:
                    tally.outcome(False, float("inf"))
                continue
            if count:
                tally.op.append(dt)
                tally.iterations.append(its)
                tally.busy += dt
                tally.solved += self.wl.width if ok else 0
            answers[name] = (B, X, its)
        self._compare(answers)
        self._ops += 1

    def _compare(self, answers: dict) -> None:
        """The traced pipeline must reproduce the public API bitwise."""
        if len(answers) < 2:
            if len(self.paths) > 1:
                raise RuntimeError(
                    f"op {self._ops}: a path raised, so the traced run "
                    "cannot be compared with the public API")
            return
        (b0, x0, i0), (b1, x1, i1) = answers["public"], answers["traced"]
        if not (i0 == i1 and np.array_equal(b0, b1)
                and np.array_equal(x0, x1)):
            raise RuntimeError(
                f"op {self._ops}: the traced pipeline diverged from "
                f"SchwarzSolver (iterations {i0} vs {i1}, "
                f"max |dx| {float(np.max(np.abs(x0 - x1))):.3e})")

    # -- the closed loop -------------------------------------------------
    def run(self, seconds: float, deadline: float) -> None:
        """Warm up, then loop for *seconds* (and at least ``min_ops``
        operations) unless the process *deadline* comes first.

        Stream and batch rebuild their solver ``setup_reps`` times, at
        even intervals of the loop, so that ``setup_s`` samples the
        whole run rather than its first seconds."""
        wl = self.wl
        step = self.tts_op if wl.kind == "sweep" else self.main_op
        self.tts_op(count=False)                # warm-ups, discarded
        if step is not self.tts_op:
            step(count=False)
        done = rebuilt = 0
        start = time.perf_counter()
        while time.perf_counter() < deadline:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and done >= wl.min_ops:
                break
            if rebuilt < wl.setup_reps \
                    and elapsed >= rebuilt * seconds / wl.setup_reps:
                self.tts_op()
                rebuilt += 1
                continue
            step()
            done += 1
