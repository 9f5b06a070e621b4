"""Algebraic identities and convergence behaviour of the preconditioners."""

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.core import (
    CoarseOperator,
    DeflationSpace,
    OneLevelASM,
    OneLevelRAS,
    TwoLevel,
    TwoLevelADEF1,
    compute_deflation,
)
from repro.dd import Decomposition
from repro.kernels import get_backend
from repro.krylov import cg, gmres
from repro.partition import partition_mesh


@pytest.fixture(scope="module")
def stack(diffusion_decomposition):
    dec = diffusion_decomposition
    ras = OneLevelRAS(dec)
    Ws = [compute_deflation(s, nev=4, seed=s.index).W
          for s in dec.subdomains]
    space = DeflationSpace(dec, Ws)
    coarse = CoarseOperator(space)
    return dec, ras, space, coarse


class TestOneLevel:
    def test_ras_is_exact_for_single_subdomain(self, diffusion_problem):
        from repro.dd import Decomposition
        part = np.zeros(diffusion_problem.mesh.num_cells, dtype=int)
        part[0] = 1    # two subdomains minimum for a partition of unity
        part[:] = 0
        part[diffusion_problem.mesh.cell_centroids()[:, 0] > 0.5] = 1
        dec = Decomposition(diffusion_problem, part, delta=2)
        ras = OneLevelRAS(dec)
        A = diffusion_problem.matrix()
        b = diffusion_problem.rhs()
        res = gmres(A, b, M=ras.apply, tol=1e-10, restart=100, maxiter=200)
        assert res.converged

    def test_asm_symmetric(self, stack, rng):
        dec, *_ = stack
        asm = OneLevelASM(dec)
        n = dec.problem.num_free
        u, v = rng.standard_normal((2, n))
        # ⟨P⁻¹u, v⟩ = ⟨u, P⁻¹v⟩
        lhs = asm.apply(u) @ v
        rhs = u @ asm.apply(v)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_ras_not_symmetric(self, stack, rng):
        dec, ras, *_ = stack
        n = dec.problem.num_free
        u, v = rng.standard_normal((2, n))
        assert abs(ras.apply(u) @ v - u @ ras.apply(v)) > 1e-12

    def test_factor_times_recorded(self, stack):
        _, ras, *_ = stack
        assert len(ras.factor_times) == ras.dec.num_subdomains
        assert all(t >= 0 for t in ras.factor_times)


class TestADEF1Identities:
    def test_one_coarse_solve_per_application(self, stack, rng):
        dec, ras, space, coarse = stack
        pre = TwoLevelADEF1(ras, coarse)
        before = coarse.solves
        pre.apply(rng.standard_normal(dec.problem.num_free))
        assert coarse.solves - before == 1

    def test_adef1_adef2_same_convergence(self, stack):
        """Eq. 6 vs eq. 7: similar numerical properties (same #it ±2)."""
        dec, ras, space, coarse = stack
        A = dec.problem.matrix()
        b = dec.problem.rhs()
        r1 = gmres(A, b, M=TwoLevelADEF1(ras, coarse).apply, tol=1e-8,
                   restart=60, maxiter=100)
        r2 = gmres(A, b, M=TwoLevel(ras, coarse, kind="adef2").apply,
                   tol=1e-8, restart=60, maxiter=100)
        assert r1.converged and r2.converged
        assert abs(r1.iterations - r2.iterations) <= 3

    def test_two_level_beats_one_level(self, stack):
        dec, ras, space, coarse = stack
        A = dec.problem.matrix()
        b = dec.problem.rhs()
        two = gmres(A, b, M=TwoLevelADEF1(ras, coarse).apply, tol=1e-8,
                    restart=60, maxiter=200)
        one = gmres(A, b, M=ras.apply, tol=1e-8, restart=60, maxiter=200)
        assert two.converged
        assert two.iterations < one.iterations

    def test_bnn_symmetric_with_cg(self, diffusion_decomposition):
        dec = diffusion_decomposition
        asm = OneLevelASM(dec)
        Ws = [compute_deflation(s, nev=4, seed=s.index).W
              for s in dec.subdomains]
        coarse = CoarseOperator(DeflationSpace(dec, Ws))
        pre = TwoLevel(asm, coarse, kind="bnn")
        A = dec.problem.matrix()
        b = dec.problem.rhs()
        res = cg(A, b, M=pre.apply, tol=1e-8, maxiter=200)
        assert res.converged
        x = np.asarray(res.x)
        assert np.linalg.norm(A @ x - b) <= 1e-6 * np.linalg.norm(b)


# ----------------------------------------------------------------------
# The three two-level kinds under both kernel backends
# ----------------------------------------------------------------------

#: coarse solves and global matvecs per application of each kind
COARSE_SOLVES = {"adef1": 1, "adef2": 2, "bnn": 2}
MATVECS = {"adef1": 0, "adef2": 1, "bnn": 1}
#: the one-level part each kind is paired with in ``SchwarzSolver``
ONE_LEVEL = {"adef1": OneLevelRAS, "adef2": OneLevelRAS, "bnn": OneLevelASM}
#: agreement tolerance relative to the output norm, per kernel backend
RTOL = {"numpy": 1e-12, "fp32": 1e-5}


@pytest.fixture(scope="module", params=["numpy", "fp32"])
def kernel_stack(request, diffusion_problem):
    kernels = get_backend(request.param)
    part = partition_mesh(diffusion_problem.mesh, 6, seed=1)
    dec = Decomposition(diffusion_problem, part, delta=2, kernels=kernels)
    Ws = [compute_deflation(s, nev=4, seed=s.index).W
          for s in dec.subdomains]
    space = DeflationSpace(dec, Ws, kernels=kernels)
    coarse = CoarseOperator(space, kernels=kernels)
    one_level = {cls: cls(dec, kernels=kernels)
                 for cls in (OneLevelRAS, OneLevelASM)}
    return request.param, dec, space, coarse, one_level


EACH_KIND = pytest.mark.parametrize("kind", ["adef1", "adef2", "bnn"])


class TestTwoLevelKinds:
    def _pre(self, kernel_stack, kind):
        *_, coarse, one_level = kernel_stack
        return TwoLevel(one_level[ONE_LEVEL[kind]], coarse, kind=kind)

    @EACH_KIND
    def test_coarse_solves_per_application(self, kernel_stack, kind, rng):
        _, dec, _, coarse, _ = kernel_stack
        pre = self._pre(kernel_stack, kind)
        n = dec.problem.num_free
        before = coarse.solves
        pre.apply(rng.standard_normal(n))
        assert coarse.solves - before == COARSE_SOLVES[kind]
        before = coarse.solves
        pre.apply_block(rng.standard_normal((n, 3)))
        assert coarse.solves - before == COARSE_SOLVES[kind]

    @EACH_KIND
    def test_global_matvecs_per_application(self, kernel_stack, kind, rng):
        """Only the (I − QA) projection applies A; (I − AQ) rides the
        cached A·Z."""
        _, dec, *_ = kernel_stack
        pre = self._pre(kernel_stack, kind)
        n = dec.problem.num_free
        before = dec.matvecs
        pre.apply(rng.standard_normal(n))
        assert dec.matvecs - before == MATVECS[kind]
        before = dec.matvecs
        pre.apply_block(rng.standard_normal((n, 3)))
        assert dec.matvecs - before == 3 * MATVECS[kind]

    @EACH_KIND
    def test_apply_block_matches_columns(self, kernel_stack, kind, rng):
        backend, dec, *_ = kernel_stack
        pre = self._pre(kernel_stack, kind)
        U = rng.standard_normal((dec.problem.num_free, 3))
        V = pre.apply_block(U)
        for k in range(U.shape[1]):
            v = pre.apply(U[:, k])
            assert np.linalg.norm(V[:, k] - v) \
                <= RTOL[backend] * np.linalg.norm(v)

    @pytest.mark.parametrize("kind", ["adef1", "bnn"])
    def test_coarse_space_reproduced(self, kernel_stack, kind, rng):
        """P⁻¹ A Z y = Z y: with the (I − AQ) pre-projection the
        preconditioned operator is the identity on the coarse space
        (the deflation property)."""
        backend, dec, space, *_ = kernel_stack
        pre = self._pre(kernel_stack, kind)
        y = rng.standard_normal(space.m)
        Zy = space.Z @ y
        out = pre.apply(dec.problem.matrix() @ Zy)
        assert np.linalg.norm(out - Zy) <= RTOL[backend] * np.linalg.norm(Zy)


def test_unknown_kind_raises(stack):
    _, ras, _, coarse = stack
    with pytest.raises(ReproError, match="unknown two-level kind"):
        TwoLevel(ras, coarse, kind="adef3")
