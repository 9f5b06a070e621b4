"""Tests for the coarse operator: E = ZᵀAZ, sparsity, election,
correction, and the coarse-solve fallback chain."""

import warnings

import numpy as np
import pytest

from repro.common.errors import CoarseSolveError, DecompositionError
from repro.core import (
    CoarseOperator,
    DeflationSpace,
    assemble_coarse_matrix,
    coarse_blocks,
    compute_deflation,
    elect_masters_nonuniform,
    elect_masters_uniform,
    split_ranges,
)
from repro.core.coarse import _PseudoInverse
from repro.obs import Recorder
from repro.resilience import FaultInjector, FaultPlan, FaultSpec


@pytest.fixture(scope="module")
def space(diffusion_decomposition):
    dec = diffusion_decomposition
    Ws = [compute_deflation(s, nev=4, seed=s.index).W
          for s in dec.subdomains]
    return DeflationSpace(dec, Ws)


class TestCoarseAssembly:
    def test_e_equals_ztaz(self, space):
        dec = space.dec
        A = dec.problem.matrix()
        Z = space.explicit_z()
        E_ref = (Z.T @ A @ Z).toarray()
        E = assemble_coarse_matrix(space).toarray()
        assert np.abs(E - E_ref).max() <= 1e-12 * np.abs(E_ref).max()

    def test_e_symmetric(self, space):
        E = assemble_coarse_matrix(space).toarray()
        assert np.allclose(E, E.T, atol=1e-12 * abs(E).max())

    def test_block_transpose_symmetry(self, space):
        blocks = coarse_blocks(space)
        for (i, j), blk in blocks.items():
            if i < j:
                assert np.allclose(blk, blocks[(j, i)].T,
                                   atol=1e-10 * max(abs(blk).max(), 1e-30))

    def test_sparsity_matches_connectivity(self, space):
        """Block (i, j) exists iff j ∈ Ō_i (fig. 4)."""
        blocks = coarse_blocks(space)
        dec = space.dec
        for s in dec.subdomains:
            expected = set(s.neighbors) | {s.index}
            got = {j for (i, j) in blocks if i == s.index}
            assert got == expected

    def test_e_spd(self, space):
        E = assemble_coarse_matrix(space).toarray()
        w = np.linalg.eigvalsh(E)
        assert w.min() > 0


class TestMasterElection:
    def test_uniform(self):
        assert elect_masters_uniform(16, 4).tolist() == [0, 4, 8, 12]

    def test_nonuniform_matches_paper_figure5(self):
        """N = 16, P = 4 → masters at ranks 0, 2, 5, 8 (fig. 5 right)."""
        assert elect_masters_nonuniform(16, 4).tolist() == [0, 2, 5, 8]

    def test_nonuniform_balances_upper_triangle(self):
        """Each master's quadrilateral of upper-triangle entries should
        hold roughly the same count."""
        N, P = 64, 4
        masters = elect_masters_nonuniform(N, P)
        bounds = np.concatenate([masters, [N]])
        counts = []
        for p in range(P):
            lo, hi = bounds[p], bounds[p + 1]
            # rows lo..hi of the upper triangle of an N x N matrix
            counts.append(sum(N - r for r in range(lo, hi)))
        counts = np.array(counts, dtype=float)
        assert counts.max() / counts.min() < 1.7

    def test_uniform_is_worse_balanced_for_triangle(self):
        N, P = 64, 4
        for elect, expect_ratio in ((elect_masters_uniform, 2.0),):
            masters = elect(N, P)
            bounds = np.concatenate([masters, [N]])
            counts = [sum(N - r for r in range(bounds[p], bounds[p + 1]))
                      for p in range(P)]
            assert max(counts) / min(counts) > expect_ratio

    def test_split_ranges_cover(self):
        masters = elect_masters_nonuniform(16, 4)
        ranges = split_ranges(masters, 16)
        allr = np.concatenate(ranges)
        assert np.array_equal(allr, np.arange(16))
        for p, r in enumerate(ranges):
            assert r[0] == masters[p]

    def test_invalid_p(self):
        with pytest.raises(DecompositionError):
            elect_masters_uniform(4, 5)
        with pytest.raises(DecompositionError):
            elect_masters_nonuniform(4, 0)

    @pytest.mark.parametrize("elect",
                             [elect_masters_uniform,
                              elect_masters_nonuniform])
    def test_single_master(self, elect):
        """P = 1: rank 0 masters everything."""
        masters = elect(16, 1)
        assert masters.tolist() == [0]
        ranges = split_ranges(masters, 16)
        assert len(ranges) == 1
        assert np.array_equal(ranges[0], np.arange(16))

    @pytest.mark.parametrize("elect",
                             [elect_masters_uniform,
                              elect_masters_nonuniform])
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
    def test_every_rank_a_master(self, elect, N):
        """P = N: every rank masters exactly itself."""
        masters = elect(N, N)
        assert masters.tolist() == list(range(N))
        ranges = split_ranges(masters, N)
        assert all(len(r) == 1 for r in ranges)

    @pytest.mark.parametrize("N,P", [(2, 2), (3, 2), (3, 3), (4, 3),
                                     (5, 4), (5, 5), (6, 5), (7, 6)])
    def test_tiny_n_rounding_guard(self, N, P):
        """Tiny N/P combinations exercise the degenerate-rounding guard:
        masters must stay strictly increasing and inside [0, N)."""
        masters = elect_masters_nonuniform(N, P)
        assert masters.shape == (P,)
        assert masters[0] == 0
        assert np.all(np.diff(masters) >= 1)
        assert masters[-1] < N
        ranges = split_ranges(masters, N)
        assert np.array_equal(np.concatenate(ranges), np.arange(N))
        assert all(len(r) >= 1 for r in ranges)

    @pytest.mark.parametrize("elect",
                             [elect_masters_uniform,
                              elect_masters_nonuniform])
    @pytest.mark.parametrize("N,P", [(4, 5), (1, 2), (16, 17), (8, 100)])
    def test_more_masters_than_ranks_raises(self, elect, N, P):
        """P > N is a configuration error, not a silent clamp."""
        with pytest.raises(DecompositionError):
            elect(N, P)

    @pytest.mark.parametrize("elect",
                             [elect_masters_uniform,
                              elect_masters_nonuniform])
    @pytest.mark.parametrize("N,P", [(10, 3), (17, 4), (100, 7),
                                     (33, 8), (1000, 13)])
    def test_indivisible_n_partitions_cleanly(self, elect, N, P):
        """N not divisible by P: masters strictly increasing, first at
        rank 0, and the split ranges tile [0, N) without gaps."""
        masters = elect(N, P)
        assert masters.shape == (P,)
        assert masters[0] == 0
        assert np.all(np.diff(masters) >= 1)
        assert masters[-1] < N
        ranges = split_ranges(masters, N)
        assert np.array_equal(np.concatenate(ranges), np.arange(N))
        sizes = [len(r) for r in ranges]
        assert min(sizes) >= 1 and sum(sizes) == N


class TestCoarseOperator:
    def test_correction_matches_explicit(self, space, rng):
        op = CoarseOperator(space)
        Z = space.explicit_z()
        E = op.E.toarray()
        u = rng.standard_normal(space.dec.problem.num_free)
        ref = Z @ np.linalg.solve(E, Z.T @ u)
        assert np.allclose(op.correction(u), ref, atol=1e-8 * abs(ref).max())

    def test_solve_counter(self, space, rng):
        op = CoarseOperator(space)
        u = rng.standard_normal(space.dec.problem.num_free)
        op.correction(u)
        op.correction(u)
        assert op.solves == 2

    def test_nnz_factor_positive(self, space):
        assert CoarseOperator(space).nnz_factor() > 0

    def test_dim(self, space):
        assert CoarseOperator(space).dim == space.m

    def test_cached_az_columns_are_t_blocks(self, space):
        """Block column i of the cached A·Z is T_i = A_i W_i scattered to
        subdomain i's rows."""
        op = CoarseOperator(space)
        AZ = op.AZ.toarray()
        off = space.offsets
        for i, s in enumerate(space.dec.subdomains):
            cols = AZ[:, off[i]:off[i + 1]]
            assert np.array_equal(cols[s.dofs], op.T[i])
            mask = np.ones(cols.shape[0], dtype=bool)
            mask[s.dofs] = False
            assert not cols[mask].any()

    def test_gauges_recorded(self, space):
        rec = Recorder()
        op = CoarseOperator(space, recorder=rec)
        assert rec.gauges["coarse.dim"] == op.dim
        assert rec.gauges["coarse.nnz"] == op.E.nnz
        assert rec.gauges["coarse.nnz_factor"] == op.nnz_factor()
        ev = [e for e in rec.events if e.name == "coarse.strategy"]
        assert ev and ev[0].attrs == {"name": "sparse"}

    def test_reference_backend_never_mirrors(self, space):
        assert CoarseOperator(space)._kernel_solve is None


class TestPseudoInverseFallback:
    @pytest.fixture(scope="class")
    def deficient_space(self, diffusion_decomposition):
        """Deflation space with one duplicated vector → singular E."""
        dec = diffusion_decomposition
        Ws = [compute_deflation(s, nev=4, seed=s.index).W
              for s in dec.subdomains]
        W0 = Ws[0].copy()
        W0[:, -1] = W0[:, 0]          # exact linear dependence
        return DeflationSpace(dec, [W0] + Ws[1:])

    def test_rank_deficiency_detected(self, deficient_space):
        op = CoarseOperator(deficient_space)
        assert op.rank_deficient
        assert op.factorization.rank == deficient_space.m - 1

    def test_correction_matches_pinv(self, deficient_space, rng):
        """The fallback correction is Z E⁺ Zᵀ u (truncated eigensolve),
        which the theory needs only on range(Zᵀ·)."""
        op = CoarseOperator(deficient_space)
        Z = deficient_space.explicit_z().toarray()
        E = op.E.toarray()
        u = rng.standard_normal(deficient_space.dec.problem.num_free)
        ref = Z @ (np.linalg.pinv(E, rcond=1e-10) @ (Z.T @ u))
        got = op.correction(u)
        assert np.linalg.norm(got - ref) \
            <= 1e-8 * max(np.linalg.norm(ref), 1e-300)

    def test_solve_is_finite_and_consistent(self, deficient_space, rng):
        op = CoarseOperator(deficient_space)
        w = deficient_space.zt_dot(
            rng.standard_normal(deficient_space.dec.problem.num_free))
        y = op.solve(w)
        assert np.all(np.isfinite(y))
        # E y reproduces the range-component of w
        resid = op.E @ y - w
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(w)


class TestDegradeChain:
    """A non-finite coarse solve degrades to the truncated
    pseudo-inverse; a non-finite pseudo-inverse solve raises
    :class:`CoarseSolveError` (the solver then drops to one level)."""

    @staticmethod
    def _faulty(space, nths, *, resilient=True, recorder=None):
        op = CoarseOperator(space, recorder=recorder)
        op.injector = FaultInjector(FaultPlan(
            [FaultSpec("nan", "coarse_solve", nth=n) for n in nths]))
        op.resilient = resilient
        return op

    def test_nonfinite_solve_degrades_to_pseudo_inverse(self, space, rng):
        op = self._faulty(space, [0])
        w = rng.standard_normal(op.dim)
        with pytest.warns(RuntimeWarning, match="pseudo-inverse"):
            y = op.solve(w)
        assert np.all(np.isfinite(y))
        assert isinstance(op.factorization, _PseudoInverse)
        assert op.fallbacks == 1 and op.rank_deficient
        ref = np.linalg.solve(op.E.toarray(), w)
        assert np.linalg.norm(y - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_nonfinite_solve_without_recovery_raises(self, space, rng):
        op = self._faulty(space, [0], resilient=False)
        with pytest.raises(CoarseSolveError, match="non-finite"):
            op.solve(rng.standard_normal(op.dim))
        assert op.fallbacks == 0

    def test_fallback_events_recorded(self, space, rng):
        """A second fault, on the pseudo-inverse solve, has nowhere left
        to go: it raises after the one recorded fallback."""
        rec = Recorder()
        op = self._faulty(space, [0, 1], recorder=rec)
        w = rng.standard_normal(op.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            op.solve(w)
        with pytest.raises(CoarseSolveError, match="pseudo-inverse"):
            op.solve(w)
        ev = [e.attrs["to"] for e in rec.events
              if e.name == "recovery.coarse_fallback"]
        assert ev == ["pseudo_inverse"]
