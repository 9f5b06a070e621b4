"""Figure 11: assembling and factorising the coarse operator E.

Paper columns (per N, for the diffusion and elasticity workloads):
P (masters), dim(E), average |O_i|, nnz(E⁻¹), assembly+factorization
time.  Qualitative shape: 3D coarse operators are denser than 2D
(|O_i| ≈ 12-15 vs ≈ 5.5-5.9), nnz(E⁻¹) grows superlinearly with N, and
assembly time creeps up with N.

Here algorithms 1–2 run literally over the simulated MPI (the masters
assemble only values sent by the slaves), traffic is metered, and the
reported time combines modelled communication with a per-strategy
factorization flop model: the dense vs sparse sweep shows where the
dense masters' Cholesky stops scaling (dim³ panel rounds) while the
sparse direct solve keeps going (nnz-bounded fill).
"""

import numpy as np
import pytest

from common import diffusion_2d, diffusion_3d, elasticity_2d, write_result
from repro import SchwarzSolver
from repro.common.asciiplot import table
from repro.perfmodel import coarse_operator_report

NS = (8, 16, 32)
NEV = 8
STRATEGIES = ("dense", "sparse")


def run_case(builder, label, strategies=("dense",), **kw):
    mesh, form, clamp = builder(**kw)
    reports = []
    neigh = []
    for N in NS:
        # the strategies price the same E: one solver per N
        solver = SchwarzSolver(mesh, form, num_subdomains=N, delta=1,
                               nev=NEV, dirichlet=clamp, seed=0)
        P = max(1, N // 8)
        for strat in strategies:
            reports.append((strat, coarse_operator_report(
                solver, num_masters=P, strategy=strat)))
            neigh.append(solver.decomposition.neighbor_counts().mean())
    body = [[s, r.N, r.P, r.dim_e, f"{r.avg_neighbors:.1f}",
             r.nnz_factor, f"{r.time * 1e3:.2f} ms"]
            for s, r in reports]
    txt = table(["strategy", "N", "P", "dim(E)", "|O_i| (avg)",
                 "nnz(E^-1)", "time"],
                body, title=f"FIGURE 11 ({label})")
    return reports, txt


@pytest.fixture(scope="module")
def coarse_reports():
    rep3, txt3 = run_case(diffusion_3d, "3D diffusion", n=6)
    # the 2D diffusion case sweeps every strategy — the paper's fig. 11
    # extended with the "where dense stops scaling" comparison
    rep2, txt2 = run_case(diffusion_2d, "2D diffusion (strategy sweep)",
                          strategies=STRATEGIES, n=32, degree=2)
    repe, txte = run_case(elasticity_2d, "2D elasticity", n=6, degree=2)
    write_result("fig11_coarse_operator",
                 txt3 + "\n\n" + txt2 + "\n\n" + txte +
                 "\n\npaper shape: |O_i| ≈ 12-15 (3D) vs ≈ 5.5-5.9 (2D); "
                 "nnz(E^-1) and time grow with N; the dense strategy's "
                 "modelled time grows ~dim(E)^3 while sparse stays "
                 "nnz-bounded")
    return rep3, rep2, repe


def _only(reports, strategy="dense"):
    return [r for s, r in reports if s == strategy]


def test_fig11_dim_e_is_sum_nu(coarse_reports):
    rep3, rep2, _ = coarse_reports
    for reports in (rep3, rep2):
        for r in _only(reports):
            assert r.dim_e == NEV * r.N


def test_fig11_3d_denser_than_2d(coarse_reports):
    """The paper's headline contrast: 3D connectivity |O_i| ≈ 13 vs 2D
    ≈ 5.7 (at laptop scale the gap is smaller but the ordering holds)."""
    rep3, rep2, _ = coarse_reports
    assert _only(rep3)[-1].avg_neighbors > _only(rep2)[-1].avg_neighbors


def test_fig11_nnz_grows_with_n(coarse_reports):
    for reports in coarse_reports:
        nnz = [r.nnz_factor for r in _only(reports)]
        assert nnz[-1] > nnz[0]


def test_fig11_sweep_covers_all_strategies(coarse_reports):
    _, rep2, _ = coarse_reports
    for s in STRATEGIES:
        assert len(_only(rep2, s)) == len(NS)


def test_fig11_dense_stops_scaling_at_paper_n(coarse_reports):
    """The tentpole contrast: extend the fig-11 factorization models to
    the paper's N — the dense masters' Cholesky (dim³ panel rounds) is
    slower than the nnz-bounded sparse direct solve by far."""
    from repro.perfmodel import strategy_cost
    costs = {s: strategy_cost(s, 1024, NEV).t_factorize
             for s in STRATEGIES}
    assert costs["dense"] > 5 * costs["sparse"]


def test_fig11_bench_spmd_assembly(coarse_reports, benchmark):
    """Kernel timed: the full SPMD run of algorithms 1-2 (16 ranks,
    2 masters) including the cooperative factorization."""
    from repro.core.spmd import assemble_coarse_spmd
    from repro.mpi import run_spmd

    mesh, form, _ = diffusion_2d(n=32, degree=2)
    solver = SchwarzSolver(mesh, form, num_subdomains=16, delta=1,
                           nev=NEV, seed=0)
    dec, space = solver.decomposition, solver.deflation

    def assemble():
        run_spmd(16, lambda comm: assemble_coarse_spmd(
            comm, dec, space, 2) and None)

    benchmark.pedantic(assemble, rounds=3, iterations=1)
