"""Tests for FGMRES and the CLI."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cli import main as cli_main
from repro.common.errors import KrylovError
from repro.krylov import fgmres, gmres


@pytest.fixture(scope="module")
def spd():
    rng = np.random.default_rng(1)
    n = 80
    M = rng.standard_normal((n, n))
    A = sp.csr_matrix(M @ M.T + n * np.eye(n))
    return A, rng.standard_normal(n)


class TestFGMRES:
    def test_matches_gmres_fixed_preconditioner(self, spd):
        A, b = spd
        M = sp.diags(1.0 / A.diagonal())
        r1 = gmres(A, b, M=M, tol=1e-10, restart=90, maxiter=300)
        r2 = fgmres(A, b, M=M, tol=1e-10, restart=90, maxiter=300)
        assert r2.converged
        assert abs(r1.iterations - r2.iterations) <= 1
        assert np.allclose(r1.x, r2.x, atol=1e-7 * abs(r1.x).max())

    def test_variable_preconditioner_converges(self, spd):
        A, b = spd
        state = {"k": 0}

        def varM(v):
            state["k"] += 1
            return v / (1.0 + 0.2 * (state["k"] % 4))

        r = fgmres(A, b, M=varM, tol=1e-10, restart=90, maxiter=300)
        assert r.converged
        assert np.linalg.norm(A @ r.x - b) <= 1e-8 * np.linalg.norm(b)

    def test_inner_krylov_preconditioner(self, spd):
        """FGMRES with a few inner CG steps as the (variable) M."""
        from repro.krylov import cg
        A, b = spd

        def innerM(v):
            return cg(A, v, tol=1e-2, maxiter=5).x

        r = fgmres(A, b, M=innerM, tol=1e-8, restart=60, maxiter=200)
        assert r.converged

    def test_zero_rhs(self, spd):
        A, _ = spd
        assert fgmres(A, np.zeros(A.shape[0])).iterations == 0

    def test_invalid_restart(self, spd):
        A, b = spd
        with pytest.raises(KrylovError):
            fgmres(A, b, restart=0)

    def test_maxiter(self, spd):
        A, b = spd
        r = fgmres(A, b, tol=1e-14, restart=5, maxiter=4)
        assert not r.converged


class TestCLI:
    def test_info(self, capsys):
        rc = cli_main(["info", "--problem", "diffusion2d", "--n", "8",
                       "-N", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dofs" in out and "partition imbalance" in out

    def test_solve_two_level(self, capsys):
        rc = cli_main(["solve", "--problem", "diffusion2d", "--n", "16",
                       "-N", "4", "--nev", "4", "--tol", "1e-6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out and "True" in out

    def test_solve_one_level_plot(self, capsys):
        rc = cli_main(["solve", "--problem", "diffusion2d", "--n", "12",
                       "-N", "2", "--levels", "1", "--plot",
                       "--maxiter", "200", "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert "residual" in out
        assert rc in (0, 1)

    def test_solve_vtk_export(self, tmp_path, capsys):
        vtk = tmp_path / "sol.vtk"
        rc = cli_main(["solve", "--problem", "diffusion2d", "--n", "12",
                       "-N", "2", "--nev", "2", "--vtk", str(vtk)])
        assert rc == 0
        assert vtk.exists()
        assert "SCALARS partition" in vtk.read_text()

    def test_elasticity_problem(self, capsys):
        rc = cli_main(["solve", "--problem", "elasticity2d", "--n", "12",
                       "-N", "4", "--nev", "8", "--tol", "1e-6",
                       "--maxiter", "300"])
        assert rc == 0

    def test_unknown_problem_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["solve", "--problem", "navier-stokes"])
