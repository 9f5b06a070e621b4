"""Tests for common utilities: timers, validation, ASCII plotting."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.common import PhaseTimer, Timer, as_1d_float, as_csr, check_square, check_symmetric, require
from repro.common.asciiplot import semilogy, sparsity, table
from repro.common.errors import MeshError, ReproError


class TestPhaseTimer:
    def test_accumulates(self):
        t = PhaseTimer()
        with t.phase("a"):
            time.sleep(0.01)
        with t.phase("a"):
            pass
        assert t.seconds("a") >= 0.01
        assert t.counts["a"] == 2

    def test_add(self):
        t = PhaseTimer()
        t.add("x", 1.5)
        t.add("x", 0.5)
        assert t.seconds("x") == pytest.approx(2.0)

    def test_total(self):
        t = PhaseTimer()
        t.add("a", 1.0)
        t.add("b", 2.0)
        assert t.total() == pytest.approx(3.0)

    def test_unknown_phase_zero(self):
        assert PhaseTimer().seconds("never") == 0.0

    def test_timer_context(self):
        with Timer() as t:
            time.sleep(0.005)
        assert t.elapsed >= 0.005


class TestValidation:
    def test_require(self):
        require(True, ReproError, "fine")
        with pytest.raises(MeshError, match="boom"):
            require(False, MeshError, "boom")

    def test_as_1d_float(self):
        out = as_1d_float([1, 2, 3])
        assert out.dtype == np.float64
        with pytest.raises(ReproError):
            as_1d_float(np.zeros((2, 2)))

    def test_as_csr(self):
        A = as_csr(np.eye(3))
        assert sp.issparse(A) and A.format == "csr"
        assert as_csr(sp.eye(3, format="coo")).format == "csr"
        with pytest.raises(ReproError):
            as_csr(np.zeros(3))

    def test_check_square(self):
        check_square(np.eye(2))
        with pytest.raises(ReproError):
            check_square(np.zeros((2, 3)))

    def test_check_symmetric(self):
        check_symmetric(sp.eye(3))
        A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ReproError):
            check_symmetric(A)


class TestAsciiPlot:
    def test_semilogy_contains_labels(self):
        out = semilogy({"run A": [1, 0.1, 0.01], "run B": [1, 0.5]})
        assert "run A" in out and "run B" in out
        assert "#iterations" in out

    def test_semilogy_empty(self):
        assert "(no data)" in semilogy({})

    def test_semilogy_nonpositive(self):
        assert "no positive" in semilogy({"a": [0.0, -1.0]})

    def test_table_alignment(self):
        out = table(["name", "value"], [["x", 1.5], ["longer", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(ln) for ln in lines)) == 1  # equal widths

    def test_table_title(self):
        out = table(["a"], [[1]], title="TITLE")
        assert out.startswith("TITLE")

    def test_table_scientific_format(self):
        out = table(["v"], [[1.23e-8]])
        assert "1.23e-08" in out

    def test_sparsity_renders(self):
        M = sp.eye(10, format="csr")
        out = sparsity(M, width=20)
        assert "#" in out
        assert out.count("\n") >= 3


def _backend(name):
    from repro.kernels import get_backend
    return get_backend(name).name


def _coarse_space(name):
    from repro.core.geneo import get_coarse_space
    return get_coarse_space(name)[0]


class TestRegistryResolvers:
    """The registries share one rule: argument → ``$REPRO_*`` →
    default, where ``None`` and ``""`` both mean unset, and an unknown
    name raises a ReproError that lists the registered names."""

    CASES = [
        pytest.param(_backend, "REPRO_KERNEL_BACKEND", "numpy", "fp32",
                     "kernel backend", id="kernel-backend"),
        pytest.param(_coarse_space, "REPRO_COARSE_SPACE", "geneo",
                     "nicolaides", "coarse space", id="coarse-space"),
    ]

    @pytest.mark.parametrize("resolve, env, default, other, kind", CASES)
    def test_one_rule(self, resolve, env, default, other, kind,
                      monkeypatch):
        monkeypatch.delenv(env, raising=False)
        assert resolve(None) == default
        assert resolve("") == default
        assert resolve(other) == other
        monkeypatch.setenv(env, other)
        assert resolve(None) == other
        assert resolve("") == other
        assert resolve(default) == default          # argument beats env
        monkeypatch.setenv(env, "")
        assert resolve(None) == default
        with pytest.raises(ReproError, match=f"unknown {kind} 'bogus'") \
                as err:
            resolve("bogus")
        assert default in str(err.value) and other in str(err.value)
