"""Set-up reuse on one mesh: the partition and the decomposition topology
are built once per mesh and reused, bitwise, by later solver builds.

Every comparison is against the same build on a *fresh* mesh (same
vertices and cells, empty memo), so a stale reuse shows as a mismatch.
"""

import numpy as np
import pytest

from repro import SchwarzSolver
from repro.dd import Decomposition, Problem
from repro.fem import channels_and_inclusions
from repro.fem.forms import ConvectionDiffusionForm, DiffusionForm, ElasticityForm
from repro.mesh import SimplexMesh, unit_square
from repro.nonlinear import PicardSolver
from repro.obs import Recorder, analyze
from repro.partition import partition_mesh

N = 4


def mesh():
    return unit_square(8)


def diffusion(m, degree=2, seed=1):
    return DiffusionForm(degree=degree,
                         kappa=channels_and_inclusions(m, seed=seed))


def build(m, form, *, nparts=N, seed=0, method="multilevel", delta=1,
          dirichlet=None, part=None, parallel=None):
    problem = Problem(m, form, dirichlet=dirichlet, scaling="jacobi")
    if part is None:
        part = partition_mesh(m, nparts, method=method, seed=seed)
    return Decomposition(problem, part, delta=delta, parallel=parallel)


def assert_same(d0: Decomposition, d1: Decomposition) -> None:
    """Bitwise equality of everything a decomposition hands the solver."""
    assert np.array_equal(d0.part, d1.part)
    assert np.array_equal(d0.multiplicity, d1.multiplicity)
    assert np.array_equal(d0.problem.scale, d1.problem.scale)
    assert len(d0.subdomains) == len(d1.subdomains)
    for s0, s1 in zip(d0.subdomains, d1.subdomains):
        for name in ("cells", "layers", "dofs", "d", "overlap_mask"):
            assert np.array_equal(getattr(s0, name), getattr(s1, name)), name
        assert s0.neighbors == s1.neighbors
        assert list(s0.shared) == list(s1.shared)
        for j in s0.shared:
            assert np.array_equal(s0.shared[j], s1.shared[j])
        for name in ("A_dir", "A_neu", "A_geneo"):
            a, b = getattr(s0, name), getattr(s1, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.shape == b.shape
                for arr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(a, arr), getattr(b, arr))


FORMS = {
    "diffusion-p2": lambda m, seed: diffusion(m, seed=seed),
    "convdiff-p1": lambda m, seed: ConvectionDiffusionForm(
        degree=1, kappa=channels_and_inclusions(m, seed=seed),
        beta=np.array([1.0, 0.5])),
}


class TestWarmEqualsFresh:
    @pytest.mark.parametrize("kind", list(FORMS))
    def test_decomposition_bitwise(self, kind):
        make = FORMS[kind]
        warm = mesh()
        build(warm, make(warm, 7))
        dec = build(warm, make(warm, 2))
        assert dec.topology_reused
        fresh = mesh()
        ref = build(fresh, make(fresh, 2))
        assert not ref.topology_reused
        assert_same(dec, ref)
        if kind.startswith("convdiff"):
            assert dec.subdomains[0].A_geneo is not None

    def test_solve_bitwise(self):
        warm = mesh()
        for seed in (4, 5, 6):
            SchwarzSolver(warm, diffusion(warm, seed=seed),
                          num_subdomains=N, nev=3)
        fields = []
        for seed in (4, 5, 6):
            fresh = mesh()
            r0 = SchwarzSolver(warm, diffusion(warm, seed=seed),
                               num_subdomains=N, nev=3).solve(tol=1e-8)
            r1 = SchwarzSolver(fresh, diffusion(fresh, seed=seed),
                               num_subdomains=N, nev=3).solve(tol=1e-8)
            assert r0.iterations == r1.iterations
            assert np.array_equal(r0.x, r1.x)
            fields.append(r0.x)
        # three different fields really were solved
        assert not np.array_equal(fields[0], fields[1])

    def test_threads_warm_matches_serial(self):
        warm = mesh()
        serial = build(warm, diffusion(warm, seed=8))
        threaded = build(warm, diffusion(warm, seed=8), parallel="threads")
        assert threaded.topology_reused
        assert_same(serial, threaded)


class TestInvalidation:
    """Every key change rebuilds (no stale reuse) and the rebuilt
    decomposition equals the same build on a fresh mesh."""

    CASES = {
        "nparts": dict(nparts=3),
        "seed": dict(seed=5),
        "method": dict(method="rcb"),
        "delta": dict(delta=2),
        "degree": dict(form=lambda m: diffusion(m, degree=1)),
        "ncomp": dict(form=lambda m: ElasticityForm(degree=2, lam=1.0,
                                                   mu=1.0)),
        "dirichlet": dict(dirichlet=lambda x: x[:, 0] < 1e-9),
        "part": dict(part=lambda m: (m.cell_centroids()[:, 0] * N)
                     .astype(np.int64)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_key_change_rebuilds(self, case):
        kw = dict(self.CASES[case])
        make_form = kw.pop("form", diffusion)
        make_part = kw.pop("part", None)

        def changed(m):
            part = None if make_part is None else make_part(m)
            return build(m, make_form(m), part=part, **kw)

        warm = mesh()
        build(warm, diffusion(warm))
        dec = changed(warm)
        assert not dec.topology_reused
        assert_same(dec, changed(mesh()))
        # and back: the one slot now holds the changed key
        assert not build(warm, diffusion(warm)).topology_reused

    @pytest.mark.parametrize("nparts, kw", [(3, {}), (N, {"seed": 5}),
                                            (N, {"method": "rcb"})],
                             ids=["nparts", "seed", "method"])
    def test_partition_key(self, nparts, kw):
        warm = mesh()
        partition_mesh(warm, N)
        assert np.array_equal(partition_mesh(warm, nparts, **kw),
                              partition_mesh(mesh(), nparts, **kw))


class TestNoPoisoning:
    def test_mutating_returned_part(self):
        warm = mesh()
        part = partition_mesh(warm, N)
        ref = part.copy()
        part[:] = 0
        assert np.array_equal(partition_mesh(warm, N), ref)

    def test_mutating_callers_part(self):
        warm = mesh()
        part = partition_mesh(warm, N)
        build(warm, diffusion(warm), part=part)
        part[part == 0] = 1          # the caller reuses its own array
        part[part == N - 1] = 0
        dec = build(warm, diffusion(warm), part=part)
        assert not dec.topology_reused
        fresh = mesh()
        assert_same(dec, build(fresh, diffusion(fresh), part=part))

    def test_mutating_subdomain_data(self):
        warm = mesh()
        dec = build(warm, diffusion(warm))
        s = dec.subdomains[0]
        for arr in (s.dofs, s.d, s.cells, s.overlap_mask,
                    next(iter(s.shared.values())), dec.multiplicity):
            with pytest.raises(ValueError):
                arr[0] = arr[-1]
        s.shared.clear()
        s.neighbors.append(99)
        later = build(warm, diffusion(warm))
        assert later.topology_reused
        fresh = mesh()
        assert_same(later, build(fresh, diffusion(fresh)))


class TestMeshImmutable:
    def test_arrays_read_only(self):
        m = mesh()
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 1.0
        with pytest.raises(ValueError):
            m.cells[0, 0] = 0
        sub, _, _ = m.extract_cells(np.arange(4))
        with pytest.raises(ValueError):
            sub.vertices[0, 0] = 1.0

    def test_callers_arrays_keep_their_flags(self):
        m = mesh()
        v, c = np.array(m.vertices), np.array(m.cells)
        SimplexMesh(v, c)
        assert v.flags.writeable and c.flags.writeable


class TestNoGlobalAssembly:
    def test_rhs_does_not_assemble_global_matrix(self):
        m = mesh()
        form = diffusion(m)
        spaces = []
        assemble = form.assemble_matrix

        def spy(space, cell_map=None):
            spaces.append(space)
            return assemble(space, cell_map=cell_map)

        form.assemble_matrix = spy
        s = SchwarzSolver(m, form, num_subdomains=N, nev=3)
        b = s.problem.rhs()
        assert spaces and all(sp_.mesh is not m for sp_ in spaces)
        # b is unchanged: the same vector the global system would give
        ref = Problem(m, diffusion(m), scaling="jacobi")
        ref.set_scale(s.problem.scale)
        assert np.array_equal(b, ref.rhs())


class TestObservability:
    def test_partition_phase_and_reuse_gauges(self):
        m = mesh()
        seen = []
        for _ in range(2):
            rec = Recorder()
            s = SchwarzSolver(m, diffusion(m), num_subdomains=N, nev=3,
                              recorder=rec)
            assert "partition" in s.timer.as_dict()
            seen.append((rec.gauges["partition.reused"],
                         rec.gauges["dd.topology_reused"]))
        assert seen == [(0.0, 0.0), (1.0, 1.0)]
        assert "dd.topology_reused" in analyze(rec).render()

    def test_explicit_part_has_no_partition_phase(self):
        m = mesh()
        part = partition_mesh(m, N)
        s = SchwarzSolver(m, diffusion(m), num_subdomains=N, nev=3,
                          part=part)
        assert "partition" not in s.timer.as_dict()


class TestPicard:
    def test_submeshes_extracted_once(self, monkeypatch):
        calls = []
        extract = SimplexMesh.extract_cells

        def counting(self, cell_ids):
            calls.append(1)
            return extract(self, cell_ids)

        monkeypatch.setattr(SimplexMesh, "extract_cells", counting)
        solver = PicardSolver(mesh(), lambda u, c: 1.0 + 10.0 * u ** 2,
                              num_subdomains=N, nev=3)
        rep = solver.solve(picard_tol=1e-8, max_picard=4)
        assert rep.picard_iterations >= 2
        # δ and δ+1 submesh of every subdomain, on the first set-up only
        assert len(calls) == 2 * N

    def test_partition_runs_once(self, monkeypatch):
        import repro.partition as partition
        calls = []
        graph = partition.partition_graph

        def counting(*a, **kw):
            calls.append(1)
            return graph(*a, **kw)

        monkeypatch.setattr(partition, "partition_graph", counting)
        m = mesh()
        for _ in range(3):
            partition_mesh(m, N)
        assert len(calls) == 1


def test_space_signature_in_key():
    """P2 scalar and P1 vector spaces on one triangle both have 6 dofs,
    so with the same Dirichlet dofs their free sets agree; only the space
    signature tells the two topologies apart."""
    tri = SimplexMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      np.array([[0, 1, 2]]))
    part = np.zeros(1, dtype=np.int64)
    scalar = Decomposition(Problem(tri, DiffusionForm(degree=2),
                                   dirichlet=[0]), part)
    vector = Decomposition(Problem(tri, ElasticityForm(degree=1, lam=1.0,
                                                       mu=1.0),
                                   dirichlet=[0]), part)
    assert np.array_equal(scalar.problem.free, vector.problem.free)
    assert not vector.topology_reused
    assert vector.subdomains[0].space.ncomp == 2
