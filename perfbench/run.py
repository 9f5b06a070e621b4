"""Benchmark of the two-level GenEO/A-DEF1 Schwarz solver.

Run from the repository root::

    python3 perfbench/run.py --workload stream-elasticity2d --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` drives the public API with tracing off and reports the
end-to-end metrics; ``--trace 1`` runs every operation twice — once on
the public API, once on the pipeline composed from the layers' public
calls with a span around each call — checks that the two agree bitwise,
and reports the per-layer metrics.  The metric names and units are the
ones declared in ``BENCHMARK.json``; the last line of the output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/NOTES.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread before numpy is imported: a cold OpenBLAS
# thread pool turns tiny level-1 operations into millisecond stalls
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the program's defaults, whatever the caller's environment selects
for _var in ("REPRO_KERNEL_BACKEND", "REPRO_COARSE_STRATEGY",
             "REPRO_COARSE_SPACE"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
#: the loop stops here at the latest, leaving time to report and exit
#: well inside the 180 s a run may take
LOOP_DEADLINE_S = 140.0


def _load_source():
    """Put the program's sources on the path; refuse to run without."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}/repro; run "
                         "from the root of a full checkout")
    sys.path.insert(0, str(src))


def _provenance() -> dict:
    """The repository's own provenance stamp plus the noise controls."""
    import scipy

    from repro.parallel import resolve_parallel

    spec = importlib.util.spec_from_file_location(
        "bench_common", ROOT / "benchmarks" / "common.py")
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    stamp = common.provenance()
    stamp.update({
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "executor": resolve_parallel(None).backend,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    })
    return stamp


def _median(values) -> float:
    return float(np.median(values))


def end_to_end(tally) -> dict:
    op = np.asarray(tally.op)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _median(tally.setup),
        "time_to_solution_s": _median(tally.tts),
        "solve_s.p50": float(np.percentile(op, 50)),
        "solve_s.p90": float(np.percentile(op, 90)),
        "rhs_per_s": tally.solved / tally.busy,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(runner, tracer) -> dict:
    from workloads import SETUP_LAYERS, SOLVE_LAYERS

    wl = runner.wl
    ops = {k: v for k, v in tracer.per_op().items() if k >= 0}
    tts = [o for o in ops.values() if o["kind"] == "tts"]
    main = tts if wl.kind == "sweep" else \
        [o for o in ops.values() if o["kind"] == wl.kind]

    def med(group, table, name):
        return _median([o[table].get(name, 0.0) for o in group])

    out = {
        "fem.problem_s": med(tts, "self", "fem.problem"),
        "fem.rhs_s": med(tts, "self", "fem.rhs"),
        "partition.s": med(tts, "self", "partition"),
        "dd.decomposition_s": med(tts, "self", "dd.decomposition"),
        "core.ras.factor_s": med(tts, "self", "core.ras.factor"),
        "core.geneo.eigensolve_s": med(tts, "self", "core.geneo.eigensolve"),
        "core.geneo.eigensolve_max_s": med(tts, "max",
                                           "core.geneo.eigensolve"),
        "core.deflation_s": med(tts, "self", "core.deflation"),
        "core.coarse.setup_s": med(tts, "self", "core.coarse.setup"),
        "krylov.self_s": med(main, "self", "krylov"),
        "dd.matvec.calls": med(main, "calls", "dd.matvec"),
        "dd.matvec_s": med(main, "self", "dd.matvec"),
        "core.adef.apply.calls": med(main, "calls", "core.adef.apply"),
        "core.adef.self_s": med(main, "self", "core.adef.apply"),
        "core.ras.apply_s": med(main, "self", "core.ras.apply"),
        "core.coarse.solve.calls": med(main, "calls", "core.coarse.solve"),
        "core.coarse.solve_s": med(main, "self", "core.coarse.solve"),
    }
    for key in runner.structure[0]:
        out[key] = _median([s[key] for s in runner.structure])
    its = runner.tally["traced"].iterations
    out["krylov.iterations"] = _median(its)
    out["krylov.iterations.max"] = float(max(its))

    def share(o, layers):
        return sum(o["self"].get(n, 0.0) for n in layers) / o["duration"]

    out["trace.coverage.min"] = min(1.0 - o["root_self"] / o["duration"]
                                    for o in ops.values())
    out["trace.setup_share"] = _median([share(o, SETUP_LAYERS) for o in tts])
    out["trace.solve_share"] = _median([share(o, SOLVE_LAYERS)
                                        for o in main])
    pub, trc = runner.tally["public"], runner.tally["traced"]
    out["trace.overhead.solve_s"] = (float(np.percentile(trc.op, 50))
                                     - float(np.percentile(pub.op, 50)))
    out["trace.overhead.tts_s"] = _median(trc.tts) - _median(pub.tts)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    _load_source()
    from spans import Tracer
    from workloads import FAIL_FACTOR, WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    print("provenance: " + json.dumps(_provenance(), sort_keys=True))

    tracer = Tracer() if args.trace else None
    runner = Runner(wl, args.seed, tracer=tracer)
    runner.run(args.seconds, START + LOOP_DEADLINE_S)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    values = per_layer(runner, tracer) if args.trace \
        else end_to_end(runner.tally["public"])
    if set(values) != set(units):
        raise SystemExit(f"error: computed metrics {sorted(values)} differ "
                         f"from the declared {section} {sorted(units)}")
    if tracer is not None:
        tracer.dump(Path(__file__).resolve().parent / "traces"
                    / f"{wl.name}-seed{args.seed}.jsonl")

    attempted = sum(t.attempted for t in runner.tally.values())
    failed = sum(t.failed for t in runner.tally.values())
    worst = max(t.worst for t in runner.tally.values())
    ops = len(runner.tally["public"].op)
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {ops} timed "
          f"operations, warm-up discarded")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':32s} {failed / max(attempted, 1):14.6g} ratio "
          f"({failed} failed of {attempted} attempted; worst relative "
          f"residual {worst:.3g} against a limit of "
          f"{FAIL_FACTOR:g} x tol {wl.tol:g})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
