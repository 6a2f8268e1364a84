#!/usr/bin/env python3
"""spherevar benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload index --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy. The process is
single-threaded: BLAS/OpenMP thread counts are fixed to 1 before numpy loads.

With ``--trace 0`` passes over the workload's tasks run in sequence until
``--seconds`` have elapsed (at least one pass). Before every task all of the
workload's meshes are rebuilt, several times if one build is shorter than
``SETUP_MIN_SECONDS``, so the set-up samples are many and spread over the
whole run like the task samples: ``setup_s`` is the median build time and
``wall_s`` the median over passes of the time spent in the tasks. With
``--trace 1`` the same passes run with the tracer installed and one build
before each task; the per-layer metrics are medians over traced passes and
the spans are written to ``.bench_out/`` in the checkout.

Every task checks its answers against exactly-known values. A task that
raises ``SphereVarError`` counts as failed and the run goes on. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("index", "verify", "fine-mesh")
SETUP_MIN_SECONDS = 0.5   # of mesh builds before each task, untraced
COUNTED = ("operators.assemble_mass", "mesh.face_corner_vectors",
           "secondvar.covariant_gradient_inner")


def git_commit(root):
    """Commit of the checkout from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_environment():
    import numpy
    import scipy
    import spherevar

    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spherevar": spherevar.__version__,
        "commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def run_pass(workload, seed, tracer=None):
    """Run the workload's tasks once, rebuilding all its meshes before each task.

    Untraced, the meshes are rebuilt until the builds before a task take
    ``SETUP_MIN_SECONDS`` (at least once); traced, once. Returns (seconds of
    each build, seconds of the tasks, outcomes by task).
    """
    from spherevar.errors import SphereVarError
    from workloads import TASKS, Outcome, build_meshes

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    min_build_s = SETUP_MIN_SECONDS if tracer is None else 0.0
    builds, wall = [], 0.0
    outcomes = {}
    for name, key, task in TASKS[workload]:
        here = []
        with span("catalog.build"):
            while not here or sum(here) < min_build_s:
                meshes = None   # free the previous set before timing the next build
                t0 = time.perf_counter()
                meshes = build_meshes(workload)
                here.append(time.perf_counter() - t0)
        builds += here
        t1 = time.perf_counter()
        try:
            with span(f"task.{name}"):
                outcomes[name] = task(meshes[key], seed)
        except SphereVarError as exc:
            outcomes[name] = Outcome(False, None, f"{type(exc).__name__}: {exc}")
        wall += time.perf_counter() - t1
    return builds, wall, outcomes


class Tally:
    """Attempted / failed tasks and the worst error ratio across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.err_ratio = 0.0
        self.last = {}

    def add(self, outcomes):
        from workloads import MISMATCH_ERR

        for name, o in outcomes.items():
            self.attempted += 1
            self.failed += not o.ok
            if o.err_ratio is not None:   # None when the task raised
                err = o.err_ratio if math.isfinite(o.err_ratio) else MISMATCH_ERR
                self.err_ratio = max(self.err_ratio, err)
            self.last[name] = o


def measure(workload, seed, seconds, tally):
    setup, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        builds, task_s, outcomes = run_pass(workload, seed)
        setup.extend(builds)
        passes.append(task_s)
        tally.add(outcomes)
    print(f"# setup_s builds: {[round(t, 4) for t in setup]}")
    print(f"# wall_s per pass: {[round(t, 4) for t in passes]}")
    return {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_ratio": tally.err_ratio,
    }


def iteration_layers(spans, overhead):
    """Per-layer values of one traced pass, keyed by metric name."""
    from tracing import index_totals, layer_totals

    totals = layer_totals(spans)
    idx = index_totals(spans)
    for kind, busy in idx["busy_by_kind"].items():
        totals[f"secondvar.negative_index_count.{kind}"] = {"busy_s": busy}
    special = {
        "secondvar.index.useful_ratio":
            idx["needed"] / idx["computed"] if idx["computed"] else 0.0,
        "secondvar.index.delta_margin": idx["margin"] if idx["margin"] is not None else 0.0,
        "secondvar.pencil.dim": idx["dim"],
        "secondvar.pencil.nnz": idx["nnz"],
        "secondvar.pencil.bytes_computed": idx["bytes_computed"],
        "trace.overhead_s": overhead,
    }
    return totals, special


def layer_value(name, totals, special):
    if name in special:
        return special[name]
    prefix, _, stat = name.rpartition(".")
    return totals.get(prefix, {}).get(stat, 0)


def measure_traced(workload, seed, seconds, tally, per_layer):
    import spherevar
    from tracing import Tracer, layer_totals, span_cost, spans_as_records, task_counts

    per_span = span_cost()
    tracer = Tracer()
    passes, values = [], []
    start = time.perf_counter()
    tracer.install(spherevar)
    try:
        while not passes or time.perf_counter() - start < seconds:
            tracer.reset()
            _, task_s, outcomes = run_pass(workload, seed, tracer)
            passes.append(task_s)
            tally.add(outcomes)
            totals, special = iteration_layers(tracer.spans, per_span * len(tracer.spans))
            values.append({m["name"]: layer_value(m["name"], totals, special)
                           for m in per_layer})
    finally:
        tracer.uninstall()
    spans = tracer.spans
    metrics = {name: statistics.median(v[name] for v in values) for name in values[0]}
    counts = task_counts(spans, COUNTED)
    print(f"# wall_s traced passes: {[round(t, 4) for t in passes]}")
    print(f"# tracing cost per span: {per_span * 1e6:.3f} us, {len(spans)} spans in the last pass")
    for task, per in counts.items():
        print(f"# calls in task {task}: " + ", ".join(f"{k}={v}" for k, v in per.items()))
    out = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "environment": run_environment(),
        "wall_s_traced": passes,
        "span_cost_s": per_span,
        "per_layer": metrics,
        "per_layer_note": "medians over traced passes; a pass rebuilds the "
                          "workload's meshes before each of its tasks; "
                          "trace.overhead_s is the wrapper cost per span, timed on a "
                          "no-op, times the spans of one pass (an estimate, not a "
                          "traced-minus-untraced difference); "
                          "secondvar.pencil.bytes_computed is computed from CSR array "
                          "sizes of the largest pencil, not measured; layers a workload "
                          "does not exercise read 0",
        "layer_totals_last": dict(sorted(layer_totals(spans).items())),
        "task_counts": counts,
        "spans_last": spans_as_records(spans),
    }) + "\n")
    print(f"# trace written to {out.relative_to(ROOT)}; "
          "secondvar.pencil.bytes_computed is computed from array sizes, not measured")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "spherevar" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no spherevar source tree under {SRC} (run from a checkout)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spherevar

    if Path(spherevar.__file__).resolve().parent != SRC / "spherevar":
        print(f"error: imported spherevar from {spherevar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    print("# env " + json.dumps(run_environment()))
    tally = Tally()
    if args.trace:
        wanted = spec["per_layer"]
        values = measure_traced(args.workload, args.seed, args.seconds, tally, wanted)
    else:
        wanted = spec["end_to_end"]
        values = measure(args.workload, args.seed, args.seconds, tally)
    for name, o in tally.last.items():
        err = "n/a" if o.err_ratio is None else f"{o.err_ratio:.4g}"
        print(f"# task {name}: {'ok' if o.ok else 'FAILED'} err_ratio={err} {o.detail}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} tasks)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
