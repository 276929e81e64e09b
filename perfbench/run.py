"""The KIFMM benchmark: one workload per run, correctness-gated.

Run from the repository root::

    python3 perfbench/run.py --workload laplace-uniform-apply --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``laplace-uniform-apply``, ``stokes-spheres-gmres-p2``,
``serve-laplace-clustered`` (see ``workloads.py``).  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones (see
``layers.json`` for which end-to-end metric each layer should move).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the numbers in the issue's per-workload names, with units and
sample counts, and the run's provenance record.  Each run's record is
also appended to ``perfbench/out/records.jsonl``; traced runs write a
Chrome trace-event file next to it.

Exit status: 0 when every operation succeeded and every gate passed,
1 when a gate failed or an operation raised, 2 when the program's
sources are missing.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is imported, so that the
# two simulated ranks of the Stokes workload use two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = (
    "laplace-uniform-apply", "stokes-spheres-gmres-p2",
    "serve-laplace-clustered",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", type=float, default=1.0,
        help="problem-size factor; below 1 only for the smoke test",
    )
    return ap.parse_args(argv)


def end_to_end(run) -> dict[str, float]:
    from spans import median
    from workloads import tail

    return {
        "setup_s": median(run.setup),
        "p50_s": median(run.latency),
        "tail_s": tail(run.latency)[0],
        "goodput_per_s": run.goodput,
        "rel_err": run.pooled_rel_err,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import host
    import layers
    from spans import NullTracer, Tracer, instrument
    from workloads import WORKLOADS, tail

    record = host.environment(ROOT, args)
    rng = np.random.default_rng(args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    try:
        with instrument(tracer):
            run, ctx = WORKLOADS[args.workload](args, rng, tracer)
            metrics = (
                layers.collect(args.workload, args.seed, run, ctx, tracer, rng)
                if args.trace
                else end_to_end(run)
            )
    except Exception:  # the run's boundary: report, count, exit nonzero
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    _, q = tail(run.latency)
    view = dict(run.view)
    view["rel_err"] = (run.pooled_rel_err, "1")
    view["error_rate"] = (run.failed / run.attempted, "1")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# samples: setups {len(run.setup)}, requests {len(run.latency)} "
          f"(tail = {'p%g' % q if q else 'max'}), "
          f"correctness checks {len(run.rel_err)}, attempted {run.attempted}")
    for name, (value, unit) in view.items():
        print(f"# {name:<22} {value:.6g} {unit}")
    for failure in run.failures:
        print(f"# FAILED {failure}")
    if tracer.missing:
        print(f"# not traced (entry point not found): {', '.join(tracer.missing)}")
    record.update({"view": {k: v for k, (v, _) in view.items()},
                   "metrics": metrics, "failures": run.failures,
                   "untraced": tracer.missing,
                   "rel_err_first": run.rel_err[0] if run.rel_err else None})
    print("# record " + json.dumps(record, default=str))
    OUT.mkdir(exist_ok=True)
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record, default=str) + "\n")
    if args.trace:
        tracer.write_chrome(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
