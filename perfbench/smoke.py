"""Smoke test of the benchmark at reduced size (a few minutes on 2 cores).

    python3 perfbench/smoke.py

Checks, for every workload:

- the result line has exactly ``correct``/``attempted``/``failed``/
  ``metrics``, the run passed its gates, and every end-to-end (untraced)
  or per-layer (traced) metric of ``BENCHMARK.json`` is printed with its
  unit;
- the issue's per-workload names are printed with units, ``error_rate``
  included;
- the seed is honoured: the same seed reproduces the first correctness
  check bit for bit, another seed changes it, and a held-out seed also
  passes every gate;
- the traced run's layer spans account for its request and step spans
  (``trace.unattributed_frac``);

and that the benchmark exits nonzero, printing no result, in a copy that
holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.1"
SECONDS = "2"
SEED, OTHER_SEED, HELD_OUT_SEED = 7, 8, 9001
ISSUE_NAMES = {
    "laplace-uniform-apply": ("setup_s", "apply_s", "rel_err", "error_rate"),
    "stokes-spheres-gmres-p2": ("setup_s", "step_s", "apply_s", "rel_err",
                                "error_rate"),
    "serve-laplace-clustered": ("setup_s", "serve_p50_s", "serve_tail_s",
                                "serve_goodput_rps", "rel_err", "error_rate"),
}
RECORD_KEYS = ("host", "nproc", "python", "numpy", "blas", "git_sha",
               "src_digest", "seed")
MAX_UNATTRIBUTED = 0.05


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def parse(proc) -> tuple[dict, dict, dict]:
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(
        json.loads(line[len("# record "):]) for line in lines
        if line.startswith("# record ")
    )
    view = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "#" and parts[1] in record["view"]:
            view[parts[1]] = parts[3]
    return result, record, view


def check(cond: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def check_result(workload, trace, proc, failures):
    """One line per run: the result, its metrics and units, the record."""
    tag = f"{workload} trace {trace}"
    if proc.returncode != 0:
        check(False, f"{tag}: exit {proc.returncode}", failures)
        print(proc.stdout[-2000:], proc.stderr[-2000:])
        return None
    result, record, view = parse(proc)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append("gates failed")
    if got != want:
        problems.append(f"metrics/units differ: {set(got.items()) ^ set(want.items())}")
    if not all(isinstance(v["value"], float) for v in result["metrics"].values()):
        problems.append("non-numeric value")
    missing = [n for n in ISSUE_NAMES[workload] if n not in view]
    missing += [k for k in RECORD_KEYS if k not in record]
    if missing:
        problems.append(f"not printed: {missing}")
    check(not problems, f"{tag} seed {record.get('seed')}: "
          + ("; ".join(problems) or "result, metrics, units, record"), failures)
    return result, record


def main() -> int:
    failures: list[str] = []
    for workload in ISSUE_NAMES:
        first = check_result(workload, 0, run(workload, SEED, 0), failures)
        again = check_result(workload, 0, run(workload, SEED, 0), failures)
        other = check_result(workload, 0, run(workload, OTHER_SEED, 0),
                             failures)
        if first and again and other:
            a = first[1]["rel_err_first"]
            check(a == again[1]["rel_err_first"],
                  f"{workload}: same seed, same inputs", failures)
            check(a != other[1]["rel_err_first"],
                  f"{workload}: another seed, other inputs", failures)
        check_result(workload, 0, run(workload, HELD_OUT_SEED, 0), failures)
        traced = check_result(workload, 1, run(workload, SEED, 1), failures)
        if traced:
            share = traced[0]["metrics"]["trace.unattributed_frac"]["value"]
            check(0.0 <= share <= MAX_UNATTRIBUTED,
                  f"{workload}: layer spans cover the request spans "
                  f"(unattributed {share:.2g})", failures)

    isolated = HERE / "out" / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    isolated.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", isolated)
        shutil.copytree(HERE, isolated / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("laplace-uniform-apply", SEED, 0, cwd=isolated)
        check(proc.returncode != 0 and "{" not in proc.stdout,
              "without the program: nonzero exit, no result", failures)
    finally:
        shutil.rmtree(isolated, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
