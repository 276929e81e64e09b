"""Where a run came from, and the host's measured ceilings.

The record names the host, core count, interpreter, numpy and BLAS
builds, the source revision and the seed.  The benchmark may run from a
plain checkout without git metadata, so a digest of ``src/`` is recorded
alongside the git sha (``None`` there).

The ceilings are single-threaded, like every workload:

- GEMM: square float64 matmul, ``2 n^3`` flops per product.
- FFT: batched real 3-D transforms on the M2L grid scale, nominal
  ``2.5 N log2 N`` flops per real transform of ``N`` points.
- Stream: ``numpy.copyto`` between two float64 arrays; bytes are
  *computed* from the array shapes (read + write), so cache effects are
  not counted.  The arrays should be at least 4x the last-level cache;
  when that would exceed ``STREAM_CAP_BYTES`` the capped size is used and
  the record says so (``host.stream_over_llc`` < 4).
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

STREAM_CAP_BYTES = 128 * 2**20


def _blas_version() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def llc_bytes() -> int | None:
    """Largest cache reported for cpu0, or ``None`` when not exposed."""
    best = None
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        try:
            text = size.read_text().strip()
        except OSError:
            continue
        mult = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            value = int(digits) * mult
            best = value if best is None else max(best, value)
    return best


def environment(root: Path, args) -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(root),
        "src_digest": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "argv": sys.argv[1:],
        "unix_time": time.time(),
    }


def _best_rate(fn, work: float, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return work / best


def ceilings(rng: np.random.Generator) -> dict[str, float]:
    """Measured GEMM / FFT / copy ceilings of this process (one thread)."""
    n = 768
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    gemm = _best_rate(lambda: a @ b, 2.0 * n**3, 5) / 1e9

    grid = rng.standard_normal((256, 16, 16, 16))
    npts = 16**3
    fft_work = grid.shape[0] * 2.5 * npts * np.log2(npts)
    fft = _best_rate(lambda: np.fft.rfftn(grid, axes=(1, 2, 3)), fft_work, 5) / 1e9

    llc = llc_bytes()
    want = 4 * llc if llc else STREAM_CAP_BYTES
    size = min(want, STREAM_CAP_BYTES)
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    stream = _best_rate(lambda: np.copyto(dst, src), 2.0 * src.nbytes, 5) / 1e9
    return {
        "host.gemm_gflops": gemm,
        "host.fft_gflops": fft,
        "host.stream_gbs": stream,
        "host.stream_array_mb": src.nbytes / 2**20,
        "host.llc_mb": (llc or 0) / 2**20,
        "host.stream_over_llc": src.nbytes / llc if llc else 0.0,
    }
