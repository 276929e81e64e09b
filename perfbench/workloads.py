"""The benchmark's three workloads.

Each workload is a loop of requests against one layer stack:

``laplace-uniform-apply``
    Closed loop, one caller.  Laplace, N = 20,000 uniform in the cube,
    ``FMMOptions()`` defaults, one-rank :class:`KIFMM`.  Cycles of: fresh
    geometry, ``setup()`` plus the cold first apply, then 7 warm
    single-RHS applies.  A request is one warm apply.

``stokes-spheres-gmres-p2``
    Closed loop, one caller (GMRES).  Stokes single layer over 4 spheres
    (radii 0.5, 0.5, 0.35, 0.25) x 500 quadrature points, sedimenting
    at seeded velocities, with the ``StokesSingleLayer`` defaults and
    ``parallel_ranks=2``.  A time step moves the spheres, calls
    ``refresh_geometry()`` and solves to tol 1e-5 (restart 80).  A
    request is one warm matvec as GMRES sees it; a job is one time step.

``serve-laplace-clustered``
    Open loop, independent users.  Laplace, N = 5,000 corner-clustered
    points, one operator in ``EvaluationService(max_batch=8,
    max_delay=0.005)``, Poisson arrivals at 12 req/s, latency limit 1 s;
    five sessions, each on a fresh geometry.  A request is one
    evaluation, timed from its due time.

All inputs come from the ``--seed`` generator; the program only sees the
generated points and densities.  ``scale`` shrinks the problem sizes for
the smoke test (1.0 is the benchmark).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bie.stokes_bie import StokesSingleLayer
from repro.bie.surfaces import SphereSurface
from repro.core.fmm import FMMOptions, KIFMM
from repro.geometry.distributions import corner_clusters, uniform_cube
from repro.kernels import LaplaceKernel
from repro.kernels.direct import direct_evaluate, relative_error
from repro.linalg.gmres import gmres
from repro.serve.service import EvaluationService, OperatorRegistry

from openloop import open_loop, poisson_due_times
from spans import median

PHASES = ("up", "down_u", "down_v", "down_w", "down_x", "eval")
LIMIT_S = 1.0  # latency limit of one request (uniform and serve)
LAPLACE_GATE = 1e-4  # one check's rel_err above this fails (typical 1e-6)
STOKES_GATE = 1e-3  # (typical 1e-5)
# Sampled targets per direct-summation check.  Every output is checked,
# each with the same number of targets, so the pooled error weighs every
# density alike: one density's error ratio varies by tens of percent.
UNIFORM_CHECK_TARGETS = 100
STOKES_CHECK_TARGETS = 250  # of 2000 points: their densities are zeroed
STOKES_CHECK_DENSITIES = 8  # the converged density plus 7 seeded ones
# 2-rank vs 1-rank agreement: two orders below the GMRES tolerance, so
# the solver cannot tell the two apart.  Whether they are bitwise equal
# is reported separately (pfmm.p1_bitwise).
PARITY_RTOL = 1e-7
GMRES_TOL = 1e-5
GMRES_RESTART = 80
SPHERE_DT = 0.02


@dataclass
class Run:
    """What one workload run measured, plus its correctness ledger."""

    setup: list[float] = field(default_factory=list)  # geometry -> result
    cold: list[float] = field(default_factory=list)  # cold first apply
    latency: list[float] = field(default_factory=list)  # one request each
    goodput: float = 0.0
    rel_err: list[float] = field(default_factory=list)  # per check
    err_sq: float = 0.0  # pooled over every check: sum |approx - exact|^2
    ref_sq: float = 0.0  # ... and sum |exact|^2
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    view: dict[str, tuple[float, str]] = field(default_factory=dict)
    # program counters accumulated over the warm applies
    phase_s: dict[str, float] = field(default_factory=dict)
    phase_flop: dict[str, float] = field(default_factory=dict)
    napplies: int = 0

    def count(self) -> None:
        self.attempted += 1

    def gate(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check_rel_err(self, what: str, approx, exact, bound: float) -> None:
        approx = np.asarray(approx, dtype=np.float64).ravel()
        exact = np.asarray(exact, dtype=np.float64).ravel()
        err = relative_error(approx, exact)
        self.rel_err.append(err)
        self.err_sq += float(np.sum((approx - exact) ** 2))
        self.ref_sq += float(np.sum(exact**2))
        self.gate(f"{what}: rel_err {err:.3g} > {bound:g}", err <= bound)

    @property
    def pooled_rel_err(self) -> float:
        """Relative error over all checked outputs taken together.

        Steadier than any one check: a single random density's error
        ratio varies by tens of percent.
        """
        return float(np.sqrt(self.err_sq / self.ref_sq)) if self.ref_sq else 0.0

    def add_counters(self, timer_phases, flop_phases, napplies: int) -> None:
        for p in PHASES:
            self.phase_s[p] = self.phase_s.get(p, 0.0) + timer_phases.get(p, 0.0)
            self.phase_flop[p] = self.phase_flop.get(p, 0.0) + flop_phases.get(p, 0.0)
        self.napplies += napplies


def tail_percentile(count: int) -> float | None:
    """Highest of the standard percentiles with >= 10 samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (1.0 - q / 100.0) >= 10.0 - 1e-9:
            return q
    return None


def tail(values: list[float]) -> tuple[float, float | None]:
    q = tail_percentile(len(values))
    if q is None:
        return max(values), None
    return float(np.percentile(values, q)), q


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def _laplace_check(run, what, kernel, pts, phi, u, rng, ntargets) -> None:
    idx = rng.choice(pts.shape[0], min(ntargets, pts.shape[0]), replace=False)
    exact = direct_evaluate(kernel, pts[idx], pts, phi)
    run.check_rel_err(what, u.reshape(pts.shape[0], -1)[idx], exact, LAPLACE_GATE)


def warm_process(stokes: bool) -> None:
    """Pay the once-per-process costs on an unrelated small geometry.

    The first ``setup()`` in a process costs far more than later ones
    (imports, allocator and FFT plan warm-up); that is not geometry
    setup, so it is paid here, before anything is timed.  Nothing built
    here is reused: every timed operator builds its own operator cache.
    """
    rng = np.random.default_rng(20031115)
    pts = uniform_cube(1500, rng)
    fmm = KIFMM(LaplaceKernel()).setup(pts)
    for _ in range(2):
        fmm.apply(rng.standard_normal(pts.shape[0]))
    if stokes:
        surfaces = [SphereSurface(c, 0.5, 60) for c in ((0, 0, 0), (1.3, 0, 0))]
        op = StokesSingleLayer(surfaces, parallel_ranks=2)
        op.matvec(rng.standard_normal(3 * op.n))


# ---------------------------------------------------------------------------
# laplace-uniform-apply
# ---------------------------------------------------------------------------

# Six geometries per run: an operator's warm apply time differs by a few
# percent from the next one's (tree and memory layout), so the run's
# figures pool several.
APPLIES_PER_CYCLE = 7
MIN_CYCLES = 6
MIN_REQUESTS = 40


def laplace_uniform(args, rng, tracer) -> tuple[Run, dict]:
    n = _scaled(20000, args.scale, 600)
    kernel = LaplaceKernel()
    run = Run()
    warm_process(stokes=False)
    start = time.perf_counter()
    loop_wall = 0.0
    fmm = None
    while (
        len(run.setup) < MIN_CYCLES
        or len(run.latency) < MIN_REQUESTS
        or time.perf_counter() - start < args.seconds
    ):
        pts = uniform_cube(n, rng)
        phi = rng.standard_normal(n)
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            fmm = KIFMM(kernel, FMMOptions()).setup(pts)
            t1 = time.perf_counter()
            u = fmm.apply(phi)
            t2 = time.perf_counter()
        run.count()
        run.setup.append(t2 - t0)
        run.cold.append(t2 - t1)
        _laplace_check(run, "cold apply", kernel, pts, phi, u, rng,
                       UNIFORM_CHECK_TARGETS)
        fmm.timer.reset()
        fmm.flops.reset()
        checks = []
        loop0 = time.perf_counter()
        for _ in range(APPLIES_PER_CYCLE):
            d = rng.standard_normal(n)
            with tracer.span("bench.apply"):
                t0 = time.perf_counter()
                u = fmm.apply(d)
                run.latency.append(time.perf_counter() - t0)
            run.count()
            checks.append((d, u))
        loop_wall += time.perf_counter() - loop0
        run.add_counters(fmm.timer.by_phase(), fmm.flops.by_phase(), APPLIES_PER_CYCLE)
        for d, u in checks:
            _laplace_check(run, "warm apply", kernel, pts, d, u, rng,
                           UNIFORM_CHECK_TARGETS)
    run.goodput = sum(t <= LIMIT_S for t in run.latency) / loop_wall
    run.view = {
        "setup_s": (median(run.setup), "s"),
        "apply_s": (median(run.latency), "s"),
    }
    ctx = {"op": fmm, "density_n": n, "apply": fmm.apply}
    return run, ctx


# ---------------------------------------------------------------------------
# stokes-spheres-gmres-p2
# ---------------------------------------------------------------------------

SPHERE_CENTERS = np.array(
    [[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 1.2]]
)
# Unequal radii put 500 points into smaller surfaces too, so every seed
# refines to depth 3 with active W/X lists; four equal spheres sit at a
# refinement threshold and flip between depth 2 (no W/X) and 3.
SPHERE_RADII = (0.5, 0.5, 0.35, 0.25)
SETTLE = np.array([0.0, 0.0, -1.0])
MIN_STEPS = 2
MIN_MATVECS = 40


@dataclass
class _PfmmCounters:
    """Per-rank ``ParallelFMM.timers``/``.comm_stats`` over warm matvecs."""

    phase_s: list[dict] = field(default_factory=list)
    msgs: float = 0.0
    nbytes: float = 0.0
    recv_wait: list[float] = field(default_factory=list)
    napplies: int = 0

    @staticmethod
    def snapshot(pf):
        return (
            [t.by_phase() for t in pf.timers],
            [(s.messages_sent, s.bytes_sent, s.recv_wait_seconds)
             for s in pf.comm_stats],
        )

    def add(self, pf, before, napplies: int) -> None:
        timers0, comm0 = before
        timers1, comm1 = self.snapshot(pf)
        if not self.phase_s:
            self.phase_s = [{} for _ in timers1]
            self.recv_wait = [0.0] * len(timers1)
        for r, (a, b) in enumerate(zip(timers0, timers1)):
            for k, v in b.items():
                self.phase_s[r][k] = self.phase_s[r].get(k, 0.0) + v - a.get(k, 0.0)
        for r, (a, b) in enumerate(zip(comm0, comm1)):
            self.msgs += b[0] - a[0]
            self.nbytes += b[1] - a[1]
            self.recv_wait[r] += b[2] - a[2]
        self.napplies += napplies


def stokes_gmres(args, rng, tracer) -> tuple[Run, dict]:
    m = _scaled(500, args.scale, 150)
    run = Run()
    warm_process(stokes=True)
    # The configuration is fixed; the seed draws the sedimentation
    # velocities (a common fall plus variation), which set the boundary
    # data and how the geometry moves step to step.  Seeded jitter of the
    # centres moved near-field work by up to 20% between seeds.
    velocity = SETTLE + rng.uniform(-0.2, 0.2, SPHERE_CENTERS.shape)
    surfaces = [
        SphereSurface(c, r, m) for c, r in zip(SPHERE_CENTERS, SPHERE_RADII)
    ]
    op = StokesSingleLayer(surfaces, parallel_ranks=2)
    counters = _PfmmCounters()
    steps: list[float] = []
    iters: list[int] = []
    start = time.perf_counter()
    while (
        len(steps) < MIN_STEPS
        or len(run.latency) < MIN_MATVECS
        or time.perf_counter() - start < args.seconds
    ):
        if steps:
            for s, v in zip(surfaces, velocity):
                s.translate(v * SPHERE_DT)
        b = np.concatenate(
            [np.tile(v, s.n) for s, v in zip(surfaces, velocity)]
        )
        matvec_s: list[float] = []
        marks: dict = {}

        def timed_matvec(x):
            t0 = time.perf_counter()
            y = op.matvec(x)
            matvec_s.append(time.perf_counter() - t0)
            pf = tracer.objects.get("pfmm.setup") if tracer.enabled else None
            if pf is not None and len(matvec_s) == 1:
                marks["before"] = _PfmmCounters.snapshot(pf)
            return y

        with tracer.span("bench.step"):
            t0 = time.perf_counter()
            op.refresh_geometry()
            refresh = time.perf_counter() - t0
            with tracer.span("gmres.gmres"):
                res = gmres(
                    timed_matvec, b, tol=GMRES_TOL, restart=GMRES_RESTART,
                    maxiter=300,
                )
            steps.append(time.perf_counter() - t0)
        pf = tracer.objects.get("pfmm.setup") if tracer.enabled else None
        if pf is not None and "before" in marks:
            counters.add(pf, marks["before"], len(matvec_s) - 1)
        run.count()
        run.setup.append(refresh + matvec_s[0])
        run.cold.append(matvec_s[0])
        run.latency.extend(matvec_s[1:])
        run.attempted += len(matvec_s)
        iters.append(res.iterations)
        run.gate(f"step {len(steps)}: GMRES did not converge "
                 f"(res {res.residual:.3g})", res.converged)
        true_res = float(np.linalg.norm(b - op.matvec(res.x)) / np.linalg.norm(b))
        run.gate(f"step {len(steps)}: true residual {true_res:.3g} > {GMRES_TOL:g}",
                 true_res <= GMRES_TOL)
        # FMM vs direct: zero the densities on the sampled targets so the
        # matvec's local self-patch term vanishes there and the sampled
        # rows are exactly the FMM potential of the weighted densities.
        # One blocked matvec checks the converged density and 7 seeded ones.
        idx = rng.choice(op.n, min(STOKES_CHECK_TARGETS, op.n // 4), replace=False)
        block = rng.standard_normal((op.n, 3, STOKES_CHECK_DENSITIES))
        block[:, :, 0] = res.x.reshape(op.n, 3)
        block[idx] = 0.0
        rows = op.matvec(block.reshape(3 * op.n, -1)).reshape(op.n, 3, -1)[idx]
        for r in range(STOKES_CHECK_DENSITIES):
            exact = direct_evaluate(
                op.kernel, op.points[idx], op.points,
                block[:, :, r] * op.weights[:, None],
            )
            run.check_rel_err(f"step {len(steps)} density {r}", rows[:, :, r],
                              exact, STOKES_GATE)
    run.goodput = len(steps) / sum(steps)
    run.view = {
        "setup_s": (median(run.setup), "s"),
        "step_s": (median(steps), "s"),
        "apply_s": (median(run.latency), "s"),
        "gmres_iters": (median(iters), "count"),
    }
    ctx = {"op": op, "iters": iters, "counters": counters, "apply": op.matvec}
    return run, ctx


# ---------------------------------------------------------------------------
# serve-laplace-clustered
# ---------------------------------------------------------------------------

SERVE_RATE = 12.0
SERVE_SESSIONS = 5
SERVE_CHECK_TARGETS = 25


def _serve_session(registry, key, densities, due, seconds):
    service = EvaluationService(registry, max_batch=8, max_delay=0.005)

    async def main():
        await service.start()
        try:
            return await open_loop(service, key, densities, due, seconds)
        finally:
            await service.stop()

    t0 = time.perf_counter()
    load = asyncio.run(main())
    return service, load, (t0, time.perf_counter())


def serve_clustered(args, rng, tracer) -> tuple[Run, dict]:
    """Five sessions, one fresh geometry and operator each.

    Each session pays setup plus the cold first apply, then serves
    ``seconds / 5`` of open-loop traffic; latencies are pooled, so one
    geometry's tree does not decide the run's figures alone.
    """
    n = _scaled(5000, args.scale, 400)
    kernel = LaplaceKernel()
    run = Run()
    warm_process(stokes=False)
    session_s = max(1, round(args.seconds / SERVE_SESSIONS))
    late, windows, spans = [], [], []
    batches = batched = 0
    warm = []
    for _ in range(SERVE_SESSIONS):
        pts = corner_clusters(n, rng)
        phi = rng.standard_normal(n)
        registry = OperatorRegistry()
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            key = registry.register(kernel, pts, FMMOptions())
            t1 = time.perf_counter()
            op = registry.get(key)
            u = op.apply(phi)
            t2 = time.perf_counter()
        run.count()
        run.setup.append(t2 - t0)
        run.cold.append(t2 - t1)
        _laplace_check(run, "cold apply", kernel, pts, phi, u, rng,
                       SERVE_CHECK_TARGETS)
        if tracer.enabled:  # single-RHS baseline for precompute.first_use_s
            with tracer.span("bench.apply"):
                t0 = time.perf_counter()
                op.apply(rng.standard_normal(n))
                warm.append(time.perf_counter() - t0)
        due = poisson_due_times(rng, SERVE_RATE, session_s)
        densities = rng.standard_normal((due.size, n))
        op.timer.reset()
        op.flops.reset()
        service, load, window = _serve_session(
            registry, key, densities, due, session_s
        )
        run.add_counters(op.timer.by_phase(), op.flops.by_phase(),
                         service.stats.batches)
        batches += service.stats.batches
        batched += service.stats.batched_requests
        windows.append(window)
        spans.append(load.span_s)
        late.extend(load.late)
        within = 0
        for i, (out, t) in enumerate(zip(load.results, load.latency)):
            good = (
                isinstance(out, np.ndarray)
                and out.shape[0] == n
                and bool(np.all(np.isfinite(out)))
            )
            if run.gate(f"request {i}: {out!r:.80}", good):
                _laplace_check(run, f"served request {i}", kernel, pts,
                               densities[i], out, rng, SERVE_CHECK_TARGETS)
                within += t <= LIMIT_S
            run.latency.append(t)
        run.goodput += within
    run.goodput /= sum(spans)
    mean_batch = batched / batches if batches else 0.0
    run.view = {
        "setup_s": (median(run.setup), "s"),
        "serve_p50_s": (median(run.latency), "s"),
        "serve_tail_s": (tail(run.latency)[0], "s"),
        "serve_goodput_rps": (run.goodput, "1/s"),
        "mean_batch": (mean_batch, "count"),
    }
    ctx = {"op": op, "warm": warm, "apply": op.apply, "density_n": n,
           "mean_batch": mean_batch, "batches": batches, "late": late,
           "windows": windows, "serve_span_s": sum(spans)}
    return run, ctx


WORKLOADS = {
    "laplace-uniform-apply": laplace_uniform,
    "stokes-spheres-gmres-p2": stokes_gmres,
    "serve-laplace-clustered": serve_clustered,
}
