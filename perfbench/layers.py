"""Per-layer metrics of a traced run.

Every workload reports every metric; a layer the workload bypasses
reports 0 (no exchange on one rank, no Krylov solve outside the Stokes
step, no batching outside the service).  Sources, as listed in
``layers.json``: ``span`` (the benchmark's own spans around the layer's
public entry points), ``program`` (counters the program exposes:
``KIFMM.timer``/``.flops``, ``ParallelFMM.timers``/``.comm_stats``,
``EvaluationService.stats``, the plan IR's exact flop counts),
``computed`` (derived from array shapes) and ``measured`` (host ceilings).
"""

from __future__ import annotations

import resource
import time

import numpy as np

import host
from spans import median
from workloads import PARITY_RTOL, PHASES


def _zeros(names) -> dict[str, float]:
    return {name: 0.0 for name in names}


PFMM = ("pfmm.wait_s", "pfmm.pack_s", "pfmm.imbalance", "pfmm.speedup_vs_p1",
        "pfmm.p1_max_rel_diff", "pfmm.p1_bitwise", "simmpi.msgs_per_apply",
        "simmpi.bytes_per_apply", "simmpi.recv_wait_s")
GMRES = ("gmres.iters", "gmres.matvec_s", "gmres.self_s", "bie.refresh_s",
         "bie.matvec_self_s")
SERVE = ("serve.mean_batch", "serve.batches", "serve.busy_frac",
         "serve.apply_s_per_rhs", "serve.gen_late_p50_s",
         "serve.gen_late_max_s")


def tree_layers(tracer, stats: dict, episodes) -> dict[str, float]:
    return {
        "octree.tree_s": median(tracer.per_episode("octree.build_tree", episodes)),
        "octree.lists_s": median(tracer.per_episode("octree.build_lists", episodes)),
        "plan.build_s": median(tracer.per_episode("plan.build_plan", episodes)),
        "octree.boxes": float(stats.get("nboxes", 0)),
        "octree.leaves": float(stats.get("nleaves", 0)),
        "octree.depth": float(stats.get("depth", 0)),
        "octree.u_pairs": float(stats.get("U_list", 0)),
        "octree.v_pairs": float(stats.get("V_list", 0)),
        "octree.w_pairs": float(stats.get("W_list", 0)),
        "octree.x_pairs": float(stats.get("X_list", 0)),
    }


def evaluator_layers(
    phase_s: dict, phase_flop: dict, napplies: int, ceil: dict, m2l_backends
) -> dict[str, float]:
    """Per-apply seconds, exact flops, rate and fraction of the ceiling.

    The ceiling of every phase is the measured GEMM rate, except the M2L
    phase when any level runs the FFT backend, which uses the FFT rate.
    """
    out = {}
    per = 1.0 / napplies if napplies else 0.0
    for p in PHASES:
        sec = phase_s.get(p, 0.0) * per
        gflop = phase_flop.get(p, 0.0) * per / 1e9
        rate = gflop / sec if sec > 0 else 0.0
        roof = ceil["host.gemm_gflops"]
        if p == "down_v" and "fft" in m2l_backends:
            roof = ceil["host.fft_gflops"]
        out[f"evaluator.{p}_s"] = sec
        out[f"evaluator.{p}_gflop"] = gflop
        out[f"evaluator.{p}_gflops"] = rate
        out[f"evaluator.{p}_peak_frac"] = rate / roof if roof > 0 else 0.0
    return out


def overhead(tracer, apply, make_input, pairs: int = 4) -> float:
    """(traced - untraced) / untraced median of the workload's request."""
    on, off = [], []
    for i in range(2 * pairs):
        traced = i % 2 == 1
        tracer.paused = not traced
        x = make_input()
        t0 = time.perf_counter()
        apply(x)
        (on if traced else off).append(time.perf_counter() - t0)
    tracer.paused = False
    return (median(on) - median(off)) / median(off)


def unattributed(tracer, roots) -> float:
    """Median share of a request/step span not covered by a layer span."""
    shares = [tracer.self_time(s) / s.dur for s in roots if s.dur > 0]
    return median(shares)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stokes_pfmm(tracer, ctx, rng) -> tuple[dict[str, float], dict, dict, bool]:
    """2-rank counters, the 1-rank reference and the plan IR flops."""
    from repro.analysis.plancheck import rank_irs
    from repro.core.fmm import KIFMM
    from repro.parallel.pfmm import ParallelFMM

    op, c = ctx["op"], ctx["counters"]
    cur = tracer.objects["pfmm.setup"]
    n_apply = max(c.napplies, 1)
    compute = [
        sum(ph.get(p, 0.0) for p in PHASES) / n_apply for ph in c.phase_s
    ]
    out = {
        "pfmm.wait_s": max(ph.get("wait", 0.0) for ph in c.phase_s) / n_apply,
        "pfmm.pack_s": max(ph.get("pack", 0.0) for ph in c.phase_s) / n_apply,
        "pfmm.imbalance": max(compute) / (sum(compute) / len(compute)),
        "simmpi.msgs_per_apply": c.msgs / n_apply,
        "simmpi.bytes_per_apply": c.nbytes / n_apply,
        "simmpi.recv_wait_s": max(c.recv_wait) / n_apply,
    }
    # the slowest rank per phase, with that rank's exact plan-IR flops
    irs = rank_irs(op.kernel, op.points, op.options, cur.nranks,
                   cache=cur.cache, fft=cur.fft)
    rank_flops = [ir.flop_totals() for ir, _ in irs]
    phase_s, phase_flop = {}, {}
    for p in PHASES:
        secs = [ph.get(p, 0.0) for ph in c.phase_s]
        r = int(np.argmax(secs))
        phase_s[p] = secs[r]
        phase_flop[p] = rank_flops[r].get(p, 0.0) * c.napplies
    # 1-rank reference on the same geometry and operator cache
    p1 = ParallelFMM(1, op.kernel, op.options)
    p1.cache, p1.fft = cur.cache, cur.fft
    p1.setup(op.points)
    t1, t2 = [], []
    agree = bitwise = True
    diff = 0.0
    for _ in range(3):
        d = rng.standard_normal((op.n, 3))
        t0 = time.perf_counter()
        y2 = cur.apply(d)
        t2.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        y1 = p1.apply(d)
        t1.append(time.perf_counter() - t0)
        rel = float(np.linalg.norm(y2 - y1) / np.linalg.norm(y1))
        diff = max(diff, rel)
        agree = agree and rel <= PARITY_RTOL
        bitwise = bitwise and np.array_equal(y1, y2)
    out["pfmm.speedup_vs_p1"] = median(t1) / median(t2)
    out["pfmm.p1_max_rel_diff"] = diff
    out["pfmm.p1_bitwise"] = float(bitwise)
    stats = KIFMM(op.kernel, op.options).setup(op.points).statistics()
    return out, {"phase_s": phase_s, "phase_flop": phase_flop,
                 "napplies": c.napplies}, stats, agree


def collect(workload, seed, run, ctx, tracer, rng) -> dict[str, float]:
    """Every per-layer metric of a traced run of ``workload``."""
    out: dict[str, float] = {}
    roots = tracer.named("bench.apply") + tracer.named("bench.step")
    if workload == "stokes-spheres-gmres-p2":
        pf, ev, stats, ok = stokes_pfmm(tracer, ctx, rng)
        run.gate("2-rank matvec agrees with 1-rank within "
                 f"{PARITY_RTOL:g}", ok)
        out.update(pf)
        steps = {s.sid for s in tracer.named("bench.step")}
        episodes = [
            s for s in tracer.named("bie.refresh_geometry") if s.parent in steps
        ]
        gm = tracer.named("gmres.gmres")
        mv = tracer.named("bie.matvec")
        out.update({
            "gmres.iters": median(ctx["iters"]),
            "gmres.matvec_s": median(tracer.child_time(g, "bie.matvec") for g in gm),
            "gmres.self_s": median(tracer.self_time(g) for g in gm),
            "bie.refresh_s": median(s.dur for s in episodes),
            "bie.matvec_self_s": median(tracer.self_time(m) for m in mv),
        })
        out.update(_zeros(SERVE))
        warm = run.latency
    else:
        op = ctx["op"]
        stats = op.statistics()
        ev = {"phase_s": run.phase_s, "phase_flop": run.phase_flop,
              "napplies": run.napplies}
        episodes = tracer.named("bench.setup")
        out.update(_zeros(PFMM))
        out.update(_zeros(GMRES))
        warm = run.latency
        if workload == "serve-laplace-clustered":
            busy = sum(
                s.dur for s in tracer.named("fmm.apply")
                if any(a <= s.t0 and s.t1 <= b for a, b in ctx["windows"])
            )
            out.update({
                "serve.mean_batch": ctx["mean_batch"],
                "serve.batches": float(ctx["batches"]),
                "serve.busy_frac": busy / ctx["serve_span_s"],
                "serve.apply_s_per_rhs": busy / len(run.latency),
                "serve.gen_late_p50_s": median(ctx["late"]),
                "serve.gen_late_max_s": max(ctx["late"]),
            })
            warm = ctx["warm"]
        else:
            out.update(_zeros(SERVE))
    out.update(tree_layers(tracer, stats, episodes))
    out["precompute.first_use_s"] = median(run.cold) - median(warm)
    make = (
        (lambda: rng.standard_normal(3 * ctx["op"].n))
        if workload == "stokes-spheres-gmres-p2"
        else (lambda: rng.standard_normal(ctx["density_n"]))
    )
    out["trace.overhead_frac"] = overhead(tracer, ctx["apply"], make)
    out["trace.unattributed_frac"] = unattributed(tracer, roots)
    out["proc.peak_rss_mb"] = peak_rss_mb()
    ceil = host.ceilings(np.random.default_rng(seed))
    out.update(ceil)
    backends = set(stats.get("m2l_schedule", {}).get("levels", {}).values())
    out.update(evaluator_layers(
        ev["phase_s"], ev["phase_flop"], ev["napplies"], ceil, backends,
    ))
    return out
