"""The three-stage parallel interaction calculation (Section 3.2).

"The interaction calculation part of our algorithm is logically separated
into three stages.  The first stage is a computation step which performs
the upward computation.  Each processor P builds the upward equivalent
densities for the LET nodes to which it contributes (ignoring the
existence of the other processors).  The second stage [communicates ghost
sources and reduces/scatters equivalent densities].  The third stage
performs the downward computation ... (ignoring the existence of the
other processors again)."

The redundant computation this design accepts near the root (every rank
computes partial upward densities and full downward passes for the
ancestors of its boxes) is reproduced faithfully; as the paper notes, the
number of such boxes is small.

The compute stages are the sequential program: every rank runs the one
:class:`~repro.core.evaluator.PlannedExecutor` over its LET-local plan.
This module supplies what differs per rank — the setup (parallel tree,
LET, owners, ghost layout, own/ghost work splits) and the exchange hooks
(:class:`RankExchange`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluator import (
    PlannedExecutor,
    VSplit,
    coerce_density,
    resolve_kernels,
    split_v_level,
)
from repro.core.fftm2l import FFTM2L
from repro.core.fmm import FMMOptions
from repro.core.m2lschedule import (
    M2LSchedule,
    coarse_split_levels,
    resolve_m2l_schedule,
    v_stats_from_plan,
)
from repro.core.plan import ExecutionPlan, build_plan
from repro.core.precompute import OperatorCache
from repro.kernels.base import Kernel
from repro.octree.lists import InteractionLists, build_lists
from repro.octree.tree import require_finite
from repro.parallel.exchange import (
    ApplyExchange,
    GhostLayout,
    build_exchange_plan,
    exchange_source_geometry,
)
from repro.parallel.let import classify_let, gather_users
from repro.parallel.owners import assign_owners, gather_contributors
from repro.parallel.partition import partition_points
from repro.parallel.ptree import ParallelTree, parallel_build_tree
from repro.parallel.simmpi import (
    CommStats,
    PerRank,
    SimComm,
    current_recorder,
    mk_tag,
    register_tag_family,
    run_spmd,
)
from repro.util.flops import FlopCounter
from repro.util.timing import PhaseTimer

# Coarse V-split broadcast tags: ``("vsp", level, box)``, one segmented
# tree_bcast per assigned box at each coarse split level (see
# :func:`v_split_bcast_schedule`).
register_tag_family(
    "vsp", fields=("level", "box"), phases=("v_split",), kind="split",
)


# ---------------------------------------------------------------------------
# Persistent parallel operator: setup once per geometry, apply many times.
# ---------------------------------------------------------------------------


def _global_root(
    points: np.ndarray, pad: float = 1e-6
) -> tuple[np.ndarray, float]:
    """Bounding cube over all points, matching :func:`agree_root_cube`.

    The driver holds the full point set, so it can compute the cube the
    ranks would have agreed on collectively (elementwise min/max commute
    with the Allreduce) and share one operator cache across ranks.
    Non-finite coordinates are rejected here, before any rank starts.
    """
    require_finite(points, "source")
    lo, hi = points.min(axis=0), points.max(axis=0)
    side = float((hi - lo).max())
    side = side * (1.0 + pad) if side > 0 else 1.0
    center = (lo + hi) / 2.0
    return center - side / 2.0, side


def v_split_bcast_schedule(
    lvl_boxes: np.ndarray,
    lists: InteractionLists,
    contrib_trg: np.ndarray,
    gsrc: np.ndarray,
) -> list[tuple[int, int, tuple[int, ...]]]:
    """The coarse-split broadcast schedule of one tree level.

    Pure function of the plan inputs (level boxes, interaction lists,
    target-contributor matrix, global source counts): the level's active
    V target boxes — some rank contributes targets and some V partner
    holds global sources — each assigned cyclically to one of their
    contributor ranks, who broadcasts the computed downward-check rows
    to the other contributors.  Returns ``(box, root_rank, participants)``
    rows, identical on every rank (everything derives from replicated
    matrices).  Shared by :func:`rank_setup` and the static
    communication verifier (:mod:`repro.analysis.commir`), so the
    runtime schedule and the certified one cannot drift apart.
    """
    cand = [
        int(bx) for bx in lvl_boxes
        if contrib_trg[:, bx].any()
        and any(gsrc[int(a)] > 0 for a in lists.V[int(bx)])
    ]
    schedule: list[tuple[int, int, tuple[int, ...]]] = []
    for j, bx in enumerate(cand):
        parts = tuple(
            int(r) for r in np.nonzero(contrib_trg[:, bx])[0]
        )
        schedule.append((bx, parts[j % len(parts)], parts))
    return schedule


class RankExchange:
    """The communication hooks of one rank's apply.

    Plugs the owner-mediated nonblocking exchange
    (:class:`~repro.parallel.exchange.ApplyExchange`) and the
    coarse-split broadcast into the
    :class:`~repro.core.evaluator.PlannedExecutor`.
    """

    def __init__(self, comm: SimComm, state: "RankFMM") -> None:
        self.comm = comm
        self.state = state
        self._exch: ApplyExchange | None = None

    def start(self, phi, ue, ext_phi, timer: PhaseTimer) -> None:
        rec = current_recorder()
        if rec is not None:
            me = self.comm.rank
            rec.register(f"rank{me}:phi_sorted", phi)
            rec.write(phi, "sort-density")
            rec.register(f"rank{me}:ue", ue)
            rec.write(ue, "upward-partial")
            rec.register(f"rank{me}:ext_phi", ext_phi)
        st = self.state
        self._exch = ApplyExchange(
            self.comm, st.layout, phi, st.src_start, st.src_stop, ue,
            ext_phi, timer,
        ).start()
        self._exch.relay()

    def finish(self) -> None:
        self._exch.finish()

    def split_bcast(self, level: int, bcast, dc3: np.ndarray) -> None:
        """Deliver split-level downward-check rows along the rank tree.

        Every participant iterates the same ascending ``(level, box)``
        schedule, so the segmented broadcasts match up deadlock-free.
        At this point ``dc3[:, bx]`` holds exactly the level's V
        contribution (L2L and X accumulate later, own classes are empty
        at split levels), so the root's rows can be assigned verbatim —
        receivers *assign* the bytes, keeping the rows bitwise identical
        across participants.
        """
        me = self.comm.rank
        for bx, root, parts in bcast:
            blk = np.ascontiguousarray(dc3[:, bx]) if me == root else None
            out = self.comm.tree_bcast(
                blk, root, parts,
                tag=mk_tag("vsp", int(level), int(bx)), phase="v_split",
            )
            if me != root:
                dc3[:, bx] = out


@dataclass
class RankFMM:
    """One rank's persistent parallel FMM state (the setup product).

    Mirrors the sequential ``KIFMM`` setup/apply split over the rank's
    local essential tree: :func:`rank_setup` builds the parallel tree,
    the LET-local :class:`~repro.core.plan.ExecutionPlan` (partner
    gating by *global* source counts, U/X positions into the combined
    local+ghost source array), the ghost geometry, and the owned/ghost
    work splits that define the overlap window, all held by one
    :class:`~repro.core.evaluator.PlannedExecutor` — the same program
    the sequential operator runs.  :meth:`apply` runs it with this
    rank's exchange plugged in, exchanging only densities.

    The object deliberately holds no communicator — each apply receives
    one, so the same states can be reused across ``run_spmd`` calls
    (each GMRES matvec is one such call).
    """

    options: FMMOptions
    ptree: ParallelTree
    lists: InteractionLists
    layout: GhostLayout
    src_start: np.ndarray
    src_stop: np.ndarray
    executor: PlannedExecutor
    #: Which boxes this rank performs V target-side work for: every box
    #: with local targets, except at coarse split levels, where only
    #: the cyclically-assigned boxes remain (the flop model's
    #: ``v_targets`` mask).
    v_compute: np.ndarray

    @property
    def tree(self):
        return self.ptree.tree

    @property
    def kernel(self) -> Kernel:
        return self.executor.kernel

    @property
    def plan(self) -> ExecutionPlan:
        return self.executor.plan

    @property
    def cache(self) -> OperatorCache:
        return self.executor.cache

    @property
    def m2l_schedule(self) -> M2LSchedule:
        return self.executor.schedule

    @property
    def v_splits(self) -> list[VSplit]:
        return self.executor.v_splits

    def apply(
        self,
        comm: SimComm,
        local_density: np.ndarray,
        timer: PhaseTimer | None = None,
        overlap: bool = True,
        flops: FlopCounter | None = None,
    ) -> np.ndarray:
        """One planned interaction evaluation over the LET.

        ``local_density`` may be a stacked block — ``(ns, sdof, nrhs)``
        or a flat ``(ns * sdof, nrhs)`` — in which case the whole block
        rides ONE overlapped exchange: density rows widen to
        ``sdof * nrhs`` and per-box equivalent-density payloads to
        ``nrhs`` contiguous surface vectors, so latency and coordinate
        traffic are paid once per block instead of once per column.
        ``overlap`` only decides whether the scatter wait happens before
        or after the owned passes; the result is bitwise the same.
        """
        return self.executor.apply(
            local_density, exchange=RankExchange(comm, self),
            flops=flops, timer=timer, overlap=overlap,
        )


def rank_setup(
    comm: SimComm,
    kernel: Kernel,
    local_points: np.ndarray,
    options: FMMOptions | None = None,
    *,
    root: tuple[np.ndarray, float] | None = None,
    cache: OperatorCache | None = None,
    fft: FFTM2L | None = None,
    source_kernel: Kernel | None = None,
    target_kernel: Kernel | None = None,
    direct_kernel: Kernel | None = None,
    timer: PhaseTimer | None = None,
) -> RankFMM:
    """Per-rank setup of the persistent parallel operator.

    Runs once per geometry: parallel tree + lists, LET classification,
    owner assignment, the LET-local execution plan, the setup-time ghost
    *geometry* exchange, and the owned/ghost work splits.  ``cache`` and
    ``fft`` may be shared across ranks (their lazy per-level entries are
    deterministic, so concurrent population is benign); when omitted
    they are built locally from the agreed root cube.  A supplied
    ``cache`` must share the tree's ``root_side`` (pin the cube via
    ``root``).
    """
    opts = options or FMMOptions()
    timer = timer if timer is not None else PhaseTimer()
    me = comm.rank
    local_points = np.asarray(local_points, dtype=np.float64)

    with timer.phase("tree"):
        ptree = parallel_build_tree(
            comm, local_points,
            max_points=opts.max_points, max_depth=opts.max_depth, root=root,
        )
        tree = ptree.tree
        lists = build_lists(tree)
        contrib_src, contrib_trg = gather_contributors(
            comm, ptree.local_contributes_src(), ptree.local_contributes_trg()
        )
        owner = assign_owners(contrib_src | contrib_trg)
        usage = classify_let(tree, lists, ptree.local_contributes_trg())
        usage.uses_equiv &= ptree.global_nsrc > 0
        usage.uses_source &= ptree.global_nsrc > 0
        users_equiv, users_src = gather_users(comm, usage)

    if cache is None:
        cache = OperatorCache(
            kernel, opts.p, tree.root_side,
            inner=opts.inner, outer=opts.outer, rcond=opts.rcond,
        )
    elif cache.root_side != tree.root_side:
        raise ValueError(
            f"supplied cache root_side {cache.root_side} does not match "
            f"tree root_side {tree.root_side}; pin the cube via the root "
            f"argument"
        )
    nb = tree.nboxes
    # Layout of the combined (local + ghost) source array: used boxes in
    # ascending order, each holding its *global* sources in the owner's
    # concatenation order.
    used = np.flatnonzero(usage.uses_source)
    sizes = ptree.global_nsrc[used]
    ext_start = np.zeros(nb, dtype=np.int64)
    ext_stop = np.zeros(nb, dtype=np.int64)
    stops = np.cumsum(sizes)
    ext_start[used] = stops - sizes
    ext_stop[used] = stops
    ext_total = int(stops[-1]) if used.size else 0

    # Setup-time geometry exchange (Algorithm 1 over positions).
    src_boxes = np.nonzero(users_src.any(axis=0))[0]
    ue_boxes = np.nonzero(users_equiv.any(axis=0))[0]
    local_pts = {
        int(b): tree.src_points(int(b))
        for b in src_boxes
        if contrib_src[me, b]
    }
    ghost_pts = exchange_source_geometry(
        comm, src_boxes, contrib_src, users_src, owner, local_pts, timer=timer,
        scheme=opts.comm,
    )
    ext_points = np.empty((ext_total, 3))
    for b in used:
        ext_points[ext_start[b]:ext_stop[b]] = ghost_pts[int(b)]

    layout = GhostLayout(
        phi=build_exchange_plan("phi", me, src_boxes, contrib_src,
                                users_src, owner, scheme=opts.comm),
        pue=build_exchange_plan("pue", me, ue_boxes, contrib_src,
                                users_equiv, owner, scheme=opts.comm),
        ext_start=ext_start,
        ext_stop=ext_stop,
    )

    with timer.phase("plan"):
        plan = build_plan(
            tree, lists,
            partner_nsrc=ptree.global_nsrc,
            ext_ranges=(ext_start, ext_stop),
        )

        # The plan's V statistics are gated by global source counts (via
        # partner_nsrc), so every rank resolves the identical schedule.
        sched = resolve_m2l_schedule(
            opts.m2l, opts.dtype,
            stats=v_stats_from_plan(plan), cache=cache, kernel=kernel,
        )

        # Ownership splits of the plan's gated near-field and V-list
        # work: owned partners are computable right after the owner
        # relay, ghost partners only after the scatter completes.
        own_pos = np.repeat(owner[used] == me, sizes)
        u_split = plan.u.split(own_pos[plan.u.src_pos])
        w_split = plan.w.split(owner[plan.w.src_pos] == me)

        # Coarse split levels: fewer boxes than ranks, where the fully
        # redundant tree-top V translations leave ranks idle.  Each
        # active target box there is assigned to exactly one of its
        # contributor ranks (cyclic over the level's active boxes), and
        # the assigned rank broadcasts the computed downward-check rows
        # — every quantity below derives from replicated matrices, so
        # all ranks agree without communication.
        split_levels = coarse_split_levels(
            [len(tree.levels[lvl]) for lvl in range(tree.depth + 1)],
            comm.size,
        )
        boxes = tree.boxes
        v_compute = np.fromiter((b.ntrg > 0 for b in boxes), bool, nb)
        v_splits: list[VSplit] = []
        for vl in plan.v_levels:
            backend = sched.backend(vl.level)
            if vl.level not in split_levels:
                v_splits.append(split_v_level(
                    vl, backend, src_owned=owner[vl.src_boxes] == me,
                ))
                continue
            lvl_boxes = np.asarray(tree.levels[vl.level], dtype=np.int64)
            schedule = v_split_bcast_schedule(
                lvl_boxes, lists, contrib_trg, ptree.global_nsrc
            )
            assigned_rank = {bx: root_r for bx, root_r, _ in schedule}
            assigned = np.fromiter(
                (assigned_rank[int(bx)] == me for bx in vl.trg_boxes),
                bool, vl.trg_boxes.size,
            )
            v_compute[lvl_boxes] = False
            v_compute[[bx for bx, r in assigned_rank.items() if r == me]] = True
            sp = split_v_level(vl, backend, assigned=assigned)
            sp.bcast = [row for row in schedule if me in row[2]]
            v_splits.append(sp)

    executor = PlannedExecutor(
        tree, plan, kernel, cache, sched, fft,
        source_kernel=source_kernel, target_kernel=target_kernel,
        direct_kernel=direct_kernel, sanitize=opts.sanitize,
        src_points=ext_points, u_split=u_split, w_split=w_split,
        v_splits=v_splits,
    )
    return RankFMM(
        options=opts,
        ptree=ptree,
        lists=lists,
        layout=layout,
        src_start=np.fromiter((b.src_start for b in boxes), np.int64, nb),
        src_stop=np.fromiter((b.src_stop for b in boxes), np.int64, nb),
        executor=executor,
        v_compute=v_compute,
    )


@dataclass
class ParallelFMMResult:
    """Aggregate result of a driver-level parallel run."""

    potential: np.ndarray
    comm_stats: list[CommStats]
    timers: list[dict[str, float]]
    nranks: int


def run_parallel_fmm(
    nranks: int,
    kernel: Kernel,
    points: np.ndarray,
    density: np.ndarray,
    options: FMMOptions | None = None,
    source_kernel: Kernel | None = None,
    target_kernel: Kernel | None = None,
    direct_kernel: Kernel | None = None,
    trace=None,
    schedule_seed: int | None = None,
    napplies: int = 1,
    overlap: bool = True,
    cache: OperatorCache | None = None,
    race=None,
) -> ParallelFMMResult:
    """Convenience driver: partition, run SPMD, reassemble.

    Partitions ``points`` over ``nranks`` logical ranks with Morton-curve
    partitioning, runs the full three-stage parallel algorithm, and
    returns the potentials in the original point order together with
    per-rank communication statistics.

    The run goes through the persistent operator: one :func:`rank_setup`
    followed by ``napplies`` overlapped planned applies inside a single
    SPMD region (so a trace covers setup plus every apply).  ``cache``
    supplies a prebuilt operator cache; its ``root_side`` must match the
    bounding cube of ``points``.

    ``trace`` (a :class:`repro.analysis.trace.CommTrace`) records the
    full communication event trace for
    :func:`repro.analysis.commcheck.check_trace`; ``schedule_seed``
    perturbs the rank interleaving with seeded yields (the result must
    be — and is asserted by tests to be — schedule independent).
    ``race`` (a :class:`repro.analysis.racecheck.RaceDetector`) records
    shared-array access records during the run for the offline
    happens-before analysis of ``repro racecheck``.
    """
    if napplies < 1:
        raise ValueError(f"napplies must be >= 1, got {napplies}")
    src_k, trg_k, _ = resolve_kernels(
        kernel, source_kernel, target_kernel, direct_kernel
    )
    opts = options or FMMOptions()
    points = np.asarray(points, dtype=np.float64)
    density3, nrhs, single = coerce_density(
        np.asarray(density, dtype=np.float64),
        points.shape[0], src_k.source_dof,
    )
    corner, side = _global_root(points)
    parts = partition_points(points, nranks)
    timers = [PhaseTimer() for _ in range(nranks)]
    shared_cache = cache if cache is not None else OperatorCache(
        kernel, opts.p, side,
        inner=opts.inner, outer=opts.outer, rcond=opts.rcond,
    )
    # "auto" may schedule fft levels; prebuild so ranks share the
    # lazily-populated tensors (rank_setup ignores it otherwise).
    shared_fft = (
        FFTM2L(shared_cache) if opts.m2l in ("fft", "auto") else None
    )

    def rank_main(comm: SimComm, idx: np.ndarray):
        state = rank_setup(
            comm, kernel, points[idx], opts,
            root=(corner, side), cache=shared_cache, fft=shared_fft,
            source_kernel=source_kernel, target_kernel=target_kernel,
            direct_kernel=direct_kernel, timer=timers[comm.rank],
        )
        dloc = density3[idx]
        if single:
            dloc = dloc[:, :, 0]
        for _ in range(napplies):
            pot = state.apply(
                comm, dloc,
                timer=timers[comm.rank], overlap=overlap,
            )
        return pot, comm.stats

    outputs = run_spmd(
        nranks, rank_main, PerRank(parts),
        trace=trace, schedule_seed=schedule_seed, race=race,
    )
    out_shape = (points.shape[0], trg_k.target_dof)
    potential = np.zeros(out_shape if single else out_shape + (nrhs,))
    for idx, (pot, _) in zip(parts, outputs):
        potential[idx] = pot
    return ParallelFMMResult(
        potential=potential,
        comm_stats=[stats for _, stats in outputs],
        timers=[t.by_phase() for t in timers],
        nranks=nranks,
    )


class ParallelFMM:
    """Persistent parallel FMM operator with a setup/apply split.

    The parallel analogue of :class:`~repro.core.fmm.KIFMM`:
    :meth:`setup` partitions the points, builds every rank's
    :class:`RankFMM` (parallel tree, LET, owners, LET-local execution
    plan, ghost geometry) and the shared operator cache — once.
    :meth:`apply` then evaluates the operator for a new density,
    exchanging only densities and equivalent densities with the
    overlapped nonblocking protocol.  Repeated applies of one operator
    are bitwise identical; GMRES drives :meth:`matvec`.  ``timers``,
    ``flops`` and ``comm_stats`` are per-rank lists that accumulate like
    ``KIFMM.timer``/``KIFMM.flops``.

    Requires translation-invariant kernels (checked by
    :func:`~repro.core.evaluator.resolve_kernels`).
    """

    def __init__(
        self,
        nranks: int,
        kernel: Kernel,
        options: FMMOptions | None = None,
        *,
        overlap: bool = True,
        source_kernel: Kernel | None = None,
        target_kernel: Kernel | None = None,
        direct_kernel: Kernel | None = None,
    ) -> None:
        self.nranks = nranks
        self.kernel = kernel
        self.options = options or FMMOptions()
        self.overlap = overlap
        self.source_kernel = source_kernel
        self.target_kernel = target_kernel
        self.direct_kernel = direct_kernel
        self.src_k, self.trg_k, self.dir_k = resolve_kernels(
            kernel, source_kernel, target_kernel, direct_kernel
        )
        self._states: list[RankFMM] | None = None
        self._parts: list[np.ndarray] | None = None
        self._npoints = 0
        self.cache: OperatorCache | None = None
        self.fft: FFTM2L | None = None
        self.timers = [PhaseTimer() for _ in range(nranks)]
        self.flops = [FlopCounter() for _ in range(nranks)]
        self.comm_stats = [CommStats() for _ in range(nranks)]
        self.napplies = 0

    def setup(
        self,
        points: np.ndarray,
        trace=None,
        schedule_seed: int | None = None,
    ) -> "ParallelFMM":
        """Build the per-rank persistent states for ``points``."""
        points = np.asarray(points, dtype=np.float64)
        opts = self.options
        corner, side = _global_root(points)
        # A new geometry may have a new root cube; the cache only fixes
        # its scale (the operator bases are shared per process).
        if self.cache is None or self.cache.root_side != side:
            self.cache = OperatorCache(
                self.kernel, opts.p, side,
                inner=opts.inner, outer=opts.outer, rcond=opts.rcond,
            )
            self.fft = (
                FFTM2L(self.cache) if opts.m2l in ("fft", "auto") else None
            )
        parts = partition_points(points, self.nranks)

        def rank_main(comm: SimComm, idx: np.ndarray):
            state = rank_setup(
                comm, self.kernel, points[idx], opts,
                root=(corner, side), cache=self.cache, fft=self.fft,
                source_kernel=self.source_kernel,
                target_kernel=self.target_kernel,
                direct_kernel=self.direct_kernel,
                timer=self.timers[comm.rank],
            )
            return state, comm.stats

        outputs = run_spmd(
            self.nranks, rank_main, PerRank(parts),
            trace=trace, schedule_seed=schedule_seed,
        )
        self._states = [state for state, _ in outputs]
        for mine, (_, stats) in zip(self.comm_stats, outputs):
            mine.merge(stats)
        self._parts = parts
        self._npoints = points.shape[0]
        return self

    def apply(
        self,
        density: np.ndarray,
        trace=None,
        schedule_seed: int | None = None,
    ) -> np.ndarray:
        """Evaluate the operator for one density (original point order).

        Stacked blocks — ``(n, source_dof, nrhs)`` or a flat
        ``(n * source_dof, nrhs)`` — evaluate every column in one
        batched SPMD pass: each rank's whole RHS block rides a single
        overlapped exchange.  Returns ``(n, target_dof)`` potentials,
        with a trailing ``nrhs`` axis for stacked blocks.
        """
        if self._states is None or self._parts is None:
            raise RuntimeError("ParallelFMM.apply before setup()")
        density3, nrhs, single = coerce_density(
            np.asarray(density, dtype=np.float64),
            self._npoints, self.src_k.source_dof,
        )
        overlap = self.overlap

        def rank_main(comm: SimComm, state: RankFMM, idx: np.ndarray):
            dloc = density3[idx]
            if single:
                dloc = dloc[:, :, 0]
            pot = state.apply(
                comm, dloc,
                timer=self.timers[comm.rank], overlap=overlap,
                flops=self.flops[comm.rank],
            )
            return pot, comm.stats

        outputs = run_spmd(
            self.nranks, rank_main, PerRank(self._states),
            PerRank(self._parts), trace=trace, schedule_seed=schedule_seed,
        )
        for mine, (_, stats) in zip(self.comm_stats, outputs):
            mine.merge(stats)
        self.napplies += 1
        out_shape = (self._npoints, self.trg_k.target_dof)
        potential = np.zeros(out_shape if single else out_shape + (nrhs,))
        for idx, (pot, _) in zip(self._parts, outputs):
            potential[idx] = pot
        return potential

    def matvec(self, flat: np.ndarray) -> np.ndarray:
        """Flat-vector apply, the shape GMRES wants.

        A 2-D ``(n * source_dof, nrhs)`` block (block Krylov solvers)
        maps to the stacked ``(n * target_dof, nrhs)`` result.
        """
        out = self.apply(np.asarray(flat))
        if out.ndim == 3:
            return out.reshape(-1, out.shape[2])
        return out.ravel()
