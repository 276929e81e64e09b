"""The planned KIFMM executor, one program for every processor count.

Implements the classical FMM control flow (Section 2: "Our algorithm has
exactly the same structure as the original FMM") with the paper's density
representations, executed level by level over a precomputed
:class:`~repro.core.plan.ExecutionPlan`:

Upward pass (bottom-up)
    leaves: sources -> upward check potential (eq. 2.1, arrow 1);
    non-leaves: children's upward equivalent densities -> upward check
    potential (eq. 2.3, arrow 1); then one inversion per box (arrow 2).

Downward pass (top-down)
    every box accumulates its downward *check potential* from the parent
    (L2L, eq. 2.5), its V list (M2L, eq. 2.4 — dense, rsvd or
    FFT-accelerated) and its X list (direct sources -> check surface),
    then inverts once (the "one inversion per box" optimisation; same
    mathematics as performing it per translation).

Leaf evaluation
    targets receive the downward equivalent density (L2T), the dense
    U-list interactions, and the W-list upward equivalent densities
    evaluated directly.

The paper's parallel algorithm (Section 3.2) runs exactly this program
on every processor's local essential tree, "ignoring the existence of
the other processors", with one exchange between the upward pass and
the rest.  :class:`PlannedExecutor` therefore holds every stage body
once and takes the exchange as an optional hook: the sequential
:class:`~repro.core.fmm.KIFMM` is the executor with no exchange (every
partner is owned, nothing waits), and a rank of
:class:`~repro.parallel.pfmm.ParallelFMM` is the same executor over its
LET-local plan with the owner-mediated exchange plugged in.

Phase naming matches the legend of the paper's Figure 4.2: ``up``,
``down_u``, ``down_v``, ``down_w``, ``down_x`` and ``eval`` (L2L + L2T +
inversions).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.analysis import sanitize as _san
from repro.core.fftm2l import FFTM2L
from repro.core.m2lschedule import M2LSchedule
from repro.core.plan import (
    MAX_BLOCK_ENTRIES,
    OCTANT_VECTORS,
    ExecutionPlan,
    NearBlocks,
    StageMeta,
    VLevel,
    chunk_segments,
    plan_stage,
)
from repro.core.precompute import OperatorCache
from repro.core.surfaces import surface_grid
from repro.kernels.base import Kernel
from repro.octree.tree import Octree
from repro.util.flops import FlopCounter
from repro.util.timing import PhaseTimer


def _matvec_flops(matrix_shape: tuple[int, int]) -> float:
    return 2.0 * matrix_shape[0] * matrix_shape[1]


def _rsvd_pair_flops(rank: int, n_surf: int, md: int, qd: int) -> float:
    """Real flops of one rsvd-compressed M2L pair (two stacked GEMMs).

    ``(ue @ vf.T) @ uf.T`` costs ``2 k (n_surf md) + 2 k (n_surf qd)``
    per density row.  Every factor is an integer, so the float product
    is integer-valued and the evaluator / plan-IR / cost-model totals
    stay a bitwise identity.
    """
    return 2.0 * rank * n_surf * (md + qd)


def coerce_density(
    density: np.ndarray, npts: int, dof: int
) -> tuple[np.ndarray, int, bool]:
    """Normalise a density to ``(npts, dof, nrhs)``; returns (phi, nrhs, single).

    Accepted forms: a single density as ``(npts, dof)`` or flat
    ``(npts * dof,)`` (``single=True``; callers squeeze the trailing RHS
    axis off their result), a stacked block ``(npts, dof, nrhs)``, or a
    flat block ``(npts * dof, nrhs)`` as produced by block Krylov
    solvers.  Blocks are reshaped, never copied, so a column-major
    caller pays nothing extra here.
    """
    arr = np.asarray(density, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[:2] == (npts, dof):
        return arr, arr.shape[2], False
    if arr.ndim == 2 and arr.shape == (npts, dof):
        return arr.reshape(npts, dof, 1), 1, True
    if arr.ndim == 2 and arr.shape[0] == npts * dof:
        return arr.reshape(npts, dof, arr.shape[1]), arr.shape[1], False
    if arr.ndim == 1 and arr.size == npts * dof:
        return arr.reshape(npts, dof, 1), 1, True
    raise ValueError(
        f"density shape {arr.shape} does not match {npts} points of "
        f"{dof} components (accepted: (n, dof), flat (n*dof,), stacked "
        f"(n, dof, nrhs), flat block (n*dof, nrhs))"
    )


def resolve_kernels(
    kernel: Kernel,
    source_kernel: Kernel | None,
    target_kernel: Kernel | None,
    direct_kernel: Kernel | None,
) -> tuple[Kernel, Kernel, Kernel]:
    """Resolve and validate the (source, target, direct) kernel triple.

    Shared by every entry point (:class:`~repro.core.fmm.KIFMM`, the
    parallel driver and operator); see :class:`PlannedExecutor` for the
    meaning of each kernel.  Every kernel must be translation invariant
    (:attr:`~repro.kernels.base.Kernel.translation_invariant`): the
    executor shares one origin-centred surface and one set of
    translation operators per tree level, which is only valid for such
    kernels, so any other kernel is rejected here.
    """
    src_k = source_kernel if source_kernel is not None else kernel
    trg_k = target_kernel if target_kernel is not None else kernel
    if direct_kernel is not None:
        dir_k = direct_kernel
    elif src_k is kernel:
        dir_k = trg_k
    elif trg_k is kernel:
        dir_k = src_k
    else:
        raise ValueError(
            "direct_kernel is required when both source_kernel and "
            "target_kernel are custom"
        )
    if src_k.target_dof != kernel.target_dof:
        raise ValueError(
            f"source_kernel must produce {kernel.target_dof}-component "
            f"check potentials, got {src_k.target_dof}"
        )
    if trg_k.source_dof != kernel.source_dof:
        raise ValueError(
            f"target_kernel must consume {kernel.source_dof}-component "
            f"equivalent densities, got {trg_k.source_dof}"
        )
    if (dir_k.source_dof, dir_k.target_dof) != (
        src_k.source_dof,
        trg_k.target_dof,
    ):
        raise ValueError(
            f"direct_kernel must map {src_k.source_dof} -> "
            f"{trg_k.target_dof} components, got "
            f"{dir_k.source_dof} -> {dir_k.target_dof}"
        )
    variant = [
        k.name for k in (kernel, src_k, trg_k, dir_k)
        if not k.translation_invariant
    ]
    if variant:
        raise ValueError(
            f"kernel(s) {sorted(set(variant))} are not translation "
            f"invariant; the KIFMM executors require "
            f"G(x + t, y + t) = G(x, y)"
        )
    return src_k, trg_k, dir_k


@plan_stage
@dataclass
class VSplit:
    """One V level's work, split around the exchange wait.

    ``own_*`` work reads only source boxes whose global upward
    equivalent densities are on hand right after the owner relay, so it
    runs inside the overlap window; ``ghost_*`` work waits for the
    scatter.  ``*_rows`` are positions into ``vl.src_boxes`` that the fft
    backend forward-transforms; ``*_classes`` are the level's offset
    classes — per child offset (``vl.classes``) on dense/rsvd levels,
    per parent offset (``vl.po_groups``, split at parent-pair
    granularity) on fft levels — and ``*_pairs`` count the effective V
    pairs they cover.  Without an exchange every source is own and the
    ghost side is empty.

    At *coarse split levels* (box count below the rank count — see
    :func:`repro.core.m2lschedule.coarse_split_levels`) the redundant
    tree-top translations are divided instead: ``own_*`` is empty, the
    ``ghost_*`` classes are restricted to the target boxes *assigned* to
    this rank (on fft levels unassigned target children and unused
    source children map to the sentinel rows), ``inv_rows`` lists the
    assigned positions into ``vl.trg_boxes`` (the only rows this rank
    inverse-transforms), and ``bcast`` holds the per-box
    ``(box, root_rank, participant_ranks)`` broadcast schedule that
    delivers every participant the assigned rank's downward-check rows.
    ``inv_rows is None`` means the level is not split (all rows local).
    """

    own_rows: np.ndarray
    ghost_rows: np.ndarray
    own_classes: list[tuple[tuple[int, int, int], np.ndarray, np.ndarray]]
    ghost_classes: list[tuple[tuple[int, int, int], np.ndarray, np.ndarray]]
    own_pairs: int
    ghost_pairs: int
    inv_rows: np.ndarray | None = None
    bcast: list[tuple[int, int, tuple[int, ...]]] = field(default_factory=list)

    stage_meta = StageMeta(
        reads=("ue", "vhat"), writes=("vhat", "dc"), dtype="float64"
    )


def _class_pairs(classes) -> int:
    """Effective V pairs of a list of per-child-offset classes."""
    return sum(s.size for _, s, _ in classes)


def _block_pairs(groups, nsb: int, ntb: int) -> int:
    """Effective V pairs covered by parent-pair blocks.

    A block covers the child pairs at a non-adjacent offset whose rows
    are both real (not the sentinel); every such child pair is an
    effective V pair of the level.
    """
    total = 0
    for po, s, t in groups:
        off = 2 * np.asarray(po) + OCTANT_VECTORS[:, None] - OCTANT_VECTORS
        far = np.abs(off).max(axis=2) >= 2  # [target octant, source octant]
        total += int(
            ((t < ntb)[:, :, None] & (s < nsb)[:, None, :] & far).sum()
        )
    return total


def split_v_level(
    vl: VLevel,
    backend: str,
    src_owned: np.ndarray | None = None,
    assigned: np.ndarray | None = None,
) -> VSplit:
    """Split one V level's work around the exchange wait.

    ``src_owned`` marks the source rows whose densities the owner relay
    delivers (default: all of them — the no-exchange case).  A parent
    pair runs in the overlap window iff all its real source children
    are owned.  ``assigned`` marks the target rows this rank computes at
    a coarse split level; the level's work then all waits for the
    scatter.
    """
    nsb, ntb = vl.src_boxes.size, vl.trg_boxes.size
    empty = np.empty(0, dtype=np.int64)
    if assigned is not None:
        classes = [
            (off, s[m], t[m]) for off, s, t in vl.classes
            if (m := assigned[t]).any()
        ]
        rows = (
            np.unique(np.concatenate([s for _, s, _ in classes]))
            if classes else empty
        )
        npairs = _class_pairs(classes)
        if backend == "fft":
            used = np.zeros(nsb + 1, dtype=bool)
            used[rows] = True
            kept = np.append(assigned, False)
            classes = []
            for po, s, t in vl.po_groups:
                t = np.where(kept[t], t, ntb)
                m = (t < ntb).any(axis=1)
                if m.any():
                    s = s[m]
                    classes.append((po, np.where(used[s], s, nsb), t[m]))
        return VSplit(
            empty, rows, [], classes, 0, npairs,
            inv_rows=np.flatnonzero(assigned),
        )
    if src_owned is None:
        work = vl.po_groups if backend == "fft" else vl.classes
        return VSplit(np.arange(nsb), empty, list(work), [], vl.npairs, 0)
    own = src_owned
    if backend == "fft":
        work = vl.po_groups
        # the zero sentinel row is on hand everywhere
        own_ext = np.append(own, True)
        masks = [own_ext[s].all(axis=1) for _, s, _ in work]
        count = lambda c: _block_pairs(c, nsb, ntb)  # noqa: E731
    else:
        work = vl.classes
        masks = [own[s] for _, s, _ in work]
        count = _class_pairs
    own_c = [
        (o, s[m], t[m]) for (o, s, t), m in zip(work, masks) if m.any()
    ]
    ghost_c = [
        (o, s[~m], t[~m]) for (o, s, t), m in zip(work, masks) if not m.all()
    ]
    return VSplit(
        np.flatnonzero(own), np.flatnonzero(~own), own_c, ghost_c,
        count(own_c), count(ghost_c),
    )


class Exchange(Protocol):
    """Communication hooks of a multi-rank apply.

    Implemented by :class:`repro.parallel.pfmm.RankExchange`; the
    sequential executor runs with none.
    """

    def start(
        self, phi: np.ndarray, ue: np.ndarray, ext_phi: np.ndarray,
        timer: PhaseTimer,
    ) -> None:
        """Post every send/receive and run the owner relay.

        ``phi`` holds the local sorted densities, ``ue`` the partial
        upward equivalent densities (box-major rows, replaced in place
        by the global ones), ``ext_phi`` the combined local + ghost
        source densities to fill.
        """

    def finish(self) -> None:
        """Wait for the scatter: ghost rows of ``ue``/``ext_phi`` land."""

    def split_bcast(
        self, level: int, bcast: list, dc3: np.ndarray
    ) -> None:
        """Deliver a coarse split level's downward-check rows."""


class PlannedExecutor:
    """The KIFMM program over one execution plan, with or without peers.

    Holds the plan, the operators and every stage body once.  The
    inputs that differ between one processor and a rank of the parallel
    algorithm are data:

    - ``src_points`` — the point array U/X source positions index:
      ``plan.sources_sorted`` sequentially, a rank's combined local +
      ghost array in parallel;
    - ``u_split``/``w_split`` — ``(own, ghost)`` near-field blocks
      (default: the plan's blocks, all own);
    - ``v_splits`` — one :class:`VSplit` per V level (default: all own);
    - the ``exchange`` hook of :meth:`apply` (default: none).

    Stacked density blocks (see :func:`coerce_density`) ride the same
    plan in one pass.  Stages that feed the regularised ``uc2ue`` /
    ``dc2de`` inverses — which amplify round-off by ~1e6 — hoist their
    shared factor (kernel-matrix assembly, translation operators, DFT
    operators) out of a per-column loop whose gathers/GEMMs/scatters
    run with exactly the single-RHS shapes, so every column matches its
    single-RHS apply bit for bit through the inversion chain.
    Direct-to-potential stages (U, W) fold the RHS axis into one GEMM
    that streams the kernel block once; their ~1e-16 GEMM-vs-GEMV
    rounding gap stays far below the 1e-12 column-parity bound.

    Kernels: ``kernel`` is the *translation* kernel (builds and moves
    equivalent densities; its cache must share ``tree.root_side``).
    ``source_kernel`` maps the user's densities to check potentials
    (S2M and X-list evaluations; enables dipole/double-layer sources)
    and must produce ``kernel.target_dof`` components.
    ``target_kernel`` maps the translation kernel's densities to the
    user's target quantity (L2T and W-list evaluations; enables
    gradient output) and must consume ``kernel.source_dof``
    components.  ``direct_kernel`` is the near-field U-list kernel,
    inferred when at most one of the other two is custom.  See
    :func:`resolve_kernels`.

    ``sanitize`` (or ``REPRO_SANITIZE=1``) enables the runtime
    sanitizers of :mod:`repro.analysis.sanitize`: BufferPool lifecycle
    with NaN poisoning of released scratch, finite checks at every
    phase boundary (naming the phase and box range that first went
    non-finite), GEMM aliasing guards, and a pool-escape check on the
    returned potential.
    """

    def __init__(
        self,
        tree: Octree,
        plan: ExecutionPlan,
        kernel: Kernel,
        cache: OperatorCache,
        schedule: M2LSchedule,
        fft: FFTM2L | None = None,
        *,
        source_kernel: Kernel | None = None,
        target_kernel: Kernel | None = None,
        direct_kernel: Kernel | None = None,
        sanitize: bool = False,
        src_points: np.ndarray | None = None,
        u_split: tuple[NearBlocks, NearBlocks] | None = None,
        w_split: tuple[NearBlocks, NearBlocks] | None = None,
        v_splits: list[VSplit] | None = None,
    ) -> None:
        self.tree = tree
        self.plan = plan
        self.kernel = kernel
        self.cache = cache
        self.schedule = schedule
        if fft is None and schedule.needs_fft:
            fft = FFTM2L(cache)
        self.fft = fft
        self.src_k, self.trg_k, self.dir_k = resolve_kernels(
            kernel, source_kernel, target_kernel, direct_kernel
        )
        self.sanitize = sanitize
        self.src_points = (
            plan.sources_sorted if src_points is None else src_points
        )
        none = NearBlocks.empty()
        self.u_own, self.u_ghost = u_split or (plan.u, none)
        self.w_own, self.w_ghost = w_split or (plan.w, none)
        self.v_splits = v_splits if v_splits is not None else [
            split_v_level(vl, schedule.backend(vl.level))
            for vl in plan.v_levels
        ]

    def with_kernels(
        self,
        source_kernel: Kernel | None = None,
        target_kernel: Kernel | None = None,
        direct_kernel: Kernel | None = None,
    ) -> "PlannedExecutor":
        """The same program with another source/target/direct kernel
        triple (e.g. gradient targets); shares the plan and its pool."""
        other = copy.copy(self)
        other.src_k, other.trg_k, other.dir_k = resolve_kernels(
            self.kernel, source_kernel, target_kernel, direct_kernel
        )
        return other

    # -- apply ------------------------------------------------------------

    def apply(
        self,
        density: np.ndarray,
        *,
        exchange: Exchange | None = None,
        flops: FlopCounter | None = None,
        timer: PhaseTimer | None = None,
        overlap: bool = True,
    ) -> np.ndarray:
        """One interaction evaluation ``u = K phi``.

        ``density`` is ``(ns, source_kernel.source_dof)`` or flat, in
        *original* (unsorted) point order, or a stacked block.  The
        program order is: upward pass, exchange post + owner relay, the
        owned-data passes (U/W/V over own partners), the scatter wait,
        the ghost V passes with the inverse transforms and coarse-split
        broadcasts, the downward sweep, and the ghost U/W passes.  With
        ``overlap`` off the wait moves before the owned passes; the
        arithmetic — and so every bit of the result — is the same.

        Returns ``(nt, target_kernel.target_dof)`` values in original
        target order (trailing ``nrhs`` axis for stacked blocks).
        """
        flops = flops if flops is not None else FlopCounter()
        timer = timer if timer is not None else PhaseTimer()
        plan, pool = self.plan, self.plan.buffers
        md, qd = self.kernel.source_dof, self.kernel.target_dof
        sdof, out_dof = self.src_k.source_dof, self.trg_k.target_dof
        n_surf = self.cache.n_surf
        nb = plan.nboxes
        ns, nt = self.tree.src_perm.size, self.tree.trg_perm.size
        san = self.sanitize or _san.enabled()
        pool.sanitize = san
        phi3, nrhs, single = coerce_density(density, ns, sdof)
        if san:
            _san.check_finite(phi3, "input", "density", rows_are="points")
        # Point-major sorted densities (all right-hand sides packed into
        # each row: the exchange payload) and an RHS-major copy whose
        # phi_rm[r] is shaped exactly like a single-RHS upward input.
        phi = np.ascontiguousarray(phi3[self.tree.src_perm]).reshape(
            ns, sdof * nrhs
        )
        phi_rm = np.ascontiguousarray(
            phi.reshape(ns, sdof, nrhs).transpose(2, 0, 1)
        )

        # Box-major upward densities (one row per box holds every RHS:
        # the exchange's per-box payload); RHS-major downward arrays.
        ue = pool.zeros("ue", (nb, nrhs * n_surf * md))
        ue3 = ue.reshape(nb, nrhs, n_surf * md)
        with timer.phase("up"):
            self.upward(ue3, phi_rm, flops)
        if san:
            _san.check_finite(ue, "up", "upward equivalent densities")

        if exchange is None:
            ext_phi = phi
        else:
            ext_phi = pool.empty(
                "ext_phi", (self.src_points.shape[0], sdof * nrhs)
            )
            exchange.start(phi, ue, ext_phi, timer)
            if not overlap:
                exchange.finish()
        ext_phi3 = ext_phi.reshape(-1, sdof, nrhs)

        dc3 = pool.zeros("dc", (nrhs, nb, n_surf * qd))
        de3 = pool.zeros("de", (nrhs, nb, n_surf * md))
        pot3 = pool.zeros("pot", (nrhs, nt, out_dof))
        spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        # Owned-data passes: with an overlapped exchange these run while
        # the equivalent-density/ghost-density scatter is in flight.
        self.near_u(self.u_own, ext_phi3, pot3, flops, timer)
        self.near_w(self.w_own, ue3, pot3, flops, timer)
        self.v_pass(False, ue3, dc3, spectra, flops, timer, exchange)

        if exchange is not None:
            if overlap:
                exchange.finish()
            if san:
                _san.check_finite(ext_phi, "exchange",
                                  "combined ghost source densities",
                                  rows_are="points")
                _san.check_finite(ue, "exchange",
                                  "global upward equivalent densities")

        # Ghost-dependent passes.
        self.v_pass(True, ue3, dc3, spectra, flops, timer, exchange)
        if san:
            _san.check_finite(dc3.transpose(1, 0, 2), "down_v",
                              "downward check potentials")
        self.downward(ext_phi3, dc3, de3, pot3, flops, timer)
        if san:
            _san.check_finite(de3.transpose(1, 0, 2), "eval",
                              "downward equivalent densities")
        self.near_u(self.u_ghost, ext_phi3, pot3, flops, timer)
        self.near_w(self.w_ghost, ue3, pot3, flops, timer)
        if san:
            _san.check_finite(pot3.transpose(1, 0, 2), "output",
                              "potentials", rows_are="targets")

        if single:
            potential = np.empty((nt, out_dof))
            potential[self.tree.trg_perm] = pot3[0]
        else:
            potential = np.empty((nt, out_dof, nrhs))
            potential[self.tree.trg_perm] = pot3.transpose(1, 2, 0)
        if san:
            _san.check_escape(potential, pool, "PlannedExecutor.apply")
        return potential

    # -- stages -----------------------------------------------------------

    def upward(
        self, ue3: np.ndarray, phi_rm: np.ndarray, flops: FlopCounter
    ) -> None:
        """S2M / M2M / uc2ue over the plan's (local) sources, by level.

        ``ue3`` is ``(nboxes, nrhs, n_surf * md)``; ``phi_rm`` the
        RHS-major sorted densities.  With peers these are the partial
        upward densities the owners sum (linearity of eq. 2.1/2.3).
        """
        cache, plan, src_k = self.cache, self.plan, self.src_k
        n_surf = cache.n_surf
        qd, sdof = self.kernel.target_dof, src_k.source_dof
        nrhs = ue3.shape[1]
        pool = plan.buffers
        zero3 = np.zeros(3)
        for ul in plan.up_levels:
            check = pool.zeros("up_check", (nrhs, ul.boxes.size, n_surf * qd))
            if ul.s2m_rows.size:
                chk_pts = cache.up_check_points(zero3, ul.level)
                phi_cat = phi_rm[:, ul.s2m_src_pos].reshape(nrhs, -1)
                max_pts = max(1, MAX_BLOCK_ENTRIES // (n_surf * qd * sdof))
                for lo, hi in chunk_segments(ul.s2m_seg, max_pts):
                    p0, p1 = int(ul.s2m_seg[lo]), int(ul.s2m_seg[hi])
                    K = src_k.matrix_local(chk_pts, ul.s2m_pts[p0:p1])
                    cols = (ul.s2m_seg[lo:hi] - p0) * sdof
                    rows = ul.s2m_rows[lo:hi]
                    for r in range(nrhs):
                        vals = K * phi_cat[r, p0 * sdof : p1 * sdof][None, :]
                        check[r][rows] += np.add.reduceat(
                            vals, cols, axis=1
                        ).T
                flops.add_pairs(
                    "up", n_surf * int(ul.s2m_seg[-1]) * nrhs,
                    src_k.flops_per_pair,
                )
            for octant, kids, rows in ul.m2m_groups:
                M = cache.m2m_check(ul.level + 1, octant)
                if pool.sanitize:
                    # Fancy-indexed operands materialise copies, so the
                    # aliasing hazard is between the backing stacks.
                    _san.guard_gemm(check, ue3, M,
                                    site=f"m2m level {ul.level}")
                MT = M.T
                for r in range(nrhs):
                    check[r][rows] += ue3[kids, r] @ MT
                flops.add("up", kids.size * nrhs * _matvec_flops(M.shape))
            U = cache.uc2ue(ul.level)
            if pool.sanitize:
                _san.guard_gemm(ue3, check, U,
                                site=f"uc2ue level {ul.level}")
            UT = U.T
            for r in range(nrhs):
                ue3[ul.boxes, r] = check[r] @ UT
            flops.add("up", ul.boxes.size * nrhs * _matvec_flops(U.shape))
            pool.release("up_check")

    def near_u(
        self,
        blocks: NearBlocks,
        ext_phi3: np.ndarray,
        pot3: np.ndarray,
        flops: FlopCounter,
        timer: PhaseTimer,
    ) -> None:
        """U-list near field, one kernel block per target leaf and chunk
        of concatenated partner sources."""
        if blocks.boxes.size == 0:
            return
        plan, dir_k = self.plan, self.dir_k
        sdof, out_dof = self.src_k.source_dof, self.trg_k.target_dof
        nrhs = pot3.shape[0]
        with timer.phase("down_u"):
            npairs = 0
            for i, bi in enumerate(blocks.boxes):
                t0, t1 = int(blocks.trg_start[i]), int(blocks.trg_stop[i])
                s0, s1 = int(blocks.seg[i]), int(blocks.seg[i + 1])
                pos = blocks.src_pos[s0:s1]
                ctr = plan.centers[bi]
                trg_pts = plan.targets_sorted[t0:t1] - ctr
                ntr = t1 - t0
                step = max(1, MAX_BLOCK_ENTRIES // max(1, ntr * out_dof * sdof))
                for c0 in range(0, pos.size, step):
                    c1 = min(pos.size, c0 + step)
                    K = dir_k.matrix_local(
                        trg_pts, self.src_points[pos[c0:c1]] - ctr
                    )
                    xs = ext_phi3[pos[c0:c1]].reshape(-1, nrhs)
                    pot3[:, t0:t1] += (K @ xs).reshape(
                        ntr, out_dof, nrhs
                    ).transpose(2, 0, 1)
                npairs += ntr * pos.size
            flops.add_pairs("down_u", npairs * nrhs, dir_k.flops_per_pair)

    def near_w(
        self,
        blocks: NearBlocks,
        ue3: np.ndarray,
        pot3: np.ndarray,
        flops: FlopCounter,
        timer: PhaseTimer,
    ) -> None:
        """W-list pass: partner upward equivalent densities evaluated
        directly at the target leaf's points."""
        if blocks.boxes.size == 0:
            return
        plan, cache, trg_k = self.plan, self.cache, self.trg_k
        out_dof = trg_k.target_dof
        nrhs = pot3.shape[0]
        with timer.phase("down_w"):
            sgrid = surface_grid(cache.p)
            hw = cache.root_side / np.power(2.0, np.arange(plan.depth + 1)) / 2.0
            npairs = 0
            for i, bi in enumerate(blocks.boxes):
                t0, t1 = int(blocks.trg_start[i]), int(blocks.trg_stop[i])
                s0, s1 = int(blocks.seg[i]), int(blocks.seg[i + 1])
                partners = blocks.src_pos[s0:s1]
                ctr = plan.centers[bi]
                rad = cache.inner * hw[plan.levels[partners]]
                eq_pts = (
                    (plan.centers[partners] - ctr)[:, None, :]
                    + rad[:, None, None] * sgrid[None, :, :]
                ).reshape(-1, 3)
                K = trg_k.matrix_local(plan.targets_sorted[t0:t1] - ctr, eq_pts)
                xs = ue3[partners].transpose(0, 2, 1).reshape(-1, nrhs)
                pot3[:, t0:t1] += (K @ xs).reshape(
                    t1 - t0, out_dof, nrhs
                ).transpose(2, 0, 1)
                npairs += (t1 - t0) * partners.size
            flops.add_pairs(
                "down_w", cache.n_surf * npairs * nrhs, trg_k.flops_per_pair
            )

    def v_pass(
        self,
        ghost: bool,
        ue3: np.ndarray,
        dc3: np.ndarray,
        spectra: dict,
        flops: FlopCounter,
        timer: PhaseTimer,
        exchange: Exchange | None,
    ) -> None:
        """The own (``ghost=False``) or ghost half of every V level.

        FFT levels keep their frequency-leading spectra in ``spectra``
        between the halves; the ghost half ends each level with the
        inverse transforms and, at coarse split levels, the broadcast
        of the assigned rows.  Columns loop with the translation
        operators hoisted: the V result feeds the ``dc2de`` inverse.
        """
        pool, nrhs = self.plan.buffers, dc3.shape[0]
        md, qd = self.kernel.source_dof, self.kernel.target_dof
        with timer.phase("down_v"):
            for vl, sp in zip(self.plan.v_levels, self.v_splits):
                backend = self.schedule.backend(vl.level)
                classes = sp.ghost_classes if ghost else sp.own_classes
                if backend == "fft":
                    if not ghost:
                        # Frequency-leading source / accumulator spectra,
                        # each with a trailing sentinel box row.
                        nfreq = self.fft.m ** 2 * (self.fft.m // 2 + 1)
                        spectra[vl.level] = (
                            pool.empty(
                                f"v_phi@{vl.level}",
                                (nrhs, nfreq, vl.src_boxes.size + 1, md),
                                np.complex128,
                            ),
                            pool.zeros(
                                f"v_acc@{vl.level}",
                                (nrhs, nfreq, vl.trg_boxes.size + 1, qd),
                                np.complex128,
                            ),
                        )
                    phi_ext, acc_ext = spectra[vl.level]
                    self._v_forward(
                        vl, sp.ghost_rows if ghost else sp.own_rows,
                        ue3, phi_ext, flops,
                    )
                    if classes:
                        self.fft.hadamard_blocked(
                            vl.level, classes, phi_ext, acc_ext, pool
                        )
                        flops.add(
                            "down_v",
                            (sp.ghost_pairs if ghost else sp.own_pairs)
                            * nrhs * self.fft.flops_per_pair(),
                        )
                    if ghost:
                        self._v_inverse(vl, sp.inv_rows, acc_ext, dc3, flops)
                elif backend == "dense":
                    self._v_dense(vl, classes, ue3, dc3, flops)
                else:
                    self._v_rsvd(vl, classes, ue3, dc3, flops)
                if ghost and sp.bcast:
                    exchange.split_bcast(vl.level, sp.bcast, dc3)
            if ghost:
                for lvl in spectra:
                    pool.release(f"v_phi@{lvl}")
                    pool.release(f"v_acc@{lvl}")
                pool.release("v_fwd")
                pool.release("v_r")

    def _v_forward(
        self, vl: VLevel, rows: np.ndarray, ue3: np.ndarray,
        phi_ext: np.ndarray, flops: FlopCounter,
    ) -> None:
        """Forward GEMM-DFTs of the ``rows`` source boxes of one level."""
        if rows.size == 0:
            return
        fft, nrhs = self.fft, phi_ext.shape[0]
        md = self.kernel.source_dof
        nsb = vl.src_boxes.size
        boxes = vl.src_boxes[rows]
        for r in range(nrhs):
            if rows.size == nsb:
                fft.forward_rows_t(ue3[boxes, r], phi_ext[r, :, :nsb])
            else:
                out = self.plan.buffers.empty(
                    "v_fwd", (phi_ext.shape[1], rows.size, md), np.complex128
                )
                fft.forward_rows_t(ue3[boxes, r], out)
                phi_ext[r][:, rows] = out
        flops.add("down_v", rows.size * nrhs * fft.flops_per_fft(md))

    def _v_inverse(
        self, vl: VLevel, inv_rows: np.ndarray | None,
        acc_ext: np.ndarray, dc3: np.ndarray, flops: FlopCounter,
    ) -> None:
        """Inverse GEMM-DFTs into the downward check potentials (only
        the assigned rows at a coarse split level)."""
        fft, nrhs = self.fft, dc3.shape[0]
        ntb = vl.trg_boxes.size
        for r in range(nrhs):
            if inv_rows is None:
                dc3[r][vl.trg_boxes] += fft.inverse_rows_t(acc_ext[r, :, :ntb])
            elif inv_rows.size:
                dc3[r][vl.trg_boxes[inv_rows]] += fft.inverse_rows_t(
                    acc_ext[r][:, inv_rows]
                )
        ninv = ntb if inv_rows is None else inv_rows.size
        flops.add(
            "down_v", ninv * nrhs * fft.flops_per_fft(self.kernel.target_dof)
        )

    def _v_dense(self, vl, classes, ue3, dc3, flops: FlopCounter) -> None:
        """One stacked GEMM per offset class and right-hand side."""
        for offset, spos, tpos in classes:
            T = self.cache.m2l_check(vl.level, offset)
            if self.plan.buffers.sanitize:
                _san.guard_gemm(dc3, ue3, T, site=f"m2l level {vl.level}")
            TT = T.T
            sb, tb = vl.src_boxes[spos], vl.trg_boxes[tpos]
            for r in range(dc3.shape[0]):
                dc3[r][tb] += ue3[sb, r] @ TT
            flops.add(
                "down_v", spos.size * dc3.shape[0] * _matvec_flops(T.shape)
            )

    def _v_rsvd(self, vl, classes, ue3, dc3, flops: FlopCounter) -> None:
        """Two stacked BLAS-3 GEMMs per class through the compressed
        factors.  Mixed precision narrows the source block to the factor
        dtype; the ``+=`` into the float64 check buffers upcasts, so the
        accumulation stays double."""
        n_surf = self.cache.n_surf
        md, qd = self.kernel.source_dof, self.kernel.target_dof
        for offset, spos, tpos in classes:
            uf, vf = self.cache.m2l_rsvd(vl.level, offset, self.schedule.dtype)
            if self.plan.buffers.sanitize:
                _san.guard_gemm(dc3, ue3, uf,
                                site=f"m2l-rsvd level {vl.level}")
            ufT, vfT = uf.T, vf.T
            sb, tb = vl.src_boxes[spos], vl.trg_boxes[tpos]
            for r in range(dc3.shape[0]):
                src = ue3[sb, r].astype(vf.dtype, copy=False)
                dc3[r][tb] += (src @ vfT) @ ufT
            flops.add(
                "down_v",
                spos.size * dc3.shape[0]
                * _rsvd_pair_flops(vf.shape[0], n_surf, md, qd),
            )

    def downward(
        self,
        ext_phi3: np.ndarray,
        dc3: np.ndarray,
        de3: np.ndarray,
        pot3: np.ndarray,
        flops: FlopCounter,
        timer: PhaseTimer,
    ) -> None:
        """L2L / X / dc2de / L2T sweep, top-down.

        L2L, X and dc2de feed the regularised downward inverse, so
        columns loop with per-level/per-box operators hoisted; L2T
        gathers only the chunk in flight for each right-hand side.
        """
        plan, cache = self.plan, self.cache
        src_k, trg_k = self.src_k, self.trg_k
        md, n_surf = self.kernel.source_dof, cache.n_surf
        out_dof = trg_k.target_dof
        nrhs = pot3.shape[0]
        zero3 = np.zeros(3)
        pool = plan.buffers
        for dl in plan.down_levels:
            with timer.phase("eval"):
                for octant, kids, parents in dl.l2l_groups:
                    L = cache.l2l_check(dl.level, octant)
                    if pool.sanitize:
                        _san.guard_gemm(dc3, de3, L,
                                        site=f"l2l level {dl.level}")
                    LT = L.T
                    for r in range(nrhs):
                        dc3[r][kids] += de3[r][parents] @ LT
                    flops.add(
                        "eval", kids.size * nrhs * _matvec_flops(L.shape)
                    )
            if dl.x_boxes.size:
                with timer.phase("down_x"):
                    chk_pts = cache.down_check_points(zero3, dl.level)
                    for i, bi in enumerate(dl.x_boxes):
                        p0, p1 = int(dl.x_seg[i]), int(dl.x_seg[i + 1])
                        pos = dl.x_src_pos[p0:p1]
                        K = src_k.matrix_local(
                            chk_pts, self.src_points[pos] - plan.centers[bi]
                        )
                        xs = ext_phi3[pos].transpose(2, 0, 1).reshape(nrhs, -1)
                        for r in range(nrhs):
                            dc3[r, bi] += K @ xs[r]
                    flops.add_pairs(
                        "down_x", n_surf * int(dl.x_seg[-1]) * nrhs,
                        src_k.flops_per_pair,
                    )
            with timer.phase("eval"):
                if dl.dc_boxes.size:
                    D = cache.dc2de(dl.level)
                    if pool.sanitize:
                        _san.guard_gemm(de3, dc3, D,
                                        site=f"dc2de level {dl.level}")
                    DT = D.T
                    for r in range(nrhs):
                        de3[r][dl.dc_boxes] = dc3[r][dl.dc_boxes] @ DT
                    flops.add(
                        "eval",
                        dl.dc_boxes.size * nrhs * _matvec_flops(D.shape),
                    )
                if dl.l2t_boxes.size:
                    eq_pts = cache.down_equiv_points(zero3, dl.level)
                    row_box = np.repeat(
                        np.arange(dl.l2t_boxes.size), np.diff(dl.l2t_seg)
                    )
                    npts = int(dl.l2t_seg[-1])
                    step = max(1, MAX_BLOCK_ENTRIES // (out_dof * n_surf * md))
                    for p0 in range(0, npts, step):
                        p1 = min(npts, p0 + step)
                        K = trg_k.matrix_local(dl.l2t_pts[p0:p1], eq_pts)
                        K3 = K.reshape(p1 - p0, out_dof, n_surf * md)
                        boxes = dl.l2t_boxes[row_box[p0:p1]]
                        tp = dl.l2t_trg_pos[p0:p1]
                        for r in range(nrhs):
                            pot3[r][tp] += np.einsum(
                                "tqm,tm->tq", K3, de3[r][boxes]
                            )
                    flops.add_pairs(
                        "eval", npts * n_surf * nrhs, trg_k.flops_per_pair
                    )
