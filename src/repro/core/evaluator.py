"""The sequential adaptive KIFMM evaluator.

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

Phase naming matches the legend of the paper's Figure 4.2: ``up``,
``down_u``, ``down_v``, ``down_w``, ``down_x`` and ``eval`` (L2L + L2T +
inversions).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import sanitize as _san
from repro.core.fftm2l import FFTM2L
from repro.core.m2lschedule import (
    M2LSchedule,
    resolve_m2l_schedule,
    v_stats_from_plan,
)
from repro.core.plan import MAX_BLOCK_ENTRIES, ExecutionPlan, chunk_segments
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
    parallel driver and operator); see :func:`evaluate_planned` for the
    meaning of each kernel.  Every kernel must be translation invariant
    (:attr:`~repro.kernels.base.Kernel.translation_invariant`): the
    planned executors share one origin-centred surface and one set of
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


def evaluate_planned(
    tree: Octree,
    plan: ExecutionPlan,
    kernel: Kernel,
    cache: OperatorCache,
    density: np.ndarray,
    m2l_mode: str | M2LSchedule = "fft",
    fft_m2l: FFTM2L | None = None,
    flops: FlopCounter | None = None,
    timer: PhaseTimer | None = None,
    source_kernel: Kernel | None = None,
    target_kernel: Kernel | None = None,
    direct_kernel: Kernel | None = None,
    sanitize: bool = False,
) -> np.ndarray:
    """Level-batched KIFMM evaluation over a precomputed execution plan.

    Organised around the plan's flat index arrays: per-level stacked
    GEMMs for M2M/L2L and the check-to-equivalent inversions,
    offset-class-grouped batched M2L, and per-target-box concatenated
    near-field blocks.  Requires translation invariant kernels (all
    constant-coefficient elliptic kernels are; see
    :func:`resolve_kernels`).

    Stacked density blocks (see :func:`coerce_density`) ride the same
    plan in one pass: the box-major work arrays gain a *leading*
    ``nrhs`` axis, and every stage hoists its expensive shared factor —
    kernel-matrix assembly (S2M/U/W/X/L2T), the translation operators,
    the M2L mixing-tensor slab copies, the DFT operators — out of a
    per-column inner loop whose gathers/GEMMs/scatters run with exactly
    the single-RHS shapes.  Column ``r`` of a block apply is therefore
    *bit-identical* to the single-RHS apply of column ``r`` (same BLAS
    call shapes, same accumulation order — even through the round-off
    amplifying ``uc2ue``/``dc2de`` inversion chain), while the per-apply
    setup cost is paid once per block.

    ``sanitize`` (or ``REPRO_SANITIZE=1``) enables the runtime
    sanitizers of :mod:`repro.analysis.sanitize`: BufferPool lifecycle
    with NaN poisoning of released scratch, finite checks at every
    phase boundary (naming the phase and box range that first went
    non-finite), GEMM aliasing guards, and a pool-escape check on the
    returned potential.

    Parameters
    ----------
    tree, plan:
        The computation tree and its execution plan.
    kernel, cache:
        The *translation* kernel (builds and moves equivalent densities)
        and its operator cache (must share ``tree.root_side``).
    density:
        ``(ns, source_kernel.source_dof)`` or flat source densities in
        *original* (unsorted) point order, or a stacked block (above).
    m2l_mode:
        ``"fft"`` (default), ``"dense"``, ``"rsvd"``, ``"auto"`` — or an
        already-resolved :class:`~repro.core.m2lschedule.M2LSchedule`
        (strings resolve against the plan's gated V statistics).
    fft_m2l:
        Optional pre-built :class:`FFTM2L` (reused across evaluations).
    flops, timer:
        Optional instrumentation sinks.
    source_kernel:
        Kernel mapping the user's densities to check potentials (S2M and
        X-list evaluations); enables dipole/double-layer sources.  Must
        produce the translation kernel's potential type
        (``target_dof`` equal to ``kernel.target_dof``).  Defaults to
        the translation kernel.
    target_kernel:
        Kernel mapping single-layer densities of the translation kernel
        to the user's target quantity (L2T and W-list evaluations);
        enables gradient/force output.  Must consume the translation
        kernel's densities (``source_dof`` equal to
        ``kernel.source_dof``).  Defaults to the translation kernel.
    direct_kernel:
        Kernel for the near-field U-list (user density -> user target).
        Inferred when at most one of source/target kernel is custom;
        required when both are.

    Returns
    -------
    ``(nt, target_kernel.target_dof)`` values in original target order
    (trailing ``nrhs`` axis appended for stacked blocks).
    """
    if isinstance(m2l_mode, M2LSchedule):
        sched = m2l_mode
    else:
        sched = resolve_m2l_schedule(
            m2l_mode, "float64",
            stats=v_stats_from_plan(plan), cache=cache, kernel=kernel,
        )
    src_k, trg_k, dir_k = resolve_kernels(
        kernel, source_kernel, target_kernel, direct_kernel
    )
    flops = flops if flops is not None else FlopCounter()
    timer = timer if timer is not None else PhaseTimer()
    md, qd = kernel.source_dof, kernel.target_dof
    sdof, out_dof = src_k.source_dof, trg_k.target_dof
    ns, nt = tree.sources.shape[0], tree.targets.shape[0]
    phi3, nrhs, single = coerce_density(density, ns, sdof)
    # RHS-major sorted densities: phi_sorted[r] is a contiguous
    # (ns, sdof) array, shaped exactly like a single-RHS apply's input.
    phi_sorted = np.ascontiguousarray(
        phi3.transpose(2, 0, 1)[:, tree.src_perm]
    )
    n_surf = cache.n_surf
    nb = plan.nboxes
    pool = plan.buffers
    zero3 = np.zeros(3)
    san = sanitize or _san.enabled()
    pool.sanitize = san
    if san:
        _san.check_finite(phi3, "input", "density", rows_are="points")

    # RHS-major work arrays: ue[r] / dc[r] / de[r] are contiguous
    # (nbox, dof) views.  Every stage below assembles its shared factor
    # once and loops the right-hand sides over 2-D products with the
    # single-RHS shapes, so column r of a block apply is bit-identical
    # to the single-RHS apply of column r (this matters: the
    # uc2ue/dc2de inversions amplify round-off differences by ~1e6, so
    # merely "equivalent" batched arithmetic would not stay within the
    # 1e-12 column-parity budget).
    ue = pool.zeros("ue", (nrhs, nb, n_surf * md))
    with timer.phase("up"):
        for ul in plan.up_levels:
            check = pool.zeros("up_check", (nrhs, ul.boxes.size, n_surf * qd))
            if ul.s2m_rows.size:
                chk_pts = cache.up_check_points(zero3, ul.level)
                phi_cat = phi_sorted[:, ul.s2m_src_pos].reshape(nrhs, -1)
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
                if san:
                    # Fancy-indexed operands materialise copies, so the
                    # aliasing hazard is between the backing stacks.
                    _san.guard_gemm(check, ue, M,
                                    site=f"m2m level {ul.level}")
                MT = M.T
                for r in range(nrhs):
                    check[r][rows] += ue[r][kids] @ MT
                flops.add("up", kids.size * nrhs * _matvec_flops(M.shape))
            U = cache.uc2ue(ul.level)
            if san:
                _san.guard_gemm(ue, check, U,
                                site=f"uc2ue level {ul.level}")
            UT = U.T
            for r in range(nrhs):
                ue[r][ul.boxes] = check[r] @ UT
            flops.add("up", ul.boxes.size * nrhs * _matvec_flops(U.shape))
            pool.release("up_check")
    if san:
        _san.check_finite(ue.transpose(1, 0, 2), "up",
                          "upward equivalent densities")

    # ---------------- V lists (all levels, before the level sweep) -----
    dc = pool.zeros("dc", (nrhs, nb, n_surf * qd))
    de = pool.zeros("de", (nrhs, nb, n_surf * md))
    pot_sorted = pool.zeros("pot", (nrhs, nt, out_dof))

    fft = None
    if sched.needs_fft:
        fft = fft_m2l if fft_m2l is not None else FFTM2L(cache)
    with timer.phase("down_v"):
        for vl in plan.v_levels:
            backend = sched.backend(vl.level)
            if backend == "fft":
                nfreq = fft.m * fft.m * (fft.m // 2 + 1)
                nsb, ntb = vl.src_boxes.size, vl.trg_boxes.size
                if vl.po_groups:
                    # Parent-pair-blocked Hadamard: an order of magnitude
                    # less DRAM traffic than the class-major stage on
                    # pair-rich deep trees.  Its spectra live
                    # frequency-leading so the forward GEMM-DFTs write,
                    # the Hadamard gathers/scatters, and the inverse
                    # GEMM-DFTs read with no transpose passes.
                    phi_ext = pool.empty(
                        "v_phi_ext", (nrhs, nfreq, nsb + 1, md),
                        np.complex128,
                    )
                    for r in range(nrhs):
                        fft.forward_rows_t(
                            ue[r][vl.src_boxes], phi_ext[r, :, :nsb]
                        )
                    acc_ext = pool.zeros(
                        "v_acc_ext", (nrhs, nfreq, ntb + 1, qd),
                        np.complex128,
                    )
                    fft.hadamard_blocked(
                        vl.level, vl.po_groups, phi_ext, acc_ext, pool
                    )
                    for r in range(nrhs):
                        dc[r][vl.trg_boxes] += fft.inverse_rows_t(
                            acc_ext[r, :, :ntb]
                        )
                else:
                    phi_ext = pool.empty(
                        "v_phi_ext", (nrhs, nsb, md, nfreq), np.complex128
                    )
                    for r in range(nrhs):
                        fft.forward_rows(ue[r][vl.src_boxes], phi_ext[r])
                    acc = pool.zeros(
                        "v_acc", (nrhs, ntb, qd, nfreq), np.complex128
                    )
                    for offset, src_pos, trg_pos in vl.classes:
                        tensor = fft.kernel_tensor_hat(vl.level, offset)
                        for r in range(nrhs):
                            fft.accumulate_many(
                                acc[r], tensor,
                                phi_ext[r][src_pos], trg_pos,
                            )
                    for r in range(nrhs):
                        dc[r][vl.trg_boxes] += fft.inverse_rows(acc[r])
                flops.add("down_v", nsb * nrhs * fft.flops_per_fft(md))
                flops.add("down_v", vl.npairs * nrhs * fft.flops_per_pair())
                flops.add("down_v", ntb * nrhs * fft.flops_per_fft(qd))
            elif backend == "dense":
                for offset, src_pos, trg_pos in vl.classes:
                    T = cache.m2l_check(vl.level, offset)
                    if san:
                        _san.guard_gemm(dc, ue, T,
                                        site=f"m2l level {vl.level}")
                    TT = T.T
                    sb = vl.src_boxes[src_pos]
                    tb = vl.trg_boxes[trg_pos]
                    for r in range(nrhs):
                        dc[r][tb] += ue[r][sb] @ TT
                    flops.add(
                        "down_v",
                        src_pos.size * nrhs * _matvec_flops(T.shape),
                    )
            else:
                # rsvd: each offset class applies as two stacked BLAS-3
                # GEMMs through the compressed factors.  Mixed precision
                # narrows the source block to the factor dtype; the +=
                # into the float64 check buffers upcasts, keeping the
                # accumulation double.
                for offset, src_pos, trg_pos in vl.classes:
                    uf, vf = cache.m2l_rsvd(vl.level, offset, sched.dtype)
                    if san:
                        _san.guard_gemm(dc, ue, uf,
                                        site=f"m2l-rsvd level {vl.level}")
                    ufT = uf.T
                    vfT = vf.T
                    sb = vl.src_boxes[src_pos]
                    tb = vl.trg_boxes[trg_pos]
                    for r in range(nrhs):
                        src = ue[r][sb]
                        if sched.dtype == "float32":
                            src = src.astype(np.float32)  # lint: allow(dtype-width)
                        dc[r][tb] += (src @ vfT) @ ufT
                    flops.add(
                        "down_v",
                        src_pos.size * nrhs
                        * _rsvd_pair_flops(vf.shape[0], n_surf, md, qd),
                    )
    if san:
        # The V scratch is dead until the next apply: poison it so a
        # stale read surfaces in the finite checks below.
        for scratch in ("v_phi_ext", "v_acc_ext", "v_acc", "v_r"):
            pool.release(scratch)
        _san.check_finite(dc.transpose(1, 0, 2), "down_v",
                          "downward check potentials")

    # ---------------- downward sweep ----------------
    for dl in plan.down_levels:
        with timer.phase("eval"):
            for octant, kids, parents in dl.l2l_groups:
                L = cache.l2l_check(dl.level, octant)
                if san:
                    _san.guard_gemm(dc, de, L,
                                    site=f"l2l level {dl.level}")
                LT = L.T
                for r in range(nrhs):
                    dc[r][kids] += de[r][parents] @ LT
                flops.add("eval", kids.size * nrhs * _matvec_flops(L.shape))

        if dl.x_boxes.size:
            with timer.phase("down_x"):
                chk_pts = cache.down_check_points(zero3, dl.level)
                for i, bi in enumerate(dl.x_boxes):
                    p0, p1 = int(dl.x_seg[i]), int(dl.x_seg[i + 1])
                    pos = dl.x_src_pos[p0:p1]
                    K = src_k.matrix_local(
                        chk_pts, plan.sources_sorted[pos] - plan.centers[bi]
                    )
                    for r in range(nrhs):
                        dc[r, bi] += K @ phi_sorted[r, pos].reshape(-1)
                flops.add_pairs(
                    "down_x", n_surf * int(dl.x_seg[-1]) * nrhs,
                    src_k.flops_per_pair,
                )

        with timer.phase("eval"):
            if dl.dc_boxes.size:
                D = cache.dc2de(dl.level)
                if san:
                    _san.guard_gemm(de, dc, D,
                                    site=f"dc2de level {dl.level}")
                DT = D.T
                for r in range(nrhs):
                    de[r][dl.dc_boxes] = dc[r][dl.dc_boxes] @ DT
                flops.add(
                    "eval", dl.dc_boxes.size * nrhs * _matvec_flops(D.shape)
                )
            if dl.l2t_boxes.size:
                eq_pts = cache.down_equiv_points(zero3, dl.level)
                # Box row of each L2T point (the repeat is equivalent to
                # np.repeat over the leaf segments, but gathers only the
                # chunk in flight for each right-hand side).
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
                        pot_sorted[r][tp] += np.einsum(
                            "tqm,tm->tq", K3, de[r][boxes]
                        )
                flops.add_pairs(
                    "eval", npts * n_surf * nrhs, trg_k.flops_per_pair
                )

    if san:
        _san.check_finite(de.transpose(1, 0, 2), "eval",
                          "downward equivalent densities")

    # ---------------- near field: U then W, per target leaf -----------
    with timer.phase("down_u"):
        u_pairs = 0
        for i, bi in enumerate(plan.u_boxes):
            t0, t1 = int(plan.u_trg_start[i]), int(plan.u_trg_stop[i])
            s0, s1 = int(plan.u_seg[i]), int(plan.u_seg[i + 1])
            pos = plan.u_src_pos[s0:s1]
            ctr = plan.centers[bi]
            trg_pts = plan.targets_sorted[t0:t1] - ctr
            ntr = t1 - t0
            step = max(1, MAX_BLOCK_ENTRIES // max(1, ntr * out_dof * sdof))
            for c0 in range(0, pos.size, step):
                c1 = min(pos.size, c0 + step)
                K = dir_k.matrix_local(
                    trg_pts, plan.sources_sorted[pos[c0:c1]] - ctr
                )
                # Direct to potentials (no ill-conditioned inverse
                # downstream), so the RHS axis folds into one GEMM that
                # streams K once; the ~1e-16 GEMM-vs-GEMV rounding gap
                # stays far below the 1e-12 column-parity bound.
                xs = phi_sorted[:, pos[c0:c1]].reshape(nrhs, -1)
                y = K @ xs.T
                pot_sorted[:, t0:t1] += y.reshape(
                    ntr, out_dof, nrhs
                ).transpose(2, 0, 1)
            u_pairs += ntr * pos.size
        flops.add_pairs("down_u", u_pairs * nrhs, dir_k.flops_per_pair)

    if plan.w_boxes.size:
        with timer.phase("down_w"):
            sgrid = surface_grid(cache.p)
            hw = cache.root_side / np.power(2.0, np.arange(plan.depth + 1)) / 2.0
            w_pairs = 0
            for i, bi in enumerate(plan.w_boxes):
                t0, t1 = int(plan.w_trg_start[i]), int(plan.w_trg_stop[i])
                s0, s1 = int(plan.w_seg[i]), int(plan.w_seg[i + 1])
                partners = plan.w_idx[s0:s1]
                ctr = plan.centers[bi]
                rad = cache.inner * hw[plan.levels[partners]]
                eq_pts = (
                    (plan.centers[partners] - ctr)[:, None, :]
                    + rad[:, None, None] * sgrid[None, :, :]
                ).reshape(-1, 3)
                K = trg_k.matrix_local(plan.targets_sorted[t0:t1] - ctr, eq_pts)
                # RHS-folded like the U list: W contributions go straight
                # to target potentials, so one GEMM serves every column.
                xs = ue[:, partners].reshape(nrhs, -1)
                y = K @ xs.T
                pot_sorted[:, t0:t1] += y.reshape(
                    t1 - t0, out_dof, nrhs
                ).transpose(2, 0, 1)
                w_pairs += (t1 - t0) * partners.size
            flops.add_pairs(
                "down_w", n_surf * w_pairs * nrhs, trg_k.flops_per_pair
            )

    if san:
        _san.check_finite(pot_sorted.transpose(1, 0, 2),
                          "down_w" if plan.w_boxes.size else
                          "down_u", "potentials", rows_are="targets")
    if single:
        potential = np.empty((nt, out_dof))
        potential[tree.trg_perm] = pot_sorted[0]
    else:
        potential = np.empty((nt, out_dof, nrhs))
        potential[tree.trg_perm] = pot_sorted.transpose(1, 2, 0)
    if san:
        _san.check_escape(potential, pool, "evaluate_planned")
    return potential
