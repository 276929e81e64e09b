"""Static communication IR of the parallel exchange protocol.

The dynamic analyzers (:mod:`repro.analysis.commcheck`,
:mod:`repro.analysis.racecheck`) certify *executions*: they need a
:class:`~repro.parallel.simmpi.SimComm` run, so they stop where the
simulated runtime stops — a few dozen ranks.  The protocol claims of the
paper (and the ROADMAP's 3000-CPU projection) live far beyond that.
This module closes the gap the way :mod:`repro.analysis.planir` does for
the compute plan: it extracts the **complete message schedule** — every
point-to-point send/receive with ``(src, dst, tag)``, every segmented
tree-reduction/broadcast edge, and the post/relay/wait *program order*
of every rank — as a static ``CommIR``, directly from the plan inputs
(partition, contributor matrix, owner map, LET usage, coarse-split
schedule, ``comm="tree"|"flat"``), **without executing an apply**, for
arbitrary rank counts including P=4096.

The extraction is exact, not a model, because every quantity the
runtime schedule depends on is a pure function of the replicated
inputs:

- the per-rank trees share the global topology and root cube
  (``repro/parallel/ptree.py``), so one sequential
  :func:`~repro.octree.tree.build_tree` over all points reproduces every
  box boundary;
- :func:`~repro.parallel.owners.static_contributors` mirrors the
  ``gather_contributors`` Allgather offline, and
  :func:`~repro.parallel.owners.assign_owners` is already pure;
- the LET usage masks replicate :func:`~repro.parallel.let.classify_let`
  (vectorised across all ranks at once);
- the binomial gather/scatter edges come from the same
  :func:`~repro.parallel.simmpi.tree_order` /
  :func:`~repro.parallel.simmpi.tree_children` helpers the runtime uses,
  and every tag is minted through the same
  :func:`~repro.parallel.simmpi.mk_tag` registry — runtime and verifier
  cannot disagree about the vocabulary;
- the coarse-split broadcast schedule is shared verbatim via
  :func:`~repro.parallel.pfmm.v_split_bcast_schedule`.

Each rank's ops appear in its exact program order (the per-rank code is
sequential and waits requests in posted order, so that order is unique),
which is what lets :mod:`repro.analysis.commcheck_static` check
deadlock-freedom and :func:`~repro.analysis.commcheck_static.check_conformance`
require every dynamic trace to be a linearization of this IR.

The checks over the IR live in :mod:`repro.analysis.commcheck_static`;
the exhaustive schedule-space exploration in
:mod:`repro.analysis.dpor`.  CLI: ``python -m repro commir``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.fmm import FMMOptions
from repro.core.m2lschedule import coarse_split_levels
from repro.octree.lists import InteractionLists, build_lists
from repro.octree.tree import Octree, build_tree
from repro.parallel.owners import assign_owners, static_contributors
from repro.parallel.partition import partition_points
from repro.parallel.pfmm import _global_root, v_split_bcast_schedule
from repro.parallel.simmpi import (
    TAG_FAMILIES,
    mk_tag,
    tree_children,
    tree_order,
    tree_parent,
)

#: Tag families a planned parallel run exchanges point-to-point: the
#: setup geometry exchange, the per-apply density/equivalent-density
#: exchange, and the coarse-split broadcast.  Used by the conformance
#: check to filter dynamic traces down to the protocol under proof.
PROTOCOL_FAMILIES = (
    "geo", "geog", "phi", "phig", "pue", "pueg", "vsp",
)


@contextmanager
def gc_paused():
    """Pause generational GC around bulk IR work.

    A P=4096 IR is millions of acyclic tuples and slotted dataclasses;
    the collector's periodic full-population scans during extraction
    and certification dominate wall time (2x end to end) while never
    freeing anything.  Pausing — not just tuning thresholds — keeps the
    <60 s certification budget at P=4096.
    """
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()

#: Exchange kinds with owner-centric gather/scatter roles, in protocol
#: order, with their (gather family, scatter family) tag vocabulary.
EXCHANGE_KINDS = (
    ("geo", "geo", "geog"),
    ("phi", "phi", "phig"),
    ("pue", "pue", "pueg"),
)


@dataclass(slots=True)
class CommOp:
    """One rank-local communication operation of the static schedule.

    ``kind`` is ``"send"`` (buffered, nonblocking), ``"post"`` (receive
    posted — ``irecv`` or the post half of a blocking ``recv``) or
    ``"complete"`` (the wait that consumes the message — blocking).
    ``group`` is the tag family the protocol *phase* owns; a well-formed
    op has ``tag[0] == group`` (the ``tags`` check enforces it).
    ``ids`` are the tag discriminators (box, or ``(level, box)`` for the
    coarse-split broadcast); ``note`` records the payload role of a send
    (``"inject"`` own piece, ``"relay"`` partial fold forward,
    ``"scatter"`` combined data downward) for the conservation
    interpretation and the seeded-defect selectors.
    """

    kind: str
    peer: int
    tag: tuple
    group: str
    ids: tuple
    note: str = ""


@dataclass
class StaticPlanInputs:
    """Replicated plan inputs shared by every per-rank setup.

    Everything :func:`extract_comm_ir` needs, computed once per
    ``(points, nranks, tree options)`` — the communication schedule does
    not depend on the kernel, the right-hand-side width or the overlap
    flag, so one input set serves the whole configuration sweep.
    """

    nranks: int
    tree: Octree
    lists: InteractionLists
    parts: list[np.ndarray]
    contrib_src: np.ndarray  # (nranks, nboxes) bool
    contrib_trg: np.ndarray
    owner: np.ndarray  # (nboxes,) int
    users_src: np.ndarray  # (nranks, nboxes) bool, gated by global nsrc
    users_equiv: np.ndarray
    gsrc: np.ndarray  # (nboxes,) global per-box source counts
    src_boxes: np.ndarray  # boxes whose source data circulates
    ue_boxes: np.ndarray  # boxes whose equivalent densities circulate
    #: Per split level: the ``(box, root, participants)`` broadcast
    #: schedule of :func:`~repro.parallel.pfmm.v_split_bcast_schedule`.
    vsp_levels: list[tuple[int, list[tuple[int, int, tuple[int, ...]]]]]


@dataclass
class CommIR:
    """The complete static message schedule of one configuration.

    ``programs[r]`` is rank ``r``'s ops in exact program order.
    ``roles[kind][ids]`` declares ``(owner, contributors, users)`` per
    exchanged box — the ground truth the conservation check interprets
    the message edges against.  ``meta`` carries the configuration and
    summary counts.
    """

    nranks: int
    programs: list[list[CommOp]]
    roles: dict[str, dict[tuple, tuple[int, frozenset, frozenset]]]
    meta: dict = field(default_factory=dict)

    def nops(self) -> int:
        return sum(len(p) for p in self.programs)

    def nmessages(self) -> int:
        return sum(
            1 for p in self.programs for op in p if op.kind == "send"
        )

    def summary(self) -> str:
        m = self.meta
        return (
            f"commir: scheme={m.get('scheme')} P={self.nranks} "
            f"nboxes={m.get('nboxes')} — {self.nmessages()} messages / "
            f"{self.nops()} ops"
        )


def _vectorized_users(
    tree: Octree,
    lists: InteractionLists,
    contrib_trg: np.ndarray,
    gsrc: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """All ranks' gated LET usage matrices in one pass.

    Replicates :func:`~repro.parallel.let.classify_let` (V/X gate on
    target activity, W/U additionally on leafness) followed by the
    ``rank_setup`` global-source gating, but iterates *target boxes*
    instead of ranks: for every list entry ``t -> s`` the users column
    ``s`` inherits the activity column ``t`` across all ranks at once,
    so the cost is independent of the rank count (P=4096 included).
    """
    nb = tree.nboxes
    nranks = contrib_trg.shape[0]
    active = contrib_trg
    leaf = np.fromiter((b.is_leaf for b in tree.boxes), bool, count=nb)
    active_leaf = active & leaf[None, :]
    users_equiv = np.zeros((nranks, nb), dtype=bool)
    users_src = np.zeros((nranks, nb), dtype=bool)
    for which, out, act in (
        ("V", users_equiv, active),
        ("X", users_src, active),
        ("W", users_equiv, active_leaf),
        ("U", users_src, active_leaf),
    ):
        ptr, idx = lists.flat(which)
        for t in range(nb):
            cols = idx[ptr[t]:ptr[t + 1]]
            if cols.size and act[:, t].any():
                out[:, cols] |= act[:, t][:, None]
    gate = (gsrc > 0)[None, :]
    return users_equiv & gate, users_src & gate


def static_plan_inputs(
    points: np.ndarray,
    nranks: int,
    options: FMMOptions | None = None,
) -> StaticPlanInputs:
    """Derive the replicated plan inputs of a planned parallel run.

    Mirrors the input side of :func:`~repro.parallel.pfmm.rank_setup`
    without a single collective: one global tree with the agreed root
    cube, the offline contributor matrices, the pure owner assignment,
    the vectorised LET usage, and the coarse-split broadcast schedule.
    """
    opts = options or FMMOptions()
    points = np.asarray(points, dtype=np.float64)
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if points.shape[0] == 0:
        raise ValueError("cannot extract a schedule for zero points")
    corner, side = _global_root(points)
    parts = partition_points(points, nranks)
    tree = build_tree(
        points,
        max_points=opts.max_points,
        max_depth=opts.max_depth,
        root=(corner, side),
    )
    lists = build_lists(tree)
    contrib_src, contrib_trg = static_contributors(tree, parts)
    owner = assign_owners(contrib_src | contrib_trg)
    gsrc = np.fromiter(
        (b.nsrc for b in tree.boxes), np.int64, count=tree.nboxes
    )
    users_equiv, users_src = _vectorized_users(
        tree, lists, contrib_trg, gsrc
    )
    src_boxes = np.nonzero(users_src.any(axis=0))[0]
    ue_boxes = np.nonzero(users_equiv.any(axis=0))[0]
    split_levels = coarse_split_levels(
        [len(tree.levels[lvl]) for lvl in range(tree.depth + 1)], nranks
    )
    vsp_levels = []
    for lvl in range(2, tree.depth + 1):
        if lvl not in split_levels:
            continue
        lvl_boxes = np.asarray(tree.levels[lvl], dtype=np.int64)
        schedule = v_split_bcast_schedule(
            lvl_boxes, lists, contrib_trg, gsrc
        )
        if schedule:
            vsp_levels.append((lvl, schedule))
    return StaticPlanInputs(
        nranks=nranks,
        tree=tree,
        lists=lists,
        parts=parts,
        contrib_src=contrib_src,
        contrib_trg=contrib_trg,
        owner=owner,
        users_src=users_src,
        users_equiv=users_equiv,
        gsrc=gsrc,
        src_boxes=src_boxes,
        ue_boxes=ue_boxes,
        vsp_levels=vsp_levels,
    )


class _Programs:
    """Per-rank op accumulators with blocking-receive expansion.

    Tags for one ``(family, ids)`` pair are minted once through
    :func:`mk_tag` and cached — an IR at P=4096 holds millions of ops
    but only a few thousand distinct tags, and the registry validation
    per mint would dominate extraction time.
    """

    def __init__(self, nranks: int) -> None:
        self.ops: list[list[CommOp]] = [[] for _ in range(nranks)]
        self._tags: dict[tuple, tuple] = {}

    def _tag(self, fam, ids):
        tag = self._tags.get((fam, ids))
        if tag is None:
            tag = self._tags[(fam, ids)] = mk_tag(fam, *ids)
        return tag

    def send(self, rank, dst, fam, ids, note=""):
        self.ops[rank].append(
            CommOp("send", int(dst), self._tag(fam, ids), fam, ids, note)
        )

    def post(self, rank, src, fam, ids):
        self.ops[rank].append(
            CommOp("post", int(src), self._tag(fam, ids), fam, ids)
        )

    def complete(self, rank, src, fam, ids):
        self.ops[rank].append(
            CommOp("complete", int(src), self._tag(fam, ids), fam, ids)
        )

    def recv_blocking(self, rank, src, fam, ids):
        """A blocking ``recv`` is a post immediately followed by its
        completion — exactly the two trace events the runtime emits."""
        self.post(rank, src, fam, ids)
        self.complete(rank, src, fam, ids)


def _emit_tree_reduce(pb: _Programs, order, fam, ids) -> None:
    """Every member's ops of one segmented binomial reduction, in the
    member's program order (mirrors ``SimComm.tree_reduce``: a node
    receives children in ascending-mask order, then sends its
    accumulator to its parent and leaves the reduction)."""
    n = len(order)
    for pos, r in enumerate(order):
        mask = 1
        while mask < n:
            if pos & mask:
                pb.send(r, order[pos - mask], fam, ids,
                        note="inject" if mask == 1 else "relay")
                break
            child = pos + mask
            if child < n:
                pb.recv_blocking(r, order[child], fam, ids)
            mask <<= 1


def _emit_tree_bcast(pb: _Programs, order, fam, ids) -> None:
    """Every member's ops of one segmented binomial broadcast (mirrors
    ``SimComm.tree_bcast``: receive from the parent, then send to the
    children largest-subtree-first)."""
    n = len(order)
    for pos, r in enumerate(order):
        if pos != 0:
            pb.recv_blocking(r, order[tree_parent(pos)], fam, ids)
        for c in reversed(tree_children(pos, n)):
            pb.send(r, order[c], fam, ids, note="scatter")


def _box_roles(
    inputs: StaticPlanInputs, kind: str
) -> list[tuple[int, int, list[int], list[int]]]:
    """Per circulating box of one exchange kind:
    ``(box, owner, contributors, users)`` — contributors are always the
    source contributors (partial upward densities live where sources
    do), users are the kind's user matrix."""
    users = (
        inputs.users_equiv if kind == "pue" else inputs.users_src
    )
    boxes = inputs.ue_boxes if kind == "pue" else inputs.src_boxes
    out = []
    for b in boxes:
        b = int(b)
        out.append((
            b,
            int(inputs.owner[b]),
            np.nonzero(inputs.contrib_src[:, b])[0].tolist(),
            np.nonzero(users[:, b])[0].tolist(),
        ))
    return out


def _emit_geo(pb: _Programs, inputs: StaticPlanInputs, scheme: str) -> None:
    """Setup-time geometry exchange, mirroring
    :func:`~repro.parallel.exchange.exchange_source_geometry`."""
    roles = _box_roles(inputs, "geo")
    if scheme == "tree":
        for b, o, contribs, _ in roles:
            _emit_tree_reduce(pb, tree_order(contribs, o), "geo", (b,))
        for b, o, _, users in roles:
            _emit_tree_bcast(pb, tree_order(users, o), "geog", (b,))
        return
    # Flat: contributor pack loop, owner wait loop (receives in
    # tree-position order), owner scatter pack loop, user wait loop.
    for b, o, contribs, _ in roles:
        for r in contribs:
            if r != o:
                pb.send(r, o, "geo", (b,), note="inject")
    for b, o, contribs, _ in roles:
        for r in tree_order(contribs, o):
            if r != o and r in contribs:
                pb.recv_blocking(o, r, "geo", (b,))
    for b, o, _, users in roles:
        for r in users:
            if r != o:
                pb.send(o, r, "geog", (b,), note="scatter")
    for b, o, _, users in roles:
        for r in users:
            if r != o:
                pb.recv_blocking(r, o, "geog", (b,))


def _emit_apply_tree(pb: _Programs, inputs: StaticPlanInputs) -> None:
    """One apply's exchange under the tree scheme, mirroring
    :class:`~repro.parallel.exchange.ApplyExchange` program order:
    ``start`` posts per kind (gather loop then scatter loop), ``relay``
    walks the gather nodes per box in the shared (kind, box) order —
    each node waits *its own* children then immediately forwards —
    and ``finish`` walks the scatter nodes of both kinds in posted
    order.
    """
    kinds = [("phi", "phig"), ("pue", "pueg")]
    trees: dict[str, list] = {}
    for kind, _ in kinds:
        per_box = []
        for b, o, contribs, users in _box_roles(inputs, kind):
            order_g = tree_order(contribs, o)
            order_s = tree_order(users, o)
            per_box.append((b, o, order_g, order_s))
        trees[kind] = per_box

    def edges(order, pos):
        parent = None if pos == 0 else order[tree_parent(pos)]
        children = [order[c] for c in tree_children(pos, len(order))]
        return parent, children

    # start: per kind, gather posts + leaf sends, then scatter posts.
    for kind, sfam in kinds:
        for b, o, order_g, order_s in trees[kind]:
            for pos, m in enumerate(order_g):
                parent, children = edges(order_g, pos)
                for r in children:
                    pb.post(m, r, kind, (b,))
                if parent is not None and not children:
                    pb.send(m, parent, kind, (b,), note="inject")
        for b, o, order_g, order_s in trees[kind]:
            for pos, m in enumerate(order_s):
                if pos != 0:
                    pb.post(m, order_s[tree_parent(pos)], sfam, (b,))
    # relay: each interior/root gather node waits *its own* children,
    # folds, and immediately forwards the partial upward (interior) or
    # feeds the scatter tree (root) — phi nodes first then pue, each in
    # box order.  This per-node order is shared by every rank; waiting
    # all nodes' children before forwarding any partial deadlocks at
    # large P (see :meth:`ApplyExchange.relay`).
    for kind, sfam in kinds:
        for b, o, order_g, order_s in trees[kind]:
            for pos, m in enumerate(order_g):
                parent, children = edges(order_g, pos)
                if parent is not None and not children:
                    continue
                for r in children:
                    pb.complete(m, r, kind, (b,))
                if parent is not None:
                    pb.send(m, parent, kind, (b,), note="relay")
                else:
                    _p, s_children = edges(order_s, 0)
                    for r in s_children:
                        pb.send(m, r, sfam, (b,), note="scatter")
    # finish: non-root scatter nodes complete their parent's data and
    # forward it to their scatter children (posted order: phi then pue).
    for kind, sfam in kinds:
        for b, o, order_g, order_s in trees[kind]:
            for pos, m in enumerate(order_s):
                if pos == 0:
                    continue
                parent, children = edges(order_s, pos)
                pb.complete(m, parent, sfam, (b,))
                for r in children:
                    pb.send(m, r, sfam, (b,), note="scatter")


def _emit_apply_flat(pb: _Programs, inputs: StaticPlanInputs) -> None:
    """One apply's exchange under the flat scheme: contributors send to
    the owner, owners post from contributors and users post from
    owners (``start``), owners complete then scatter (``relay``), users
    complete (``finish``)."""
    kinds = [("phi", "phig"), ("pue", "pueg")]
    roles = {kind: _box_roles(inputs, kind) for kind, _ in kinds}
    for kind, sfam in kinds:
        for b, o, contribs, users in roles[kind]:
            for r in contribs:
                if r != o:
                    pb.send(r, o, kind, (b,), note="inject")
        for b, o, contribs, users in roles[kind]:
            for r in tree_order(contribs, o):
                if r != o:
                    pb.post(o, r, kind, (b,))
        for b, o, contribs, users in roles[kind]:
            for r in users:
                if r != o:
                    pb.post(r, o, sfam, (b,))
    for kind, sfam in kinds:
        for b, o, contribs, users in roles[kind]:
            for r in tree_order(contribs, o):
                if r != o:
                    pb.complete(o, r, kind, (b,))
            for r in tree_order(users, o):
                if r != o:
                    pb.send(o, r, sfam, (b,), note="scatter")
    for kind, sfam in kinds:
        for b, o, contribs, users in roles[kind]:
            for r in users:
                if r != o:
                    pb.complete(r, o, sfam, (b,))


def _emit_vsp(pb: _Programs, inputs: StaticPlanInputs) -> None:
    """Coarse-split broadcasts: every participant iterates the shared
    ascending ``(level, box)`` schedule (mirrors ``RankExchange.split_bcast``)."""
    for lvl, schedule in inputs.vsp_levels:
        for bx, root, parts in schedule:
            _emit_tree_bcast(
                pb, tree_order(parts, root), "vsp", (lvl, bx)
            )


def extract_comm_ir(
    inputs: StaticPlanInputs,
    *,
    scheme: str = "tree",
    overlap: bool = True,
    nrhs: int = 1,
    napplies: int = 1,
    include_setup: bool = True,
) -> CommIR:
    """The complete static message schedule of one configuration.

    ``overlap`` and ``nrhs`` are recorded in ``meta`` but do not change
    the schedule: the overlap flag only moves *compute* relative to the
    fixed post < relay < finish < v-split communication order, and the
    RHS block rides the same messages with wider rows.  ``napplies``
    repeats the per-apply exchange (channels then carry one message per
    apply, in FIFO order).
    """
    if scheme not in ("tree", "flat"):
        raise ValueError(f"unknown scheme {scheme!r}")
    pb = _Programs(inputs.nranks)
    with gc_paused():
        if include_setup:
            _emit_geo(pb, inputs, scheme)
        for _ in range(napplies):
            if scheme == "tree":
                _emit_apply_tree(pb, inputs)
            else:
                _emit_apply_flat(pb, inputs)
            _emit_vsp(pb, inputs)
    roles: dict[str, dict[tuple, tuple[int, frozenset, frozenset]]] = {}
    for kind, _gf, _sf in EXCHANGE_KINDS:
        roles[kind] = {
            (b,): (o, frozenset(contribs), frozenset(users))
            for b, o, contribs, users in _box_roles(inputs, kind)
        }
    roles["vsp"] = {
        (lvl, bx): (root, frozenset({root}), frozenset(parts))
        for lvl, schedule in inputs.vsp_levels
        for bx, root, parts in schedule
    }
    return CommIR(
        nranks=inputs.nranks,
        programs=pb.ops,
        roles=roles,
        meta={
            "scheme": scheme,
            "overlap": overlap,
            "nrhs": nrhs,
            "napplies": napplies,
            "include_setup": include_setup,
            "npoints": int(inputs.tree.sources.shape[0]),
            "nboxes": int(inputs.tree.nboxes),
            "nsrc_boxes": int(inputs.src_boxes.size),
            "nue_boxes": int(inputs.ue_boxes.size),
            "nvsp_levels": len(inputs.vsp_levels),
            "families": PROTOCOL_FAMILIES,
        },
    )


def family_phase(family: str) -> str:
    """Display phase of a tag family, from the runtime registry."""
    spec = TAG_FAMILIES.get(family)
    if spec is None or not spec.phases:
        return family
    return spec.phases[0]
