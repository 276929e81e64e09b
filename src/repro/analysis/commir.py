"""Static communication IR of the parallel exchange protocol.

The dynamic analyzers (:mod:`repro.analysis.commcheck`,
:mod:`repro.analysis.racecheck`) certify *executions*: they need a
:class:`~repro.parallel.simmpi.SimComm` run, so they stop where the
simulated runtime stops — a few dozen ranks.  The protocol claims of the
paper (and the ROADMAP's 3000-CPU projection) live far beyond that.
This module closes the gap the way :mod:`repro.analysis.planir` does for
the compute plan: it extracts the **complete message schedule** — every
point-to-point send/receive with ``(src, dst, tag)``, every
exchange-tree and segmented-broadcast edge, and the post/relay/wait
*program order* of every rank — as a static ``CommIR``, directly from
the plan inputs (partition, contributor matrix, owner map, LET usage,
coarse-split schedule, ``comm="tree"|"flat"``), **without executing an
apply**, for arbitrary rank counts including P=4096.

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
- the gather/scatter edges of both tree shapes come from the same
  :func:`~repro.parallel.simmpi.tree_order` layout and
  :func:`~repro.parallel.exchange.exchange_edges` the runtime uses, so
  one emitter serves ``comm="tree"`` and ``comm="flat"``; every tag is
  minted through the same
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

from repro.core.fmm import EXCHANGE_SCHEMES, FMMOptions
from repro.core.m2lschedule import coarse_split_levels
from repro.octree.lists import InteractionLists, build_lists
from repro.octree.tree import Octree, build_tree
from repro.parallel.exchange import exchange_edges, exchange_tag_families
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


def _emit_exchange(
    pb: _Programs, inputs: StaticPlanInputs, kinds, scheme: str
) -> None:
    """One run of the owner exchange over ``kinds``, mirroring
    :class:`~repro.parallel.exchange.OwnerExchange` program order —
    ``("geo",)`` at setup, ``("phi", "pue")`` per apply.

    Every box's gather tree (contributors ∪ owner) and scatter tree
    (users ∪ owner) take their edges from
    :func:`~repro.parallel.exchange.exchange_edges`, so one emitter
    serves both tree shapes.  ``start`` posts per kind (gather loop,
    with the leaves' sends, then scatter loop); ``relay`` walks the
    interior and root gather nodes in the shared (kind, box) order —
    each waits *its own* children, then forwards the partial
    (interior) or feeds the scatter tree (root); ``finish`` walks the
    non-root scatter nodes in posted order.
    """
    trees = []
    for kind in kinds:
        gfam, sfam = exchange_tag_families(kind)
        trees.append((gfam, sfam, [
            (b, tree_order(contribs, o), tree_order(users, o))
            for b, o, contribs, users in _box_roles(inputs, kind)
        ]))

    # A tree's edge positions depend only on its participant count:
    # memoized per count, since a P=4096 sweep visits millions of nodes.
    shapes: dict[int, list[tuple[int | None, list[int]]]] = {}

    def shape(order):
        edges = shapes.get(len(order))
        if edges is None:
            edges = shapes[len(order)] = [
                exchange_edges(order, pos, scheme)
                for pos in range(len(order))
            ]
        return edges

    for gfam, sfam, boxes in trees:
        for b, order_g, _ in boxes:
            for m, (parent, children) in zip(order_g, shape(order_g)):
                for c in children:
                    pb.post(m, order_g[c], gfam, (b,))
                if parent is not None and not children:
                    pb.send(m, order_g[parent], gfam, (b,), note="inject")
        for b, _, order_s in boxes:
            for m, (parent, _) in zip(order_s, shape(order_s)):
                if parent is not None:
                    pb.post(m, order_s[parent], sfam, (b,))
    for gfam, sfam, boxes in trees:
        for b, order_g, order_s in boxes:
            for m, (parent, children) in zip(order_g, shape(order_g)):
                if parent is not None and not children:
                    continue
                for c in children:
                    pb.complete(m, order_g[c], gfam, (b,))
                if parent is not None:
                    pb.send(m, order_g[parent], gfam, (b,), note="relay")
                    continue
                for c in shape(order_s)[0][1]:
                    pb.send(m, order_s[c], sfam, (b,), note="scatter")
    for gfam, sfam, boxes in trees:
        for b, _, order_s in boxes:
            for m, (parent, children) in zip(order_s, shape(order_s)):
                if parent is None:
                    continue
                pb.complete(m, order_s[parent], sfam, (b,))
                for c in children:
                    pb.send(m, order_s[c], sfam, (b,), note="scatter")


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
    if scheme not in EXCHANGE_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    pb = _Programs(inputs.nranks)
    with gc_paused():
        if include_setup:
            _emit_exchange(pb, inputs, ("geo",), scheme)
        for _ in range(napplies):
            _emit_exchange(pb, inputs, ("phi", "pue"), scheme)
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
