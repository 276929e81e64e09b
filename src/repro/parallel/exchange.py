"""The communication stage between the upward and downward passes.

Implements Algorithm 1 of the paper (gather/scatter of leaf source
positions and densities) and its equivalent-density variant ("the
procedure ... is similar to Algorithm 1 with two modifications: (1) we
iterate over all boxes in the LET instead of just the leaf boxes, and
(2) the owner of a box sums up the received upward equivalent densities
to obtain the global upward equivalent densities for that box").

One engine (:class:`OwnerExchange`) runs every owner exchange.  For
each circulating box the participants — the contributors (gather) or
the users (scatter), plus the owner — are laid out on tree positions by
:func:`~repro.parallel.simmpi.tree_order`, the owner at position 0, and
:func:`exchange_edges` gives every position its parent and children.
The gather folds pieces up that tree to the owner; the scatter sends
the combined data down the users' tree.  All sends are buffered and
every rank walks the boxes in the same ascending order, so the protocol
is deadlock-free for any tree shape.

The communication scheme (``FMMOptions.comm``) is only that shape:

``"tree"`` (default)
    The binomial tree of :func:`~repro.parallel.simmpi.tree_parent` /
    :func:`~repro.parallel.simmpi.tree_children`: each rank — the owner
    included — touches O(log P) messages per box.
``"flat"``
    A star rooted at the owner: the paper's literal Algorithm 1, where
    every contributor sends to the owner and the owner sends to every
    user.  The owner of a coarse box handles O(P) messages.

The two schemes are **bitwise identical**.  Every node folds its own
piece and its children's partial folds at their relative tree positions
with :func:`~repro.parallel.simmpi.combine_tree` (:func:`fold_subtree`).
For a binomial node that is the sequential fold of its subtree, for the
star root it is the fold of all pieces, and under both it reproduces
the association of :func:`combine_tree` over the whole layout.  Source
pieces concatenate in tree-position order (owner first, then the
remaining contributors in rotated ascending rank order).  Switching the
scheme changes the message pattern, never a floating-point result.

Three payload kinds run through the engine, for the persistent
parallel operator (:func:`repro.parallel.pfmm.rank_setup` /
:class:`~repro.parallel.pfmm.RankFMM`):

- ``geo`` — :func:`exchange_source_geometry` runs once at setup and
  circulates ghost source *positions*;
- ``phi`` and ``pue`` — :class:`ApplyExchange` runs the per-apply
  density / partial equivalent-density exchange, so the owner relay and
  the final ghost waits can be overlapped with owned-data computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.core.fmm import EXCHANGE_SCHEMES
from repro.core.plan import StageMeta, plan_stage
from repro.parallel.simmpi import (
    Request,
    SimComm,
    combine_tree,
    current_recorder,
    mk_tag,
    register_tag_family,
    tree_children,
    tree_order,
    tree_parent,
)
from repro.util.timing import PhaseTimer

# Tag families of the owner-centric box exchanges.  Each payload kind
# owns a gather family (contributor -> owner direction) and a scatter
# family (owner -> user direction, suffixed ``g``); each tag carries the
# box index as its single discriminator.  The static communication
# verifier introspects this registration via
# :func:`exchange_tag_families`, so runtime and verifier can never
# disagree about the tag vocabulary.
for _kind, _gather_phase, _scatter_phase in (
    ("geo", "geo_gather", "geo_scatter"),
    ("phi", "phi_gather", "phi_scatter"),
    ("pue", "pue_gather", "pue_scatter"),
):
    register_tag_family(_kind, fields=("box",), phases=(_gather_phase,))
    register_tag_family(
        _kind + "g", fields=("box",), phases=(_scatter_phase,)
    )


def exchange_tag_families(kind: str) -> tuple[str, str]:
    """The ``(gather, scatter)`` tag families of one exchange kind."""
    mk_tag(kind, 0), mk_tag(kind + "g", 0)  # validate registration
    return kind, kind + "g"


def exchange_edges(
    order: list[int], pos: int, scheme: str
) -> tuple[int | None, list[int]]:
    """``(parent, children)`` *positions* of ``pos`` in one box's
    exchange tree over ``order`` (the owner sits at position 0).

    ``"tree"`` gives the binomial edges, ``"flat"`` a star: the root's
    children are every other position, every other position's parent is
    the root.  Children come in ascending position order — the order a
    node receives (gather) and sends (scatter) them.  This is the only
    place the communication scheme is read.
    """
    if scheme == "tree":
        parent = None if pos == 0 else tree_parent(pos)
        return parent, tree_children(pos, len(order))
    if scheme == "flat":
        return (None, list(range(1, len(order)))) if pos == 0 else (0, [])
    raise ValueError(
        f"exchange scheme must be one of {EXCHANGE_SCHEMES}, got {scheme!r}"
    )


def fold_subtree(own, partials: list, slots: list[int], combine):
    """Fold one tree node's data: its own piece (``None`` if it has
    none) at relative position 0 and each child's partial fold at the
    child's position relative to the node (``slots``), with the
    association of :func:`~repro.parallel.simmpi.combine_tree`.

    A child's subtree fills the positions between its slot and the next
    one, so the result is the node's share of :func:`combine_tree` over
    the whole layout — for a binomial node and for the star root alike.
    """
    vals = [None] * (1 + max(slots, default=0))
    vals[0] = own
    for slot, part in zip(slots, partials):
        vals[slot] = part
    return combine_tree(vals, combine)


class ExchangeNode(NamedTuple):
    """This rank's node in one box's gather or scatter tree."""

    box: int
    #: Parent rank; ``None`` at the root (the box owner).
    parent: int | None
    #: Child ranks in ascending tree position.
    children: list[int]
    #: The children's tree positions relative to this node.
    slots: list[int]
    #: This rank contributes a piece (gather) or uses the data (scatter).
    local: bool


@plan_stage
@dataclass
class ExchangePlan:
    """One rank's role in the exchange of one payload kind.

    Precomputed at setup from the contributor/user matrices, the owner
    map and the scheme's tree shape (:func:`exchange_edges`); both node
    lists are in ascending box order, so message posting order — and
    therefore the reduction order — is schedule independent.
    """

    kind: str  # "geo" (positions), "phi" (densities), "pue" (partial ue)
    #: Gather-tree nodes this rank occupies (contributors ∪ owner).
    gather: list[ExchangeNode]
    #: Scatter-tree nodes this rank occupies (users ∪ owner).
    scatter: list[ExchangeNode]

    stage_meta = StageMeta(
        reads=("phi", "ue"), writes=("ue", "ext_phi"), dtype="float64"
    )


def build_exchange_plan(
    kind: str,
    me: int,
    boxes: np.ndarray,
    contrib_src: np.ndarray,
    users: np.ndarray,
    owner: np.ndarray,
    scheme: str = "tree",
) -> ExchangePlan:
    """This rank's gather and scatter nodes over the circulating
    ``boxes``."""
    gather: list[ExchangeNode] = []
    scatter: list[ExchangeNode] = []
    for b in boxes:
        b = int(b)
        o = int(owner[b])
        for nodes, members in ((gather, contrib_src), (scatter, users)):
            if me != o and not members[me, b]:
                continue
            order = tree_order(np.nonzero(members[:, b])[0], o)
            pos = order.index(me)
            parent, children = exchange_edges(order, pos, scheme)
            nodes.append(ExchangeNode(
                b,
                None if parent is None else order[parent],
                [order[c] for c in children],
                [c - pos for c in children],
                bool(members[me, b]),
            ))
    return ExchangePlan(kind, gather, scatter)


@dataclass
class Payload:
    """What one exchange kind moves and where it lands on this rank."""

    plan: ExchangePlan
    #: This rank's piece of a box it contributes to.
    piece: Callable[[int], np.ndarray]
    #: Pairwise fold: concatenation for positions and densities,
    #: summation for partial equivalent densities.
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    #: Place the combined data of a box this rank uses.
    store: Callable[[int, np.ndarray], None]
    #: Columns of the combined data of a box nobody contributes to.
    width: int


class OwnerExchange:
    """The owner gather/scatter of one or more payload kinds.

    ``start`` posts every receive up front and ships the pieces of
    gather *leaves* (buffered ``isend`` + posted ``irecv``, so the
    protocol cannot deadlock).  ``relay`` completes the gather side:
    every interior node folds its subtree and forwards the partial, and
    every owner finalizes the combined data, sends it to its scatter
    children and stores it locally.  ``finish`` completes the scatter
    side: non-root nodes receive, forward and store.  Between ``relay``
    and ``finish`` the receive queues fill while the caller computes on
    owned data — the communication/computation overlap window.
    """

    def __init__(
        self, comm: SimComm, payloads: list[Payload], timer: PhaseTimer
    ) -> None:
        self._comm = comm
        self._payloads = payloads
        self._timer = timer
        #: Race-detector hook: the per-rank recorder installed by
        #: ``run_spmd(race=...)``, or None on uninstrumented runs.
        self._rec = current_recorder()
        # Interior/root gather nodes with their children's requests,
        # non-root scatter nodes with their parent's request, and the
        # scatter roots by (kind, box).
        self._gnodes: list[tuple[Payload, ExchangeNode, list[Request]]] = []
        self._snodes: list[tuple[Payload, ExchangeNode, Request]] = []
        self._sroots: dict[tuple[str, int], ExchangeNode] = {}

    def start(self) -> "OwnerExchange":
        """Post every receive and ship every gather leaf's piece."""
        comm = self._comm
        with self._timer.phase("pack"):
            for pay in self._payloads:
                kind = pay.plan.kind
                gphase, sphase = f"{kind}_gather", f"{kind}_scatter"
                for node in pay.plan.gather:
                    reqs = [
                        comm.irecv(r, tag=mk_tag(kind, node.box),
                                   phase=gphase)
                        for r in node.children
                    ]
                    if node.parent is not None and not node.children:
                        comm.isend(
                            node.parent, pay.piece(node.box),
                            tag=mk_tag(kind, node.box), phase=gphase,
                        )
                    else:
                        self._gnodes.append((pay, node, reqs))
                for node in pay.plan.scatter:
                    if node.parent is None:
                        self._sroots[(kind, node.box)] = node
                    else:
                        req = comm.irecv(
                            node.parent, tag=mk_tag(kind + "g", node.box),
                            phase=sphase,
                        )
                        self._snodes.append((pay, node, req))
        return self

    def relay(self) -> None:
        """Complete the gathers, fold, and launch the scatters.

        Each node waits, folds and forwards *per node*, in the (kind,
        box) order every rank shares — never waiting all nodes' children
        before forwarding any partial.  Two ranks can each be an
        interior gather node in a box the *other* is a child of (first
        possible once binomial gather trees reach four participants);
        under wait-all-then-forward each rank's forward is
        program-ordered behind its wait for the other's forward — a
        deadlock cycle.  With the shared ascending order, a node's
        forward for box ``b`` waits only on ``b``'s own subtree and on
        boxes strictly earlier in the shared order, so every wait chain
        is well-founded.  The static verifier (``repro commir``) checks
        exactly this property at P=4096.
        """
        comm = self._comm
        rec = self._rec
        with self._timer.phase("wait"):
            for pay, node, reqs in self._gnodes:
                kind, b = pay.plan.kind, node.box
                partials = [r.wait() for r in reqs]
                if rec is not None:
                    # Partials arrive by reference: reading them is a
                    # cross-rank access on the sender's arrays, ordered
                    # by the gather message.
                    for part in partials:
                        rec.read(part, f"relay:piece box {b}")
                acc = fold_subtree(
                    pay.piece(b) if node.local else None,
                    partials, node.slots, pay.combine,
                )
                if node.parent is not None:
                    if rec is not None:
                        rec.write(acc, f"relay:partial box {b}")
                    comm.isend(node.parent, acc, tag=mk_tag(kind, b),
                               phase=f"{kind}_gather")
                    continue
                # Owner: the combined array is always freshly allocated
                # — a fold of one piece is that piece, which may be a
                # view of local data or a peer's buffer.
                if acc is None:
                    data = np.empty((0, pay.width))
                elif node.local + len(partials) == 1:
                    data = acc.copy()
                else:
                    data = acc
                if rec is not None:
                    rec.write(data, f"relay:combine box {b}")
                self._scatter(pay, self._sroots[(kind, b)], data)

    def finish(self) -> None:
        """Complete the scatters: receive, forward and store."""
        with self._timer.phase("wait"):
            for pay, node, req in self._snodes:
                data = req.wait()
                if self._rec is not None:
                    self._rec.read(data, f"finish:recv box {node.box}")
                self._scatter(pay, node, data)

    def _scatter(self, pay: Payload, node: ExchangeNode, data) -> None:
        """Send ``data`` to the node's scatter children, then store it
        if this rank uses the box."""
        kind = pay.plan.kind
        for r in node.children:
            self._comm.isend(r, data, tag=mk_tag(kind + "g", node.box),
                             phase=f"{kind}_scatter")
        if node.local:
            pay.store(node.box, data)


def exchange_source_geometry(
    comm: SimComm,
    boxes: np.ndarray,
    contrib_src: np.ndarray,
    users_src: np.ndarray,
    owner: np.ndarray,
    local_points: dict[int, np.ndarray],
    timer: PhaseTimer | None = None,
    scheme: str = "tree",
) -> dict[int, np.ndarray]:
    """Setup-time Algorithm 1 over source *positions* only.

    The persistent operator exchanges ghost geometry once: positions
    never change between applies, so each :class:`ApplyExchange` moves
    only densities.  Pieces concatenate in tree-position order under
    both schemes, and :class:`ApplyExchange` reassembles densities in
    the identical order, so the combined points and the combined
    densities stay row aligned across applies and across schemes.

    Returns ``{box: global_points}`` for every box this rank uses.
    """
    plan = build_exchange_plan(
        "geo", comm.rank, boxes, contrib_src, users_src, owner, scheme
    )
    result: dict[int, np.ndarray] = {}
    exch = OwnerExchange(
        comm,
        [Payload(plan, local_points.__getitem__,
                 lambda a, c: np.vstack([a, c]), result.__setitem__, 3)],
        timer if timer is not None else PhaseTimer(),
    ).start()
    exch.relay()
    exch.finish()
    return result


@dataclass
class GhostLayout:
    """Persistent layout of the per-apply exchange (one rank's view)."""

    phi: ExchangePlan  # combined source densities over ``uses_source`` boxes
    pue: ExchangePlan  # global upward equivalent densities over ``uses_equiv``
    ext_start: np.ndarray  # per-box rows into the combined source arrays
    ext_stop: np.ndarray


class ApplyExchange(OwnerExchange):
    """One apply's in-flight exchange of source densities (``phi``,
    concatenated) and partial upward equivalent densities (``pue``,
    summed — linearity of eq. 2.1/2.3)."""

    def __init__(
        self,
        comm: SimComm,
        layout: GhostLayout,
        phi_sorted: np.ndarray,
        src_start: np.ndarray,
        src_stop: np.ndarray,
        ue: np.ndarray,
        ext_phi: np.ndarray,
        timer: PhaseTimer,
    ) -> None:
        rec = current_recorder()

        def phi_piece(b: int) -> np.ndarray:
            # phi slices are never written during an apply: ship views.
            piece = phi_sorted[src_start[b]:src_stop[b]]
            if rec is not None:
                rec.read(piece, f"piece:phi box {b}")
            return piece

        def pue_piece(b: int) -> np.ndarray:
            # Copied: the simulated MPI passes object references, and
            # the store later overwrites ue[b] with the *global*
            # densities — an uncopied row view would let a slow
            # receiver observe the mutated value.
            if rec is not None:
                rec.read(ue[b], f"piece:pue box {b}")
            return ue[b].copy()

        def phi_store(b: int, data: np.ndarray) -> None:
            dst = ext_phi[layout.ext_start[b]:layout.ext_stop[b]]
            if rec is not None:
                rec.read(data, f"store:recv box {b}")
                rec.write(dst, f"store:ghost-phi box {b}")
            dst[...] = data

        def pue_store(b: int, data: np.ndarray) -> None:
            if rec is not None:
                rec.read(data, f"store:recv box {b}")
                rec.write(ue[b], f"store:global-ue box {b}")
            ue[b] = data

        width = phi_sorted.shape[1]
        super().__init__(comm, [
            Payload(layout.phi, phi_piece, lambda a, c: np.vstack([a, c]),
                    phi_store, width),
            Payload(layout.pue, pue_piece, lambda a, c: a + c,
                    pue_store, width),
        ], timer)
