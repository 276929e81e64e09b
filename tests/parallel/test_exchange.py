"""Algorithm 1 gather/scatter tests on synthetic data.

The two live exchanges of the persistent operator: the setup-time ghost
geometry exchange (:func:`exchange_source_geometry`) and the per-apply
reduction of partial upward equivalent densities (the ``pue`` half of
:class:`ApplyExchange`).  Every case runs under both communication
schemes.
"""

import numpy as np

from repro.parallel.exchange import (
    EXCHANGE_SCHEMES,
    ApplyExchange,
    GhostLayout,
    build_exchange_plan,
    exchange_source_geometry,
)
from repro.parallel.simmpi import run_spmd
from repro.util.timing import PhaseTimer


def reduce_equiv_densities(comm, contrib, users, owner, partial, scheme):
    """Sum partial densities at the owners and scatter them to the users.

    Drives the ``pue`` exchange of :class:`ApplyExchange` alone (the
    ``phi`` half circulates no boxes).  Returns ``{box: global_density}``
    for every box this rank uses.
    """
    me = comm.rank
    nboxes = partial.shape[0]
    boxes = np.arange(nboxes)
    empty = np.empty(0, dtype=np.int64)
    no_rows = np.zeros(nboxes, dtype=np.int64)
    layout = GhostLayout(
        phi=build_exchange_plan(
            "phi", me, empty, contrib, users, owner, scheme=scheme
        ),
        pue=build_exchange_plan(
            "pue", me, boxes, contrib, users, owner, scheme=scheme
        ),
        ext_start=no_rows,
        ext_stop=no_rows,
    )
    ue = partial.copy()
    exch = ApplyExchange(
        comm, layout, np.empty((0, 1)), no_rows, no_rows, ue,
        np.empty((0, 1)), PhaseTimer(),
    ).start()
    exch.relay()
    exch.finish()
    return {int(b): ue[b] for b in np.flatnonzero(users[me])}


def test_source_data_gather_scatter():
    """3 ranks, 2 boxes: contributions concatenate at the owner and
    reach every user."""
    for scheme in EXCHANGE_SCHEMES:
        _check_source_gather_scatter(scheme)


def _check_source_gather_scatter(scheme):
    nboxes = 2
    contrib = np.array(
        [[True, False], [True, True], [False, True]]
    )  # (ranks, boxes)
    users = np.array([[True, True], [False, True], [True, False]])
    owner = np.array([0, 2])
    boxes = np.arange(nboxes)

    def main(comm):
        me = comm.rank
        # rank-tagged payload so provenance is checkable
        local_points = {
            b: np.full((2, 3), 10.0 * me + b)
            for b in range(nboxes) if contrib[me, b]
        }
        return exchange_source_geometry(
            comm, boxes, contrib, users, owner, local_points, scheme=scheme
        )

    results = run_spmd(3, main)
    # every user of box 0 sees contributions from ranks {0, 1}
    for r in (0, 2):
        pts = results[r][0]
        assert pts.shape == (4, 3)
        assert set(np.unique(pts)) == {0.0, 10.0}
    # every user of box 1 sees contributions from ranks {1, 2}
    for r in (0, 1):
        assert set(np.unique(results[r][1])) == {11.0, 21.0}
    # non-users received nothing for that box
    assert 1 not in results[2]
    # every user sees the pieces in the same (owner-first) order
    assert np.array_equal(results[0][1], results[1][1])


def test_equiv_density_reduction():
    """Partial densities sum at the owner; users receive the total."""
    for scheme in EXCHANGE_SCHEMES:
        _check_equiv_reduction(scheme)


def _check_equiv_reduction(scheme):
    nboxes = 3
    contrib = np.array([[True, True, False], [True, False, True]])
    users = np.array([[True, False, True], [True, True, False]])
    owner = np.array([0, 0, 1])

    def main(comm):
        me = comm.rank
        partial = np.zeros((nboxes, 4))
        partial[contrib[me]] = me + 1.0  # rank 0 -> 1s, rank 1 -> 2s
        return reduce_equiv_densities(
            comm, contrib, users, owner, partial, scheme
        )

    results = run_spmd(2, main)
    # box 0: contributors both ranks -> total 3
    assert np.allclose(results[0][0], 3.0)
    assert np.allclose(results[1][0], 3.0)
    # box 1: only rank 0 -> total 1, used by rank 1
    assert np.allclose(results[1][1], 1.0)
    # box 2: only rank 1 -> total 2, used by rank 0
    assert np.allclose(results[0][2], 2.0)


def test_empty_exchange():
    for scheme in EXCHANGE_SCHEMES:
        _check_empty_exchange(scheme)


def _check_empty_exchange(scheme):
    def main(comm):
        return exchange_source_geometry(
            comm,
            np.empty(0, dtype=np.int64),
            np.zeros((2, 0), dtype=bool),
            np.zeros((2, 0), dtype=bool),
            np.empty(0, dtype=np.int64),
            {},
            scheme=scheme,
        )

    results = run_spmd(2, main)
    assert results == [{}, {}]
