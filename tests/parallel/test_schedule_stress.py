"""Seeded schedule-perturbation stress tests.

The ghost exchange, equivalent-density reduction and LET gather
protocols must be schedule independent: whatever interleaving the
thread scheduler produces, every rank must end up with bitwise-identical
data.  We fuzz 10 perturbed schedules per protocol (seeded random yields
inside every SimComm call) and compare against an unperturbed reference
run.  The exchanges run under both communication schemes.
"""

import numpy as np
import pytest

from repro.analysis import CommTrace, check_trace, compare_traces
from repro.parallel.exchange import EXCHANGE_SCHEMES, exchange_source_geometry
from repro.parallel.let import LETUsage, gather_users
from repro.parallel.simmpi import run_spmd

from tests.parallel.test_exchange import reduce_equiv_densities

NRANKS = 4
NBOXES = 24
NSCHEDULES = 10


def _random_topology(rng):
    """Random contributor/user matrices with a consistent owner map."""
    contrib = rng.random((NRANKS, NBOXES)) < 0.45
    contrib[rng.integers(0, NRANKS, size=NBOXES), np.arange(NBOXES)] = True
    users = rng.random((NRANKS, NBOXES)) < 0.45
    owner = np.array([
        rng.choice(np.nonzero(contrib[:, b])[0]) for b in range(NBOXES)
    ])
    return contrib, users, owner


def _ghost_exchange_once(contrib, users, owner, seed, scheme):
    boxes = np.arange(NBOXES)

    def main(comm):
        me = comm.rank
        pts = {
            b: np.full((3, 3), 100.0 * me + b)
            for b in range(NBOXES) if contrib[me, b]
        }
        return exchange_source_geometry(
            comm, boxes, contrib, users, owner, pts, scheme=scheme
        )

    trace = CommTrace()
    results = run_spmd(
        NRANKS, main, trace=trace, schedule_seed=seed,
    )
    assert check_trace(trace).ok
    return results, trace


def _flatten(results):
    out = []
    for rank_result in results:
        for b in sorted(rank_result):
            out.append((b, rank_result[b].tobytes()))
    return out


def test_ghost_exchange_bitwise_identical_across_schedules(rng):
    contrib, users, owner = _random_topology(rng)
    for scheme in EXCHANGE_SCHEMES:
        reference, _ = _ghost_exchange_once(
            contrib, users, owner, None, scheme
        )
        ref_flat = _flatten(reference)
        traces = []
        for seed in range(NSCHEDULES):
            results, trace = _ghost_exchange_once(
                contrib, users, owner, seed, scheme
            )
            assert _flatten(results) == ref_flat, (
                f"{scheme} schedule {seed} diverged"
            )
            traces.append(trace)
        assert compare_traces(traces).ok


def test_equiv_density_reduction_bitwise_identical_across_schedules(rng):
    contrib, users, owner = _random_topology(rng)
    partials = rng.standard_normal((NRANKS, NBOXES, 6))
    partials[~contrib] = 0.0  # only contributors hold partial densities

    for scheme in EXCHANGE_SCHEMES:

        def main(comm, scheme=scheme):
            return reduce_equiv_densities(
                comm, contrib, users, owner, partials[comm.rank], scheme
            )

        reference = _flatten(run_spmd(NRANKS, main))
        for seed in range(NSCHEDULES):
            trace = CommTrace()
            results = run_spmd(
                NRANKS, main, trace=trace, schedule_seed=seed
            )
            assert _flatten(results) == reference, (
                f"{scheme} schedule {seed} diverged"
            )
            assert check_trace(trace).ok


def test_let_gather_users_bitwise_identical_across_schedules(rng):
    """parallel/let.py: the allgathered usage matrices are schedule free."""
    masks = rng.random((NRANKS, 2, NBOXES)) < 0.5

    def main(comm):
        usage = LETUsage(
            uses_equiv=masks[comm.rank, 0].copy(),
            uses_source=masks[comm.rank, 1].copy(),
        )
        ue, us = gather_users(comm, usage)
        return ue.tobytes(), us.tobytes()

    reference = run_spmd(NRANKS, main)
    assert all(r == reference[0] for r in reference)  # identical everywhere
    for seed in range(NSCHEDULES):
        trace = CommTrace()
        results = run_spmd(NRANKS, main, trace=trace, schedule_seed=seed)
        assert results == reference, f"schedule {seed} diverged"
        report = check_trace(trace)
        assert report.ok, report.summary()


@pytest.mark.parametrize("seed", [0, 1])
def test_perturbation_is_reproducible(seed, rng):
    """Same seed, same trace digests: the fuzzing itself is deterministic."""
    contrib, users, owner = _random_topology(rng)
    for scheme in EXCHANGE_SCHEMES:
        _, t1 = _ghost_exchange_once(contrib, users, owner, seed, scheme)
        _, t2 = _ghost_exchange_once(contrib, users, owner, seed, scheme)
        assert compare_traces([t1, t2]).ok
