"""The blocked FFT M2L on every rank: parity with KIFMM at any P.

With ``m2l="fft"`` every rank runs the parent-pair-blocked Hadamard of
the sequential executor.  Its parent pairs are split at the exchange
wait by source ownership (a pair whose real source children are all
owned runs in the overlap window) and, at coarse split levels,
restricted to the rank's assigned target boxes.  These tests force the
fft backend at every level, so no ``auto`` choice can route around it.
"""

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.core.m2lschedule import coarse_split_levels
from repro.geometry.distributions import corner_clusters
from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.direct import relative_error
from repro.parallel import ParallelFMM

from tests.conftest import clustered_cloud

KERNELS = {"laplace": LaplaceKernel(), "stokes": StokesKernel(mu=0.7)}


def two_corner_points(n_per_corner: int, rng) -> np.ndarray:
    """Two tight opposite-corner clusters: coarse levels keep only a few
    boxes, so V levels with fewer boxes than 8 ranks get split."""
    a = rng.uniform(0.0, 0.12, (n_per_corner, 3))
    b = rng.uniform(0.88, 1.0, (n_per_corner, 3))
    return np.vstack([a, b])


def _parity(kern, pts, opts, nranks, rng, nrhs=None):
    shape = (pts.shape[0], kern.source_dof)
    phi = rng.standard_normal(shape if nrhs is None else shape + (nrhs,))
    seq = KIFMM(kern, opts).setup(pts).apply(phi)
    op = ParallelFMM(nranks, kern, opts).setup(pts)
    par = op.apply(phi)
    assert relative_error(par, seq) < 1e-12
    return op, phi, par


@pytest.mark.parametrize("comm", ["tree", "flat"])
@pytest.mark.parametrize("nranks", [2, 3])
@pytest.mark.parametrize("kname", ["laplace", "stokes"])
def test_fft_parity(rng, kname, nranks, comm):
    opts = FMMOptions(p=4, max_points=30, m2l="fft", comm=comm)
    _parity(KERNELS[kname], clustered_cloud(rng, 900), opts, nranks, rng)


@pytest.mark.parametrize("comm", ["tree", "flat"])
def test_fft_parity_eight_ranks_corners(rng, comm):
    opts = FMMOptions(p=4, max_points=20, m2l="fft", comm=comm)
    _parity(LaplaceKernel(), corner_clusters(600, rng), opts, 8, rng)


@pytest.mark.parametrize("comm", ["tree", "flat"])
def test_fft_parity_eight_ranks_split_levels(rng, comm):
    """The coarse split engages on fft levels and keeps parity."""
    opts = FMMOptions(p=4, max_points=20, m2l="fft", comm=comm)
    op, _, _ = _parity(
        LaplaceKernel(), two_corner_points(150, rng), opts, 8, rng
    )
    split = [
        sp for st in op._states for sp in st.v_splits
        if sp.inv_rows is not None and sp.ghost_classes
    ]
    assert split, "fixture no longer splits an fft level"


@pytest.mark.parametrize("nranks", [3, 8])
def test_fft_multirhs_columns(rng, nranks):
    """Block applies match KIFMM and every column its single apply."""
    kern = KERNELS["stokes"]
    opts = FMMOptions(p=4, max_points=20, m2l="fft")
    op, block, out = _parity(
        kern, two_corner_points(120, rng), opts, nranks, rng, nrhs=4
    )
    for r in range(block.shape[2]):
        single = op.apply(np.ascontiguousarray(block[:, :, r]))
        assert relative_error(out[:, :, r], single) < 1e-12


@pytest.mark.parametrize("nranks", [1, 3, 8])
def test_fft_splits_partition_parent_pairs(rng, nranks):
    """Outside split levels the own/ghost halves cover every parent pair
    and every effective V pair exactly once; own pairs read own rows."""
    opts = FMMOptions(p=4, max_points=20, m2l="fft")
    op = ParallelFMM(nranks, LaplaceKernel(), opts).setup(
        two_corner_points(150, rng)
    )
    for st in op._states:
        split = coarse_split_levels([len(lv) for lv in st.tree.levels], nranks)
        for vl, sp in zip(st.plan.v_levels, st.v_splits):
            if vl.level in split:
                continue
            assert sp.own_pairs + sp.ghost_pairs == vl.npairs
            nsb = vl.src_boxes.size
            own = np.zeros(nsb + 1, dtype=bool)
            own[sp.own_rows] = True
            own[nsb] = True
            for _, src, _ in sp.own_classes:
                assert own[src].all()
            for _, src, _ in sp.ghost_classes:
                assert not own[src].all(axis=1).any()
            npp = sum(s.shape[0] for _, s, _ in vl.po_groups)
            assert npp == sum(
                s.shape[0] for _, s, _ in sp.own_classes + sp.ghost_classes
            )
            if nranks == 1:
                assert not sp.ghost_classes and not sp.ghost_rows.size
