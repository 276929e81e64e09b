"""The parallel algorithm must reproduce the sequential FMM exactly.

This is the paper's implicit correctness claim: the three-stage
compute/communicate/compute structure with redundant near-root work and
owner-mediated exchanges computes the *same* potentials as a single
processor would.  Everything — Morton partitioning, the global tree
array, LETs, owners, Algorithm 1 — is on the line in these tests.
"""

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.geometry.distributions import corner_clusters
from repro.kernels import LaplaceKernel, ModifiedLaplaceKernel, StokesKernel
from repro.kernels.direct import direct_evaluate, relative_error
from repro.parallel import ParallelFMM, run_parallel_fmm

from tests.conftest import clustered_cloud, uniform_cloud


@pytest.mark.parametrize("nranks", [2, 3, 6])
def test_laplace_clustered(rng, nranks):
    pts = clustered_cloud(rng, 600)
    phi = rng.standard_normal((600, 1))
    opts = FMMOptions(p=4, max_points=25)
    seq = KIFMM(LaplaceKernel(), opts).setup(pts).apply(phi)
    par = run_parallel_fmm(nranks, LaplaceKernel(), pts, phi, opts)
    assert relative_error(par.potential, seq) < 1e-12


@pytest.mark.parametrize("nranks", [2, 4])
def test_stokes_uniform(rng, nranks):
    pts = uniform_cloud(rng, 400)
    phi = rng.standard_normal((400, 3))
    opts = FMMOptions(p=4, max_points=30)
    seq = KIFMM(StokesKernel(), opts).setup(pts).apply(phi)
    par = run_parallel_fmm(nranks, StokesKernel(), pts, phi, opts)
    assert relative_error(par.potential, seq) < 1e-12


def test_modified_laplace_dense_m2l(rng):
    pts = clustered_cloud(rng, 400)
    phi = rng.standard_normal((400, 1))
    opts = FMMOptions(p=4, max_points=25, m2l="dense")
    seq = KIFMM(ModifiedLaplaceKernel(2.0), opts).setup(pts).apply(phi)
    par = run_parallel_fmm(3, ModifiedLaplaceKernel(2.0), pts, phi, opts)
    assert relative_error(par.potential, seq) < 1e-12


def test_single_rank_equals_sequential(rng):
    pts = uniform_cloud(rng, 300)
    phi = rng.standard_normal((300, 1))
    opts = FMMOptions(p=4, max_points=30)
    seq = KIFMM(LaplaceKernel(), opts).setup(pts).apply(phi)
    par = run_parallel_fmm(1, LaplaceKernel(), pts, phi, opts)
    assert np.array_equal(par.potential, seq)
    assert par.comm_stats[0].bytes_sent == 0  # nothing to exchange


@pytest.mark.parametrize(
    "kernel,cloud,m2l",
    [
        (LaplaceKernel(), lambda rng: clustered_cloud(rng, 600), "dense"),
        (StokesKernel(), lambda rng: corner_clusters(1000, rng), "auto"),
        (LaplaceKernel(), lambda rng: corner_clusters(2000, rng), "fft"),
    ],
    ids=["laplace-clustered-dense", "stokes-corners-auto", "laplace-corners-fft"],
)
def test_single_rank_bitwise_equals_sequential(rng, kernel, cloud, m2l):
    """One rank runs the sequential program: same executor, no exchange
    work, every partner own — so the potentials agree bit for bit."""
    pts = cloud(rng)
    phi = rng.standard_normal((pts.shape[0], kernel.source_dof))
    opts = FMMOptions(p=4, m2l=m2l)
    seq = KIFMM(kernel, opts).setup(pts).apply(phi)
    par = ParallelFMM(1, kernel, opts).setup(pts).apply(phi)
    assert np.array_equal(seq, par)


def test_accuracy_against_direct(rng):
    """Parallel FMM vs O(N^2) truth, not just vs the sequential FMM."""
    pts = clustered_cloud(rng, 500)
    phi = rng.standard_normal((500, 1))
    par = run_parallel_fmm(
        4, LaplaceKernel(), pts, phi, FMMOptions(p=6, max_points=25)
    )
    exact = direct_evaluate(LaplaceKernel(), pts, pts, phi)
    assert relative_error(par.potential, exact) < 5e-4


def test_communication_happens_and_scales(rng):
    pts = uniform_cloud(rng, 600)
    phi = rng.standard_normal((600, 1))
    opts = FMMOptions(p=4, max_points=25)
    r2 = run_parallel_fmm(2, LaplaceKernel(), pts, phi, opts)
    r6 = run_parallel_fmm(6, LaplaceKernel(), pts, phi, opts)
    b2 = sum(s.bytes_sent for s in r2.comm_stats)
    b6 = sum(s.bytes_sent for s in r6.comm_stats)
    assert b2 > 0
    assert b6 > b2  # more ranks, more boundary


def test_timers_populated(rng):
    pts = uniform_cloud(rng, 300)
    phi = rng.standard_normal((300, 1))
    res = run_parallel_fmm(2, LaplaceKernel(), pts, phi,
                           FMMOptions(p=4, max_points=30))
    for t in res.timers:
        assert t["up"] > 0
        assert "pack" in t and "wait" in t
        assert any(k.startswith("down") for k in t)
