"""Input contract: non-finite coordinates fail loudly at every P.

A NaN or infinite coordinate has no box in the octree.  Without the
check, the sequential and the parallel operator both returned finite,
all-zero potentials and raised nothing.
"""

import numpy as np
import pytest

from repro import KIFMM, LaplaceKernel
from repro.core.fmm import FMMOptions
from repro.parallel.pfmm import ParallelFMM, run_parallel_fmm

OPTS = FMMOptions(p=4)
BAD = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)


@pytest.fixture
def cloud(rng):
    return rng.random((400, 3)), rng.random(400)


def poisoned(points, value, rows=(5,)):
    out = points.copy()
    out[list(rows), 1] = value
    return out


@BAD
def test_sequential_sources(cloud, value):
    pts, dens = cloud
    with pytest.raises(ValueError, match="2 of 400 source rows"):
        KIFMM(LaplaceKernel(), OPTS).setup(
            poisoned(pts, value, rows=(5, 17))
        ).apply(dens)


@BAD
def test_sequential_separate_targets(cloud, value):
    pts, dens = cloud
    with pytest.raises(ValueError, match="1 of 400 target rows"):
        KIFMM(LaplaceKernel(), OPTS).setup(
            pts, poisoned(pts, value)
        ).apply(dens)


@BAD
@pytest.mark.parametrize("nranks", [1, 2])
def test_parallel_sources(cloud, value, nranks):
    pts, dens = cloud
    with pytest.raises(ValueError, match="1 of 400 source rows"):
        run_parallel_fmm(
            nranks, LaplaceKernel(), poisoned(pts, value), dens, OPTS
        )


@BAD
@pytest.mark.parametrize("nranks", [1, 2])
def test_parallel_operator_setup(cloud, value, nranks):
    pts, _ = cloud
    with pytest.raises(ValueError, match="1 of 400 source rows"):
        ParallelFMM(nranks, LaplaceKernel(), OPTS).setup(
            poisoned(pts, value)
        )

