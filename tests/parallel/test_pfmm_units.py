"""Unit tests of the rank executor's building blocks."""

import numpy as np

from repro.core.fmm import FMMOptions
from repro.kernels import LaplaceKernel
from repro.parallel import ParallelFMM
from repro.util.flops import FlopCounter

from tests.conftest import clustered_cloud


def _upward(state, local_phi):
    """Run one rank's partial upward pass on ``local_phi`` (local order)."""
    tree, cache = state.tree, state.cache
    ue3 = np.zeros((tree.nboxes, 1, cache.n_surf * state.kernel.source_dof))
    phi_rm = np.ascontiguousarray(local_phi[tree.src_perm][None])
    state.executor.upward(ue3, phi_rm, FlopCounter())
    return ue3[:, 0]


class TestUpwardLocal:
    def test_full_data_matches_sequential_densities(self, rng):
        """One rank holding everything: partial densities are the global
        equivalent densities the sequential evaluator would build."""
        kernel = LaplaceKernel()
        pts = clustered_cloud(rng, 400)
        phi = rng.standard_normal((400, 1))
        op = ParallelFMM(1, kernel, FMMOptions(p=4, max_points=25)).setup(pts)
        state = op._states[0]
        tree, cache = state.tree, state.cache
        local_phi = phi[op._parts[0]]
        ue = _upward(state, local_phi)
        # compare a leaf's density against a direct S2M computation
        leaf = tree.leaves()[0]
        b = tree.boxes[leaf]
        K = kernel.matrix(
            cache.up_check_points(tree.center(leaf), b.level),
            tree.src_points(leaf),
        )
        expected = cache.uc2ue(b.level) @ (
            K @ local_phi[tree.src_indices(leaf)].reshape(-1)
        )
        assert np.allclose(ue[leaf], expected)
        # every box with sources has a density
        for b in tree.boxes:
            assert ue[b.index].any() == (b.nsrc > 0)

    def test_linearity_of_partials(self, rng):
        """Partial densities are linear in the local sources — the
        property the owner-side summation relies on."""
        kernel = LaplaceKernel()
        pts = clustered_cloud(rng, 300)
        op = ParallelFMM(2, kernel, FMMOptions(p=4, max_points=25)).setup(pts)
        for state in op._states:
            ns = state.tree.sources.shape[0]
            p1 = rng.standard_normal((ns, 1))
            p2 = rng.standard_normal((ns, 1))
            ue1 = _upward(state, p1)
            ue2 = _upward(state, p2)
            ue12 = _upward(state, p1 + p2)
            assert np.allclose(ue12, ue1 + ue2, atol=1e-12)
