"""Operator cache tests: shapes, homogeneous rescaling, validation,
and the process-wide store of unit-box operator bases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import precompute
from repro.core.fftm2l import FFTM2L
from repro.core.fmm import FMMOptions, KIFMM
from repro.core.precompute import (
    STORE_CAPACITY,
    OperatorCache,
    octant_offset,
    shared_bases,
)
from repro.core.surfaces import n_surface_points
from repro.kernels import LaplaceKernel, ModifiedLaplaceKernel, StokesKernel
from repro.parallel import ParallelFMM


def _fresh_cache(kernel, p=4, root=2.0, **kw):
    return OperatorCache(kernel, p, root, **kw)


class TestOctantOffset:
    def test_all_octants_distinct(self):
        offsets = {tuple(octant_offset(c)) for c in range(8)}
        assert len(offsets) == 8

    def test_magnitude(self):
        for c in range(8):
            assert np.all(np.abs(octant_offset(c)) == 0.5)

    def test_bit_convention(self):
        assert np.allclose(octant_offset(0), [-0.5, -0.5, -0.5])
        assert np.allclose(octant_offset(1), [0.5, -0.5, -0.5])
        assert np.allclose(octant_offset(2), [-0.5, 0.5, -0.5])
        assert np.allclose(octant_offset(4), [-0.5, -0.5, 0.5])

    def test_rejects_bad_octant(self):
        with pytest.raises(ValueError):
            octant_offset(8)
        with pytest.raises(ValueError):
            octant_offset(-1)


class TestShapes:
    @pytest.mark.parametrize(
        "kernel", [LaplaceKernel(), StokesKernel()], ids=["laplace", "stokes"]
    )
    def test_operator_shapes(self, kernel):
        p = 4
        n = n_surface_points(p)
        m, q = kernel.source_dof, kernel.target_dof
        cache = _fresh_cache(kernel, p=p)
        assert cache.uc2ue(2).shape == (n * m, n * q)
        assert cache.dc2de(2).shape == (n * m, n * q)
        assert cache.m2m_check(2, 3).shape == (n * q, n * m)
        assert cache.l2l_check(2, 5).shape == (n * q, n * m)
        assert cache.m2l_check(2, (2, 0, -1)).shape == (n * q, n * m)

    def test_surface_points(self):
        cache = _fresh_cache(LaplaceKernel(), p=4, root=2.0)
        c = np.array([0.5, 0.5, 0.5])
        r = cache.half_width(1)  # 0.5
        up_e = cache.up_equiv_points(c, 1)
        up_c = cache.up_check_points(c, 1)
        assert np.abs(up_e - c).max() == pytest.approx(cache.inner * r)
        assert np.abs(up_c - c).max() == pytest.approx(cache.outer * r)
        dn_e = cache.down_equiv_points(c, 1)
        dn_c = cache.down_check_points(c, 1)
        assert np.abs(dn_e - c).max() == pytest.approx(cache.outer * r)
        assert np.abs(dn_c - c).max() == pytest.approx(cache.inner * r)


class TestHomogeneousScaling:
    """Scaled operators must equal direct computation at that level."""

    @pytest.mark.parametrize(
        "kernel", [LaplaceKernel(), StokesKernel()], ids=["laplace", "stokes"]
    )
    def test_scaling_matches_direct(self, kernel):
        p = 3
        cache = _fresh_cache(kernel, p=p)
        # force direct computation by masquerading as inhomogeneous
        direct = _fresh_cache(kernel, p=p)
        direct.kernel = _Inhomog(kernel)
        for level in (1, 3):
            assert np.allclose(cache.uc2ue(level), direct.uc2ue(level), atol=1e-10)
            assert np.allclose(cache.dc2de(level), direct.dc2de(level))
            assert np.allclose(
                cache.m2l_check(level, (0, 2, 0)),
                direct.m2l_check(level, (0, 2, 0)),
            )
        for child_level in (1, 2):
            for octant in (0, 7):
                assert np.allclose(
                    cache.m2m_check(child_level, octant),
                    direct.m2m_check(child_level, octant),
                )
                assert np.allclose(
                    cache.l2l_check(child_level, octant),
                    direct.l2l_check(child_level, octant),
                )

    def test_inhomogeneous_kernel_differs_by_level(self):
        cache = _fresh_cache(ModifiedLaplaceKernel(lam=2.0), p=3)
        m0 = cache.m2l_check(1, (2, 0, 0))
        m1 = cache.m2l_check(3, (2, 0, 0))
        # no scalar multiple relates the two levels
        ratio = m1 / m0
        assert ratio.std() / abs(ratio.mean()) > 1e-3


class _Inhomog:
    """Wrapper hiding a kernel's homogeneity (forces per-level compute)."""

    def __init__(self, kernel):
        self._k = kernel
        self.homogeneity = None

    def __getattr__(self, name):
        return getattr(self._k, name)


class TestValidation:
    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            OperatorCache(LaplaceKernel(), 4, 1.0, inner=0.9, outer=2.9)
        with pytest.raises(ValueError):
            OperatorCache(LaplaceKernel(), 4, 1.0, inner=1.1, outer=3.5)
        with pytest.raises(ValueError):
            OperatorCache(LaplaceKernel(), 4, 1.0, inner=2.0, outer=1.5)

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            OperatorCache(LaplaceKernel(), 4, -1.0)

    def test_rejects_adjacent_m2l_offset(self):
        cache = _fresh_cache(LaplaceKernel())
        with pytest.raises(ValueError):
            cache.m2l_check(2, (1, 0, 0))
        with pytest.raises(ValueError):
            cache.m2l_check(2, (1, 1, 1))

    def test_rejects_bad_levels(self):
        cache = _fresh_cache(LaplaceKernel())
        with pytest.raises(ValueError):
            cache.m2m_check(0, 0)
        with pytest.raises(ValueError):
            cache.half_width(-1)


class TestInversionQuality:
    def test_uc2ue_reconstructs_far_field(self, rng):
        """An equivalent density from uc2ue reproduces the far potential.

        This is equation (2.1) end to end: random interior sources, solve
        for the equivalent density, compare potentials at far points.
        """
        kernel = LaplaceKernel()
        cache = _fresh_cache(kernel, p=6, root=2.0)
        level = 1
        center = np.zeros(3)
        r = cache.half_width(level)
        src = rng.uniform(-r, r, size=(20, 3))
        phi = rng.standard_normal(20)
        check = kernel.matrix(cache.up_check_points(center, level), src) @ phi
        ue = cache.uc2ue(level) @ check
        far = rng.standard_normal((15, 3))
        far = center + (far / np.linalg.norm(far, axis=1, keepdims=True)) * (6 * r)
        exact = kernel.matrix(far, src) @ phi
        approx = kernel.matrix(far, cache.up_equiv_points(center, level)) @ ue
        assert np.allclose(approx, exact, rtol=1e-6)


_TABLES = (
    "uc2ue", "dc2de", "m2m", "l2l", "m2l",
    "m2l_rsvd", "m2l_rsvd_f32", "tensors", "combos_real",
)


def _sizes(bases):
    return {name: len(getattr(bases, name)) for name in _TABLES}


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestSharedBases:
    """Homogeneous operators are factored once per configuration."""

    @pytest.mark.parametrize("m2l", ["rsvd", "fft"])
    def test_second_geometry_factors_nothing(self, m2l, rng):
        # an rcond no other test uses, so the configuration starts empty
        opts = FMMOptions(p=4, max_points=40, m2l=m2l, rcond=3e-12)
        kernel = LaplaceKernel()
        pts = rng.uniform(0.0, 1.0, size=(1500, 3))
        first = KIFMM(kernel, opts).setup(pts)
        first.apply(rng.standard_normal(1500))
        bases = shared_bases(kernel, opts.p, opts.inner, opts.outer, opts.rcond)
        built = _sizes(bases)
        assert built["uc2ue"] == built["dc2de"] == 1
        assert built["m2l_rsvd" if m2l == "rsvd" else "combos_real"] > 0
        assert built["m2l"] == 0  # dense M2L is never kept as rSVD input

        moved = pts * 37.5 + np.array([5.0, -2.0, 1.25])
        second = KIFMM(kernel, opts).setup(moved)
        assert second.cache.root_side != first.cache.root_side
        second.apply(rng.standard_normal(1500))
        assert _sizes(bases) == built

    @settings(max_examples=12, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from(["laplace", "stokes"]),
    )
    def test_rescaled_bases_match_cold_computation(self, root_side, name):
        kernel = LaplaceKernel() if name == "laplace" else StokesKernel()
        p, level, offset, po = 4, 3, (2, -1, 3), (1, 0, -1)
        warm = OperatorCache(kernel, p, root_side)
        cold = OperatorCache(kernel, p, root_side)
        cold.kernel = _Inhomog(kernel)  # per-cache, per-level factoring
        for get in (
            lambda c: c.m2m_check(level, 5),
            lambda c: c.l2l_check(level, 2),
            lambda c: c.m2l_check(level, offset),
            lambda c: np.matmul(*c.m2l_rsvd(level, offset)),
            lambda c: FFTM2L(c).kernel_tensor_hat(level, offset),
            lambda c: FFTM2L(c).combo_tensor_real(level, po),
        ):
            assert _rel(get(warm), get(cold)) <= 1e-10
        assert warm.m2l_rsvd_rank(level, offset) == cold.m2l_rsvd_rank(
            level, offset
        )
        # The pseudo-inverses are compared through what they produce:
        # the far field of the equivalent density fitted to the check
        # potential of interior sources.  Their entries agree only to
        # the conditioning of the check-to-equivalent matrices.
        rng = np.random.default_rng(7)
        r = warm.half_width(level)
        near = rng.uniform(-r, r, size=(30, 3))
        far = rng.standard_normal((30, 3))
        far *= 8.0 * r / np.linalg.norm(far, axis=1, keepdims=True)
        phi = rng.standard_normal(30 * kernel.source_dof)
        zero = np.zeros(3)
        for inv, check, equiv, sources, targets in (
            ("uc2ue", warm.up_check_points(zero, level),
             warm.up_equiv_points(zero, level), near, far),
            ("dc2de", warm.down_check_points(zero, level),
             warm.down_equiv_points(zero, level), far, near),
        ):
            u = kernel.matrix(check, sources) @ phi
            fields = [
                kernel.matrix(targets, equiv) @ (getattr(c, inv)(level) @ u)
                for c in (warm, cold)
            ]
            assert _rel(*fields) <= 1e-10

    def test_reuse_keeps_sequential_and_one_rank_bitwise(self, rng):
        kernel = StokesKernel()
        opts = FMMOptions(p=4, max_points=40)
        pts = rng.uniform(0.0, 1.0, size=(800, 3))
        KIFMM(kernel, opts).setup(pts).apply(rng.standard_normal(2400))
        moved = rng.uniform(-3.0, 9.0, size=(800, 3))
        phi = rng.standard_normal((800, 3))
        seq = KIFMM(kernel, opts).setup(moved).apply(phi)
        par = ParallelFMM(1, kernel, opts).setup(moved).apply(phi)
        assert np.array_equal(seq, par)

    def test_store_evicts_least_recently_used(self):
        kernel = LaplaceKernel()
        configs = [(kernel, 3, 1.05, 2.95, 10.0 ** -(4 + i))
                   for i in range(STORE_CAPACITY + 1)]
        first = shared_bases(*configs[0])
        for config in configs[1:-1]:
            shared_bases(*config)
        assert shared_bases(*configs[0]) is first  # refreshed: now newest
        second = shared_bases(*configs[1])
        shared_bases(*configs[-1])  # past capacity: drops configs[2]
        assert len(precompute._STORE) == STORE_CAPACITY
        assert shared_bases(*configs[1]) is second
        assert shared_bases(*configs[0]) is first
        assert configs[2] not in precompute._STORE

    def test_inhomogeneous_kernel_never_enters_store(self):
        kernel = ModifiedLaplaceKernel(lam=2.0)
        cache = _fresh_cache(kernel, p=3)
        cache.uc2ue(2)
        cache.m2l_rsvd(3, (2, 0, 0))
        FFTM2L(cache).kernel_tensor_hat(2, (2, 0, 0))
        assert all(key[0] != kernel for key in precompute._STORE)
        with pytest.raises(ValueError):
            shared_bases(kernel, 3, 1.05, 2.95, 1e-12)

    def test_stored_operators_are_read_only(self):
        cache = _fresh_cache(LaplaceKernel(), p=3, root=1.0)
        with pytest.raises(ValueError):
            cache.uc2ue(0)[0, 0] = 1.0
