"""FFT M2L must agree with the dense M2L operator to machine precision."""

import numpy as np
import pytest

from repro.core.fftm2l import FFTM2L
from repro.core.plan import BufferPool
from repro.core.precompute import OperatorCache
from repro.kernels import LaplaceKernel, ModifiedLaplaceKernel, StokesKernel

OFFSETS = [(2, 0, 0), (0, -2, 1), (3, 3, 3), (-3, 2, -1), (0, 0, 2)]


def _parent_pair(offset):
    """Parent offset and child octants of a V offset.

    Each component splits as ``c = 2 * po + a - b`` with octant bits
    ``a`` (target child) and ``b`` (source child).
    """
    po, ot, os_ = [], 0, 0
    for d, c in enumerate(offset):
        p = int(np.fix(c / 2))
        r = c - 2 * p
        po.append(p)
        ot |= (r == 1) << d
        os_ |= (r == -1) << d
    return tuple(po), ot, os_


def _via_fft(fft, level, pairs):
    """Check potential of one target box from ``(offset, ue)`` sources.

    Runs the executor's fft path: forward transforms of the source rows
    into a frequency-leading stack, one parent-pair block per source
    (its other children at the sentinel rows) through the blocked
    Hadamard, one inverse transform.
    """
    md, qd = fft.kernel.source_dof, fft.kernel.target_dof
    nfreq = fft.m * fft.m * (fft.m // 2 + 1)
    n = len(pairs)
    phi_ext = np.empty((1, nfreq, n + 1, md), dtype=np.complex128)
    fft.forward_rows_t(np.stack([ue for _, ue in pairs]), phi_ext[0, :, :n])
    acc_ext = np.zeros((1, nfreq, 2, qd), dtype=np.complex128)
    groups = []
    for i, (offset, _) in enumerate(pairs):
        po, ot, os_ = _parent_pair(offset)
        src = np.full((1, 8), n, dtype=np.int64)
        src[0, os_] = i
        trg = np.full((1, 8), 1, dtype=np.int64)
        trg[0, ot] = 0
        groups.append((po, src, trg))
    fft.hadamard_blocked(level, groups, phi_ext, acc_ext, BufferPool())
    return fft.inverse_rows_t(acc_ext[0, :, :1])[0]


@pytest.mark.parametrize(
    "kernel",
    [LaplaceKernel(), ModifiedLaplaceKernel(lam=1.0), StokesKernel()],
    ids=["laplace", "modified_laplace", "stokes"],
)
@pytest.mark.parametrize("offset", OFFSETS)
def test_fft_matches_dense(kernel, offset, rng):
    p = 4
    cache = OperatorCache(kernel, p, root_side=2.0)
    fft = FFTM2L(cache)
    level = 2
    ue = rng.standard_normal(cache.n_surf * kernel.source_dof)
    dense = cache.m2l_check(level, offset) @ ue
    via_fft = _via_fft(fft, level, [(offset, ue)])
    assert np.allclose(via_fft, dense, atol=1e-10 * max(1.0, np.abs(dense).max()))


def test_accumulation_is_additive(rng):
    """Hadamard accumulation over two sources equals sum of singles."""
    kernel = LaplaceKernel()
    cache = OperatorCache(kernel, 4, root_side=1.0)
    fft = FFTM2L(cache)
    level = 3
    ue1 = rng.standard_normal(cache.n_surf)
    ue2 = rng.standard_normal(cache.n_surf)
    o1, o2 = (2, 0, 0), (0, 3, -1)
    combined = _via_fft(fft, level, [(o1, ue1), (o2, ue2)])
    expected = (
        cache.m2l_check(level, o1) @ ue1 + cache.m2l_check(level, o2) @ ue2
    )
    assert np.allclose(combined, expected)


def test_homogeneous_level_scaling(rng):
    kernel = LaplaceKernel()
    cache = OperatorCache(kernel, 3, root_side=2.0)
    fft = FFTM2L(cache)
    t2 = fft.kernel_tensor_hat(2, (2, 1, 0))
    t5 = fft.kernel_tensor_hat(5, (2, 1, 0))
    # degree -1 homogeneity: level 5 boxes are 8x smaller -> kernel 8x larger
    assert np.allclose(t5, t2 * 8.0)


def test_inhomogeneous_tensors_cached_per_level():
    kernel = ModifiedLaplaceKernel(lam=1.0)
    cache = OperatorCache(kernel, 3, root_side=2.0)
    fft = FFTM2L(cache)
    fft.kernel_tensor_hat(2, (2, 0, 0))
    fft.kernel_tensor_hat(3, (2, 0, 0))
    bases, _, _ = cache.operator_bases(3, 0)
    assert len(bases.tensors) == 2


def test_rejects_adjacent_offset():
    fft = FFTM2L(OperatorCache(LaplaceKernel(), 3, 1.0))
    with pytest.raises(ValueError):
        fft.kernel_tensor_hat(2, (1, 1, 0))


def test_flop_estimates_positive():
    fft = FFTM2L(OperatorCache(StokesKernel(), 4, 1.0))
    assert fft.flops_per_pair() > 0
    assert fft.flops_per_fft() > 0
