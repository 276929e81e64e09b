"""Precomputed translation operators (equations 2.1–2.5).

Every KIFMM translation is "evaluate a check potential, then invert the
check-to-equivalent integral equation".  The matrices involved depend
only on the tree level (and, for M2M/L2L, the child octant; for M2L, the
relative box offset) — never on the box position — so they are computed
once and cached.

For kernels homogeneous of degree ``h`` (``G(a x, a y) = a^h G(x, y)``,
i.e. Laplace, Stokes, Navier) the operators of any box are rescalings
of those of a reference box: evaluation matrices scale by ``a^h`` and
the pseudo-inverses by ``a^-h``, where ``a`` is the box half-width
ratio.  The reference is a fixed unit box, so the unscaled operators
(the *bases*) depend only on the configuration — kernel, ``p``, surface
radii and ``rcond`` — and not on the geometry.  They are factored once
per process and shared by every :class:`OperatorCache` of that
configuration through a small least-recently-used store.  Inhomogeneous
kernels (modified Laplace) depend on absolute scale, so each cache
factors them per level and never touches the store.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.core.surfaces import (
    INNER_RADIUS,
    OUTER_RADIUS,
    scaled_surface,
    surface_grid,
)
from repro.kernels.base import Kernel
from repro.linalg.pinv import regularized_pinv
from repro.linalg.rsvd import randomized_svd

#: Root side of the unit reference box the shared bases are built at.
REFERENCE_ROOT_SIDE = 1.0
#: Configurations whose shared bases a process retains; the least
#: recently used one is dropped when a further configuration arrives.
STORE_CAPACITY = 4


def octant_offset(octant: int) -> np.ndarray:
    """Child-center offset from the parent center, in parent half-widths.

    Octant bit 0/1/2 selects the x/y/z half; bit value 0 means the lower
    half (offset ``-1/2``), 1 the upper half (``+1/2``), matching the
    Morton child indexing of :mod:`repro.octree.morton`.
    """
    if not 0 <= octant < 8:
        raise ValueError(f"octant must be in [0, 8), got {octant}")
    return np.array(
        [
            0.5 if octant & 1 else -0.5,
            0.5 if (octant >> 1) & 1 else -0.5,
            0.5 if (octant >> 2) & 1 else -0.5,
        ]
    )


def v_offset(offset) -> tuple[int, int, int]:
    """Validated V-list offset as a tuple of ints (a cache key)."""
    key = tuple(int(o) for o in offset)
    if max(abs(o) for o in key) < 2:
        raise ValueError(f"offset {offset} is adjacent; not a V-list pair")
    return key


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark a stored operator read-only: it is shared by every caller."""
    a.flags.writeable = False
    return a


class OperatorBases:
    """Unscaled operators of one configuration at one root side.

    Every table is keyed by ``(key level, ...)``.  In the shared store
    the key level is fixed (0, or 1 for the child level of M2M/L2L) and
    ``root_side`` is :data:`REFERENCE_ROOT_SIDE`; a cache of an
    inhomogeneous kernel keeps its own instance keyed by the real level
    at its real root side.  The FFT M2L spectra
    (:class:`~repro.core.fftm2l.FFTM2L`) live here too.
    """

    def __init__(self, root_side: float) -> None:
        self.root_side = float(root_side)
        self.uc2ue: dict = {}
        self.dc2de: dict = {}
        self.m2m: dict = {}
        self.l2l: dict = {}
        self.m2l: dict = {}
        self.m2l_rsvd: dict = {}
        self.m2l_rsvd_f32: dict = {}
        self.tensors: dict = {}
        self.combos_real: dict = {}

    def half_width(self, level: int) -> float:
        return self.root_side / (1 << level) / 2.0


# Least-recently-used store of shared bases, one entry per configuration.
# Rank threads of the simulated-MPI runtime may fill one entry
# concurrently; every operator is a pure function of its key (the rSVD
# seed is a function of the offset), so a duplicate fill stores the same
# values.
_STORE: OrderedDict[tuple, OperatorBases] = OrderedDict()


def shared_bases(
    kernel: Kernel, p: int, inner: float, outer: float, rcond: float
) -> OperatorBases:
    """The process-wide bases of one homogeneous-kernel configuration."""
    if kernel.homogeneity is None:
        raise ValueError(f"{kernel!r} is inhomogeneous; its operators are per level")
    key = (kernel, int(p), float(inner), float(outer), float(rcond))
    bases = _STORE.get(key)
    if bases is None:
        bases = _STORE.setdefault(key, OperatorBases(REFERENCE_ROOT_SIDE))
    else:
        _STORE.move_to_end(key)
    while len(_STORE) > STORE_CAPACITY:
        _STORE.popitem(last=False)
    return bases


class OperatorCache:
    """Per-level KIFMM operators of one tree, rescaled from shared bases.

    For homogeneous kernels the cache holds only its ``root_side``: each
    getter reads the configuration's unit-box base from the process-wide
    store (:func:`shared_bases`, factoring it on first use) and rescales
    it by ``a = half_width(level) / reference half-width``.  A second
    tree of the same configuration — another geometry, time step or
    served operator — therefore factors nothing.  The store keeps
    :data:`STORE_CAPACITY` configurations.  Inhomogeneous kernels are
    factored per level into this cache alone.  The kernel's homogeneity
    is read at call time, so the choice follows ``self.kernel``.

    Parameters
    ----------
    kernel:
        The interaction kernel.
    p:
        Surface discretisation order (points per cube edge); the paper's
        "degree of discretization for equivalent densities".
    root_side:
        Side length of the level-0 box, fixing physical scales.
    inner, outer:
        Surface radius factors (see :mod:`repro.core.surfaces`).
    rcond:
        Relative SVD cutoff of the regularised pseudo-inverses.
    """

    def __init__(
        self,
        kernel: Kernel,
        p: int,
        root_side: float,
        inner: float = INNER_RADIUS,
        outer: float = OUTER_RADIUS,
        rcond: float = 1e-12,
    ) -> None:
        if not 1.0 < inner < outer < 3.0:
            raise ValueError(
                f"surface radii must satisfy 1 < inner < outer < 3, "
                f"got inner={inner}, outer={outer}"
            )
        if root_side <= 0:
            raise ValueError(f"root_side must be positive, got {root_side}")
        self.kernel = kernel
        self.p = int(p)
        self.root_side = float(root_side)
        self.inner = float(inner)
        self.outer = float(outer)
        self.rcond = float(rcond)
        # Relative tolerance of the rSVD-compressed M2L factors, tied to
        # the inversion cutoff: the per-operator truncation noise sits a
        # decade below the square root of the pseudo-inverse
        # regularisation floor, leaving headroom for accumulation across
        # a box's full V list while staying well below the
        # p-discretisation error at the paper's operating points.
        self.rsvd_tol = float(0.1 * np.sqrt(self.rcond))
        self.n_surf = surface_grid(p).shape[0]
        self._local = OperatorBases(self.root_side)
        self._shared: tuple[Kernel, OperatorBases] | None = None

    # -- geometry ----------------------------------------------------------

    def half_width(self, level: int) -> float:
        """Half-width ``r`` of a box at ``level``."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        return self.root_side / (1 << level) / 2.0

    def up_equiv_points(self, center: np.ndarray, level: int) -> np.ndarray:
        return scaled_surface(self.p, center, self.half_width(level), self.inner)

    def up_check_points(self, center: np.ndarray, level: int) -> np.ndarray:
        return scaled_surface(self.p, center, self.half_width(level), self.outer)

    def down_equiv_points(self, center: np.ndarray, level: int) -> np.ndarray:
        return scaled_surface(self.p, center, self.half_width(level), self.outer)

    def down_check_points(self, center: np.ndarray, level: int) -> np.ndarray:
        return scaled_surface(self.p, center, self.half_width(level), self.inner)

    # -- bases and rescaling -----------------------------------------------

    def operator_bases(
        self, level: int, ref_level: int
    ) -> tuple[OperatorBases, int, float]:
        """Where the operators of ``level`` live: ``(bases, key, a)``.

        Homogeneous kernels read the shared bases at key level
        ``ref_level`` with half-width ratio ``a``; inhomogeneous ones
        this cache's own bases at key ``level`` with ``a = 1``.
        """
        kernel = self.kernel
        if kernel.homogeneity is None:
            return self._local, level, 1.0
        if self._shared is None or self._shared[0] is not kernel:
            self._shared = (
                kernel,
                shared_bases(kernel, self.p, self.inner, self.outer, self.rcond),
            )
        bases = self._shared[1]
        return bases, ref_level, self.half_width(level) / bases.half_width(ref_level)

    def rescale(self, base: np.ndarray, a: float, sign: int) -> np.ndarray:
        """``base * a**(sign * h)``: ``sign`` is +1 for evaluation
        matrices and -1 for pseudo-inverses."""
        if a == 1.0:
            return base
        return base * a ** (sign * self.kernel.homogeneity)

    # -- inversion operators -----------------------------------------------

    def uc2ue(self, level: int) -> np.ndarray:
        """Upward check potential -> upward equivalent density (eq. 2.1)."""
        bases, key, a = self.operator_bases(level, 0)
        op = bases.uc2ue.get(key)
        if op is None:
            r = bases.half_width(key)
            K = self.kernel.matrix(
                scaled_surface(self.p, np.zeros(3), r, self.outer),
                scaled_surface(self.p, np.zeros(3), r, self.inner),
            )
            op = bases.uc2ue[key] = freeze(regularized_pinv(K, self.rcond))
        return self.rescale(op, a, -1)

    def dc2de(self, level: int) -> np.ndarray:
        """Downward check potential -> downward equivalent density (eq. 2.2)."""
        bases, key, a = self.operator_bases(level, 0)
        op = bases.dc2de.get(key)
        if op is None:
            r = bases.half_width(key)
            K = self.kernel.matrix(
                scaled_surface(self.p, np.zeros(3), r, self.inner),
                scaled_surface(self.p, np.zeros(3), r, self.outer),
            )
            op = bases.dc2de[key] = freeze(regularized_pinv(K, self.rcond))
        return self.rescale(op, a, -1)

    # -- evaluation operators ------------------------------------------------

    def m2m_check(self, child_level: int, octant: int) -> np.ndarray:
        """Child upward equivalent density -> parent upward check potential.

        The first arrow of the M2M translation (Figure 2.2 left, eq. 2.3);
        the parent's ``uc2ue`` completes the translation after all child
        contributions are accumulated.
        """
        if child_level < 1:
            raise ValueError(f"child_level must be >= 1, got {child_level}")
        bases, key, a = self.operator_bases(child_level, 1)
        K = bases.m2m.get((key, octant))
        if K is None:
            parent_r = bases.half_width(key - 1)
            child_center = octant_offset(octant) * parent_r
            K = bases.m2m[(key, octant)] = freeze(
                self.kernel.matrix(
                    scaled_surface(self.p, np.zeros(3), parent_r, self.outer),
                    scaled_surface(
                        self.p, child_center, bases.half_width(key), self.inner
                    ),
                )
            )
        return self.rescale(K, a, 1)

    def l2l_check(self, child_level: int, octant: int) -> np.ndarray:
        """Parent downward equivalent density -> child downward check potential.

        First arrow of the L2L translation (Figure 2.2 right, eq. 2.5).
        """
        if child_level < 1:
            raise ValueError(f"child_level must be >= 1, got {child_level}")
        bases, key, a = self.operator_bases(child_level, 1)
        K = bases.l2l.get((key, octant))
        if K is None:
            parent_r = bases.half_width(key - 1)
            child_center = octant_offset(octant) * parent_r
            K = bases.l2l[(key, octant)] = freeze(
                self.kernel.matrix(
                    scaled_surface(
                        self.p, child_center, bases.half_width(key), self.inner
                    ),
                    scaled_surface(self.p, np.zeros(3), parent_r, self.outer),
                )
            )
        return self.rescale(K, a, 1)

    def _m2l_matrix(
        self, bases: OperatorBases, key: int, offset: tuple[int, int, int]
    ) -> np.ndarray:
        """Unscaled dense M2L matrix of one offset class at key level."""
        r = bases.half_width(key)
        delta = np.asarray(offset, dtype=np.float64) * (2.0 * r)
        return self.kernel.matrix(
            scaled_surface(self.p, delta, r, self.inner),
            scaled_surface(self.p, np.zeros(3), r, self.inner),
        )

    def m2l_check(self, level: int, offset: tuple[int, int, int]) -> np.ndarray:
        """Source upward equivalent density -> target downward check potential.

        First arrow of the M2L translation (Figure 2.2 middle, eq. 2.4) for
        a target box whose anchor is ``offset`` cells away from the source
        box at the same ``level``.  V-list offsets have at least one
        component of magnitude 2 or 3.
        """
        offset = v_offset(offset)
        bases, key, a = self.operator_bases(level, 0)
        K = bases.m2l.get((key, offset))
        if K is None:
            K = bases.m2l[(key, offset)] = freeze(
                self._m2l_matrix(bases, key, offset)
            )
        return self.rescale(K, a, 1)

    def _m2l_rsvd_base(
        self, level: int, offset: tuple[int, int, int]
    ) -> tuple[OperatorBases, int, float, tuple[np.ndarray, np.ndarray]]:
        """Unscaled rSVD factors ``(uf, vf)`` of one offset class.

        ``uf = u * s`` is ``(n_surf * target_dof, k)`` and ``vf = vt`` is
        ``(k, n_surf * source_dof)``, so the key-level dense M2L matrix
        is ``≈ uf @ vf`` to the cache's ``rsvd_tol``.  That matrix is
        built transiently; only the factors are kept.  The sketch seed
        is a base-7 encoding of the offset (components lie in [-3, 3]),
        making the factors a pure function of the offset class —
        bitwise identical across setups, call orders and processes.
        Returns ``(bases, key, a, factors)`` as :meth:`operator_bases`.
        """
        offset = v_offset(offset)
        bases, key, a = self.operator_bases(level, 0)
        factors = bases.m2l_rsvd.get((key, offset))
        if factors is None:
            o0, o1, o2 = offset
            seed = 1 + (o0 + 3) * 49 + (o1 + 3) * 7 + (o2 + 3)
            u, s, vt = randomized_svd(
                self._m2l_matrix(bases, key, offset), self.rsvd_tol, seed=seed
            )
            factors = bases.m2l_rsvd[(key, offset)] = (
                freeze(u * s),
                freeze(vt),
            )
        return bases, key, a, factors

    def m2l_rsvd(
        self,
        level: int,
        offset: tuple[int, int, int],
        dtype: str = "float64",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compressed M2L factors: ``m2l_check(level, offset) ≈ uf @ vf``.

        The rSVD backend applies a V-list class as two stacked BLAS-3
        GEMMs, ``(ue @ vf.T) @ uf.T``.  Homogeneous kernels rescale like
        :meth:`m2l_check`, with the level factor folded into ``uf``.
        ``dtype="float32"`` returns single-precision factors — the
        mixed-precision mode's declared narrowing; accumulation into the
        downward-check buffers stays float64 at the call sites.
        """
        if dtype not in ("float64", "float32"):
            raise ValueError(
                f"m2l_rsvd dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        offset = v_offset(offset)
        bases, key, a, (uf, vf) = self._m2l_rsvd_base(level, offset)
        if dtype == "float64":
            return self.rescale(uf, a, 1), vf
        f32 = bases.m2l_rsvd_f32.get((key, offset))
        if f32 is None:
            f32 = bases.m2l_rsvd_f32[(key, offset)] = (
                freeze(uf.astype(np.float32)),  # lint: allow(dtype-width)
                freeze(vf.astype(np.float32)),  # lint: allow(dtype-width)
            )
        uf32, vf32 = f32
        if a == 1.0:
            return uf32, vf32
        return uf32 * np.float32(a ** self.kernel.homogeneity), vf32

    def m2l_rsvd_rank(self, level: int, offset: tuple[int, int, int]) -> int:
        """Compression rank of one offset class (dtype independent)."""
        return int(self._m2l_rsvd_base(level, offset)[3][1].shape[0])
