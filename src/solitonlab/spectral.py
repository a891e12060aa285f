"""The periodic spectral Laplacian and the screened-Poisson solver.

Two independent routes are provided for the static scalar field:

- yukawa_invert: spectral division by -(k^2 + m^2), exact for the
  trigonometric interpolant of the source.
- yukawa_convolve_direct: real-space quadrature of the Green-function
  convolution. The kernel is singular (kinked in 1D, 1/r in 3D), so a plain
  node-sampled sum would be second order and useless as a 1e-6 oracle;
  instead each lattice cell integrates the kernel against a degree-7
  local Lagrange model of the source (product integration). The two routes
  share only numpy's DFT, which the direct route calls as a black box to
  apply its weights; that is what makes their agreement a meaningful
  cross-check.

The spectral operators run plain forward/inverse numpy.fft transform
pairs, so the normalization convention cancels. transforms(grid) picks
them for a grid: the 1D calls on a 1D grid, the n-D ones otherwise. They
are looked up on the numpy.fft module when it is called, not bound at
import.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import numpy.fft  # numpy loads it lazily; here, not inside the first run

from .model import Grid

__all__ = [
    "laplacian",
    "yukawa_invert",
    "yukawa_convolve_direct",
    "MAX_DIRECT_POINTS",
]

# The weight build sets the limit. At the 3D acceptance size 32^3 = 2^15 a
# cold build takes about 0.025 s (2-core Xeon, OpenBLAS) and peaks at
# 2.9 MB traced, and its time grows faster than the lattice; the apply,
# three real transforms, takes under 1 ms. Anything larger is rejected.
MAX_DIRECT_POINTS = 2**15


class Transforms(NamedTuple):
    """numpy.fft transforms over every axis of one grid.

    fft, ifft and rfft take the field; irfft takes a half spectrum and
    returns the real field on the grid. Each takes numpy's out=.
    rfft and irfft act on the trailing grid axes, so a stack of fields
    transforms in one call.
    """

    fft: Callable[..., np.ndarray]
    ifft: Callable[..., np.ndarray]
    rfft: Callable[..., np.ndarray]
    irfft: Callable[..., np.ndarray]


def transforms(grid: Grid) -> Transforms:
    """The grid's transforms, looked up on numpy.fft now.

    A 1D grid gets the 1D calls: numpy's n-D wrappers cost about 10 us
    more per call, which is noticeable at the few hundred us of a step.
    """
    fft = np.fft
    if grid.dim == 1:
        return Transforms(fft.fft, fft.ifft, fft.rfft,
                          functools.partial(fft.irfft, n=grid.n))
    axes = tuple(range(-grid.dim, 0))
    return Transforms(fft.fftn, fft.ifftn,
                      functools.partial(fft.rfftn, axes=axes),
                      functools.partial(fft.irfftn, s=grid.shape, axes=axes))


def laplacian(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral Laplacian over all grid axes.

    A real field takes the real-to-complex path: the real transform, the
    multiplier -k^2 on the half spectrum (grid.rfft_k_squared), its
    inverse. It returns a
    contiguous float64 array and costs about two thirds of the complex
    transform pair. A complex field takes the full complex pair.
    """
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} does not match grid {grid.shape}")
    tr = transforms(grid)
    if np.iscomplexobj(field):
        return tr.ifft(tr.fft(field) * (-grid.k_squared))
    hat = tr.rfft(field)
    hat *= grid.rfft_k_squared
    hat *= -1.0
    return tr.irfft(hat)


def screened_inverse(m: float, grid: Grid) -> np.ndarray:
    """The rfft half-spectrum multiplier -1/(k^2 + m^2) of (Lap - m^2)^-1.

    m = 0 would leave the k = 0 mode non-invertible and is rejected.
    """
    if m <= 0.0:
        raise ValueError(f"scalar mass must be positive, got {m}")
    return -1.0 / (m * m + grid.rfft_k_squared)


def yukawa_invert(source: np.ndarray, m: float, grid: Grid) -> np.ndarray:
    """Solve (Lap - m^2) phi = source on the periodic lattice, spectrally,
    under the multiplier screened_inverse(m, grid).

    The operator is negative definite for m > 0; the result is real for
    real sources and everywhere <= 0 for sources >= 0.
    """
    multiplier = screened_inverse(m, grid)
    if source.shape != grid.shape:
        raise ValueError(f"source shape {source.shape} does not match grid {grid.shape}")
    if np.iscomplexobj(source):
        raise ValueError("source must be real-valued")
    tr = transforms(grid)
    hat = tr.rfft(source)
    hat *= multiplier
    return tr.irfft(hat)


# ---------------------------------------------------------------------------
# direct product-integration route


def yukawa_convolve_direct(source: np.ndarray, m: float, grid: Grid) -> np.ndarray:
    """Solve (Lap - m^2) phi = source by direct Green-function quadrature.

    Independent oracle for yukawa_invert: convolves the source with the
    periodic screened-Coulomb kernel (cosh closed form in 1D, minimum-image
    exp(-m r)/(4 pi r) in 3D) using per-cell product integration. The
    weights are applied as a circulant correlation through three real
    transforms (_circulant_apply), O(points log points); numpy's DFT is
    the only part shared with yukawa_invert, which never reads these
    weights.
    Guarded to MAX_DIRECT_POINTS total points, and in 3D to m L >= 10:
    the periodic images past the first shell are dropped.
    """
    if m <= 0.0:
        raise ValueError(f"scalar mass must be positive, got {m}")
    if grid.dim == 3 and m * grid.length < 10.0:
        raise ValueError(
            f"3D direct convolution needs m*L >= 10, got m={m}, "
            f"L={grid.length}, m*L={m * grid.length}")
    if source.shape != grid.shape:
        raise ValueError(f"source shape {source.shape} does not match grid {grid.shape}")
    if np.iscomplexobj(source):
        raise ValueError("source must be real-valued")
    if source.size > MAX_DIRECT_POINTS:
        raise ValueError(
            f"direct convolution limited to {MAX_DIRECT_POINTS} points, "
            f"got {source.size}")
    w = _direct_weights(grid.dim, grid.n, float(grid.length), float(m))
    return -_circulant_apply(w, np.asarray(source, dtype=float))


_P = 8            # Lagrange stencil size per axis (degree 7)
_HALF = _P // 2 - 1   # stencil spans nodes [-3 .. 4] around the cell [0, 1]
# sorted triples per block of _bulk_table: 64 KiB per float array, so a
# block's working set stays in a core's L2 cache
_BULK_BLOCK = 8192
# last indices of the bulk table gathered per matmul in the 3D build:
# at 32^3 one slab is 96 x 96 x 4 floats (0.3 MB)
_BULK_SLAB = 4
# bytes per (rows, q) Gauss-point array in the 1D weight build: one chunk
# up to n = 6553, the default n_1d = 128 included. At n = 32768 a 1 MiB
# chunk peaks at 6.6 MB traced (2 MiB: 10.9 MB, one chunk: 18.4 MB) at the
# same speed
_WEIGHT_CHUNK_BYTES = 2**20


@functools.lru_cache(maxsize=8)
def _direct_weights(dim: int, n: int, length: float, m: float) -> np.ndarray:
    """Cached, read-only weight table for one (dim, n, length, m)."""
    if dim == 1:
        w = _direct_weights_1d(n, length, m)
    else:
        w = _direct_weights_3d(n, length, m)
    w.flags.writeable = False
    return w


def _lagrange_basis(tau: np.ndarray) -> np.ndarray:
    """Degree-7 Lagrange basis at positions tau, nodes at integers -3..4."""
    nodes = np.arange(_P) - _HALF
    tau = np.asarray(tau, dtype=float)
    B = np.ones((tau.size, _P))
    for a in range(_P):
        for b in range(_P):
            if b != a:
                B[:, a] *= (tau - nodes[b]) / (nodes[a] - nodes[b])
    return B


def _gauss01(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of q points on [0, 1], nodes ascending: Newton
    steps on P_q from Tricomi's guesses for the roots x > 0, weights
    2 / ((1 - x^2) P_q'(x)^2), mirrored onto x < 0. No eigenvalue solve,
    so no LAPACK call (Hale & Townsend, SIAM J. Sci. Comput. 35, A652).
    q is even: no node sits at x = 0."""
    if q % 2:
        raise ValueError(f"Gauss rule needs an even point count, got {q}")
    k = np.arange(1, q // 2 + 1)
    x = (1.0 - (q - 1) / (8.0 * q**3)) * np.cos(
        np.pi * (4 * k - 1) / (4 * q + 2))
    for _ in range(100):
        p, dp = _legendre(q, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() < 1e-15:
            break
    _, dp = _legendre(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = np.concatenate((-x, x[::-1]))
    w = np.concatenate((w, w[::-1]))
    return 0.5 * (x + 1.0), 0.5 * w


def _legendre(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_q(x) and P_q'(x) for |x| < 1, by the three-term recurrence."""
    prev, p = np.ones_like(x), x
    for j in range(1, q):
        prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
    return p, q * (prev - x * p) / (1.0 - x * x)


def _direct_weights_1d(n: int, length: float, m: float) -> np.ndarray:
    """Quadrature weights w[d] with phi_i = -sum_j w[(j - i) mod n] s_j.

    The 1D periodic kernel of (m^2 - d2/dx2) is closed form,
    cosh(m(L/2 - |x|)) / (2 m sinh(mL/2)); its kink always falls on a cell
    boundary, so plain Gauss per cell sees a smooth integrand. The
    Gauss-point arrays are built in row chunks of _WEIGHT_CHUNK_BYTES; each
    row's products are those of the whole build.
    """
    dx = length / n
    q = 20  # Gauss points per cell
    tau, om = _gauss01(q)
    B = _lagrange_basis(tau)                              # (q, P)
    w = np.zeros(n)
    sh = np.sinh(0.5 * m * length)
    contrib = np.empty((n, _P))
    step = max(1, _WEIGHT_CHUNK_BYTES // (8 * q))
    for i in range(0, n, step):
        e = np.arange(i, min(i + step, n))[:, None]       # cell corner minus node
        arg = (e + tau[None, :] + n / 2) % n - n / 2      # lattice units, min image
        K = np.cosh(m * (0.5 * length - np.abs(arg) * dx)) / (2.0 * m * sh)
        contrib[i:i + step] = (K * om[None, :]) @ B       # (rows, P)
    idx = np.arange(n)
    for a in range(_P):
        np.add.at(w, (idx - _HALF + a) % n, dx * contrib[:, a])
    return w


def _direct_weights_3d(n: int, length: float, m: float) -> np.ndarray:
    """3D analogue of _direct_weights_1d for the kernel exp(-mr)/(4 pi r).

    Cells are classified by their corner offset from the target node:
    the 8 cells touching the singularity get a Duffy-transformed rule
    (the tau^2 Jacobian of xi = tau*(1, u, v) cancels the 1/r), the
    surrounding 4^3-block shell gets dense tensor Gauss, and the smooth
    bulk gets q=6 tensor Gauss. The first shell of periodic images is
    summed with the bulk rule (those terms stay a distance >= L/2 from the
    singularity, so they are smooth on every cell); images beyond it are
    below e^(-3mL/2) and ignored, so yukawa_convolve_direct refuses
    domains shorter than 10/m.

    Kernel, image shell and every rule are even in each axis and unchanged
    when the axes are permuted, so each part is computed once per symmetry
    class. The bulk (_bulk_weights) is built on the nodes at |offset|
    0 .. n/2 and mirrored onto the others. The shell is built from its
    cells (1,0,0), (0,1,1) and (1,1,1), the corners from one Duffy pyramid
    (_corner_cell); transposes and mirrors place each block in its other
    cells. Each weight of the finished table is
    read from its representative at sorted |offset|s: the table is exactly,
    bitwise, even along each axis and symmetric under axis permutation.
    """
    dx = length / n
    q_bulk, q_shell, q_corner = 6, 16, 16  # Gauss points per axis
    offset = np.arange(n)
    offset = np.minimum(offset, n - offset)

    def kernel(r: np.ndarray) -> np.ndarray:
        return np.exp(-m * r) / (4.0 * np.pi * r)

    def place(block: np.ndarray, cell: tuple[int, ...]) -> None:
        # block belongs to the cell at offsets cell (each 0 or 1); add it
        # mirrored into every octant, cell c on the negative side at -1-c
        for signs in itertools.product((1, -1), repeat=3):
            ix = [((c if s > 0 else -1 - c) - _HALF + np.arange(_P)) % n
                  for c, s in zip(cell, signs)]
            w[np.ix_(*ix)] += block[::signs[0], ::signs[1], ::signs[2]]

    # the bulk on the representative offsets, mirrored onto the lattice
    w = _bulk_weights(n, length, m, kernel, q_bulk)[
        np.ix_(offset, offset, offset)]

    # shell: the 4^3 block minus the 8 corner cells
    ts, os_ = _gauss01(q_shell)
    Bs = _lagrange_basis(ts)
    ww = os_[:, None, None] * os_[None, :, None] * os_[None, None, :]
    for cell in ((1, 0, 0), (0, 1, 1), (1, 1, 1)):
        y1, y2, y3 = ((ci + ts) * dx for ci in cell)
        r = np.sqrt(y1[:, None, None] ** 2 + y2[None, :, None] ** 2
                    + y3[None, None, :] ** 2)
        C = np.tensordot(Bs, kernel(r) * ww * dx**3, axes=([0], [0]))
        C = np.tensordot(C, Bs, axes=([1], [0]))
        C = np.tensordot(C, Bs, axes=([1], [0]))
        # (1,1,1) is its own transpose, the other two have three placements
        for perm in _AXIS_PLACEMENTS[:1 if cell == (1, 1, 1) else 3]:
            place(C.transpose(perm), tuple(cell[p] for p in perm))

    place(_corner_cell(m, dx, q_corner), (0, 0, 0))
    i, j, k = np.ix_(offset, offset, offset)
    lo, hi = np.minimum(np.minimum(i, j), k), np.maximum(np.maximum(i, j), k)
    return w[lo, i + j + k - lo - hi, hi]


def _bulk_weights(n: int, length: float, m: float,
                  kernel: Callable[[np.ndarray], np.ndarray],
                  q_bulk: int) -> np.ndarray:
    """Bulk part of the 3D weights on the nodes at |offset| 0 .. n/2 per
    axis, (n/2 + 1)^3: q_bulk tensor Gauss on every cell of the direct
    term outside the 4^3 special block and of the first-shell images. The
    bulk is even in each axis, so these rows hold every value.

    The integrand is sampled on the distinct offsets y = (e + tb) dx,
    e = 0 .. n/2 - 1, and kept packed, one value per sorted index triple
    (1.2 MB at 32^3). One (n/2 + 1, n/2 q_bulk) matrix A maps an axis of
    samples onto the nodes 0 .. n/2: sample t of cell e enters node
    e + a - _HALF through basis a, and the mirrored cell -1-e enters node
    -1-e + a - _HALF (mod n) at sample q-1-t. The table is gathered
    _BULK_SLAB last indices at a time, at the ranks of the sorted triples,
    and contracted over its first two axes; the last axis is contracted
    once every slab is in. So no whole table or first contraction is
    formed, and every matmul keeps the whole dot product over the axis it
    contracts.
    """
    dx = length / n
    tb, ob = _gauss01(q_bulk)
    half = n // 2
    y = (np.arange(half)[:, None] + tb[None, :]).ravel() * dx
    packed = _bulk_table(y, length, m, kernel, 2 * q_bulk)
    c = _lagrange_basis(tb) * ob[:, None]                 # (q, P)
    A = np.zeros((n, half, q_bulk))
    e = np.arange(half)
    for a in range(_P):
        A[(e + a - _HALF) % n, e] += c[:, a]
        A[(a - _HALF - 1 - e) % n, e] += c[::-1, a]
    A = A[:half + 1].reshape(half + 1, -1)
    # ranks in int32, half the traffic of int64: n <= 32 under
    # MAX_DIRECT_POINTS, so at most 96 indices and ranks below 2^18
    size = y.size
    idx = np.arange(size, dtype=np.int32)
    tri, tet = idx * (idx + 1) // 2, idx * (idx + 1) * (idx + 2) // 6
    lo, hi = np.minimum.outer(idx, idx), np.maximum.outer(idx, idx)
    # (i, j, k) sorts to (lo, hi, k) on [:e, :e], e = k + 1, to (k, lo, hi)
    # on [e:, e:] and to (lo, k, hi) off the diagonal blocks
    top, bottom, off = tri[hi] + lo, tet[hi] + tri[lo], tet[hi] + lo
    T = np.empty((half + 1, half + 1, size))
    for k in range(0, size, _BULK_SLAB):
        rank = np.empty((size, size, _BULK_SLAB), dtype=np.int32)
        for e, r in enumerate(rank.transpose(2, 0, 1), k + 1):
            np.add(off, tri[e - 1], out=r)
            np.add(top[:e, :e], tet[e - 1], out=r[:e, :e])
            np.add(bottom[e:, e:], e - 1, out=r[e:, e:])
        first = (A @ packed.take(rank).reshape(size, -1)).reshape(
            half + 1, size, -1)
        T[:, :, k:k + _BULK_SLAB] = A @ first
    return T @ A.T * dx**3


# block.transpose(p) moves axis 0 to axis 0, 1, 2 (blocks alike in 1 and 2)
_AXIS_PLACEMENTS = ((0, 1, 2), (1, 0, 2), (1, 2, 0))


def _corner_cell(m: float, dx: float, q: int) -> np.ndarray:
    """Weights (P, P, P) of the corner cell [0, dx]^3 on its stencil nodes.

    Duffy split into 3 pyramids along the largest coordinate: the one with
    it along axis 0 is the q^3 points at (T, T*U, T*V), contracted over v,
    then u, then t (the basis at T*U, which T*V shares, on q^2 points); the
    other two are its transposes. The other seven corner cells mirror it.
    """
    td, od = _gauss01(q)
    T, U, V = td[:, None, None], td[None, :, None], td[None, None, :]
    WT = od[:, None, None] * od[None, :, None] * od[None, None, :]
    R = np.sqrt(1.0 + U**2 + V**2)
    core = T * np.exp(-m * dx * T * R) / (4.0 * np.pi * R) * WT * dx**2
    B = _lagrange_basis(np.outer(td, td).ravel()).reshape(q, q, _P)  # at T*U
    P = np.tensordot(_lagrange_basis(td), B.transpose(0, 2, 1) @ (core @ B),
                     axes=(0, 0))
    return sum(P.transpose(p) for p in _AXIS_PLACEMENTS)


def _bulk_table(y: np.ndarray, length: float, m: float,
                kernel: Callable[[np.ndarray], np.ndarray],
                special: int) -> np.ndarray:
    """Bulk integrand on y^3: the direct term, left out where all three
    indices are below special (the 4^3 special block, whose cells the shell
    and corner rules cover), plus the 26 first-shell images.

    Evaluated on the sorted triples a <= b <= c only, and returned packed
    in their rank order (by c, then b, then a): triple (a, b, c) is entry
    c(c+1)(c+2)/6 + b(b+1)/2 + a. Each block of _BULK_BLOCK ranks finds
    its triples from the ranks, gathers (y + v L)^2 once per axis and forms
    each (v1, v2) partial sum once for the v3 that share it; each value
    takes the direct term first, then the images in (v1, v2, v3) order.
    """
    size = y.size
    # the pairs a <= b <= c are the first (c+1)(c+2)/2 pairs of
    # tril_indices; tetra[c] triples have a largest index below c
    pairs_b, pairs_a = np.tril_indices(size)      # a <= b, by b then a
    idx = np.arange(size + 1)
    tetra = idx * (idx + 1) * (idx + 2) // 6
    # row v holds shift v (row -1 is the last)
    y_sq = np.stack([(y + v * length) ** 2 for v in (0, 1, -1)])
    images = [v for v in itertools.product((-1, 0, 1), repeat=3)
              if any(v) and m * length * np.sqrt(np.count_nonzero(v)) <= 80.0]
    packed = np.empty(tetra[size])
    for start in range(0, packed.size, _BULK_BLOCK):
        rank = np.arange(start, min(start + _BULK_BLOCK, packed.size))
        c = np.searchsorted(tetra, rank, side="right") - 1
        pos = rank - tetra[c]
        sq1, sq2, sq3 = (y_sq[:, i] for i in (pairs_a[pos], pairs_b[pos], c))
        pair, pair_v = sq1[0] + sq2[0], (0, 0)
        vals = packed[start:start + rank.size]
        vals[:] = kernel(np.sqrt(pair + sq3[0]))
        vals[c < special] = 0.0
        for v1, v2, v3 in images:
            if (v1, v2) != pair_v:
                pair, pair_v = sq1[v1] + sq2[v2], (v1, v2)
            vals += kernel(np.sqrt(pair + sq3[v3]))
    return packed


def _circulant_apply(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Circulant apply out_i = sum_j w[(j - i) mod n per axis] s_j.

    The correlation of s with w, through the convolution theorem: the
    circulant matrix is diagonal in the DFT basis (Davis, Circulant
    Matrices, 1979), so out = irfftn(rfftn(s) conj(rfftn(w))), three real
    transforms over every axis, any n and any real w.
    """
    hat = np.fft.rfftn(s)
    w_hat = np.fft.rfftn(w)
    hat *= np.conjugate(w_hat, out=w_hat)
    del w_hat  # freed before the inverse transform allocates
    return np.fft.irfftn(hat, s=s.shape, axes=range(s.ndim))
