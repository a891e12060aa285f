"""Spectral derivatives and the two screened-Poisson routes."""

from __future__ import annotations

import itertools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import erfc

from solitonlab import spectral
from solitonlab.model import Grid, make_grid
from solitonlab.spectral import (
    _BULK_SLAB, _HALF, _P, MAX_DIRECT_POINTS, _bulk_table, _bulk_weights,
    _circulant_apply, _corner_cell,
    _direct_weights, _direct_weights_1d, _direct_weights_3d, _gauss01,
    _lagrange_basis, laplacian,
    yukawa_convolve_direct, yukawa_invert,
)

RNG = np.random.default_rng(42)


def wrapped_gaussians(grid, rng, count=4, sig_lo=6.0, sig_hi=8.0):
    """Random smooth periodic source: image-summed Gaussians, sigma in units
    of the grid spacing."""
    L = grid.length
    out = np.zeros(grid.shape)
    for _ in range(count):
        c = rng.uniform(-L / 2, L / 2, size=grid.dim)
        sig = rng.uniform(sig_lo, sig_hi) * grid.spacing
        amp = rng.uniform(-1.0, 1.0)
        for shifts in np.ndindex(*(3,) * grid.dim):
            r2 = np.zeros(grid.shape)
            for ax, (x, s) in enumerate(zip(grid.coords, shifts)):
                r2 = r2 + (x - c[ax] + (s - 1) * L) ** 2
            out += amp * np.exp(-0.5 * r2 / sig**2)
    return out


def gather_apply(w, s, chunk=256, targets=None):
    """Reference circulant apply out_i = sum_j w[(j - i) mod n per axis] s_j
    by an explicit flat-index gather, one block of target points at a time;
    at the given flat targets only (then flat), else at every point."""
    shape = s.shape
    n = shape[0]
    N = s.size
    grids = np.indices(shape).reshape(s.ndim, N).astype(np.int32)
    strides = np.array([int(np.prod(shape[a + 1:], dtype=int))
                        for a in range(s.ndim)], dtype=np.int32)
    rows = np.arange(N) if targets is None else np.asarray(targets)
    out = np.empty(rows.size)
    for lo in range(0, rows.size, chunk):
        block = rows[lo:lo + chunk]
        flat = np.zeros((block.size, N), dtype=np.int32)
        for a in range(s.ndim):
            flat += ((grids[a][None, :] - grids[a][block, None]) % n) \
                * strides[a]
        out[lo:lo + chunk] = w.ravel()[flat] @ s.ravel()
    return out.reshape(shape) if targets is None else out


def even_table(w):
    """w plus its mirror along each axis: bitwise even along every axis."""
    mirror = -np.arange(w.shape[0]) % w.shape[0]
    for axis in range(w.ndim):
        w = w + np.take(w, mirror, axis=axis)
    return w


def pyramid_corner_cells(m, dx, q):
    """The 8 corner cells {signs: (P, P, P) block} as 24 pyramid products:
    per cell, the Duffy pyramid with its largest coordinate along each axis
    in turn, the basis read at 1 - xi on an axis of sign -1."""
    td, od = _gauss01(q)
    T = td[:, None, None] * np.ones((1, q, q))
    U = td[None, :, None] * np.ones((q, 1, q))
    V = td[None, None, :] * np.ones((q, q, 1))
    WT = od[:, None, None] * od[None, :, None] * od[None, None, :]
    R = np.sqrt(1.0 + U**2 + V**2)
    core = (T * np.exp(-m * dx * T * R) / (4.0 * np.pi * R) * WT * dx**2).ravel()
    xis = (T.ravel(), (T * U).ravel(), (T * V).ravel())
    basis = {(k, s): _lagrange_basis(xi if s > 0 else 1.0 - xi)
             for k, xi in enumerate(xis) for s in (1, -1)}
    cells = {}
    for signs in itertools.product((1, -1), repeat=3):
        acc = np.zeros((_P, _P * _P))
        for k1, k2, k3 in ((0, 1, 2), (1, 0, 2), (1, 2, 0)):
            B23 = basis[k2, signs[1]][:, :, None] * basis[k3, signs[2]][:, None, :]
            acc += (core[:, None] * basis[k1, signs[0]]).T \
                @ B23.reshape(-1, _P * _P)
        cells[signs] = acc.reshape(_P, _P, _P)
    return cells


def per_cell_weights_3d(n, length, m, q_bulk=6, q_shell=16, q_corner=16):
    """Reference 3D weight build, one cell at a time: the bulk contracted
    per axis by per-cell basis products and a roll-and-sum onto the nodes,
    each of the 56 shell cells by its own tensor Gauss rule, the corner
    cells by pyramid_corner_cells. Same rule as _direct_weights_3d."""
    dx = length / n
    w = np.zeros((n, n, n))

    def kernel(r):
        return np.exp(-m * r) / (4.0 * np.pi * r)

    def scatter(block, e1, e2, e3):
        ix = [(e - _HALF + np.arange(_P)) % n for e in (e1, e2, e3)]
        w[np.ix_(*ix)] += block

    tb, ob = _gauss01(q_bulk)
    half = n // 2
    y = (np.arange(half)[:, None] + tb[None, :]).ravel() * dx
    T = expand_by_rank(_bulk_table(y, length, m, kernel, 2 * q_bulk), y.size)
    c = (_lagrange_basis(tb) * ob[:, None]).T
    for _ in range(3):
        rest = T.shape[1:]
        cells = T.reshape(half, q_bulk, -1)
        per_cell = np.empty((n, _P, cells.shape[-1]))
        np.matmul(c, cells, out=per_cell[:half])
        per_cell[half:] = (c[:, ::-1] @ cells)[::-1]
        T = sum(np.roll(per_cell[:, a], a - _HALF, axis=0) for a in range(_P))
        T = np.moveaxis(T.reshape((n,) + rest), 0, -1)
    w += T * dx**3

    ts, os_ = _gauss01(q_shell)
    Bs = _lagrange_basis(ts)
    ww = os_[:, None, None] * os_[None, :, None] * os_[None, None, :]
    for e1, e2, e3 in itertools.product((-2, -1, 0, 1), repeat=3):
        if {e1, e2, e3} <= {-1, 0}:
            continue
        y1, y2, y3 = ((e + ts) * dx for e in (e1, e2, e3))
        r = np.sqrt(y1[:, None, None] ** 2 + y2[None, :, None] ** 2
                    + y3[None, None, :] ** 2)
        C = np.tensordot(kernel(r) * ww * dx**3, Bs, axes=([2], [0]))
        C = np.tensordot(C, Bs, axes=([1], [0]))
        C = np.tensordot(C, Bs, axes=([0], [0]))
        scatter(np.moveaxis(C, (0, 1, 2), (2, 1, 0)), e1, e2, e3)

    for signs, block in pyramid_corner_cells(m, dx, q_corner).items():
        scatter(block, *(0 if s > 0 else -1 for s in signs))
    offset = np.arange(n)
    offset = np.minimum(offset, n - offset)
    return w[min_mid_max(*np.ix_(offset, offset, offset))]


def min_mid_max(i, j, k):
    """Elementwise smallest, middle and largest of three broadcastable
    integer arrays."""
    lo = np.minimum(np.minimum(i, j), k)
    hi = np.maximum(np.maximum(i, j), k)
    return lo, i + j + k - lo - hi, hi


def triangular_numbers(size):
    """tri[b] = b(b+1)/2 pairs a <= b' below b, and tetra[c] =
    c(c+1)(c+2)/6 sorted triples a <= b <= c' below c, for indices < size."""
    idx = np.arange(size, dtype=np.int32)
    return idx * (idx + 1) // 2, idx * (idx + 1) * (idx + 2) // 6


def expand_by_rank(packed, size):
    """The size^3 table of values packed one per sorted triple, ordered by
    c, then b, then a: (a, b, c) has rank tetra[c] + tri[b] + a."""
    tri, tetra = triangular_numbers(size)
    idx = np.arange(size)
    lo, mid, hi = min_mid_max(*np.ix_(idx, idx, idx))
    return packed[tetra[hi] + tri[mid] + lo]


def expanded_bulk_weights(n, length, m, kernel, q_bulk=6):
    """Reference bulk weights: the packed table expanded whole by
    expand_by_rank, then contracted _BULK_SLAB last indices at a time with
    the same matrix A and matmuls as _bulk_weights."""
    dx = length / n
    tb, ob = _gauss01(q_bulk)
    half = n // 2
    y = (np.arange(half)[:, None] + tb[None, :]).ravel() * dx
    table = expand_by_rank(_bulk_table(y, length, m, kernel, 2 * q_bulk),
                           y.size)
    c = _lagrange_basis(tb) * ob[:, None]
    A = np.zeros((n, half, q_bulk))
    e = np.arange(half)
    for a in range(_P):
        A[(e + a - _HALF) % n, e] += c[:, a]
        A[(a - _HALF - 1 - e) % n, e] += c[::-1, a]
    A = A[:half + 1].reshape(half + 1, -1)
    T = np.empty((half + 1, half + 1, y.size))
    for k in range(0, y.size, _BULK_SLAB):
        slab = np.ascontiguousarray(table[:, :, k:k + _BULK_SLAB])
        first = (A @ slab.reshape(y.size, -1)).reshape(half + 1, y.size, -1)
        T[:, :, k:k + _BULK_SLAB] = A @ first
    return T @ A.T * dx**3


def rank_map_bulk_table(y, length, m, kernel, special):
    """Reference bulk table: every sorted triple in one pass, the sum of the
    direct term and the images over all triples at once, expanded to y^3
    by expand_by_rank. Same rule and the same operations per value as
    _bulk_table."""
    size = y.size
    idx = np.arange(size, dtype=np.int32)
    tri, tetra = triangular_numbers(size)
    per_max = tri + idx + 1
    pairs_b, pairs_a = np.tril_indices(size)
    c = np.repeat(idx, per_max)
    pos = np.arange(c.size) - np.repeat(tetra, per_max)
    y_sq = {v: (y + v * length) ** 2 for v in (-1, 0, 1)}
    sq = [{v: y_sq[v][i] for v in (-1, 0, 1)}
          for i in (pairs_a[pos], pairs_b[pos], c)]
    vals = kernel(np.sqrt(sq[0][0] + sq[1][0] + sq[2][0]))
    vals[c < special] = 0.0
    for v1 in (-1, 0, 1):
        for v2 in (-1, 0, 1):
            for v3 in (-1, 0, 1):
                nnz = abs(v1) + abs(v2) + abs(v3)
                if nnz == 0 or m * length * np.sqrt(nnz) > 80.0:
                    continue
                vals += kernel(np.sqrt(sq[0][v1] + sq[1][v2] + sq[2][v3]))
    return expand_by_rank(vals, size)


class TestSpectralDerivative:
    def test_sech_second_derivative_closed_form(self):
        # (sech(a x))'' = a^2 (sech - 2 sech^3)(a x); domain long enough that
        # the wrap seam sits below the tolerance
        a = 1.0
        g = make_grid(1, 1024, 60.0)
        s = 1.0 / np.cosh(a * g.axis)
        np.testing.assert_allclose(laplacian(s, g), a * a * (s - 2.0 * s**3),
                                   atol=1e-8)

    def test_plane_wave_laplacian(self):
        g = make_grid(1, 64, 16.0)
        k = 2.0 * np.pi * 5 / 16.0
        f = np.exp(1j * k * g.axis)
        np.testing.assert_allclose(laplacian(f, g), -k * k * f, atol=1e-11)

    @pytest.mark.parametrize("grid", [
        make_grid(1, 1024, 40.0),
        make_grid(3, 16, 8.0),
        make_grid(1, 512, 30.0, transverse_mode=(0.3, 0.4)),
    ], ids=["1d", "3d", "quasi-1d"])
    def test_real_field_laplacian_matches_complex_transform(self, grid):
        f = wrapped_gaussians(grid, RNG, sig_lo=2.0, sig_hi=4.0)
        out = laplacian(f, grid)
        assert out.dtype == np.float64
        ref = np.fft.ifftn(np.fft.fftn(f) * (-grid.k_squared)).real
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestYukawaInvert:
    def test_constant_source_identity(self):
        # k = 0 mode: phi = -s0/m^2
        g = make_grid(1, 128, 32.0)
        phi = yukawa_invert(np.full(128, 0.7), m=1.3, grid=g)
        np.testing.assert_allclose(phi, -0.7 / 1.3**2, rtol=0, atol=1e-12)

    def test_rejects_nonpositive_mass(self):
        g = make_grid(1, 64, 16.0)
        with pytest.raises(ValueError, match="mass"):
            yukawa_invert(np.zeros(64), m=0.0, grid=g)

    def test_rejects_complex_source(self):
        g = make_grid(1, 64, 16.0)
        with pytest.raises(ValueError, match="real"):
            yukawa_invert(np.zeros(64, complex), m=1.0, grid=g)

    def test_linearity(self):
        g = make_grid(1, 128, 20.0)
        s1 = RNG.normal(size=128)
        s2 = RNG.normal(size=128)
        lhs = yukawa_invert(2.0 * s1 - 0.5 * s2, m=1.0, grid=g)
        rhs = 2.0 * yukawa_invert(s1, m=1.0, grid=g) \
            - 0.5 * yukawa_invert(s2, m=1.0, grid=g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_nonnegative_source_gives_nonpositive_field(self):
        g = make_grid(1, 256, 40.0)
        s = wrapped_gaussians(g, np.random.default_rng(3)) ** 2
        phi = yukawa_invert(s, m=1.0, grid=g)
        assert not np.iscomplexobj(phi)
        assert phi.max() <= 1e-14

    def test_1d_gaussian_source_matches_screened_potential(self):
        # unit-charge Gaussian source: the screened potential has the closed
        # form -(1/4m) e^(m^2 s^2/2) [e^(-mx) erfc((m s^2 - x)/(sqrt2 s))
        #                            + e^(mx) erfc((m s^2 + x)/(sqrt2 s))],
        # cross-checked against adaptive quadrature of G * rho
        n, L, m, sig = 512, 40.0, 1.0, 0.35
        g = make_grid(1, n, L)
        x = g.axis
        s = np.exp(-x**2 / (2 * sig**2)) / (sig * np.sqrt(2 * np.pi))
        phi = yukawa_invert(s, m=m, grid=g)
        pref = -np.exp(0.5 * (m * sig) ** 2) / (4.0 * m)
        expect = pref * (
            np.exp(-m * x) * erfc((m * sig**2 - x) / (np.sqrt(2) * sig))
            + np.exp(m * x) * erfc((m * sig**2 + x) / (np.sqrt(2) * sig)))
        mask = np.abs(x) < 10.0
        np.testing.assert_allclose(phi[mask], expect[mask], rtol=1e-7,
                                   atol=1e-12)

    def test_3d_gaussian_source_matches_screened_potential(self):
        # same check in 3D: -(1/8 pi r) e^(m^2 s^2/2)
        #   [e^(-mr) erfc(ms/sqrt2 - r/s sqrt2) - e^(mr) erfc(ms/sqrt2 + r/s sqrt2)]
        n, L, m, sig = 32, 16.0, 1.25, 1.0
        g = make_grid(3, n, L)
        x = g.axis
        r2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
        s = np.exp(-r2 / (2 * sig**2)) / (2 * np.pi * sig**2) ** 1.5
        phi = yukawa_invert(s, m=m, grid=g)
        r = np.sqrt(r2)
        mask = (r > 0.9) & (r < 4.0)
        rm = r[mask]
        a = m * sig / np.sqrt(2) - rm / (sig * np.sqrt(2))
        b = m * sig / np.sqrt(2) + rm / (sig * np.sqrt(2))
        expect = -np.exp(0.5 * (m * sig) ** 2) / (8.0 * np.pi * rm) * (
            np.exp(-m * rm) * erfc(a) - np.exp(m * rm) * erfc(b))
        # periodic images at distance >= L - r contribute ~e^(-15)/4 pi each
        np.testing.assert_allclose(phi[mask], expect, rtol=1e-4, atol=1e-7)


class TestYukawaDirect:
    def test_1d_agreement_with_spectral(self):
        g = make_grid(1, 128, 32.0)
        s = wrapped_gaussians(g, np.random.default_rng(7))
        direct = yukawa_convolve_direct(s, m=1.0, grid=g)
        spectral = yukawa_invert(s, m=1.0, grid=g)
        scale = np.abs(spectral).max()
        assert np.abs(direct - spectral).max() / scale < 1e-6

    def test_zero_source(self):
        g = make_grid(1, 128, 32.0)
        np.testing.assert_array_equal(
            yukawa_convolve_direct(np.zeros(128), m=1.0, grid=g), 0.0)

    def test_1d_constant_source(self):
        g = make_grid(1, 128, 32.0)
        out = yukawa_convolve_direct(np.full(128, 0.7), m=1.0, grid=g)
        np.testing.assert_allclose(out, -0.7, rtol=0, atol=1e-12)

    def test_single_point_source_kernel_table(self):
        # the weight column approximates the periodic kernel
        # cosh(m(L/2 - |x|)) / (2 m sinh(mL/2)) away from the source node
        n, L, m = 128, 32.0, 1.0
        g = make_grid(1, n, L)
        s = np.zeros(n)
        j0 = 40
        s[j0] = 1.0 / g.spacing
        out = yukawa_convolve_direct(s, m=m, grid=g)
        d = np.abs(g.axis - g.axis[j0])
        d = np.minimum(d, L - d)
        kernel = np.cosh(m * (L / 2 - d)) / (2.0 * m * np.sinh(m * L / 2))
        mask = d >= 5 * g.spacing
        np.testing.assert_allclose(out[mask], -kernel[mask], rtol=1e-3)

    def test_point_guard(self):
        g = make_grid(1, 2 * MAX_DIRECT_POINTS, 64.0)
        with pytest.raises(ValueError, match="limited"):
            yukawa_convolve_direct(np.zeros(g.n), m=1.0, grid=g)

    def test_rejects_nonpositive_mass(self):
        g = make_grid(1, 64, 16.0)
        with pytest.raises(ValueError, match="mass"):
            yukawa_convolve_direct(np.zeros(64), m=-1.0, grid=g)

    def test_3d_agreement_small_grid(self):
        # structural check at n=16 (the acceptance suite runs the full 32^3
        # case); coarser source resolution, looser gate
        g = make_grid(3, 16, 16.0)
        s = wrapped_gaussians(g, np.random.default_rng(5), count=2,
                              sig_lo=3.5, sig_hi=4.0)
        direct = yukawa_convolve_direct(s, m=2.5, grid=g)
        spectral = yukawa_invert(s, m=2.5, grid=g)
        scale = np.abs(spectral).max()
        assert np.abs(direct - spectral).max() / scale < 1e-4

    def test_3d_constant_source(self):
        g = make_grid(3, 16, 16.0)
        out = yukawa_convolve_direct(np.full(g.shape, 0.5), m=2.5, grid=g)
        np.testing.assert_allclose(out, -0.5 / 2.5**2, rtol=0, atol=1e-8)

    def test_3d_rejects_a_box_shorter_than_ten_over_m(self):
        # images past the first shell are dropped: against yukawa_invert a
        # smooth source at n=16 is off by 4e-6 relative at m L >= 8, but by
        # 2e-3 at m L = 4 and 4e-2 at m L = 2
        g = make_grid(3, 16, 8.0)
        with pytest.raises(ValueError, match=r"m=1\.2, L=8\.0, m\*L=9\.6"):
            yukawa_convolve_direct(np.zeros(g.shape), m=1.2, grid=g)
        # at the bound the dropped images cost about 1e-6 relative
        out = yukawa_convolve_direct(np.full(g.shape, 0.5), m=1.25, grid=g)
        np.testing.assert_allclose(out, -0.5 / 1.25**2, rtol=2e-6, atol=0)

    def test_direct_route_reads_nothing_of_the_spectral_route(
            self, monkeypatch):
        # the oracle's weights and apply never read the spectral multiplier,
        # the grid's wavenumbers or the spectral transforms: with all of
        # them raising, a cold build and apply give the same field bitwise
        cases = [(make_grid(1, 128, 32.0), 1.0),
                 (make_grid(3, 16, 16.0), 2.5)]
        sources = [wrapped_gaussians(g, np.random.default_rng(g.dim))
                   for g, _ in cases]
        expect = [yukawa_convolve_direct(s, m=m, grid=g)
                  for s, (g, m) in zip(sources, cases)]

        def refuse(*args, **kwargs):
            raise AssertionError("the direct route read the spectral route")

        monkeypatch.setattr(spectral, "screened_inverse", refuse)
        monkeypatch.setattr(spectral, "transforms", refuse)
        for name in ("k_squared", "rfft_k_squared", "wavenumbers"):
            monkeypatch.setattr(Grid, name, property(refuse))
        with pytest.raises(AssertionError, match="spectral route"):
            yukawa_invert(sources[0], m=1.0, grid=cases[0][0])
        _direct_weights.cache_clear()
        for s, (g, m), ref in zip(sources, cases, expect):
            assert np.array_equal(yukawa_convolve_direct(s, m=m, grid=g), ref)


class TestDirectApply:
    @pytest.mark.parametrize("shape", [(128,), (8, 8, 8), (16, 16, 16),
                                       (32, 32, 32)])
    def test_matches_gather_reference(self, shape):
        # 3D tables even along each axis, as the weights are; 32^3, the
        # oracle's size, is gathered at 1024 random targets
        rng = np.random.default_rng(sum(shape))
        w = rng.normal(size=shape)
        if len(shape) == 3:
            w = even_table(w)
        s = rng.normal(size=shape)
        targets = (rng.choice(s.size, 1024, replace=False)
                   if s.size > 4096 else np.arange(s.size))
        ref = gather_apply(w, s, targets=targets)
        out = _circulant_apply(w, s).ravel()[targets]
        assert np.abs(out - ref).max() / np.abs(ref).max() <= 1e-13

    @pytest.mark.parametrize("n", [8, 16])
    def test_mirror_fold_matches_gather_reference(self, n):
        # an even table maps a source of one parity along axes 1 and 2
        # onto an output of that parity; each must match the gather (n = 16
        # also has the self-paired plane n/2)
        rng = np.random.default_rng(n)
        w = even_table(rng.normal(size=(n, n, n)))
        mirror = -np.arange(n) % n
        for p2, p3 in itertools.product((1, -1), repeat=2):
            s = rng.normal(size=(n, n, n))
            s = s + p2 * np.take(s, mirror, axis=1)
            s = s + p3 * np.take(s, mirror, axis=2)
            ref = gather_apply(w, s)
            out = _circulant_apply(w, s)
            scale = np.abs(ref).max()
            assert np.abs(out - ref).max() / scale <= 1e-13
            assert np.abs(np.take(out, mirror, axis=1) - p2 * out).max() \
                / scale <= 1e-13
            assert np.abs(np.take(out, mirror, axis=2) - p3 * out).max() \
                / scale <= 1e-13

    @pytest.mark.parametrize("shape, gathered", [
        ((128,), None), ((4096,), None), ((8, 8, 8), None),
        ((16, 16, 16), None), ((32, 32, 32), 1024)])
    def test_uneven_table_matches_gather_reference(self, shape, gathered):
        # a table that is not even along any axis tells the correlation
        # w[j - i] from the convolution w[i - j], which an even table hides;
        # 32^3 is gathered at 1024 random targets
        rng = np.random.default_rng(len(shape) * shape[0] + 1)
        w = rng.normal(size=shape)
        mirror = -np.arange(shape[0]) % shape[0]
        for axis in range(w.ndim):
            assert not np.array_equal(np.take(w, mirror, axis=axis), w)
        s = rng.normal(size=shape)
        targets = (np.arange(s.size) if gathered is None
                   else rng.choice(s.size, gathered, replace=False))
        ref = gather_apply(w, s, targets=targets)
        out = _circulant_apply(w, s).ravel()[targets]
        assert np.abs(out - ref).max() / np.abs(ref).max() <= 1e-13


class TestDirectWeights:
    @pytest.mark.parametrize("q", [6, 16, 20])
    def test_gauss_rules_match_leggauss(self, q):
        # the eigenvalue route, imported here only: the library's rules
        # take Newton steps on the Legendre recurrence
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(q)
        t, o = _gauss01(q)
        assert np.abs(t - 0.5 * (x + 1.0)).max() <= 1e-15
        assert np.abs(o - 0.5 * w).max() <= 1e-15
        # mirrored about 1/2 from one half, nodes ascending
        np.testing.assert_array_equal(o, o[::-1])
        assert np.abs(t + t[::-1] - 1.0).max() <= 2.3e-16
        assert np.all(np.diff(t) > 0.0)

    def test_gauss_rule_refuses_an_odd_count(self):
        # every rule is mirrored from its x > 0 half, so none has a node at 0
        with pytest.raises(ValueError, match="even"):
            _gauss01(7)

    def test_3d_weights_are_cubic_symmetric(self):
        # the kernel and the quadrature rule treat the three axes alike and
        # are even in each, so the weights must be too (the bulk build
        # evaluates each axis on |offset| only and relies on this)
        w = np.asarray(_direct_weights(3, 16, 16.0, 2.5))
        scale = np.abs(w).max()
        for perm in [(1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
            assert np.abs(w.transpose(perm) - w).max() / scale <= 1e-14
        reflected = np.roll(w[::-1, ::-1, ::-1], 1, axis=(0, 1, 2))
        assert np.abs(reflected - w).max() / scale <= 1e-14

    def test_3d_weights_are_exactly_even_and_permutation_symmetric(self):
        # bitwise: every weight is read from its representative at sorted
        # |offset|s
        w = np.asarray(_direct_weights(3, 16, 16.0, 2.5))
        mirror = -np.arange(16) % 16
        for axis in range(3):
            np.testing.assert_array_equal(np.take(w, mirror, axis=axis), w)
        for perm in [(1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
            np.testing.assert_array_equal(w.transpose(perm), w)

    @pytest.mark.parametrize("length, m", [(16.0, 2.5), (12.0, 1.0)])
    def test_3d_weights_match_the_per_cell_build(self, length, m):
        # one contraction matrix, one block per symmetry class and one
        # corner pyramid give the per-cell build's table up to roundoff
        w = _direct_weights_3d(16, length, m)
        ref = per_cell_weights_3d(16, length, m)
        assert np.abs(w - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("m, dx", [(2.5, 1.0), (0.5, 1.25)])
    def test_corner_cell_mirrors_match_the_24_pyramids(self, m, dx):
        corner = _corner_cell(m, dx, 16)
        scale = np.abs(corner).max()
        for signs, block in pyramid_corner_cells(m, dx, 16).items():
            mirrored = corner[::signs[0], ::signs[1], ::signs[2]]
            assert np.abs(mirrored - block).max() <= 1e-14 * scale

    @pytest.mark.parametrize("n, length, m", [
        (32, 40.0, 0.5), (16, 16.0, 2.5), (16, 12.0, 1.0),
        # m L = 60 drops the images with two or more nonzero shifts
        (16, 60.0, 1.0)])
    def test_bulk_table_matches_the_rank_map_expansion(self, n, length, m):
        # bitwise: blocks and shared partial sums keep every value's
        # operations and their order; at n = 32 the 152,096 triples end in
        # a partial block of 4,640
        def kernel(r):
            return np.exp(-m * r) / (4.0 * np.pi * r)

        tb, _ = _gauss01(6)
        y = (np.arange(n // 2)[:, None] + tb[None, :]).ravel() * (length / n)
        packed = _bulk_table(y, length, m, kernel, 12)
        assert packed.shape == (y.size * (y.size + 1) * (y.size + 2) // 6,)
        assert np.array_equal(expand_by_rank(packed, y.size),
                              rank_map_bulk_table(y, length, m, kernel, 12))

    @pytest.mark.parametrize("n, length, m", [(16, 20.0, 1.0),
                                              (32, 40.0, 0.5)])
    def test_bulk_weights_match_the_expanded_table(self, n, length, m):
        # bitwise: each slab's ranks, one add per region of the last index,
        # read the values expand_by_rank places by the sorted triple
        def kernel(r):
            return np.exp(-m * r) / (4.0 * np.pi * r)

        assert np.array_equal(_bulk_weights(n, length, m, kernel, 6),
                              expanded_bulk_weights(n, length, m, kernel))

    def test_3d_weight_build_peak_memory(self):
        # traced peak of an uncached 32^3 build: 2,882,205 bytes (numpy
        # 2.4.6), set by the bulk table; the slab contraction, its ranks one
        # add per region, peaks at 2.45 MB and the Duffy corner, contracted
        # one axis at a time, at 0.14 MB. The bound is that plus 10 %, so
        # the corner's (4096, 64) basis product (3.75 MB), a (32, 96, 96)
        # first contraction (5.07 MB), a 96^3 bulk table (7.1 MB) or a rank
        # map over it fails
        tracemalloc.start()
        try:
            _direct_weights_3d(32, 40.0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_171_000

    def test_3d_apply_peak_memory(self):
        # traced peak of the 32^3 apply: 837,872 bytes (numpy 2.4.6), the
        # source's and the table's half spectra (272 KiB each) and the
        # transform that fills the second. The bound is that plus 10 %;
        # full complex spectra (512 KiB each) fail it, as do the
        # parity-part fold of 668 KB matrices (1.46 MB) and any block of a
        # dense circulant matrix
        w = _direct_weights(3, 32, 40.0, 0.5)
        s = np.random.default_rng(32).normal(size=(32, 32, 32))
        tracemalloc.start()
        try:
            _circulant_apply(w, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 922_000

    def test_1d_apply_peak_memory(self):
        # traced peak at n = 4096: 67,648 bytes (numpy 2.4.6), two half
        # spectra and the output. The bound is that plus 10 %; a conjugate
        # copy of the table's spectrum (98.9 KB) fails it, as does a 2 MiB
        # row chunk of the circulant matrix (2.2 MB) or the whole matrix
        rng = np.random.default_rng(4096)
        w, s = rng.normal(size=4096), rng.normal(size=4096)
        tracemalloc.start()
        try:
            out = _circulant_apply(w, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 74_500
        ref = gather_apply(w, s)
        assert np.abs(out - ref).max() / np.abs(ref).max() <= 1e-13

    def test_1d_weight_build_peak_memory(self, monkeypatch):
        # traced peak at n = 32768, the largest 1D direct oracle: 6,608,832
        # bytes (numpy 2.4.6), three 1 MiB chunks of Gauss-point arrays and
        # the (n, 8) stencil contributions. The bound is that plus 10 %;
        # the whole (n, 20) arrays (18.4 MB) fail it
        tracemalloc.start()
        try:
            w = _direct_weights_1d(32768, 40.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7_270_000
        # rows are independent: the chunks give the one-chunk build bitwise
        monkeypatch.setattr("solitonlab.spectral._WEIGHT_CHUNK_BYTES", 2**30)
        assert np.array_equal(w, _direct_weights_1d(32768, 40.0, 1.0))

    def test_cached_weights_are_read_only(self):
        w = _direct_weights(1, 64, 16.0, 1.0)
        assert w is _direct_weights(1, 64, 16.0, 1.0)
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_cache_is_safe_under_a_thread_pool(self):
        # more distinct keys than the cache holds, each requested several
        # times from more workers than cores, with a short switch interval
        masses = [0.5 + 0.1 * i for i in range(12)]
        serial = {m: _direct_weights_1d(64, 16.0, m) for m in masses}
        _direct_weights.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [(m, pool.submit(_direct_weights, 1, 64, 16.0, m))
                           for m in masses * 4]
                results = [(m, f.result(timeout=60)) for m, f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4 * len(masses)
        for m, w in results:
            np.testing.assert_array_equal(w, serial[m])
            assert not w.flags.writeable
