'''Torus geometry and its Fourier layer: the symbol, heat kernels, the
free Bose gas's weights; potential periodization.

Convention for degenerate side lengths: the Laplacian acts through the 2d
signed unit steps with wraparound, so L=2 carries doubled edge weights and
L=1 gives Delta = 0.  This keeps the spectral (Fourier) representation of
the heat kernel valid for every L; geometry-sensitive experiments should
use L >= 3.

Fourier layer: every translation-invariant kernel is a function of one
symbol, lambda_xi = d - sum_j cos xi_j (that of -Delta/2), written once as
Torus.rates, flat in site order (xi = 2 pi c / L at coordinates c).
Torus.fourier and Torus.inverse_fourier map flat site tables to symbols
and back, and Torus.multiplier gives a symbol's matrix K(x - y); they take
the real part, exact for even inputs.  The heat kernel psi^{L,t} of
e^{t Delta/2} has symbol e^{-t lambda_xi} (Torus.heat_kernel).  The free
Bose gas has weights a_xi = e^{-nu(kappa + lambda_xi)}
(Torus.free_weights) and needs kappa > 0 and nu > 0, else ValueError.
The origin is flat site 0.
'''

import functools
import itertools
import math

import numpy as np


# Most sites a Torus may have: its coordinate table holds n_sites x d
# entries (about 38 MB at d = 18, L = 2).
MAX_SITES = 2 ** 18


class Torus:
    '''The periodic lattice [0,L)^d with flat site indexing.

    Sites are indexed row-major: index = sum_i c_i * L^(d-1-i) for
    coordinates c in {0,...,L-1}^d.  ValueError past MAX_SITES sites,
    before any table is built.
    '''

    def __init__(self, d, L):
        if d < 1 or L < 1:
            raise ValueError("need d >= 1 and L >= 1")
        self.d = int(d)
        self.L = int(L)
        self.n_sites = self.L ** self.d
        if self.n_sites > MAX_SITES:
            raise ValueError(f"torus d = {self.d}, L = {self.L} has "
                             f"{self.L}^{self.d} sites, above MAX_SITES = "
                             f"{MAX_SITES}")
        # coordinate table, shape (n_sites, d)
        self.coords = np.array(
            list(itertools.product(range(self.L), repeat=self.d)), dtype=np.int64
        ).reshape(self.n_sites, self.d)
        self._strides = self.L ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
        # the 2d signed unit steps, +e_j then -e_j for each j
        eye = np.eye(self.d, dtype=np.int64)
        self.steps = np.stack((eye, -eye), axis=1).reshape(2 * self.d, self.d)
        self._grid = (self.L,) * self.d        # FFT layout of flat tables

    def index_of(self, coords):
        '''Flat site index of coordinate array(s) (taken mod L).'''
        c = np.asarray(coords, dtype=np.int64) % self.L
        return c @ self._strides

    def centered(self, coords):
        '''Representative of coords mod L with entries in [-L/2, L/2).'''
        c = np.asarray(coords, dtype=np.int64) % self.L
        half = self.L // 2
        return (c + half) % self.L - half

    def centered_box(self, L0):
        '''Flat indices of the centered box {-(L0//2), ..., L0 - L0//2 -
        1}^d, in lexicographic order of the centered offsets (the same
        order on every torus); ValueError unless 1 <= L0 <= L.'''
        if not 1 <= L0 <= self.L:
            raise ValueError(f"need 1 <= L0 <= L, got L0 = {L0}, L = {self.L}")
        offsets = range(-(L0 // 2), L0 - L0 // 2)
        return self.index_of(np.array(
            list(itertools.product(offsets, repeat=self.d)),
            dtype=np.int64))

    def check_sites(self, p, xs, ys):
        '''xs and ys as lists of ints; ValueError unless each lists p
        integer sites of the torus (0..n_sites-1).'''
        out = []
        for name, sites in (("x", xs), ("y", ys)):
            sites = np.atleast_1d(sites)
            if len(sites) != p or not all(float(s).is_integer()
                                          and 0 <= s < self.n_sites
                                          for s in sites):
                raise ValueError(f"{name} must list p = {p} sites of the "
                                 f"torus (0..{self.n_sites - 1}), got "
                                 f"{sites.tolist()}")
            out.append([int(s) for s in sites])
        return out

    @functools.cached_property
    def diff_table(self):
        '''The read-only table of x - y: diff_table[x, y] is its flat
        index.'''
        diff = (self.coords[:, None, :] - self.coords[None, :, :]) % self.L
        table = self.index_of(diff)
        table.setflags(write=False)
        return table

    @functools.cached_property
    def rates(self):
        '''The read-only symbol lambda_xi = d - sum_j cos xi_j of
        -Delta/2, flat in site order.'''
        xi = 2.0 * np.pi * self.coords / self.L
        rates = self.d - np.cos(xi).sum(axis=1)
        rates.setflags(write=False)
        return rates

    def fourier(self, table):
        '''Symbol xi -> sum_x f(x) e^{-i xi.x} of an even flat site table,
        flat in site order.'''
        return np.fft.fftn(np.reshape(table, self._grid)).real.ravel()

    def inverse_fourier(self, symbol):
        '''Flat site table x -> L^{-d} sum_xi s(xi) e^{i xi.x} of an even
        flat symbol.'''
        return np.fft.ifftn(np.reshape(symbol, self._grid)).real.ravel()

    def multiplier(self, symbol):
        '''The matrix M[x, y] = K(x - y), K = inverse_fourier(symbol): the
        operator that multiplies Fourier transforms by the symbol.'''
        return self.inverse_fourier(symbol)[self.diff_table]

    def heat_kernel(self, t):
        '''Table x -> psi^{L,t}(x) = L^{-d} sum_xi e^{-t lambda_xi}
        e^{i xi.x}, flat in site order.'''
        if t < 0:
            raise ValueError("t must be >= 0")
        return self.inverse_fourier(np.exp(-float(t) * self.rates))

    def heat_kernel_at_origin(self, t):
        '''psi^{L,t}(0) for scalar or array t (vectorized over t).'''
        t = np.asarray(t, dtype=float)
        return np.mean(np.exp(-np.multiply.outer(t, self.rates)), axis=-1)

    def heat_kernel_ratio(self, t, shift):
        '''psi^{L,t}(s) / psi^{L,t}(0) for durations t (n,) and coordinate
        shifts s (n, d): a product over the coordinates of 1D kernels, each
        a cosine sum over the L modes of one coordinate.'''
        L = self.L
        k = np.arange(L)
        rates = 1.0 - np.cos(2.0 * np.pi * k / L)
        modes = np.exp(-np.multiply.outer(t, rates))
        # L psi_1^t(r) for r = 0..L-1, one row per duration
        psi = modes @ np.cos(2.0 * np.pi * (np.outer(k, k) % L) / L)
        ratio = np.take_along_axis(psi, np.asarray(shift) % L, axis=1)
        return np.maximum(ratio / psi[:, :1], 0.0).prod(axis=1)

    def free_weights(self, nu, kappa):
        '''The free Bose gas's mode weights a_xi = e^{-nu(kappa + lambda_xi)};
        its kernel has symbol a/(1-a).  ValueError unless all a_xi < 1.'''
        if kappa is None or not (kappa > 0 and nu > 0):
            raise ValueError(f"need kappa > 0 and nu > 0, got {kappa}, {nu}")
        a = np.exp(-nu * (kappa + self.rates))
        if a[0] >= 1.0:     # xi = 0 carries the largest weight
            raise ValueError("kappa * nu too small: a mode weight is 1")
        return a


def laplacian_matrix(torus):
    '''Discrete Laplacian: (Delta f)(x) = sum over 2d signed steps e of
    (f(x+e) - f(x)), with periodic wraparound: the multiplier of its
    symbol -2 lambda_xi.  Its entries are integers, so rounding gives
    them exactly, and + 0.0 makes the zeros positive.'''
    return np.rint(torus.multiplier(-2.0 * torus.rates)) + 0.0


# Most sites one ring of heat_kernel_images may hold (8 MB a table): t up
# to about 3.3e9.
MAX_RING_SITES = 2 ** 20


def _reach(t):
    '''y0 (rounded down) solving y^2 = 2c(t + y/3), c = ln 1e18, so that
    Bernstein's bound P(X_t >= y) <= e^{-y^2/(2(t + y/3))} puts a
    coordinate of the walk past y0 with probability below 1e-18.'''
    if t < 0:
        raise ValueError("t must be >= 0")
    c = 6.0 * math.log(10.0)        # (ln 1e18) / 3
    return int(c + math.sqrt(c * c + 6.0 * c * t))


def _ring_decay(t, M):
    '''e^{-2t sin^2(pi k / M)} for k = -(M // 2), ..., M - 1 - M // 2,
    the symbol of the 1D kernel on a ring of M sites; ValueError past
    MAX_RING_SITES.'''
    if M > MAX_RING_SITES:
        raise ValueError(f"heat kernel at t={t} needs a ring of {M} sites, "
                         f"above MAX_RING_SITES={MAX_RING_SITES}")
    # k centred, so sin^2 keeps full relative accuracy (1 - cos would lose
    # t * 1e-16)
    k = np.arange(M) - M // 2
    return k, np.exp(-2.0 * t * np.sin(np.pi * k / M) ** 2)


def heat_kernel_images(t, L):
    '''The 1D kernel summed over the images of each residue mod L:
    sum_n psi^{inf,t}(r + L n) for r = 0..L-1, so that the d-dimensional
    image sum at x is the product over j of entry x_j mod L.  The images
    run over |r + L n| <= y0 = _reach(t), so the dropped ones weigh less
    than 1e-18 on each side; their kernel values come from one ring of
    2 y0 + 2 sites, on which the trapezoid rule aliases each with images
    at least y0 + 2 away.  ValueError past MAX_RING_SITES.'''
    reach = _reach(t)
    M = 2 * reach + 2
    _, decay = _ring_decay(t, M)
    ring = np.fft.ifft(np.fft.ifftshift(decay)).real
    y = np.arange(-reach, reach + 1)
    return np.bincount(y % L, weights=ring[y % M], minlength=L)


class PotentialSpec:
    '''Two-body potential on Z^d: nonnegative even finite part plus an
    optional hard core of radius R in {0,1} (v = +inf on |x| < R).

    entries: dict mapping coordinate tuples to values; completed to an even
    function; must be absolutely summable (finite support here).
    '''

    def __init__(self, d, R, entries):
        if R not in (0, 1):
            raise ValueError("hard-core radius R must be 0 or 1")
        self.d = int(d)
        self.R = int(R)
        completed = {}
        for site, val in entries.items():
            site = tuple(int(c) for c in site)
            if len(site) != self.d:
                raise ValueError(f"entry {site} has wrong dimension")
            val = float(val)
            if not np.isfinite(val) or val < 0:
                raise ValueError("finite part must be finite and >= 0")
            neg = tuple(-c for c in site)
            for s in (site, neg):
                if s in completed and completed[s] != val:
                    raise ValueError(f"conflicting values at {s}")
                completed[s] = val
        for site in completed:
            if self.R == 1 and all(c == 0 for c in site) and completed[site] != 0.0:
                raise ValueError("finite part must vanish on the hard core")
        self.entries = completed

    @property
    def l1_norm(self):
        return sum(self.entries.values())

    @classmethod
    def from_json(cls, doc):
        '''Build from {"d": int, "R": 0|1, "entries": [[x-vector, value],
        ...]}, a document that passed the config schema's potential block.

        Symmetry is completed automatically; duplicate sites are rejected.
        '''
        entries = {}
        for vec, val in doc["entries"]:
            site = tuple(int(c) for c in vec)
            if len(site) != doc["d"]:
                raise ValueError(f"entry {site} has wrong dimension")
            if site in entries:
                raise ValueError(f"duplicate entry at {site}")
            entries[site] = val
        return cls(doc["d"], doc["R"], entries)


def periodize_potential(spec, L):
    '''v^L(x) = sum_{k in (LZ)^d} v(x+k) as a flat table over the torus;
    +inf where some representative hits the hard core.'''
    torus = Torus(spec.d, L)
    table = np.zeros(torus.n_sites)
    for site, val in spec.entries.items():
        table[torus.index_of(site)] += val
    if spec.R == 1:
        # |x+k| < 1 only at x = 0 mod L
        table[0] = np.inf
    return table


def check_positive_type(vL, torus):
    '''Discrete Fourier transform test of positive type.

    Returns (is_positive_type, min real Fourier coefficient).
    '''
    vL = np.asarray(vL, dtype=float)
    if not np.all(np.isfinite(vL)):
        raise ValueError("positive type undefined for hard-core potentials")
    mn = float(torus.fourier(vL).min())
    return mn >= -1e-10, mn
