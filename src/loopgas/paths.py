'''Continuous-time simple-random-walk paths, loop intensities, samplers.

Paths are cadlag step functions on a torus: a start site, a duration T,
and a strictly increasing list of (jump time, new site).  The free walk
has generator Delta/2: total jump rate d, exponential holding times,
uniform choice among the 2d signed unit steps.  On L = 1 every step
wraps onto its site, so no jump is recorded.

Walks and loops are drawn as arrays, a whole batch at a time, and held
in a LoopBatch (flat arrays, CSR jumps); Path is the view of one loop.
walks draws free walks from arrays of start sites and durations, in
three draws: the Poisson(d T) jump counts of all walks, then their
uniform signed steps, then the uniform jump times, sorted within each
walk.  A walk's end site follows from the net displacement of its steps
mod L per coordinate, and its sites from the cumulative sum of its
steps.

bridges draws bridges x -> y over [0, T] exactly, in one pass.  The walk
is a product of d independent 1D walks, each jumping +1 and -1 at rate
1/2, so a bridge is d independent 1D bridges: the up and down counts
(a, b) of a coordinate are independent Poisson(T/2) conditioned on
a - b = delta (mod L), delta the coordinate of y - x.  The residue
r = b mod L has probability q_r q_{r+delta} / sum_s q_s q_{s+delta},
with q_r = P(b = r mod L), and given r, a and b are independent
Poisson(T/2) restricted to r + delta and to r; so sum_r q_r q_{r+delta}
is the 1D kernel at delta, and the product over the coordinates is
psi^{L,T}(y - x).  Given the counts, the jump times are iid uniform on
[0, T] and the order of the signed steps among them is uniform.  The
counts come from inverse CDFs over a table of the Poisson(T/2) masses of
the distinct T/2 of a batch.  The table ends at the first n >= max T/2
where the tail bound P(X > n) <= p(n+1) / (1 - (T/2)/(n+2)) falls below
POISSON_TAIL = 1e-16; bridges refuses more than MAX_BRIDGE_CELLS cells.
LoopIntensity.draw_batch draws loop durations and base sites for a
batch, then their bridges; draw_multi_window does the same for the grid
loops of two windows or more.
'''

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import HeatKernel


@dataclass
class Path:
    '''A walk trajectory; closed when end == start.'''
    start: int
    duration: float
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    jump_sites: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def end(self):
        return int(self.jump_sites[-1]) if len(self.jump_sites) else self.start

    @property
    def is_constant(self):
        return len(self.jump_times) == 0

    def position(self, t):
        '''Right-continuous evaluation; post-jump site at a jump time.'''
        if t < 0 or t > self.duration:
            raise ValueError(f"t={t} outside [0, {self.duration}]")
        k = np.searchsorted(self.jump_times, t, side="right")
        return self.start if k == 0 else int(self.jump_sites[k - 1])

    def segments(self):
        '''(start times, end times, sites) of the constant pieces.'''
        t0 = np.concatenate(([0.0], self.jump_times))
        t1 = np.concatenate((self.jump_times, [self.duration]))
        sites = np.concatenate(([self.start], self.jump_sites))
        return t0, t1, sites

    def local_time_table(self, n_sites):
        t0, t1, sites = self.segments()
        return np.bincount(sites, weights=t1 - t0, minlength=n_sites)


_NO_TIMES = np.empty(0)
_NO_SITES = np.empty(0, dtype=np.int64)
# truncation of the bridge sampler's Poisson tables (_residue_table)
POISSON_TAIL = 1e-16
# Most cells of one bridges call's residue table and count columns
MAX_BRIDGE_CELLS = 2 ** 25


def _segments(offsets, index):
    '''Flat positions of the segments index of a CSR layout, in order.'''
    lo = offsets[index]
    n = offsets[index + 1] - lo
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())


def walks(torus, x, T, rng):
    '''Free walks from the sites x over the durations T (arrays of one
    length n): (end sites, LoopBatch with walk k in configuration k).

    Draws, in order: the jump counts Poisson(d T) of all walks, their
    uniform signed steps (directions in 0..2d-1, torus.steps order), and
    their uniform jump times, sorted within each walk.  On L = 1 it
    draws the counts alone and records no jump.'''
    x = np.asarray(x, dtype=np.int64)
    T = np.asarray(T, dtype=float)
    n, d = len(x), torus.d
    counts = rng.poisson(d * T)
    if torus.L == 1:
        return x.copy(), LoopBatch(n, np.arange(n), x, T,
                                   np.zeros(n, dtype=np.int64), _NO_TIMES,
                                   _NO_SITES)
    dirs = rng.integers(0, 2 * d, int(counts.sum()))
    step_walk = np.repeat(np.arange(n), counts)
    # net displacement per coordinate: step k moves coordinate k // 2 by
    # +1 (k even) or -1 (k odd)
    disp = np.bincount(step_walk * d + dirs // 2, weights=1 - 2 * (dirs % 2),
                       minlength=n * d).reshape(n, d).astype(np.int64)
    end = torus.index_of(torus.coords[x] + disp)
    sites = _sites(torus, x, counts, dirs)
    times = rng.random(len(dirs)) * T[step_walk]
    times = times[np.lexsort((times, step_walk))]
    return end, LoopBatch(n, np.arange(n), x, T, counts, times, sites)


def bridges(torus, x, T, rng, y=None):
    '''Walks from the sites x to the sites y over the durations T
    (arrays of one length n; y None: closed walks, y = x), exactly and
    in one pass: a LoopBatch with walk k in configuration k.

    Draws, in order: n x d x 3 uniforms (per walk and coordinate, the
    residue of the down count mod L, then the up and the down count, by
    inverse CDF), then the uniform jump times of all walks; the signed
    steps of a walk take the order of their times.  Where y = x the
    draws and the paths are those of y None.  On L = 1 it draws nothing
    and records no jump.'''
    x = np.asarray(x, dtype=np.int64)
    T = np.asarray(T, dtype=float)
    n, d, L = len(x), torus.d, torus.L
    if L == 1 or n == 0:
        return LoopBatch(n, np.arange(n), x, T, np.zeros(n, dtype=np.int64),
                         _NO_TIMES, _NO_SITES)
    # per walk and coordinate, the up count's residue minus the down's
    shift = None if y is None else (torus.coords[y] - torus.coords[x]) % L
    if shift is not None and not shift.any():
        shift = None
    lam, row = np.unique(T / 2, return_inverse=True)
    # the budget counts the cumulative count columns (n, d, 1 or 2, M) too
    table = _residue_table(lam, L, n * d * (1 if shift is None else 2))
    u = rng.random((n, d, 3))
    q = table.sum(axis=1)
    if shift is None:
        q2 = np.cumsum(q ** 2, axis=1)[row][:, None, :]
    else:
        up = (np.arange(L) + shift[..., None]) % L
        q2 = np.cumsum(q[row][:, None, :] * q[row[:, None, None], up], axis=2)
    residue = np.count_nonzero(
        q2 < (u[..., 0] * q2[..., -1])[..., None], axis=2)
    # the residues of the (up, down) counts, one shared column when x = y
    res = (residue[..., None] if shift is None
           else np.stack(((residue + shift) % L, residue), axis=-1))
    # cumulative Poisson mass of each residue class, per walk and coordinate
    col = np.cumsum(table[row[:, None, None], :, res], axis=3)
    level = u[..., 1:] * col[..., -1]
    # per_dir[k, j] = the (up, down) counts of coordinate j of walk k,
    # that is, of the directions 2j and 2j + 1
    per_dir = res + L * np.count_nonzero(col < level[..., None], axis=3)
    per_dir = per_dir.reshape(n, 2 * d)
    steps = np.repeat(np.tile(np.arange(2 * d), n), per_dir.ravel())
    counts = per_dir.sum(axis=1)
    jump_walk = np.repeat(np.arange(n), counts)
    times = rng.random(len(steps)) * T[jump_walk]
    order = np.lexsort((times, jump_walk))
    return LoopBatch(n, np.arange(n), x, T, counts, times[order],
                     _sites(torus, x, counts, steps[order]))


def _sites(torus, x, counts, steps):
    '''The sites after each step of walks from the sites x, counts[k]
    steps (directions, torus.steps order) for walk k, flat in walk
    order: a cumulative sum of the steps, restarted at each walk.'''
    jump_walk = np.repeat(np.arange(len(x)), counts)
    moves = np.cumsum(torus.steps[steps], axis=0)
    first = np.cumsum(counts) - counts
    before = np.concatenate((np.zeros((1, torus.d), dtype=np.int64),
                             moves))[first]
    return torus.index_of(torus.coords[x][jump_walk] + moves
                          - before[jump_walk])


# log k! for k < len(_LOG_FACT), grown on demand by _log_factorials
_LOG_FACT = np.empty(0)


def _log_factorials(size):
    '''log k! for k = 0..size-1, each math.lgamma(k + 1), from a
    module-level array that grows (at least doubling) when size
    exceeds it.'''
    global _LOG_FACT
    have = len(_LOG_FACT)
    if size > have:
        _LOG_FACT = np.concatenate((_LOG_FACT, [
            math.lgamma(k + 1.0) for k in range(have, max(size, 2 * have))]))
    return _LOG_FACT[:size]


def _residue_table(lam, L, columns=0):
    '''Poisson(lam) masses by residue mod L, (len(lam), M, L): entry
    [i, m, r] is P(X = m L + r), X ~ Poisson(lam[i]), so that the sum
    over m is the residue mass q_r.  The table ends where the tail bound
    of the largest lam drops below POISSON_TAIL; the rest is 0.
    ValueError, before any table is built, when it and columns more
    columns of M cells exceed MAX_BRIDGE_CELLS.'''
    top, rows = float(lam.max()), len(lam) * L + columns
    # the cut is at least top: refusing on that first keeps the
    # log-factorials of the range below within the budget's order
    cut = math.ceil(top)
    if rows * (cut // L + 1) <= MAX_BRIDGE_CELLS:
        # P(X >= top + t) <= exp(-t^2 / (2 (top + t / 3))) (Bernstein) is
        # below 1e-20 at the end of this range, so the cut lies inside it
        k = np.arange(cut, int(top + 12.0 * np.sqrt(top)) + 39)
        log_bound = (k + 1) * math.log(top) - top - _log_factorials(
            k[-1] + 2)[k + 1] - np.log1p(-top / (k + 2.0))
        cut = int(k[np.flatnonzero(log_bound < math.log(POISSON_TAIL))[0]])
    M = cut // L + 1
    if rows * M > MAX_BRIDGE_CELLS:
        raise ValueError(
            f"bridges of durations up to {2.0 * top:.4g} need at least "
            f"{rows * M} Poisson table cells, above MAX_BRIDGE_CELLS = "
            f"{MAX_BRIDGE_CELLS}; raise kappa")
    p = np.zeros((len(lam), M * L))
    log_p = p[:, :cut + 1]
    np.multiply.outer(np.log(lam), np.arange(cut + 1), out=log_p)
    log_p -= _log_factorials(cut + 1)
    log_p -= lam[:, None]
    np.exp(log_p, out=log_p)
    return p.reshape(len(lam), M, L)


def pick(cdf, rng, size):
    '''Indices with probabilities proportional to the steps of cdf, from
    size uniforms; the last index when every step is 0.'''
    idx = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    return np.minimum(idx, len(cdf) - 1)


def log_series_excess(a):
    '''c = -log(1 - a) - a = sum_{k >= 2} a^k / k elementwise: the mass
    of a free mode's loops of two windows or more.  Below a = 1/4 the
    difference would cancel, so c = a^2 sum_j a^j / (j + 2) there, to
    30 terms (the rest is below 1e-17 relative).'''
    a = np.asarray(a, dtype=float)
    series = np.zeros_like(a)
    for j in range(29, -1, -1):
        series = 1.0 / (j + 2) + a * series
    small = a < 0.25
    return np.where(small, a * a * series,
                    -np.log1p(-np.where(small, 0.0, a)) - a)


def log_series_past_one(a, rng):
    '''One draw k >= 2 per entry of a (each in (0, 1)), with P(k) of
    a^k / k, by rejection rounds over the entries not yet accepted.  An
    entry a >= 1/2 draws LogSeries(a) and rejects k = 1 (acceptance
    1 - a / -log(1 - a) >= 0.27); an entry a < 1/2 draws k = 1 +
    Geometric(1 - a), of P(k) a^k up to a constant, by inversion
    (k = 2 + floor(log(1 - u) / log a)), and accepts it with probability
    2 / k (acceptance >= 2/3).  Each round draws the log-series of its
    high entries, then two uniforms for each low one: a row of the
    inversions' u, then a row of the acceptances'.'''
    a = np.asarray(a, dtype=float)
    k = np.empty(len(a), dtype=np.int64)
    todo = np.arange(len(a))
    while len(todo):
        high = a[todo] >= 0.5
        hi, lo = todo[high], todo[~high]
        draw_hi = rng.logseries(a[hi])
        u = rng.random((2, len(lo)))
        draw_lo = 2 + np.floor(np.log1p(-u[0]) / np.log(a[lo])).astype(
            np.int64)
        k[hi], k[lo] = draw_hi, draw_lo
        todo = np.concatenate((hi[draw_hi < 2], lo[u[1] * draw_lo >= 2.0]))
    return k


def mixture_moments(cdf, m1, m2):
    '''(E X, E X^2) of X drawn as pick(cdf) gives mode i, then from a law
    of moments m1[i], m2[i]: the steps of cdf weigh the modes, and the
    last mode stands alone when every step is 0.'''
    weight = np.diff(cdf, prepend=0.0)
    total = weight.sum()
    if not total > 0:
        return float(m1[-1]), float(m2[-1])
    return float(weight @ m1 / total), float(weight @ m2 / total)


class LoopBatch:
    '''The loops of many configurations as flat arrays (struct of arrays),
    sorted stably by configuration; Path is the view of one loop.

    Loop i belongs to configuration config[i] (of 0..n_configs-1),
    starts at site start[i] and lasts duration[i]; its jumps are
    times[offsets[i]:offsets[i+1]] to sites[offsets[i]:offsets[i+1]]
    (CSR offsets).  Built from arrays: configuration ids, starts,
    durations, jump counts and the flat jumps in loop order.
    '''

    def __init__(self, n_configs, config, start, duration, counts, times,
                 sites):
        config = np.asarray(config, dtype=np.int64)
        start = np.asarray(start, dtype=np.int64)
        duration = np.asarray(duration, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
        times = np.asarray(times, dtype=float)
        sites = np.asarray(sites, dtype=np.int64)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if np.any(config[1:] < config[:-1]):
            order = np.argsort(config, kind="stable")
            jumps = _segments(offsets, order)
            config, start, duration = config[order], start[order], duration[order]
            times, sites = times[jumps], sites[jumps]
            np.cumsum(counts[order], out=offsets[1:])
        self.n_configs = int(n_configs)
        self.config, self.start, self.duration = config, start, duration
        self.offsets, self.times, self.sites = offsets, times, sites

    def take(self, index=None):
        '''(starts, durations, jump counts, jump times, jump sites) of the
        loops index (None: all), in that order.'''
        counts = np.diff(self.offsets)
        if index is None:
            return self.start, self.duration, counts, self.times, self.sites
        jumps = _segments(self.offsets, index)
        return (self.start[index], self.duration[index], counts[index],
                self.times[jumps], self.sites[jumps])

    @classmethod
    def join(cls, n_configs, parts):
        '''The batch of n_configs configurations made of parts, a list of
        (configuration ids, LoopBatch, loop index or None): the part's
        loops index go to the configurations ids, one to one.  Within a
        configuration, loops keep the order of the parts and indices.'''
        fields = [batch.take(index) for _, batch, index in parts]
        return cls(n_configs, np.concatenate([ids for ids, _, _ in parts]),
                   *(np.concatenate(f) for f in zip(*fields)))

    @classmethod
    def from_paths(cls, configs):
        '''The batch of configurations given as lists of Paths.'''
        loops = [p for config in configs for p in config]
        sizes = np.array([len(config) for config in configs], dtype=np.int64)
        return cls(len(configs), np.repeat(np.arange(len(configs)), sizes),
                   [p.start for p in loops], [p.duration for p in loops],
                   [len(p.jump_times) for p in loops],
                   np.concatenate([_NO_TIMES] + [p.jump_times for p in loops]),
                   np.concatenate([_NO_SITES] + [p.jump_sites for p in loops]))

    def pieces(self):
        '''The constant pieces of every loop, in loop and time order, as
        (loop, site, length) arrays.'''
        n_loops = len(self.start)
        counts = np.diff(self.offsets)
        first = self.offsets[:-1] + np.arange(n_loops)
        is_first = np.zeros(len(self.times) + n_loops, dtype=bool)
        is_first[first] = True
        is_last = np.zeros_like(is_first)
        is_last[first + counts] = True
        t0 = np.zeros(len(is_first))
        t0[~is_first] = self.times
        t1 = np.empty(len(is_first))
        t1[is_last] = self.duration
        t1[~is_last] = self.times
        site = np.empty(len(is_first), dtype=np.int64)
        site[is_first] = self.start
        site[~is_first] = self.sites
        return np.repeat(np.arange(n_loops), counts + 1), site, t1 - t0


class LoopIntensity:
    '''Single-loop intensity measure of an ensemble.

    kind "ginibre":      nu * sum_{T in nu N*} (e^{-kappa T}/T) W^{L,T}
    kind "symanzik_eps": int_eps^inf dT (e^{-kappa T}/T) W^{L,T}

    Closed loops: total mass m = sum/int of e^{-kappa T} psi^{L,T}(0)
    |Lambda| / T; the normalized measure factorizes as (duration law) x
    (uniform base site) x (bridge), and draw_batch draws the bridges
    exactly (paths.bridges).

    Grid: with the free mode weights a_xi = e^{-nu(kappa + lambda_xi)}
    (a, HeatKernel.free_weights) the mass of nu k is sum_xi a_xi^k / k,
    so m = -sum_xi log(1 - a_xi) and a duration is nu LogSeries(a_xi), of
    a mode xi drawn with weight -log(1 - a_xi): exact, with no table.
    Its one-window loops have mass sum_xi a_xi, and the rest mass sum_xi
    c_xi, c = log_series_excess(a) (multi_window, draw_multi_window).

    Continuum: one table, the mass of each of 8192 geometric cell edges
    on [eps, t_max] over the one before, each cell integrated in u = log
    T by 3-point Gauss-Legendre (quad_err: the gap to the 2-point rule);
    the CDF is its normalized cumulative sum, and a draw interpolates
    within its cell.
    '''

    TAIL = 1e-12

    def __init__(self, torus, kind, kappa, nu=None, eps=None):
        if not kappa > 0:
            raise ValueError("kappa must be > 0")
        self.torus = torus
        self.kind = kind
        self.kappa = float(kappa)
        self.hk = HeatKernel(torus)
        if kind == "ginibre":
            if nu is None or not nu > 0:
                raise ValueError("ginibre intensity needs nu > 0")
            self.nu = float(nu)
            self.a = self.hk.free_weights(self.nu, self.kappa)
            w = -np.log1p(-self.a)
            self._mode_cdf, self.metadata = np.cumsum(w), {}
        elif kind == "symanzik_eps":
            if eps is None or not eps > 0:
                raise ValueError("symanzik intensity needs eps > 0")
            self.eps = float(eps)
            self._points, w, self.metadata = self._continuum_law()
            # an empty law (every mass underflows to 0) draws its limit as
            # kappa -> inf, the shortest duration
            self._cdf = (np.cumsum(w / w.sum()) if w.sum() > 0
                         else np.ones(len(w)))
        else:
            raise ValueError(f"unknown intensity kind {kind!r}")
        self.total_mass = float(w.sum())

    def _continuum_law(self):
        '''(cell edges, 0 then the cell masses, metadata).'''
        kappa, eps, n = self.kappa, self.eps, self.torus.n_sites
        # T_max so the dropped tail (psi <= 1) is below TAIL relative
        t_max = eps
        while n * np.exp(-kappa * t_max) / (kappa * t_max) > self.TAIL:
            t_max *= 1.25
        edges = np.geomspace(eps, t_max, 8192)
        u = np.log(edges)
        mid, half = 0.5 * (u[1:] + u[:-1]), 0.5 * np.diff(u)

        def cell_masses(points):
            '''Gauss-Legendre with points nodes a cell, in u = log T: the
            integrand is e^{-kappa T} psi(T) |Lambda|, as dT / T = du.'''
            x, w = np.polynomial.legendre.leggauss(points)
            return half * sum(
                w_k * np.exp(-kappa * T) * self.hk.at_origin(T) * n
                for w_k, T in zip(w, np.exp(mid + np.multiply.outer(x, half))))

        cells = cell_masses(3)
        return edges, np.concatenate(([0.0], cells)), {
            "t_max": float(t_max),
            "quad_err": float(np.abs(cells - cell_masses(2)).sum()),
            "grid_points": len(edges)}

    def sample_duration(self, rng, size):
        '''size loop durations: on the grid, size modes (pick) then
        their log-series draws; in the continuum, size uniforms through
        the CDF.  An empty grid law (every a_xi = 0) draws nu.'''
        if self.kind == "ginibre":
            mode = pick(self._mode_cdf, rng, size)
            return self.nu * rng.logseries(self.a[mode])
        return np.interp(rng.random(size), self._cdf, self._points)

    @functools.cached_property
    def duration_moments(self):
        '''(E T, E T^2) of the law sample_duration draws.

        Grid: nu LogSeries(a) has E T = nu a / ((1 - a) w) and E T^2 =
        nu^2 a / ((1 - a)^2 w), w = -log(1 - a) its mode's weight (the
        limits nu and nu^2 at a = 0), so m E T = nu sum_xi a_xi / (1 -
        a_xi), nu times the free particle number.  Continuum: the
        interpolated CDF draws T uniform within its cell [lo, hi], so
        the cells give E T = sum_cells q (lo + hi) / 2 and E T^2 =
        sum_cells q (lo^2 + lo hi + hi^2) / 3 exactly, q the cell's
        probability; an empty law draws eps.'''
        if self.kind == "ginibre":
            a, w = self.a, np.diff(self._mode_cdf, prepend=0.0)
            ratio = np.ones_like(a)
            np.divide(a, w, out=ratio, where=w > 0)
            mean, square = mixture_moments(self._mode_cdf, ratio / (1.0 - a),
                                           ratio / (1.0 - a) ** 2)
            return self.nu * mean, self.nu ** 2 * square
        if not self.total_mass > 0:
            return self.eps, self.eps ** 2
        lo, hi = self._points[:-1], self._points[1:]
        return mixture_moments(self._cdf[1:], 0.5 * (lo + hi),
                               (lo * lo + lo * hi + hi * hi) / 3.0)

    @functools.cached_property
    def multi_window(self):
        '''Grid only: (C, E T) of the loops of two windows or more, C =
        sum_xi c_xi their mass (c_xi = log_series_excess(a_xi)) and E T =
        nu sum_xi a_xi^2 / (1 - a_xi) / C their mean duration under the
        normalized law draw_multi_window draws (nu when C = 0).  The rest
        of the mass, sum_xi a_xi, is the one-window loops.'''
        C = float(self._multi_cdf[-1])
        if not C > 0:
            return 0.0, self.nu
        a = self.a
        return C, self.nu * float((a * a / (1.0 - a)).sum()) / C

    @functools.cached_property
    def _multi_cdf(self):
        return np.cumsum(log_series_excess(self.a))

    def draw_batch(self, rng, n):
        '''n loops of the normalized intensity, loop i in configuration i
        of a LoopBatch: n durations (sample_duration), then n uniform base
        sites, then their bridges (bridges), in one pass.'''
        return self._loops(rng, self.sample_duration(rng, n))

    def draw_multi_window(self, rng, n):
        '''Grid only: n loops of the normalized intensity restricted to
        two windows or more, as draw_batch draws them, with the mode
        drawn with weight c_xi and its window count from
        log_series_past_one.'''
        mode = pick(self._multi_cdf, rng, n)
        return self._loops(rng, self.nu * log_series_past_one(self.a[mode],
                                                              rng))

    def _loops(self, rng, T):
        '''Loops of the durations T: uniform base sites, then bridges.'''
        x = rng.integers(self.torus.n_sites, size=len(T))
        return bridges(self.torus, x, T, rng)
