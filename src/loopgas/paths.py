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
uniform signed steps, then, only for the walks it keeps, the uniform
jump times, sorted within each walk.  A walk's end site follows from the
net displacement of its steps mod L per coordinate, and its sites from
the cumulative sum of its steps.  LoopIntensity.draw_batch draws loop
durations and base sites for a batch and re-walks the loops still open,
round after round, until every loop has closed.
'''

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


def _segments(offsets, index):
    '''Flat positions of the segments index of a CSR layout, in order.'''
    lo = offsets[index]
    n = offsets[index + 1] - lo
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())


def walks(torus, x, T, rng, target=None):
    '''Free walks from the sites x over the durations T (arrays of one
    length n): (end sites, LoopBatch of the kept walks).  A walk is kept
    when it ends at its target (an array like x); target None keeps all.
    Kept walk k lies in configuration k of the batch (n configurations),
    so the batch's config lists the kept walks.

    Draws, in order: the jump counts Poisson(d T) of all walks, their
    uniform signed steps (directions in 0..2d-1, torus.steps order), and
    the uniform jump times of the kept walks only, sorted within each
    walk.  On L = 1 it draws the counts alone and records no jump.'''
    x = np.asarray(x, dtype=np.int64)
    T = np.asarray(T, dtype=float)
    n, d = len(x), torus.d
    counts = rng.poisson(d * T)
    if torus.L == 1:
        end = x.copy()
        kept = np.arange(n) if target is None else np.flatnonzero(end == target)
        return end, LoopBatch(n, kept, x[kept], T[kept],
                              np.zeros(len(kept), dtype=np.int64),
                              _NO_TIMES, _NO_SITES)
    dirs = rng.integers(0, 2 * d, int(counts.sum()))
    step_walk = np.repeat(np.arange(n), counts)
    # net displacement per coordinate: step k moves coordinate k // 2 by
    # +1 (k even) or -1 (k odd)
    disp = np.bincount(step_walk * d + dirs // 2, weights=1 - 2 * (dirs % 2),
                       minlength=n * d).reshape(n, d).astype(np.int64)
    end = torus.index_of(torus.coords[x] + disp)
    if target is None:
        kept, steps = np.arange(n), dirs
    else:
        keep = end == target
        kept, steps = np.flatnonzero(keep), dirs[keep[step_walk]]
    k_counts = counts[kept]
    jump_walk = np.repeat(np.arange(len(kept)), k_counts)
    # sites by a cumulative sum of the steps, restarted at each walk
    moves = np.cumsum(torus.steps[steps], axis=0)
    first = np.cumsum(k_counts) - k_counts
    before = np.concatenate((np.zeros((1, d), dtype=np.int64), moves))[first]
    sites = torus.index_of(torus.coords[x[kept]][jump_walk] + moves
                           - before[jump_walk])
    times = rng.random(len(steps)) * T[kept][jump_walk]
    times = times[np.lexsort((times, jump_walk))]
    return end, LoopBatch(n, kept, x[kept], T[kept], k_counts, times, sites)


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
    '''Single-loop intensity measure of an ensemble, and its open-path law.

    kind "ginibre":      nu * sum_{T in nu N*} (e^{-kappa T}/T) W^{L,T}
    kind "symanzik_eps": int_eps^inf dT (e^{-kappa T}/T) W^{L,T}

    Closed loops: total mass m = sum/int of e^{-kappa T} psi^{L,T}(0)
    |Lambda| / T; the normalized measure factorizes as (duration law) x
    (uniform base site) x (bridge), and draw_batch takes bridges by
    rejection, with acceptance probability psi^{L,T}(0).

    Open paths carry the duration weight e^{-kappa T}, on nu N* for the
    grid and on (0, inf) in the continuum: open_duration draws from it
    normalized (geometric on the grid, exponential in the continuum) and
    open_normalization is its total, e^{-kappa nu}/(1 - e^{-kappa nu}) on
    the grid and 1/kappa in the continuum.
    '''

    TAIL = 1e-12
    MAX_WALKS = 10000       # bridge attempts per loop before RuntimeError
    MAX_TERMS = 100000      # grid durations before the law is refused

    def __init__(self, torus, kind, kappa, nu=None, eps=None):
        if kappa <= 0:
            raise ValueError("kappa must be > 0")
        self.torus = torus
        self.kind = kind
        self.kappa = float(kappa)
        self.hk = HeatKernel(torus)
        self.metadata = {}
        if kind == "ginibre":
            if nu is None or nu <= 0:
                raise ValueError("ginibre intensity needs nu > 0")
            self.nu = float(nu)
            self._build_grid_law()
        elif kind == "symanzik_eps":
            if eps is None or eps <= 0:
                raise ValueError("symanzik intensity needs eps > 0")
            self.eps = float(eps)
            self._build_continuum_law()
        else:
            raise ValueError(f"unknown intensity kind {kind!r}")

    # -- ginibre: discrete duration grid ------------------------------------
    def _build_grid_law(self):
        nu, kappa, n = self.nu, self.kappa, self.torus.n_sites
        a = np.exp(-kappa * nu)
        self._open_p = 1.0 - a
        self.open_normalization = a / (1.0 - a)
        # truncate when the remaining tail (psi <= 1 bound) drops below
        # TAIL times a lower bound on the mass (first term, psi >= 1/n)
        k_max = 1
        while n * a ** (k_max + 1) / ((k_max + 1) * (1 - a)) > self.TAIL * a:
            if k_max == self.MAX_TERMS:
                raise ValueError(
                    f"kappa * nu = {kappa * nu:.3g} is too small: the grid "
                    f"duration law needs more than {self.MAX_TERMS} terms "
                    f"for a tail below {self.TAIL:g}")
            k_max += 1
        k = np.arange(1, k_max + 1)
        w = np.exp(-kappa * nu * k) * self.hk.at_origin(nu * k) * n / k
        self.total_mass = float(w.sum())
        tail = n * a ** (k_max + 1) / ((k_max + 1) * (1 - a))
        self._durations = nu * k
        self._probs = w / w.sum()
        self._cum = np.cumsum(self._probs)
        self.metadata.update(k_max=k_max, tail_bound=float(tail))

    # -- symanzik: eps-truncated continuum law ------------------------------
    def _build_continuum_law(self):
        from scipy import integrate

        kappa, eps, n = self.kappa, self.eps, self.torus.n_sites
        self.open_normalization = 1.0 / kappa

        def integrand(t):
            return np.exp(-kappa * t) * self.hk.at_origin(t) * n / t

        # T_max so the dropped tail (psi <= 1) is below TAIL relative
        t_max = eps
        while n * np.exp(-kappa * t_max) / (kappa * t_max) > self.TAIL:
            t_max *= 1.25
        mass, err = integrate.quad(integrand, eps, t_max, limit=500,
                                   epsabs=1e-13, epsrel=1e-12)
        # geometric grid for the tabulated inverse CDF
        grid = np.geomspace(eps, t_max, 8192)
        vals = integrand(grid)
        cdf = np.concatenate(([0.0], np.cumsum(
            0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))))
        self.total_mass = float(mass)
        self._grid = grid
        self._cdf = cdf / cdf[-1]
        self.metadata.update(t_max=float(t_max), quad_err=float(err),
                             grid_points=len(grid),
                             cdf_norm_gap=float(abs(cdf[-1] - mass) / mass))

    # -----------------------------------------------------------------------
    def sample_duration(self, rng, size):
        '''size loop durations, from size uniform draws.'''
        u = rng.random(size)
        if self.kind == "ginibre":
            idx = np.searchsorted(self._cum, u, side="left")
            idx = np.minimum(idx, len(self._durations) - 1)
            return self._durations[idx]
        return np.interp(u, self._cdf, self._grid)

    def draw_batch(self, rng, n):
        '''n loops of the normalized intensity, loop i in configuration i
        of a LoopBatch, and the number of walks drawn.

        Draws n durations (sample_duration), then n uniform base sites,
        then rounds of walks: each round walks every loop still open from
        its base site (paths.walks) and keeps the walks that close.  A
        loop still open after MAX_WALKS rounds raises RuntimeError.'''
        T = self.sample_duration(rng, n)
        x = rng.integers(self.torus.n_sites, size=n)
        todo = np.arange(n)
        parts, n_walks, rounds = [], 0, 0
        while len(todo):
            if rounds == self.MAX_WALKS:
                t = float(T[todo[0]])
                raise RuntimeError(
                    f"bridge rejection budget exceeded (T={t}, acceptance "
                    f"~ {self.hk.at_origin(t):.3e})")
            end, closed = walks(self.torus, x[todo], T[todo], rng,
                                target=x[todo])
            parts.append((todo[closed.config], closed, None))
            n_walks += len(todo)
            rounds += 1
            todo = todo[end != x[todo]]
        if not parts:
            return LoopBatch.from_paths([]), 0
        return LoopBatch.join(n, parts), n_walks

    def open_duration(self, rng, size):
        '''size durations of the normalized open-path law e^{-kappa T} /
        open_normalization: nu times a geometric count on the grid, an
        exponential in the continuum.'''
        if self.kind == "ginibre":
            return self.nu * rng.geometric(self._open_p, size)
        return rng.exponential(1.0 / self.kappa, size)
