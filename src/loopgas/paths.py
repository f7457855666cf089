'''Continuous-time simple-random-walk paths, loop intensities, samplers.

Paths are cadlag step functions on a torus: a start site, a duration T,
and a strictly increasing list of (jump time, new site).  The free walk
has generator Delta/2: total jump rate d, exponential holding times,
uniform choice among the 2d signed unit steps.  Steps that wrap onto the
current site (L = 1) are no-ops and are not recorded.  LoopBatch holds
the loops of many configurations as flat arrays, for the batched
estimators; Path is the view of one loop.
'''

import bisect
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

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


def walk(torus, x, T, rng):
    '''The free walk from x over [0, T]: (end site, jump times, jump
    sites), the one sampler of the walk.  It draws the jump count
    Poisson(d*T), the sorted uniform jump times, then the uniform signed
    steps.  On L = 1 every step wraps onto its site, so no jump is
    recorded.'''
    n_jumps = rng.poisson(torus.d * T)
    if n_jumps == 0:
        return x, _NO_TIMES, []
    times = np.sort(rng.random(n_jumps) * T)
    dirs = rng.integers(0, 2 * torus.d, n_jumps)
    if torus.L == 1:
        return x, _NO_TIMES, []
    nbr = torus.neighbor_lists
    site = x
    sites = []
    for k in dirs.tolist():
        site = nbr[site][k]
        sites.append(site)
    return site, times, sites


class LoopBatch:
    '''The loops of many configurations as flat arrays (struct of arrays),
    in draw order; Path is the view of one loop.

    Loop i belongs to configuration config[i], starts at site start[i]
    and lasts duration[i]; its jumps are times[offsets[i]:offsets[i+1]]
    to sites[offsets[i]:offsets[i+1]] (CSR offsets).  Built from a list
    of configurations, each a list of (start, duration, jump times, jump
    sites) loops.
    '''

    def __init__(self, configs):
        self.n_configs = len(configs)
        loops = [loop for config in configs for loop in config]
        self.config = np.repeat(np.arange(self.n_configs),
                                [len(config) for config in configs])
        self.start = np.array([loop[0] for loop in loops], dtype=np.int64)
        self.duration = np.array([loop[1] for loop in loops], dtype=float)
        counts = [len(loop[3]) for loop in loops]
        self.offsets = np.zeros(len(loops) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        n_jumps = int(self.offsets[-1])
        self.times = (np.concatenate([loop[2] for loop in loops])
                      if n_jumps else _NO_TIMES)
        self.sites = np.fromiter(
            itertools.chain.from_iterable(loop[3] for loop in loops),
            dtype=np.int64, count=n_jumps)

    @classmethod
    def from_paths(cls, configs):
        '''The batch of configurations given as lists of Paths.'''
        return cls([[(p.start, p.duration, p.jump_times, p.jump_sites)
                     for p in config] for config in configs])


class LoopIntensity:
    '''Single-loop intensity measure of an ensemble, and its open-path law.

    kind "ginibre":      nu * sum_{T in nu N*} (e^{-kappa T}/T) W^{L,T}
    kind "symanzik_eps": int_eps^inf dT (e^{-kappa T}/T) W^{L,T}

    Closed loops: total mass m = sum/int of e^{-kappa T} psi^{L,T}(0)
    |Lambda| / T; the normalized measure factorizes as (duration law) x
    (uniform base site) x (bridge), and draw takes bridges by rejection,
    with acceptance probability psi^{L,T}(0).

    Open paths carry the duration weight e^{-kappa T}, on nu N* for the
    grid and on (0, inf) in the continuum: open_duration draws from it
    normalized (geometric on the grid, exponential in the continuum) and
    open_normalization is its total, e^{-kappa nu}/(1 - e^{-kappa nu}) on
    the grid and 1/kappa in the continuum.
    '''

    TAIL = 1e-12
    MAX_WALKS = 10000       # bridge attempts per loop before RuntimeError

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
        while (n * a ** (k_max + 1) / ((k_max + 1) * (1 - a)) > self.TAIL * a
               and k_max < 100000):
            k_max += 1
        k = np.arange(1, k_max + 1)
        w = np.exp(-kappa * nu * k) * self.hk.at_origin(nu * k) * n / k
        self.total_mass = float(w.sum())
        tail = n * a ** (k_max + 1) / ((k_max + 1) * (1 - a))
        self._durations = nu * k
        self._probs = w / w.sum()
        self._cum = np.cumsum(self._probs)
        self._cum_list = self._cum.tolist()
        self._duration_list = self._durations.tolist()
        self.metadata.update(k_max=k_max, tail_bound=float(tail))

    # -- symanzik: eps-truncated continuum law ------------------------------
    def _build_continuum_law(self):
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

    def _duration(self, rng):
        '''One duration from one uniform draw, as a float; the grid law
        takes the first cumulative probability >= u, as sample_duration.'''
        u = rng.random()
        if self.kind == "ginibre":
            idx = bisect.bisect_left(self._cum_list, u)
            return self._duration_list[min(idx, len(self._cum_list) - 1)]
        return float(np.interp(u, self._cdf, self._grid))

    def draw(self, rng):
        '''One loop as (start, duration, jump times, jump sites, walks):
        a duration, a uniform base site, then free walks from the base
        site until one closes; walks counts the attempts.  The one
        sampler of the loops.'''
        T = self._duration(rng)
        x = int(rng.integers(self.torus.n_sites))
        for tries in range(1, self.MAX_WALKS + 1):
            end, times, sites = walk(self.torus, x, T, rng)
            if end == x:
                return x, T, times, sites, tries
        raise RuntimeError(
            f"bridge rejection budget exceeded (T={T}, acceptance "
            f"~ {self.hk.at_origin(T):.3e})")

    def open_duration(self, rng):
        '''One duration of the normalized open-path law e^{-kappa T} /
        open_normalization: nu times a geometric count on the grid, an
        exponential in the continuum.'''
        if self.kind == "ginibre":
            return float(self.nu * rng.geometric(self._open_p))
        return float(rng.exponential(1.0 / self.kappa))
