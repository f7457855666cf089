'''Per-loop and per-configuration references for the batched loop code.

The walk, bridge and open-path samplers draw exactly the stream of the
library's paths.walk, LoopIntensity.draw and LoopIntensity.open_duration,
one Path at a time, with the jumps stepped through the neighbour table;
the occupation kernel builds one configuration's slices and occupations
and its quadratic form at a time.  The tests check the batched code
against these, number for number.
'''

import numpy as np

from loopgas.interactions import v_tilde_table
from loopgas.paths import Path


# -- samplers ------------------------------------------------------------------

def sample_free_walk(torus, x, T, rng):
    '''Draw from P_x^T: jump clock Poisson(d*T), uniform signed steps;
    steps that wrap onto the current site (L = 1) are not recorded.'''
    if T <= 0:
        raise ValueError("T must be > 0")
    n_jumps = rng.poisson(torus.d * T)
    if n_jumps == 0:
        return Path(int(x), float(T))
    times = np.sort(rng.random(n_jumps) * T)
    dirs = rng.integers(0, 2 * torus.d, n_jumps)
    site = int(x)
    keep_t, keep_s = [], []
    for t, k in zip(times, dirs):
        nxt = int(torus.neighbor_table[site, k])
        if nxt != site:
            keep_t.append(t)
            keep_s.append(nxt)
            site = nxt
    return Path(int(x), float(T), np.array(keep_t),
                np.array(keep_s, dtype=np.int64))


def sample_loop(intensity, rng, max_tries=10000):
    '''A loop of the intensity: its duration, a uniform base site, and
    free walks until one closes.  Returns (Path, walks drawn).'''
    T = float(intensity.sample_duration(rng, size=1)[0])
    x = int(rng.integers(intensity.torus.n_sites))
    for tries in range(1, max_tries + 1):
        path = sample_free_walk(intensity.torus, x, T, rng)
        if path.end == x:
            return path, tries
    raise RuntimeError("bridge rejection budget exceeded")


def open_duration(intensity, rng):
    '''A duration of the normalized open-path law e^{-kappa T}: nu times
    a geometric count on the grid, an exponential in the continuum.'''
    if intensity.kind == "ginibre":
        a = np.exp(-intensity.kappa * intensity.nu)
        return intensity.nu * float(rng.geometric(1.0 - a))
    return float(rng.exponential(1.0 / intensity.kappa))


def open_normalization(intensity):
    '''Total weight of e^{-kappa T} over the durations: sum over T in
    nu N*, or the integral over (0, inf).'''
    if intensity.kind == "ginibre":
        a = np.exp(-intensity.kappa * intensity.nu)
        return a / (1.0 - a)
    return 1.0 / intensity.kappa


# -- occupation kernel ---------------------------------------------------------

def check_grid(path, nu):
    n = path.duration / nu
    if abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise ValueError(f"duration {path.duration} not on the grid nu N*")


def occupations(config, params, kind):
    '''Slice weights w (K,) and stacked per-loop occupations N (loops, K,
    sites) such that the pair interaction of loops i, j is
    sum_k w_k N[i, k] v N[j, k]^T.

    Grid ensemble: [0, nu) is cut at every jump time mod nu, and
    N[i, k, x] counts the windows a of loop i with w_i(a nu + t) = x for t
    in slice k (evaluated at the slice midpoints); w_k = lam |slice k| /
    nu.  Continuum ensemble: one slice holding the local times, w = lam.
    '''
    n_sites = params.torus.n_sites
    if kind != "ginibre":
        N = np.array([w.local_time_table(n_sites) for w in config])
        return np.array([params.lam]), N.reshape(len(config), 1, n_sites)
    nu = params.nu
    for w in config:
        check_grid(w, nu)
    cuts = np.unique(np.concatenate(
        [[0.0, nu]] + [np.mod(w.jump_times, nu) for w in config]))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    K = len(mid)
    slot = np.arange(K) * n_sites
    N = np.empty((len(config), K, n_sites))
    for i, w in enumerate(config):
        t = nu * np.arange(round(w.duration / nu))[:, None] + mid
        sites = np.concatenate(([w.start], w.jump_sites))[
            np.searchsorted(w.jump_times, t, side="right")]
        N[i] = np.bincount((slot + sites).ravel(),
                           minlength=K * n_sites).reshape(K, n_sites)
    return params.lam / nu * np.diff(cuts), N


def form(w, N, vmat):
    '''P[i, j] = sum_k w_k N[i, k] vmat N[j, k]^T; +inf where an infinite
    vmat entry meets sites occupied in a common slice of positive weight.'''
    n, K, s = N.shape
    core = np.isinf(vmat)
    weighted = (w[:, None] * N) @ np.where(core, 0.0, vmat)
    P = weighted.reshape(n, K * s) @ N.reshape(n, K * s).T
    if core.any():
        occ = (N > 0) * (w > 0)[:, None]
        hits = (occ @ core).reshape(n, K * s) @ occ.reshape(n, K * s).T
        P[hits] = np.inf
    return P


def pair_matrix(config, params, kind):
    w, N = occupations(config, params, kind)
    return form(w, N, params.vL[params.torus.diff_table])


def v_total(config, params, kind):
    '''1/2 sum_k w_k n_k^T v n_k; the grid hard core is exclusion with
    v-tilde.'''
    w, N = occupations(config, params, kind)
    n = N.sum(axis=0)[None]
    vL = params.vL
    if kind == "ginibre" and params.R == 1:
        if np.any(n > 1):
            return np.inf
        vL = v_tilde_table(vL, params.torus, 1)
    return 0.5 * float(form(w, n, vL[params.torus.diff_table])[0, 0])
