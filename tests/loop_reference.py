'''Per-loop and per-configuration references for the batched loop code.

The samplers walks, bridges, draw_batch, draw_multi_window and
open_paths make exactly the random draws of the library's paths.walks,
paths.bridges, LoopIntensity.draw_batch, LoopIntensity.draw_multi_window
and loop_mc._OpenPaths.draw, the same calls in the same order, but build each path on its own, stepping through the
neighbour table one jump at a time, and return lists of Paths.
rejection_loops is the bridge sampler the library used before exact
bridges: it re-walks every open loop until it closes, and serves as a
statistical oracle.  The occupation kernel builds one configuration's
slices and occupations and its quadratic form at a time.  The tests
check the batched code against these, number for number.
'''

import itertools
import math

import numpy as np

from loopgas.interactions import v_tilde_table
from loopgas.paths import Path, pick


# -- samplers ------------------------------------------------------------------

def walks(torus, x, T, rng):
    '''Free walks from the sites x over the durations T: (end sites, the
    Path of each walk).  Draws the jump counts Poisson(d T) of all walks,
    then their signed steps, then their jump times, sorted per walk.'''
    return _walks(torus, x, T, rng, lambda ends: [True] * len(ends))


def _walks(torus, x, T, rng, keep):
    '''Free walks from the sites x over the durations T: (end sites, the
    Path of each walk k where keep(end sites)[k] is true, None for the
    others).  Draws the jump counts Poisson(d T) of all walks, then their
    signed steps, then the jump times of the kept walks, sorted per
    walk.'''
    counts = rng.poisson(torus.d * np.asarray(T, dtype=float))
    if torus.L == 1:
        paths = [Path(int(xk), float(Tk)) for xk, Tk in zip(x, T)]
        ends = [int(xk) for xk in x]
    else:
        dirs = rng.integers(0, 2 * torus.d, int(counts.sum()))
        paths, ends, lo = [], [], 0
        for xk, Tk, c in zip(x, T, counts):
            site, sites = int(xk), []
            for k in dirs[lo:lo + c]:
                site = int(torus.neighbor_table[site, k])
                sites.append(site)
            lo += c
            ends.append(site)
            paths.append(Path(int(xk), float(Tk), None,
                              np.array(sites, dtype=np.int64)))
    for k, (path, kept) in enumerate(zip(paths, keep(ends))):
        if not kept:
            paths[k] = None
        elif path.jump_times is None:
            n = len(path.jump_sites)
            path.jump_times = np.sort(rng.random(n) * path.duration)
    return ends, paths


def sample_free_walk(torus, x, T, rng):
    '''One free walk from x over [0, T], as a Path.'''
    if T <= 0:
        raise ValueError("T must be > 0")
    return walks(torus, [x], [T], rng)[1][0]


def _poisson_masses(lam):
    '''p(n; lam) for n = 0, 1, ..., up to the first n >= lam with
    p(n) < 1e-20.'''
    masses = []
    for n in itertools.count():
        masses.append(math.exp(n * math.log(lam) - lam - math.lgamma(n + 1)))
        if n >= lam and masses[-1] < 1e-20:
            return masses


def _first_at_least(weights, u):
    '''The first index at which the running sum of weights reaches u
    times their total.'''
    cum = np.cumsum(weights)
    return int(np.flatnonzero(cum >= u * cum[-1])[0])


def bridges(torus, x, T, rng, y=None):
    '''Walks from the sites x to the sites y (None: back to x) over the
    durations T, as Paths.  Draws n x d x 3 uniforms (per walk and
    coordinate, with delta the coordinate of y - x mod L: the residue r
    of the down count mod L, with weight q_r q_{r+delta}, then the up and
    the down count, Poisson(T/2) restricted to r + delta and to r), then
    the jump times of all walks; each walk's steps take the order of its
    times.'''
    if torus.L == 1:
        return [Path(int(xk), float(Tk)) for xk, Tk in zip(x, T)]
    L = torus.L
    y = x if y is None else y
    u = rng.random((len(x), torus.d, 3))
    steps = []
    for k, Tk in enumerate(T):
        p = _poisson_masses(Tk / 2)
        q = [sum(p[r::L]) for r in range(L)]
        steps.append([])
        for j in range(torus.d):
            delta = int(torus.coords[y[k], j] - torus.coords[x[k], j]) % L
            r = _first_at_least([q[s] * q[(s + delta) % L] for s in range(L)],
                                u[k, j, 0])
            a = (r + delta) % L
            up = a + L * _first_at_least(p[a::L], u[k, j, 1])
            down = r + L * _first_at_least(p[r::L], u[k, j, 2])
            steps[-1] += [2 * j] * up + [2 * j + 1] * down
    times = rng.random(sum(len(s) for s in steps))
    paths, lo = [], 0
    for xk, Tk, s in zip(x, T, steps):
        t = times[lo:lo + len(s)] * Tk
        lo += len(s)
        order = np.argsort(t, kind="stable")
        site, sites = int(xk), []
        for i in order:
            site = int(torus.neighbor_table[site, s[i]])
            sites.append(site)
        paths.append(Path(int(xk), float(Tk), t[order],
                          np.array(sites, dtype=np.int64)))
    return paths


def draw_batch(intensity, rng, n):
    '''n loops of the intensity, as Paths: n durations, n uniform base
    sites, then their bridges.'''
    T = intensity.sample_duration(rng, n)
    x = rng.integers(intensity.torus.n_sites, size=n)
    return bridges(intensity.torus, x, T, rng)


def multi_window_masses(a):
    '''c_xi = sum_{k >= 2} a_xi^k / k of each mode, summed term by term
    (math.fsum) until a term falls below 1e-18 of the first.'''
    out = []
    for x in np.asarray(a, dtype=float).tolist():
        terms, k = [], 2
        while x > 0 and (not terms or terms[-1] > 1e-18 * terms[0]):
            terms.append(x ** k / k)
            k += 1
        out.append(math.fsum(terms))
    return out


def draw_multi_window(intensity, rng, n):
    '''n grid loops of two windows or more, as Paths: n modes with
    weights multi_window_masses (through the intensity's picking rule),
    then the window counts in rounds over the loops not yet accepted, in
    pending order: the log-series draws of the modes with a >= 1/2 (k = 1
    rejected), then for the others a uniform u each, whose geometric
    count k = 2 + floor(log(1 - u) / log a) is the smallest k >= 2 with
    1 - u > a^(k - 1), then a uniform u' each (k accepted when u' k < 2);
    then n uniform base sites and their bridges.'''
    cdf = np.cumsum(multi_window_masses(intensity.a))
    a = [float(intensity.a[mode]) for mode in pick(cdf, rng, n)]
    k, todo = [0] * n, list(range(n))
    while todo:
        hi = [i for i in todo if a[i] >= 0.5]
        lo = [i for i in todo if a[i] < 0.5]
        for i in hi:
            k[i] = int(rng.logseries(a[i]))
        for i in lo:
            u, k[i] = 1.0 - float(rng.random()), 2
            while u <= a[i] ** (k[i] - 1):
                k[i] += 1
        kept = [float(rng.random()) * k[i] < 2.0 for i in lo]
        todo = ([i for i in hi if k[i] < 2]
                + [i for i, ok in zip(lo, kept) if not ok])
    x = rng.integers(intensity.torus.n_sites, size=n)
    return bridges(intensity.torus, x, intensity.nu * np.array(k, dtype=float),
                   rng)


def rejection_loops(intensity, rng, n):
    '''n loops of the intensity by rejection: n durations, n uniform base
    sites, then rounds of free walks of the loops still open, each kept
    once it closes.  Returns (Paths, number of walks drawn).'''
    T = intensity.sample_duration(rng, n)
    x = rng.integers(intensity.torus.n_sites, size=n)
    loops, todo, n_walks = [None] * n, list(range(n)), 0
    for _ in range(10000):
        if not todo:
            break
        n_walks += len(todo)
        _, paths = _walks(intensity.torus, [x[i] for i in todo],
                          [T[i] for i in todo], rng,
                          lambda ends: [end == x[i]
                                        for end, i in zip(ends, todo)])
        for i, path in zip(todo, paths):
            loops[i] = path
        todo = [i for i in todo if loops[i] is None]
    if todo:
        raise RuntimeError("bridge rejection budget exceeded")
    return loops, n_walks


def free_symbol(intensity):
    '''The symbol of the free kernel G per mode xi, in site order:
    a/(1-a), a = e^{-nu(kappa + lambda_xi)}, on the grid and
    1/(kappa + lambda_xi) in the continuum.'''
    rates = intensity.hk.rates
    if intensity.kind == "ginibre":
        a = np.exp(-intensity.nu * (intensity.kappa + rates))
        return a / (1.0 - a)
    return 1.0 / (intensity.kappa + rates)


def free_kernel(intensity, site):
    '''G at a site: the mean over the modes xi of the symbol times
    cos(xi . x).'''
    torus = intensity.torus
    xi = 2.0 * np.pi * torus.coords / torus.L
    return float(np.mean(free_symbol(intensity)
                         * np.cos(xi @ torus.coords[site])))


def _first_above(weights, u):
    '''The first index at which the running sum of weights exceeds u
    times their total.'''
    cum = np.cumsum(weights)
    return int(np.flatnonzero(cum > u * cum[-1])[0])


def open_paths(intensity, xs, ys, rng, m):
    '''The open paths of m kernel samples, as (list of p Paths, weight)
    per sample.  Draws m permutations pi of S_p (itertools order) with
    weight prod_i G(y_pi(i) - x_i), then m p modes xi with weight g_xi,
    then m p durations (nu Geometric(1 - a_xi) on the grid, Exp(kappa +
    lambda_xi) in the continuum), in (sample, path) order, then the m p
    bridges x_i -> y_pi(i).  The weight is perm(G) prod_i G(0)
    psi^{T_i}(delta_i) / (G(delta_i) psi^{T_i}(0)).'''
    torus, hk, p = intensity.torus, intensity.hk, len(xs)
    perms = list(itertools.permutations(range(p)))
    G = {(x, y): free_kernel(intensity, torus.diff_table[y, x])
         for x in xs for y in ys}
    g0 = free_kernel(intensity, 0)
    prob = [math.prod(G[xs[i], ys[pi[i]]] for i in range(p)) for pi in perms]
    pis = [perms[_first_above(prob, u)] for u in rng.random(m)]
    symbol = free_symbol(intensity)
    modes = [_first_above(symbol, u) for u in rng.random(m * p)]
    if intensity.kind == "ginibre":
        a = np.exp(-intensity.nu * (intensity.kappa + hk.rates))
        T = [intensity.nu * float(rng.geometric(1.0 - a[k])) for k in modes]
    else:
        T = [float(rng.exponential(1.0 / (intensity.kappa + hk.rates[k])))
             for k in modes]
    ends = [ys[pi[i]] for pi in pis for i in range(p)]
    paths = bridges(torus, list(xs) * m, T, rng, ends)
    out = []
    for s, pi in enumerate(pis):
        weight = sum(prob)
        for i in range(p):
            x, y, t = xs[i], ys[pi[i]], T[s * p + i]
            weight *= (g0 * hk.table(t)[torus.diff_table[y, x]]
                       / (G[x, y] * hk.table(t)[0]))
        out.append((paths[s * p:(s + 1) * p], weight))
    return out


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
