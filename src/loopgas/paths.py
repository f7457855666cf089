'''Continuous-time simple-random-walk paths, loop intensities, samplers.

A path is a cadlag step function on a torus: a start site, a duration
T, and a strictly increasing list of (jump time, new site).  The free
walk has generator Delta/2: total jump rate d, exponential holding
times, uniform choice among the 2d signed unit steps.  On L = 1 every
step wraps onto its site, so no jump is recorded.

Walks and loops are drawn as arrays, a whole batch at a time, and held
in a LoopBatch (flat arrays, CSR jumps), in the order they were built;
each loop carries its configuration as a label.
There is no separate free-walk sampler: the walk from x over [0, T] has
the law sum_y psi^{L,T}(y - x) W^T_{x->y}, so it is an end site y drawn
from the heat kernel, then the bridge to y.  The loop laws take the
heat kernel at the origin and the free mode weights from the torus
(Torus.heat_kernel_at_origin, Torus.free_weights).

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
POISSON_TAIL = 1e-16.  A coordinate with delta = 0 (every coordinate of
a closed loop) inverts to no jump exactly when its three uniforms fall
in the first cells, and the masses of those cells have L-term closed
forms (_first_cell_masses); so such a coordinate is tested against them
first, with a margin, and the table and the inversion serve only the
coordinates that may jump.  Short loops, most of a small-eps soup, build
no table row at all; every draw and count is the full inversion's.  A
call whose table and count columns would exceed MAX_BRIDGE_CELLS cells,
counted for the whole call as if every coordinate inverted, draws in
chunks of its walks, each within the budget, and puts walk k back at
position k: the walks sorted stably from the longest duration down, the
first n // 2 of them drawn as one call, then the rest, each split again
while it exceeds the budget.  The longest walk thus comes first, and
when it alone exceeds the budget the call raises ValueError before any
draw.  The budget bounds the tables of each chunk, not the jumps of the
whole call.  A call may hold the walks of several streams (the workers'
generators), and each stream's walks are those of a call of its own:
they draw from the stream's generator, their table rows are cut at the
stream's longest duration, and a call over the budget splits by stream
first.
LoopIntensity.draw_batch draws loop durations and base sites for a
batch, then their bridges; draw_multi_window does the same for the grid
loops of two windows or more.
'''

import functools
import math

import numpy as np

# truncation of the bridge sampler's Poisson tables (_table_cut)
POISSON_TAIL = 1e-16
# Most cells of one bridges call's residue table and count columns
MAX_BRIDGE_CELLS = 2 ** 25


def _segments(offsets, index):
    '''Flat positions of the segments index of a CSR layout, in order.'''
    lo = offsets[index]
    n = offsets[index + 1] - lo
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())


def bridges(torus, x, T, rngs, counts, y=None):
    '''Walks from the sites x to the sites y over the durations T
    (arrays of one length n; y None: closed walks, y = x), exactly and
    in one pass: a LoopBatch with walk k in configuration k.  The walks
    come from streams: the first counts[0] draw from the generator
    rngs[0], the next counts[1] from rngs[1], and so on, and each
    stream's walks are those of a call of its own.

    Draws from each stream, in order: its n_i x d x 3 uniforms (per
    walk and coordinate, the residue of the down count mod L, then the
    up and the down count, by inverse CDF), then the uniform jump times
    of its walks; the signed steps of a walk take the order of their
    times.  Where y = x the draws and the paths are those of y None.  On
    L = 1 it draws nothing and records no jump.  A coordinate that does
    not move and whose three uniforms fall in the first cell of each
    inversion (_first_cell_masses) takes no jump and no table row; the
    table holds the durations of the other coordinates only, each row
    cut at its stream's longest duration, so every count is the full
    inversion's of a one-stream call.  Over MAX_BRIDGE_CELLS, counted
    for the whole call as if every coordinate inverted, a call splits by
    stream first, each stream's walks drawn as a call of their own; a
    one-stream call draws in chunks: the first n // 2 walks in stable
    order of decreasing duration, then the rest, walk k back at position
    k.  ValueError when one walk alone is over, before any draw of its
    stream.'''
    x = np.asarray(x, dtype=np.int64)
    T = np.asarray(T, dtype=float)
    n, d, L = len(x), torus.d, torus.L
    if L == 1 or n == 0:
        return LoopBatch(n, np.arange(n), x, T, np.zeros(n, dtype=np.int64),
                         [], [])
    # per walk and coordinate, the up count's residue minus the down's
    shift = None if y is None else (torus.coords[y] - torus.coords[x]) % L
    if shift is not None and not shift.any():
        shift = None
    # the table rows: each stream's distinct T/2, increasing, stream after
    # stream, each cut at its stream's longest duration
    lam, row, last = _distinct_by_stream(T / 2, counts)
    # the budget counts the cumulative count columns (n, d, 1 or 2, M) too
    rows = len(lam) * L + n * d * (1 if shift is None else 2)
    try:
        cut = _table_cut(lam[last].tolist(), rows, L)
    except ValueError:
        if len(rngs) > 1:
            ends = np.cumsum(counts)
            return LoopBatch.join(n, [
                (np.arange(hi - k, hi), bridges(
                    torus, x[hi - k:hi], T[hi - k:hi], [rng], [k],
                    None if y is None else np.asarray(y)[hi - k:hi]), None)
                for rng, k, hi in zip(rngs, counts, ends)])
        if n == 1:
            raise
        order = np.argsort(-T, kind="stable")
        chunks = LoopBatch.join(n, [
            (part, bridges(torus, x[part], T[part], rngs, [len(part)],
                           None if y is None else np.asarray(y)[part]), None)
            for part in (order[:n // 2], order[n // 2:])])
        # chunk position j holds walk order[j]
        return LoopBatch.join(n, [(np.arange(n), chunks, np.argsort(order))])
    if len(cut) == 1:
        cut = cut[0]
    else:
        cut = np.repeat(np.array(cut), [b - a for a, b
                                        in zip([-1] + last[:-1], last)])
    u = _by_stream(rngs, counts, lambda rng, k: rng.random((k, d, 3)))
    # the coordinates that go through the inversion, flat (walk k, axis j
    # at k d + j), and their rows of the distinct T/2: all of them, or
    # all but those that stay put in the first cells
    still = np.ones((n, d), dtype=bool) if shift is None else shift == 0
    if not still.any():
        move, sub, need = slice(None), np.repeat(row, d), slice(None)
    else:
        q0, ret = _first_cell_masses(lam, L)
        # u_0 up to q_0^2 / sum_r q_r^2, and u_1, u_2 below e^{-lam} / q_0,
        # invert to the first cells.  Each bound is pulled in by 1e-9, q_0
        # absolutely (its closed form sums L signed terms of size <= 1),
        # the rest relatively: far past the rounding of the closed forms
        # and of the table (below 1e-12 relative wherever e^{-lam} > 0),
        # so a coordinate near an edge inverts.  Where e^{-lam} = 0 the
        # strict < leaves every coordinate to invert.
        first = ((1.0 - 1e-9) * np.maximum(q0 - 1e-9, 0.0) ** 2
                 / ret)[row][:, None]
        none = ((1.0 - 1e-9) * np.exp(-lam) / (q0 + 1e-9))[row][:, None]
        still &= ((u[..., 0] <= first)
                  & (np.maximum(u[..., 1], u[..., 2]) < none))
        move = np.flatnonzero(~still)
        walk_row = row[move // d]
        need = np.zeros(len(lam), dtype=bool)
        need[walk_row] = True
        sub = (np.cumsum(need) - 1)[walk_row]
    per_dir = np.zeros((n * d, 2), dtype=np.int64)
    if len(sub):
        table = _poisson_rows(lam[need], cut[need] if np.ndim(cut) else cut,
                              L)
        q = table.sum(axis=1)
        um = u.reshape(n * d, 3)[move]
        if shift is None:
            q2 = np.cumsum(q ** 2, axis=1)[sub]
        else:
            delta = shift.reshape(n * d)[move]
            up = (np.arange(L) + delta[:, None]) % L
            q2 = np.cumsum(q[sub] * q[sub[:, None], up], axis=1)
        residue = np.count_nonzero(q2 < (um[:, 0] * q2[:, -1])[:, None],
                                   axis=1)
        # the residues of the (up, down) counts, one shared column when x = y
        res = (residue[:, None] if shift is None
               else np.stack(((residue + delta) % L, residue), axis=-1))
        # cumulative Poisson mass of each residue class, per coordinate
        col = np.cumsum(table[sub[:, None], :, res], axis=2)
        level = um[:, 1:] * col[..., -1]
        per_dir[move] = res + L * np.count_nonzero(col < level[..., None],
                                                   axis=2)
    # per_dir[k, j] = the (up, down) counts of coordinate j of walk k,
    # that is, of the directions 2j and 2j + 1
    per_dir = per_dir.reshape(n, 2 * d)
    steps = np.repeat(np.tile(np.arange(2 * d), n), per_dir.ravel())
    jumps = per_dir.sum(axis=1)
    jump_walk = np.repeat(np.arange(n), jumps)
    times = _by_stream(rngs, _stream_totals(jumps, counts),
                       lambda rng, k: rng.random(k)) * T[jump_walk]
    order = pair_order(jump_walk, times)
    return LoopBatch(n, np.arange(n), x, T, jumps, times[order],
                     _sites(torus, x, jumps, steps[order]))


def _distinct_by_stream(values, counts):
    '''The distinct values of each stream, the segments of counts[i]
    entries: (those values, increasing, stream after stream; the index
    among them of each entry; the index of each nonempty stream's
    largest).'''
    n = len(values)
    if len(counts) == 1:
        order = np.argsort(values)
        first = [0]
    else:
        ends = np.cumsum(counts)
        first = [hi - k for k, hi in zip(counts, ends) if k]
        order = np.concatenate([np.argsort(values[lo:hi]) + lo for lo, hi
                                in zip(first, first[1:] + [n])])
    ordered = values[order]
    new = np.empty(n, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    new[first] = True
    rank = np.cumsum(new) - 1
    index = np.empty(n, dtype=np.int64)
    index[order] = rank
    return (ordered[new], index,
            rank[[hi - 1 for hi in first[1:] + [n]]].tolist())


def _by_stream(rngs, counts, draw):
    '''draw(rng, k) of each generator rngs[i] and its count counts[i],
    joined in stream order on the first axis (each part of a tuple on
    its own); one stream's draw as it is, with no copy.'''
    if len(rngs) == 1:
        return draw(rngs[0], counts[0])
    parts = [draw(rng, k) for rng, k in zip(rngs, counts)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(part) for part in zip(*parts))
    return np.concatenate(parts)


def _stream_totals(values, counts):
    '''The sums of values over consecutive segments of counts[i] entries,
    as a list of ints.'''
    totals, lo = [], 0
    for k in counts:
        totals.append(int(values[lo:lo + k].sum()))
        lo += k
    return totals


def pair_order(major, minor):
    '''The stable order of the pairs (major[i], minor[i]), lexicographic,
    as np.lexsort((minor, major)) gives it: one stable argsort of the
    complex key major + i minor, which numpy sorts by real part, then
    imaginary part.  The key is written in place, with no complex
    temporary; major must be exact as a float (integers below 2^53).'''
    key = np.empty(len(major), dtype=complex)
    key.real = major
    key.imag = minor
    return np.argsort(key, kind="stable")


def _first_cell_masses(lam, L):
    '''(q_0, sum_r q_r^2) per entry of lam, q_r = P(X = r mod L), X ~
    Poisson(lam): with z_j = e^{lam (w^j - 1)}, w = e^{2 pi i / L}, q_0 =
    mean_j Re z_j, and sum_r q_r^2 = mean_j |z_j|^2 (Parseval), the 1D
    return probability at T = 2 lam.  A coordinate that does not move
    inverts to no jump exactly when u_0 sum_r q_r^2 <= q_0^2 and u_1 q_0,
    u_2 q_0 <= e^{-lam}.'''
    half = np.arange(L) * (np.pi / L)
    # |z_j| = e^{lam (cos theta_j - 1)}, theta_j = 2 half_j, by sin^2 so
    # that no digit cancels
    size = np.exp(np.multiply.outer(lam, -2.0 * np.sin(half) ** 2))
    mean = np.full(L, 1.0 / L)
    q0 = (size * np.cos(np.multiply.outer(lam, np.sin(2.0 * half)))) @ mean
    return q0, (size * size) @ mean


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


def _table_cut(tops, rows, L):
    '''The last counts of the residue tables of means up to each top of
    the list tops, as a list of ints: the first n >= top where P(X > n)
    <= p(n+1) / (1 - top/(n+2)), X ~ Poisson(top), falls below
    POISSON_TAIL, found for all tops in one evaluation.  ValueError,
    before any log-factorial is computed, when rows rows of n // L + 1
    cells exceed MAX_BRIDGE_CELLS for some top.'''
    # the cut is at least top: refusing on that first keeps the
    # log-factorials of the range below within the budget's order
    cuts = [math.ceil(top) for top in tops]
    fits = [i for i, cut in enumerate(cuts)
            if rows * (cut // L + 1) <= MAX_BRIDGE_CELLS]
    if fits:
        top = [tops[i] for i in fits]
        lo = [cuts[i] for i in fits]
        # P(X >= top + t) <= exp(-t^2 / (2 (top + t / 3))) (Bernstein) is
        # below 1e-20 at the end of each range [lo, lo + J), J at least
        # 12 sqrt(top) + 38, so each cut lies inside its range
        width = max(int(t + 12.0 * math.sqrt(t)) + 39 - c
                    for t, c in zip(top, lo))
        k1 = np.add.outer(lo, np.arange(1, width + 1))
        t = np.array(top)[:, None]
        log_bound = (k1 * np.array([math.log(x) for x in top])[:, None] - t
                     - _log_factorials(max(lo) + width + 1)[k1]
                     - np.log1p(-t / (k1 + 1.0)))
        below = log_bound < math.log(POISSON_TAIL)
        for i, c, j in zip(fits, lo, below.argmax(axis=1).tolist()):
            cuts[i] = c + j
    for top, cut in zip(tops, cuts):
        cells = rows * (cut // L + 1)
        if cells > MAX_BRIDGE_CELLS:
            raise ValueError(
                f"bridges of durations up to {2.0 * top:.4g} need at least "
                f"{cells} Poisson table cells, above MAX_BRIDGE_CELLS = "
                f"{MAX_BRIDGE_CELLS}; raise kappa")
    return cuts


def _poisson_rows(lam, cut, L):
    '''The residue table of lam cut at the count cut, an int or one per
    row: (len(lam), max cut // L + 1, L), entry [i, m, r] P(X = m L + r)
    up to m L + r = the row's cut, 0 past it.'''
    per_row = np.ndim(cut) > 0
    top = int(cut.max()) if per_row else cut
    M = top // L + 1
    p = np.zeros((len(lam), M * L))
    log_p = p[:, :top + 1]
    np.multiply.outer(np.log(lam), np.arange(top + 1), out=log_p)
    log_p -= _log_factorials(top + 1)
    log_p -= lam[:, None]
    np.exp(log_p, out=log_p)
    if per_row:
        log_p[np.arange(top + 1) > cut[:, None]] = 0.0
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
    in the order they were built.

    Loop i belongs to configuration config[i] (of 0..n_configs-1), a
    label: the loops of a configuration need not be adjacent.  It starts
    at site start[i] and lasts duration[i]; its jumps are
    times[offsets[i]:offsets[i+1]] to sites[offsets[i]:offsets[i+1]]
    (CSR offsets).  Built from arrays: configuration ids, starts,
    durations, jump counts and the flat jumps in loop order.
    '''

    def __init__(self, n_configs, config, start, duration, counts, times,
                 sites):
        self.n_configs = int(n_configs)
        self.config = np.asarray(config, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.int64)
        self.duration = np.asarray(duration, dtype=float)
        self.offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.times = np.asarray(times, dtype=float)
        self.sites = np.asarray(sites, dtype=np.int64)

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
        loops index go to the configurations ids, one to one, and the
        loops follow one another in the order of the parts and indices.'''
        fields = [batch.take(index) for _, batch, index in parts]
        return cls(n_configs, np.concatenate([ids for ids, _, _ in parts]),
                   *(np.concatenate(f) for f in zip(*fields)))

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
    (a, Torus.free_weights) the mass of nu k is sum_xi a_xi^k / k,
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
        if kind == "ginibre":
            if nu is None or not nu > 0:
                raise ValueError("ginibre intensity needs nu > 0")
            self.nu = float(nu)
            self.a = torus.free_weights(self.nu, self.kappa)
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
        psi0 = self.torus.heat_kernel_at_origin
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
                w_k * np.exp(-kappa * T) * psi0(T) * n
                for w_k, T in zip(w, np.exp(mid + np.multiply.outer(x, half))))

        cells = cell_masses(3)
        return edges, np.concatenate(([0.0], cells)), {
            "t_max": float(t_max),
            "quad_err": float(np.abs(cells - cell_masses(2)).sum()),
            "grid_points": len(edges)}

    def sample_duration(self, rngs, counts):
        '''counts[i] loop durations from each generator rngs[i], joined
        in stream order: on the grid, a stream's modes (pick) then their
        log-series draws; in the continuum, its uniforms through the CDF.
        An empty grid law (every a_xi = 0) draws nu.'''
        if self.kind == "ginibre":
            return self.nu * _by_stream(rngs, counts, lambda rng, k: (
                rng.logseries(self.a[pick(self._mode_cdf, rng, k)])))
        u = _by_stream(rngs, counts, lambda rng, k: rng.random(k))
        # each point inverts on its own, so in sorted order, where
        # np.interp searches from the previous point's cell, not by a
        # bisection of all the edges
        order = np.argsort(u)
        T = np.empty_like(u)
        T[order] = np.interp(u[order], self._cdf, self._points)
        return T

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

    def draw_batch(self, rngs, counts):
        '''counts[i] loops of the normalized intensity from each
        generator rngs[i], joined in stream order, loop i in configuration
        i of a LoopBatch: a stream's durations (sample_duration), then its
        uniform base sites, then the bridges of all (bridges), in one
        pass.'''
        return self.draw_loops(rngs, counts,
                               self.sample_duration(rngs, counts))

    def draw_multi_window(self, rngs, counts):
        '''Grid only: loops of the normalized intensity restricted to
        two windows or more, as draw_batch draws them, with the durations
        of sample_multi_window_duration.'''
        return self.draw_loops(rngs, counts,
                               self.sample_multi_window_duration(rngs, counts))

    def sample_multi_window_duration(self, rngs, counts):
        '''Grid only: counts[i] durations of the loops of two windows or
        more from each generator rngs[i], joined in stream order: a
        stream's modes drawn with weight c_xi, then their window counts
        from log_series_past_one, whose rejection rounds stay within the
        stream.'''
        return self.nu * _by_stream(rngs, counts, lambda rng, k: (
            log_series_past_one(self.a[pick(self._multi_cdf, rng, k)], rng)))

    def draw_loops(self, rngs, counts, T):
        '''Loops of the durations T, counts[i] of them from each
        generator rngs[i]: each stream's uniform base sites, then the
        bridges of all streams in one call.'''
        x = _by_stream(rngs, counts,
                       lambda rng, k: rng.integers(self.torus.n_sites, size=k))
        return bridges(self.torus, x, T, rngs, counts)
