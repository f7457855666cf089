'''Exact grand-canonical quantities on small lattices by dense linear
algebra, streamed over the particle number n.

Without a hard core, H_n is written in the occupation basis of the plane
waves a_k = |Lambda|^{-1/2} sum_x e^{-ik.x} a_x: the kinetic term is
diagonal (eps_k, the Fourier symbol of -(nu/2) Delta) and the interaction
is (lam/2|Lambda|) sum_{k,k',q} vhat(q) a+_{k+q} a+_{k'-q} a_{k'} a_k
+ (lam/2) v(0) N.  Total momentum splits block n into |Lambda| sectors,
real symmetric for an even v, and sector -K is sector K reflected (k ->
-k): grand_sum diagonalizes one sector of each such pair and counts its
trace and its Gamma_p twice (the reflected Gamma_p is the complex
conjugate on the sites, of the same real part).  A hard core (R = 1)
has no finite vhat: its modes are the sites, each holding at most one
particle, and block n is one sector.  Consecutive blocks are
enumerated, keyed and mapped in one run, up to _RUN_CELLS states x
terms (or one larger block) and never past the last block the pass can
reach; no eigenvectors are kept between sectors, and a block with a
sector larger than MAX_SECTOR_DIM raises MemoryError before it is
built.  grand_sum at p = 0 needs eigenvalues only; at p >= 1 it
contracts the eigenvectors with the lowering maps in the same pass and
maps the mode kernel to sites, so one pass gives both the partition
function and Gamma_p.

Interaction bound: for a finite v, H_n = K_n + (lam/2) n^T v n, and by
Parseval and sum_x n_x^2 <= N^2, n^T v n >= c' N^2 with c' = vhat(0)/
|Lambda| + min(0, min vhat) (1 - 1/|Lambda|).  For c = (lam/2) c' > 0
the terms from block n on sum to at most e^{-c n^2} times the free tail
from n, and each kernel entry of block n is at most n^p times its term.
Once n >= sqrt(p/2c) and n^p e^{-c n^2} (free tail from n) is below
2^-53 (and below tol), the blocks from n on cannot round Xi >= 1 and
move no entry of Gamma_p by 2^-53, so grand_sum diagonalizes none of
them: its last diagonalized block, n_diag, is n - 1.  It still walks
the blocks to the free-tail stop, so n_max, tail_bound and the
matched-truncation Xi0 do not depend on the bound.  A hard core and
c <= 0 diagonalize every block.  _stop_plan gives both stops, to
grand_sum and to oracle_size, which sizes the sectors up to n_diag
without building them.
'''

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .interactions import v_tilde_table
from .lattice import laplacian_matrix
from .paths import bridges, pick


# Most cells (states x Hamiltonian terms) one run of blocks may hold; a
# block larger than this is a run of its own.
_RUN_CELLS = 2 ** 20
# Largest sector a grand sum builds: FockBlocks.basis raises MemoryError
# before a block with a larger one, and the mean-field sweep takes the
# loop Monte Carlo instead when oracle_size finds one.
MAX_SECTOR_DIM = 6000


def _compositions(n0, n1, m, hard_core):
    '''All q >= 0 over m modes with n0 <= sum q <= n1 (q <= 1 under a hard
    core), each block in lexicographic order.'''
    if hard_core:   # the occupied sites, each block's last combination first
        sites = [c for n in range(n0, n1 + 1)
                 for c in reversed(list(itertools.combinations(range(m), n)))]
        occ = np.zeros((len(sites), m), dtype=np.int64)
        occ[np.repeat(np.arange(len(sites)), list(map(len, sites))),
            list(itertools.chain.from_iterable(sites))] = 1
        return occ
    # stars and bars over m + 1 modes, the first holding the slack n1 - n:
    # the combinations come by ascending slack, so blocks n1 down to n0
    # are their first size rows
    size = math.comb(n1 + m, m) - math.comb(n0 + m - 1, m)
    bars = np.fromiter(itertools.chain.from_iterable(itertools.islice(
        itertools.combinations(range(n1 + m), m), size)), np.int64,
        size * m).reshape(size, m)
    return np.diff(bars, axis=1, append=n1 + m) - 1


def _amplitudes(occ, destroy, create, cap):
    '''amp[s, t] of a+_{create[t]} a_{destroy[t]} (rows of mode indices)
    on state occ[s]: the square root of the product of the ladder factors;
    0 where a mode runs empty (an earlier factor on it is 0) or an
    occupation would exceed cap.'''
    f = np.ones((len(occ), len(destroy)), dtype=np.int64)
    for i, mode in enumerate(destroy.T):
        f *= occ[:, mode] - (destroy[:, :i] == mode[:, None]).sum(axis=1)
    for i, mode in enumerate(create.T):
        now = (occ[:, mode] + 1 + (create[:, :i] == mode[:, None]).sum(axis=1)
               - (destroy == mode[:, None]).sum(axis=1))
        f *= now if cap is None else now * (now <= cap)
    return np.sqrt(f)


class _Basis:
    '''The occupation states of the blocks n0..n1 sector by sector: sector
    j holds the states start[j]:start[j+1], has block[j] particles and
    momentum mode[j]; block n holds the sectors blocks[n - n0]:blocks[n -
    n0 + 1].  A state's key is occ @ radix, so key(q + delta) = key(q) +
    key(delta).'''

    def __init__(self, occ, start, block, mode, radix):
        self.occ, self.start, self.mode, self.radix = occ, start, mode, radix
        self.n0, self.n1 = int(block[0]), int(block[-1])
        self.blocks = np.searchsorted(block, np.arange(self.n0, self.n1 + 2))
        key = occ @ radix
        self.at_key = np.argsort(key)
        self.key = key[self.at_key]
        self.cache = {}

    def apply(self, destroy, create, cap, target, rows=slice(None)):
        '''(source, term, target state, amplitude) of the nonzero entries
        of the terms from the states rows of this basis into target,
        sources ascending.'''
        occ = self.occ[rows]
        amp = _amplitudes(occ, destroy, create, cap)
        src, t = np.nonzero(amp)
        shift = (target.radix[create].sum(axis=1)
                 - target.radix[destroy].sum(axis=1))
        key = (occ @ target.radix)[src] + shift[t]
        return (src + (rows.start or 0), t,
                target.at_key[np.searchsorted(target.key, key)], amp[src, t])


class FockBlocks:
    '''The sectors of H_n: total momentum in the plane waves, or one
    sector of the sites per n under a hard core, built in runs of blocks
    up to reach (set by the pass; None: up to the block asked for).'''

    def __init__(self, params):
        torus = self.torus = params.torus
        m = self.n_modes = torus.n_sites
        self.lam = params.lam
        self.reach, self._runs = None, []
        vmat = v_tilde_table(params.vL, params.R)[torus.diff_table]
        if params.R == 1:
            h1 = -(params.nu / 2.0) * laplacian_matrix(torus)
            # energy (lam/2) q.v.q + q.diag(h1); hops x -> y move a particle
            self.pair = vmat
            if not np.isfinite(self.pair).all():
                raise ValueError(
                    "R = 1 supports the hard core at the origin only")
            self.one = np.diag(h1).copy()
            y, x = np.nonzero(h1 - np.diag(self.one))
            self.moves = (x[:, None], y[:, None], h1[y, x])
            self.cap, self.U, self.mirror = 1, None, np.arange(m)
            return
        if not np.isfinite(vmat).all():
            raise ValueError("infinite v entries require R = 1")
        j, L = torus.coords, torus.L
        vhat = torus.fourier(params.vL)
        diff = torus.diff_table
        # the diagonal two-body terms (q = 0 and the exchange q = k' - k)
        # sit in pair and one; the rest scatter {k, k'} -> {k+q, k'-q},
        # summed over the orderings that give the same operator
        self.pair = (vhat[0] + np.where(diff == 0, 0.0, vhat[diff])) / m
        self.one = (params.nu * torus.rates
                    + 0.5 * self.lam * (vmat[0, 0] - vhat[0] / m))
        k, kp, q = (a.ravel() for a in np.indices((m, m, m)))
        p, pp = torus.index_of(j[k] + j[q]), diff[kp, q]
        off = (q != 0) & (p != kp)
        terms, inv = np.unique(np.column_stack(
            (np.sort(np.column_stack((k, kp))[off], axis=1),
             np.sort(np.column_stack((p, pp))[off], axis=1))), axis=0,
            return_inverse=True)
        coef = np.bincount(inv.ravel(), 0.5 * self.lam * vhat[q[off]] / m)
        self.moves = (terms[:, :2], terms[:, 2:], coef)
        phase = 2j * np.pi * (j @ j.T) / L
        self.cap, self.U = None, np.exp(phase) / np.sqrt(m)
        # an even v commutes with the reflection k -> -k of the modes
        self.mirror = torus.index_of(-j)

    def basis(self, n):
        '''The run of blocks holding block n, else one built from n (from
        the vacuum for n = 1) up to reach or the next kept run, within
        _RUN_CELLS.  MemoryError before block n is built if one of its
        sectors exceeds MAX_SECTOR_DIM (read at each call) or its keys
        (the occupations as digits of base 2 under a hard core, else n + 1
        or more) are not distinct modulo 2^64, where int64 arithmetic
        wraps.'''
        for b in self._runs:
            if b.n0 <= n <= b.n1:
                return b
        m, hard, terms = self.n_modes, self.cap == 1, len(self.moves[2])
        end = min([max(n, self.reach or n)]
                  + [b.n0 - 1 for b in self._runs if b.n0 > n])
        if (2 if hard else n + 1) ** m > 2 ** 64:
            raise MemoryError(f"occupation keys of block n={n} overflow int64")
        # the states of each block, and its largest sector (sector_dims
        # counts them if a block exceeds MAX_SECTOR_DIM)
        size = [math.comb(m, k) if hard else math.comb(k + m - 1, k)
                for k in range(end + 1)]
        largest = (size if max(size) <= MAX_SECTOR_DIM else
                   sector_dims(self.torus, hard, end).max(axis=1).tolist())
        if largest[n] > MAX_SECTOR_DIM:
            raise MemoryError(f"sector of dimension {int(largest[n])} at "
                              f"n={n} exceeds MAX_SECTOR_DIM={MAX_SECTOR_DIM}")
        n0 = 0 if n == 1 else n
        n1, cells = n, sum(size[n0:n + 1]) * terms
        while (n1 < end and largest[n1 + 1] <= MAX_SECTOR_DIM
               and (hard or (n1 + 2) ** m <= 2 ** 64)
               and cells + size[n1 + 1] * terms <= _RUN_CELLS):
            n1 += 1
            cells += size[n1] * terms
        occ = _compositions(n0, n1, m, hard)
        # sectors (n, K) by block, the second sector of each mirror pair
        # after the others
        key = occ.sum(axis=1) * 2 * m
        if not hard:   # (the hard-core states come by block)
            K = self.torus.index_of(occ @ self.torus.coords)
            key += K + m * (self.mirror[K] < K)
            order = np.argsort(key, kind="stable")
            occ, key = occ[order], key[order]
        count = np.bincount(key)
        sector = np.flatnonzero(count)
        radix = (2 if hard else n1 + 1) ** np.arange(m - 1, -1, -1,
                                                     dtype=np.int64)
        # keep the runs a lowering by p <= 3 reaches; a larger p rebuilds
        self._runs = [b for b in self._runs if b.n1 > n - 4]
        self._runs.append(_Basis(occ, np.append(0, np.cumsum(count[sector])),
                                 sector // (2 * m), sector % m, radix))
        return self._runs[-1]

    def sectors(self, n):
        '''Yield (sector, index of its first basis state, H) for each
        sector of block n: the sectors K = -K and the first of each mirror
        pair K, -K, then the second of each pair.'''
        b = self.basis(n)
        if "H" not in b.cache:
            src, t, tgt, amp = b.apply(*self.moves[:2], self.cap, b)
            energy = (0.5 * self.lam * np.einsum("ax,xy,ay->a", b.occ,
                                                 self.pair, b.occ)
                      + b.occ @ self.one)
            # the entries with the diagonal, by source, at their flat index
            # in the H of their sector
            state = np.arange(len(b.occ))
            order = np.argsort(np.concatenate((src, state)), kind="stable")
            src, tgt, val = (np.concatenate(a)[order] for a in (
                (src, state), (tgt, state), (self.moves[2][t] * amp, energy)))
            dims = np.diff(b.start)
            lo, dim = (np.repeat(a, dims)[src] for a in (b.start[:-1], dims))
            entries = np.searchsorted(src, b.start).tolist()
            b.cache["H"] = (list(zip(b.mode.tolist(), b.start.tolist(),
                                     dims.tolist(), entries, entries[1:])),
                            (tgt - lo) * dim + src - lo, val)
        table, at, val = b.cache["H"]
        for K, lo, dim, e0, e1 in table[slice(*b.blocks[n - b.n0:][:2])]:
            yield K, lo, np.bincount(at[e0:e1], val[e0:e1],
                                     dim * dim).reshape(dim, dim)

    def add_kernel(self, G, n, tuples, lo, V, e):
        '''G[kappa, kappa'] += sum_a e_a <a| a+_kappa' a_kappa |a> over
        the eigenvectors V of the sector of block n that starts at state
        lo, for the mode p-tuples kappa (rows of tuples).'''
        b, p = self.basis(n), tuples.shape[1]
        if p == 1 and self.cap is None:
            # <a+_k' a_k> vanishes unless k = k': the occupations <n_k>
            G.flat[::len(G) + 1] += b.occ[lo:lo + len(e)].T @ ((V * V) @ e)
            return
        if p not in b.cache:   # the run's lowering maps, per lowered run
            b.cache[p], k = {}, max(b.n0, p)
            while k <= b.n1:
                lower = self.basis(k - p)
                top = min(b.n1, lower.n1 + p)
                rows = slice(*b.start[b.blocks[[k - b.n0, top + 1 - b.n0]]])
                b.cache[p].update(dict.fromkeys(range(k, top + 1), (
                    lower,) + b.apply(tuples, tuples[:, :0], self.cap, lower,
                                      rows)))
                k = top + 1
        lower, *maps = b.cache[p][n]
        span = slice(*np.searchsorted(maps[0], (lo, lo + len(e))))
        src, t, row, amp = (a[span] for a in maps)
        # each lowering map is a row gather of V: C[t, r] = amp V[source]
        low = np.searchsorted(lower.start, row, side="right") - 1
        for j in set(low.tolist()):
            hit = low == j
            ts = np.unique(t[hit])
            C = np.zeros((len(ts), lower.start[j + 1] - lower.start[j],
                          len(e)))
            C[np.searchsorted(ts, t[hit]), row[hit] - lower.start[j]] = (
                amp[hit, None] * V[src[hit] - lo])
            G[ts[:, None], ts] += ((C * e).reshape(len(ts), -1)
                                   @ C.reshape(len(ts), -1).T)


def sector_dims(torus, hard_core, n_max):
    '''dims[n, K]: the dimension of sector K of block n <= n_max, counted
    by a recursion over the modes without enumerating a basis.'''
    m = torus.n_sites
    if hard_core:
        return np.array([[math.comb(m, n)] for n in range(n_max + 1)], float)
    dims = np.zeros((n_max + 1, m))
    dims[0, 0] = 1.0
    for k in torus.coords:
        shifted = torus.index_of(torus.coords + k)
        for n in range(1, n_max + 1):   # one more particle in mode k
            dims[n, shifted] += dims[n - 1]
    return dims


@dataclass
class GrandCanonicalResult:
    Xi: float
    Xi0: float
    Z_rel: float
    n_max: int
    tail_bound: float
    metadata: dict = field(default_factory=dict)


def _free_traces(mode_weights, n_max):
    '''Free symmetric-subspace traces h_n(mode weights), n <= n_max: the
    coefficients of prod_xi 1/(1 - w_xi z), multiplied in one mode at a
    time (h_n += w h_{n-1}).'''
    h = [1.0] + [0.0] * n_max
    for w in map(float, mode_weights):
        h = list(itertools.accumulate(h, lambda below, h_n: h_n + w * below))
    return h


def _free_tail_bound(mode_weights, n_from):
    '''Upper bound on sum_{n >= n_from} h_n(w): with h_n <= binom(n+m-1,
    m-1) mu^n, the negative-binomial tail I_mu(N, m) / (1 - mu)^m at N =
    n_from (scalar or array).  I_mu(N, m) = sum_{k<m} binom(N+m-1, k)
    (1-mu)^k mu^{N+m-1-k}, summed in log space from the log ratios of
    neighbouring terms.'''
    mu, m = float(np.max(mode_weights)), len(mode_weights)
    top = np.asarray(n_from, dtype=float)[..., None] + (m - 1)
    k = np.arange(1, m)
    ratios = np.log((top - k + 1) / k) + math.log((1.0 - mu) / mu)
    log_terms = np.concatenate((np.zeros_like(top),
                                np.cumsum(ratios, axis=-1)), axis=-1)
    first = top * math.log(mu) - m * math.log1p(-mu)
    return np.exp(log_terms + first).sum(axis=-1)


def _interaction_floor(params):
    '''c >= 0 with (lam/2) n^T v n >= c N^2 on every occupation n; 0 under
    a hard core, which has no finite vhat.'''
    if params.R == 1:
        return 0.0
    m, vhat = params.torus.n_sites, params.torus.fourier(params.vL)
    return 0.5 * params.lam * max(
        0.0, vhat[0] / m + min(0.0, vhat.min()) * (1.0 - 1.0 / m))


def _n_diag(params, p, tails, n_limit, tol):
    '''The last block a grand sum diagonalizes: the one before the first
    n >= sqrt(p/2c) where n^p e^{-c n^2} tails[n] bounds the blocks from
    n on, in Xi and in every Gamma_p entry, below min(2^-53, tol); else
    n_limit.  Below 2^-53 they cannot round Xi >= 1; below tol each of
    them meets the stopping rule, as its computed term would.'''
    c = _interaction_floor(params)
    if c == 0.0:
        return n_limit
    n = np.arange(1, n_limit + 1)
    rest = n ** float(p) * np.exp(-c * n * n) * tails[1:n_limit + 1]
    done = n[(n >= math.sqrt(p / (2.0 * c))) & (rest < min(2.0 ** -53, tol))]
    return int(done[0]) - 1 if done.size else n_limit


def _stop_plan(params, kappa, tol, n_cap, p):
    '''Where a grand sum at these arguments stops: kappa (params.kappa if
    None), the free mode weights e^{-nu(kappa + lambda_xi)}, their free
    tails from n = 0 to n_limit + 1, the last block n_limit (n_cap, or
    |Lambda| if fewer under a hard core), the first n whose free tail is
    below tol (else n_limit), where the sum stops at the latest, and
    _n_diag's last diagonalized block.'''
    kappa = params.kappa if kappa is None else kappa
    weights = params.torus.free_weights(params.nu, kappa)
    n_limit = min(params.torus.n_sites, n_cap) if params.R == 1 else n_cap
    tails = _free_tail_bound(weights, np.arange(n_limit + 2))
    below = np.flatnonzero(tails[1:n_limit + 1] < tol)
    return (kappa, weights, tails, n_limit,
            int(below[0]) + 1 if below.size else n_limit,
            _n_diag(params, p, tails, n_limit, tol))


def grand_partition(params, kappa=None, tol=1e-10, n_cap=250):
    '''Xi = sum_n e^{-kappa nu n} tr(e^{-H_n} P+), adaptively truncated;
    returns the relative partition function Z = Xi / Xi(v=0) computed with
    matched truncation.'''
    return grand_sum(params, 0, kappa, tol, n_cap)[0]


def grand_sum(params, p=0, kappa=None, tol=1e-10, n_cap=250):
    '''grand_partition's result and, for p >= 1, reduced_density_matrix's
    Gamma_p (None for p = 0), both from one pass over the blocks.

    Blocks past n_diag (_n_diag) are not diagonalized.  They cannot round
    Xi >= 1, and they move no Gamma_p entry by more than 2^-53: the
    guarantee on Gamma_p is absolute, not relative to the entry, so a
    strongly repulsive Gamma_p far below 2^-53 can lose every digit (at
    lambda = 40, d = 1, L = 2, p = 2 it returns Gamma_2 = 0 where the
    full pass gives 6e-34).  The tol stop against Xi is absolute in the
    same way.'''
    blocks = FockBlocks(params)
    kappa, weights, tails, n_limit, n_stop, n_diag = _stop_plan(
        params, kappa, tol, n_cap, p)
    blocks.reach = min(n_diag, n_stop)
    m, mirror = blocks.n_modes, blocks.mirror.tolist()
    tuples = np.array(list(itertools.product(range(m), repeat=p)))
    G = np.zeros((m ** p,) * 2)
    fugacity = float(np.exp(-kappa * params.nu))
    tails = tails.tolist()
    Xi, n, diagonalizations, max_dim = 1.0, 0, 0, 0
    while n < n_limit:
        n += 1
        trace = 0.0
        for K, lo, H in blocks.sectors(n) if n <= n_diag else ():
            if mirror[K] < K:
                break   # the second sectors of the pairs, counted already
            copies = 1 + (mirror[K] != K)
            diagonalizations += 1
            max_dim = max(max_dim, len(H))
            if not p:
                trace += copies * np.exp(-np.linalg.eigvalsh(H)).sum()
                continue
            w, V = np.linalg.eigh(H)
            e = np.exp(-w)
            trace += copies * e.sum()
            if n >= p:
                blocks.add_kernel(G, n, tuples, lo, V,
                                  copies * fugacity ** n * e)
        t = fugacity ** n * float(trace)
        Xi += t
        if t < tol * Xi and tails[n + 1] < tol * Xi:
            break
        if n >= n_cap and tails[n + 1] > tol * Xi:
            raise ArithmeticError(f"grand sum not converged at n_cap={n_cap}: "
                                  f"tail bound {tails[n + 1]:.3e}")
    Xi0 = float(np.sum(_free_traces(weights, n)))
    if p and blocks.U is not None:
        # a_x = sum_k U[x, k] a_k on every index of the p-tuples; sector -K
        # adds sector K's kernel with every mode reflected, which maps to
        # the complex conjugate on the sites, so its real part is the same
        U = functools.reduce(np.kron, [blocks.U] * p)
        G = (U @ G @ U.conj().T).real
    return GrandCanonicalResult(
        Xi=float(Xi), Xi0=Xi0, Z_rel=float(Xi / Xi0), n_max=n,
        tail_bound=float(tails[n + 1]),
        metadata={"kappa": kappa, "tol": tol, "max_sector_dim": max_dim,
                  "diagonalizations": diagonalizations,
                  "n_diag": min(n, n_diag)}), G / Xi if p else None


def oracle_size(params, kappa=None, tol=1e-10, n_cap=250, p=0):
    '''The blocks a grand sum at these arguments can reach, counted
    without building one.  n_max bounds where it stops: the free tail is
    below tol there, and every interacting term lies below the free one.
    Returns n_max, the last block it can diagonalize (n_diag), and the
    largest sector and summed dim^3 of the sectors it diagonalizes up to
    n_diag, one of each mirror pair.'''
    n_max, n_diag = _stop_plan(params, kappa, tol, n_cap, p)[4:]
    n_diag = min(n_max, n_diag)
    dims = sector_dims(params.torus, params.R == 1, n_diag)
    if params.R == 0:   # one sector of each mirror pair K, -K
        torus = params.torus
        dims = dims[:, torus.index_of(-torus.coords)
                    >= np.arange(torus.n_sites)]
    return {"n_max": n_max, "n_diag": n_diag,
            "max_sector_dim": int(dims.max()),
            "eigh_dim3": float(np.sum(dims[1:] ** 3))}


def reduced_density_matrix(params, p, kappa=None, tol=1e-10, n_cap=250):
    '''Gamma_p(x, y) = sum_n ((p+n)!/n!) tr_{p+1..p+n} rho_{p+n} as a
    matrix over Lambda^p (row index x, column index y, row-major tuples):
    the grand-canonical <a+_{y_1}..a+_{y_p} a_{x_1}..a_{x_p}>, computed in
    the grand sum's pass.'''
    if p < 1:
        raise ValueError("p must be >= 1")
    return grand_sum(params, p, kappa, tol, n_cap)[1]


def feynman_kac_check(torus, V_site, t, n_samples, seed):
    '''Compare (e^{t(Delta/2 - V)})_{y,x} with the Monte Carlo estimate
    E_{P^t_x}[1{w(t)=y} e^{-int_0^t V(w(s)) ds}] for all (x, y).  Each
    start site gets n_samples // |Lambda| walks; ValueError if fewer than
    2, which leave no standard error to compare with.

    The walks are bridges, by P^t_x = sum_y psi^{L,t}(y - x) W^t_{x->y}:
    for each start site x in site order, its end sites (paths.pick over
    the heat kernel table psi^{L,t}(. - x)), then one paths.bridges call
    to them.  A standard error below the estimator's resolution, one
    walk's largest contribution e^{-t min V} over the walk count (an end
    site no walk reached), is taken at that resolution.'''
    if t <= 0:
        raise ValueError("t must be > 0")
    m = torus.n_sites
    per_x = n_samples // m
    if per_x < 2:
        raise ValueError(f"need at least 2 walks per start site, got {per_x}")
    V_site = np.asarray(V_site, dtype=float)
    gen = 0.5 * laplacian_matrix(torus) - np.diag(V_site)
    w, U = np.linalg.eigh(gen)
    exact = (U * np.exp(t * w)) @ U.T
    table = torus.heat_kernel(t)
    rng = np.random.default_rng(seed)
    sums, sq = np.zeros((2, m, m))
    for x in range(m):
        # all walks from x at once; walk k is configuration k of the batch
        end = pick(np.cumsum(np.maximum(table[torus.diff_table[:, x]], 0.0)),
                   rng, per_x)
        batch = bridges(torus, np.full(per_x, x), np.full(per_x, t), [rng],
                        [per_x], end)
        walk, site, length = batch.pieces()
        val = np.exp(-np.bincount(walk, weights=length * V_site[site],
                                  minlength=per_x))
        sums[:, x] = np.bincount(end, weights=val, minlength=m)
        sq[:, x] = np.bincount(end, weights=val * val, minlength=m)
    mean = sums / per_x
    var = sq / per_x - mean ** 2
    std = np.sqrt(np.maximum(var, 0.0) / per_x)
    se = np.maximum(std, np.exp(-t * V_site.min()) / per_x)
    z = np.abs(mean - exact) / se
    ok = bool(np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12))
    return {"pass": ok, "max_z": float(z.max()), "mc": mean, "exact": exact,
            "std": std, "n_per_start": per_x}
