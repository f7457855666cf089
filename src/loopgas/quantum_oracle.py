'''Exact grand-canonical quantities on small lattices by dense linear
algebra, streamed over the particle number n.

Without a hard core, H_n is written in the occupation basis of the plane
waves a_k = |Lambda|^{-1/2} sum_x e^{-ik.x} a_x: the kinetic term is
diagonal (eps_k, the Fourier symbol of -(nu/2) Delta) and the interaction
is (lam/2|Lambda|) sum_{k,k',q} vhat(q) a+_{k+q} a+_{k'-q} a_{k'} a_k
+ (lam/2) v(0) N.  Total momentum splits block n into |Lambda| sectors,
real symmetric for an even v.  A hard core (R = 1) has no finite vhat:
its modes are the sites, each holding at most one particle, and block n
is one sector.  Each sector is built and diagonalized once; no
eigenvectors are kept between blocks.  grand_partition needs eigenvalues
only; reduced_density_matrix contracts the eigenvectors with the
lowering maps in the same pass and maps the mode kernel to sites.
'''

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .lattice import laplacian_matrix


def _compositions(n, m, hard_core):
    '''All q >= 0 with sum n over m modes (q <= 1 under a hard core), in
    lexicographic order.'''
    if hard_core:   # the occupied sites, last combination first
        size = math.comb(m, n)
        sites = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations(range(m), n)), np.int64, size * n)
        rows = np.arange(size)[::-1, None] * m
        return np.bincount((rows + sites.reshape(size, n)).ravel(),
                           minlength=size * m).reshape(size, m)
    # stars and bars: m - 1 bars among n + m - 1 slots
    size = math.comb(n + m - 1, m - 1)
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n + m - 1), m - 1)), np.int64,
        size * (m - 1)).reshape(size, m - 1)
    return np.diff(bars, axis=1, prepend=-1, append=n + m - 1) - 1


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
    '''Occupation states sector by sector: sector j holds the states
    start[j]:start[j+1] and has block[j] particles.  A state's key is
    occ @ radix, so key(q + delta) = key(q) + key(delta).'''

    def __init__(self, occ, start, block, radix):
        self.occ, self.start, self.block, self.radix = occ, start, block, radix
        self.at_key = np.argsort(occ @ radix)
        self.key = (occ @ radix)[self.at_key]
        self.cache = {}

    def apply(self, destroy, create, cap, target):
        '''(source, term, target state, amplitude) of the nonzero entries
        of the terms from this basis into target, sources ascending.'''
        amp = _amplitudes(self.occ, destroy, create, cap)
        src, t = np.nonzero(amp)
        shift = (target.radix[create].sum(axis=1)
                 - target.radix[destroy].sum(axis=1))
        key = (self.occ @ target.radix)[src] + shift[t]
        return (src, t, target.at_key[np.searchsorted(target.key, key)],
                amp[src, t])


class FockBlocks:
    '''The sectors of H_n: total momentum in the plane waves, or one
    sector of the sites per n under a hard core.'''

    def __init__(self, params, dim_cap=np.inf):
        torus = self.torus = params.torus
        m = self.n_modes = torus.n_sites
        self.lam, self.dim_cap, self._bases = params.lam, dim_cap, {}
        vmat = params.vL[torus.diff_table]
        h1 = -(params.nu / 2.0) * laplacian_matrix(torus)
        if params.R == 1:
            # energy (lam/2) q.v.q + q.diag(h1); hops x -> y move a particle
            self.pair = np.where(np.eye(m, dtype=bool), 0.0, vmat)
            if not np.isfinite(self.pair).all():
                raise ValueError(
                    "R = 1 supports the hard core at the origin only")
            self.one = np.diag(h1).copy()
            y, x = np.nonzero(h1 - np.diag(self.one))
            self.moves = (x[:, None], y[:, None], h1[y, x])
            self.cap, self.U = 1, None
            return
        if not np.isfinite(vmat).all():
            raise ValueError("infinite v entries require R = 1")
        j, L = torus.coords, torus.L
        vhat = np.fft.fftn(params.vL.reshape((L,) * torus.d)).real.ravel()
        diff = torus.diff_table
        # the diagonal two-body terms (q = 0 and the exchange q = k' - k)
        # sit in pair and one; the rest scatter {k, k'} -> {k+q, k'-q},
        # summed over the orderings that give the same operator
        self.pair = (vhat[0] + np.where(diff == 0, 0.0, vhat[diff])) / m
        self.one = (params.nu * np.sum(1.0 - np.cos(2 * np.pi * j / L), axis=1)
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

    def basis(self, n):
        '''The basis holding block n: block n's momentum sectors, or under
        a hard core all blocks below the first that exceeds dim_cap.
        MemoryError if one of block n's sectors exceeds dim_cap.'''
        if n in self._bases:
            return self._bases[n]
        m = self.n_modes
        if self.cap == 1:
            sizes = [math.comb(m, k) for k in range(m + 1)]
            fit = next((k for k, size in enumerate(sizes)
                        if size > self.dim_cap), m + 1)
            if n >= fit:
                raise MemoryError(f"block n={n} of dimension {sizes[n]} "
                                  f"exceeds dim_cap={self.dim_cap}")
            b = _Basis(np.concatenate([_compositions(k, m, True)
                                       for k in range(fit)]),
                       np.cumsum([0] + sizes[:fit]), np.arange(fit),
                       2 ** np.arange(m - 1, -1, -1, dtype=np.int64))
            self._bases = dict.fromkeys(range(fit), b)
            return b
        if (n + 1) ** (m - 1) >= 2 ** 63:
            raise MemoryError(f"occupation keys of block n={n} overflow int64")
        occ = _compositions(n, m, False)
        sector = self.torus.index_of(occ @ self.torus.coords)
        dims = np.bincount(sector, minlength=m)
        if dims.max() > self.dim_cap:
            raise MemoryError(f"momentum sector of dimension {dims.max()} at "
                              f"n={n} exceeds dim_cap={self.dim_cap}")
        self._bases = {k: b for k, b in self._bases.items() if k > n - 4}
        # the last mode's occupation follows from n: it needs no digit
        digits = (n + 1) ** np.arange(m - 2, -1, -1, dtype=np.int64)
        b = self._bases[n] = _Basis(occ[np.argsort(sector, kind="stable")],
                                    np.cumsum(np.append(0, dims)),
                                    np.full(m, n), np.append(digits, 0))
        return b

    def sectors(self, n):
        '''Yield (sector, index of its first basis state, H) for each
        sector of block n.'''
        b = self.basis(n)
        if "H" not in b.cache:
            src, t, tgt, amp = b.apply(*self.moves[:2], self.cap, b)
            energy = (0.5 * self.lam * np.einsum("ax,xy,ay->a", b.occ,
                                                 self.pair, b.occ)
                      + b.occ @ self.one)
            b.cache["H"] = (src, tgt, self.moves[2][t] * amp, energy)
        src, tgt, val, energy = b.cache["H"]
        for j in np.flatnonzero(b.block == n):   # no sector of n >= 1 is empty
            lo, hi = b.start[j:j + 2]
            dim, e = hi - lo, slice(*np.searchsorted(src, (lo, hi)))
            at = np.concatenate(((tgt[e] - lo) * dim + src[e] - lo,
                                 np.arange(dim) * (dim + 1)))
            w = np.concatenate((val[e], energy[lo:hi]))
            yield j, lo, np.bincount(at, w, dim * dim).reshape(dim, dim)

    def add_kernel(self, G, n, tuples, lo, V, e):
        '''G[kappa, kappa'] += sum_a e_a <a| a+_kappa' a_kappa |a> over
        the eigenvectors V of the sector of block n that starts at state
        lo, for the mode p-tuples kappa (rows of tuples).'''
        b, p = self.basis(n), tuples.shape[1]
        if p == 1 and self.cap is None:
            # <a+_k' a_k> vanishes unless k = k': the occupations <n_k>
            G.flat[::len(G) + 1] += b.occ[lo:lo + len(e)].T @ ((V * V) @ e)
            return
        lower = self.basis(n - p)
        if p not in b.cache:
            b.cache[p] = b.apply(tuples, tuples[:, :0], self.cap, lower)
        span = slice(*np.searchsorted(b.cache[p][0], (lo, lo + len(e))))
        src, t, row, amp = (a[span] for a in b.cache[p])
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
    terms: list
    terms_free: list
    n_max: int
    tail_bound: float
    metadata: dict = field(default_factory=dict)


def _free_mode_weights(params, kappa):
    '''kappa (params.kappa if None) and the free mode weights
    e^{-nu lambda_xi - kappa nu}, lambda_xi the Fourier symbol of -Delta/2.'''
    kappa = params.kappa if kappa is None else kappa
    if kappa is None or kappa * params.nu <= 0:
        raise ValueError("need kappa * nu > 0")
    torus = params.torus
    rates = torus.d - np.cos(2.0 * np.pi * torus.coords / torus.L).sum(axis=1)
    weights = np.exp(-(params.nu * rates + kappa * params.nu))
    if np.max(weights) >= 1.0:
        raise ValueError("kappa too small: free mode weight >= 1")
    return kappa, weights


def _free_traces(mode_weights, n_max):
    '''Free symmetric-subspace traces h_n(mode weights) by the Newton
    recurrence h_n = (1/n) sum_i p_i h_{n-i}.'''
    p = [float(np.sum(mode_weights ** i)) for i in range(n_max + 1)]
    h = [1.0]
    for n in range(1, n_max + 1):
        h.append(sum(p[i] * h[n - i] for i in range(1, n + 1)) / n)
    return h


def _free_tail_bound(mode_weights, n_from):
    '''Upper bound on sum_{n >= n_from} h_n(w): with h_n <= binom(n+m-1,
    m-1) mu^n, the negative-binomial tail I_mu(n_from, m) / (1 - mu)^m.'''
    mu, m = float(np.max(mode_weights)), len(mode_weights)
    return special.betainc(n_from, m, mu) / (1.0 - mu) ** m


def grand_partition(params, kappa=None, tol=1e-10, n_cap=250, dim_cap=6000):
    '''Xi = sum_n e^{-kappa nu n} tr(e^{-H_n} P+), adaptively truncated;
    returns the relative partition function Z = Xi / Xi(v=0) computed with
    matched truncation.'''
    return _grand_sum(params, kappa, tol, n_cap, dim_cap)[0]


def _grand_sum(params, kappa, tol, n_cap, dim_cap, p=0):
    '''grand_partition's result and, for p >= 1, the unnormalized kernel
    sum_n e^{-kappa nu n} tr(e^{-H_n} a+_y a_x) over site p-tuples.'''
    kappa, weights = _free_mode_weights(params, kappa)
    blocks = FockBlocks(params, dim_cap)
    m = blocks.n_modes
    tuples = np.array(list(itertools.product(range(m), repeat=p)))
    G = np.zeros((m ** p,) * 2)
    fugacity = np.exp(-kappa * params.nu)
    n_limit = min(m, n_cap) if params.R == 1 else n_cap
    tails = _free_tail_bound(weights, np.arange(n_limit + 2))
    terms, Xi, n, diagonalizations, max_dim = [1.0], 1.0, 0, 0, 0
    while n < n_limit:
        n += 1
        trace, G_n = 0.0, p and np.zeros_like(G)
        for _, lo, H in blocks.sectors(n):
            diagonalizations += 1
            max_dim = max(max_dim, len(H))
            if not p:
                trace += np.exp(-np.linalg.eigvalsh(H)).sum()
                continue
            w, V = np.linalg.eigh(H)
            e = np.exp(-w)
            trace += e.sum()
            if n >= p:
                blocks.add_kernel(G_n, n, tuples, lo, V, e)
        t = fugacity ** n * float(trace)
        terms.append(t)
        Xi += t
        G += fugacity ** n * G_n
        if t < tol * Xi and tails[n + 1] < tol * Xi:
            break
        if n >= n_cap and tails[n + 1] > tol * Xi:
            raise ArithmeticError(f"grand sum not converged at n_cap={n_cap}: "
                                  f"tail bound {tails[n + 1]:.3e}")
    terms_free = _free_traces(weights, n)
    Xi0 = float(np.sum(terms_free))
    if p and blocks.U is not None:
        # a_x = sum_k U[x, k] a_k on every index of the p-tuples
        U = functools.reduce(np.kron, [blocks.U] * p)
        G = (U @ G @ U.conj().T).real
    return GrandCanonicalResult(
        Xi=float(Xi), Xi0=Xi0, Z_rel=float(Xi / Xi0), terms=terms,
        terms_free=terms_free, n_max=n, tail_bound=float(tails[n + 1]),
        metadata={"kappa": kappa, "tol": tol, "max_sector_dim": max_dim,
                  "diagonalizations": diagonalizations}), G


def oracle_size(params, kappa=None, tol=1e-10, n_cap=250):
    '''The blocks a grand sum at these arguments can reach, counted
    without building one.  n_max bounds where it stops: the free tail is
    below tol there, and every interacting term lies below the free one.
    Returns n_max, the largest sector and the summed dim^3.'''
    weights = _free_mode_weights(params, kappa)[1]
    n_limit = min(params.torus.n_sites, n_cap) if params.R == 1 else n_cap
    n = np.arange(1, n_limit + 1)
    below = n[_free_tail_bound(weights, n) < tol]
    n_max = int(below[0]) if below.size else n_limit
    dims = sector_dims(params.torus, params.R == 1, n_max)
    return {"n_max": n_max, "max_sector_dim": int(dims.max()),
            "eigh_dim3": float(np.sum(dims[1:] ** 3))}


def reduced_density_matrix(params, p, kappa=None, tol=1e-10, n_cap=250,
                           dim_cap=6000):
    '''Gamma_p(x, y) = sum_n ((p+n)!/n!) tr_{p+1..p+n} rho_{p+n} as a
    matrix over Lambda^p (row index x, column index y, row-major tuples):
    the grand-canonical <a+_{y_1}..a+_{y_p} a_{x_1}..a_{x_p}>, computed in
    the grand sum's pass.'''
    if p < 1:
        raise ValueError("p must be >= 1")
    res, G = _grand_sum(params, kappa, tol, n_cap, dim_cap, p)
    return G / res.Xi


def gibbs_potential(params, kappa=None, tol=1e-10, **kw):
    '''Specific relative Gibbs potential g = log(Z) / |Lambda|.'''
    res = grand_partition(params, kappa=kappa, tol=tol, **kw)
    return float(np.log(res.Z_rel) / params.torus.n_sites)


def kernel_norm(K, torus, p, L0):
    '''sup_x sum_y |K(x, y)| after projecting all p indices of x and y to
    the centered sub-box of side L0.'''
    if L0 > torus.L:
        raise ValueError("L0 must be <= L")
    c = torus.centered(torus.coords)
    inside = np.all((c >= -(L0 // 2)) & (c < L0 - L0 // 2), axis=1)
    keep = np.array([all(t) for t in itertools.product(inside, repeat=p)])
    sub = np.abs(np.asarray(K)[np.ix_(keep, keep)])
    return float(np.max(np.sum(sub, axis=1))) if sub.size else 0.0


def feynman_kac_check(torus, V_site, t, n_samples, seed, sigma_factor=3.0):
    '''Compare (e^{t(Delta/2 - V)})_{y,x} with the Monte Carlo estimate
    E_{P^t_x}[1{w(t)=y} e^{-int_0^t V(w(s)) ds}] for all (x, y).'''
    from .paths import sample_free_walk

    V_site = np.asarray(V_site, dtype=float)
    gen = 0.5 * laplacian_matrix(torus) - np.diag(V_site)
    w, U = np.linalg.eigh(gen)
    exact = (U * np.exp(t * w)) @ U.T
    rng = np.random.default_rng(seed)
    m = torus.n_sites
    sums = np.zeros((m, m))
    sq = np.zeros((m, m))
    per_x = n_samples // m
    for x in range(m):
        for _ in range(per_x):
            path = sample_free_walk(torus, x, t, rng)
            val = np.exp(-float(path.local_time_table(m) @ V_site))
            sums[path.end, x] += val
            sq[path.end, x] += val * val
    mean = sums / per_x
    var = sq / per_x - mean ** 2
    std = np.sqrt(np.maximum(var, 0.0) / per_x)
    z = np.abs(mean - exact) / np.maximum(std, 1e-15)
    ok = bool(np.all(np.abs(mean - exact) <= sigma_factor * std + 1e-12))
    return {"pass": ok, "max_z": float(z.max()), "mc": mean, "exact": exact,
            "std": std, "n_per_start": per_x}
