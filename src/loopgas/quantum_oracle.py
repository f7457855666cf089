'''Exact grand-canonical quantities on tiny lattices by dense linear algebra.

Two equivalent representations are implemented:

* a product-basis representation (Lambda^n with an excluded-configuration
  mask for the hard core) with the symmetrizer applied inside the trace --
  transparent but exponentially large, used for small n and as a
  cross-check;
* a symmetric-subspace (occupation-number) representation whose per-n
  blocks have dimension C(n+|Lambda|-1, n) -- used by the production
  entry points, since the grand sums need n far beyond what |Lambda|^n
  can hold.  tr(e^{-H_n} P+) over the product basis equals the plain
  trace of e^{-H_n} restricted to the symmetric subspace, so both routes
  compute the same partition sums.
'''

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import laplacian_matrix


# ---------------------------------------------------------------------------
# product-basis representation (reference implementation)
# ---------------------------------------------------------------------------

class ManyBodySpace:
    '''Product basis Lambda^n, with coincident configurations removed in
    hard-core mode.'''

    def __init__(self, torus, n, hard_core=False):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.torus = torus
        self.n = n
        self.hard_core = hard_core
        configs = np.array(
            list(itertools.product(range(torus.n_sites), repeat=n)),
            dtype=np.int64).reshape(-1, n)
        if hard_core:
            keep = np.array([len(set(c)) == n for c in configs])
            configs = configs[keep]
        self.configs = configs
        self.dim = len(configs)
        self._index = {tuple(c): i for i, c in enumerate(configs)}

    def index(self, config):
        return self._index[tuple(int(c) for c in config)]

    def symmetrizer(self):
        '''P+ as a dense matrix on the (masked) product basis.'''
        P = np.zeros((self.dim, self.dim))
        perms = list(itertools.permutations(range(self.n)))
        for i, c in enumerate(self.configs):
            for pi in perms:
                P[i, self.index(c[list(pi)])] += 1.0 / len(perms)
        return P


def hamiltonian(space, params):
    '''H = -(nu/2) sum_i Delta_i + (lam/2) sum_{i,j} v(x_i - x_j) on the
    (masked) product basis; largemass mode with R=1 drops the i=j term.'''
    torus, n = space.torus, space.n
    h1 = -(params.nu / 2.0) * laplacian_matrix(torus)
    H = np.zeros((space.dim, space.dim))
    drop_diag = params.R == 1  # hard-core mode has no i=j self term
    for a, c in enumerate(space.configs):
        vmat = params.vL[torus.diff_table[np.ix_(c, c)]]
        if drop_diag:
            np.fill_diagonal(vmat, 0.0)
        if np.isinf(vmat).any():
            raise ValueError("infinite v on a retained basis state; "
                             "hard cores must be handled by basis exclusion")
        H[a, a] += 0.5 * params.lam * float(vmat.sum())
        H[a, a] += float(np.sum(np.diag(h1)[c]))
        for i in range(n):
            for b_site in np.nonzero(h1[:, c[i]])[0]:
                if b_site == c[i]:
                    continue
                cc = c.copy()
                cc[i] = b_site
                key = tuple(cc)
                if key in space._index:
                    H[space._index[key], a] += h1[b_site, c[i]]
    return H


# ---------------------------------------------------------------------------
# occupation-number (symmetric subspace) representation
# ---------------------------------------------------------------------------

def _occupations(n_sites, n, max_per_site):
    '''All occupation vectors q >= 0 with sum q = n and q <= max_per_site.'''
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            if remaining <= max_per_site:
                out.append(prefix + (remaining,))
            return
        for q in range(min(remaining, max_per_site) + 1):
            rec(prefix + (q,), remaining - q, slots - 1)

    rec((), n, n_sites)
    return np.array(out, dtype=np.int64).reshape(-1, n_sites)


class BoseBlocks:
    '''Per-particle-number blocks of the Bose Hamiltonian in the
    occupation basis, with cached eigendecompositions.'''

    def __init__(self, params):
        self.params = params
        self.torus = params.torus
        self.hard_core = params.R == 1
        self.h1 = -(params.nu / 2.0) * laplacian_matrix(self.torus)
        m = self.torus.n_sites
        vmat = params.vL[self.torus.diff_table]
        self.v_offdiag = np.where(np.eye(m, dtype=bool), 0.0, vmat)
        self.v_onsite = float(vmat[0, 0]) if not self.hard_core else None
        if not self.hard_core and not np.isfinite(vmat).all():
            raise ValueError("infinite v entries require R = 1")
        if self.hard_core and not np.isfinite(self.v_offdiag).all():
            raise ValueError("R = 1 supports the hard core at the origin only")
        self._basis = {}
        self._eig = {}

    def basis(self, n):
        if n not in self._basis:
            cap = 1 if self.hard_core else n
            occ = _occupations(self.torus.n_sites, n, cap)
            index = {tuple(q): i for i, q in enumerate(occ)}
            self._basis[n] = (occ, index)
        return self._basis[n]

    def block_dim(self, n):
        return len(self.basis(n)[0])

    def hamiltonian_block(self, n):
        occ, index = self.basis(n)
        dim = len(occ)
        m = self.torus.n_sites
        lam = self.params.lam
        drop_diag = self.hard_core  # hard-core mode has no i=j self term
        H = np.zeros((dim, dim))
        # interaction is diagonal in the occupation basis
        inter = 0.5 * lam * np.einsum("ax,xy,ay->a", occ, self.v_offdiag, occ)
        if not drop_diag:
            inter += 0.5 * lam * self.v_onsite * np.einsum("ax,ax->a", occ, occ)
        # single-particle diagonal
        diag1 = occ @ np.diag(self.h1).astype(float)
        np.fill_diagonal(H, inter + diag1)
        # hopping x -> y with amplitude h1[y,x] sqrt(q_x (q_y + 1))
        hops = [(y, x) for y in range(m) for x in range(m)
                if y != x and self.h1[y, x] != 0.0]
        for a, q in enumerate(occ):
            for y, x in hops:
                if q[x] == 0:
                    continue
                qq = q.copy()
                qq[x] -= 1
                qq[y] += 1
                b = index.get(tuple(qq))
                if b is not None:
                    H[b, a] += self.h1[y, x] * math.sqrt(q[x] * (qq[y]))
        return H

    def eig(self, n):
        if n not in self._eig:
            w, V = np.linalg.eigh(self.hamiltonian_block(n))
            self._eig[n] = (w, V)
        return self._eig[n]

    def trace_exp(self, n):
        '''tr e^{-H_n} over the symmetric subspace (= tr e^{-H_n} P+).'''
        if n == 0:
            return 1.0
        w, _ = self.eig(n)
        return float(np.exp(-w).sum())

    def exp_block(self, n):
        w, V = self.eig(n)
        return (V * np.exp(-w)) @ V.T

    def annihilator(self, site, n):
        '''a_site as a block map from n particles to n-1.'''
        occ, _ = self.basis(n)
        occ_lo, index_lo = self.basis(n - 1)
        A = np.zeros((len(occ_lo), len(occ)))
        for a, q in enumerate(occ):
            if q[site] == 0:
                continue
            qq = q.copy()
            qq[site] -= 1
            b = index_lo.get(tuple(qq))
            if b is not None:
                A[b, a] = math.sqrt(q[site])
        return A


# ---------------------------------------------------------------------------
# grand-canonical sums
# ---------------------------------------------------------------------------

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
    '''Single-particle Gibbs weights e^{-nu lambda_xi - kappa nu}.'''
    h1 = -(params.nu / 2.0) * laplacian_matrix(params.torus)
    eps = np.linalg.eigvalsh(h1)
    return np.exp(-(eps + kappa * params.nu))


def _free_traces(mode_weights, n_max):
    '''Free symmetric-subspace traces h_n(mode weights) by the Newton
    recurrence h_n = (1/n) sum_i p_i h_{n-i}.'''
    p = [float(np.sum(mode_weights ** i)) for i in range(n_max + 1)]
    h = [1.0]
    for n in range(1, n_max + 1):
        h.append(sum(p[i] * h[n - i] for i in range(1, n + 1)) / n)
    return h


def _free_tail_bound(mode_weights, n_from, horizon=4000):
    '''Upper bound on sum_{n >= n_from} h_n(w): h_n <= binom(n+m-1, m-1) mu^n.'''
    mu = float(np.max(mode_weights))
    m = len(mode_weights)
    if mu >= 1.0:
        return np.inf
    total = 0.0
    for n in range(n_from, n_from + horizon):
        total += math.comb(n + m - 1, m - 1) * mu ** n
        if n > n_from and math.comb(n + m - 1, m - 1) * mu ** n < 1e-18 * total:
            break
    return total


def grand_partition(params, kappa=None, tol=1e-10, n_cap=250, dim_cap=6000):
    '''Xi = sum_n e^{-kappa nu n} tr(e^{-H_n} P+), adaptively truncated;
    returns the relative partition function Z = Xi / Xi(v=0) computed with
    matched truncation.'''
    return _grand_sum(params, kappa, tol, n_cap, dim_cap)[0]


def _grand_sum(params, kappa, tol, n_cap, dim_cap):
    '''grand_partition's result and the BoseBlocks it diagonalized.'''
    if kappa is None:
        kappa = params.kappa
    if kappa is None or kappa * params.nu <= 0:
        raise ValueError("need kappa * nu > 0")
    blocks = BoseBlocks(params)
    weights = _free_mode_weights(params, kappa)
    if np.max(weights) >= 1.0:
        raise ValueError("kappa too small: free mode weight >= 1")
    terms = [1.0]
    Xi = 1.0
    n = 0
    fugacity = np.exp(-kappa * params.nu)
    n_limit = params.torus.n_sites if params.R == 1 else n_cap
    while True:
        if n >= n_limit:
            break
        n += 1
        if blocks.block_dim(n) > dim_cap:
            raise MemoryError(
                f"occupation block at n={n} exceeds dim_cap={dim_cap}")
        t = fugacity ** n * blocks.trace_exp(n)
        terms.append(t)
        Xi += t
        tail = _free_tail_bound(weights, n + 1)
        if t < tol * Xi and tail < tol * Xi:
            break
        if n >= n_cap:
            if tail > tol * Xi:
                raise ArithmeticError(
                    f"grand sum not converged at n_cap={n_cap}: "
                    f"tail bound {tail:.3e}")
            break
    h_free = _free_traces(weights, n)
    terms_free = h_free[:n + 1]
    Xi0 = float(np.sum(terms_free))
    tail = _free_tail_bound(weights, n + 1)
    return GrandCanonicalResult(
        Xi=float(Xi), Xi0=Xi0, Z_rel=float(Xi / Xi0),
        terms=terms, terms_free=list(terms_free), n_max=n,
        tail_bound=float(tail),
        metadata={"kappa": kappa, "tol": tol}), blocks


def reduced_density_matrix(params, p, kappa=None, tol=1e-10, n_cap=250,
                           dim_cap=6000):
    '''Gamma_p(x, y) = sum_n ((p+n)!/n!) tr_{p+1..p+n} rho_{p+n} as a
    matrix over Lambda^p (row index x, column index y, row-major tuples).

    Computed in the occupation basis as the grand-canonical expectation
    <a+_{y_1}..a+_{y_p} a_{x_1}..a_{x_p}>.
    '''
    if p < 1:
        raise ValueError("p must be >= 1")
    if kappa is None:
        kappa = params.kappa
    res, blocks = _grand_sum(params, kappa, tol, n_cap, dim_cap)
    m = params.torus.n_sites
    fugacity = np.exp(-kappa * params.nu)
    tuples = list(itertools.product(range(m), repeat=p))
    K = np.zeros((m ** p, m ** p))
    for ntot in range(p, res.n_max + 1):
        E = blocks.exp_block(ntot)
        # B[x-tuple] = a_{x_1} ... a_{x_p} restricted to the n_tot block
        lowered = {}
        for xs in tuples:
            B = None
            nn = ntot
            for s in xs:
                A = blocks.annihilator(s, nn)
                B = A if B is None else A @ B
                nn -= 1
            lowered[xs] = B
        w = fugacity ** ntot
        right = {xs: lowered[xs] @ E for xs in tuples}
        for i, xs in enumerate(tuples):
            for j, ys in enumerate(tuples):
                K[i, j] += w * float(np.sum(right[xs] * lowered[ys]))
    return K / res.Xi


def gibbs_potential(params, kappa=None, tol=1e-10, **kw):
    '''Specific relative Gibbs potential g = log(Z) / |Lambda|.'''
    res = grand_partition(params, kappa=kappa, tol=tol, **kw)
    return float(np.log(res.Z_rel) / params.torus.n_sites)


def kernel_norm(K, torus, p, L0):
    '''sup_x sum_y |K(x, y)| after projecting all p indices of x and y to
    the centered sub-box of side L0.'''
    if L0 > torus.L:
        raise ValueError("L0 must be <= L")
    centered = torus.centered(torus.coords)
    lo, hi = -(L0 // 2), L0 - L0 // 2
    keep_site = np.all((centered >= lo) & (centered < hi), axis=1)
    m = torus.n_sites
    keep = np.ones(m ** p, dtype=bool)
    for idx in range(m ** p):
        rest = idx
        for _ in range(p):
            rest, s = divmod(rest, m)
            if not keep_site[s]:
                keep[idx] = False
                break
    sub = np.asarray(K)[np.ix_(keep, keep)]
    if sub.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(sub), axis=1)))


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
