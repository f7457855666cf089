'''Reference implementations of the exact oracle, kept as test oracles for
quantum_oracle's plane-wave sectors.

* The product basis Lambda^n (ManyBodySpace, hamiltonian, symmetrizer):
  tr(e^{-H_n} P+) over Lambda^n equals the trace of e^{-H_n} over the
  symmetric subspace.
* The site occupation basis (BoseBlocks): whole particle-number blocks,
  built state by state, with annihilator products for the kernels.
* The free-tail bound as the explicit term-by-term sum.
* The plane-wave sectors one block at a time, every sector diagonalized
  (PerBlockSectors, sector_grand_sum), with Newton's recurrence for the
  free traces: the reference of the oracle's runs of blocks and mirror
  pairs.
'''

import functools
import itertools
import math

import numpy as np

from loopgas.lattice import laplacian_matrix
from loopgas.quantum_oracle import FockBlocks, _amplitudes


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
    (masked) product basis; R=1 drops the i=j term.'''
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
    '''Per-particle-number blocks of the Bose Hamiltonian in the site
    occupation basis.'''

    def __init__(self, params):
        self.params = params
        self.torus = params.torus
        self.hard_core = params.R == 1
        self.h1 = -(params.nu / 2.0) * laplacian_matrix(self.torus)
        m = self.torus.n_sites
        vmat = params.vL[self.torus.diff_table]
        self.v_offdiag = np.where(np.eye(m, dtype=bool), 0.0, vmat)
        self.v_onsite = float(vmat[0, 0]) if not self.hard_core else None
        self._basis = {}

    def basis(self, n):
        if n not in self._basis:
            cap = 1 if self.hard_core else n
            occ = _occupations(self.torus.n_sites, n, cap)
            index = {tuple(q): i for i, q in enumerate(occ)}
            self._basis[n] = (occ, index)
        return self._basis[n]

    def hamiltonian_block(self, n):
        occ, index = self.basis(n)
        m = self.torus.n_sites
        lam = self.params.lam
        H = np.zeros((len(occ), len(occ)))
        inter = 0.5 * lam * np.einsum("ax,xy,ay->a", occ, self.v_offdiag, occ)
        if not self.hard_core:
            inter += 0.5 * lam * self.v_onsite * np.einsum("ax,ax->a", occ, occ)
        np.fill_diagonal(H, inter + occ @ np.diag(self.h1))
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
        return np.linalg.eigh(self.hamiltonian_block(n))

    def trace_exp(self, n):
        '''tr e^{-H_n} over the symmetric subspace (= tr e^{-H_n} P+).'''
        return 1.0 if n == 0 else float(np.exp(-self.eig(n)[0]).sum())

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


def grand_sums(params, p, kappa, n_max):
    '''(Xi, Gamma_p) summed over blocks n <= n_max in the site basis.'''
    blocks = BoseBlocks(params)
    m = params.torus.n_sites
    fugacity = math.exp(-kappa * params.nu)
    tuples = list(itertools.product(range(m), repeat=p))
    Xi, K = 1.0, np.zeros((m ** p, m ** p))
    for n in range(1, n_max + 1):
        w, V = blocks.eig(n)
        Xi += fugacity ** n * float(np.exp(-w).sum())
        if n < p:
            continue
        E = (V * np.exp(-w)) @ V.T
        lowered = {}
        for xs in tuples:
            B, nn = None, n
            for s in xs:
                A = blocks.annihilator(s, nn)
                B = A if B is None else A @ B
                nn -= 1
            lowered[xs] = B
        for i, xs in enumerate(tuples):
            right = lowered[xs] @ E
            for j, ys in enumerate(tuples):
                K[i, j] += fugacity ** n * float(np.sum(right * lowered[ys]))
    return Xi, K / Xi


def free_tail_bound_sum(mode_weights, n_from, horizon=4000):
    '''sum_{n >= n_from} binom(n+m-1, m-1) mu^n term by term.'''
    mu = float(np.max(mode_weights))
    m = len(mode_weights)
    total = 0.0
    for n in range(n_from, n_from + horizon):
        term = math.comb(n + m - 1, m - 1) * mu ** n
        total += term
        if n > n_from and term < 1e-18 * total:
            break
    return total


class SectorBlock:
    '''The occupation states of one block n in the plane waves (the sites
    under a hard core), sorted stably by momentum sector: sector K holds
    the states start[K]:start[K+1].  A state's key is occ @ radix.'''

    def __init__(self, torus, n, hard_core):
        m = torus.n_sites
        occ = _occupations(m, n, 1 if hard_core else n)
        sector = (np.zeros(len(occ), dtype=np.int64) if hard_core
                  else torus.index_of(occ @ torus.coords))
        order = np.argsort(sector, kind="stable")
        self.occ = occ[order]
        self.start = np.searchsorted(sector[order], np.arange(m + 1))
        self.radix = (n + 1) ** np.arange(m - 1, -1, -1, dtype=np.int64)
        self.at_key = np.argsort(self.occ @ self.radix)
        self.key = (self.occ @ self.radix)[self.at_key]

    def apply(self, destroy, create, cap, target):
        '''(source, term, target state, amplitude) of the nonzero entries of
        the terms a+_create a_destroy from this block into target.'''
        amp = _amplitudes(self.occ, destroy, create, cap)
        src, t = np.nonzero(amp)
        occ = self.occ[src]
        for modes, sign in ((destroy, -1), (create, 1)):
            for mode in modes[t].T:
                occ[np.arange(len(src)), mode] += sign
        row = target.at_key[np.searchsorted(target.key, occ @ target.radix)]
        assert np.array_equal(target.occ[row], occ)
        return src, t, row, amp[src, t]


class PerBlockSectors:
    '''quantum_oracle's sectors built one block at a time, with the
    Hamiltonian terms of FockBlocks: the per-block, all-sector reference
    of the oracle's runs of blocks.'''

    def __init__(self, params):
        self.terms = FockBlocks(params)
        self.torus, self.hard_core = params.torus, params.R == 1
        self.blocks = {}

    def block(self, n):
        if n not in self.blocks:
            self.blocks[n] = SectorBlock(self.torus, n, self.hard_core)
        return self.blocks[n]

    def sectors(self, n):
        '''Yield (sector, first state, H) for every nonempty sector of block
        n, in sector order.'''
        f, b = self.terms, self.block(n)
        src, t, tgt, amp = b.apply(*f.moves[:2], f.cap, b)
        val = f.moves[2][t] * amp
        energy = (0.5 * f.lam * np.einsum("ax,xy,ay->a", b.occ, f.pair, b.occ)
                  + b.occ @ f.one)
        for K in range(len(b.start) - 1):
            lo, hi = b.start[K:K + 2]
            if hi == lo:
                continue
            H = np.diag(energy[lo:hi])
            keep = (src >= lo) & (src < hi)
            np.add.at(H, (tgt[keep] - lo, src[keep] - lo), val[keep])
            yield K, lo, H

    def add_kernel(self, G, n, tuples, lo, V, e):
        '''G[kappa, kappa'] += sum_a e_a <a| a+_kappa' a_kappa |a> over the
        eigenvectors V of the sector of block n starting at state lo.'''
        b, lower = self.block(n), self.block(n - tuples.shape[1])
        src, t, row, amp = b.apply(tuples, tuples[:, :0], self.terms.cap,
                                   lower)
        keep = (src >= lo) & (src < lo + len(e))
        hit, row = np.unique(row[keep], return_inverse=True)
        A = np.zeros((len(tuples), len(hit), len(e)))
        np.add.at(A, (t[keep], row), amp[keep, None] * V[src[keep] - lo])
        G += np.einsum("trs,urs,s->tu", A, A, e)


def newton_free_traces(mode_weights, n_max):
    '''Free symmetric-subspace traces h_n by the Newton recurrence
    h_n = (1/n) sum_i p_i h_{n-i}, p_i the power sums of the weights.'''
    p = [float(np.sum(mode_weights ** i)) for i in range(n_max + 1)]
    h = [1.0]
    for n in range(1, n_max + 1):
        h.append(sum(p[i] * h[n - i] for i in range(1, n + 1)) / n)
    return h


def sector_grand_sum(params, p, kappa, n_diag, n_max):
    '''(Xi, Xi0, Gamma_p) from every sector of the blocks n <= n_diag, each
    diagonalized, summed to block n_max with the free traces of Newton's
    recurrence (Gamma_p None for p = 0).'''
    blocks, m = PerBlockSectors(params), params.torus.n_sites
    weights = params.torus.free_weights(params.nu, kappa)
    fugacity = math.exp(-kappa * params.nu)
    tuples = np.array(list(itertools.product(range(m), repeat=p)))
    Xi, G = 1.0, np.zeros((m ** p,) * 2)
    for n in range(1, n_diag + 1):
        for _, lo, H in blocks.sectors(n):
            w, V = np.linalg.eigh(H)
            Xi += fugacity ** n * float(np.exp(-w).sum())
            if p and n >= p:
                G_n = np.zeros_like(G)
                blocks.add_kernel(G_n, n, tuples, lo, V, np.exp(-w))
                G += fugacity ** n * G_n
    Xi0 = float(np.sum(newton_free_traces(weights, n_max)))
    if not p:
        return Xi, Xi0, None
    if not blocks.hard_core:
        U = functools.reduce(np.kron, [blocks.terms.U] * p)
        G = (U @ G @ U.conj().T).real
    return Xi, Xi0, G / Xi
