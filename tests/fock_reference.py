'''Reference implementations of the exact oracle, kept as test oracles for
quantum_oracle's plane-wave sectors.

* The product basis Lambda^n (ManyBodySpace, hamiltonian, symmetrizer):
  tr(e^{-H_n} P+) over Lambda^n equals the trace of e^{-H_n} over the
  symmetric subspace.
* The site occupation basis (BoseBlocks): whole particle-number blocks,
  built state by state, with annihilator products for the kernels.
* The free-tail bound as the explicit term-by-term sum.
'''

import itertools
import math

import numpy as np

from loopgas.lattice import laplacian_matrix


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
