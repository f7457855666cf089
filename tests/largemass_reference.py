'''The infinite-mass partition sum as a direct sum over particles, kept as
an independent cross-check of the occupation sums of loopgas.largemass.

A configuration of n particles carries occupation numbers k_i >= 1 at
sites x_i, weight prod_i a^{k_i} / k_i / n! and the interaction v_lm.
'''

import itertools
import math

import numpy as np


def v_lm(kvec, xvec, vL, torus, R):
    '''Infinite-mass interaction of weighted particles (k_i, x_i), or one
    value per row when xvec stacks site tuples.

    R=0: 1/2 sum_{i,j} k_i k_j v(x_i - x_j);
    R=1: 1/2 sum_{i!=j} v(x_i - x_j) if k = 1 and sites distinct, else +inf.
    '''
    kvec = np.asarray(kvec, dtype=np.int64)
    xvec = np.asarray(xvec, dtype=np.int64)
    if xvec.shape[-1:] != kvec.shape:
        raise ValueError("|k| and |x| must agree")
    if np.any(kvec < 1):
        raise ValueError("occupation numbers must be >= 1")
    vmat = vL[torus.diff_table[xvec[..., :, None], xvec[..., None, :]]]
    if R == 1:
        off = ~np.eye(len(kvec), dtype=bool)
        V = 0.5 * np.where(off, vmat, 0.0).sum(axis=(-2, -1))
        if np.any(kvec != 1):
            V = np.full_like(V, np.inf)
    else:
        V = 0.5 * np.einsum("i,...ij,j->...", kvec, vmat, kvec)
    return V if V.ndim else float(V)


def z_lm_particle_sum(params, k_max, n_max):
    '''The unnormalized and relative Z^lm of params (an LmParams) as the
    direct particle sum truncated at n <= n_max particles and occupation
    numbers k_i <= k_max, with the tails of both truncations.  The cost
    is (k_max |Lambda|)^{n_max}, so both truncations must stay small;
    each k-tuple takes all its site tuples in one v_lm call.'''
    torus, a = params.torus, params.a
    k_top = 1 if params.R == 1 else k_max
    if (k_top * torus.n_sites) ** n_max > 10 ** 7:
        raise ValueError("particle-sum budget exceeded; lower n_max/k_max")
    k_tail = a ** (k_max + 1) / ((k_max + 1) * (1.0 - a))
    full_mass = -torus.n_sites * math.log(1.0 - a)
    n_tail = math.exp(full_mass) - sum(
        full_mass ** n / math.factorial(n) for n in range(n_max + 1))
    total = 0.0
    for n in range(n_max + 1):
        if n == 0:
            total += 1.0
            continue
        sites = np.array(list(itertools.product(range(torus.n_sites),
                                                repeat=n)), dtype=np.int64)
        term = 0.0
        for ks in itertools.product(range(1, k_top + 1), repeat=n):
            pref = a ** sum(ks) / math.prod(ks)
            # e^{-inf} = 0 drops the hard-core-killed tuples
            term += pref * float(
                np.exp(-v_lm(ks, sites, params.vL, torus, params.R)).sum())
        total += term / math.factorial(n)
        if total > 0 and term / math.factorial(n) < params.tol * total and n >= 2:
            break
    return {"unnormalized": total, "relative": total * (1.0 - a) ** torus.n_sites,
            "k_tail": k_tail, "n_tail": n_tail}
