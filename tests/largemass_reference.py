'''The infinite-mass partition sum as a direct sum over particles, kept as
an independent cross-check of the occupation sums of loopgas.largemass.

A configuration of n particles carries occupation numbers k_i >= 1 at
sites x_i, weight prod_i a^{k_i} / k_i / n! and the interaction v_lm.
'''

import itertools
import math

import numpy as np


def v_lm(kvec, xvec, vL, torus, R):
    '''Infinite-mass interaction of weighted particles (k_i, x_i).

    R=0: 1/2 sum_{i,j} k_i k_j v(x_i - x_j);
    R=1: 1/2 sum_{i!=j} v(x_i - x_j) if k = 1 and sites distinct, else +inf.
    '''
    kvec = np.asarray(kvec, dtype=np.int64)
    xvec = np.asarray(xvec, dtype=np.int64)
    if len(kvec) != len(xvec):
        raise ValueError("|k| and |x| must agree")
    n = len(kvec)
    if n == 0:
        return 0.0
    if np.any(kvec < 1):
        raise ValueError("occupation numbers must be >= 1")
    vmat = vL[torus.diff_table[np.ix_(xvec, xvec)]]
    if R == 1:
        if np.any(kvec != 1):
            return np.inf
        off = vmat[~np.eye(n, dtype=bool)]
        if np.isinf(off).any():
            return np.inf
        return 0.5 * float(off.sum())
    total = float(kvec @ vmat @ kvec)
    return np.inf if np.isinf(total) else 0.5 * total


def z_lm_particle_sum(params, k_max, n_max):
    '''The unnormalized and relative Z^lm of params (an LmParams) as the
    direct particle sum truncated at n <= n_max particles and occupation
    numbers k_i <= k_max, with the tails of both truncations.  The cost
    is (k_max |Lambda|)^{n_max}, so both truncations must stay small.'''
    torus, a = params.torus, params.a
    k_top = 1 if params.R == 1 else k_max
    if (k_top * torus.n_sites) ** n_max > 10 ** 7:
        raise ValueError("particle-sum budget exceeded; lower n_max/k_max")
    sites = range(torus.n_sites)
    k_tail = a ** (k_max + 1) / ((k_max + 1) * (1.0 - a))
    full_mass = -torus.n_sites * math.log(1.0 - a)
    n_tail = math.exp(full_mass) - sum(
        full_mass ** n / math.factorial(n) for n in range(n_max + 1))
    total = 0.0
    for n in range(n_max + 1):
        if n == 0:
            total += 1.0
            continue
        term = 0.0
        for ks in itertools.product(range(1, k_top + 1), repeat=n):
            pref = a ** sum(ks) / math.prod(ks)
            for xs in itertools.product(sites, repeat=n):
                V = v_lm(ks, xs, params.vL, torus, params.R)
                if not np.isinf(V):
                    term += pref * math.exp(-V)
        total += term / math.factorial(n)
        if total > 0 and term / math.factorial(n) < params.tol * total and n >= 2:
            break
    return {"unnormalized": total, "relative": total * (1.0 - a) ** torus.n_sites,
            "k_tail": k_tail, "n_tail": n_tail}
