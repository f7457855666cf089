'''Infinite-mass classical quantities by truncated absolutely-convergent
sums: the relative partition function, the (diagonal-up-to-permutation)
correlation kernels, and the Gibbs potential, for soft (R=0) and
hard-core (R=1) interactions.

The particle sum over (n, occupation numbers k, sites x) collapses to a
sum over site-occupation fields q: [z^m] exp(sum_k e^{-kappa0 k} z^k / k)
= [z^m] (1 - e^{-kappa0} z)^{-1} = e^{-kappa0 m}, so the unnormalized
partition sum equals sum_q prod_x e^{-kappa0 q_x} e^{-E(q)} with
E(q) = (1/2) q^T V q (R=0) or the off-diagonal half sum over occupied
sites with q <= 1 (R=1).  The kernels are moments of the same measure on
q: Gamma_p^lm(x, y) = (prod_s m_s!) E[prod_s C(q_s, m_s)] for y a
permutation of x, so Gamma_1^lm(x, x) = E[q_x].  The direct particle
sum, an independent cross-check, is in tests/largemass_reference.py.
'''

import math
from dataclasses import dataclass, field

import numpy as np

from .interactions import v_tilde_table
from .lattice import periodize_potential

# Most occupation fields one occupation sum may enumerate; the shipped
# configs need at most 31^3 = 29,791.
MAX_OCCUPATION_FIELDS = 10 ** 6


@dataclass
class LmParams:
    '''Truncated-sum parameters for the infinite-mass quantities.

    The occupation sums truncate each site's occupation so that the
    dropped fields weigh less than tol.'''
    torus: object
    potential: object        # PotentialSpec
    kappa0: float
    tol: float = 1e-10
    vL: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.kappa0 > 0:
            raise ValueError("kappa0 must be > 0 (need e^{-kappa0} < 1)")
        if math.exp(-self.kappa0) >= 1.0:
            raise ValueError("kappa0 too small: the weight e^{-kappa0} is 1")
        if self.potential.d != self.torus.d:
            raise ValueError("potential dimension mismatch")
        self.vL = periodize_potential(self.potential, self.torus.L)

    @property
    def R(self):
        return self.potential.R

    @property
    def a(self):
        return math.exp(-self.kappa0)


def _site_cap(params):
    '''Per-site occupation cap with geometric tail below tol (1 for R=1).'''
    if params.R == 1:
        return 1, 0.0
    a, n = params.a, params.torus.n_sites
    cap = 1
    while True:
        # dropped occupation fields, bounded with e^{-E} <= 1
        tail = (1.0 / (1.0 - a)) ** n - ((1.0 - a ** (cap + 1)) / (1.0 - a)) ** n
        if tail < params.tol:
            return cap, tail
        cap += 1
        if cap > 100000:
            raise ArithmeticError("occupation cap not reached within budget")


def _energy_table(params):
    '''Interaction matrix for occupation fields: v-tilde, the potential
    off the hard core (diagonal-free for R=1), over site pairs.'''
    return v_tilde_table(params.vL, params.R)[
        params.torus.diff_table]


def _occupation_fields(params):
    '''The truncated occupation fields q (rows) with their weights
    a^{|q|} e^{-E(q)} and the tail bound of the truncation.'''
    n = params.torus.n_sites
    cap, tail = _site_cap(params)
    if (cap + 1) ** n > MAX_OCCUPATION_FIELDS:
        raise MemoryError(
            f"occupation sum over {(cap + 1) ** n} fields exceeds the "
            f"budget of {MAX_OCCUPATION_FIELDS}")
    vmat = _energy_table(params)
    # every field, in itertools.product order: the last site runs fastest
    grid = np.indices((cap + 1,) * n, dtype=np.int64).reshape(n, -1).T
    energy = 0.5 * np.einsum("qs,st,qt->q", grid, vmat, grid)
    with np.errstate(over="ignore"):
        weights = params.a ** grid.sum(axis=1) * np.exp(-energy)
    return grid, weights, tail


def occupation_sum(params):
    '''Unnormalized partition sum over occupation fields; returns
    (value, tail bound).'''
    _, weights, tail = _occupation_fields(params)
    return float(np.sum(weights)), tail


def z_lm(params):
    '''Relative and unnormalized infinite-mass partition function, with
    the recorded truncation tail.'''
    num, tail = occupation_sum(params)
    # log exp(|Lambda| sum_k e^{-kappa0 k}/k) = -|Lambda| log(1 - a)
    log_norm = -params.torus.n_sites * math.log(1.0 - params.a)
    return {"relative": num * math.exp(-log_norm), "unnormalized": num,
            "log_normalizer": log_norm, "tail_bound": tail}


def gamma_lm(params, p, xs, ys):
    '''Kernel entry Gamma_p^lm(x, y) = sum over occupation vectors k and
    pi in S_p of e^{-kappa0 |k|} delta(pi y - x) Z^lm(k, x)/Z^lm;
    zero unless y is a permutation of x (no hopping at infinite mass).
    Shifting the field by sum_i k_i e_{x_i} turns the sum over k into the
    occupation moment R E[prod_s C(q_s, m_s)], m_s the multiplicity of
    site s in x, and R = prod_s m_s! the number of pi with pi y = x.'''
    xs, ys = params.torus.check_sites(p, xs, ys)
    if sorted(xs) != sorted(ys):
        return 0.0
    grid, weights, _ = _occupation_fields(params)
    sites, mult = np.unique(xs, return_counts=True)
    perms = math.prod(map(math.factorial, mult))
    # binom[q, i] = C(q, mult[i]), exact integers
    binom = np.array([[math.comb(q, k) for k in mult]
                      for q in range(grid.max() + 1)], dtype=np.int64)
    moment = binom[grid[:, sites], np.arange(len(sites))].prod(axis=1)
    return perms * float(weights @ moment) / float(np.sum(weights))


def gamma_lm_matrix(params):
    '''Dense p=1 kernel diag(E[q_x]); kept in the oracle kernel layout.'''
    grid, weights, _ = _occupation_fields(params)
    return np.diag(weights @ grid / np.sum(weights))
