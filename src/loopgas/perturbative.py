'''Deterministic first-order (in the coupling) evaluation of the grid
ensemble's relative log partition function and one-particle kernel.

All kernels are translation invariant on the torus, so everything is
computed through Fourier symbols.  With Mayer expansion to first order
in lam (valid for small ||v||_1):

  Gamma_1 = Gamma_free - S - B + O(lam^2),
  log Z   = -(A_self + A_pair)/2 + O(lam^2),

where S is the open path's self-interaction term, B the interaction with
the Poisson loop background (spatially uniform with density
rho' = sum_T e^{-kappa T} psi^T(0)), and A_self/A_pair the background
self and pair energies.  Used by the volume sweeps, where exact oracles
are out of reach; the truncation error is O(lam^2 ||v||_1^2) uniformly
in L, so successive-volume differences remain meaningful.
'''

import math

import numpy as np

from .lattice import HeatKernel


def _k_cutoff(kappa, nu, tol=1e-14):
    return max(4, int(math.ceil(-math.log(tol) / (kappa * nu))))


def _f_hat_table(hk, vL, nu, k_max):
    '''f_hat[m] = Fourier symbol of v^L(u) psi^{nu m}(u), m = 0..k_max.'''
    shape = hk.rates.shape
    return np.array([np.fft.fftn((vL * hk.table(nu * m)).reshape(shape))
                     .real.ravel() for m in range(k_max + 1)])


def gamma1_first_order(torus, nu, kappa, vL, lam):
    '''Dense Gamma_1 kernel to first order in lam.'''
    hk = HeatKernel(torus)
    rates = hk.rates.ravel()
    vL = np.asarray(vL)
    k_max = _k_cutoff(kappa, nu)
    a = np.exp(-nu * (kappa + rates))
    gamma_free = a / (1.0 - a)
    f_hat = _f_hat_table(hk, vL, nu, k_max)
    # self term: (lam/2) sum_k e^{-kappa nu k} sum_{a,b<k}
    #            e^{-(nu k - nu|a-b|) rates} f_hat[|a-b|]
    S = np.zeros_like(rates)
    for k in range(1, k_max + 1):
        w = math.exp(-kappa * nu * k)
        inner = k * f_hat[0] * np.exp(-nu * k * rates)
        for m in range(1, k):
            inner += 2.0 * (k - m) * np.exp(-nu * (k - m) * rates) * f_hat[m]
        S += w * inner
    S *= 0.5 * lam
    # background term: E[V(w, background)] = lam Vbar rho' k for a k-window
    # path, so the symbol picks up sum_k k a_xi^k = a/(1-a)^2
    rho = loop_density(torus, nu, kappa)
    v_bar = float(np.sum(vL))
    B = lam * rho * v_bar * a / (1.0 - a) ** 2
    symbol = gamma_free - S - B
    table = np.fft.ifftn(symbol.reshape(hk.rates.shape)).real.ravel()
    return table[torus.diff_table]


def loop_density(torus, nu, kappa):
    '''rho' = sum_{T in nu N*} e^{-kappa T} psi^{L,T}(0): the expected
    particle density of the free Poisson loop gas.'''
    k = np.arange(1, _k_cutoff(kappa, nu) + 1)
    psi0 = HeatKernel(torus).at_origin(nu * k)
    return float(np.sum(np.exp(-kappa * nu * k) * psi0))


def log_z_first_order(torus, nu, kappa, vL, lam):
    '''Relative log partition function to first order in lam:
    -(A_self + A_pair)/2 with
      A_self = nu sum_T (e^{-kappa T}/T) int W^T V(w, w)
             = lam |Lambda| sum_k (e^{-kappa nu k}/k) sum_{a,b<k} h_{nu k}(nu|a-b|),
      h_T(tau) = sum_u psi^tau(u) psi^{T-tau}(u) v^L(u),
      A_pair = lam |Lambda| Vbar rho'^2.'''
    hk = HeatKernel(torus)
    k_max = _k_cutoff(kappa, nu)
    psi = [hk.table(nu * m) for m in range(k_max + 1)]
    vL = np.asarray(vL)
    a_self = 0.0
    for k in range(1, k_max + 1):
        w = math.exp(-kappa * nu * k) / k
        inner = k * float(np.sum(psi[0] * psi[k] * vL))
        for m in range(1, k):
            inner += 2.0 * (k - m) * float(np.sum(psi[m] * psi[k - m] * vL))
        a_self += w * inner
    a_self *= lam * torus.n_sites
    rho = loop_density(torus, nu, kappa)
    a_pair = lam * torus.n_sites * float(np.sum(vL)) * rho ** 2
    return -0.5 * (a_self + a_pair)


def gibbs_potential_first_order(torus, nu, kappa, vL, lam):
    return log_z_first_order(torus, nu, kappa, vL, lam) / torus.n_sites
