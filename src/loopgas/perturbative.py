'''Deterministic first-order (in the coupling) evaluation of the grid
ensemble's relative log partition function and one-particle kernel, in
the Hartree-Fock form of the free Bose gas.

All kernels are translation invariant on the torus, so everything is
computed through Fourier symbols.  With a_xi = e^{-nu(kappa + lambda_xi)}
the free one-particle symbol is g = a/(1-a); its inverse transform
Gamma_free(u) = sum_k e^{-kappa nu k} psi^{nu k}(u) is the free kernel and
rho' = Gamma_free(0) the density of the free Poisson loop gas (kappa > 0
and nu > 0, else ValueError); gamma1_first_order at lam = 0 is the
library's free kernel.  To first order in lam (valid for small ||v||_1):

  Gamma_1 symbol = g - lam a/(1-a)^2 [v(0)/2 + F(v Gamma_free) + rho' Vbar],
  log Z = -(lam |Lambda|/2) [v(0) rho' + sum_u v(u) Gamma_free(u)^2
                             + Vbar rho'^2],

with F the Fourier transform and Vbar = sum_u v(u).  These are the sums
over loop durations nu k in closed form.  The open path's self
interaction gives the v(0)/2 and exchange F(v Gamma_free) terms, since
sum_j j a^j = a/(1-a)^2; its interaction with the uniform Poisson loop
background gives the direct term rho' Vbar.  In log Z a closed loop's
self energy sum_{a,b<k} h(|a-b|) is k sum_{m<k} h(m), which cancels the
1/k of the loop measure and leaves the self and exchange terms; the
background pair energy gives Vbar rho'^2.  Used by the volume sweeps,
where exact oracles are out of reach; the truncation error is
O(lam^2 ||v||_1^2) uniformly in L, so successive-volume differences
remain meaningful.
'''

import numpy as np


def _free_gas(torus, nu, kappa):
    '''(a, Gamma_free): the weights a_xi = e^{-nu(kappa + lambda_xi)} and
    the free kernel Gamma_free(u) as a flat table (site 0 is u = 0).'''
    a = torus.free_weights(nu, kappa)
    return a, torus.inverse_fourier(a / (1.0 - a))


def _finite_potential(vL):
    vL = np.asarray(vL, dtype=float)
    if not np.all(np.isfinite(vL)):
        raise ValueError("the first-order engine needs a finite potential "
                         "(R = 0); a hard core has no expansion in lam")
    return vL


def gamma1_first_order(torus, nu, kappa, vL, lam):
    '''Dense Gamma_1 kernel to first order in lam.'''
    vL = _finite_potential(vL)
    a, gamma_free = _free_gas(torus, nu, kappa)
    potential = (0.5 * vL[0] + torus.fourier(vL * gamma_free)
                 + gamma_free[0] * np.sum(vL))
    symbol = a / (1.0 - a) - lam * a / (1.0 - a) ** 2 * potential
    return torus.multiplier(symbol)


def log_z_first_order(torus, nu, kappa, vL, lam):
    '''Relative log partition function to first order in lam.'''
    vL = _finite_potential(vL)
    gamma_free = _free_gas(torus, nu, kappa)[1]
    rho = gamma_free[0]
    energy = vL[0] * rho + vL @ gamma_free ** 2 + np.sum(vL) * rho ** 2
    return -0.5 * lam * torus.n_sites * float(energy)


def gibbs_potential_first_order(torus, nu, kappa, vL, lam):
    return log_z_first_order(torus, nu, kappa, vL, lam) / torus.n_sites
