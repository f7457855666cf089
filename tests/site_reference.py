'''Site-basis references for the torus Fourier layer, kept as test oracles:
the covariance and the free Bose kernel as dense matrix functions of the
Laplacian matrix.'''

import numpy as np
import scipy.linalg

from loopgas.lattice import laplacian_matrix


def covariance(torus, kappa):
    '''C = (kappa - Delta/2)^{-1}.'''
    n = torus.n_sites
    return np.linalg.inv(kappa * np.eye(n) - 0.5 * laplacian_matrix(torus))


def free_kernel(torus, nu, kappa):
    '''Free Bose kernel A (I - A)^{-1}, A = e^{nu(Delta/2 - kappa)}.'''
    n = torus.n_sites
    A = scipy.linalg.expm(nu * (0.5 * laplacian_matrix(torus)
                                - kappa * np.eye(n)))
    return np.linalg.solve(np.eye(n) - A, A)
