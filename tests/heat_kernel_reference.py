'''Two routes to the infinite-lattice heat kernel, kept as test oracles for
the ring form of loopgas.lattice.heat_kernel_infinite:
psi^{inf,t}(x) = prod_j (2 pi)^{-1} int e^{-t(1-cos xi)} cos(xi x_j) dxi
= prod_j e^{-t} I_{x_j}(t) (modified Bessel).'''

import warnings

import numpy as np
from scipy import integrate, special


def bessel(d, t, x):
    '''prod_j e^{-t} I_{x_j}(t) by scipy's scaled Bessel function.'''
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    assert x.size == d
    return float(np.prod(special.ive(np.abs(x), t)))


def quadrature(d, t, x):
    '''The Fourier integral of each factor by adaptive quadrature.  quad
    warns of roundoff once it reaches machine precision; the warning is
    silenced, and the callers compare the value with the other routes.'''
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    assert x.size == d
    out = 1.0
    for xj in x:
        # the integrand is even in xi: twice the integral over [0, pi]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(
                lambda xi: np.exp(-2.0 * t * np.sin(0.5 * xi) ** 2)
                * np.cos(xi * xj), 0.0, np.pi, epsabs=1e-14, epsrel=1e-14,
                limit=400)
        out *= val / np.pi
    return out
