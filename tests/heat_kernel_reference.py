'''Three routes to the infinite-lattice heat kernel
psi^{inf,t}(x) = prod_j (2 pi)^{-1} int e^{-t(1-cos xi)} cos(xi x_j) dxi
= prod_j e^{-t} I_{x_j}(t) (modified Bessel), as test oracles: the ring
form heat_kernel_infinite (the trapezoid rule on the rings of
loopgas.lattice._ring_decay), which the image sums of
loopgas.lattice.heat_kernel_images are checked against, and the Bessel
and quadrature routes that check the ring form.'''

import warnings

import numpy as np
from scipy import integrate, special

from loopgas.lattice import _reach, _ring_decay


def heat_kernel_infinite(d, t, x):
    '''Infinite-lattice kernel psi^{inf,t}(x), x an integer vector of length d.

    psi^{inf,t}(x) = prod_j (2 pi)^{-1} int e^{-2t sin^2(xi/2)} cos(xi x_j) dxi,
    each factor by the trapezoid rule on a ring of M = |x_j| + y0 + 2
    sites, which sums psi^{inf,t} over x_j + M Z; y0 = _reach(t) keeps
    the aliasing below 1e-18.  ValueError past MAX_RING_SITES.
    '''
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if x.size != d:
        raise ValueError("x must have length d")
    reach = _reach(t)
    out = 1.0
    for xj in x:
        M = abs(int(xj)) + reach + 2
        k, decay = _ring_decay(t, M)
        # (k x_j) mod M keeps the cosine's argument small
        out *= float(decay @ np.cos(2.0 * np.pi * (k * xj % M) / M)) / M
    return out


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
