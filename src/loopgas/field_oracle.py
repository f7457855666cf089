'''Classical field theory oracle: complex Gaussian sampling, relative
partition function and correlation kernels, single-site quadrature,
Hubbard-Stratonovich and complex-Wick identity checks.

Covariance convention: E[conj(phi(x)) phi(y)] = C_{x,y} with
C = (-Delta/2 + kappa)^{-1}; p-point moments then obey the permanent
formula E[prod conj(phi(y_j)) prod phi(x_i)] = sum_pi prod_k C_{x_k, y_pi(k)}.
'''

import itertools
import math

import numpy as np

from .lattice import check_positive_type
from .loop_mc import McEstimate, run_mc
from .paths import _by_stream


class GaussianField:
    '''Complex Gaussian measure with covariance C = (-Delta/2 + kappa)^{-1}:
    the multiplier 1/(kappa + lambda_xi), sampled through the symmetric
    factor (kappa + lambda_xi)^{-1/2}.'''

    def __init__(self, torus, kappa):
        if not kappa > 0:
            raise ValueError("kappa must be > 0 (covariance must be SPD)")
        self.torus = torus
        self.kappa = float(kappa)
        symbol = self.kappa + torus.rates
        self.covariance = torus.multiplier(1.0 / symbol)
        self.factor = torus.multiplier(symbol ** -0.5)

    def sample(self, rng, size):
        '''size field samples, shape (size, n_sites).'''
        shape = (size, self.torus.n_sites)
        z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return z / math.sqrt(2.0) @ self.factor


def _ratio(num_mean, num_se, seed, denominator):
    '''(num / den, its delta-method SE, metadata) for den the McEstimate
    denominator(a seed derived from seed, an independent stream);
    ArithmeticError if den is within 3 SE of 0.'''
    den = denominator((int(seed) ^ 0x9E3779B97F4A7C15) % 2**63)
    if abs(den.mean) <= 3.0 * den.std_error:
        raise ArithmeticError("denominator estimate consistent with 0")
    ratio = num_mean / den.mean
    se = math.hypot(num_se, ratio * den.std_error) / abs(den.mean)
    return ratio, se, {"denominator": den.mean,
                       "denominator_se": den.std_error}


def _quartic_weight(fields, vmat):
    '''W = 1/2 sum_{x,y} |phi(x)|^2 v(x-y) |phi(y)|^2, batched.'''
    dens = np.abs(fields) ** 2
    return 0.5 * np.einsum("ax,xy,ay->a", dens, vmat, dens)


def estimate_Zcl(gf, vL, n_samples, seed, workers=1, lam=1.0):
    '''MC estimate of Z^cl = E_mu[e^{-lam W}] with the quartic weight W.'''
    vmat = np.asarray(vL)[gf.torus.diff_table]
    if not np.isfinite(vmat).all():
        raise ValueError("finite potential required")

    def values(rngs, counts):
        fields = _by_stream(rngs, counts, gf.sample)
        return np.exp(-lam * _quartic_weight(fields, vmat))

    mean, se, _ = run_mc(values, n_samples, seed, workers)
    return McEstimate(mean, se, n_samples, seed,
                      {"kind": "Zcl", "lam": lam, "workers": workers})


def estimate_gamma_cl(gf, vL, p, xs, ys, n_samples, seed, workers=1,
                      lam=1.0, normalized=True):
    '''Ratio estimator of Gamma_p^cl(x, y) =
    E[prod conj(phi(y_j)) prod phi(x_i) e^{-lam W}] / E[e^{-lam W}],
    with independent streams for numerator and denominator.

    normalized=False returns the unnormalized moment (numerator only).
    '''
    xs, ys = gf.torus.check_sites(p, xs, ys)
    vmat = np.asarray(vL)[gf.torus.diff_table]

    def values(rngs, counts):
        fields = _by_stream(rngs, counts, gf.sample)
        mono = np.prod(fields[:, xs], axis=1) * np.prod(
            np.conj(fields[:, ys]), axis=1)
        out = mono * np.exp(-lam * _quartic_weight(fields, vmat))
        return out.real

    num_mean, num_se, _ = run_mc(values, n_samples, seed, workers)
    meta = {"kind": "gamma_cl", "p": p, "x": xs, "y": ys, "lam": lam,
            "workers": workers}
    if not normalized:
        return McEstimate(num_mean, num_se, n_samples, seed, meta)
    ratio, se, den = _ratio(num_mean, num_se, seed, lambda s: estimate_Zcl(
        gf, vL, n_samples, s, workers, lam=lam))
    meta.update(den)
    return McEstimate(ratio, se, n_samples, seed, meta)


def wick_moment(C, xs, ys):
    '''Gaussian moment sum_pi prod_k C_{x_k, y_pi(k)} (complex Wick).'''
    xs, ys = list(xs), list(ys)
    total = 0.0
    for pi in itertools.permutations(range(len(ys))):
        total += math.prod(C[xs[k], ys[pi[k]]] for k in range(len(xs)))
    return total


def quadrature_single_site(kappa, w, p):
    '''Exact single-site (L=1) classical values via the radial law
    s = |phi|^2 ~ Exp(kappa):
    Z^cl = kappa int e^{-kappa s - w s^2/2} ds,
    Gamma_p^cl(0,0) = kappa int s^p e^{...} ds / Z^cl,
    by 10-point Gauss-Legendre on 40 equal panels of [0, S], S =
    min(45/kappa, sqrt(90/w)): past S the weight is below e^{-45}.  (One
    400-point rule would lose 1e-13 in numpy's nodes.)  ValueError for a
    hard core (w = +inf).'''
    if not math.isfinite(w):
        raise ValueError(f"finite potential required, got w = {w}")
    S = 45.0 / kappa if w == 0 else min(45.0 / kappa, math.sqrt(90.0 / w))
    nodes, h = np.polynomial.legendre.leggauss(10)
    half = 0.5 * S / 40
    s = (half * (2 * np.arange(40)[:, None] + 1 + nodes)).ravel()
    f = half * np.tile(h, 40) * kappa * np.exp(-kappa * s - 0.5 * w * s * s)
    Z = float(f.sum())
    return Z, float(f @ s ** p) / Z


def hubbard_stratonovich_check(v_pt, torus, f, n_samples, seed, workers=1):
    '''Check E_{mu_v}[e^{i<f, sigma>}] = e^{-<f, v f>/2} for the real
    Gaussian measure with covariance matrix V_{xy} = v(x-y).

    Returns a report with the MC comparison (3 sigma) and the exact
    characteristic-function identity evaluated through the sampling
    factor (1e-12).'''
    v_pt = np.asarray(v_pt, dtype=float)
    ok, mn = check_positive_type(v_pt, torus)
    if not ok:
        raise ValueError(f"potential not of positive type (min coeff {mn:.3e})")
    f = np.asarray(f, dtype=float)
    V = v_pt[torus.diff_table]
    factor = torus.multiplier(np.sqrt(np.clip(torus.fourier(v_pt), 0.0, None)))
    target = math.exp(-0.5 * float(f @ V @ f))
    # deterministic identity: the sampler's covariance is factor @ factor.T
    exact_gap = abs(math.exp(-0.5 * float(f @ factor @ factor.T @ f)) - target)

    def values(rngs, counts):
        # a stream's normals through the factor, then its cosines: each
        # product of a stream's own, so its rows are a one-stream call's
        return _by_stream(rngs, counts, lambda rng, k: np.cos(
            (rng.standard_normal((k, len(f))) @ factor.T) @ f))

    mean, se, _ = run_mc(values, n_samples, seed, workers)
    z = abs(mean - target) / max(se, 1e-15)
    return {"pass": bool(z <= 3.0 and exact_gap <= 1e-12),
            "mc": mean, "mc_se": se, "target": target, "z": z,
            "exact_identity_gap": exact_gap, "n": n_samples}


def correlation_inequality_check(gf, vL, lam_grid, p, xs, ys, n_samples,
                                 seed, workers=1):
    '''Check 0 <= Gamma-hat_p^{cl,lam} <= Gamma-hat_p^{cl,0} (the Wick
    value) within 3 sigma across the lam grid; fresh samples per lam.'''
    xs = [int(x) for x in np.atleast_1d(xs)]
    ys = [int(y) for y in np.atleast_1d(ys)]
    wick = wick_moment(gf.covariance, xs, ys)
    rows, ok = [], True
    for i, lam in enumerate(lam_grid):
        est = estimate_gamma_cl(gf, vL, p, xs, ys, n_samples,
                                seed + 1000 * i, workers, lam=lam,
                                normalized=False)
        lower = est.mean >= -3.0 * est.std_error
        upper = est.mean <= wick + 3.0 * est.std_error
        ok = ok and lower and upper
        rows.append({"lam": lam, "value": est.mean, "se": est.std_error,
                     "lower_ok": lower, "upper_ok": upper})
    return {"pass": bool(ok), "wick_value": wick, "rows": rows}
