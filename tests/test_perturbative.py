'''First-order coupling expansion: free limit, small-coupling accuracy
against the exact oracle, the quadratic scaling of its error, and the
closed forms against the term-by-term sums over loop durations.'''

import math

import numpy as np
import pytest

from loopgas.field_oracle import GaussianField
from loopgas.interactions import InteractionParams
from loopgas.lattice import (
    PotentialSpec, Torus, periodize_potential)
from loopgas.perturbative import (
    _free_gas, gamma1_first_order, gibbs_potential_first_order,
    log_z_first_order)
from loopgas.quantum_oracle import grand_partition, reduced_density_matrix
from site_reference import free_kernel


def _setup(L=3, nu=0.5, kappa=1.0, v0=0.05, v1=0.0):
    torus = Torus(1, L)
    entries = {(0,): v0}
    if v1:
        entries[(1,)] = v1
    vL = periodize_potential(PotentialSpec(1, 0, entries), L)
    return torus, vL


def loop_density(torus, nu, kappa):
    '''rho' = sum_{T in nu N*} e^{-kappa T} psi^{L,T}(0): the expected
    particle density of the free Poisson loop gas.'''
    return float(_free_gas(torus, nu, kappa)[1][0])


def test_free_limit_exact():
    torus, vL = _setup()
    K = gamma1_first_order(torus, 0.5, 1.0, vL, lam=0.0)
    assert np.max(np.abs(K - free_kernel(torus, 0.5, 1.0))) < 1e-10
    assert log_z_first_order(torus, 0.5, 1.0, vL, lam=0.0) == 0.0


def test_loop_density_closed_form():
    # rho' = sum_k e^{-kappa nu k} psi^{nu k}(0)
    torus, _ = _setup()
    direct = sum(math.exp(-0.5 * k)
                 * float(torus.heat_kernel_at_origin(0.5 * k))
                 for k in range(1, 200))
    assert loop_density(torus, 0.5, 1.0) == pytest.approx(direct, abs=1e-12)


def test_first_order_log_z_vs_oracle():
    torus, vL = _setup()
    lam = 0.05
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, lam=lam,
                               mode="generic", kappa=1.0)
    oracle = math.log(grand_partition(params).Z_rel)
    approx = log_z_first_order(torus, 0.5, 1.0, vL, lam)
    # second-order remainder: small compared to the first-order term
    assert abs(approx - oracle) < 0.05 * abs(oracle) + 1e-8


def test_first_order_gamma_vs_oracle():
    torus, vL = _setup()
    lam = 0.05
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, lam=lam,
                               mode="generic", kappa=1.0)
    K_exact = reduced_density_matrix(params, p=1)
    K_first = gamma1_first_order(torus, 0.5, 1.0, vL, lam)
    free = free_kernel(torus, 0.5, 1.0)
    first_order_size = np.max(np.abs(K_first - free))
    gap = np.max(np.abs(K_first - K_exact))
    assert gap < 0.1 * first_order_size + 1e-10


def test_error_scales_quadratically():
    torus, vL = _setup()

    def gap(lam):
        params = InteractionParams(torus=torus, vL=vL, nu=0.5, lam=lam,
                                   mode="generic", kappa=1.0)
        oracle = math.log(grand_partition(params, tol=1e-12).Z_rel)
        return abs(log_z_first_order(torus, 0.5, 1.0, vL, lam) - oracle)

    g1, g2 = gap(0.4), gap(0.2)
    assert 3.0 < g1 / g2 < 5.0         # halving lam quarters the error


def test_gibbs_potential_first_order():
    torus, vL = _setup()
    lam = 0.1
    assert gibbs_potential_first_order(torus, 0.5, 1.0, vL, lam) == \
        pytest.approx(log_z_first_order(torus, 0.5, 1.0, vL, lam) / 3)


def test_translation_invariance_and_symmetry():
    torus, vL = _setup(v1=0.01)
    K = gamma1_first_order(torus, 0.25, 1.0, vL, lam=0.0625)
    assert np.allclose(K, K.T, atol=1e-12)
    for x in range(3):
        for y in range(3):
            assert K[x, y] == pytest.approx(K[0, torus.diff_table[y, x]],
                                            abs=1e-12)


@pytest.mark.parametrize("d,L", [(d, L) for d in (1, 2, 3)
                                 for L in (1, 2, 3, 4)])
def test_free_kernel_on_degenerate_tori(d, L):
    # L = 1 gives Delta = 0, L = 2 doubled edge weights
    torus = Torus(d, L)
    for nu, kappa in ((0.5, 1.0), (0.1, 0.3)):
        K = gamma1_first_order(torus, nu, kappa, np.zeros(torus.n_sites), 0.0)
        ref = free_kernel(torus, nu, kappa)
        assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d,L", [(1, 1), (1, 2), (1, 5), (2, 3), (3, 2)])
def test_free_mean_field_limit_bound(d, L):
    # with s = kappa + lambda and x = nu s, the symbol of
    # nu Gamma_free - C + (nu/2) I is ((x/2) coth(x/2) - 1)/s, which lies in
    # [0, nu^2 s/12]; so every entry is at most nu^2 (kappa + 2d)/12 in
    # absolute value, and the diagonal is >= 0
    torus = Torus(d, L)
    zeros = np.zeros(torus.n_sites)
    for kappa in (0.5, 2.0):
        C = GaussianField(torus, kappa).covariance
        for nu in (1.0, 0.5, 0.1, 0.01):
            gap = (nu * gamma1_first_order(torus, nu, kappa, zeros, 0.0) - C
                   + 0.5 * nu * np.eye(torus.n_sites))
            assert np.max(np.abs(gap)) <= nu ** 2 * (kappa + 2 * d) / 12
            assert np.min(np.diag(gap)) >= 0.0


@pytest.mark.parametrize("nu,kappa", [(0.5, -0.1), (0.5, 0.0), (0.0, 1.0)])
def test_free_gas_rejects_bad_kappa_nu(nu, kappa):
    torus, vL = _setup()
    for fn in (gamma1_first_order, log_z_first_order,
               gibbs_potential_first_order):
        with pytest.raises(ValueError):
            fn(torus, nu, kappa, vL, 0.1)
    with pytest.raises(ValueError):
        loop_density(torus, nu, kappa)


def test_hard_core_rejected():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 1, {(1,): 0.01}), 3)
    with pytest.raises(ValueError):
        gamma1_first_order(torus, 0.5, 1.0, vL, 0.1)
    with pytest.raises(ValueError):
        log_z_first_order(torus, 0.5, 1.0, vL, 0.1)


def _duration_sums(torus, nu, kappa, vL, lam, tol=1e-17):
    '''Reference: (Gamma_1, log Z) as term-by-term sums over loop durations
    nu k, k <= k_max, and window offsets nu m, with k_max set by tol.'''
    shape = (torus.L,) * torus.d
    rates = torus.rates
    k_max = max(4, int(math.ceil(-math.log(tol) / (kappa * nu))))
    psi = [torus.heat_kernel(nu * m) for m in range(k_max + 1)]
    f_hat = [np.fft.fftn((vL * psi[m]).reshape(shape)).real.ravel()
             for m in range(k_max + 1)]
    k = np.arange(1, k_max + 1)
    rho = float(np.sum(np.exp(-kappa * nu * k)
                       * torus.heat_kernel_at_origin(nu * k)))
    a = np.exp(-nu * (kappa + rates))
    # open path: (lam/2) sum_k e^{-kappa nu k} sum_{a,b<k}
    #            e^{-(nu k - nu|a-b|) rates} f_hat[|a-b|], plus the
    # background term lam rho' Vbar sum_k k a^k
    S = np.zeros_like(rates)
    for k in range(1, k_max + 1):
        inner = k * f_hat[0] * np.exp(-nu * k * rates)
        for m in range(1, k):
            inner += 2.0 * (k - m) * np.exp(-nu * (k - m) * rates) * f_hat[m]
        S += math.exp(-kappa * nu * k) * inner
    B = lam * rho * float(np.sum(vL)) * a / (1.0 - a) ** 2
    symbol = a / (1.0 - a) - 0.5 * lam * S - B
    gamma = np.fft.ifftn(symbol.reshape(shape)).real.ravel()
    # loops: lam |Lambda| sum_k (e^{-kappa nu k}/k) sum_{a,b<k} h_k(|a-b|),
    # h_k(m) = sum_u psi^{nu m}(u) psi^{nu(k-m)}(u) v(u)
    a_self = 0.0
    for k in range(1, k_max + 1):
        inner = k * float(np.sum(psi[0] * psi[k] * vL))
        for m in range(1, k):
            inner += 2.0 * (k - m) * float(np.sum(psi[m] * psi[k - m] * vL))
        a_self += math.exp(-kappa * nu * k) / k * inner
    a_pair = float(np.sum(vL)) * rho ** 2
    log_z = -0.5 * lam * torus.n_sites * (a_self + a_pair)
    return gamma[torus.diff_table], log_z


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 3, 5])
def test_closed_forms_match_duration_sums(d, L):
    rng = np.random.default_rng(10 * d + L)
    torus = Torus(d, L)
    entries = {}
    for _ in range(4):
        entries[tuple(int(c) for c in rng.integers(0, 3, d))] = \
            float(rng.uniform(0.0, 0.05))
    vL = periodize_potential(PotentialSpec(d, 0, entries), L)
    nu, kappa, lam = rng.uniform(0.2, 0.6), rng.uniform(0.8, 1.5), 0.1
    K_ref, log_z_ref = _duration_sums(torus, nu, kappa, vL, lam)
    K = gamma1_first_order(torus, nu, kappa, vL, lam)
    assert np.max(np.abs(K - K_ref)) <= 1e-12 * np.max(np.abs(K_ref))
    assert log_z_first_order(torus, nu, kappa, vL, lam) == pytest.approx(
        log_z_ref, rel=1e-12)
