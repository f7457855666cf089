'''Infinite-mass classical quantities: occupation sums, closed forms,
cross-check particle sums.'''

import itertools
import math

import numpy as np
import pytest

from loopgas.largemass import (
    LmParams, _energy_table, _occupation_fields, _site_cap, gamma_lm,
    gamma_lm_matrix, occupation_sum, z_lm)
from loopgas.lattice import PotentialSpec, Torus

from largemass_reference import z_lm_particle_sum


def gibbs_potential_lm(params):
    '''g^lm = log(relative Z^lm) / |Lambda|.'''
    return math.log(z_lm(params)["relative"]) / params.torus.n_sites


def _hard(L=3, kappa0=1.0):
    return LmParams(torus=Torus(1, L), potential=PotentialSpec(1, 1, {}),
                    kappa0=kappa0)


def _soft(L=3, kappa0=2.0, v0=0.3):
    return LmParams(torus=Torus(1, L), potential=PotentialSpec(1, 0, {(0,): v0}),
                    kappa0=kappa0)


def test_kappa0_whose_weight_rounds_to_one_is_refused():
    '''At kappa0 = 1e-300 the weight e^{-kappa0} rounds to 1, so the
    occupation sums would divide by 1 - a = 0: LmParams refuses it.'''
    with pytest.raises(ValueError, match="weight e\\^\\{-kappa0\\} is 1"):
        _soft(kappa0=1e-300)
    assert _soft(kappa0=1e-15).a < 1.0


def test_hard_core_closed_forms():
    # pure hard core, no finite part: sites independent with occupation
    # in {0, 1}: unnormalized Z = (1 + a)^L, relative Z = ((1+a)(1-a))^L
    params = _hard()
    a = math.exp(-1.0)
    res = z_lm(params)
    assert res["unnormalized"] == pytest.approx((1 + a) ** 3, abs=1e-12)
    assert res["relative"] == pytest.approx((1 - a * a) ** 3, abs=1e-12)
    # Gamma_1(x, x) = a/(1 + a), off-diagonal exactly 0
    K = gamma_lm_matrix(params)
    for x in range(3):
        assert K[x, x] == pytest.approx(a / (1 + a), abs=1e-10)
    assert gamma_lm(params, 1, [0], [1]) == 0.0
    assert gibbs_potential_lm(params) == pytest.approx(
        math.log((1 - a * a) ** 3) / 3, abs=1e-12)


def test_soft_core_single_site_closed_form():
    # L = 1, v = v0 delta: Z_un = sum_q a^q e^{-v0 q^2 / 2}
    params = LmParams(torus=Torus(1, 1),
                      potential=PotentialSpec(1, 0, {(0,): 0.4}), kappa0=1.0)
    a = math.exp(-1.0)
    direct = sum(a ** q * math.exp(-0.2 * q * q) for q in range(200))
    res = z_lm(params)
    assert res["unnormalized"] == pytest.approx(direct, abs=1e-10)
    assert res["tail_bound"] < 1e-9


def test_occupation_vs_particle_sum_soft():
    params = _soft()
    occ = z_lm(params)
    part = z_lm_particle_sum(params, k_max=5, n_max=5)
    tol = part["k_tail"] + part["n_tail"] + occ["tail_bound"] + 1e-9
    assert abs(occ["unnormalized"] - part["unnormalized"]) < tol


def test_occupation_vs_particle_sum_hard():
    params = _hard()
    occ = z_lm(params)
    # at most |Lambda| = 3 hard-core particles fit
    part = z_lm_particle_sum(params, k_max=60, n_max=3)
    assert occ["unnormalized"] == pytest.approx(part["unnormalized"],
                                                abs=1e-10)


def test_particle_sum_budget_guard():
    params = LmParams(torus=Torus(1, 3),
                      potential=PotentialSpec(1, 0, {(0,): 0.3}),
                      kappa0=1.0)
    with pytest.raises(ValueError):
        z_lm_particle_sum(params, k_max=60, n_max=20)


def _shifted_sum(params, Q):
    '''Z^lm(k, x) numerator: sum over occupation fields q up to the
    library's per-site cap of a^{|q|} e^{-E(q + Q)}.'''
    cap, _ = _site_cap(params)
    n = params.torus.n_sites
    vmat = _energy_table(params)
    total = 0.0
    for q in itertools.product(range(cap + 1), repeat=n):
        t = np.array(q) + Q
        if params.R == 1 and np.any(t > 1):
            continue
        total += params.a ** sum(q) * math.exp(-0.5 * t @ vmat @ t)
    return total


def _direct_gamma(params, xs, n_perms, k_top):
    # by definition, for y a permutation of x:
    # Gamma_p(x, y) = |perms| sum_k a^{|k|} Z(add k_i at x_i) / Z
    denom = _shifted_sum(params, 0)
    total = 0.0
    for ks in itertools.product(range(1, k_top + 1), repeat=len(xs)):
        Q = np.zeros(params.torus.n_sites, dtype=np.int64)
        for k, x in zip(ks, xs):
            Q[x] += k
        total += params.a ** sum(ks) * _shifted_sum(params, Q)
    return n_perms * total / denom


def test_gamma_lm_soft_direct_sum():
    params = _soft()
    # a^61 = e^{-122}: the sum over k is exhausted well before 60
    direct = _direct_gamma(params, [0], 1, 60)
    assert gamma_lm(params, 1, [0], [0]) == pytest.approx(direct, abs=1e-12)
    assert gamma_lm_matrix(params)[0, 0] == pytest.approx(direct, abs=1e-12)
    # no hopping at infinite mass
    assert gamma_lm(params, 1, [0], [2]) == 0.0


@pytest.mark.parametrize("xs,n_perms", [([0, 1], 1), ([1, 1], 2)])
def test_gamma_lm_p2_direct_sum(xs, n_perms):
    params = _soft(L=2)
    direct = _direct_gamma(params, xs, n_perms, 20)
    assert gamma_lm(params, 2, xs, xs[::-1]) == pytest.approx(direct,
                                                               abs=1e-12)


def test_gamma_lm_hard_core_direct_sum():
    params = LmParams(torus=Torus(1, 3),
                      potential=PotentialSpec(1, 1, {(1,): 0.4}), kappa0=0.5)
    for xs, ys in (([1], [1]), ([0, 2], [2, 0])):
        direct = _direct_gamma(params, xs, 1, 1)
        assert gamma_lm(params, len(xs), xs, ys) == pytest.approx(
            direct, abs=1e-12)
    # pure hard core: independent sites, Gamma_2 = (a/(1+a))^2
    a = math.exp(-1.0)
    assert gamma_lm(_hard(), 2, [0, 2], [0, 2]) == pytest.approx(
        (a / (1 + a)) ** 2, abs=1e-12)


@pytest.mark.parametrize("site", [-1, 3])
def test_gamma_lm_rejects_off_torus_sites(site):
    with pytest.raises(ValueError):
        gamma_lm(_soft(), 1, [site], [site])


def test_gamma_lm_p2_permutation_structure():
    params = _hard()
    # y must be a permutation of x; both permutations of distinct sites
    val_id = gamma_lm(params, 2, [0, 1], [0, 1])
    val_swap = gamma_lm(params, 2, [0, 1], [1, 0])
    assert val_id == pytest.approx(val_swap)
    assert gamma_lm(params, 2, [0, 1], [0, 2]) == 0.0
    # hard core kills doubly-occupied requests
    assert gamma_lm(params, 2, [0, 0], [0, 0]) == 0.0


def _enumerated_gamma_lm(params, p, xs, ys):
    '''gamma_lm with its permutation count enumerated: the pi with
    y_pi(i) = x_i for all i, times the occupation moment.'''
    perms = sum(all(ys[pi[i]] == xs[i] for i in range(p))
                for pi in itertools.permutations(range(p)))
    if not perms:
        return 0.0
    grid, weights, _ = _occupation_fields(params)
    sites, mult = np.unique(xs, return_counts=True)
    binom = np.array([[math.comb(q, k) for k in mult]
                      for q in range(grid.max() + 1)], dtype=np.int64)
    moment = binom[grid[:, sites], np.arange(len(sites))].prod(axis=1)
    return perms * float(weights @ moment) / float(np.sum(weights))


@pytest.mark.parametrize("params", [_soft(), _hard(),
                                    LmParams(torus=Torus(1, 3),
                                             potential=PotentialSpec(
                                                 1, 1, {(1,): 0.4}),
                                             kappa0=0.5)])
def test_gamma_lm_counts_the_permutations_it_used_to_enumerate(params):
    '''prod_s m_s! against the enumerated count on random site lists,
    p <= 4, half of them with y a permutation of x.'''
    rng = np.random.default_rng(3)
    for _ in range(40):
        p = int(rng.integers(1, 5))
        xs = rng.integers(3, size=p).tolist()
        ys = (rng.permutation(xs) if rng.random() < 0.5
              else rng.integers(3, size=p)).tolist()
        assert gamma_lm(params, p, xs, ys) == _enumerated_gamma_lm(
            params, p, xs, ys)


def test_params_validation():
    with pytest.raises(ValueError):
        LmParams(torus=Torus(1, 3), potential=PotentialSpec(1, 1, {}),
                 kappa0=0.0)
    with pytest.raises(ValueError):
        LmParams(torus=Torus(1, 3), potential=PotentialSpec(2, 0, {}),
                 kappa0=1.0)


def test_occupation_sum_budget():
    # kappa0 = 0.01 on L = 2 would enumerate about 11 million fields
    with pytest.raises(MemoryError):
        occupation_sum(_soft(L=2, kappa0=0.01))


@pytest.mark.parametrize("params", [_soft(), _soft(L=2, kappa0=0.5), _hard(),
                                    _hard(L=5)],
                         ids=["soft-L3", "soft-L2", "hard-L3", "hard-L5"])
def test_occupation_grid_is_in_product_order(params):
    # the fields come in itertools.product order, the last site fastest
    grid, weights, _ = _occupation_fields(params)
    cap = _site_cap(params)[0]
    assert grid.dtype == np.int64
    assert np.array_equal(grid, list(itertools.product(
        range(cap + 1), repeat=params.torus.n_sites)))
    assert len(weights) == len(grid)
