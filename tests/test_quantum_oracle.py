'''Exact grand-canonical oracle: representation cross-checks, free-gas
closed forms, hard-core closed forms, Feynman-Kac.'''

import math

import numpy as np
import pytest
import scipy.linalg

from loopgas.interactions import InteractionParams
from loopgas.lattice import PotentialSpec, Torus, periodize_potential
from loopgas.quantum_oracle import (
    BoseBlocks, ManyBodySpace, feynman_kac_check, gibbs_potential,
    grand_partition, hamiltonian, kernel_norm, reduced_density_matrix)


def _params(v0=0.5, lam=0.2, nu=0.5, L=3, R=0, mode="generic", **kw):
    torus = Torus(1, L)
    vL = periodize_potential(PotentialSpec(1, R, {(0,): v0} if v0 else {}), L)
    return InteractionParams(torus=torus, vL=vL, nu=nu, lam=lam, mode=mode,
                             R=R, kappa=kw.pop("kappa", 1.0), **kw)


def test_product_vs_occupation_traces():
    # tr(e^{-H_n} P+) on the product basis equals the symmetric-block trace
    params = _params()
    blocks = BoseBlocks(params)
    for n in (1, 2, 3):
        space = ManyBodySpace(params.torus, n)
        H = hamiltonian(space, params)
        E = scipy.linalg.expm(-H)
        tr = float(np.trace(E @ space.symmetrizer()))
        assert tr == pytest.approx(blocks.trace_exp(n), abs=1e-10)


def test_product_vs_occupation_traces_hard_core():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 1, {}), 3)
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, lam=1.0,
                               mode="generic", R=1, kappa=1.0)
    blocks = BoseBlocks(params)
    for n in (1, 2, 3):
        space = ManyBodySpace(torus, n, hard_core=True)
        H = hamiltonian(space, params)
        E = scipy.linalg.expm(-H)
        tr = float(np.trace(E @ space.symmetrizer()))
        assert tr == pytest.approx(blocks.trace_exp(n), abs=1e-10)


def test_free_grand_partition_closed_form():
    # v = 0: Xi = prod_modes (1 - e^{-nu(lambda_xi + kappa)})^{-1}
    params = _params(v0=0.0, lam=0.0)
    res = grand_partition(params)
    rates = 1.0 - np.cos(2 * np.pi * np.arange(3) / 3)
    closed = float(np.prod(1.0 / (1.0 - np.exp(-0.5 * (rates + 1.0)))))
    assert res.Xi == pytest.approx(closed, rel=1e-9)
    assert res.Z_rel == pytest.approx(1.0, abs=1e-10)


def test_free_gamma_closed_form():
    from loopgas.loop_mc import free_gas_gamma1
    params = _params(v0=0.0, lam=0.0)
    K = reduced_density_matrix(params, p=1)
    assert np.max(np.abs(K - free_gas_gamma1(params, params.torus))) < 1e-8


def test_interacting_z_decreases():
    free = grand_partition(_params(v0=0.0, lam=0.0))
    inter = grand_partition(_params())
    assert inter.Z_rel < free.Z_rel == pytest.approx(1.0, abs=1e-10)
    assert 0.7 < inter.Z_rel < 1.0


def test_gamma_symmetries():
    params = _params()
    K = reduced_density_matrix(params, p=1)
    assert np.allclose(K, K.T, atol=1e-10)
    # translation invariance on the torus
    torus = params.torus
    for x in range(3):
        for y in range(3):
            assert K[x, y] == pytest.approx(K[0, torus.diff_table[y, x]],
                                            abs=1e-10)


def test_gamma2_free_permanent_factorization():
    # free gas: Gamma_2(x, y) = sum_pi prod_i Gamma_1(x_i, y_pi(i))
    params = _params(v0=0.0, lam=0.0)
    K1 = reduced_density_matrix(params, p=1)
    K2 = reduced_density_matrix(params, p=2)
    m = 3
    for i, xs in enumerate([(a, b) for a in range(m) for b in range(m)]):
        for j, ys in enumerate([(a, b) for a in range(m) for b in range(m)]):
            perm = (K1[xs[0], ys[0]] * K1[xs[1], ys[1]]
                    + K1[xs[0], ys[1]] * K1[xs[1], ys[0]])
            assert K2[i, j] == pytest.approx(perm, abs=1e-8)


def test_hard_core_l3_closed_forms():
    '''Fully connected hard core on L = 3 at nu where hopping matters:
    compare against the 3-site product-basis sum.'''
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 1, {}), 3)
    params = InteractionParams(torus=torus, vL=vL, nu=1.0, lam=1.0,
                               mode="generic", R=1, kappa=1.0)
    res = grand_partition(params)
    # n can be at most 3; direct product-basis sums
    direct = 1.0
    for n in (1, 2, 3):
        space = ManyBodySpace(torus, n, hard_core=True)
        E = scipy.linalg.expm(-hamiltonian(space, params))
        direct += math.exp(-1.0 * n) * float(
            np.trace(E @ space.symmetrizer()))
    assert res.Xi == pytest.approx(direct, rel=1e-10)


def test_gibbs_potential_definition():
    params = _params()
    res = grand_partition(params)
    assert gibbs_potential(params) == pytest.approx(
        math.log(res.Z_rel) / 3.0, abs=1e-12)


def test_kernel_norm_projection():
    torus = Torus(1, 5)
    K = np.arange(25, dtype=float).reshape(5, 5)
    # L0 = 5 keeps everything: plain sup row sum
    assert kernel_norm(K, torus, 1, 5) == pytest.approx(
        float(np.max(np.sum(np.abs(K), axis=1))))
    # L0 = 3 keeps centered sites {0, 1, 4}
    idx = [0, 1, 4]
    sub = K[np.ix_(idx, idx)]
    assert kernel_norm(K, torus, 1, 3) == pytest.approx(
        float(np.max(np.sum(np.abs(sub), axis=1))))


def test_feynman_kac():
    torus = Torus(1, 4)
    rng = np.random.default_rng(21)
    V = rng.uniform(0.0, 1.0, torus.n_sites)
    report = feynman_kac_check(torus, V, t=1.0, n_samples=40000, seed=23)
    assert report["pass"], f"max z = {report['max_z']:.2f}"


def test_reduced_density_matrix_diagonalizes_each_block_once(monkeypatch):
    params = _params(L=2, kappa=2.0)
    K_ref = reduced_density_matrix(params, 1)
    built, eig_calls = [], []
    build = BoseBlocks.hamiltonian_block
    eigh = np.linalg.eigh

    def counting_build(self, n):
        built.append(n)
        return build(self, n)

    def counting_eigh(a, *args, **kwargs):
        eig_calls.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(BoseBlocks, "hamiltonian_block", counting_build)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    K = reduced_density_matrix(params, 1)
    assert len(built) == len(set(built)) == len(eig_calls) > 0
    assert np.array_equal(K, K_ref)
