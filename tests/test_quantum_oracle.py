'''Exact grand-canonical oracle: the plane-wave sectors against the
product-basis and site-basis references of fock_reference, free-gas closed
forms, hard-core closed forms, the free tail bound, sizing, Feynman-Kac.'''

import math

import numpy as np
import pytest
import scipy.linalg

from fock_reference import (
    BoseBlocks, ManyBodySpace, free_tail_bound_sum, grand_sums, hamiltonian)
from loopgas.interactions import InteractionParams
from loopgas.lattice import PotentialSpec, Torus, periodize_potential
from loopgas.quantum_oracle import (
    FockBlocks, _free_tail_bound, feynman_kac_check, gibbs_potential,
    grand_partition, kernel_norm, oracle_size, reduced_density_matrix,
    sector_dims)


def _params(v0=0.5, lam=0.2, nu=0.5, L=3, R=0, mode="generic", **kw):
    torus = Torus(1, L)
    vL = periodize_potential(PotentialSpec(1, R, {(0,): v0} if v0 else {}), L)
    return InteractionParams(torus=torus, vL=vL, nu=nu, lam=lam, mode=mode,
                             R=R, kappa=kw.pop("kappa", 1.0), **kw)


def _spectrum(blocks, n):
    '''Block n's eigenvalues, gathered over its sectors.'''
    return np.sort(np.concatenate([np.linalg.eigvalsh(H)
                                   for _, _, H in blocks.sectors(n)]))


def test_product_vs_occupation_traces():
    # tr(e^{-H_n} P+) on the product basis equals the trace over the sectors
    params = _params()
    blocks = FockBlocks(params)
    for n in (1, 2, 3):
        space = ManyBodySpace(params.torus, n)
        H = hamiltonian(space, params)
        E = scipy.linalg.expm(-H)
        tr = float(np.trace(E @ space.symmetrizer()))
        assert tr == pytest.approx(np.exp(-_spectrum(blocks, n)).sum(),
                                   abs=1e-10)


def test_product_vs_occupation_traces_hard_core():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 1, {}), 3)
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, lam=1.0,
                               mode="generic", R=1, kappa=1.0)
    blocks = FockBlocks(params)
    for n in (1, 2, 3):
        space = ManyBodySpace(torus, n, hard_core=True)
        H = hamiltonian(space, params)
        E = scipy.linalg.expm(-H)
        tr = float(np.trace(E @ space.symmetrizer()))
        assert tr == pytest.approx(np.exp(-_spectrum(blocks, n)).sum(),
                                   abs=1e-10)


def _random_params(d, L, R, seed, nu=0.5, lam=0.4, kappa=1.0):
    '''A random even potential on the steps 0, e_1, e_d and (1, .., 1).'''
    rng = np.random.default_rng(seed)
    entries = {}
    for site in [(0,) * d, (1,) + (0,) * (d - 1), (0,) * (d - 1) + (1,),
                 (1,) * d]:
        if R == 0 or any(site):
            entries[site] = float(rng.uniform(0.0, 1.0))
    vL = periodize_potential(PotentialSpec(d, R, entries), L)
    return InteractionParams(torus=Torus(d, L), vL=vL, nu=nu, lam=lam,
                             mode="generic", R=R, kappa=kappa)


_GRID = [(d, L, R) for d in (1, 2) for L in (2, 3) for R in (0, 1)]


@pytest.mark.parametrize("d,L,R", _GRID)
def test_sector_spectra_match_site_blocks(d, L, R):
    params = _random_params(d, L, R, seed=10 * d + L + R)
    blocks, site = FockBlocks(params), BoseBlocks(params)
    for n in range(1, 4 if d * L < 6 else 3):
        if n <= params.torus.n_sites or R == 0:
            assert np.max(np.abs(_spectrum(blocks, n) - np.linalg.eigvalsh(
                site.hamiltonian_block(n)))) < 1e-12 * max(1.0, n * n)


@pytest.mark.parametrize("d,L,R", _GRID)
def test_sector_traces_match_product_basis(d, L, R):
    # tr(e^{-H_n} P+) over Lambda^n, for n <= 4 with |Lambda|^n <= 729
    params = _random_params(d, L, R, seed=20 * d + L + R)
    blocks = FockBlocks(params)
    m = params.torus.n_sites
    for n in range(1, min(m, 4) + 1 if R else 5):
        if m ** n > 729:
            break
        space = ManyBodySpace(params.torus, n, hard_core=R == 1)
        E = scipy.linalg.expm(-hamiltonian(space, params))
        tr = float(np.trace(E @ space.symmetrizer()))
        assert np.exp(-_spectrum(blocks, n)).sum() == pytest.approx(
            tr, rel=1e-12)


# kappa and tol keep the site-basis reference's blocks small
_KAPPA_TOL = {(1, 2): (1.0, 1e-10), (1, 3): (3.0, 1e-10),
              (2, 2): (4.0, 1e-8), (2, 3): (12.0, 1e-6)}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("d,L,R", _GRID)
def test_oracle_matches_site_basis_reference(d, L, R, p):
    kappa, tol = _KAPPA_TOL[(d, L)]
    params = _random_params(d, L, R, seed=100 * p + 10 * d + L + R,
                            kappa=kappa)
    res = grand_partition(params, tol=tol)
    K = reduced_density_matrix(params, p, tol=tol)
    Xi, K_ref = grand_sums(params, p, kappa, res.n_max)
    assert res.Xi == pytest.approx(Xi, rel=1e-12)
    assert np.max(np.abs(K - K_ref)) <= 1e-12 * np.max(np.abs(K_ref))


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


def test_kernel_norm_projection_pairs():
    # p = 2: row-major site pairs, both sites of x and of y kept
    torus = Torus(1, 4)
    K = np.arange(256, dtype=float).reshape(16, 16) - 100.0
    idx = [4 * a + b for a in (0, 1, 3) for b in (0, 1, 3)]
    sub = K[np.ix_(idx, idx)]
    assert kernel_norm(K, torus, 2, 3) == pytest.approx(
        float(np.max(np.sum(np.abs(sub), axis=1))))


def test_feynman_kac():
    torus = Torus(1, 4)
    rng = np.random.default_rng(21)
    V = rng.uniform(0.0, 1.0, torus.n_sites)
    report = feynman_kac_check(torus, V, t=1.0, n_samples=40000, seed=23)
    assert report["pass"], f"max z = {report['max_z']:.2f}"


def test_reduced_density_matrix_diagonalizes_each_block_once(monkeypatch):
    # each sector is built once and diagonalized once, and the kernel is
    # a pure function of its arguments
    params = _params(L=2, kappa=2.0)
    K_ref = reduced_density_matrix(params, 1)
    built, eig_calls = [], []
    build = FockBlocks.sectors
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting_build(self, n):
        for sector, lo, H in build(self, n):
            built.append((n, sector))
            yield sector, lo, H

    def counting(eig):
        def counted(a, *args, **kwargs):
            eig_calls.append(len(a))
            return eig(a, *args, **kwargs)
        return counted

    monkeypatch.setattr(FockBlocks, "sectors", counting_build)
    monkeypatch.setattr(np.linalg, "eigh", counting(eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(eigvalsh))
    K = reduced_density_matrix(params, 1)
    assert len(built) == len(set(built)) == len(eig_calls) > 0
    assert np.array_equal(K, K_ref)


def test_metadata_counts_sectors_and_diagonalizations():
    params = _params()
    res = grand_partition(params)
    dims = sector_dims(params.torus, False, res.n_max)
    # on L = 3 every block n >= 1 has all three momentum sectors
    assert res.metadata["diagonalizations"] == 3 * res.n_max
    assert res.metadata["max_sector_dim"] == int(dims.max())
    hard = grand_partition(_params(v0=0.0, R=1))
    assert hard.metadata["diagonalizations"] == hard.n_max == 3
    assert hard.metadata["max_sector_dim"] == 3


@pytest.mark.parametrize("d,L,R", _GRID)
def test_sector_dims_count_the_basis(d, L, R):
    params = _random_params(d, L, R, seed=0)
    blocks = FockBlocks(params)
    n_max = params.torus.n_sites if R else 5
    dims = sector_dims(params.torus, R == 1, n_max)
    for n in range(1, n_max + 1):
        built = sorted(len(H) for _, _, H in blocks.sectors(n))
        assert built == sorted(dims[n][dims[n] > 0])


def test_dim_cap_raises_before_building_a_larger_sector(monkeypatch):
    built = []
    build = FockBlocks.sectors

    def recording_build(self, n):
        for sector, lo, H in build(self, n):
            built.append(len(H))
            yield sector, lo, H

    monkeypatch.setattr(FockBlocks, "sectors", recording_build)
    # L = 3: sectors of dimension 1, 2 and then 4 (plane waves); blocks of
    # dimension 3 (hard core)
    for R in (0, 1):
        with pytest.raises(MemoryError, match="exceeds dim_cap=2"):
            grand_partition(_params(v0=0.0 if R else 0.5, R=R), dim_cap=2)
    assert built and max(built) <= 2


def test_oracle_size_bounds_the_grand_sum():
    params = _params()
    size = oracle_size(params, tol=1e-10)
    res = grand_partition(params, tol=1e-10)
    assert res.n_max <= size["n_max"]
    assert res.metadata["max_sector_dim"] <= size["max_sector_dim"]


def test_free_tail_bound_closed_form():
    # the negative-binomial tail against the term-by-term sum
    for mu in (0.05, 0.3, 0.61, 0.9, 0.97):
        for m in (1, 2, 3, 9, 16):
            for n0 in (1, 2, 7, 40, 150):
                weights = np.full(m, mu)
                closed = _free_tail_bound(weights, n0)
                assert closed == pytest.approx(
                    free_tail_bound_sum(weights, n0), rel=1e-12, abs=0.0)
