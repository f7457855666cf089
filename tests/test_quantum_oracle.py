'''Exact grand-canonical oracle: the plane-wave sectors against the
product-basis and site-basis references of fock_reference, free-gas closed
forms, hard-core closed forms, the free tail bound, sizing, Feynman-Kac.'''

import math

import numpy as np
import pytest
import scipy.linalg
from scipy import special

from fock_reference import (
    BoseBlocks, ManyBodySpace, free_tail_bound_sum, grand_sums, hamiltonian,
    newton_free_traces, sector_grand_sum)
from loopgas import quantum_oracle
from loopgas.interactions import InteractionParams
from loopgas.lattice import (
    PotentialSpec, Torus, periodize_potential)
from loopgas.quantum_oracle import (
    FockBlocks, _free_tail_bound, _free_traces,
    _interaction_floor, feynman_kac_check, grand_partition, grand_sum,
    oracle_size, reduced_density_matrix, sector_dims)
from site_reference import free_kernel


def gibbs_potential(params):
    '''Specific relative Gibbs potential g = log(Z) / |Lambda|.'''
    return float(np.log(grand_partition(params).Z_rel)
                 / params.torus.n_sites)


def kernel_norm(K, torus, p, L0):
    '''sup_x sum_y |K(x, y)| after projecting all p indices of x and y to
    the centered sub-box of side L0.'''
    box = torus.centered_box(L0)
    keep = box
    for _ in range(p - 1):          # row-major index of the p-tuple
        keep = np.add.outer(keep * torus.n_sites, box).ravel()
    sub = np.abs(np.asarray(K)[np.ix_(keep, keep)])
    return float(np.max(np.sum(sub, axis=1)))


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


def _first_of_each_pair(torus):
    '''The momentum sectors a grand sum diagonalizes: each K = -K and the
    first of each mirror pair K, -K.'''
    return torus.index_of(-torus.coords) >= np.arange(torus.n_sites)


def _bound_params(d, L, positive, seed, lam=8.0):
    '''A random even potential on the steps 0, e_1 and e_d, of positive
    type or with a negative vhat entry, whose bound c' (the interaction
    floor over lam/2) is at least 0.25.'''
    rng = np.random.default_rng(seed)
    torus = Torus(d, L)
    while True:
        entries = {(0,) * d: 1.0}
        for site in [(1,) + (0,) * (d - 1), (0,) * (d - 1) + (1,)]:
            entries[site] = float(rng.uniform(0.0, 1.2))
        params = InteractionParams(
            torus=torus, vL=periodize_potential(PotentialSpec(d, 0, entries),
                                                L),
            nu=0.5, lam=lam, mode="generic", kappa=_KAPPA_TOL[(d, L)][0])
        if ((torus.fourier(params.vL).min() >= 0.0) == positive
                and _interaction_floor(params) >= 0.125 * lam):
            return params


@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("d,L", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_interaction_bound_skips_only_blocks_below_an_ulp(d, L, p, positive,
                                                          monkeypatch):
    '''The blocks past n_diag leave Xi, n_max and the free tail where the
    full pass (c = 0) puts them and move no Gamma_p entry by 2^-53, here
    below 1e-15 of the largest; every block's term is at most e^{-c n^2}
    times the free one, also where vhat has a negative entry.'''
    tol = 1e-10
    params = _bound_params(d, L, positive, seed=10 * d + L + p)
    res, K = grand_sum(params, p, tol=tol)
    assert res.metadata["n_diag"] < res.n_max
    # one sector of each mirror pair K, -K is diagonalized
    dims = sector_dims(params.torus, False, res.metadata["n_diag"])[
        :, _first_of_each_pair(params.torus)]
    assert res.metadata["diagonalizations"] == np.count_nonzero(dims[1:])
    # the chooser counts the same blocks without building one
    size = oracle_size(params, tol=tol, p=p)
    assert size["n_diag"] == res.metadata["n_diag"]
    assert size["max_sector_dim"] == res.metadata["max_sector_dim"]
    assert size["eigh_dim3"] == np.sum(dims[1:] ** 3)
    c = _interaction_floor(params)
    monkeypatch.setattr(quantum_oracle, "_interaction_floor",
                        lambda params: 0.0)
    full, K_full = grand_sum(params, p, tol=tol)
    assert full.metadata["n_diag"] == full.n_max == res.n_max
    assert full.tail_bound == res.tail_bound and full.Xi0 == res.Xi0
    assert full.Xi == res.Xi and full.Z_rel == res.Z_rel
    if p:
        assert np.max(np.abs(K - K_full)) <= min(
            2.0 ** -53, 1e-15 * np.max(np.abs(K_full)))
    kappa = params.kappa
    weights = params.torus.free_weights(params.nu, kappa)
    free = _free_traces(weights, res.n_max)
    blocks = FockBlocks(params)
    for n in range(1, res.n_max + 1):
        t = np.exp(-kappa * params.nu * n - _spectrum(blocks, n)).sum()
        assert t <= np.exp(-c * n * n) * free[n] * (1.0 + 1e-12)


def test_free_grand_partition_closed_form():
    # v = 0: Xi = prod_modes (1 - e^{-nu(lambda_xi + kappa)})^{-1}
    params = _params(v0=0.0, lam=0.0)
    res = grand_partition(params)
    rates = 1.0 - np.cos(2 * np.pi * np.arange(3) / 3)
    closed = float(np.prod(1.0 / (1.0 - np.exp(-0.5 * (rates + 1.0)))))
    assert res.Xi == pytest.approx(closed, rel=1e-9)
    assert res.Z_rel == pytest.approx(1.0, abs=1e-10)


def test_free_gamma_closed_form():
    params = _params(v0=0.0, lam=0.0)
    K = reduced_density_matrix(params, p=1)
    assert np.max(np.abs(K - free_kernel(params.torus, 0.5, 1.0))) < 1e-8


@pytest.mark.parametrize("kappa", [0.0, -0.1])
def test_free_gas_rejects_bad_kappa(kappa):
    params = _params()
    for fn in (grand_partition, oracle_size):
        with pytest.raises(ValueError):
            fn(params, kappa=kappa)
    with pytest.raises(ValueError):
        reduced_density_matrix(params, 1, kappa=kappa)


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
    with pytest.raises(ValueError, match="t must be > 0"):
        feynman_kac_check(torus, V, t=0.0, n_samples=8, seed=23)


@pytest.mark.parametrize("n_samples", [0, 3, 4, 7])
def test_feynman_kac_needs_two_walks_per_start(n_samples):
    '''Fewer than 2 walks from a start site leave no standard error: the
    check refuses them instead of dividing by zero (3 walks on 4 sites)
    or failing correct code with an SE of 0 (4 walks).  8 walks, 2 per
    site, run and pass: an end site no walk reaches has an SE of 0, and
    counts at the estimator's resolution, one walk's weight over 2.'''
    torus = Torus(1, 4)
    with pytest.raises(ValueError, match="at least 2"):
        feynman_kac_check(torus, np.zeros(4), 1.0, n_samples, seed=0)
    report = feynman_kac_check(torus, np.zeros(4), 1.0, 8, seed=0)
    assert report["n_per_start"] == 2 and np.isfinite(report["max_z"])
    assert np.any(report["std"] == 0.0) and report["pass"]


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
    n_diag = res.metadata["n_diag"]
    dims = sector_dims(params.torus, False, n_diag)
    # on L = 3 every block n >= 1 has three momentum sectors, of which
    # sectors 1 and 2 are a mirror pair diagonalized once; the interaction
    # bound leaves the blocks past n_diag undiagonalized
    assert n_diag < res.n_max
    assert res.metadata["diagonalizations"] == 2 * n_diag
    assert res.metadata["max_sector_dim"] == int(dims.max())
    hard = grand_partition(_params(v0=0.0, R=1))
    assert hard.metadata["diagonalizations"] == hard.n_max == 3
    assert hard.metadata["n_diag"] == 3
    assert hard.metadata["max_sector_dim"] == 3


def test_hard_core_keys_past_64_sites_are_refused():
    '''Hard-core states are keyed by m-bit patterns: on L = 64 block 1
    builds, on L = 65 the keys would collide and the oracle refuses with
    MemoryError instead of failing inside the build.'''
    params = _params(v0=0.0, R=1, L=64)
    assert [len(H) for _, _, H in FockBlocks(params).sectors(1)] == [64]
    params = _params(v0=0.0, R=1, L=65)
    with pytest.raises(MemoryError, match="overflow int64"):
        list(FockBlocks(params).sectors(1))
    with pytest.raises(MemoryError, match="overflow int64"):
        grand_partition(params)


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
    monkeypatch.setattr(quantum_oracle, "MAX_SECTOR_DIM", 2)
    # L = 3: sectors of dimension 1, 2 and then 4 (plane waves); blocks of
    # dimension 3 (hard core)
    for R in (0, 1):
        with pytest.raises(MemoryError, match="exceeds MAX_SECTOR_DIM=2"):
            grand_partition(_params(v0=0.0 if R else 0.5, R=R))
    assert built and max(built) <= 2


def test_oracle_size_bounds_the_grand_sum():
    params = _params()
    size = oracle_size(params, tol=1e-10)
    res = grand_partition(params, tol=1e-10)
    assert res.n_max <= size["n_max"]
    assert res.metadata["max_sector_dim"] <= size["max_sector_dim"]


def test_free_tail_bound_closed_form():
    # the negative-binomial tail against the term-by-term sum, for one n0
    # and for an array of them as grand_sum passes it; betainc, a second
    # oracle, over every n0 <= 1000 wherever it holds its digits (it loses
    # them near underflow)
    n0s = np.array([0, 1, 2, 7, 40, 150, 400, 1000])
    every = np.arange(1001)
    for mu in (0.05, 0.3, 0.61, 0.9, 0.97, 0.99):
        for m in (1, 2, 3, 9, 16, 27, 64):
            weights = np.full(m, mu)
            sums = [free_tail_bound_sum(weights, n0, horizon=10 ** 5)
                    for n0 in n0s]
            assert _free_tail_bound(weights, n0s[3]) == pytest.approx(
                sums[3], rel=1e-12, abs=0.0)
            assert _free_tail_bound(weights, n0s) == pytest.approx(
                sums, rel=1e-12, abs=0.0)
            ref = special.betainc(every, m, mu) / (1.0 - mu) ** m
            keep = ref > 1e-250
            assert _free_tail_bound(weights, every)[keep] == pytest.approx(
                ref[keep], rel=1e-12, abs=0.0)


# kappa nu on each torus: keeps the per-block reference's blocks small
_KAPPA_NU = {(1, 2): 0.5, (1, 3): 1.0, (1, 4): 3.0, (2, 2): 3.0, (2, 3): 8.0,
             (2, 4): 16.0}


@pytest.mark.parametrize("nu", [0.5, 0.1])
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("d,L,R", [(d, L, R) for d in (1, 2)
                                   for L in (2, 3, 4) for R in (0, 1)])
def test_runs_and_mirror_pairs_match_the_per_block_reference(d, L, R, p, nu,
                                                             monkeypatch):
    '''A grand sum builds its blocks in runs and diagonalizes one sector of
    each mirror pair K, -K; the per-block reference builds and
    diagonalizes every sector of every block, and sums the free traces by
    Newton's recurrence.  Also with run budgets that give single-block
    runs and runs of a few blocks past the first.'''
    params = _random_params(d, L, R, seed=1000 * p + 100 * d + 10 * L + R,
                            nu=nu, kappa=_KAPPA_NU[(d, L)] / nu)
    res, G = grand_sum(params, p)
    Xi, Xi0, G_ref = sector_grand_sum(params, p, params.kappa,
                                      res.metadata["n_diag"], res.n_max)
    for cells in (quantum_oracle._RUN_CELLS, 1, 40 * params.torus.n_sites):
        monkeypatch.setattr(quantum_oracle, "_RUN_CELLS", cells)
        res, G = grand_sum(params, p)
        assert res.Xi == pytest.approx(Xi, rel=1e-12, abs=0.0)
        assert res.Xi0 == pytest.approx(Xi0, rel=1e-12, abs=0.0)
        assert res.Z_rel == pytest.approx(Xi / Xi0, rel=1e-12, abs=0.0)
        if p:
            assert np.max(np.abs(G - G_ref)) <= 1e-12 * np.max(np.abs(G_ref))
        else:
            assert G is None and G_ref is None


@pytest.mark.parametrize("d,L", [(1, 3), (1, 4), (1, 5), (2, 3)])
def test_mirror_sectors_are_isospectral(d, L):
    # for an even v, sector -K is the reflection k -> -k of sector K
    params = _random_params(d, L, 0, seed=7 * d + L)
    torus, blocks = params.torus, FockBlocks(params)
    assert np.array_equal(blocks.mirror, torus.index_of(-torus.coords))
    pairs = 0
    for n in range(1, 4):
        spectra = {K: np.linalg.eigvalsh(H) for K, _, H in blocks.sectors(n)}
        assert sorted(spectra) == list(range(torus.n_sites))
        for K, w in spectra.items():
            pairs += blocks.mirror[K] != K
            assert np.max(np.abs(w - spectra[blocks.mirror[K]])) <= (
                1e-12 * max(1.0, np.max(np.abs(w))))
    assert pairs > 0


@pytest.mark.parametrize("m", [1, 2, 3, 9, 16, 64])
def test_free_traces_match_newton(m):
    # the product recurrence against the Newton recurrence it replaced
    rng = np.random.default_rng(m)
    for mu in (0.05, 0.3, 0.6, 0.9, 0.99):
        weights = mu * rng.uniform(0.1, 1.0, m)
        weights[0] = mu
        h = np.array(_free_traces(weights, 250))
        newton = np.array(newton_free_traces(weights, 250))
        keep = newton > 1e-280
        assert keep[:100].all()
        assert np.max(np.abs(h[keep] / newton[keep] - 1.0)) < 1e-14


@pytest.mark.parametrize("R", [0, 1])
def test_runs_stay_within_their_cell_budget_on_nine_modes(R, monkeypatch):
    '''d = 2, L = 3 (9 modes): every run of blocks a pass enumerates holds
    at most _RUN_CELLS cells (states x Hamiltonian terms) or a single
    block, and none holds a block past the last one the pass can reach,
    min(n_diag, n_max) of oracle_size (here the pass stops a block
    earlier, its Xi > 1 lowering the free-tail stop).'''
    runs = []
    compositions = quantum_oracle._compositions

    def recording(n0, n1, m, hard_core):
        occ = compositions(n0, n1, m, hard_core)
        runs.append((n0, n1, len(occ)))
        return occ

    monkeypatch.setattr(quantum_oracle, "_compositions", recording)
    params = _random_params(2, 3, R, seed=5, kappa=8.0)
    terms = len(FockBlocks(params).moves[2])
    for cells in (quantum_oracle._RUN_CELLS, 4000):
        monkeypatch.setattr(quantum_oracle, "_RUN_CELLS", cells)
        for p in (0, 1, 2):
            runs.clear()
            res = grand_sum(params, p, tol=1e-6)[0]
            size = oracle_size(params, tol=1e-6, p=p)
            last = min(size["n_diag"], size["n_max"])
            assert 4 <= res.metadata["n_diag"] <= last
            top = max(n1 for _, n1, _ in runs)
            assert res.metadata["n_diag"] <= top <= last
            for n0, n1, states in runs:
                assert states * terms <= cells or n0 == n1
            # every block is enumerated once, in runs from the vacuum up
            assert [n0 for n0, _, _ in runs] == [0] + [
                n1 + 1 for _, n1, _ in runs[:-1]]
            assert len(runs) > 2 if cells == 4000 else len(runs) == 1
