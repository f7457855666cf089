'''Torus geometry, heat kernels, and potential handling.'''

import numpy as np
import pytest

from loopgas.lattice import (
    MAX_RING_SITES, MAX_SITES, PotentialSpec, Torus, _reach,
    check_positive_type, heat_kernel_images, laplacian_matrix,
    periodize_potential)

import heat_kernel_reference
from heat_kernel_reference import heat_kernel_infinite


def test_torus_indexing_roundtrip():
    for d, L in [(1, 3), (2, 4), (3, 2)]:
        torus = Torus(d, L)
        assert torus.n_sites == L ** d
        idx = torus.index_of(torus.coords)
        assert np.array_equal(idx, np.arange(torus.n_sites))


def test_torus_refuses_sites_past_the_budget():
    with pytest.raises(ValueError, match="MAX_SITES"):
        Torus(1, MAX_SITES + 1)
    with pytest.raises(ValueError, match="MAX_SITES"):
        Torus(40, 3)
    assert Torus(1, MAX_SITES).n_sites == MAX_SITES


def test_torus_centered():
    torus = Torus(1, 5)
    assert list(torus.centered(np.array([[0], [1], [2], [3], [4]])).ravel()) == \
        [0, 1, 2, -2, -1]


@pytest.mark.parametrize("d,L,L0", [(1, 5, 3), (1, 4, 4), (2, 4, 3),
                                    (2, 5, 2), (3, 3, 2)])
def test_centered_box_in_offset_order(d, L, L0):
    '''The box sites are the centered offsets {-(L0//2), ...}^d in
    lexicographic order, the same list on every torus that holds them.'''
    torus = Torus(d, L)
    box = torus.centered_box(L0)
    offsets = torus.centered(torus.coords[box])
    lo, hi = -(L0 // 2), L0 - L0 // 2 - 1
    assert len(box) == L0 ** d and len(set(box.tolist())) == L0 ** d
    assert offsets.min() == lo and offsets.max() == hi
    assert [tuple(o) for o in offsets.tolist()] == sorted(
        tuple(o) for o in offsets.tolist())
    big = Torus(d, L + 3)
    assert np.array_equal(big.centered(big.coords[big.centered_box(L0)]),
                          offsets)
    for bad in (0, L + 1):
        with pytest.raises(ValueError, match="L0"):
            torus.centered_box(bad)


def test_diff_table_definition():
    torus = Torus(2, 3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = rng.integers(torus.n_sites, size=2)
        expected = torus.index_of(torus.coords[i] - torus.coords[j])
        assert torus.diff_table[i, j] == expected


def test_shared_tables_are_read_only():
    '''rates and diff_table are built once per torus and shared by every
    user, so none may write them.'''
    torus = Torus(2, 3)
    assert torus.rates is torus.rates
    assert torus.diff_table is torus.diff_table
    for table in (torus.rates, torus.diff_table):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            table += 1


def test_laplacian_rows_sum_to_zero():
    for d, L in [(1, 4), (2, 3), (1, 2), (1, 1)]:
        torus = Torus(d, L)
        mat = laplacian_matrix(torus)
        assert np.allclose(mat.sum(axis=1), 0.0, atol=1e-14)
        assert np.allclose(mat, mat.T)
    # L = 1: no off-site neighbors, Delta = 0
    assert np.allclose(laplacian_matrix(Torus(2, 1)), 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_laplacian_matrix_is_the_step_sum(d, L):
    '''The Laplacian built from its symbol equals the sum over the 2d
    signed steps, -2d on the diagonal and +1 for each step's site, bit
    for bit, the signs of its zeros included.'''
    torus = Torus(d, L)
    n = torus.n_sites
    ref = np.zeros((n, n))
    for i in range(n):
        ref[i, i] -= 2 * d
        for e in torus.steps:
            ref[i, torus.index_of(torus.coords[i] + e)] += 1.0
    mat = laplacian_matrix(torus)
    assert mat.dtype == ref.dtype
    assert np.array_equal(mat, ref)
    assert np.array_equal(np.signbit(mat), np.signbit(ref))


def test_heat_kernel_range_normalization_semigroup():
    for d, L in [(1, 3), (2, 5)]:
        torus = Torus(d, L)
        for t in (0.1, 1.0, 3.0):
            tab = torus.heat_kernel(t)
            assert np.all(tab >= -1e-14) and np.all(tab <= 1.0 + 1e-14)
            assert abs(tab.sum() - 1.0) < 1e-12
            # semigroup: psi^{t} * psi^{t} = psi^{2t}
            conv = tab[torus.diff_table] @ tab
            assert np.max(np.abs(conv - torus.heat_kernel(2 * t))) < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_heat_kernel_ratio_matches_table(d, L):
    '''psi^t(s) / psi^t(0) from the 1D factors equals the ratio of the
    d-dimensional table at every shift s, for short and long t, whether s
    is given in [0, L) or centered; it is never negative.'''
    torus = Torus(d, L)
    n = torus.n_sites
    for t in (1e-3, 0.1, 1.0, 7.0, 50.0):
        table = torus.heat_kernel(t)
        for shift in (torus.coords, torus.centered(torus.coords)):
            ratio = torus.heat_kernel_ratio(np.full(n, t), shift)
            assert np.all(ratio >= 0.0)
            assert np.max(np.abs(ratio - table / table[0])) < 1e-12


def test_heat_kernel_matches_matrix_exponential():
    torus = Torus(1, 4)
    t = 0.7
    import scipy.linalg
    E = scipy.linalg.expm(0.5 * t * laplacian_matrix(torus))
    assert np.max(np.abs(torus.multiplier(np.exp(-t * torus.rates)) - E)) \
        < 1e-12


_DEGENERATE = [(d, L) for d in (1, 2, 3) for L in (1, 2, 3, 4)]


@pytest.mark.parametrize("d,L", _DEGENERATE)
def test_transform_pair_conventions(d, L):
    torus = Torus(d, L)
    rng = np.random.default_rng(10 * d + L)
    f = rng.normal(size=torus.n_sites)
    f = f + f[torus.diff_table[0]]          # even: f(x) = f(-x)
    # site x <-> flat position x, mode xi = 2 pi c / L <-> flat position c
    direct = np.cos(2 * np.pi * (torus.coords @ torus.coords.T) / L) @ f
    assert np.max(np.abs(torus.fourier(f) - direct)) < 1e-12
    assert np.max(np.abs(torus.inverse_fourier(torus.fourier(f)) - f)) < 1e-12
    M = torus.multiplier(torus.fourier(f))
    for x in range(torus.n_sites):
        for y in range(torus.n_sites):
            assert M[x, y] == pytest.approx(
                f[torus.index_of(torus.coords[x] - torus.coords[y])],
                abs=1e-12)


@pytest.mark.parametrize("nu,kappa", [(0.5, 0.0), (0.0, 1.0),
                                      (-0.5, -1.0), (0.5, None),
                                      (0.5, float("nan")), (1.0, 1e-20)])
def test_free_weights_reject_bad_kappa_nu(nu, kappa):
    # kappa * nu <= 0, undefined kappa, and a weight that rounds to 1
    with pytest.raises(ValueError):
        Torus(1, 3).free_weights(nu, kappa)


def test_infinite_kernel_ring_vs_bessel_and_quadrature():
    # the ring form against two independent routes, t <= 200, |x_j| <= 20
    line = [[x] for x in range(-20, 21)]
    plane = [[x, y] for x in (-20, -3, 0, 1, 7, 20) for y in (0, 2, -11, 20)]
    for d, xs in ((1, line), (2, plane)):
        for t in (0.0, 0.01, 0.1, 1.0, 3.0, 10.0, 50.0, 200.0):
            for x in xs:
                ring = heat_kernel_infinite(d, t, x)
                for oracle in (heat_kernel_reference.bessel,
                               heat_kernel_reference.quadrature):
                    assert abs(ring - oracle(d, t, x)) < 1e-14


def test_infinite_kernel_at_large_time():
    # psi^{inf,t}(0) = e^{-t} I_0(t) = (2 pi t)^{-1/2} (1 + 1/(8t) + O(t^-2)),
    # where scipy's scaled Bessel function returns NaN; 1e-12 relative
    # fails the ring summed from k = 0 (1.1e-11) or with 1 - cos (1e-7)
    t = 1e10
    expected = (2.0 * np.pi * t) ** -0.5 * (1.0 + 1.0 / (8.0 * t))
    assert heat_kernel_infinite(1, t, [0]) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


def test_infinite_kernel_past_the_ring_budget_raises():
    with pytest.raises(ValueError, match="MAX_RING_SITES"):
        heat_kernel_infinite(1, 1e12, [0])
    with pytest.raises(ValueError, match="MAX_RING_SITES"):
        heat_kernel_infinite(2, 1.0, [0, MAX_RING_SITES])
    with pytest.raises(ValueError, match="MAX_RING_SITES"):
        heat_kernel_images(1e10, 5)


@pytest.mark.parametrize("t", [0.0, 0.1, 3.0, 200.0])
@pytest.mark.parametrize("L", [1, 2, 5])
def test_image_sums_match_the_ring_kernel_image_by_image(t, L):
    '''heat_kernel_images against heat_kernel_infinite summed image by
    image over the same radius, and against the periodic kernel.'''
    reach = _reach(t)
    images = heat_kernel_images(t, L)
    for r in range(L):
        direct = sum(heat_kernel_infinite(1, t, [y])
                     for y in range(-reach, reach + 1) if y % L == r)
        assert abs(images[r] - direct) < 1e-14
    assert np.abs(images - Torus(1, L).heat_kernel(t)).max() < 1e-14


def test_periodization_identity():
    # psi^{L,t}(x) = sum_k psi^{inf,t}(x + Lk), truncated shifts
    for d, L in [(1, 3), (2, 5)]:
        torus = Torus(d, L)
        for t in (0.1, 1.0, 3.0):
            tab = torus.heat_kernel(t)
            import itertools
            for site in range(torus.n_sites):
                x = torus.coords[site]
                total = 0.0
                for shift in itertools.product(range(-5, 6), repeat=d):
                    total += heat_kernel_reference.bessel(
                        d, t, x + L * np.array(shift))
                assert abs(tab[site] - total) < 1e-8


def test_potential_spec_symmetrized_and_validated():
    spec = PotentialSpec(d=1, R=0, entries={(1,): 0.25, (0,): 0.5})
    assert spec.entries[(-1,)] == 0.25
    assert spec.l1_norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PotentialSpec(d=1, R=0, entries={(0,): -1.0})
    with pytest.raises(ValueError):
        PotentialSpec(d=1, R=1, entries={(0,): 0.5})
    with pytest.raises(ValueError):
        PotentialSpec(d=1, R=2, entries={})


def test_potential_from_json_roundtrip():
    doc = {"d": 2, "R": 1, "entries": [[[1, 0], 0.3], [[0, 1], 0.2]]}
    spec = PotentialSpec.from_json(doc)
    assert spec.entries[(-1, 0)] == 0.3
    with pytest.raises(ValueError):
        PotentialSpec.from_json({"d": 1, "R": 0,
                                 "entries": [[[0], 1.0], [[0], 2.0]]})


def test_periodize_potential_wraps_and_marks_core():
    spec = PotentialSpec(d=1, R=0, entries={(2,): 0.5})
    vL = periodize_potential(spec, 3)
    # sites 2 and -2 = 1 mod 3 both receive mass
    assert vL[1] == 0.5 and vL[2] == 0.5 and vL[0] == 0.0
    hard = PotentialSpec(d=1, R=1, entries={(1,): 0.1})
    vh = periodize_potential(hard, 3)
    assert np.isinf(vh[0]) and vh[1] == 0.1


def test_positive_type_check():
    torus = Torus(1, 5)
    good = np.zeros(5)
    good[0] = 1.0          # delta is of positive type
    ok, _ = check_positive_type(good, torus)
    assert ok
    bad = np.zeros(5)
    bad[1] = bad[4] = 1.0  # pure cosine takes negative Fourier values
    ok, mn = check_positive_type(bad, torus)
    assert not ok and mn < 0


def test_check_sites():
    torus = Torus(2, 2)
    assert torus.check_sites(2, np.array([0, 3]), [3, 0]) == [[0, 3], [3, 0]]
    assert torus.check_sites(1, 2, [1]) == [[2], [1]]
    # the config schema's integers include 2.0
    assert torus.check_sites(1, [2.0], np.array([1.0])) == [[2], [1]]
    # a non-integer site is refused, not truncated to the integer below it
    for xs, ys in (([0], [0, 1]), ([4], [0]), ([0], [-1]), ([0.7], [2]),
                   ([0], [2.9]), ([float("nan")], [0]),
                   ([float("inf")], [0])):
        with pytest.raises(ValueError, match="must list p = 1 sites"):
            torus.check_sites(1, xs, ys)
