'''Classical field oracle: covariance convention, Wick moments,
single-site quadrature, Gaussian identity checks.'''

import math

import numpy as np
import pytest
from scipy import integrate

from loopgas.field_oracle import (
    GaussianField, correlation_inequality_check, estimate_Zcl,
    estimate_gamma_cl, hubbard_stratonovich_check, quadrature_single_site,
    wick_moment)
from loopgas.lattice import PotentialSpec, Torus, periodize_potential
from site_reference import covariance


def _setup(L=3, kappa=1.0, v0=0.5):
    torus = Torus(1, L)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): v0}), L)
    return GaussianField(torus, kappa), vL


def test_covariance_convention():
    # E[conj(phi(x)) phi(y)] = C_{x,y}, E[phi phi] = 0
    gf, _ = _setup()
    rng = np.random.default_rng(0)
    fields = gf.sample(rng, 200000)
    emp = np.einsum("ax,ay->xy", np.conj(fields), fields) / len(fields)
    assert np.max(np.abs(emp - gf.covariance)) < 0.02
    pseudo = np.einsum("ax,ay->xy", fields, fields) / len(fields)
    assert np.max(np.abs(pseudo)) < 0.02


@pytest.mark.parametrize("d,L", [(d, L) for d in (1, 2, 3)
                                 for L in (1, 2, 3, 4)])
def test_fourier_covariance_and_factor_on_degenerate_tori(d, L):
    # L = 1 gives Delta = 0, L = 2 doubled edge weights
    torus = Torus(d, L)
    for kappa in (0.3, 1.0):
        gf = GaussianField(torus, kappa)
        C = covariance(torus, kappa)
        scale = np.max(np.abs(C))
        assert np.max(np.abs(gf.covariance - C)) <= 1e-12 * scale
        assert np.max(np.abs(gf.factor @ gf.factor - C)) <= 1e-12 * scale
        # the sampler's covariance is factor^T factor
        assert np.max(np.abs(gf.factor - gf.factor.T)) <= 1e-15 * scale


@pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan")])
def test_gaussian_field_rejects_bad_kappa(kappa):
    with pytest.raises(ValueError):
        GaussianField(Torus(1, 3), kappa)


def test_wick_moment_permanent():
    C = np.array([[2.0, 0.5], [0.5, 1.0]])
    # p = 2 permanent: C00 C11 + C01 C10
    assert wick_moment(C, [0, 1], [0, 1]) == pytest.approx(2.0 + 0.25)
    assert wick_moment(C, [0], [1]) == pytest.approx(0.5)


def test_mc_moments_match_wick():
    gf, vL = _setup()
    for xs, ys in [([0], [0]), ([0], [1]), ([0, 1], [0, 1])]:
        est = estimate_gamma_cl(gf, 0.0 * vL, len(xs), xs, ys, 40000,
                                seed=3, workers=2, lam=0.0)
        target = wick_moment(gf.covariance, xs, ys)
        assert abs(est.mean - target) <= 3.0 * est.std_error


def test_single_site_quadrature_vs_closed_form():
    # w = 0: moments of s ~ Exp(kappa): Z = 1, Gamma_p = p!/kappa^p
    for kappa in (1.0, 2.0):
        Z, g1 = quadrature_single_site(kappa, 0.0, 1)
        assert Z == pytest.approx(1.0, abs=1e-10)
        assert g1 == pytest.approx(1.0 / kappa, abs=1e-10)
        _, g2 = quadrature_single_site(kappa, 0.0, 2)
        assert g2 == pytest.approx(2.0 / kappa ** 2, abs=1e-10)


def test_single_site_quadrature_vs_adaptive_quadrature():
    # the panelled Gauss-Legendre rule against scipy's quad on [0, inf);
    # they agree to 9e-16, where one 400-point rule would be off by 6e-13
    def moment(kappa, w, q):
        val, _ = integrate.quad(
            lambda s: kappa * s ** q * np.exp(-kappa * s - 0.5 * w * s * s),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
        return val

    for kappa in (0.05, 0.2, 1.0, 5.0):
        for w in (0.0, 1e-4, 1e-2, 1.0, 100.0):
            Z = moment(kappa, w, 0)
            for p in (1, 2, 3):
                Z_gl, g_gl = quadrature_single_site(kappa, w, p)
                assert Z_gl == pytest.approx(Z, rel=1e-13, abs=0.0)
                assert g_gl == pytest.approx(moment(kappa, w, p) / Z,
                                             rel=1e-13, abs=0.0)


def test_single_site_quadrature_vs_field_mc():
    torus = Torus(1, 1)
    gf = GaussianField(torus, 1.0)
    vL = np.array([1.0])
    Z, g1 = quadrature_single_site(1.0, 1.0, 1)
    est_z = estimate_Zcl(gf, vL, 100000, seed=5, workers=2)
    assert abs(est_z.mean - Z) <= 3.0 * est_z.std_error
    est_g = estimate_gamma_cl(gf, vL, 1, [0], [0], 100000, seed=7, workers=2)
    assert abs(est_g.mean - g1) <= 3.5 * est_g.std_error


def test_zcl_below_one_for_repulsive_potential():
    gf, vL = _setup()
    est = estimate_Zcl(gf, vL, 20000, seed=9, workers=2)
    assert est.mean + 3 * est.std_error < 1.0


def test_batched_mc_deterministic():
    gf, vL = _setup()
    a = estimate_Zcl(gf, vL, 5000, seed=11, workers=3)
    b = estimate_Zcl(gf, vL, 5000, seed=11, workers=3)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_hubbard_stratonovich():
    torus = Torus(1, 5)
    v_pt = np.zeros(5)
    v_pt[0] = 1.0
    v_pt[1] = v_pt[4] = 0.3   # positive type: 1 + 0.6 cos >= 0
    f = np.array([0.5, -0.2, 0.0, 0.1, 0.3])
    report = hubbard_stratonovich_check(v_pt, torus, f, 40000, seed=13,
                                        workers=2)
    assert report["pass"]
    assert report["exact_identity_gap"] <= 1e-12


def test_hubbard_stratonovich_rejects_non_positive_type():
    torus = Torus(1, 5)
    v_pt = np.zeros(5)
    v_pt[1] = v_pt[4] = 1.0
    with pytest.raises(ValueError):
        hubbard_stratonovich_check(v_pt, torus, np.zeros(5), 100, seed=0)


def test_correlation_inequality():
    gf, vL = _setup()
    report = correlation_inequality_check(gf, vL, [0.0, 0.25, 0.5, 1.0],
                                          1, [0], [0], 20000, seed=17,
                                          workers=2)
    assert report["pass"]
    # lam = 0 recovers the Wick value itself
    row0 = report["rows"][0]
    assert abs(row0["value"] - report["wick_value"]) <= 3.0 * row0["se"]


@pytest.mark.parametrize("site", [-1, 3])
def test_gamma_cl_rejects_off_torus_sites(site):
    gf, vL = _setup()
    with pytest.raises(ValueError):
        estimate_gamma_cl(gf, vL, 1, [site], [0], 10, seed=1)


# Recorded with the reducer that merged per-worker moments in worker
# order; the joined rows reproduce them to 1e-12.
FIELD_GOLDEN = {
    "Zcl/w1": [0.6766988248323753, 0.005742382034251327],
    "gamma_cl/w1": [0.11815585960930779, 0.006978949371864679,
                    0.6777716396430069, 0.005767523678526622],
    "gamma_cl_unnormalized/w1": [0.04690014433833277, 0.002649621151151244],
    "hs/w1": [0.7996249927896254, 0.005492114575813989],
    "Zcl/w3": [0.6730297271944756, 0.005781482030418459],
    "gamma_cl/w3": [0.11622776238895546, 0.006694539848707786,
                    0.681896519778054, 0.005758741474439847],
    "gamma_cl_unnormalized/w3": [0.0451457670913256, 0.0026915824538968577],
    "hs/w3": [0.8042677385693782, 0.005555116259165003],
}


@pytest.mark.parametrize("workers", [1, 3])
def test_field_estimators_reproduce_recorded_values(workers):
    gf, vL = _setup()
    z = estimate_Zcl(gf, vL, 2000, seed=21, workers=workers)
    g = estimate_gamma_cl(gf, vL, 1, [0], [1], 2000, seed=22,
                          workers=workers)
    u = estimate_gamma_cl(gf, vL, 2, [0, 1], [1, 2], 2000, seed=23,
                          workers=workers, normalized=False)
    v_pt = np.array([1.0, 0.3, 0.0, 0.0, 0.3])
    hs = hubbard_stratonovich_check(v_pt, Torus(1, 5),
                                    np.array([0.5, -0.2, 0.0, 0.1, 0.3]),
                                    2000, seed=24, workers=workers)
    got = {"Zcl": [z.mean, z.std_error],
           "gamma_cl": [g.mean, g.std_error, g.metadata["denominator"],
                        g.metadata["denominator_se"]],
           "gamma_cl_unnormalized": [u.mean, u.std_error],
           "hs": [hs["mc"], hs["mc_se"]]}
    for key, values in got.items():
        ref = FIELD_GOLDEN[f"{key}/w{workers}"]
        assert values == pytest.approx(ref, rel=1e-12, abs=0.0), key
