'''Acceptance suite: one test per criterion, each printing a single
pass/fail line.  All tolerances are stated inline; randomized checks use
frozen seeds with >= 3 sigma margins.'''

import itertools
import math

import numpy as np
import pytest

from loopgas.cluster import log_Z_via_expansion, tree_bound_check, tree_count
from loopgas.field_oracle import (
    GaussianField, correlation_inequality_check, estimate_Zcl,
    estimate_gamma_cl, hubbard_stratonovich_check, quadrature_single_site,
    wick_moment)
from loopgas.interactions import InteractionParams
from loopgas.largemass import LmParams, gamma_lm_matrix
from loopgas.lattice import PotentialSpec, Torus, periodize_potential
from loopgas.loop_mc import (
    EnsembleSpec, estimate_gamma_p, estimate_rel_partition)
from loopgas.paths import LoopIntensity
from loopgas.perturbative import (
    gamma1_first_order, gibbs_potential_first_order)
from loopgas.quantum_oracle import (
    feynman_kac_check, grand_partition, reduced_density_matrix)

import cluster_reference
import heat_kernel_reference
from heat_kernel_reference import heat_kernel_infinite
from largemass_reference import z_lm_particle_sum


def _verdict(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def _grid_spec(torus, vL, nu, kappa, lam=None, mode="generic"):
    params = InteractionParams(torus=torus, vL=vL, nu=nu, lam=lam,
                               mode=mode, kappa=kappa)
    intensity = LoopIntensity(torus, "ginibre", kappa, nu=nu)
    return EnsembleSpec(torus, params, intensity, "ginibre")


def _degree_sequence(graph):
    '''The degree of each vertex of the graph, in vertex order.'''
    deg = [0] * graph.n
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    return tuple(deg)


def test_criterion_01_heat_kernel_suite():
    ok = True
    for d in (1, 2):
        for L in (3, 5):
            torus = Torus(d, L)
            radius = math.ceil(15 / L)
            for t in (0.1, 1.0, 3.0):
                tab = torus.heat_kernel(t)
                ok &= bool(np.all(tab >= -1e-14) and np.all(tab <= 1 + 1e-14))
                ok &= abs(tab.sum() - 1.0) < 1e-12
                conv = tab[torus.diff_table] @ tab
                ok &= float(np.max(np.abs(
                    conv - torus.heat_kernel(2 * t)))) < 1e-10
                for site in range(torus.n_sites):
                    x = torus.centered(torus.coords[site])
                    total = 0.0
                    for shift in itertools.product(
                            range(-radius, radius + 1), repeat=d):
                        total += heat_kernel_reference.bessel(
                            d, t, x + L * np.array(shift))
                    ok &= abs(tab[site] - total) < 1e-8
            # the ring form agrees with the Bessel and quadrature routes
            for x in ([0] * d, [1] + [0] * (d - 1)):
                ring = heat_kernel_infinite(d, 1.0, x)
                for oracle in (heat_kernel_reference.bessel,
                               heat_kernel_reference.quadrature):
                    ok &= abs(ring - oracle(d, 1.0, x)) < 1e-14
    assert _verdict(1, "heat-kernel suite", ok)


def test_criterion_02_ginibre_representation_identity():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5}), 3)
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, lam=0.2,
                               mode="generic", kappa=1.0)
    z_exact = grand_partition(params).Z_rel
    g_exact = reduced_density_matrix(params, p=1)[0, 0]
    spec = _grid_spec(torus, vL, 0.5, 1.0, lam=0.2)
    z_est = estimate_rel_partition(spec, 30000, seed=202, workers=4)
    g_est = estimate_gamma_p(spec, 1, [0], [0], 60000, seed=202, workers=4)
    ok = (abs(z_est.mean - z_exact) <= 3 * z_est.std_error
          and z_est.std_error <= 0.01 * abs(z_est.mean)
          and abs(g_est.mean - g_exact) <= 3 * g_est.std_error
          and g_est.std_error <= 0.01 * abs(g_est.mean))
    assert _verdict(2, "grid-ensemble representation identity", ok), (
        f"Z {z_est.mean:.5f}±{z_est.std_error:.5f} vs {z_exact:.5f}; "
        f"Gamma {g_est.mean:.5f}±{g_est.std_error:.5f} vs {g_exact:.5f}")


def test_criterion_03_symanzik_representation_identity():
    '''Two honest stages at the two natural precision scales: statistical
    agreement at a budget whose noise covers the O(eps) truncation, and
    strict drift shrinkage at a budget that resolves the eps ordering.'''
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5}), 3)
    gf = GaussianField(torus, 1.0)
    params = InteractionParams(torus=torus, vL=vL, nu=1.0, lam=1.0,
                               mode="generic", kappa=1.0)
    eps_list = (0.1, 0.05, 0.02)
    specs = {}
    for eps in eps_list:
        intensity = LoopIntensity(torus, "symanzik_eps", 1.0, eps=eps)
        specs[eps] = EnsembleSpec(torus, params, intensity, "symanzik_eps")
    # stage 1: pairwise 3 sigma agreement of all four estimates.  It reads
    # the plain estimates, whose noise is the one meant to cover the O(eps)
    # truncation.  At 150 samples the control step falls back to them
    # anyway; where it does not, its smaller SE resolves the truncation.
    vals = []
    for i, eps in enumerate(eps_list):
        est = estimate_rel_partition(specs[eps], 150, seed=5000 + i,
                                     workers=2)
        vals.append((est.metadata["plain_mean"], est.metadata["plain_se"]))
    field = estimate_Zcl(gf, vL, 400, seed=6000, workers=2)
    vals.append((field.mean, field.std_error))
    agree = True
    for i in range(4):
        for j in range(i + 1, 4):
            z = abs(vals[i][0] - vals[j][0]) / math.hypot(vals[i][1],
                                                          vals[j][1])
            agree &= z <= 3.0
    # stage 2: |Z^eps - Z^cl| strictly shrinking along the eps sequence
    field_hi = estimate_Zcl(gf, vL, 400000, seed=99, workers=4)
    drift = []
    for i, eps in enumerate(eps_list):
        est = estimate_rel_partition(specs[eps], 20000, seed=7000 + i,
                                     workers=4)
        drift.append(abs(est.mean - field_hi.mean))
    shrinking = drift[0] > drift[1] > drift[2]
    ok = agree and shrinking
    assert _verdict(3, "continuum-ensemble representation identity", ok), (
        f"agree={agree} drift={['%.4f' % dv for dv in drift]}")


def test_criterion_04_mean_field_convergence():
    torus = Torus(1, 1)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 1.0}), 1)
    z_cl, g_cl = quadrature_single_site(1.0, 1.0, 1)
    z_errs, g_errs = [], []
    for nu in (0.2, 0.1, 0.05, 0.025):
        params = InteractionParams(torus=torus, vL=vL, nu=nu,
                                   mode="meanfield", kappa=1.0)
        n_cap = int(40.0 / nu) + 100
        res = grand_partition(params, n_cap=n_cap)
        K = reduced_density_matrix(params, p=1, n_cap=n_cap)
        z_errs.append(abs(res.Z_rel - z_cl))
        g_errs.append(abs(nu * K[0, 0] - g_cl))
    ok = True
    for errs in (z_errs, g_errs):
        for a, b in zip(errs, errs[1:]):
            ok &= b < a and 1.6 <= a / b <= 2.4
    assert _verdict(4, "mean-field convergence", ok), (z_errs, g_errs)


def test_criterion_05_large_mass_convergence():
    torus = Torus(1, 3)
    ok = True
    for pot in (PotentialSpec(1, 1, {}), PotentialSpec(1, 0, {(0,): 0.3})):
        vL = periodize_potential(pot, 3)
        lm = LmParams(torus=torus, potential=pot, kappa0=1.0, tol=1e-12)
        K_lm = gamma_lm_matrix(lm)
        gaps = {}
        for nu in (0.2, 0.1, 0.05):
            params = InteractionParams(torus=torus, vL=vL, nu=nu,
                                       mode="largemass", R=pot.R, kappa0=1.0)
            gaps[nu] = np.abs(
                reduced_density_matrix(params, 1, params.kappa) - K_lm)
        for a, b in zip((0.2, 0.1), (0.1, 0.05)):
            ok &= bool(np.all(gaps[b] < gaps[a]))
        off = ~np.eye(3, dtype=bool)
        ok &= bool(np.all(gaps[0.05][off] < 10.0 * gaps[0.2][off]))
    # hard-core diagonal closed form against the brute-force particle sum
    hard = LmParams(torus=torus, potential=PotentialSpec(1, 1, {}),
                    kappa0=1.0)
    a = math.exp(-1.0)
    K_hard = gamma_lm_matrix(hard)
    ok &= bool(np.all(np.abs(np.diag(K_hard) - a / (1 + a)) < 1e-10))
    brute = z_lm_particle_sum(hard, k_max=60, n_max=3)["unnormalized"]
    ok &= abs(brute - (1 + a) ** 3) < 1e-10
    assert _verdict(5, "large-mass convergence", ok)


def test_criterion_06_cluster_expansion():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.05}), 3)
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, mode="meanfield",
                               kappa=1.5)
    oracle = math.log(grand_partition(params).Z_rel)
    spec = _grid_spec(torus, vL, 0.5, 1.5, mode="meanfield")
    report = log_Z_via_expansion(spec, n_max=3, n_samples=8000, seed=606,
                                 workers=4)
    slack = 3 * report["log_Z_se"] + abs(report["remainder"])
    series_ok = abs(report["log_Z"] - oracle) <= slack
    # the tree bound, and Penrose's resummation (ursell) against the
    # connected-graph sum within 1e-12 relative, on random instances
    rng = np.random.default_rng(66)
    bound_ok = True
    for _ in range(10000):
        n = int(rng.integers(2, 6))
        V = rng.random((n, n)) * 3.0
        V = np.triu(V, 1)
        V = V + V.T
        zeta = np.exp(-0.5 * V) - 1.0
        np.fill_diagonal(zeta, 0.0)
        rep = tree_bound_check(zeta, tol=1e-12)
        phi = cluster_reference.ursell(zeta)
        bound_ok &= (rep["bound_ok"]
                     and abs(rep["ursell"] - phi) <= 1e-12 * abs(phi))
        if not bound_ok:
            break
    # Kruskal preimage bracket, exhaustive for n <= 5, three edge orders;
    # in the lex order it is the Penrose table's direct M(T)
    bracket_ok = True
    for n in range(2, 6):
        by_order = [cluster_reference.kruskal_brackets(n, order)
                    for order in cluster_reference.EDGE_ORDERS]
        bracket_ok &= all(ok for brackets in by_order
                          for _, ok in brackets.values())
        table, _ = cluster_reference.penrose_brackets(n)
        bracket_ok &= table == {t: x for t, (x, _) in by_order[0].items()}
    # degree-constrained tree counts vs enumeration, n <= 7
    count_ok = True
    for n in range(2, 8):
        seen = {}
        for t in cluster_reference.trees(n):
            seen[_degree_sequence(t)] = seen.get(_degree_sequence(t), 0) + 1
        count_ok &= all(tree_count(ds) == c for ds, c in seen.items())
    ok = series_ok and bound_ok and bracket_ok and count_ok
    assert _verdict(6, "cluster expansion", ok), (
        f"series={series_ok} bound={bound_ok} bracket={bracket_ok} "
        f"counts={count_ok}")


def test_criterion_07_gaussian_identities():
    torus = Torus(1, 5)
    v_pt = np.zeros(5)
    v_pt[0], v_pt[1], v_pt[4] = 1.0, 0.3, 0.3
    f = np.array([0.5, -0.2, 0.0, 0.1, 0.3])
    hs = hubbard_stratonovich_check(v_pt, torus, f, 40000, seed=707,
                                    workers=2)
    hs_ok = hs["pass"] and hs["exact_identity_gap"] <= 1e-12
    # complex Wick moments p <= 3
    torus3 = Torus(1, 3)
    gf = GaussianField(torus3, 1.0)
    vL = np.zeros(3)
    wick_ok = True
    for xs, ys in [([0], [1]), ([0, 1], [0, 1]), ([0, 1, 2], [0, 1, 2])]:
        est = estimate_gamma_cl(gf, vL, len(xs), xs, ys, 60000, seed=717,
                                workers=2, lam=0.0)
        target = wick_moment(gf.covariance, xs, ys)
        wick_ok &= abs(est.mean - target) <= 3 * est.std_error
    vq = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5}), 3)
    corr = correlation_inequality_check(gf, vq, [0.0, 0.25, 0.5, 1.0],
                                        1, [0], [0], 30000, seed=727,
                                        workers=2)
    ok = hs_ok and wick_ok and corr["pass"]
    assert _verdict(7, "Gaussian identities", ok), (
        f"hs={hs_ok} wick={wick_ok} corr={corr['pass']}")


def test_criterion_08_feynman_kac():
    torus = Torus(1, 4)
    rng = np.random.default_rng(808)
    V = rng.uniform(0.0, 1.0, torus.n_sites)
    report = feynman_kac_check(torus, V, t=1.0, n_samples=80000, seed=818)
    assert _verdict(8, "Feynman-Kac", report["pass"]), (
        f"max z = {report['max_z']:.2f}")


def test_criterion_09_infinite_volume_stability():
    kappa, L0 = 1.0, 4
    pot = PotentialSpec(1, 0, {(0,): 0.03, (1,): 0.01})
    assert pot.l1_norm == pytest.approx(0.05)
    ok = True
    for nu in (0.25, 0.125):
        lam = nu * nu
        blocks, gs = {}, {}
        for L in (4, 6, 8):
            torus = Torus(1, L)
            vL = periodize_potential(pot, L)
            G = gamma1_first_order(torus, nu, kappa, vL, lam)
            offs = list(range(-(L0 // 2), L0 - L0 // 2))
            idx = [torus.index_of(np.array([o % L])) for o in offs]
            blocks[L] = G[np.ix_(idx, idx)]
            gs[L] = gibbs_potential_first_order(torus, nu, kappa, vL, lam)
        d1 = (float(np.abs(blocks[4] - blocks[6]).sum(axis=1).max()),
              abs(gs[4] - gs[6]))
        d2 = (float(np.abs(blocks[6] - blocks[8]).sum(axis=1).max()),
              abs(gs[6] - gs[8]))
        ok &= d2[0] < d1[0] and d2[1] < d1[1]
    assert _verdict(9, "infinite-volume stability", ok)


def test_criterion_10_determinism():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5}), 3)
    spec = _grid_spec(torus, vL, 0.5, 1.0, lam=0.2)
    ok = True
    # grid-ensemble estimators
    a = estimate_rel_partition(spec, 500, seed=10, workers=3)
    b = estimate_rel_partition(spec, 500, seed=10, workers=3)
    ok &= a.mean == b.mean and a.std_error == b.std_error
    a = estimate_gamma_p(spec, 1, [0], [0], 500, seed=10, workers=3)
    b = estimate_gamma_p(spec, 1, [0], [0], 500, seed=10, workers=3)
    ok &= a.mean == b.mean and a.std_error == b.std_error
    # continuum ensemble
    params = InteractionParams(torus=torus, vL=vL, nu=1.0, lam=1.0,
                               mode="generic", kappa=1.0)
    intensity = LoopIntensity(torus, "symanzik_eps", 1.0, eps=0.1)
    cspec = EnsembleSpec(torus, params, intensity, "symanzik_eps")
    a = estimate_rel_partition(cspec, 300, seed=11, workers=2)
    b = estimate_rel_partition(cspec, 300, seed=11, workers=2)
    ok &= a.mean == b.mean
    # field oracle
    gf = GaussianField(torus, 1.0)
    a = estimate_Zcl(gf, vL, 1000, seed=12, workers=3)
    b = estimate_Zcl(gf, vL, 1000, seed=12, workers=3)
    ok &= a.mean == b.mean and a.std_error == b.std_error
    # expansion engine
    mf = _grid_spec(torus,
                    periodize_potential(PotentialSpec(1, 0, {(0,): 0.05}), 3),
                    0.5, 1.5, mode="meanfield")
    a = log_Z_via_expansion(mf, 2, 300, seed=13, workers=2)
    b = log_Z_via_expansion(mf, 2, 300, seed=13, workers=2)
    ok &= a["log_Z"] == b["log_Z"] and a["means"] == b["means"]
    assert _verdict(10, "determinism", ok)
