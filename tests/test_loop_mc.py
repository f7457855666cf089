'''Poissonized loop-gas Monte Carlo: free closed forms, determinism,
reduction identities.'''

import math

import numpy as np
import pytest

from loopgas.interactions import InteractionParams
from loopgas.lattice import (
    HeatKernel, PotentialSpec, Torus, periodize_potential)
from loopgas.loop_mc import (
    EnsembleSpec, _welford_merge, estimate_gamma_p, estimate_rel_partition,
    run_mc)
from loopgas.paths import LoopIntensity
from loopgas.perturbative import gamma1_first_order
from loopgas.quantum_oracle import reduced_density_matrix


def _grid_spec(v0=0.5, lam=0.2, nu=0.5, kappa=1.0, L=3):
    torus = Torus(1, L)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): v0}), L)
    params = InteractionParams(torus=torus, vL=vL, nu=nu, lam=lam,
                               mode="generic", kappa=kappa)
    intensity = LoopIntensity(torus, "ginibre", kappa=kappa, nu=nu)
    return EnsembleSpec(torus, params, intensity, "ginibre")


def test_welford_merge_matches_numpy():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=1000)
    parts = []
    for chunk in np.array_split(xs, 7):
        m = chunk.mean()
        parts.append((len(chunk), float(m), float(np.sum((chunk - m) ** 2))))
    count, mean, M2 = _welford_merge(parts)
    assert count == 1000
    assert mean == pytest.approx(xs.mean(), abs=1e-12)
    assert M2 / (count - 1) == pytest.approx(xs.var(ddof=1), abs=1e-12)


def test_run_mc_deterministic_and_worker_dependent_streams():
    def sample(rng, count):
        return rng.random(count)

    a = run_mc(sample, 500, seed=42, workers=3)
    b = run_mc(sample, 500, seed=42, workers=3)
    assert a == b                      # bit-exact reproduction
    c = run_mc(sample, 500, seed=43, workers=3)
    assert a[0] != c[0]


def test_run_mc_vector_columns_match_scalar_runs():
    def sample(rng, count):
        x = rng.normal(size=count)
        return np.stack([x, np.exp(x), x * x], axis=1)

    mean, se, count = run_mc(sample, 1001, seed=4, workers=3)
    assert mean.shape == se.shape == (3,) and count == 1001
    for j in range(3):
        col = run_mc(lambda rng, n: sample(rng, n)[:, j], 1001, seed=4,
                     workers=3)
        assert col == (mean[j], se[j], count)     # bit-exact per column


def test_run_mc_worker_counts_agree():
    def sample(rng, count):
        return rng.exponential(size=count)

    one = run_mc(sample, 4000, seed=6, workers=1)
    three = run_mc(sample, 4000, seed=6, workers=3)
    assert abs(one[0] - three[0]) <= 3.0 * math.hypot(one[1], three[1])


def _hard_core_spec(L, nu, mode, lam=0.5, kappa=1.0):
    torus = Torus(1, L)
    vL = periodize_potential(PotentialSpec(1, 1, {(1,): 0.3}), L)
    params = InteractionParams(torus=torus, vL=vL, nu=nu, mode=mode, R=1,
                               lam=lam if mode == "generic" else None,
                               kappa=kappa)
    intensity = LoopIntensity(torus, "ginibre", kappa=kappa, nu=nu)
    return EnsembleSpec(torus, params, intensity, "ginibre")


@pytest.mark.parametrize("L,nu,mode", [(3, 0.5, "generic"),
                                       (3, 0.5, "meanfield"),
                                       (2, 0.25, "generic")])
def test_hard_core_partition_against_oracle(L, nu, mode):
    # the loop Z is relative to the untruncated free gas,
    # prod_xi (1 - w_xi) with w_xi = e^{-nu (kappa + lambda_xi)}
    from loopgas.quantum_oracle import grand_partition
    spec = _hard_core_spec(L, nu, mode)
    w = np.exp(-nu * (spec.intensity.kappa + HeatKernel(spec.torus).rates))
    exact = grand_partition(spec.params).Xi * float(np.prod(1.0 - w))
    est = estimate_rel_partition(spec, 20000, seed=1, workers=2)
    assert est.std_error < 0.005
    assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_hard_core_gamma_against_oracle():
    spec = _hard_core_spec(3, 0.5, "generic")
    K = reduced_density_matrix(spec.params, p=1)
    est = estimate_gamma_p(spec, 1, [0], [0], 20000, seed=2, workers=2)
    assert abs(est.mean - K[0, 0]) <= 3.0 * est.std_error


def test_free_partition_is_one():
    # lam = 0: Z = E[e^0] = 1 exactly, zero variance
    spec = _grid_spec(lam=0.0)
    est = estimate_rel_partition(spec, 200, seed=1)
    assert est.mean == 1.0 and est.std_error == 0.0


def test_rel_partition_against_oracle():
    from loopgas.quantum_oracle import grand_partition
    spec = _grid_spec()
    oracle = grand_partition(spec.params).Z_rel
    est = estimate_rel_partition(spec, 8000, seed=3, workers=2)
    assert abs(est.mean - oracle) <= 3.0 * est.std_error
    assert est.std_error < 0.01


def test_gamma_free_against_closed_form():
    spec = _grid_spec(lam=0.0)
    # the first-order kernel at lam = 0 is the free kernel
    K = gamma1_first_order(spec.torus, spec.params.nu, spec.intensity.kappa,
                           spec.params.vL, 0.0)
    for x, y in [(0, 0), (0, 1)]:
        est = estimate_gamma_p(spec, 1, [x], [y], 20000, seed=5, workers=2)
        assert abs(est.mean - K[x, y]) <= 3.0 * est.std_error


def test_gamma_interacting_against_oracle():
    spec = _grid_spec()
    K = reduced_density_matrix(spec.params, p=1)
    est = estimate_gamma_p(spec, 1, [0], [0], 30000, seed=7, workers=2)
    assert abs(est.mean - K[0, 0]) <= 3.0 * est.std_error


def test_symanzik_ensemble_runs():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5}), 3)
    params = InteractionParams(torus=torus, vL=vL, nu=1.0, lam=1.0,
                               mode="generic", kappa=1.0)
    intensity = LoopIntensity(torus, "symanzik_eps", kappa=1.0, eps=0.1)
    spec = EnsembleSpec(torus, params, intensity, "symanzik_eps")
    est = estimate_rel_partition(spec, 500, seed=9)
    assert 0.0 < est.mean < 1.0


def test_ensemble_kind_mismatch_rejected():
    torus = Torus(1, 3)
    vL = np.zeros(3)
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, lam=0.0,
                               mode="generic", kappa=1.0)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    with pytest.raises(ValueError):
        EnsembleSpec(torus, params, intensity, "symanzik_eps")


def test_free_gas_gamma1_rejects_bad_kappa():
    with pytest.raises(ValueError):
        HeatKernel(Torus(1, 3)).free_weights(0.5, -0.1)


def test_estimate_serialization():
    spec = _grid_spec()
    est = estimate_rel_partition(spec, 100, seed=11)
    doc = est.to_json()
    assert '"mean"' in doc and '"seed"' in doc
    row = est.csv_row()
    assert row[0] == est.mean and row[3] == 11


@pytest.mark.parametrize("site", [-1, 3])
def test_gamma_p_rejects_off_torus_sites(site):
    with pytest.raises(ValueError):
        estimate_gamma_p(_grid_spec(), 1, [0], [site], 10, seed=1)
