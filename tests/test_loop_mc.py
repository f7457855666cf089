'''Poissonized loop-gas Monte Carlo: free closed forms, determinism,
reduction identities.'''

import itertools
import math

import numpy as np
import pytest

import loop_reference

from loopgas.interactions import InteractionParams
from loopgas.lattice import (
    HeatKernel, PotentialSpec, Torus, periodize_potential)
from loopgas.loop_mc import (
    _BATCH, EnsembleSpec, _welford_merge, estimate_gamma_p,
    estimate_rel_partition, run_mc)
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
    continuum = LoopIntensity(torus, "symanzik_eps", kappa=1.0, eps=0.1)
    with pytest.raises(ValueError, match="kind"):
        EnsembleSpec(torus, params, intensity, "symanzik_eps")
    with pytest.raises(ValueError, match="kind"):
        EnsembleSpec(torus, params, continuum, "foo")
    # a torus of another (d, L) in the params or in the intensity
    other = Torus(2, 3)
    other_params = InteractionParams(torus=other, vL=np.zeros(9), nu=0.5,
                                     lam=0.0, mode="generic", kappa=1.0)
    with pytest.raises(ValueError, match="params torus"):
        EnsembleSpec(torus, other_params, intensity, "ginibre")
    with pytest.raises(ValueError, match="intensity torus"):
        EnsembleSpec(torus, params, LoopIntensity(Torus(1, 4), "ginibre",
                                                  kappa=1.0, nu=0.5),
                     "ginibre")
    # the grid ensemble's nu must be the intensity's
    with pytest.raises(ValueError, match="nu"):
        EnsembleSpec(torus, params, LoopIntensity(torus, "ginibre",
                                                  kappa=1.0, nu=1.0),
                     "ginibre")
    EnsembleSpec(torus, params, continuum, "symanzik_eps")


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


# -- guards on the sample counts -------------------------------------------------

@pytest.mark.parametrize("n", [0, 1])
def test_run_mc_needs_two_samples(n):
    with pytest.raises(ValueError, match="n_samples >= 2"):
        run_mc(lambda rng, count: rng.random(count), n, seed=1)


@pytest.mark.parametrize("denom_samples", [0, 1])
def test_gamma_p_rejects_denominators_below_two_samples(denom_samples):
    with pytest.raises(ValueError, match="denom_samples"):
        estimate_gamma_p(_grid_spec(), 1, [0], [0], 10, seed=1,
                         denom_samples=denom_samples)


# -- the batched estimators against per-sample references ------------------------

def _reference_run(spec, n_samples, seed, workers, batch_of):
    '''run_mc over a per-path reference that makes the library's draws
    batch by batch (_BATCH samples) and counts its work: sampled loops,
    bridge walks, evaluated configurations and killed ones.'''
    tally = {"loops": 0, "walks": 0, "configs": 0, "killed": 0}

    def backgrounds(rng, m):
        sizes = rng.poisson(spec.intensity.total_mass, m)
        loops, walks = loop_reference.draw_batch(spec.intensity, rng,
                                                 int(sizes.sum()))
        tally["loops"] += len(loops)
        tally["walks"] += walks
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        return [loops[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def boltzmann(config):
        V = loop_reference.v_total(config, spec.params, spec.kind)
        tally["configs"] += 1
        tally["killed"] += bool(np.isinf(V))
        return 0.0 if np.isinf(V) else math.exp(-V)

    def sample(rng, count):
        return [value for lo in range(0, count, _BATCH)
                for value in batch_of(rng, min(_BATCH, count - lo),
                                      backgrounds, boltzmann)]

    mean, se, count = run_mc(sample, n_samples, seed, workers)
    return mean, se, tally


def _check_counters(meta, tally, n_samples):
    assert meta["loops_per_sample"] == tally["loops"] / n_samples
    assert meta["walks_per_loop"] == tally["walks"] / tally["loops"]
    assert meta["killed_frac"] == tally["killed"] / tally["configs"]


def _close(new, ref):
    return abs(new - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("R", [0, 1])
def test_rel_partition_matches_reference_and_counts(R, workers):
    spec = _hard_core_spec(3, 0.5, "generic") if R else _grid_spec(L=4)
    est = estimate_rel_partition(spec, 300, seed=8, workers=workers)
    mean, se, tally = _reference_run(
        spec, 300, 8, workers,
        lambda rng, m, bgs, boltzmann: [boltzmann(bg) for bg in bgs(rng, m)])
    assert _close(est.mean, mean) and _close(est.std_error, se)
    _check_counters(est.metadata, tally, 300)
    assert est.metadata["walks_per_loop"] > 1
    assert (est.metadata["killed_frac"] > 0) == bool(R)


@pytest.mark.parametrize("p", [1, 2])
def test_gamma_matches_reference_and_counts(p):
    spec = _hard_core_spec(3, 0.5, "generic")
    norm_p = loop_reference.open_normalization(spec.intensity) ** p
    xs, ys = [0, 1][:p], [1, 0][:p]
    perms = list(itertools.permutations(range(p)))

    def batch_of(rng, m, backgrounds, boltzmann):
        loops = backgrounds(rng, m)
        opens = []
        for pi in perms:
            opens.append([])
            for i in range(p):
                T = loop_reference.open_duration(spec.intensity, rng, m)
                opens[-1].append(loop_reference.walks(
                    spec.torus, [xs[i]] * m, T, rng, [ys[pi[i]]] * m)[1])
        totals = []
        for s in range(m):
            total = 0.0
            for paths in opens:
                config = [paths[i][s] for i in range(p)]
                if all(path is not None for path in config):
                    total += norm_p * boltzmann(config + loops[s])
            totals.append(total)
        return totals

    est = estimate_gamma_p(spec, p, xs, ys, 300, seed=3, workers=2)
    mean, _, tally = _reference_run(spec, 300, 3, 2, batch_of)
    assert _close(est.mean * est.metadata["denominator"], mean)
    _check_counters(est.metadata, tally, 300)


def test_one_site_loops_need_one_walk():
    torus = Torus(1, 1)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5}), 1)
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, lam=0.2,
                               mode="generic", kappa=1.0)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    est = estimate_rel_partition(EnsembleSpec(torus, params, intensity,
                                              "ginibre"), 200, seed=2)
    assert est.metadata["loops_per_sample"] > 0
    assert est.metadata["walks_per_loop"] == 1.0
    assert est.metadata["killed_frac"] == 0.0


# -- values of the per-sample estimators, at fixed (seed, workers) ---------------

def _golden_grid(d=1, L=3, nu=0.5, lam=0.2, R=0, mode="generic"):
    torus = Torus(d, L)
    entries = {(1,) + (0,) * (d - 1): 0.1}
    if not R:
        entries[(0,) * d] = 0.5
    vL = periodize_potential(PotentialSpec(d, R, entries), L)
    params = InteractionParams(torus=torus, vL=vL, nu=nu, mode=mode, R=R,
                               lam=lam if mode == "generic" else None,
                               kappa=1.0)
    return EnsembleSpec(torus, params,
                        LoopIntensity(torus, "ginibre", 1.0, nu=nu), "ginibre")


def _golden_continuum(d=1, L=3, eps=0.1):
    torus = Torus(d, L)
    vL = periodize_potential(PotentialSpec(d, 0, {(0,) * d: 0.5}), L)
    params = InteractionParams(torus=torus, vL=vL, nu=1.0, lam=1.0,
                               mode="generic", kappa=1.0)
    intensity = LoopIntensity(torus, "symanzik_eps", 1.0, eps=eps)
    return EnsembleSpec(torus, params, intensity, "symanzik_eps")


# Recorded with the array samplers (one draw_batch call per batch of
# loops, one walks call per open path and permutation).
GOLDEN = {
    "Z/grid/w1": [0.7716894513271042, 0.014328404550783701],
    "Z/grid_d2/w1": [0.8087821012419218, 0.012533425229852034],
    "Z/grid_offgrid/w1": [0.03567538693508265, 0.00624803188692045],
    "Z/grid_R1/w1": [0.5166649348265213, 0.02871337653519649],
    "Z/continuum/w1": [0.712578450468404, 0.014731979135577349],
    "Z/continuum_d2/w1": [0.7806229722826378, 0.013311145273798241],
    "gamma/p1/R0/w1": [0.27271253225984393, 0.03940126016582011,
        0.7732485518592073, 0.01749213648682555],
    "gamma/p2/R0/w1": [0.4168573356863277, 0.05743241813911376,
        0.7732485518592073, 0.01749213648682555],
    "gamma/p1/R1/w1": [0.0868872425445167, 0.03549083915761757,
        0.5322394993995856, 0.035179165113093575],
    "gamma/p2/R1/w1": [0.12956814920736318, 0.052934030503691984,
        0.5322394993995856, 0.035179165113093575],
    "logz/w1": [1.3437420458415386, -0.087710341696853, 0.012611257346976285,
        0.028157372983928012, 0.006637757283519838, 0.0014273634753266598,
        95.83411032412144, 92.33460362453233, 90.90014346426486,
        0.0031478687322798516, 0.0005685414029321988, -0.3392682982502042],
    "Z/grid/w3": [0.7775848660225404, 0.014188283789513383],
    "Z/grid_d2/w3": [0.8119836454420838, 0.012537160544623487],
    "Z/grid_offgrid/w3": [0.042005650913968205, 0.00746932767883607],
    "Z/grid_R1/w3": [0.5048923373553679, 0.02881446771337557],
    "Z/continuum/w3": [0.7041120230883674, 0.015474089488029719],
    "Z/continuum_d2/w3": [0.7838265811909336, 0.012824666535601518],
    "gamma/p1/R0/w3": [0.22460138626985263, 0.0330177813346942,
        0.7830942962601662, 0.01574621346914078],
    "gamma/p2/R0/w3": [0.3614322321358236, 0.050306676137250005,
        0.7830942962601662, 0.01574621346914078],
    "gamma/p1/R1/w3": [0.03195876056453948, 0.0226619997434995,
        0.48233850603305173, 0.03523800348812331],
    "gamma/p2/R1/w3": [0.04828874297906332, 0.034241612054870224,
        0.48233850603305173, 0.03523800348812331],
    "logz/w3": [1.375570705984884, -0.08490696612210383, 0.013363841605919803,
        0.024444520077921434, 0.006682273798697139, 0.0017960948072397193,
        96.96846282105469, 92.82201012419712, 90.01392519536138,
        0.002078887227769194, 0.0002739624448445029, -0.303883678273166],
}


@pytest.mark.parametrize("workers", [1, 3])
def test_estimators_reproduce_recorded_values(workers):
    from loopgas.cluster import log_Z_via_expansion
    got = {}
    for name, spec in (("grid", _golden_grid()),
                       ("grid_d2", _golden_grid(d=2, L=2)),
                       ("grid_offgrid", _golden_grid(L=4, nu=0.1, lam=0.3)),
                       ("grid_R1", _golden_grid(R=1)),
                       ("continuum", _golden_continuum()),
                       ("continuum_d2", _golden_continuum(d=2, L=2, eps=0.2))):
        est = estimate_rel_partition(spec, 300, seed=11, workers=workers)
        got[f"Z/{name}"] = [est.mean, est.std_error]
    for p, R in ((1, 0), (2, 0), (1, 1), (2, 1)):
        xs, ys = ([0], [1]) if p == 1 else ([0, 1], [1, 0])
        est = estimate_gamma_p(_golden_grid(R=R), p, xs, ys, 200, seed=5,
                               workers=workers)
        got[f"gamma/p{p}/R{R}"] = [est.mean, est.std_error,
                                   est.metadata["denominator"],
                                   est.metadata["denominator_se"]]
    rep = log_Z_via_expansion(_golden_grid(lam=None, mode="meanfield"), 3,
                              100, seed=123, workers=workers)
    got["logz"] = (rep["means"] + rep["std_errors"] + rep["ess"]
                   + [rep["remainder"], rep["remainder_se"], rep["log_Z"]])
    for key, values in got.items():
        ref = GOLDEN[f"{key}/w{workers}"]
        assert len(values) == len(ref)
        assert all(_close(a, b) for a, b in zip(values, ref)), key
