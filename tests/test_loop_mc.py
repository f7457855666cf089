'''Poissonized loop-gas Monte Carlo: free closed forms, determinism,
reduction identities.'''

import functools
import math
import warnings

import numpy as np
import pytest

import loop_reference

from loopgas.interactions import InteractionParams
from loopgas.lattice import (
    PotentialSpec, Torus, periodize_potential)
from loopgas import loop_mc
from loopgas.loop_mc import (
    EnsembleSpec, _OpenPaths, _background_means, _batch_size, _chunks,
    _control_step, _draw_background, _mean_se, _paired_ratio,
    estimate_gamma_p, estimate_rel_partition, run_groups, run_mc)
from loopgas.paths import LoopIntensity, bridges
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
    '''The reduction that replaced the per-worker Welford merge: scalar
    samples over 7 unequal worker chunks are joined in worker order, and
    their mean and variance are numpy's of the joined samples.'''
    def sample(rng, count):
        return rng.normal(size=count)

    mean, se, rows = run_mc(loop_reference.per_worker(sample), 1000, seed=0,
                            workers=7)
    streams = np.random.SeedSequence(0).spawn(7)
    xs = np.concatenate([sample(np.random.default_rng(s), n) for s, n
                         in zip(streams, _chunks(1000, 7))])
    assert rows.shape == (1000,) and np.array_equal(rows, xs)
    assert mean == pytest.approx(xs.mean(), abs=1e-12)
    assert se * se * 1000 == pytest.approx(xs.var(ddof=1), abs=1e-12)


def test_run_mc_comoments_match_numpy():
    '''At 3 workers the rows are sample_fn's chunks over the spawned
    streams, joined in worker order; the mean and SE of each row are
    numpy's of those rows, and the co-moments taken from the rows are
    n - 1 times numpy's covariance of the samples.'''
    def sample(rng, count):
        x = rng.normal(size=count)
        return np.stack([x + rng.normal(size=count), np.exp(x)])

    mean, se, rows = run_mc(loop_reference.per_worker(sample), 1001, seed=4,
                            workers=3)
    streams = np.random.SeedSequence(4).spawn(3)
    values = np.concatenate([sample(np.random.default_rng(s), n) for s, n
                             in zip(streams, _chunks(1001, 3))], axis=1)
    assert rows.shape == (2, 1001) and np.array_equal(rows, values)
    assert np.allclose(mean, values.mean(axis=1), rtol=1e-12, atol=0.0)
    assert np.allclose(se, values.std(axis=1, ddof=1) / math.sqrt(1001),
                       rtol=1e-12, atol=0.0)
    dev = rows - mean[:, None]
    C = np.einsum("in,jn->ij", dev, dev)
    assert np.allclose(C / 1000, np.cov(values), rtol=1e-12, atol=0.0)


def test_run_mc_deterministic_and_worker_dependent_streams():
    def sample(rngs, counts):
        return np.concatenate([rng.random(n) for rng, n in zip(rngs, counts)])

    a = run_mc(sample, 500, seed=42, workers=3)
    b = run_mc(sample, 500, seed=42, workers=3)
    assert a[:2] == b[:2] and np.array_equal(a[2], b[2])  # bit-exact
    c = run_mc(sample, 500, seed=43, workers=3)
    assert a[0] != c[0]


def test_run_mc_rows_match_one_row_runs():
    '''Each row of a k-row run is the one-row run of that row, bit for
    bit.'''
    def sample(rng, count):
        x = rng.normal(size=count)
        return np.stack([x, np.exp(x), x * x])

    mean, se, rows = run_mc(loop_reference.per_worker(sample), 1001, seed=4,
                            workers=3)
    assert mean.shape == se.shape == (3,) and rows.shape == (3, 1001)
    for j in range(3):
        one = run_mc(loop_reference.per_worker(
            lambda rng, n: sample(rng, n)[j]), 1001, seed=4, workers=3)
        assert one[:2] == (mean[j], se[j])
        assert np.array_equal(one[2], rows[j])


def test_paired_ratio_is_the_delta_method():
    '''The paired ratio's SE is sd(N - r D) / (sqrt(n) mean(D)) of the
    samples, and the metadata carry the denominator's z and the N-D
    correlation.'''
    rng = np.random.default_rng(8)
    D = rng.uniform(0.5, 1.0, 500)
    N = 0.7 * D + 0.05 * rng.normal(size=500)
    values = np.stack([N, D])
    mean, se, rows = run_mc(lambda rngs, counts: values[:, :sum(counts)],
                            500, seed=1)
    ratio, ratio_se, meta = _paired_ratio(mean, se, rows)
    r = N.mean() / D.mean()
    assert ratio == pytest.approx(r, rel=1e-13)
    assert ratio_se == pytest.approx(
        np.std(N - r * D, ddof=1) / math.sqrt(500) / D.mean(), rel=1e-10)
    assert meta["denominator_z"] == pytest.approx(D.mean() / se[1])
    assert meta["correlation"] == pytest.approx(np.corrcoef(N, D)[0, 1])


def test_run_mc_worker_counts_agree():
    sample = loop_reference.per_worker(
        lambda rng, count: rng.exponential(size=count))
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
    w = np.exp(-nu * (spec.intensity.kappa + spec.torus.rates))
    exact = grand_partition(spec.params).Xi * float(np.prod(1.0 - w))
    est = estimate_rel_partition(spec, 20000, seed=1, workers=2)
    assert est.std_error < 0.005
    assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_hard_core_gamma_against_oracle():
    spec = _hard_core_spec(3, 0.5, "generic")
    K = reduced_density_matrix(spec.params, p=1)
    est = estimate_gamma_p(spec, 1, [0], [0], 20000, seed=2, workers=2)
    assert abs(est.mean - K[0, 0]) <= 3.0 * est.std_error


def test_hard_core_gamma_off_diagonal_against_oracle():
    '''Gamma_1(0, 1) under the hard core, from bridges 0 -> 1 weighted
    by psi^T(1) / psi^T(0), against the exact oracle at 3 sigma.'''
    spec = _hard_core_spec(3, 0.5, "generic")
    K = reduced_density_matrix(spec.params, p=1)
    est = estimate_gamma_p(spec, 1, [0], [1], 20000, seed=4, workers=2)
    assert est.metadata["killed_frac"] > 0
    assert abs(est.mean - K[0, 1]) <= 3.0 * est.std_error


def test_free_partition_is_one():
    # lam = 0: Z = E[e^0] = 1 exactly, zero variance, through the
    # control step (200 samples hold 25 per control in each fold)
    spec = _grid_spec(lam=0.0)
    est = estimate_rel_partition(spec, 200, seed=1)
    assert est.metadata["beta"] is not None
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


@functools.lru_cache(maxsize=None)
def _oracle_kernel(R, p):
    # tol 1e-6 is far below the Monte Carlo errors compared with it
    return reduced_density_matrix(_golden_grid(R=R).params, p, tol=1e-6)


@pytest.mark.parametrize("R", [0, 1])
@pytest.mark.parametrize("xs,ys", [([0, 1], [1, 0]), ([0, 1], [1, 2]),
                                   ([0, 0], [0, 0]), ([0, 1, 2], [2, 0, 1]),
                                   ([0, 0, 1], [1, 0, 0])])
def test_gamma_p_against_oracle(R, xs, ys):
    '''Kernels of p = 2 and 3 at distinct, repeated and mixed sites
    against the exact oracle at 3 sigma; under the hard core (R = 1) a
    repeated site gives 0 on both sides.'''
    p = len(xs)
    K = _oracle_kernel(R, p)
    exact = K[np.ravel_multi_index(xs, (3,) * p),
              np.ravel_multi_index(ys, (3,) * p)]
    est = estimate_gamma_p(_golden_grid(R=R), p, xs, ys, 20000, seed=11,
                           workers=2)
    assert abs(est.mean - exact) <= 3.0 * est.std_error


@pytest.mark.parametrize("d", [1, 2])
def test_free_continuum_gamma_against_the_resolvent(d):
    '''At lambda = 0 the continuum Gamma_1(x, y) is G(y - x), G =
    inverse_fourier(1 / (kappa + lambda_xi)), the covariance of the
    classical field: at 3 sigma off the diagonal.'''
    torus = Torus(d, 3)
    params = InteractionParams(torus=torus, vL=np.zeros(torus.n_sites),
                               nu=1.0, lam=0.0, mode="generic", kappa=0.5)
    intensity = LoopIntensity(torus, "symanzik_eps", kappa=0.5, eps=0.1)
    spec = EnsembleSpec(torus, params, intensity, "symanzik_eps")
    G = torus.inverse_fourier(1.0 / (0.5 + torus.rates))
    y = torus.n_sites - 1
    est = estimate_gamma_p(spec, 1, [0], [y], 20000, seed=6, workers=2)
    assert est.std_error > 0
    assert abs(est.mean - G[y]) <= 3.0 * est.std_error


def test_permutation_law_is_the_product_of_free_kernels():
    '''The open paths (0, 1, 2) -> (2, 0, 1) on d = 2, L = 3 pick the
    permutation pi of S_3 with probability prod_i G(y_pi(i) - x_i) /
    perm(G): a chi-square test over the 6 rows.'''
    from test_paths import _chi2_ok
    torus = Torus(2, 3)
    for intensity in (LoopIntensity(torus, "ginibre", kappa=0.3, nu=0.5),
                      LoopIntensity(torus, "symanzik_eps", kappa=0.3,
                                    eps=0.1)):
        xs, ys = [0, 1, 2], [2, 0, 1]
        law = _OpenPaths(intensity, xs, ys)
        ends, _, _ = law.draw([np.random.default_rng(12)], [30000])
        rows = (ends[:, None, :] == law.ends[None]).all(axis=2)
        assert np.all(rows.sum(axis=1) == 1)
        prob = np.array([math.prod(loop_reference.free_kernel(
            intensity, torus.diff_table[ys[pi[i]], xs[i]]) for i in range(3))
            for pi in law.perms])
        ok, chi2, df = _chi2_ok(rows.sum(axis=0), prob / prob.sum())
        assert ok, (intensity.kind, chi2, df)


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


def test_continuum_ensemble_refuses_a_hard_core():
    '''Every loop has positive local time at its own site, so under a
    hard core every configuration but the empty one has V = +inf, and Z
    would only estimate P(no loop) = e^{-m}: the continuum ensemble
    refuses R = 1, while the grid ensemble takes it as exclusion.'''
    torus = Torus(1, 3)
    hard = periodize_potential(PotentialSpec(1, 1, {(1,): 0.1}), 3)
    params = InteractionParams(torus=torus, vL=hard, nu=1.0, lam=1.0,
                               mode="generic", R=1, kappa=1.0)
    continuum = LoopIntensity(torus, "symanzik_eps", kappa=1.0, eps=0.1)
    with pytest.raises(ValueError, match="no hard core"):
        EnsembleSpec(torus, params, continuum, "symanzik_eps")
    EnsembleSpec(torus, params, LoopIntensity(torus, "ginibre", kappa=1.0,
                                              nu=1.0), "ginibre")


def test_free_gas_gamma1_rejects_bad_kappa():
    with pytest.raises(ValueError):
        Torus(1, 3).free_weights(0.5, -0.1)


def test_estimate_serialization():
    spec = _grid_spec()
    est = estimate_rel_partition(spec, 100, seed=11)
    doc = est.to_dict()
    assert doc["mean"] == est.mean and doc["seed"] == 11
    row = est.csv_row()
    assert row[0] == est.mean and row[3] == 11


@pytest.mark.parametrize("site", [-1, 3])
def test_gamma_p_rejects_off_torus_sites(site):
    with pytest.raises(ValueError):
        estimate_gamma_p(_grid_spec(), 1, [0], [site], 10, seed=1)


@pytest.mark.parametrize("kind", ["ginibre", "symanzik_eps"])
@pytest.mark.parametrize("p", [1, 2])
def test_free_gamma_at_coinciding_sites_is_exact(kind, p):
    '''At lambda = 0 and x = y = (0, ..., 0) every sample is the pair
    (p! G(0)^p, 1): the estimate is the free kernel p! G(0)^p exactly,
    with SE 0.'''
    torus = Torus(1, 3)
    params = InteractionParams(torus=torus, vL=np.zeros(3), nu=0.5, lam=0.0,
                               mode="generic", kappa=1.0)
    intensity = LoopIntensity(torus, kind, kappa=1.0, nu=0.5, eps=0.1)
    spec = EnsembleSpec(torus, params, intensity, kind)
    g0 = loop_reference.free_kernel(intensity, 0)
    est = estimate_gamma_p(spec, p, [0] * p, [0] * p, 50, seed=3, workers=2)
    assert est.mean == math.factorial(p) * _OpenPaths(
        intensity, [0] * p, [0] * p).unit
    assert est.mean == pytest.approx(math.factorial(p) * g0 ** p, rel=1e-14)
    assert est.std_error == 0.0
    assert est.metadata["denominator"] == 1.0
    assert est.metadata["denominator_se"] == 0.0


# -- guards on the sample counts -------------------------------------------------

@pytest.mark.parametrize("n", [0, 1])
def test_run_mc_needs_two_samples(n):
    with pytest.raises(ValueError, match="n_samples >= 2"):
        run_mc(lambda rngs, counts: rngs[0].random(counts[0]), n, seed=1)


@pytest.mark.parametrize("denom_samples", [0, 1])
def test_gamma_p_rejects_denominators_below_two_samples(denom_samples):
    with pytest.raises(ValueError, match="denom_samples"):
        estimate_gamma_p(_grid_spec(), 1, [0], [0], 10, seed=1,
                         denom_samples=denom_samples)


def test_partition_refuses_weights_that_all_underflowed():
    '''kappa nu = 1e-5 on ginibre_z.json's physics: every sample's
    e^{-V} underflows to 0 and no sample is a hard-core kill, so the
    estimate raises instead of reading Z = 0 with SE 0.  Under a hard
    core whose every sample is killed, Z = 0 stands.'''
    spec = _grid_spec(nu=0.1, kappa=1e-4)
    with pytest.raises(ArithmeticError, match="underflowed"):
        estimate_rel_partition(spec, 20, seed=7)
    killed = _hard_core_spec(3, 0.5, "generic", lam=1.0, kappa=0.01)
    est = estimate_rel_partition(killed, 20, seed=7)
    assert est.metadata["killed_frac"] == 1.0
    assert (est.mean, est.std_error) == (0.0, 0.0)


def test_gamma_p_denominator_shares_the_numerator_samples():
    '''The denominator is paired with the numerator: denom_samples may
    only repeat n_samples, which changes nothing.'''
    a = estimate_gamma_p(_grid_spec(), 1, [0], [1], 40, seed=1)
    b = estimate_gamma_p(_grid_spec(), 1, [0], [1], 40, seed=1,
                         denom_samples=40)
    assert (a.mean, a.std_error, a.metadata) == (b.mean, b.std_error,
                                                 b.metadata)
    with pytest.raises(ValueError, match="denom_samples"):
        estimate_gamma_p(_grid_spec(), 1, [0], [1], 40, seed=1,
                         denom_samples=80)


# -- the batch rule ---------------------------------------------------------------

@pytest.mark.parametrize("budget", [1, 7, 32, 4096])
def test_batch_rule_fills_the_loop_budget(budget, monkeypatch):
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", budget)
    for loops in (0.0, 1e-12, 0.5, 1.0, 1.61, 2.61, 8.3, 100.0, 5000.0):
        size = _batch_size(loops)
        assert isinstance(size, int) and size >= 1
        if loops < 1.0:
            # near-massless samples: the batch stops at _BATCH_LOOPS
            assert size == budget
        elif loops <= budget:
            # the most samples whose expected loops fit the budget
            assert size * loops <= budget < (size + 1) * loops
        else:
            assert size == 1


def _recording_group(groups):
    '''A run_groups group function that records each group as (run,
    counts) pairs and gives run r's samples r + 2 u, u its streams'
    uniforms.'''
    def sample_group(group):
        groups.append([(r, list(counts)) for r, _, counts in group])
        return [r + 2.0 * np.concatenate([rng.random(m) for rng, m
                                          in zip(rngs, counts)])
                for r, rngs, counts in group]
    return sample_group


def _stream_values(n_samples, seed, workers):
    '''The uniforms of each worker's chunk of a run, in worker order.'''
    streams = np.random.SeedSequence(seed).spawn(workers)
    return np.concatenate([np.random.default_rng(s).random(n) for s, n
                           in zip(streams, _chunks(n_samples, workers))])


def test_batched_cuts_a_chunk_by_the_rule(monkeypatch):
    '''2.5 loops a sample at a budget of 8 loops: batches of 3.'''
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", 8)
    groups = []
    [(mean, se, rows)] = run_groups(_recording_group(groups), [(4, 2.5)], 10)
    assert groups == [[(0, [3])], [(0, [3])], [(0, [3])], [(0, [1])]]
    assert np.array_equal(rows, 2.0 * _stream_values(10, 4, 1))
    assert (mean, se) == _mean_se(rows)


def test_batched_packs_consecutive_batches_of_the_streams(monkeypatch):
    '''Batches of 3 samples: the 7 workers' chunks 2, 2, 2, 1, 1, 1, 1
    of 10 samples are batches of their own, and consecutive batches
    share a group while their samples fit one batch: the third 2 with
    the first 1, then the other three 1s.  Each stream draws its own
    values, in stream order.'''
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", 8)
    groups = []
    [(_, _, rows)] = run_groups(_recording_group(groups), [(5, 2.5)], 10,
                                workers=7)
    assert groups == [[(0, [2])], [(0, [2])], [(0, [2, 1])],
                      [(0, [1, 1, 1])]]
    assert np.array_equal(rows, 2.0 * _stream_values(10, 5, 7))


def test_runs_pack_into_shared_groups(monkeypatch):
    '''Three runs of 8 samples at 2 workers (chunks 4, 4) and a budget
    of 12 loops: run 0 (1 loop a sample, batches of 12) puts both its
    chunks in one group of 8 loops; run 1 (4 loops a sample, batches of
    3) cuts each chunk into 3 and 1, and its first batch, 12 loops, does
    not fit the 4 left, so each of its batches opens a group; run 2 (0.5
    loops a sample, counted as 1: batches of 12) fills the last group's
    8 loops left with both its chunks.  Each run's rows are its own
    streams' values, joined over its groups in worker order.'''
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", 12)
    groups = []
    runs = [(0, 1.0), ((1, 2), 4.0), (2, 0.5)]
    results = run_groups(_recording_group(groups), runs, 8, workers=2)
    assert groups == [[(0, [4, 4])], [(1, [3])], [(1, [1])], [(1, [3])],
                      [(1, [1]), (2, [4, 4])]]
    for r, ((seed, _), (mean, se, rows)) in enumerate(zip(runs, results)):
        assert np.array_equal(rows, r + 2.0 * _stream_values(8, seed, 2))
        assert (mean, se) == _mean_se(rows)


# -- the batched estimators against per-sample references ------------------------

# A loop budget that cuts every chunk of the reference runs below into at
# least 3 batches, so that the draw order across batches is checked too.
_SMALL_BUDGET = 32


def _reference_run(spec, n_samples, seed, workers, batch_of, loops_per_sample):
    '''run_mc over a per-path reference that makes the library's draws
    batch by batch (the library's rule for loops_per_sample expected
    loops) and counts its work: sampled loops, evaluated configurations
    and killed ones.  Returns run_mc's outputs and the counts.'''
    size = _batch_size(loops_per_sample)
    assert min(_chunks(n_samples, workers)) > 2 * size
    tally = {"loops": 0, "configs": 0, "killed": 0}

    def backgrounds(rng, m):
        sizes = rng.poisson(spec.intensity.total_mass, m)
        loops = loop_reference.draw_batch(spec.intensity, rng,
                                          int(sizes.sum()))
        tally["loops"] += len(loops)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        return [loops[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def boltzmann(config):
        V = loop_reference.v_total(config, spec.params, spec.kind)
        tally["configs"] += 1
        tally["killed"] += bool(np.isinf(V))
        return 0.0 if np.isinf(V) else math.exp(-V)

    def sample(rng, count):
        # one sample per list entry, then run_mc's rows
        return np.array([value for lo in range(0, count, size)
                         for value in batch_of(rng, min(size, count - lo),
                                               backgrounds, boltzmann)]).T

    return run_mc(loop_reference.per_worker(sample), n_samples, seed,
                  workers), tally


def _check_counters(meta, tally, n_samples):
    assert meta["loops_per_sample"] == tally["loops"] / n_samples
    assert meta["killed_frac"] == tally["killed"] / tally["configs"]


def _close(new, ref):
    return abs(new - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("R", [0, 1])
def test_rel_partition_matches_reference_and_counts(R, workers,
                                                    monkeypatch):
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", _SMALL_BUDGET)
    spec = _hard_core_spec(3, 0.5, "generic") if R else _grid_spec(L=4)
    est = estimate_rel_partition(spec, 300, seed=8, workers=workers)
    (mean, se, _), tally = _reference_run(
        spec, 300, 8, workers,
        lambda rng, m, bgs, boltzmann: [boltzmann(bg) for bg in bgs(rng, m)],
        spec.intensity.total_mass)
    meta = est.metadata
    assert _close(meta["plain_mean"], mean) and _close(meta["plain_se"], se)
    _check_counters(meta, tally, 300)
    assert (meta["killed_frac"] > 0) == bool(R)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_gamma_matches_reference_and_counts(p, monkeypatch):
    '''Per sample, one background, the open paths of the reference's
    open_paths and the pair (weight e^{-V(open + background)},
    e^{-V(background)}): p = 1 and 2 under the hard core, p = 3 without
    it at the mixed sites (0, 0, 1) -> (1, 0, 0), and p = 2 in the
    continuum.'''
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", _SMALL_BUDGET)
    if p < 3:
        spec = _hard_core_spec(3, 0.5, "generic")
        xs, ys = [0, 1][:p], [1, 0][:p]
    else:
        spec, xs, ys = _grid_spec(), [0, 0, 1], [1, 0, 0]
    for spec in (spec, _golden_continuum()) if p == 2 else (spec,):
        _check_gamma_reference(spec, xs, ys)


def _check_gamma_reference(spec, xs, ys):
    p = len(xs)

    def batch_of(rng, m, backgrounds, boltzmann):
        loops = backgrounds(rng, m)
        opened = loop_reference.open_paths(spec.intensity, xs, ys, rng, m)
        return [[weight * boltzmann(paths + loops[s]), boltzmann(loops[s])]
                for s, (paths, weight) in enumerate(opened)]

    est = estimate_gamma_p(spec, p, xs, ys, 300, seed=3, workers=2)
    (mean, se, rows), tally = _reference_run(
        spec, 300, 3, 2, batch_of, spec.intensity.total_mass + p)
    ratio, ratio_se, den = _paired_ratio(mean, se, rows)
    assert est.metadata["plain_mean"] != 0.0
    assert _close(est.metadata["plain_mean"], ratio)
    assert _close(est.metadata["plain_se"], ratio_se)
    assert _close(est.metadata["denominator"], den["denominator"])
    assert _close(est.metadata["correlation"], den["correlation"])
    _check_counters(est.metadata, tally, 300)


def test_gamma_p_keeps_no_state_on_the_intensity():
    '''estimate_gamma_p builds its open-path law on each call and keeps
    none of it: two calls on one spec give bit-identical estimates and
    leave the intensity's attributes as a partition estimate, which draws
    the same backgrounds, left them.'''
    spec = _grid_spec()
    estimate_rel_partition(spec, 300, seed=5)
    before = dict(vars(spec.intensity))
    first = estimate_gamma_p(spec, 1, [0], [1], 300, seed=5)
    again = estimate_gamma_p(spec, 1, [0], [1], 300, seed=5)
    assert (again.mean, again.std_error) == (first.mean, first.std_error)
    after = vars(spec.intensity)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())


def test_gamma_p_draws_one_bridges_call_per_batch(monkeypatch):
    '''A batch of m samples draws its open paths with one bridges call
    of p m bridges: p = 3 makes one call of 3 m a batch.'''
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", _SMALL_BUDGET)
    calls = []

    def spy(torus, x, T, rngs, counts, y=None):
        calls.append(len(x))
        return bridges(torus, x, T, rngs, counts, y)

    monkeypatch.setattr(loop_mc, "bridges", spy)
    spec = _grid_spec()
    estimate_gamma_p(spec, 3, [0, 0, 1], [1, 0, 0], 50, seed=1, workers=2)
    size = _batch_size(spec.intensity.total_mass + 3)
    batches = [min(size, n - lo) for n in _chunks(50, 2)
               for lo in range(0, n, size)]
    assert len(batches) > 2
    assert calls == [3 * m for m in batches]


def test_one_site_loops_need_one_walk():
    '''On L = 1 every loop is one jump-free bridge, drawn in one pass:
    the estimate counts its loops, kills none and reports no walk count.'''
    torus = Torus(1, 1)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5}), 1)
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, lam=0.2,
                               mode="generic", kappa=1.0)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    est = estimate_rel_partition(EnsembleSpec(torus, params, intensity,
                                              "ginibre"), 200, seed=2)
    assert est.metadata["loops_per_sample"] > 0
    assert "walks_per_loop" not in est.metadata
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


# Recorded with the exact bridge sampler (one draw_batch call per batch
# of loops) and batches sized by their loops (each chunk here is one
# batch); the continuum entries with the duration CDF of Gauss-Legendre
# cells; the kernel entries with open paths drawn as exact bridges and
# the denominator paired with the numerator; the grid entries with loop
# durations drawn exactly from the free modes (nu LogSeries(a_xi)); the
# cluster's order 1 with its one-window loops summed exactly and only
# loops of two windows or more drawn, and each order n of a request at
# seed s on the seed sequence (s, n).
GOLDEN = {
    "Z/grid/w1": [0.7845162131600576, 0.014182050329073397],
    "Z/grid_d2/w1": [0.8205164699526144, 0.012566995891627368],
    "Z/grid_offgrid/w1": [0.040485839941980274, 0.008052875061062193],
    "Z/grid_R1/w1": [0.531159082442623, 0.02873622249548334],
    "Z/continuum/w1": [0.727085215691729, 0.014734130558399056],
    "Z/continuum_d2/w1": [0.7998089265659875, 0.012957474027660149],
    "gamma/p1/R0/w1": [0.2504177501355478, 0.007076056322928551,
        0.8090326630694946, 0.01613913966309892],
    "gamma/p2/R0/w1": [0.35579343726121954, 0.013212888398611646,
        0.8090326630694946, 0.01613913966309892],
    "gamma/p1/R1/w1": [0.05250083512597883, 0.00846635873756816,
        0.582827696632063, 0.03480176993575771],
    "gamma/p2/R1/w1": [0.058134037192756456, 0.018082602217762766,
        0.582827696632063, 0.03480176993575771],
    "logz/w1": [1.3941052647064178, -0.09200163919559141,
        0.009458196088110896, 0.007214260572681493, 0.007570144152119428,
        0.0010017042254265925, 94.07522683522366, 94.09189636021401,
        90.04266601686018, 0.0031578739422431635, 0.0008313738349656134,
        -0.29634943814307335],
    "Z/grid/w3": [0.7968559036369391, 0.013561672546594036],
    "Z/grid_d2/w3": [0.8077518811422383, 0.013174599733630946],
    "Z/grid_offgrid/w3": [0.03894973478594601, 0.007996589620323345],
    "Z/grid_R1/w3": [0.5664630265140422, 0.02845920360950202],
    "Z/continuum/w3": [0.7083556641184917, 0.015331421904680584],
    "Z/continuum_d2/w3": [0.7867248057959132, 0.012674379401012717],
    "gamma/p1/R0/w3": [0.2274693298517637, 0.006921493951399315,
        0.780013951066046, 0.0167742366892193],
    "gamma/p2/R0/w3": [0.3345576857491067, 0.014205708445371876,
        0.780013951066046, 0.0167742366892193],
    "gamma/p1/R1/w3": [0.05457831016975715, 0.009237820876334622,
        0.5035207430663265, 0.035341039807092973],
    "gamma/p2/R1/w3": [0.0732166457193825, 0.022026900785273376,
        0.5035207430663265, 0.035341039807092973],
    "logz/w3": [1.394812304886072, -0.08870754338319657,
        0.012417540930685103, 0.008578432139678287, 0.006964281614830235,
        0.0015273599546335162, 91.86023664873238, 93.83153402518282,
        91.46366005875318, 0.0029672795703184706, 0.0004386797416942943,
        -0.28938895730845005],
}

# The controlled estimates of the same runs (the plain ones are in
# GOLDEN).  The kernel runs move their open paths, so they take the four
# background controls, and 200 samples reach the fold minimum; the
# cluster's order 1 takes S and orders 2 and 3 take S and V, and 100
# samples reach the minimum (logz: the orders' means, then their SEs,
# then log Z).
CONTROLLED_GOLDEN = {
    "Z/grid/w1": [0.7843656647292315, 0.002617960578509912],
    "Z/grid_d2/w1": [0.8178962560559006, 0.0028717907472477038],
    "Z/grid_offgrid/w1": [0.044470269381526165, 0.007007360021579735],
    "Z/grid_R1/w1": [0.5277792377945194, 0.01928604935464024],
    "Z/continuum/w1": [0.7195016738957914, 0.0036283113190356663],
    "Z/continuum_d2/w1": [0.7996822588091287, 0.0032293960990732143],
    "Z/grid/w3": [0.7873626756377534, 0.0022834997876277703],
    "Z/grid_d2/w3": [0.817268955795061, 0.0032202536841826183],
    "Z/grid_offgrid/w3": [0.0405470575957904, 0.006102603118216875],
    "Z/grid_R1/w3": [0.5499660903075584, 0.016619381408894074],
    "Z/continuum/w3": [0.7222918614787984, 0.0034272799508669144],
    "Z/continuum_d2/w3": [0.7947779153413181, 0.0031107326340723625],
    "gamma/p1/R0/w1": [0.2474877926862453, 0.006605066502743168],
    "gamma/p2/R0/w1": [0.35139535077147227, 0.012725262458092456],
    "gamma/p1/R1/w1": [0.04861201963666704, 0.008171677408913674],
    "gamma/p2/R1/w1": [0.055625321016240015, 0.01821593874929415],
    "gamma/p1/R0/w3": [0.2263838862358325, 0.00659303744768102],
    "gamma/p2/R0/w3": [0.3406277391281017, 0.01343964450057591],
    "gamma/p1/R1/w3": [0.0534081808059268, 0.008903504545824593],
    "gamma/p2/R1/w3": [0.07031011136217831, 0.021775251536498747],
    "logz/w1": [1.3989523548443037, -0.08403202817183805,
        0.012132437755431462, 0.0028693331504943925, 0.006391542141110674,
        0.000794195490900037, -0.28085849531411355],
    "logz/w3": [1.3969221973677723, -0.0868639151424442,
        0.012057883961575006, 0.00309933057850449, 0.007741341627090276,
        0.001037502141129492, -0.28579509355510746],
}


@pytest.mark.parametrize("workers", [1, 3])
def test_estimators_reproduce_recorded_values(workers):
    from loopgas.cluster import log_Z_via_expansion
    got, controlled = {}, {}
    for name, spec in (("grid", _golden_grid()),
                       ("grid_d2", _golden_grid(d=2, L=2)),
                       ("grid_offgrid", _golden_grid(L=4, nu=0.1, lam=0.3)),
                       ("grid_R1", _golden_grid(R=1)),
                       ("continuum", _golden_continuum()),
                       ("continuum_d2", _golden_continuum(d=2, L=2, eps=0.2))):
        est = estimate_rel_partition(spec, 300, seed=11, workers=workers)
        got[f"Z/{name}"] = [est.metadata["plain_mean"],
                            est.metadata["plain_se"]]
        controlled[f"Z/{name}"] = [est.mean, est.std_error]
    for p, R in ((1, 0), (2, 0), (1, 1), (2, 1)):
        xs, ys = ([0], [1]) if p == 1 else ([0, 1], [1, 0])
        est = estimate_gamma_p(_golden_grid(R=R), p, xs, ys, 200, seed=5,
                               workers=workers)
        got[f"gamma/p{p}/R{R}"] = [est.metadata["plain_mean"],
                                   est.metadata["plain_se"],
                                   est.metadata["denominator"],
                                   est.metadata["denominator_se"]]
        assert len(est.metadata["beta"][0]) == 4
        controlled[f"gamma/p{p}/R{R}"] = [est.mean, est.std_error]
    rep = log_Z_via_expansion(_golden_grid(lam=None, mode="meanfield"), 3,
                              100, seed=123, workers=workers)
    got["logz"] = (rep["plain_means"] + rep["plain_std_errors"] + rep["ess"]
                   + [rep["remainder"], rep["remainder_se"],
                      sum(rep["plain_means"]) - rep["X0"]])
    controlled["logz"] = rep["means"] + rep["std_errors"] + [rep["log_Z"]]
    for key, values in got.items():
        ref = GOLDEN[f"{key}/w{workers}"]
        assert len(values) == len(ref)
        assert all(_close(a, b) for a, b in zip(values, ref)), key
    for key, values in controlled.items():
        ref = CONTROLLED_GOLDEN[f"{key}/w{workers}"]
        assert all(_close(a, b) for a, b in zip(values, ref)), key


# -- control variates ------------------------------------------------------------

@pytest.mark.parametrize("spec", [_grid_spec(), _golden_continuum()],
                         ids=["grid", "continuum"])
def test_background_controls_have_their_exact_means(spec):
    '''The sample means of K, K^2, S, S^2 over 10^5 drawn backgrounds
    against _background_means: |z| < 4 each.'''
    _, _, controls = _draw_background(spec.intensity,
                                      [np.random.default_rng(5)], [10 ** 5])
    controls = np.array(controls, dtype=float).T
    z = ((controls.mean(axis=0) - _background_means(spec.intensity))
         / (controls.std(axis=0, ddof=1) / math.sqrt(len(controls))))
    assert np.all(np.abs(z) < 4.0), z


@pytest.mark.parametrize("n", [300, 301])
def test_control_step_is_the_cross_fitted_regression(n):
    '''_control_step against a direct computation: beta of each fold by
    least squares on the other fold, the adjusted samples, their mean
    and SE on n - 1 - k degrees of freedom.  A control that copies an
    earlier one leaves the fit as it is, and k counts it out.'''
    rng = np.random.default_rng(n)
    x = rng.random((4, n))
    x = np.vstack((x, x[1]))
    y = x[0] + 2.0 * x[1] + 0.1 * rng.random(n)
    means = np.full(5, 0.5)

    def beta(f):
        dx = x[:, f::2] - x[:, f::2].mean(axis=1)[:, None]
        return np.linalg.lstsq(dx.T, y[f::2] - y[f::2].mean(),
                               rcond=None)[0]

    center = y.mean()
    betas = [beta(1), beta(0)]
    adjusted = np.empty(n)
    for f in (0, 1):
        adjusted[f::2] = y[f::2] - center - betas[f] @ (x[:, f::2] - 0.5)
    delta, se, got = _control_step(y, center, x, means)
    assert delta == pytest.approx(adjusted.mean(), abs=1e-14)
    assert se == pytest.approx(adjusted.std(ddof=5) / math.sqrt(n), rel=1e-12)
    # the copy is left out (beta 0) and its original takes the share
    # that least squares splits between the two
    got = np.array(got)
    assert np.all(got[:, 4] == 0.0)
    betas = np.array(betas)
    betas[:, 1] += betas[:, 4]
    assert np.allclose(got[:, :4], betas[:, :4], rtol=0, atol=1e-12)


@functools.lru_cache(maxsize=None)
def _ginibre_z_exact():
    from loopgas.quantum_oracle import grand_sum
    res, K = grand_sum(_grid_spec().params, 1)
    return res.Z_rel, K[0, 0]


def _pooled_check(estimates, exact):
    '''(pooled z against exact, empirical variance over the mean
    reported SE^2) of a list of estimates.'''
    means = np.array([e.mean for e in estimates])
    se2 = np.array([e.std_error ** 2 for e in estimates])
    pooled_se = math.sqrt(se2.sum()) / len(means)
    return (means.mean() - exact) / pooled_se, means.var(ddof=1) / se2.mean()


def test_controlled_estimates_are_calibrated_on_ginibre_z_physics():
    '''300 seeded requests of Z and Gamma_1(0, 0) (1000 samples each) on
    the physics of configs/ginibre_z.json, against the exact oracle:
    pooled |z| < 4 and an empirical variance within [0.8, 1.25] of the
    mean reported SE^2, each at a mean SE^2 well below the plain one.'''
    spec = _grid_spec()
    z_exact, gamma_exact = _ginibre_z_exact()
    zs = [estimate_rel_partition(spec, 1000, seed) for seed in range(300)]
    gammas = [estimate_gamma_p(spec, 1, [0], [0], 1000, seed)
              for seed in range(300)]
    for estimates, exact in ((zs, z_exact), (gammas, gamma_exact)):
        pooled_z, spread = _pooled_check(estimates, exact)
        assert abs(pooled_z) < 4.0 and 0.8 <= spread <= 1.25, (pooled_z,
                                                                spread)
        ratio = np.mean([e.metadata["variance_ratio"] for e in estimates])
        assert ratio < 0.3


@pytest.mark.parametrize("n, workers, R", [
    (2, 1, 0), (3, 1, 1), (4, 2, 0), (5, 3, 1), (7, 3, 0), (11, 3, 1)])
def test_too_few_samples_give_the_plain_estimate(n, workers, R):
    '''Below 25 samples per control in a fold the estimates are the
    plain ones, bit for bit and without a warning, for Z and a kernel,
    with and without the hard core.'''
    spec = _hard_core_spec(3, 0.5, "generic") if R else _grid_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = [estimate_rel_partition(spec, n, 3, workers)]
        try:
            estimates.append(estimate_gamma_p(spec, 1, [0], [0], n, 3,
                                              workers))
        except ArithmeticError:     # a denominator within 3 SE of 0
            pass
    for est in estimates:
        meta = est.metadata
        assert meta["beta"] is None and meta["variance_ratio"] == 1.0
        assert (est.mean, est.std_error) == (meta["plain_mean"],
                                             meta["plain_se"])


def test_the_fold_minimum_is_25_samples_per_control():
    spec = _grid_spec()
    assert estimate_rel_partition(spec, 199, 1).metadata["beta"] is None
    assert estimate_rel_partition(spec, 200, 1).metadata["beta"] is not None
    assert estimate_gamma_p(spec, 1, [0], [0], 299, 1).metadata[
        "beta"] is None
    assert estimate_gamma_p(spec, 1, [0], [0], 300, 1).metadata[
        "beta"] is not None
    # a kernel whose open path moves takes the four background controls
    assert estimate_gamma_p(spec, 1, [0], [1], 199, 1).metadata[
        "beta"] is None
    assert estimate_gamma_p(spec, 1, [0], [1], 200, 1).metadata[
        "beta"] is not None


def test_a_moving_kernel_takes_the_background_controls_only():
    '''The open-path durations are controls only where no open path
    moves: Gamma_1(0, 0), not Gamma_1(0, 1) or Gamma_2((0, 1), (0, 1)),
    whose transposition moves both paths.'''
    spec = _grid_spec()
    for p, xs, ys, names in (
            (1, [0], [0], ["K", "K^2", "S", "S^2", "T_open", "T_open^2"]),
            (1, [0], [1], ["K", "K^2", "S", "S^2"]),
            (2, [0, 1], [0, 1], ["K", "K^2", "S", "S^2"])):
        meta = estimate_gamma_p(spec, p, xs, ys, 400, 2).metadata
        assert meta["controls"] == names
        assert [len(beta) for beta in meta["beta"]] == [len(names)] * 2


def test_a_moving_kernel_is_calibrated():
    '''300 seeded requests of the off-diagonal Gamma_1(0, 1) (300
    samples each) on the golden grid, against the exact oracle: pooled
    |z| < 4 and an empirical variance within [0.8, 1.25] of the mean
    reported SE^2.'''
    from loopgas.quantum_oracle import grand_sum
    spec = _golden_grid()
    _, K = grand_sum(spec.params, 1)
    estimates = [estimate_gamma_p(spec, 1, [0], [1], 300, seed)
                 for seed in range(300)]
    assert all(e.metadata["beta"] is not None for e in estimates)
    pooled_z, spread = _pooled_check(estimates, K[0, 1])
    assert abs(pooled_z) < 4.0 and 0.8 <= spread <= 1.25, (pooled_z, spread)


def test_hard_core_estimates_take_the_controls():
    '''Under the hard core (R = 1) the controls keep their exact means:
    Z and Gamma_1(0, 0) from the controlled step, against the oracle at
    3 sigma, each with a smaller SE than the plain one.'''
    from loopgas.quantum_oracle import grand_sum
    spec = _hard_core_spec(3, 0.5, "generic")
    w = np.exp(-0.5 * (spec.intensity.kappa + spec.torus.rates))
    res, K = grand_sum(spec.params, 1)
    z = estimate_rel_partition(spec, 4000, 9, 2)
    gamma = estimate_gamma_p(spec, 1, [0], [0], 4000, 9, 2)
    for est, exact in ((z, res.Xi * float(np.prod(1.0 - w))),
                       (gamma, K[0, 0])):
        assert est.metadata["beta"] is not None
        assert est.std_error < est.metadata["plain_se"]
        assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_mass_zero_takes_the_plain_estimate():
    '''No loop at all (kappa = 1e6): every background control is 0, so
    the estimate is the plain Z = 1, without a warning.'''
    spec = _grid_spec(kappa=1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_rel_partition(spec, 400, 1)
    assert spec.intensity.total_mass == 0.0
    assert est.metadata["beta"] is None
    assert est.mean == 1.0 and est.std_error == 0.0


@pytest.mark.parametrize("workers", [1, 3])
def test_controlled_estimates_are_bit_identical_per_seed_and_workers(
        workers):
    spec = _golden_continuum()
    for run in (lambda: estimate_rel_partition(spec, 400, 21, workers),
                lambda: estimate_gamma_p(spec, 1, [0], [1], 400, 21,
                                         workers)):
        a, b = run(), run()
        assert a.metadata["beta"] is not None
        assert a.to_dict() == b.to_dict()
