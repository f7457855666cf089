'''Path containers, free-walk sampling, duration laws, loop intensities.'''

import math

import numpy as np
import pytest

from loopgas.lattice import HeatKernel, Torus
from loopgas.paths import (
    GinibreDurationLaw, LoopBatch, LoopIntensity, Path, SymanzikDurationLaw,
    open_path_weighted_sample, sample_free_walk)

import loop_reference


def test_path_evaluation_and_local_time():
    p = Path(0, 2.0, np.array([0.5, 1.25]), np.array([1, 2]))
    assert p.position(0.0) == 0
    assert p.position(0.5) == 1          # right continuous
    assert p.position(2.0) == 2
    assert p.end == 2 and not p.is_constant
    assert p.local_time(0) == pytest.approx(0.5)
    assert p.local_time(1) == pytest.approx(0.75)
    tab = p.local_time_table(4)
    assert tab.sum() == pytest.approx(p.duration)
    assert tab[3] == 0.0


def test_path_serialization_roundtrip():
    rng = np.random.default_rng(3)
    torus = Torus(2, 3)
    for _ in range(20):
        p = sample_free_walk(torus, 4, 1.7, rng)
        q = Path.from_line(p.to_line())
        assert q.start == p.start and q.duration == p.duration
        assert np.array_equal(q.jump_times, p.jump_times)
        assert np.array_equal(q.jump_sites, p.jump_sites)


def test_free_walk_endpoint_distribution():
    # endpoint law of the rate-d walk is the heat kernel (3 sigma)
    torus = Torus(1, 3)
    hk = HeatKernel(torus)
    t = 0.8
    n = 20000
    rng = np.random.default_rng(7)
    counts = np.zeros(torus.n_sites)
    for _ in range(n):
        counts[sample_free_walk(torus, 0, t, rng).end] += 1
    probs = hk.table(t)[torus.diff_table[:, 0]]
    for s in range(torus.n_sites):
        se = math.sqrt(probs[s] * (1 - probs[s]) / n)
        assert abs(counts[s] / n - probs[s]) <= 3.0 * se


def test_free_walk_l1_never_jumps():
    rng = np.random.default_rng(1)
    p = sample_free_walk(Torus(1, 1), 0, 5.0, rng)
    assert p.is_constant


def test_duration_laws_normalization_and_support():
    rng = np.random.default_rng(5)
    g = GinibreDurationLaw(nu=0.5, kappa=1.0)
    a = math.exp(-0.5)
    assert g.normalization == pytest.approx(a / (1 - a))
    T = g.sample(rng, size=1000)
    k = T / 0.5
    assert np.all(np.abs(k - np.round(k)) < 1e-12) and np.all(k >= 1)
    # geometric law check: P(k=1) = 1 - a
    assert abs(np.mean(k == 1) - (1 - a)) < 3 * math.sqrt(a * (1 - a) / 1000)
    s = SymanzikDurationLaw(kappa=2.0)
    assert s.normalization == pytest.approx(0.5)
    T = s.sample(rng, size=2000)
    assert abs(np.mean(T) - 0.5) < 3 * 0.5 / math.sqrt(2000)


def test_loop_intensity_mass_ginibre():
    torus = Torus(1, 3)
    hk = HeatKernel(torus)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    direct = sum(math.exp(-0.5 * k) * float(hk.at_origin(0.5 * k))
                 * torus.n_sites / k for k in range(1, 200))
    assert intensity.total_mass == pytest.approx(direct, abs=1e-10)


def test_loop_intensity_mass_symanzik():
    from scipy import integrate
    torus = Torus(1, 3)
    hk = HeatKernel(torus)
    eps = 0.1
    intensity = LoopIntensity(torus, "symanzik_eps", kappa=1.0, eps=eps)
    val, _ = integrate.quad(
        lambda t: math.exp(-t) * float(hk.at_origin(t)) * torus.n_sites / t,
        eps, 60.0, limit=400)
    assert intensity.total_mass == pytest.approx(val, rel=1e-8)


def test_loop_intensity_duration_law():
    # ginibre durations follow e^{-kappa T} psi^T(0)/T on the grid
    torus = Torus(1, 3)
    hk = HeatKernel(torus)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    rng = np.random.default_rng(11)
    T = intensity.sample_duration(rng, size=20000)
    w1 = math.exp(-0.5) * float(hk.at_origin(0.5)) * 3
    p1 = w1 / intensity.total_mass
    frac = np.mean(np.abs(T - 0.5) < 1e-12)
    assert abs(frac - p1) < 3 * math.sqrt(p1 * (1 - p1) / 20000)


def test_sample_loop_is_closed_and_uniform_base():
    torus = Torus(1, 3)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    rng = np.random.default_rng(13)
    starts = np.zeros(torus.n_sites)
    for _ in range(3000):
        loop = intensity.sample_loop(rng)
        assert loop.end == loop.start
        starts[loop.start] += 1
    p = 1.0 / torus.n_sites
    assert np.all(np.abs(starts / 3000 - p) < 3 * math.sqrt(p * (1 - p) / 3000))


def test_open_path_weighted_sample_heat_kernel_identity():
    # E[indicator * 1] * normalization = sum_T e^{-kappa T} psi^T(y - x)
    torus = Torus(1, 3)
    hk = HeatKernel(torus)
    law = GinibreDurationLaw(nu=0.5, kappa=1.0)
    target = sum(math.exp(-0.5 * k)
                 * hk.table(0.5 * k)[torus.diff_table[1, 0]]
                 for k in range(1, 200))
    rng = np.random.default_rng(17)
    n = 40000
    vals = np.empty(n)
    for i in range(n):
        val, norm = open_path_weighted_sample(torus, 0, 1, law, rng,
                                              lambda w: 1.0)
        vals[i] = val * norm
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - target) <= 3.0 * se


def test_intensity_rejects_bad_arguments():
    torus = Torus(1, 3)
    with pytest.raises(ValueError):
        LoopIntensity(torus, "ginibre", kappa=1.0)
    with pytest.raises(ValueError):
        LoopIntensity(torus, "symanzik_eps", kappa=1.0)
    with pytest.raises(ValueError):
        LoopIntensity(torus, "other", kappa=1.0, nu=0.5)
    with pytest.raises(ValueError):
        sample_free_walk(torus, 0, 0.0, np.random.default_rng(0))


# -- the lean walk keeps the stream of the per-jump reference --------------------

def _same_path(p, q):
    return (p.start == q.start and p.duration == q.duration
            and np.array_equal(p.jump_times, q.jump_times)
            and np.array_equal(p.jump_sites, q.jump_sites)
            and p.jump_sites.dtype == q.jump_sites.dtype)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_walk_and_loop_keep_the_reference_stream(d, L):
    '''Over many seeds, sample_free_walk and sample_loop (ginibre and
    symanzik) give the reference's paths, and the generator state is the
    same after every draw.'''
    torus = Torus(d, L)
    intensities = [LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5),
                   LoopIntensity(torus, "symanzik_eps", kappa=1.0, eps=0.1)]
    for seed in range(40):
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(12):
            x, T = i % torus.n_sites, 0.25 + 0.5 * i
            assert _same_path(sample_free_walk(torus, x, T, new),
                              loop_reference.sample_free_walk(torus, x, T,
                                                              ref))
            assert new.bit_generator.state == ref.bit_generator.state
            for intensity in intensities:
                loop = intensity.sample_loop(new)
                assert _same_path(loop,
                                  loop_reference.sample_loop(intensity, ref)[0])
                assert new.bit_generator.state == ref.bit_generator.state


def test_loop_batch_layout():
    '''Configurations in draw order, CSR offsets into the flat jumps.'''
    torus = Torus(2, 3)
    rng = np.random.default_rng(4)
    configs = [[sample_free_walk(torus, 1, 1.5, rng), Path(2, 0.5)], [],
               [sample_free_walk(torus, 5, 2.0, rng)]]
    batch = LoopBatch.from_paths(configs)
    loops = [p for config in configs for p in config]
    assert batch.n_configs == 3
    assert batch.config.tolist() == [0, 0, 2]
    assert batch.start.tolist() == [p.start for p in loops]
    assert batch.duration.tolist() == [p.duration for p in loops]
    for i, p in enumerate(loops):
        lo, hi = batch.offsets[i], batch.offsets[i + 1]
        assert np.array_equal(batch.times[lo:hi], p.jump_times)
        assert np.array_equal(batch.sites[lo:hi], p.jump_sites)
    assert batch.offsets[-1] == len(batch.times) == len(batch.sites)
