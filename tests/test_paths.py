'''Path containers, the free walk, loop intensities and their open-path
laws.'''

import math

import numpy as np
import pytest

from loopgas.lattice import HeatKernel, Torus
from loopgas.paths import LoopBatch, LoopIntensity, Path, walk

import loop_reference


def test_path_evaluation_and_local_time():
    p = Path(0, 2.0, np.array([0.5, 1.25]), np.array([1, 2]))
    assert p.position(0.0) == 0
    assert p.position(0.5) == 1          # right continuous
    assert p.position(2.0) == 2
    assert p.end == 2 and not p.is_constant
    tab = p.local_time_table(4)
    assert tab[0] == pytest.approx(0.5) and tab[1] == pytest.approx(0.75)
    assert tab.sum() == pytest.approx(p.duration)
    assert tab[3] == 0.0


def test_free_walk_endpoint_distribution():
    # endpoint law of the rate-d walk is the heat kernel (3 sigma)
    torus = Torus(1, 3)
    hk = HeatKernel(torus)
    t = 0.8
    n = 20000
    rng = np.random.default_rng(7)
    counts = np.zeros(torus.n_sites)
    for _ in range(n):
        counts[walk(torus, 0, t, rng)[0]] += 1
    probs = hk.table(t)[torus.diff_table[:, 0]]
    for s in range(torus.n_sites):
        se = math.sqrt(probs[s] * (1 - probs[s]) / n)
        assert abs(counts[s] / n - probs[s]) <= 3.0 * se


def test_free_walk_l1_never_jumps():
    rng = np.random.default_rng(1)
    end, times, sites = walk(Torus(1, 1), 0, 5.0, rng)
    assert end == 0 and len(times) == 0 and sites == []


def test_duration_laws_normalization_and_support():
    rng = np.random.default_rng(5)
    torus = Torus(1, 3)
    g = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    a = math.exp(-0.5)
    assert g.open_normalization == pytest.approx(a / (1 - a))
    T = np.array([g.open_duration(rng) for _ in range(1000)])
    k = T / 0.5
    assert np.all(np.abs(k - np.round(k)) < 1e-12) and np.all(k >= 1)
    # geometric law check: P(k=1) = 1 - a
    assert abs(np.mean(k == 1) - (1 - a)) < 3 * math.sqrt(a * (1 - a) / 1000)
    s = LoopIntensity(torus, "symanzik_eps", kappa=2.0, eps=0.1)
    assert s.open_normalization == pytest.approx(0.5)
    T = np.array([s.open_duration(rng) for _ in range(2000)])
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
        x, _, _, sites, _ = intensity.draw(rng)
        assert (sites[-1] if sites else x) == x
        starts[x] += 1
    p = 1.0 / torus.n_sites
    assert np.all(np.abs(starts / 3000 - p) < 3 * math.sqrt(p * (1 - p) / 3000))


def test_open_path_weighted_sample_heat_kernel_identity():
    # E[indicator * 1] * normalization = sum_T e^{-kappa T} psi^T(y - x)
    torus = Torus(1, 3)
    hk = HeatKernel(torus)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    target = sum(math.exp(-0.5 * k)
                 * hk.table(0.5 * k)[torus.diff_table[1, 0]]
                 for k in range(1, 200))
    rng = np.random.default_rng(17)
    n = 40000
    vals = np.empty(n)
    for i in range(n):
        end = walk(torus, 0, intensity.open_duration(rng), rng)[0]
        vals[i] = (end == 1) * intensity.open_normalization
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


# -- the samplers keep the stream of the per-jump references ---------------------

def _path(x, T, times, sites):
    return Path(x, T, times, np.array(sites, dtype=np.int64))


def _same_path(p, q):
    return (p.start == q.start and p.duration == q.duration
            and np.array_equal(p.jump_times, q.jump_times)
            and np.array_equal(p.jump_sites, q.jump_sites)
            and p.jump_sites.dtype == q.jump_sites.dtype)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_walk_and_loop_keep_the_reference_stream(d, L):
    '''Over many seeds, walk, LoopIntensity.draw and open_duration (ginibre
    and symanzik) give the reference's paths, walk counts and durations,
    and the generator state is the same after every draw.'''
    torus = Torus(d, L)
    intensities = [LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5),
                   LoopIntensity(torus, "symanzik_eps", kappa=1.0, eps=0.1)]
    for seed in range(40):
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(12):
            x, T = i % torus.n_sites, 0.25 + 0.5 * i
            end, times, sites = walk(torus, x, T, new)
            path = loop_reference.sample_free_walk(torus, x, T, ref)
            assert end == path.end
            assert _same_path(_path(x, T, times, sites), path)
            assert new.bit_generator.state == ref.bit_generator.state
            for intensity in intensities:
                x0, T0, times, sites, walks = intensity.draw(new)
                loop, ref_walks = loop_reference.sample_loop(intensity, ref)
                assert _same_path(_path(x0, T0, times, sites), loop)
                assert walks == ref_walks
                assert new.bit_generator.state == ref.bit_generator.state
                assert (intensity.open_duration(new)
                        == loop_reference.open_duration(intensity, ref))
                assert new.bit_generator.state == ref.bit_generator.state


def test_loop_batch_layout():
    '''Configurations in draw order, CSR offsets into the flat jumps.'''
    torus = Torus(2, 3)
    rng = np.random.default_rng(4)
    configs = [[loop_reference.sample_free_walk(torus, 1, 1.5, rng),
                Path(2, 0.5)], [],
               [loop_reference.sample_free_walk(torus, 5, 2.0, rng)]]
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
