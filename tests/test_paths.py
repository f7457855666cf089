'''Path containers, the free walk, loop intensities and their open-path
laws.'''

import math

import numpy as np
import pytest
from scipy import integrate

from loopgas.lattice import HeatKernel, Torus
from loopgas.paths import LoopBatch, LoopIntensity, Path, walks

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
    end, _ = walks(torus, np.zeros(n, dtype=np.int64), np.full(n, t), rng)
    counts = np.bincount(end, minlength=torus.n_sites)
    probs = hk.table(t)[torus.diff_table[:, 0]]
    for s in range(torus.n_sites):
        se = math.sqrt(probs[s] * (1 - probs[s]) / n)
        assert abs(counts[s] / n - probs[s]) <= 3.0 * se


def test_free_walk_l1_never_jumps():
    rng = np.random.default_rng(1)
    end, batch = walks(Torus(1, 1), np.zeros(4, dtype=np.int64),
                       np.full(4, 5.0), rng)
    assert end.tolist() == [0] * 4 and batch.config.tolist() == [0, 1, 2, 3]
    assert len(batch.times) == len(batch.sites) == 0
    assert batch.offsets.tolist() == [0] * 5


def test_duration_laws_normalization_and_support():
    rng = np.random.default_rng(5)
    torus = Torus(1, 3)
    g = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    a = math.exp(-0.5)
    assert g.open_normalization == pytest.approx(a / (1 - a))
    T = g.open_duration(rng, 1000)
    k = T / 0.5
    assert np.all(np.abs(k - np.round(k)) < 1e-12) and np.all(k >= 1)
    # geometric law check: P(k=1) = 1 - a
    assert abs(np.mean(k == 1) - (1 - a)) < 3 * math.sqrt(a * (1 - a) / 1000)
    s = LoopIntensity(torus, "symanzik_eps", kappa=2.0, eps=0.1)
    assert s.open_normalization == pytest.approx(0.5)
    T = s.open_duration(rng, 2000)
    assert abs(np.mean(T) - 0.5) < 3 * 0.5 / math.sqrt(2000)


def test_loop_intensity_mass_ginibre():
    torus = Torus(1, 3)
    hk = HeatKernel(torus)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    direct = sum(math.exp(-0.5 * k) * float(hk.at_origin(0.5 * k))
                 * torus.n_sites / k for k in range(1, 200))
    assert intensity.total_mass == pytest.approx(direct, abs=1e-10)


def test_loop_intensity_mass_symanzik():
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


def _chi2_ok(counts, probs, df_slack=4.0):
    '''Pearson chi-square of counts against probs (merged into cells of
    expected count >= 5) below df + df_slack sqrt(2 df).'''
    n = counts.sum()
    exp = n * np.asarray(probs)
    order = np.argsort(-exp)
    cells_o, cells_e, acc_o, acc_e = [], [], 0.0, 0.0
    for k in order:
        acc_o += counts[k]
        acc_e += exp[k]
        if acc_e >= 5:
            cells_o.append(acc_o)
            cells_e.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e and cells_e:
        cells_o[-1] += acc_o
        cells_e[-1] += acc_e
    cells_o, cells_e = np.array(cells_o), np.array(cells_e)
    chi2 = float(((cells_o - cells_e) ** 2 / cells_e).sum())
    df = len(cells_e) - 1
    return chi2 <= df + df_slack * math.sqrt(2 * df), chi2, df


def test_sample_loop_is_closed_and_uniform_base():
    '''draw_batch: every loop closes, base sites are uniform (3 sigma),
    and durations follow e^{-kappa T} psi^T(0)/T (chi-square), for the
    grid and the continuum laws.'''
    torus = Torus(2, 3)
    n = 20000
    for intensity in (LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5),
                      LoopIntensity(torus, "symanzik_eps", kappa=1.0,
                                    eps=0.1)):
        rng = np.random.default_rng(13)
        batch, _ = intensity.draw_batch(rng, n)
        assert batch.config.tolist() == list(range(n))
        ends = np.where(np.diff(batch.offsets) > 0,
                        np.concatenate((batch.sites, [0]))[
                            np.maximum(batch.offsets[1:] - 1, 0)],
                        batch.start)
        assert np.array_equal(ends, batch.start)
        assert np.all(np.diff(batch.times)[
            np.diff(np.repeat(np.arange(n), np.diff(batch.offsets))) == 0] > 0)
        starts = np.bincount(batch.start, minlength=torus.n_sites)
        p = 1.0 / torus.n_sites
        assert np.all(np.abs(starts / n - p) < 3 * math.sqrt(p * (1 - p) / n))
        hk, kappa = intensity.hk, intensity.kappa
        if intensity.kind == "ginibre":
            k = np.arange(1, intensity.metadata["k_max"] + 1)
            probs = np.array([math.exp(-kappa * 0.5 * j)
                              * hk.table(0.5 * j)[0] / j for j in k])
            probs /= probs.sum()
            counts = np.bincount(
                np.round(batch.duration / 0.5).astype(np.int64) - 1,
                minlength=len(k))
        else:
            # 20 bins of the law's own quadrature probability
            edges = np.interp(np.linspace(0, 1, 21), intensity._cdf,
                              intensity._grid)
            probs = np.array([integrate.quad(
                lambda t: math.exp(-kappa * t) * hk.table(t)[0] / t,
                lo, hi)[0] for lo, hi in zip(edges, edges[1:])])
            probs /= intensity.total_mass / torus.n_sites
            counts = np.histogram(batch.duration, edges)[0]
        ok, chi2, df = _chi2_ok(counts, probs)
        assert ok, (intensity.kind, chi2, df)


@pytest.mark.parametrize("d,L", [(1, 3), (2, 3), (1, 4)])
def test_walks_per_loop_match_the_bridge_acceptance(d, L):
    '''Walks per loop estimate E[1/psi^{L,T}(0)] under the duration law
    (the mean of a geometric count), within 3 sigma of its value.'''
    torus = Torus(d, L)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    acc = intensity.hk.at_origin(intensity._durations)
    mean = float(intensity._probs @ (1 / acc))
    second = float(intensity._probs @ ((2 - acc) / acc ** 2))
    n = 20000
    _, n_walks = intensity.draw_batch(np.random.default_rng(31), n)
    se = math.sqrt((second - mean ** 2) / n)
    assert abs(n_walks / n - mean) <= 3 * se, (n_walks / n, mean, se)


def test_bridge_budget_raises():
    torus = Torus(1, 3)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    intensity.MAX_WALKS = 1
    with pytest.raises(RuntimeError, match="bridge rejection budget"):
        intensity.draw_batch(np.random.default_rng(0), 200)


def test_grid_law_refuses_truncation():
    '''kappa nu = 1e-4: the law would need more than MAX_TERMS durations
    for its tail bound, and is refused instead of truncated.'''
    with pytest.raises(ValueError, match="kappa \\* nu"):
        LoopIntensity(Torus(1, 3), "ginibre", kappa=1e-3, nu=0.1)
    LoopIntensity(Torus(1, 3), "ginibre", kappa=1e-2, nu=0.1)


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
    T = intensity.open_duration(rng, n)
    end, _ = walks(torus, np.zeros(n, dtype=np.int64), T, rng)
    vals = (end == 1) * intensity.open_normalization
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

def _same_path(p, q):
    return (p.start == q.start and p.duration == q.duration
            and np.array_equal(p.jump_times, q.jump_times)
            and np.array_equal(p.jump_sites, q.jump_sites)
            and p.jump_sites.dtype == q.jump_sites.dtype)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_walk_and_loop_keep_the_reference_stream(d, L):
    '''Over many seeds, walks (with and without targets), draw_batch and
    open_duration (ginibre and symanzik) give the per-path reference's
    paths, walk counts and durations, and the generator state is the
    same after every draw.'''
    torus = Torus(d, L)
    intensities = [LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5),
                   LoopIntensity(torus, "symanzik_eps", kappa=1.0, eps=0.1)]
    for seed in range(40):
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        x = np.arange(12) % torus.n_sites
        T = 0.25 + 0.5 * np.arange(12)
        for target in (None, (x + seed) % torus.n_sites):
            end, batch = walks(torus, x, T, new, target)
            ref_end, paths = loop_reference.walks(torus, x, T, ref, target)
            assert end.tolist() == ref_end
            assert batch.config.tolist() == [
                k for k, path in enumerate(paths) if path is not None]
            assert _same_paths(batch, [path for path in paths if path])
            assert new.bit_generator.state == ref.bit_generator.state
        for intensity in intensities:
            n = seed % 7
            batch, n_walks = intensity.draw_batch(new, n)
            loops, ref_walks = loop_reference.draw_batch(intensity, ref, n)
            assert batch.config.tolist() == list(range(n))
            assert _same_paths(batch, loops)
            assert n_walks == ref_walks
            assert new.bit_generator.state == ref.bit_generator.state
            assert (intensity.open_duration(new, 5).tolist()
                    == loop_reference.open_duration(intensity, ref, 5))
            assert new.bit_generator.state == ref.bit_generator.state


def _same_paths(batch, paths):
    '''The LoopBatch holds the paths, in order, with the same dtypes.'''
    counts = np.diff(batch.offsets)
    return (batch.times.dtype == np.float64 and batch.sites.dtype == np.int64
            and len(paths) == len(batch.start)
            and all(_same_path(Path(int(batch.start[i]),
                                    float(batch.duration[i]),
                                    batch.times[lo:lo + counts[i]],
                                    batch.sites[lo:lo + counts[i]]), p)
                    for i, (lo, p) in enumerate(zip(batch.offsets, paths))))


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
