'''Path containers, exact bridges, loop intensities and the open-path
law of the kernel estimates.'''

import collections
import decimal
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from loopgas.lattice import Torus
from loopgas import paths
from loopgas.loop_mc import _OpenPaths
from loopgas.paths import (LoopBatch, LoopIntensity, _first_cell_masses,
                           _table_cut, bridges)

import loop_reference
from loop_reference import Path, from_paths, residue_table


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


def _open_durations(intensity, n, seed):
    '''n open-path durations of the kernel estimates' law (p = 1).'''
    law = _OpenPaths(intensity, [0], [0])
    return law.draw([np.random.default_rng(seed)], [n])[1].ravel()


def test_duration_laws_normalization_and_support():
    '''The open-path duration law is e^{-kappa T} psi^{L,T}(0) / G(0) on
    d = 1, 2 and L = 3, 4: its normalization G(0) is the sum (grid) or
    integral (continuum) of e^{-kappa T} psi(0); grid durations lie on
    nu N* and pass a chi-square test, continuum ones a Kolmogorov-Smirnov
    test.'''
    for d, L in [(1, 3), (2, 3), (1, 4)]:
        _check_open_duration_law(Torus(d, L))


def _check_open_duration_law(torus):
    n = 20000
    grid = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    k = np.arange(1, 80)
    mass = np.exp(-0.5 * k) * torus.heat_kernel_at_origin(0.5 * k)
    g0 = loop_reference.free_kernel(grid, 0)
    assert mass.sum() == pytest.approx(g0, rel=1e-12)
    steps = _open_durations(grid, n, 5) / 0.5
    assert np.all(steps == np.round(steps)) and np.all(steps >= 1)
    counts = np.bincount(steps.astype(np.int64) - 1, minlength=len(k))
    assert len(counts) <= len(k)
    ok, chi2, df = _chi2_ok(counts, mass / mass.sum())
    assert ok, (chi2, df)
    continuum = LoopIntensity(torus, "symanzik_eps", kappa=2.0, eps=0.1)
    g0 = loop_reference.free_kernel(continuum, 0)
    total, _ = integrate.quad(lambda t: math.exp(-2.0 * t)
                              * float(torus.heat_kernel_at_origin(t)),
                              0, np.inf, epsabs=0.0, epsrel=1e-12)
    assert total == pytest.approx(g0, rel=1e-10)

    def cdf(t):
        # the mixture of Exp(kappa + lambda_xi), weights 1/(kappa + lambda_xi)
        rate = 2.0 + torus.rates
        return np.mean((1.0 - np.exp(-np.multiply.outer(t, rate))) / rate,
                       axis=-1) / g0

    T = _open_durations(continuum, n, 6)
    assert stats.kstest(T, cdf).pvalue > 1e-3


def test_loop_intensity_mass_ginibre():
    torus = Torus(1, 3)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    direct = sum(math.exp(-0.5 * k)
                 * float(torus.heat_kernel_at_origin(0.5 * k))
                 * torus.n_sites / k for k in range(1, 200))
    assert intensity.total_mass == pytest.approx(direct, abs=1e-10)


def test_loop_intensity_mass_symanzik():
    torus = Torus(1, 3)
    eps = 0.1
    intensity = LoopIntensity(torus, "symanzik_eps", kappa=1.0, eps=eps)
    val, _ = integrate.quad(
        lambda t: math.exp(-t) * float(torus.heat_kernel_at_origin(t))
        * torus.n_sites / t,
        eps, 60.0, epsabs=0.0, epsrel=1e-13, limit=400)
    assert intensity.total_mass == pytest.approx(val, rel=1e-12)


@pytest.mark.parametrize("d, L", [(1, 3), (2, 3), (3, 2)])
@pytest.mark.parametrize("kappa", [0.05, 20.0])
@pytest.mark.parametrize("eps", [0.02, 0.5])
def test_continuum_mass_matches_adaptive_quadrature(d, L, kappa, eps):
    '''The continuum law's mass, summed from its Gauss-Legendre cells,
    is the integral of e^{-kappa T} psi(T) |Lambda| / T over [eps, t_max]
    by adaptive quadrature, and the 3- and 2-point rules agree.'''
    torus = Torus(d, L)
    intensity = LoopIntensity(torus, "symanzik_eps", kappa=kappa, eps=eps)
    t_max = intensity.metadata["t_max"]
    val, err = integrate.quad(
        lambda t: math.exp(-kappa * t) * float(torus.heat_kernel_at_origin(t))
        * torus.n_sites / t,
        eps, t_max, epsabs=0.0, epsrel=1e-13, limit=500)
    assert err <= 1e-13 * val
    assert intensity.total_mass == pytest.approx(val, rel=1e-12)
    assert intensity.metadata["quad_err"] <= 1e-12 * intensity.total_mass


def test_loop_intensity_duration_law():
    # ginibre durations follow e^{-kappa T} psi^T(0)/T on the grid
    torus = Torus(1, 3)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5)
    rng = np.random.default_rng(11)
    T = intensity.sample_duration([rng], [20000])
    w1 = math.exp(-0.5) * float(torus.heat_kernel_at_origin(0.5)) * 3
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


def _loop_ends(batch):
    '''The end site of every loop of a LoopBatch.'''
    counts = np.diff(batch.offsets)
    last = np.concatenate((batch.sites, [0]))[np.maximum(batch.offsets[1:] - 1,
                                                         0)]
    return np.where(counts > 0, last, batch.start)


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
        batch = intensity.draw_batch([rng], [n])
        assert batch.config.tolist() == list(range(n))
        assert np.array_equal(_loop_ends(batch), batch.start)
        assert np.all(np.diff(batch.times)[
            np.diff(np.repeat(np.arange(n), np.diff(batch.offsets))) == 0] > 0)
        starts = np.bincount(batch.start, minlength=torus.n_sites)
        p = 1.0 / torus.n_sites
        assert np.all(np.abs(starts / n - p) < 3 * math.sqrt(p * (1 - p) / n))
        kappa = intensity.kappa
        if intensity.kind == "ginibre":
            # a_xi <= e^{-1/2}: the mass past k = 120 is below 1e-27
            k = np.arange(1, 121)
            probs = np.array([math.exp(-kappa * 0.5 * j)
                              * torus.heat_kernel(0.5 * j)[0] / j for j in k])
            probs /= probs.sum()
            counts = np.bincount(
                np.round(batch.duration / 0.5).astype(np.int64) - 1,
                minlength=len(k))
        else:
            # 20 bins of the law's own quadrature probability
            edges = np.interp(np.linspace(0, 1, 21), intensity._cdf,
                              intensity._points)
            probs = np.array([integrate.quad(
                lambda t: math.exp(-kappa * t) * torus.heat_kernel(t)[0] / t,
                lo, hi)[0] for lo, hi in zip(edges, edges[1:])])
            probs /= intensity.total_mass / torus.n_sites
            counts = np.histogram(batch.duration, edges)[0]
        ok, chi2, df = _chi2_ok(counts, probs)
        assert ok, (intensity.kind, chi2, df)


# -- exact bridges ----------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("L", [2, 3, 4])
def test_bridge_midpoints_follow_the_heat_kernels(d, L):
    '''Chi-square of the site at time T/2 of bridges x -> y (y - x of
    coordinates 1, 0, ...; and of 1 in every coordinate) against
    psi^{t}(z - x) psi^{T-t}(y - z) / psi^{T}(y - x), t = T/2.'''
    torus = Torus(d, L)
    n, T = 20000, 1.7
    x = np.zeros(n, dtype=np.int64)
    for target in ([1] + [0] * (d - 1), [1] * d):
        y = int(torus.index_of(target))
        batch = bridges(torus, x, np.full(n, T), [np.random.default_rng(
            31 + 7 * d + L)], [n], np.full(n, y))
        assert np.all(_loop_ends(batch) == y)
        # the jumps before T/2 of each bridge, and the site they reach
        counts = np.diff(batch.offsets)
        before = np.bincount(np.repeat(np.arange(n), counts),
                             weights=batch.times < T / 2,
                             minlength=n).astype(np.int64)
        last = np.concatenate((batch.sites, [0]))[np.maximum(
            batch.offsets[:-1] + before - 1, 0)]
        mid = np.where(before > 0, last, batch.start)
        half = torus.heat_kernel(T / 2)
        z = np.arange(torus.n_sites)
        probs = (half[torus.diff_table[z, 0]] * half[torus.diff_table[y, z]]
                 / torus.heat_kernel(T)[torus.diff_table[y, 0]])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        ok, chi2, df = _chi2_ok(np.bincount(mid, minlength=len(z)), probs)
        assert ok, (target, chi2, df)

def _jump_law(torus, T):
    '''P(n jumps | closed) = Pois(n; d T) (P^n)_00 / psi^{L,T}(0), n =
    0..n_max, with (P^n)_00 = mean over xi of (1 - lambda_xi / d)^n.'''
    n = np.arange(int(torus.d * T + 12 * math.sqrt(torus.d * T)) + 30)
    pois = np.exp(n * math.log(torus.d * T) - torus.d * T
                  - np.array([math.lgamma(k + 1.0) for k in n]))
    ret = np.mean((1 - torus.rates / torus.d)[None, :] ** n[:, None], axis=1)
    return pois * ret / float(torus.heat_kernel_at_origin(T))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_residue_masses_give_the_return_probability(d, L):
    '''(sum_r P(a = r mod L)^2)^d, a ~ Poisson(T/2), is psi^{L,T}(0).'''
    T = np.array([1e-6, 0.01, 0.5, 1.0, 3.0, 20.0, 150.0])
    q = residue_table(T / 2, L).sum(axis=1)
    assert np.allclose((q ** 2).sum(axis=1) ** d,
                       Torus(d, L).heat_kernel_at_origin(T),
                       rtol=0, atol=1e-12)


def test_residue_table_keeps_its_values_with_shared_log_factorials(
        monkeypatch):
    '''The grown log-factorial array gives the tables, bit for bit, that
    log-factorials computed afresh on every call give.'''
    def fresh(size):
        return np.array([math.lgamma(k + 1.0) for k in range(size)])

    monkeypatch.setattr(paths, "_LOG_FACT", np.empty(0))
    # small, large (the array grows), then small again (it is reused)
    cases = [(np.array([0.3]), 3), (np.array([0.005, 0.5, 2.0]), 2),
             (np.array([40.0, 75.0]), 4), (np.array([600.0]), 7),
             (np.array([1.5, 10.0]), 5), (np.array([0.25]), 1)]
    shared = [residue_table(lam, L) for lam, L in cases]
    assert np.array_equal(paths._log_factorials(len(paths._LOG_FACT)),
                          fresh(len(paths._LOG_FACT)))
    monkeypatch.setattr(paths, "_log_factorials", fresh)
    for (lam, L), table in zip(cases, shared):
        assert np.array_equal(table, residue_table(lam, L))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_bridges_are_closed_nearest_neighbour_paths(d, L):
    '''Every bridge ends at its start, its jump times strictly increase
    inside (0, T), and each jump is one signed unit step.'''
    torus = Torus(d, L)
    n = 300
    x = np.arange(n) % torus.n_sites
    T = np.linspace(0.05, 30.0, n)
    batch = bridges(torus, x, T, [np.random.default_rng(d * 10 + L)], [n])
    counts = np.diff(batch.offsets)
    loop = np.repeat(np.arange(n), counts)
    assert np.array_equal(_loop_ends(batch), x)
    assert np.all(batch.times > 0) and np.all(batch.times < T[loop])
    same = np.diff(loop) == 0
    assert np.all(np.diff(batch.times)[same] > 0)
    before = np.concatenate(([0], batch.sites[:-1]))
    before[batch.offsets[:-1][counts > 0]] = x[counts > 0]
    neighbours = loop_reference.step(torus, before[:, None],
                                     np.arange(2 * d))
    assert np.all((neighbours == batch.sites[:, None]).any(axis=1))
    assert (L == 1) == (len(batch.times) == 0)


@pytest.mark.parametrize("d,L,T", [(1, 3, 2.0), (1, 4, 5.0), (2, 2, 1.5),
                                   (2, 3, 3.0), (3, 4, 2.0)])
def test_bridge_jump_counts_follow_the_conditioned_poisson_law(d, L, T):
    '''Chi-square of the jump counts of bridges over [0, T] against
    Pois(n; d T) (P^n)_00 / psi^{L,T}(0).'''
    torus = Torus(d, L)
    n = 20000
    batch = bridges(torus, np.zeros(n, dtype=np.int64), np.full(n, T),
                    [np.random.default_rng(19)], [n])
    probs = _jump_law(torus, T)
    counts = np.bincount(np.diff(batch.offsets), minlength=len(probs))
    assert len(counts) == len(probs)
    ok, chi2, df = _chi2_ok(counts, probs)
    assert ok, (chi2, df)


@pytest.mark.parametrize("kind", ["ginibre", "symanzik_eps"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_bridges_agree_with_the_rejection_sampler(kind, d, L):
    '''draw_batch against the rejection oracle at 3 sigma: the mean jump
    count, the mean share of its duration a loop spends at its base site
    and the mean number of distinct sites it visits.'''
    torus = Torus(d, L)
    intensity = LoopIntensity(torus, kind, kappa=0.3, nu=0.5, eps=0.1)
    n = 3000

    def stats(batch):
        loop, site, length = batch.pieces()
        home = np.bincount(loop, weights=length * (site == batch.start[loop]),
                           minlength=n) / batch.duration
        visits = np.unique(loop * torus.n_sites + site) // torus.n_sites
        return (np.diff(batch.offsets), home,
                np.bincount(visits, minlength=n))

    new = stats(intensity.draw_batch([np.random.default_rng(23)], [n]))
    old = stats(from_paths([loop_reference.rejection_loops(
        intensity, np.random.default_rng(29), n)[0]]))
    for a, b in zip(new, old):
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
        assert abs(a.mean() - b.mean()) <= 3 * se, (a.mean(), b.mean(), se)


class _CountingRng:
    '''A generator that counts the calls made to it, and the variates
    each of its methods draws, and records each call's size.'''

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0
        self.variates = collections.Counter()
        self.sizes = []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls += 1
            out = getattr(self.rng, name)(*args, **kwargs)
            self.variates[name] += np.size(out)
            self.sizes.append(np.size(out))
            return out
        return call


def test_low_acceptance_bridges_draw_in_one_pass():
    '''d = 3, L = 7, T = 40 (return probability about 1/343): bridges
    draws a batch with two generator calls, as for a single bridge, and
    its mean jump count is the conditioned law's; draw_batch makes five
    calls (modes, log-series counts, base sites, bridges).'''
    torus = Torus(3, 7)
    T = 40.0
    assert torus.heat_kernel_at_origin(T) < 4e-3
    n = 4000
    for m in (1, n):
        rng = _CountingRng(37)
        batch = bridges(torus, np.arange(m) % torus.n_sites, np.full(m, T),
                        [rng], [m])
        assert rng.calls == 2
    assert np.array_equal(_loop_ends(batch), batch.start)
    jumps = np.diff(batch.offsets)
    probs = _jump_law(torus, T)
    mean = float(probs @ np.arange(len(probs)))
    sd = math.sqrt(float(probs @ np.arange(len(probs)) ** 2) - mean ** 2)
    assert abs(jumps.mean() - mean) <= 3 * sd / math.sqrt(n)
    intensity = LoopIntensity(torus, "ginibre", kappa=0.1, nu=0.5)
    rng = _CountingRng(41)
    intensity.draw_batch([rng], [n])
    assert rng.calls == 5


def test_bridges_past_the_cell_budget_are_refused_before_any_draw(
        monkeypatch):
    '''kappa = 1e-5, nu = 50: 4096 loops reach T/2 near 3e5, and among
    them one walk of T = 1e8, whose Poisson table alone would hold over
    6e7 cells.  bridges refuses the batch before it draws a number or
    computes a log-factorial.'''
    def refuse(*args):
        raise AssertionError("log-factorials were computed")

    torus = Torus(1, 3)
    intensity = LoopIntensity(torus, "ginibre", kappa=1e-5, nu=50.0)
    T = np.insert(intensity.sample_duration([np.random.default_rng(0)],
                                            [4096]),
                  1000, 1e8)
    monkeypatch.setattr(paths, "_log_factorials", refuse)
    rng = _CountingRng(1)
    with pytest.raises(ValueError, match="MAX_BRIDGE_CELLS"):
        bridges(torus, np.zeros(len(T), dtype=np.int64), T, [rng], [len(T)])
    assert rng.calls == 0


def _one_coordinate_cells(T, L, columns):
    '''The cells of one coordinate at the longest duration of T: its
    table row, M x L, and its columns count columns of M cells.'''
    table = residue_table(np.array([T.max() / 2]), L)
    return table.size + columns * table.shape[1]


def _walks_of_kind(torus, kind, n, rng):
    '''Start sites and end sites (None when closed) of n walks: closed,
    open, or mixed (each walk open or given y = x with probability 1/2).'''
    x = rng.integers(torus.n_sites, size=n)
    if kind == "closed":
        return x, None
    y = rng.integers(torus.n_sites, size=n)
    return x, (np.where(rng.random(n) < 0.5, x, y) if kind == "mixed"
               else y)


def _same_batch(batch, expected):
    '''Asserts that two LoopBatches hold the same loops, field by field.'''
    for name in ("config", "start", "duration", "offsets", "times",
                 "sites"):
        assert np.array_equal(getattr(batch, name), getattr(expected, name))


def _count_tables(monkeypatch):
    '''A list that grows by one at each residue table bridges builds,
    one a part of its inversion.'''
    tables, rows = [], paths._poisson_rows

    def counted(*args):
        tables.append(1)
        return rows(*args)

    monkeypatch.setattr(paths, "_poisson_rows", counted)
    return tables


@pytest.mark.parametrize("kind", ["closed", "open", "mixed"])
def test_bridges_at_any_budget_draw_the_unbounded_walks(monkeypatch, kind):
    '''At budgets from one coordinate's cells up to the default, over 1,
    2 and 3 streams, bridges returns the walks of the unbounded call and
    leaves each generator as that call does; only the inversion runs in
    parts, more of them the smaller the budget.'''
    torus = Torus(2, 3)
    rng = np.random.default_rng(31)
    tables = _count_tables(monkeypatch)
    for counts in ([50], [30, 0, 25], [12, 40, 9]):
        n = sum(counts)
        x, y = _walks_of_kind(torus, kind, n, rng)
        T = np.exp(rng.uniform(math.log(1e-3), math.log(200.0), n))
        T[:n // 3] = T[n // 3:2 * (n // 3)]

        def draw(budget):
            monkeypatch.setattr(paths, "MAX_BRIDGE_CELLS", budget)
            gens = [np.random.default_rng(s) for s in range(len(counts))]
            tables.clear()
            batch = bridges(torus, x, T, gens, counts, y)
            return batch, [g.bit_generator.state for g in gens], len(tables)

        expected, states, _ = draw(2 ** 62)
        one = _one_coordinate_cells(T, 3, 1 if y is None else 2)
        parts = []
        for budget in (one, one + 1, 3 * one, 20 * one, 2 ** 25):
            batch, after, calls = draw(budget)
            _same_batch(batch, expected)
            assert after == states
            parts.append(calls)
        assert parts[0] > parts[2] > parts[3] >= parts[4] == 1
        assert np.array_equal(_loop_ends(batch), x if y is None else y)


@pytest.mark.parametrize("closed", [True, False])
def test_streams_draw_uniforms_then_jump_times_at_any_budget(monkeypatch,
                                                             closed):
    '''At one coordinate's cells and at the default budget, each stream
    of a call draws twice: its uniforms, n_i x d x 3, then the jump
    times of its walks; an empty stream draws nothing.'''
    torus = Torus(2, 3)
    rng = np.random.default_rng(22)
    counts = [20, 0, 40]
    x, y = _walks_of_kind(torus, "closed" if closed else "open", 60, rng)
    T = np.exp(rng.uniform(math.log(1e-3), math.log(200.0), 60))
    one = _one_coordinate_cells(T, 3, 1 if closed else 2)
    for budget in (one, 2 ** 25):
        monkeypatch.setattr(paths, "MAX_BRIDGE_CELLS", budget)
        gens = [_CountingRng(s) for s in range(3)]
        jumps = np.diff(bridges(torus, x, T, gens, counts, y).offsets)
        for gen, k, hi in zip(gens, counts, np.cumsum(counts)):
            assert gen.sizes == ([k * 2 * 3, jumps[hi - k:hi].sum()] if k
                                 else [0, 0])


@pytest.mark.parametrize("closed", [True, False])
def test_bridge_budget_admits_one_coordinate(monkeypatch, closed):
    '''The budget is one coordinate's table row (M x L) and count
    columns (1 closed, 2 open, M each), M from the cut of the longest
    duration: at that many cells 40 walks draw, with two generator
    calls; at one cell fewer the call is refused before any draw.'''
    torus = Torus(2, 3)
    x = np.arange(40) % torus.n_sites
    T = np.repeat([0.5, 7.0, 30.0, 61.0], 10)
    y = None if closed else (x + 1) % torus.n_sites
    one = _one_coordinate_cells(T, 3, 1 if closed else 2)
    monkeypatch.setattr(paths, "MAX_BRIDGE_CELLS", one)
    rng = _CountingRng(3)
    bridges(torus, x, T, [rng], [len(x)], y)
    assert rng.calls == 2
    monkeypatch.setattr(paths, "MAX_BRIDGE_CELLS", one - 1)
    rng = _CountingRng(3)
    with pytest.raises(ValueError, match="MAX_BRIDGE_CELLS"):
        bridges(torus, x, T, [rng], [len(x)], y)
    assert rng.calls == 0


def test_table_cuts_of_many_streams_are_their_own_cuts():
    '''The cuts of several tops, found in one evaluation, are those of
    each top searched alone over its own range (the per-stream search
    of loop_reference.table_cut), from means far below 1 to thousands,
    and 3 and 3.01 alone, whose ranges end together though the second
    starts later; and a top whose table exceeds the budget refuses the whole
    call.'''
    rng = np.random.default_rng(8)
    tops = np.concatenate(([1e-9, 0.01, 0.5, 1.0, 2.5, 3.0, 3.01],
                           np.exp(rng.uniform(-5.0, 8.0, 40)))).tolist()
    for L in (1, 3, 8):
        rows = 5 * L + 7
        for some in (tops, [3.0, 3.01], [3.01, 3.0]):
            assert _table_cut(some, rows, L) == [
                loop_reference.table_cut(top, rows, L) for top in some]
    with pytest.raises(ValueError, match="MAX_BRIDGE_CELLS"):
        _table_cut([0.5, 1e12, 2.0], 10, 3)


def test_table_rows_cut_one_by_one_are_the_rows_of_their_own_cut():
    '''A residue table with a cut per row holds, in each row, the row of
    a table cut at that row's cut alone, then zeros: a stream's rows in a
    call of several streams are those of its own call.'''
    L = 3
    lam = np.array([0.05, 0.5, 2.0, 2.0, 9.0])
    cuts = np.array([4, 40, 11, 25, 30])
    table = paths._poisson_rows(lam, cuts, L)
    assert table.shape == (5, 40 // L + 1, L)
    for i in range(5):
        own = paths._poisson_rows(lam[i:i + 1], int(cuts[i]), L)[0]
        flat = table[i].ravel()
        assert np.array_equal(flat[:own.size], own.ravel())
        assert not flat[own.size:].any()


def _assert_streams_draw_alone(torus, x, T, counts, y):
    '''bridges over the streams of counts (generators seeded 0, 1, ...)
    gives the LoopBatch of each stream's walks drawn as a call of their
    own, joined in stream order, walk k at position k, and leaves each
    generator as its own call does.'''
    new = [np.random.default_rng(s) for s in range(len(counts))]
    ref = [np.random.default_rng(s) for s in range(len(counts))]
    batch = bridges(torus, x, T, new, counts, y)
    ends = np.cumsum(counts)
    _same_batch(batch, LoopBatch.join(len(x), [
        (np.arange(hi - k, hi), bridges(
            torus, x[hi - k:hi], T[hi - k:hi], [rng], [k],
            None if y is None else y[hi - k:hi]), None)
        for rng, k, hi in zip(ref, counts, ends)]))
    assert [g.bit_generator.state for g in new] == [
        g.bit_generator.state for g in ref]
    assert batch.config.tolist() == list(range(len(x)))
    assert np.array_equal(batch.start, x) and np.array_equal(batch.duration,
                                                             T)
    assert np.array_equal(_loop_ends(batch), x if y is None else y)
    return batch


@pytest.mark.parametrize("closed", [True, False])
def test_streams_draw_as_their_own_calls(closed):
    '''Four streams of 30, 0, 17 and 45 walks, on durations shared
    across the streams (each stream's table rows cut at its own longest
    duration) and on durations that are not, give the walks of the
    streams' own calls, number for number.'''
    torus = Torus(2, 3)
    rng = np.random.default_rng(21)
    counts = [30, 0, 17, 45]
    n = sum(counts)
    x = rng.integers(torus.n_sites, size=n)
    y = None if closed else rng.integers(torus.n_sites, size=n)
    shared = 0.5 * rng.integers(1, 60, size=n)
    for T in (shared, np.exp(rng.uniform(math.log(1e-3), math.log(80.0),
                                         n))):
        jumps = np.diff(_assert_streams_draw_alone(torus, x, T, counts,
                                                   y).offsets)
        assert (jumps > 0).any() and (jumps == 0).any()


def _assert_same_bridges(torus, x, T, seed, y):
    '''bridges and the full-inversion reference give the same LoopBatch
    fields and leave their generators in the same state.'''
    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = bridges(torus, x, T, [new], [len(x)], y)
    _same_batch(batch,
                loop_reference.full_inversion_bridges(torus, x, T, ref, y))
    assert new.bit_generator.state == ref.bit_generator.state
    return batch


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [2, 3, 4, 7])
def test_bridges_match_the_full_inversion(d, L):
    '''Durations from 1e-9 to 1e3, a third of them tied: closed walks,
    y = x given, y != x, and y - x zero in some coordinates only, each
    bit for bit the full inversion's.  Short walks mostly skip the
    table, long ones never do.'''
    torus = Torus(d, L)
    skipped = False
    for seed in range(8):
        rng = np.random.default_rng(1000 * d + 10 * L + seed)
        n = 120
        T = np.exp(rng.uniform(math.log(1e-9), math.log(1e3), n))
        T[:n // 3] = T[n // 3:2 * (n // 3)]
        x = rng.integers(torus.n_sites, size=n)
        moved = torus.coords[x].copy()
        moved[:, 0] += 1
        for y in (None, x, rng.integers(torus.n_sites, size=n),
                  torus.index_of(moved)):
            jumps = np.diff(_assert_same_bridges(torus, x, T, seed,
                                                 y).offsets)
            skipped |= bool((jumps == 0).any())
            assert (jumps[T > 400.0] > 0).all()
    assert skipped


@pytest.mark.parametrize("closed", [True, False])
def test_chunked_bridges_match_the_full_inversion(monkeypatch, closed):
    '''At three times one coordinate's cells, bridges inverts in parts,
    and its walks are those of the full inversion over one table, number
    for number.'''
    torus = Torus(2, 3)
    rng = np.random.default_rng(17)
    n = 60
    T = np.repeat(np.exp(rng.uniform(math.log(1e-6), math.log(200.0),
                                     n // 2)), 2)
    x = rng.integers(torus.n_sites, size=n)
    y = None if closed else rng.integers(torus.n_sites, size=n)
    monkeypatch.setattr(paths, "MAX_BRIDGE_CELLS", 3 * _one_coordinate_cells(
        T, 3, 1 if closed else 2))
    tables = _count_tables(monkeypatch)
    for seed in range(5):
        tables.clear()
        _assert_same_bridges(torus, x, T, seed, y)
        assert len(tables) > 1


def _decimal_first_cell(lam, L):
    '''(q_0, sum_r q_r^2) of Poisson(lam) mod L, summed term by term to
    40 digits.'''
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        mean = decimal.Decimal(lam)
        p, q = (-mean).exp(), [decimal.Decimal(0)] * L
        for m in range(int(lam + 40.0 * math.sqrt(lam)) + 60):
            q[m % L] += p
            p = p * mean / (m + 1)
        return float(q[0]), float(sum(qr * qr for qr in q))


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
def test_first_cell_masses_match_the_residue_table(L):
    '''q_0 and sum_r q_r^2 from the closed forms: within 1e-15 relative
    of a 40-digit sum, and within 1e-13 (1 + lam / 100) of the residue
    table, whose log-space rounding grows with lam to 5e-13 relative at
    lam = 1e3.'''
    lam = np.geomspace(1e-9, 1e3, 60)
    q0, ret = _first_cell_masses(lam, L)
    q = residue_table(lam, L).sum(axis=1)
    tol = 1e-13 * (1.0 + lam / 100.0)
    assert np.all(np.abs(q0 - q[:, 0]) <= tol * q[:, 0])
    assert np.all(np.abs(ret - (q * q).sum(axis=1)) <= tol * ret)
    for i in (0, 20, 35, 45, 59):
        exact = _decimal_first_cell(float(lam[i]), L)
        assert q0[i] == pytest.approx(exact[0], rel=1e-15, abs=0)
        assert ret[i] == pytest.approx(exact[1], rel=1e-15, abs=0)


@pytest.mark.parametrize("L", [2, 3, 7])
def test_bridges_at_extreme_durations_stay_finite(L):
    '''At T = 1e-12 and 1e-6 nearly every walk skips the table; at T =
    1e3 and 1e5 e^{-T/2} underflows to 0 and every walk inverts.  No
    RuntimeWarning, no NaN, and the full inversion's numbers.'''
    torus = Torus(2, L)
    x = np.arange(4) % torus.n_sites
    for T in (1e-12, 1e-6, 1e3, 1e5):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q0, ret = _first_cell_masses(np.array([T / 2]), L)
            batch = _assert_same_bridges(torus, x, np.full(4, T), 3, None)
            open_batch = _assert_same_bridges(torus, x, np.full(4, T), 4,
                                              (x + 1) % torus.n_sites)
        assert np.isfinite([q0, ret]).all()
        for b in (batch, open_batch):
            assert np.isfinite(b.times).all()
        assert np.array_equal(_loop_ends(batch), x)
        jumps = np.diff(batch.offsets)
        assert (jumps == 0).all() if T < 1e-5 else (jumps > 0).all()


def _grid_masses(torus, kappa, nu):
    '''k = 1..k_top and the masses e^{-kappa nu k} psi^{L,nu k}(0)
    |Lambda| / k of the grid durations nu k, from the heat kernel; k_top
    puts the rest below 1e-14 of the sum.'''
    k = np.arange(1, math.ceil(35.0 / (kappa * nu)) + 50)
    psi = np.concatenate([torus.heat_kernel_at_origin(nu * part)
                          for part in np.array_split(k, len(k) // 20000 + 1)])
    return k, np.exp(-kappa * nu * k) * psi * torus.n_sites / k


# (kappa, nu): kappa nu = 1e-4 needs durations past k = 10^5
_GRID_LAWS = [(1.0, 0.5), (1e-3, 0.1)]


@pytest.mark.parametrize("d, L", [(1, 3), (2, 3), (3, 2)])
@pytest.mark.parametrize("kappa, nu", _GRID_LAWS)
def test_grid_mass_is_the_free_log_partition_function(d, L, kappa, nu):
    '''The grid law's mass is -sum_xi log(1 - a_xi), a_xi = e^{-nu(kappa
    + lambda_xi)}, and the direct sum over its durations, both at 1e-12
    relative.'''
    torus = Torus(d, L)
    intensity = LoopIntensity(torus, "ginibre", kappa=kappa, nu=nu)
    xi = 2.0 * np.pi * torus.coords / L
    a = np.exp(-nu * (kappa + d - np.cos(xi).sum(axis=1)))
    closed = -sum(math.log1p(-float(ax)) for ax in a)
    assert intensity.total_mass == pytest.approx(closed, rel=1e-12)
    _, mass = _grid_masses(torus, kappa, nu)
    assert intensity.total_mass == pytest.approx(mass.sum(), rel=1e-12)


@pytest.mark.parametrize("d, L", [(1, 3), (2, 3), (3, 2)])
@pytest.mark.parametrize("kappa, nu", _GRID_LAWS)
def test_grid_durations_follow_the_mode_mixture(d, L, kappa, nu):
    '''Chi-square of 10^5 grid durations nu k, in geometric bins of k,
    against sum_xi a_xi^k / k over the mass: the law has no cut, so
    kappa nu = 1e-4 runs as any other.'''
    torus = Torus(d, L)
    intensity = LoopIntensity(torus, "ginibre", kappa=kappa, nu=nu)
    k, mass = _grid_masses(torus, kappa, nu)
    T = intensity.sample_duration([np.random.default_rng(43)], [100000])
    steps = np.rint(T / nu).astype(np.int64)
    assert np.all(steps >= 1) and np.array_equal(T, nu * steps)
    edges = np.unique(np.geomspace(1, k[-1] + 1, 60).astype(np.int64))
    counts = np.histogram(np.minimum(steps, k[-1]), edges)[0]
    probs = np.add.reduceat(mass, edges[:-1] - 1) / mass.sum()
    ok, chi2, df = _chi2_ok(counts, probs)
    assert ok, (chi2, df)


def test_log_series_excess_keeps_its_digits():
    '''c = -log(1 - a) - a against its series sum_{k >= 2} a^k / k
    summed term by term, to 1e-14 relative, from a^2 below the smallest
    double (c = 0) to a near 1, on both sides of the switch at 1/4.'''
    a = [1e-300, 1e-170, 1e-100, 1e-8, 1e-3, 0.1, 0.2, 0.2499999,
         0.25, 0.2500001, 0.3, 0.5, 0.7, 0.9, 0.99]
    got = paths.log_series_excess(np.array(a))
    ref = loop_reference.multi_window_masses(a)
    assert got[0] == ref[0] == 0.0
    for g, r in zip(got[1:], ref[1:]):
        assert g == pytest.approx(r, rel=1e-14)


# a = e^{-kappa nu} of the zero mode: kappa nu = 1e-4 and 20, and both
# sides of the sampler's switch at 1/2
@pytest.mark.parametrize("a", [math.exp(-1e-4), 0.7, 0.5, 0.3,
                               math.exp(-20.0)])
def test_multi_window_counts_follow_the_conditioned_log_series(a):
    '''Chi-square of 10^5 draws of log_series_past_one against P(k) =
    a^k / k / c on k >= 2, in geometric bins of k; its candidates (a
    log-series draw, or a pair of uniforms) are within 5 sigma of their
    exact mean n / q, q the acceptance, which is at least 0.27.'''
    n = 10 ** 5
    rng = _CountingRng(5)
    k = paths.log_series_past_one(np.full(n, a), rng)
    assert k.min() >= 2
    top = max(int(60.0 / -math.log(a)), 10)
    support = np.arange(2, top + 1)
    mass = np.exp(support * math.log(a)) / support
    c = float(paths.log_series_excess(a))
    assert mass.sum() == pytest.approx(c, rel=1e-12)
    edges = np.unique(np.geomspace(2, top + 1, 40).astype(np.int64))
    counts = np.histogram(np.minimum(k, top), edges)[0]
    ok, chi2, df = _chi2_ok(counts, np.add.reduceat(mass, edges[:-1] - 2)
                            / mass.sum())
    assert ok, (chi2, df)
    q = (c / -math.log1p(-a) if a >= 0.5
         else 2.0 * (1.0 - a) * c / (a * a))
    assert q >= 0.27
    mean, sd = n / q, math.sqrt(n * (1.0 - q)) / q
    drawn = rng.variates["logseries"] + rng.variates["random"] // 2
    assert abs(drawn - mean) <= 5.0 * sd + 1e-9, (drawn, mean)


@pytest.mark.parametrize("d, L", [(1, 3), (2, 3)])
def test_multi_window_loops_have_their_exact_mass_and_mean(d, L):
    '''LoopIntensity.multi_window: C is the mass sum_xi c_xi of the
    loops of two windows or more (1e-14 relative), the rest of the mass
    is sum_xi a_xi, and E T = nu sum_xi a_xi^2 / (1 - a_xi) / C matches
    10^6 loops of the durations of sample_multi_window_duration
    (|z| < 4), every one closed, of two windows or more, on the grid.'''
    nu = 0.5
    intensity = LoopIntensity(Torus(d, L), "ginibre", kappa=1.5, nu=nu)
    a = intensity.a.tolist()
    C, mean = intensity.multi_window
    assert C == pytest.approx(
        math.fsum(loop_reference.multi_window_masses(a)), rel=1e-14)
    assert C + math.fsum(a) == pytest.approx(intensity.total_mass,
                                             rel=1e-14)
    assert mean == pytest.approx(
        nu * math.fsum(x * x / (1.0 - x) for x in a) / C, rel=1e-14)
    rngs, counts = [np.random.default_rng(8)], [10 ** 6]
    batch = intensity.draw_loops(
        rngs, counts, intensity.sample_multi_window_duration(rngs, counts))
    T = batch.duration
    steps = np.rint(T / nu)
    assert np.array_equal(T, nu * steps) and steps.min() >= 2
    assert np.array_equal(_loop_ends(batch), batch.start)
    z = (T.mean() - mean) / (T.std(ddof=1) / math.sqrt(len(T)))
    assert abs(z) < 4.0, z


@pytest.mark.parametrize("kind", ["ginibre", "symanzik_eps"])
def test_empty_law_draws_the_shortest_duration(kind):
    '''kappa = 1e6: every weight e^{-kappa T} underflows to 0.  The law
    has mass 0 and draws its kappa -> inf limit, the shortest duration,
    without a warning.'''
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        intensity = LoopIntensity(Torus(1, 3), kind, kappa=1e6, nu=0.5,
                                  eps=0.02)
        T = intensity.sample_duration([np.random.default_rng(0)], [5])
    assert intensity.total_mass == 0.0
    assert intensity.metadata.get("quad_err", 0.0) == 0.0
    assert np.all(T == (0.5 if kind == "ginibre" else 0.02))


def test_open_path_weighted_sample_heat_kernel_identity():
    '''The mean weight of an open path 0 -> 1 is sum_T e^{-kappa T}
    psi^T(1) (grid) or its integral (continuum), and its bridges end at
    1.'''
    for kind in ("ginibre", "symanzik_eps"):
        _check_open_path_weights(kind)


def _check_open_path_weights(kind):
    torus = Torus(1, 3)
    intensity = LoopIntensity(torus, kind, kappa=1.0, nu=0.5, eps=0.1)
    if kind == "ginibre":
        target = sum(math.exp(-0.5 * k)
                     * torus.heat_kernel(0.5 * k)[torus.diff_table[1, 0]]
                     for k in range(1, 200))
    else:
        target = integrate.quad(lambda t: math.exp(-t) * torus.heat_kernel(t)[
            torus.diff_table[1, 0]], 0, np.inf, epsrel=1e-12)[0]
    rng = np.random.default_rng(17)
    n = 40000
    law = _OpenPaths(intensity, [0], [1])
    ends, T, w = law.draw([rng], [n])
    w = law.unit * w
    batch = bridges(torus, np.zeros(n, dtype=np.int64), T.ravel(), [rng],
                    [n], ends.ravel())
    assert np.all(_loop_ends(batch) == 1)
    se = w.std(ddof=1) / math.sqrt(n)
    assert abs(w.mean() - target) <= 3.0 * se


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
    '''Over many seeds, bridges (closed, and to other end sites),
    draw_batch and the open paths of a kernel sample (ginibre and
    symanzik) give the per-path reference's paths, durations and
    weights, and the generator state is the same after every draw.'''
    torus = Torus(d, L)
    intensities = [LoopIntensity(torus, "ginibre", kappa=1.0, nu=0.5),
                   LoopIntensity(torus, "symanzik_eps", kappa=1.0, eps=0.1)]
    for seed in range(40):
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        n = torus.n_sites
        x = np.arange(12) % n
        T = 0.25 + 0.5 * np.arange(12)
        batch = bridges(torus, x, T, [new], [12])
        assert batch.config.tolist() == list(range(12))
        assert _same_paths(batch, loop_reference.bridges(torus, x, T, ref))
        assert new.bit_generator.state == ref.bit_generator.state
        y = (3 * x + seed) % n
        batch = bridges(torus, x, T, [new], [12], y)
        assert _same_paths(batch, loop_reference.bridges(torus, x, T, ref, y))
        assert new.bit_generator.state == ref.bit_generator.state
        xs, ys = [seed % n, 0], [(5 * seed + 1) % n, seed % n]
        for intensity in intensities:
            m = seed % 7
            batch = intensity.draw_batch([new], [m])
            loops = loop_reference.draw_batch(intensity, ref, m)
            assert batch.config.tolist() == list(range(m))
            assert _same_paths(batch, loops)
            assert new.bit_generator.state == ref.bit_generator.state
            law = _OpenPaths(intensity, xs, ys)
            ends, T_open, w = law.draw([new], [m])
            batch = bridges(torus, np.tile(xs, m), T_open.ravel(), [new],
                            [2 * m], ends.ravel())
            opened = loop_reference.open_paths(intensity, xs, ys, ref, m)
            assert _same_paths(batch, [path for paths, _ in opened
                                       for path in paths])
            ref_w = np.array([weight for _, weight in opened]) / law.unit
            assert np.allclose(w, ref_w, rtol=0,
                               atol=1e-12 * max(ref_w.max(initial=0), 1))
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
    '''Loops in build order, each with its configuration as a label (a
    configuration's loops need not be adjacent), CSR offsets into the
    flat jumps; join concatenates its parts' loops in the order of the
    parts and their indices.'''
    torus = Torus(2, 3)
    rng = np.random.default_rng(4)
    walks = [loop_reference.sample_free_walk(torus, 1, 1.5, rng),
             Path(2, 0.5), loop_reference.sample_free_walk(torus, 5, 2.0, rng)]
    one = from_paths([walks])
    batch = LoopBatch.join(3, [(np.array([2, 0]), one, np.array([2, 0])),
                               (np.array([2]), one, np.array([1]))])
    loops = [walks[2], walks[0], walks[1]]
    assert batch.n_configs == 3
    assert batch.config.tolist() == [2, 0, 2]
    assert batch.start.tolist() == [p.start for p in loops]
    assert batch.duration.tolist() == [p.duration for p in loops]
    for i, p in enumerate(loops):
        lo, hi = batch.offsets[i], batch.offsets[i + 1]
        assert np.array_equal(batch.times[lo:hi], p.jump_times)
        assert np.array_equal(batch.sites[lo:hi], p.jump_sites)
    assert batch.offsets[-1] == len(batch.times) == len(batch.sites)


# (d, L) of the exact-moment checks; on L = 1 the duration laws have
# the rate kappa alone
_MOMENT_TORI = [(1, 3), (2, 3), (1, 1)]


def _moment_z(draws, moments):
    '''z-scores of the sample mean of draws and of their squares against
    the claimed (E T, E T^2).'''
    n = len(draws)
    return [(values.mean() - exact) / (values.std(ddof=1) / math.sqrt(n))
            for values, exact in ((draws, moments[0]),
                                  (draws * draws, moments[1]))]


@pytest.mark.parametrize("kind", ["ginibre", "symanzik_eps"])
@pytest.mark.parametrize("d, L", _MOMENT_TORI)
@pytest.mark.parametrize("nu", [0.5, 0.1])
def test_duration_moments_match_the_draws(kind, d, L, nu):
    '''LoopIntensity.duration_moments and _OpenPaths.duration_moments,
    the exact means of the estimators' controls, against 10^6 draws of
    sample_duration and of _OpenPaths.draw: |z| < 4 for E T and E T^2.
    The continuum runs at eps = nu / 5.'''
    intensity = LoopIntensity(Torus(d, L), kind, kappa=1.0, nu=nu,
                              eps=nu / 5)
    rng = np.random.default_rng(2024)
    loops = intensity.sample_duration([rng], [10 ** 6])
    law = _OpenPaths(intensity, [0], [0])
    _, opens, _ = law.draw([rng], [10 ** 6])
    for draws, moments in ((loops, intensity.duration_moments),
                           (opens.ravel(), law.duration_moments)):
        z = _moment_z(draws, moments)
        assert max(abs(v) for v in z) < 4.0, (z, moments)


@pytest.mark.parametrize("kind", ["ginibre", "symanzik_eps"])
def test_empty_law_moments_are_the_shortest_duration(kind):
    '''Mass 0 (kappa = 1e6): the loop law draws its shortest duration
    alone, and its moments say so, without a warning; on the grid the
    open paths' law is empty too and draws nu.'''
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        intensity = LoopIntensity(Torus(1, 3), kind, kappa=1e6, nu=0.5,
                                  eps=0.02)
        shortest = 0.5 if kind == "ginibre" else 0.02
        assert intensity.duration_moments == (shortest, shortest ** 2)
        law = _OpenPaths(intensity, [0], [0])
        _, T, _ = law.draw([np.random.default_rng(1)], [1000])
        mean, square = law.duration_moments
    if kind == "ginibre":
        assert np.all(T == 0.5) and (mean, square) == (0.5, 0.25)
    else:
        assert max(abs(v) for v in _moment_z(T.ravel(), (mean, square))) < 4
