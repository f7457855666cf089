'''Exact interaction functionals: the occupation-field kernel against the
pairwise window-overlap oracle and direct quadratures, totals, the
large-mass rules, and the infinite-mass particle interaction.'''

import numpy as np
import pytest

from loopgas import cluster, interactions, loop_mc, paths
from loopgas.interactions import (
    InteractionParams, batch_interaction, v_tilde_table, v_total)
from loopgas.largemass import LmParams
from loopgas.lattice import PotentialSpec, Torus, periodize_potential
from loopgas.paths import LoopBatch, LoopIntensity, Path

import loop_reference
from largemass_reference import v_lm
from loop_reference import check_grid as _check_grid, sample_free_walk


def pair_matrix(config, params, kind):
    '''Matrix of pair interactions V(w_i, w_j) of one configuration (a
    list of Paths), self pairs on the diagonal.'''
    return batch_interaction(LoopBatch.from_paths([config]), params, kind,
                             pairs=True)[0]


# -- oracle: the pairwise window-overlap implementation ------------------------
# Merges the jump events of two paths window by window and sums the exact
# overlap integrals pair by pair.  Kept only as an independent reference
# for the occupation-field kernel; its window bounds are exact only for
# dyadic nu.

def _window_views(path, nu):
    n_win = int(round(path.duration / nu))
    if path.is_constant:
        return [(None, path.start)] * n_win
    t0, t1, sites = path.segments()
    views = []
    for a in range(n_win):
        lo, hi = a * nu, (a + 1) * nu
        i = np.searchsorted(t1, lo, side="right")
        j = np.searchsorted(t0, hi, side="left")
        if j - i == 1:
            views.append((None, int(sites[i])))
        else:
            bounds = np.concatenate(([lo], t0[i + 1:j], [hi])) - lo
            views.append((bounds, sites[i:j]))
    return views


def _overlap_value(view_a, view_b, nu, v_of):
    ba, sa = view_a
    bb, sb = view_b
    if ba is None and bb is None:
        return nu * v_of(sa, sb)
    if ba is None:
        ba, sa = np.array([0.0, nu]), np.array([sa])
    if bb is None:
        bb, sb = np.array([0.0, nu]), np.array([sb])
    cuts = np.union1d(ba, bb)
    ia = np.searchsorted(ba, cuts[:-1], side="right") - 1
    ib = np.searchsorted(bb, cuts[:-1], side="right") - 1
    total = 0.0
    for k in range(len(cuts) - 1):
        val = v_of(int(sa[ia[k]]), int(sb[ib[k]]))
        if np.isinf(val):
            return np.inf
        total += (cuts[k + 1] - cuts[k]) * val
    return total


def v_ginibre_pair(w, wt, params, skip_diagonal=False):
    '''(lam/nu) sum_{a,b} int_0^nu v(w(a nu + t) - wt(b nu + t)) dt;
    skip_diagonal drops the a = b terms of a self pair.'''
    nu, lam = params.nu, params.lam
    _check_grid(w, nu)
    _check_grid(wt, nu)
    if lam == 0.0:
        return 0.0
    v_of = lambda a, b: params.vL[params.torus.diff_table[a, b]]
    va = _window_views(w, nu)
    vb = va if wt is w else _window_views(wt, nu)
    total = 0.0
    for a, wa in enumerate(va):
        for b, wb in enumerate(vb):
            if skip_diagonal and a == b:
                continue
            val = _overlap_value(wa, wb, nu, v_of)
            if np.isinf(val):
                return np.inf
            total += val
    return lam / nu * total


def v_cl_pair(w, wt, vL, torus):
    '''int_0^T int_0^Tt v(w(t) - wt(tt)) dt dtt over constant pieces.'''
    t0, t1, s = w.segments()
    u0, u1, su = wt.segments()
    vmat = vL[torus.diff_table[np.ix_(s, su)]]
    if np.isinf(vmat).any():
        return np.inf
    return float((t1 - t0) @ vmat @ (u1 - u0))


def v_total_pairwise(config, pair_fn):
    '''1/2 sum_{i,j} pair(w_i, w_j), self terms included.'''
    total = 0.0
    for i, wi in enumerate(config):
        for j, wj in enumerate(config):
            val = pair_fn(wi, wj)
            if np.isinf(val):
                return np.inf
            total += 0.5 * val
    return total


def v_total_largemass(config, params):
    '''1/2 sum_{i != j} V(w_i, w_j) + 1/2 sum_i Vtilde(w_i)
    + (v(0)/(2 nu)) |T| 1{R = 0}, Vtilde without the a = b windows.'''
    total = 0.0
    for i, wi in enumerate(config):
        tilde = v_ginibre_pair(wi, wi, params, skip_diagonal=True)
        if np.isinf(tilde):
            return np.inf
        total += 0.5 * tilde
        for wj in config[i + 1:]:
            val = v_ginibre_pair(wi, wj, params)
            if np.isinf(val):
                return np.inf
            total += val
    if params.R == 0:
        total += params.vL[0] / (2.0 * params.nu) * sum(
            w.duration for w in config)
    return total


# -- helpers -------------------------------------------------------------------

def _params(torus, vL, nu=0.5, lam=0.2, **kw):
    return InteractionParams(torus=torus, vL=vL, nu=nu, lam=lam,
                             mode="generic", kappa=1.0, **kw)


def _riemann_pair(w, wt, vL, torus, n_grid=4000):
    '''Slow midpoint quadrature oracle for the classical pair integral.'''
    ts = (np.arange(n_grid) + 0.5) * w.duration / n_grid
    us = (np.arange(n_grid) + 0.5) * wt.duration / n_grid
    a = np.array([w.position(t) for t in ts])
    b = np.array([wt.position(u) for u in us])
    vals = vL[torus.diff_table[np.ix_(a, b)]]
    return float(vals.sum()) * (w.duration / n_grid) * (wt.duration / n_grid)


def _random_potential(d, L, R, rng):
    entries = {}
    for _ in range(3):
        x = tuple(int(c) for c in rng.integers(-1, 2, d))
        if tuple(-c for c in x) not in entries and not (R and not any(x)):
            entries[x] = float(rng.random())
    return periodize_potential(PotentialSpec(d, R, entries), L)


def _close(new, ref):
    if np.isinf(ref):
        return np.isinf(new)
    return not np.isinf(new) and abs(new - ref) <= 1e-12 * max(abs(ref), 1.0)


# -- cross-check of the kernel against the oracle ------------------------------

CASES = ("generic", "meanfield", "largemass_R0", "largemass_R1", "continuum")


def _on_the_grid(torus, nu, n_win, rng):
    '''A path of n_win windows whose jumps fall on multiples of nu, one
    of them at the last window's start.'''
    a = np.union1d(rng.choice(np.arange(1, n_win), min(2, n_win - 1),
                              replace=False), [n_win - 1])
    site, sites = int(rng.integers(torus.n_sites)), []
    start = site
    for _ in a:
        site = int(torus.neighbor_table[site, rng.integers(2 * torus.d)])
        sites.append(site)
    return Path(start, nu * n_win, nu * a.astype(float),
                np.array(sites, dtype=np.int64))


def _edge_configs(torus, nu, rng, R):
    '''Configurations the kernel's construction must get right: an open
    walk and a closed loop of at least 20 windows, and jumps at exact
    multiples of nu (slice 0), alone and with a free walk.'''
    x = int(rng.integers(torus.n_sites))
    n_win = int(rng.integers(20, 23))
    long_open = sample_free_walk(torus, x, nu * n_win, rng)
    long_loop = loop_reference.bridges(torus, [x], [nu * n_win], rng)[0]
    grid = _on_the_grid(torus, nu, int(rng.integers(2, 4 if R else 6)), rng)
    walk = sample_free_walk(torus, x, nu * int(rng.integers(1, 4)), rng)
    return [[long_open], [long_loop], [grid], [grid, walk]]


@pytest.mark.parametrize("case", CASES)
def test_kernel_matches_window_overlap_oracle(case):
    '''v_total and pair_matrix against the pairwise oracle on 288 random
    configurations, 16 per (nu, L, d) in {0.5, 0.25, 0.125} x {2, 3, 4}
    x {1, 2}: 12 of up to 4 free walks, then the edge cases of
    _edge_configs.  Finite values agree to 1e-12 relative; +inf exactly.'''
    rng = np.random.default_rng(CASES.index(case))
    R = 1 if case == "largemass_R1" else 0
    kind = "symanzik_eps" if case == "continuum" else "ginibre"
    n_inf = n_checked = 0
    for nu in (0.5, 0.25, 0.125):
        for L in (2, 3, 4):
            for d in (1, 2):
                torus = Torus(d, L)
                vL = _random_potential(d, L, R, rng)
                if case == "meanfield":
                    params = InteractionParams(torus=torus, vL=vL, nu=nu,
                                               mode="meanfield")
                elif case.startswith("largemass"):
                    params = InteractionParams(torus=torus, vL=vL, nu=nu,
                                               mode="largemass", kappa0=1.0,
                                               R=R)
                else:
                    params = _params(torus, vL, nu=nu, lam=0.7)
                if case == "continuum":
                    pair = lambda a, b: params.lam * v_cl_pair(a, b, vL, torus)
                else:
                    pair = lambda a, b: v_ginibre_pair(a, b, params)
                configs = []
                for _ in range(12):
                    n = int(rng.integers(0, 3 if R else 5))
                    config = []
                    for _ in range(n):
                        T = (rng.exponential(1.0) + 1e-3 if case == "continuum"
                             else nu * int(rng.integers(1, 4 if R else 6)))
                        x = int(rng.integers(torus.n_sites))
                        config.append(sample_free_walk(torus, x, T, rng))
                    configs.append(config)
                for config in configs + _edge_configs(torus, nu, rng, R):
                    ref = (v_total_largemass(config, params)
                           if case.startswith("largemass")
                           else v_total_pairwise(config, pair))
                    new = v_total(config, params, kind)
                    assert _close(new, ref), (nu, L, d, new, ref)
                    n_inf += np.isinf(ref)
                    n_checked += 1
                    P = pair_matrix(config, params, kind)
                    n = len(config)
                    assert P.shape == (n, n)
                    for i in range(n):
                        for j in range(n):
                            assert _close(P[i, j], pair(config[i], config[j]))
    assert n_checked == 288
    if R:
        assert 0 < n_inf < n_checked     # both branches exercised


@pytest.mark.parametrize("build", [
    lambda t: InteractionParams(torus=t, vL=np.zeros(3), nu=np.nan,
                                lam=0.2),
    lambda t: InteractionParams(torus=t, vL=np.zeros(3), nu=0.5,
                                lam=np.nan),
    lambda t: LoopIntensity(t, "ginibre", np.nan, nu=0.5),
    lambda t: LoopIntensity(t, "ginibre", 1.0, nu=np.nan),
    lambda t: LoopIntensity(t, "symanzik_eps", 1.0, eps=np.nan),
    lambda t: LmParams(torus=t, potential=PotentialSpec(1, 0, {}),
                       kappa0=np.nan),
], ids=["InteractionParams.nu", "InteractionParams.lam",
        "LoopIntensity.kappa", "LoopIntensity.nu", "LoopIntensity.eps",
        "LmParams.kappa0"])
def test_nan_parameters_are_refused(build):
    with pytest.raises(ValueError):
        build(Torus(1, 3))


def test_largemass_hard_core_rule():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 1, {(1,): 0.4}), 3)
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, mode="largemass",
                               kappa0=1.0, R=1)
    # one window per site: no double occupation, V = v(1)
    assert v_total([Path(0, 0.5), Path(1, 0.5)], params,
                   "ginibre") == pytest.approx(0.4)
    # two windows of one loop on a site at the same time are killed
    assert np.isinf(v_total([Path(0, 1.0)], params, "ginibre"))
    # so are two loops meeting on a slice of the folded time
    meet = Path(1, 0.5, np.array([0.3]), np.array([0]))
    assert np.isinf(v_total([Path(0, 0.5), meet], params, "ginibre"))
    assert v_total([], params, "ginibre") == 0.0


def test_zero_coupling_with_hard_core_is_zero():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 1, {}), 3)
    params = _params(torus, vL, lam=0.0, R=1)
    config = [Path(0, 0.5), Path(0, 1.0)]
    assert v_total(config, params, "symanzik_eps") == 0.0
    assert not pair_matrix(config, params, "ginibre").any()
    # in the grid ensemble the hard core is exclusion, not coupling: two
    # windows on one site are killed at any lam, one window per site is free
    assert np.isinf(v_total(config, params, "ginibre"))
    assert v_total([Path(0, 0.5), Path(1, 0.5)], params, "ginibre") == 0.0


@pytest.mark.parametrize("mode", ["generic", "meanfield"])
def test_hard_core_is_exclusion_in_every_grid_mode(mode):
    # as in large-mass mode (test_largemass_hard_core_rule)
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 1, {(1,): 0.4}), 3)
    params = InteractionParams(torus=torus, vL=vL, nu=0.5, mode=mode, R=1,
                               lam=1.0 if mode == "generic" else None)
    assert v_total([Path(0, 0.5), Path(1, 0.5)], params,
                   "ginibre") == pytest.approx(params.lam * 0.4)
    assert np.isinf(v_total([Path(0, 1.0)], params, "ginibre"))


# -- the kernel against direct quadratures -------------------------------------

def test_v_cl_pair_vs_quadrature():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5, (1,): 0.2}), 3)
    params = _params(torus, vL, nu=1.0, lam=1.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = sample_free_walk(torus, 0, 1.3, rng)
        wt = sample_free_walk(torus, 1, 0.9, rng)
        approx = _riemann_pair(w, wt, vL, torus)
        assert abs(v_cl_pair(w, wt, vL, torus) - approx) < 5e-3
        P = pair_matrix([w, wt], params, "symanzik_eps")
        assert abs(P[0, 1] - approx) < 5e-3


def test_v_cl_pair_hard_core_absorbing():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 1, {(1,): 0.1}), 3)
    w = Path(0, 1.0)
    assert np.isinf(v_cl_pair(w, w, vL, torus))
    params = _params(torus, vL, nu=1.0, lam=1.0, R=1)
    assert np.isinf(v_total([w], params, "symanzik_eps"))
    P = pair_matrix([w, Path(1, 1.0)], params, "symanzik_eps")
    assert np.isinf(P[0, 0]) and np.isinf(P[1, 1])
    assert P[0, 1] == pytest.approx(0.1)


def test_v_ginibre_pair_constant_paths():
    # constant windows: (lam/nu) * n_win_a * n_win_b * nu * v(x - y)
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5, (1,): 0.2}), 3)
    params = _params(torus, vL)
    w = Path(0, 1.0)     # 2 windows of nu = 0.5
    wt = Path(1, 1.5)    # 3 windows
    expected = params.lam / params.nu * 2 * 3 * params.nu * vL[torus.diff_table[0, 1]]
    assert v_ginibre_pair(w, wt, params) == pytest.approx(expected)
    assert pair_matrix([w, wt], params, "ginibre")[0, 1] == pytest.approx(
        expected)


def test_v_ginibre_pair_matches_window_quadrature():
    '''Window sum vs direct double quadrature of
    (lam/nu^2) sum_{s,st} int_0^nu v(w(s+t) - wt(st+t)) dt.'''
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5, (1,): 0.2}), 3)
    params = _params(torus, vL)
    nu = params.nu
    rng = np.random.default_rng(9)
    for _ in range(5):
        w = sample_free_walk(torus, 0, 2 * nu, rng)
        wt = sample_free_walk(torus, 1, 3 * nu, rng)
        n_grid = 2000
        dt = nu / n_grid
        total = 0.0
        for s in range(2):
            for st in range(3):
                for i in range(n_grid):
                    t = (i + 0.5) * dt
                    total += dt * vL[torus.diff_table[
                        w.position(s * nu + t), wt.position(st * nu + t)]]
        expected = params.lam / nu * total
        assert abs(v_ginibre_pair(w, wt, params) - expected) < 5e-3
        P = pair_matrix([w, wt], params, "ginibre")
        assert abs(P[0, 1] - expected) < 5e-3


def _window_quadrature_total(config, params, n_grid):
    '''Midpoint quadrature of (lam/nu) 1/2 sum over pairs of windows
    (u, u') of int_0^nu v(u(t) - u'(t)) dt, with a bound on its error:
    each jump inside a window breaks at most one grid cell of each pair
    it belongs to, and a broken cell is off by at most dt (max v - min v).'''
    nu, lam = params.nu, params.lam
    dt = nu / n_grid
    t = (np.arange(n_grid) + 0.5) * dt
    units, n_jumps = [], 0
    for w in config:
        for a in range(int(round(w.duration / nu))):
            units.append([w.position(a * nu + s) for s in t])
            inside = (w.jump_times > a * nu) & (w.jump_times < (a + 1) * nu)
            n_jumps += int(np.count_nonzero(inside))
    U = np.array(units)
    vals = params.vL[params.torus.diff_table[U[:, None, :], U[None, :, :]]]
    quad = 0.5 * lam / nu * dt * float(vals.sum())
    spread = float(params.vL.max() - params.vL.min())
    return quad, lam / nu * dt * spread * len(units) * n_jumps


@pytest.mark.parametrize("nu", [0.1, 0.05, 0.3])
def test_off_grid_nu_matches_window_quadrature(nu):
    '''Non-dyadic nu, where the windows' float bounds differ from nu.'''
    rng = np.random.default_rng(int(nu * 1000))
    torus = Torus(1, 4)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5, (1,): 0.2}), 4)
    params = _params(torus, vL, nu=nu, lam=0.3)
    for _ in range(10):
        config = [sample_free_walk(torus, int(rng.integers(4)),
                                   nu * int(rng.integers(1, 8)), rng)
                  for _ in range(int(rng.integers(1, 4)))]
        quad, err = _window_quadrature_total(config, params, n_grid=400)
        assert abs(v_total(config, params, "ginibre") - quad) <= err + 1e-12
        P = pair_matrix(config, params, "ginibre")
        assert 0.5 * P.sum() == pytest.approx(
            v_total(config, params, "ginibre"), rel=1e-12)


def test_v_ginibre_pair_rejects_off_grid():
    torus = Torus(1, 3)
    params = _params(torus, np.zeros(3))
    config = [Path(0, 0.7), Path(0, 0.5)]
    with pytest.raises(ValueError):
        v_total(config, params, "ginibre")
    with pytest.raises(ValueError):
        pair_matrix(config, params, "ginibre")
    # nu = 0.1: 0.3 is on the grid although 0.3 / 0.1 is not exactly 3 in
    # floating point
    off = _params(torus, np.zeros(3), nu=0.1)
    assert v_total([Path(0, 0.3)], off, "ginibre") == 0.0
    with pytest.raises(ValueError):
        v_total([Path(0, 0.35)], off, "ginibre")


def test_on_grid_check_is_relative_to_the_window_count():
    '''nu k carries a rounding error of about k ulp(nu): a jump-free loop
    of nu 10^9 windows, whose ratio to nu misses 10^9 by more than 1e-9,
    gives V = lam k^2 v(0) / 2 exactly; nu (k + 0.3) is still refused,
    also at k = 10^9, as the tolerance grows by a few ulp per window.'''
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5}), 3)
    params = _params(torus, vL, nu=0.7, lam=0.3)
    k = 10 ** 9
    assert abs(0.7 * k / 0.7 - k) > 1e-9
    assert v_total([Path(0, 0.7 * k)], params, "ginibre") == (
        0.5 * 0.3 * k * k * 0.5)
    for k in (3, 10 ** 6, 10 ** 9):
        with pytest.raises(ValueError, match="not on the grid"):
            v_total([Path(0, 0.7 * (k + 0.3))], params, "ginibre")


def test_v_total_counts_pairs_once():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5}), 3)
    params = _params(torus, vL)
    config = [Path(0, 0.5), Path(0, 0.5), Path(1, 0.5)]
    P = pair_matrix(config, params, "ginibre")
    direct = 0.0
    for i, wi in enumerate(config):
        for j, wj in enumerate(config):
            direct += 0.5 * v_ginibre_pair(wi, wj, params)
    assert v_total(config, params, "ginibre") == pytest.approx(direct)
    assert 0.5 * P.sum() == pytest.approx(direct)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("nu", [0.5, 0.1])
def test_one_window_paths_interact_through_v0_alone(d, nu):
    '''A path of one window holds one particle at every time, so its
    total interaction is lam v_L(0) / 2 (its pair matrix entry lam
    v_L(0)) whatever its jumps and whatever the potential off the
    origin: 2000 closed bridges and 2000 open walks of duration nu on a
    nonlocal potential, each to 1e-14.'''
    torus = Torus(d, 3)
    rng = np.random.default_rng(17)
    entries = {(0,) * d: 0.7, (1,) + (0,) * (d - 1): 0.3}
    if d == 2:
        entries[(1, -1)] = 0.2
    vL = periodize_potential(PotentialSpec(d, 0, entries), 3)
    params = _params(torus, vL, nu=nu, lam=0.9)
    T = np.full(2000, nu)
    x = rng.integers(torus.n_sites, size=2000)
    closed = paths.bridges(torus, x, T, rng)
    _, open_walks = paths.walks(torus, x, T, rng)
    exact = 0.5 * 0.9 * 0.7
    for batch in (closed, open_walks):
        assert np.diff(batch.offsets).max() >= 2
        totals = batch_interaction(batch, params, "ginibre")
        pairs = batch_interaction(batch, params, "ginibre", pairs=True)
        assert np.abs(totals - exact).max() <= 1e-14
        assert np.abs(pairs[:, 0, 0] - 2.0 * exact).max() <= 1e-14


def test_v_tilde_table_zeroes_core():
    torus = Torus(1, 5)
    vL = np.array([np.inf, 0.2, 0.1, 0.1, 0.2])
    vt = v_tilde_table(vL, torus, R=1)
    assert vt[0] == 0.0 and vt[1] == 0.2
    assert np.array_equal(v_tilde_table(vL, torus, R=0), vL)


def test_v_total_largemass_decomposition():
    torus = Torus(1, 3)
    spec = PotentialSpec(1, 0, {(0,): 0.3})
    vL = periodize_potential(spec, 3)
    nu = 0.5
    params = InteractionParams(torus=torus, vL=vL, nu=nu, mode="largemass",
                               kappa0=1.0, R=0)
    config = [Path(0, 2 * nu), Path(1, 3 * nu)]
    # constant loops: self tilde term + pair term + diagonal counterterm
    tilde = sum(0.5 * v_ginibre_pair(w, w, params, skip_diagonal=True)
                for w in config)
    cross = v_ginibre_pair(config[0], config[1], params)
    counter = vL[0] / (2 * nu) * (2 * nu + 3 * nu)
    assert v_total(config, params, "ginibre") == pytest.approx(
        tilde + cross + counter)


def test_v_lm_soft_and_hard():
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.3}), 3)
    # R=0: 1/2 sum_{i,j} k_i k_j v(x_i - x_j)
    val = v_lm([2, 1], [0, 0], vL, torus, R=0)
    assert val == pytest.approx(0.5 * 9 * 0.3)
    hard = periodize_potential(PotentialSpec(1, 1, {(1,): 0.1}), 3)
    assert np.isinf(v_lm([2], [0], hard, torus, R=1))       # k > 1
    assert np.isinf(v_lm([1, 1], [0, 0], hard, torus, R=1))  # coincident
    assert v_lm([1, 1], [0, 1], hard, torus, R=1) == pytest.approx(0.1)
    assert v_lm([], [], vL, torus, R=0) == 0.0


def test_interaction_params_modes():
    torus = Torus(1, 3)
    vL = np.zeros(3)
    mf = InteractionParams(torus=torus, vL=vL, nu=0.5, mode="meanfield",
                           kappa=1.0)
    assert mf.lam == pytest.approx(0.25)
    lm = InteractionParams(torus=torus, vL=vL, nu=0.5, mode="largemass",
                           kappa0=2.0)
    assert lm.lam == 1.0 and lm.kappa == pytest.approx(4.0)
    with pytest.raises(ValueError):
        InteractionParams(torus=torus, vL=vL, nu=0.5, lam=0.3,
                          mode="meanfield", kappa=1.0)
    with pytest.raises(ValueError):
        InteractionParams(torus=torus, vL=vL, nu=0.5, mode="generic")
    # R = 1 iff vL is +inf at the origin
    hard = periodize_potential(PotentialSpec(1, 1, {}), 3)
    with pytest.raises(ValueError):
        InteractionParams(torus=torus, vL=hard, nu=0.5, mode="largemass",
                          kappa0=1.0)
    with pytest.raises(ValueError):
        InteractionParams(torus=torus, vL=vL, nu=0.5, mode="largemass",
                          kappa0=1.0, R=1)
    with pytest.raises(ValueError):
        InteractionParams(torus=torus, vL=vL, nu=0.5, lam=0.1, R=2)
    assert InteractionParams(torus=torus, vL=hard, nu=0.5, mode="largemass",
                             kappa0=1.0, R=1).R == 1


# -- the batched kernel against the per-configuration reference ------------------

def _same(new, ref):
    '''Equal to 1e-12 relative, with the same +inf pattern.'''
    new, ref = np.asarray(new), np.asarray(ref)
    inf = np.isinf(ref)
    return (np.array_equal(np.isinf(new), inf) and np.all(
        np.abs(new[~inf] - ref[~inf])
        <= 1e-12 * np.maximum(np.abs(ref[~inf]), 1.0)))


@pytest.mark.parametrize("kind", ["ginibre", "symanzik_eps"])
@pytest.mark.parametrize("R", [0, 1])
def test_batch_kernel_matches_per_configuration_reference(kind, R):
    '''batch_interaction on random multi-configuration batches, nu in
    {0.5, 0.25, 0.1}, d in {1, 2, 3}, L in {1, ..., 4}, with empty
    configurations and loops without jumps: totals and (when the sizes
    agree) pair matrices equal the reference's per configuration.'''
    rng = np.random.default_rng(17 * R + (kind == "ginibre"))
    n_inf = n_configs = 0
    for nu in (0.5, 0.25, 0.1):
        for d in (1, 2, 3):
            for L in (1, 2, 3, 4):
                torus = Torus(d, L)
                params = _params(torus, _random_potential(d, L, R, rng),
                                 nu=nu, lam=0.7, R=R)
                for same_size in (False, True):
                    size = int(rng.integers(0, 4))
                    configs = []
                    for _ in range(6):
                        n = size if same_size else int(rng.integers(0, 4))
                        config = []
                        for _ in range(n):
                            T = (rng.exponential(1.0) + 1e-3
                                 if kind != "ginibre"
                                 else nu * int(rng.integers(1, 5)))
                            x = int(rng.integers(torus.n_sites))
                            config.append(
                                Path(x, T) if rng.random() < 0.25 else
                                loop_reference.sample_free_walk(torus, x, T,
                                                                rng))
                        configs.append(config)
                    batch = LoopBatch.from_paths(configs)
                    totals = batch_interaction(batch, params, kind)
                    ref = [loop_reference.v_total(c, params, kind)
                           for c in configs]
                    assert _same(totals, ref), (nu, d, L, totals, ref)
                    if len({len(c) for c in configs}) == 1:
                        pairs = batch_interaction(batch, params, kind,
                                                  pairs=True)
                        assert pairs.shape == (6, size, size)
                        for c, P in zip(configs, pairs):
                            assert _same(P, loop_reference.pair_matrix(
                                c, params, kind))
                    n_inf += int(np.isinf(ref).sum())
                    n_configs += len(configs)
    assert n_configs == 432
    if R:
        assert 0 < n_inf < n_configs     # both branches exercised


def test_batch_kernel_of_no_configuration():
    torus = Torus(1, 3)
    params = _params(torus, np.zeros(3))
    empty = LoopBatch.from_paths([])
    assert batch_interaction(empty, params, "ginibre").shape == (0,)
    assert batch_interaction(empty, params, "ginibre",
                             pairs=True).shape == (0, 0, 0)


@pytest.mark.parametrize("kind", ["ginibre", "symanzik_eps"])
def test_pairs_need_configurations_of_one_size(kind):
    torus = Torus(1, 3)
    params = _params(torus, np.array([0.5, 0.1, 0.1]))
    batch = LoopBatch.from_paths([[Path(0, 0.5)], [Path(1, 0.5)] * 2])
    assert batch_interaction(batch, params, kind).shape == (2,)
    with pytest.raises(ValueError, match="one size"):
        batch_interaction(batch, params, kind, pairs=True)


def test_estimators_request_only_what_they_use(monkeypatch):
    '''The loop Monte Carlo asks the kernel for totals, in 1-sample
    chunks too (workers == n_samples); the cluster expansion asks only for
    pair matrices.'''
    requests = []

    def spy(batch, params, kind, pairs=False):
        requests.append((batch.n_configs, pairs))
        return batch_interaction(batch, params, kind, pairs=pairs)

    monkeypatch.setattr(loop_mc, "batch_interaction", spy)
    monkeypatch.setattr(cluster, "batch_interaction", spy)
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5}), 3)
    params = _params(torus, vL, nu=0.5, lam=0.01)
    spec = loop_mc.EnsembleSpec(
        torus, params, LoopIntensity(torus, "ginibre", 1.0, nu=0.5),
        "ginibre")
    for workers in (1, 4):
        loop_mc.estimate_rel_partition(spec, 4, seed=1, workers=workers)
        loop_mc.estimate_gamma_p(spec, 1, [0], [0], 4, seed=2,
                                 workers=workers)
    assert requests and not any(pairs for _, pairs in requests)
    assert any(n == 1 for n, _ in requests)     # 1-sample chunks
    requests.clear()
    cluster.log_Z_via_expansion(spec, n_max=2, n_samples=4, seed=3,
                                workers=4)
    assert requests and all(pairs for _, pairs in requests)


# -- the kernel's row budget --------------------------------------------------

def _grid_batch(d, L, sizes, seed, kappa=0.3):
    '''Configurations of sizes[c] loops drawn from a Ginibre intensity
    (nu = 0.25 and kappa = 0.3 by default, so that loops span many
    windows).'''
    intensity = LoopIntensity(Torus(d, L), "ginibre", kappa=kappa, nu=0.25)
    loops = intensity.draw_batch(np.random.default_rng(seed),
                                 int(sizes.sum()))
    return LoopBatch.join(len(sizes), [
        (np.repeat(np.arange(len(sizes)), sizes), loops, None)])


def _config_rows(batch, pairs=False):
    '''Field rows of each configuration: slices (jumps + 1, exact unless
    two jump times agree mod nu), times its loops with pairs.'''
    C = batch.n_configs
    slices = np.bincount(batch.config, np.diff(batch.offsets), C) + 1
    return slices * (np.bincount(batch.config, minlength=C) if pairs else 1)


@pytest.mark.parametrize("R", [0, 1])
@pytest.mark.parametrize("same_size", [False, True])
def test_grid_kernel_in_groups_gives_the_same_numbers(monkeypatch, R,
                                                      same_size):
    '''With the row budget down to the largest configuration, the batch
    is evaluated in several groups, and totals and (for configurations of
    one size) pair matrices are bit-identical to one evaluation.'''
    rng = np.random.default_rng(3 + R)
    torus = Torus(2, 3)
    params = _params(torus, _random_potential(2, 3, R, rng), nu=0.25,
                     lam=0.7, R=R)
    sizes = np.full(60, 3) if same_size else rng.poisson(3.0, 60)
    batch = _grid_batch(2, 3, sizes, seed=11 + R)
    for pairs in (False, True) if same_size else (False,):
        whole = batch_interaction(batch, params, "ginibre", pairs=pairs)
        rows = _config_rows(batch, pairs)
        monkeypatch.setattr(interactions, "MAX_CELLS", int(rows.max()))
        assert len(interactions._row_groups(rows, pairs)) > 4
        grouped = batch_interaction(batch, params, "ginibre", pairs=pairs)
        monkeypatch.undo()
        assert np.array_equal(grouped, whole)
        if R and not pairs:
            assert np.isinf(whole).any() and not np.isinf(whole).all()


def test_grid_configuration_over_the_cell_budget_is_refused(monkeypatch):
    batch = _grid_batch(1, 3, np.full(8, 2), seed=5)
    params = _params(Torus(1, 3), np.array([0.5, 0.1, 0.1]), nu=0.25)
    for pairs in (False, True):
        rows = _config_rows(batch, pairs)
        monkeypatch.setattr(interactions, "MAX_CELLS", int(rows.max()))
        batch_interaction(batch, params, "ginibre", pairs=pairs)
        monkeypatch.setattr(interactions, "MAX_CELLS", int(rows.max()) - 1)
        with pytest.raises(ValueError, match="occupation field rows"):
            batch_interaction(batch, params, "ginibre", pairs=pairs)


def test_long_loops_fit_a_budget_on_rows(monkeypatch):
    '''Loops of many windows: with a budget that the rows of every
    configuration fit but the windows x slices of one exceed, the kernel
    gives the numbers of the default budget.'''
    batch = _grid_batch(1, 3, np.full(6, 2), seed=8, kappa=0.02)
    params = _params(Torus(1, 3), np.array([0.5, 0.1, 0.1]), nu=0.25)
    windows = np.bincount(batch.config, np.round(batch.duration / 0.25),
                          batch.n_configs)
    budget = int(_config_rows(batch, pairs=True).max())
    assert (windows * _config_rows(batch)).max() > budget
    expected = [batch_interaction(batch, params, "ginibre", pairs=pairs)
                for pairs in (False, True)]
    monkeypatch.setattr(interactions, "MAX_CELLS", budget)
    for pairs, want in zip((False, True), expected):
        assert np.array_equal(
            batch_interaction(batch, params, "ginibre", pairs=pairs), want)
