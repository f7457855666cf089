'''Exact interaction functionals: the occupation-field kernel against the
pairwise window-overlap oracle and direct quadratures, totals, the
large-mass rules, and the infinite-mass particle interaction.'''

import numpy as np
import pytest

from loopgas import cluster, interactions, loop_mc, paths
from loopgas.interactions import (
    InteractionParams, batch_interaction, v_tilde_table)
from loopgas.largemass import LmParams
from loopgas.lattice import PotentialSpec, Torus, periodize_potential
from loopgas.paths import LoopBatch, LoopIntensity

import loop_reference
from largemass_reference import v_lm
from loop_reference import (Path, check_grid as _check_grid, from_paths,
                            sample_free_walk)


def v_total(config, params, kind):
    '''The library's v_total of one configuration, a list of Paths.'''
    return interactions.v_total(from_paths([config]), params, kind)


def _slots(sizes):
    '''(group, n) of one group per loop, its slot in its configuration,
    for configurations of sizes[c] loops laid out one after another; n
    is the largest size.'''
    sizes = np.asarray(sizes, dtype=np.int64)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    return np.arange(sizes.sum()) - start, int(sizes.max(initial=1))


def pair_matrix(config, params, kind):
    '''Matrix of pair interactions V(w_i, w_j) of one configuration (a
    list of Paths), self pairs on the diagonal.'''
    n = len(config)
    return batch_interaction(from_paths([config]), params, kind,
                             _slots([n]))[0, :n, :n]


def _assert_continuum_refuses_hard_core():
    '''Every loop has positive local time at its own site, so a hard
    core in the continuum would kill every loop: the kernel refuses it,
    for totals and for group matrices alike.'''
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 1, {(1,): 0.1}), 3)
    params = _params(torus, vL, nu=1.0, lam=1.0, R=1)
    batch = from_paths([[Path(0, 1.0)], [Path(1, 0.5)]])
    for groups in (None, (np.zeros(2, dtype=np.int64), 2)):
        with pytest.raises(ValueError, match="no hard core"):
            batch_interaction(batch, params, "symanzik_eps", groups)


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
        site = int(loop_reference.step(torus, site,
                                       rng.integers(2 * torus.d)))
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
    _edge_configs.  Finite values agree to 1e-12 relative; +inf exactly.
    Under the hard core (largemass_R1) the diagonal is exclusion, the
    self pair without its a = b windows (skip_diagonal).'''
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
                            ref = (v_ginibre_pair(config[i], config[i], params,
                                                  skip_diagonal=True)
                                   if R and i == j
                                   else pair(config[i], config[j]))
                            assert _close(P[i, j], ref)
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
    # in the grid ensemble the hard core is exclusion, not coupling: two
    # windows on one site are killed at any lam, one window per site is
    # free, in the totals and in every pair entry: the second loop has two
    # windows on site 0, and it shares site 0 with the first
    assert np.isinf(v_total(config, params, "ginibre"))
    assert np.array_equal(pair_matrix(config, params, "ginibre"),
                          [[0.0, np.inf], [np.inf, np.inf]])
    free = [Path(0, 0.5), Path(1, 0.5)]
    assert v_total(free, params, "ginibre") == 0.0
    assert not pair_matrix(free, params, "ginibre").any()


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
    '''The classical pair oracle is +inf on a hard core, for every loop
    with itself; so the kernel refuses the continuum hard core.'''
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 1, {(1,): 0.1}), 3)
    w = Path(0, 1.0)
    assert np.isinf(v_cl_pair(w, w, vL, torus))
    assert v_cl_pair(w, Path(1, 1.0), vL, torus) == pytest.approx(0.1)
    _assert_continuum_refuses_hard_core()


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
    closed = paths.bridges(torus, x, T, [rng], [2000])
    open_walks = from_paths(
        [[path] for path in loop_reference.walks(torus, x, T, rng)[1]])
    exact = 0.5 * 0.9 * 0.7
    for batch in (closed, open_walks):
        assert np.diff(batch.offsets).max() >= 2
        totals = batch_interaction(batch, params, "ginibre")
        pairs = batch_interaction(batch, params, "ginibre",
                                  (np.zeros(2000, dtype=np.int64), 1))
        assert np.abs(totals - exact).max() <= 1e-14
        assert np.abs(pairs[:, 0, 0] - 2.0 * exact).max() <= 1e-14


def test_v_tilde_table_zeroes_core():
    vL = np.array([np.inf, 0.2, 0.1, 0.1, 0.2])
    vt = v_tilde_table(vL, R=1)
    assert vt[0] == 0.0 and vt[1] == 0.2
    assert np.array_equal(v_tilde_table(vL, R=0), vL)


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


def test_interaction_params_refuse_an_infinite_potential_off_the_core():
    '''v is finite everywhere but at the origin under a hard core (R =
    1), so that the kernel's quadratic form never meets 0 * inf.'''
    torus = Torus(1, 3)
    for vL, R in (([0.5, np.inf, 0.1], 0), ([np.inf, np.inf, 0.1], 1),
                  ([np.nan, 0.1, 0.1], 0), ([np.inf, 0.1, np.nan], 1),
                  ([-np.inf, 0.1, 0.1], 0), ([0.5, 0.1, -np.inf], 0)):
        with pytest.raises(ValueError, match="finite"):
            _params(torus, np.array(vL), R=R)
    assert _params(torus, np.array([np.inf, 0.1, 0.1]), R=1).R == 1


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
    configurations and loops without jumps: totals and pair matrices (one
    group per slot) equal the reference's per configuration.  The
    continuum refuses a hard core.'''
    if kind == "symanzik_eps" and R:
        _assert_continuum_refuses_hard_core()
        return
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
                    batch = from_paths(configs)
                    totals = batch_interaction(batch, params, kind)
                    ref = [loop_reference.v_total(c, params, kind)
                           for c in configs]
                    assert _same(totals, ref), (nu, d, L, totals, ref)
                    slots = _slots([len(c) for c in configs])
                    pairs = batch_interaction(batch, params, kind, slots)
                    assert pairs.shape == (6, slots[1], slots[1])
                    for c, P in zip(configs, pairs):
                        n = len(c)
                        assert _same(P[:n, :n], loop_reference.pair_matrix(
                            c, params, kind))
                        assert not P[n:].any() and not P[:, n:].any()
                    n_inf += int(np.isinf(ref).sum())
                    n_configs += len(configs)
    assert n_configs == 432
    if R:
        assert 0 < n_inf < n_configs     # both branches exercised


def test_batch_kernel_of_no_configuration():
    torus = Torus(1, 3)
    params = _params(torus, np.zeros(3))
    empty = from_paths([])
    assert batch_interaction(empty, params, "ginibre").shape == (0,)
    assert batch_interaction(empty, params, "ginibre",
                             (np.zeros(0), 3)).shape == (0, 3, 3)


def _random_loop(torus, nu, kind, rng):
    '''A free walk, or a loop without jumps one time in four, of a
    duration on the grid nu N* (up to 4 windows) or in the continuum.'''
    T = (rng.exponential(1.0) + 1e-3 if kind != "ginibre"
         else nu * int(rng.integers(1, 5)))
    x = int(rng.integers(torus.n_sites))
    return (Path(x, T) if rng.random() < 0.25
            else loop_reference.sample_free_walk(torus, x, T, rng))


def _check_group_matrices(batch, group, n, configs, groups, params, kind):
    '''The (C, n, n) group matrices of a batch: the reference's, with
    the same +inf pattern, and half their sum the batch's totals.'''
    P = batch_interaction(batch, params, kind, (group, n))
    assert P.shape == (len(configs), n, n)
    for c, g, Pc in zip(configs, groups, P):
        assert _same(Pc, loop_reference.group_matrix(c, g, n, params, kind))
    assert _same(0.5 * P.sum(axis=(1, 2)),
                 batch_interaction(batch, params, kind))
    return P


@pytest.mark.parametrize("kind", ["ginibre", "symanzik_eps"])
@pytest.mark.parametrize("R", [0, 1])
def test_group_matrices_match_the_two_configuration_totals(kind, R):
    '''The one-call Gamma_p evaluation against the two configurations
    per sample it replaces: p in {1, 2, 3} open walks (group 0) and 0 to
    3 background loops (group 1, in random order with the walks), nu in
    {0.5, 0.25, 0.1}, d in {1, 2, 3}, L in {1, ..., 4}.  The (m, 2, 2)
    matrices equal the reference's, and 1/2 sum P, 1/2 P_11 and 1/2 P_00
    the totals of open + background, background and open evaluated as
    separate configurations, to 1e-12 relative with the same +inf
    pattern; a finite P_01 is P_10 and the cross term V(open +
    background) - V(open) - V(background).  The continuum refuses a
    hard core.'''
    if kind == "symanzik_eps" and R:
        _assert_continuum_refuses_hard_core()
        return
    rng = np.random.default_rng(41 + 2 * R + (kind == "ginibre"))
    n_inf = n_configs = 0
    for nu in (0.5, 0.25, 0.1):
        for d in (1, 2, 3):
            for L in (1, 2, 3, 4):
                torus = Torus(d, L)
                params = _params(torus, _random_potential(d, L, R, rng),
                                 nu=nu, lam=0.7, R=R)
                for p in (1, 2, 3):
                    configs, groups = [], []
                    for _ in range(4):
                        g = rng.permutation([0] * p
                                            + [1] * int(rng.integers(0, 4)))
                        configs.append([_random_loop(torus, nu, kind, rng)
                                        for _ in g])
                        groups.append(g)
                    batch = from_paths(configs)
                    P = _check_group_matrices(
                        batch, np.concatenate(groups), 2, configs, groups,
                        params, kind)
                    # today's evaluation: each part as its own configuration
                    parts = [[[w for w, gi in zip(c, g) if gi == k]
                              for c, g in zip(configs, groups)]
                             for k in (0, 1)]
                    V_open, V_bg = (
                        batch_interaction(from_paths(part),
                                          params, kind) for part in parts)
                    V_all = batch_interaction(batch, params, kind)
                    assert _same(0.5 * P.sum(axis=(1, 2)), V_all)
                    assert _same(0.5 * P[:, 1, 1], V_bg)
                    assert _same(0.5 * P[:, 0, 0], V_open)
                    assert _same(P[:, 0, 1], P[:, 1, 0])
                    f = np.isfinite(P).all(axis=(1, 2))
                    cross = V_all[f] - V_open[f] - V_bg[f]
                    scale = np.abs([V_all[f], V_open[f], V_bg[f],
                                    np.ones(f.sum())]).max(axis=0)
                    assert np.all(np.abs(P[f, 0, 1] - cross)
                                  <= 1e-12 * scale)
                    n_inf += int(np.isinf(V_all).sum())
                    n_configs += len(configs)
    assert n_configs == 432
    if R and kind == "ginibre":
        assert 0 < n_inf < n_configs     # both branches exercised


def test_group_matrices_take_the_group_count_from_the_caller():
    '''A batch whose backgrounds are all empty, as a Gamma_p batch with
    no background loop, still gives (m, 2, 2) matrices, with zero
    background rows; a third group that no loop is in gives zero rows
    too.  A group outside 0..n - 1, or groups for other loops, raise.'''
    torus = Torus(1, 3)
    params = _params(torus, np.array([0.5, 0.1, 0.1]))
    rng = np.random.default_rng(5)
    configs = [[loop_reference.sample_free_walk(torus, 0, 1.0, rng)]
               for _ in range(3)]
    batch = from_paths(configs)
    totals = batch_interaction(batch, params, "ginibre")
    for n in (2, 3):
        P = batch_interaction(batch, params, "ginibre",
                              (np.zeros(3, dtype=np.int64), n))
        assert P.shape == (3, n, n)
        assert np.array_equal(P[:, 0, 0], 2.0 * totals)
        assert not P[:, 1:].any() and not P[:, :, 1:].any()
    for group in ([0, 2, 1], [0, -1, 1], [0, 1]):
        with pytest.raises(ValueError, match="group"):
            batch_interaction(batch, params, "ginibre", (group, 2))
    empty = from_paths([])
    assert batch_interaction(empty, params, "ginibre",
                             (np.zeros(0), 2)).shape == (0, 2, 2)


@pytest.mark.parametrize("mode,R,lam", [
    ("generic", 0, 0.7), ("meanfield", 0, None), ("largemass", 0, None),
    ("generic", 1, 0.7), ("meanfield", 1, None), ("largemass", 1, None),
    ("generic", 1, 0.0)])
def test_half_sum_of_the_group_matrices_is_the_total(mode, R, lam):
    '''1/2 sum P equals the total of every configuration, with the same
    +inf pattern, in every grid mode and at lam = 0 under the hard core
    (where every finite value is 0 and exclusion alone kills), for
    random groups of 1 to 3 and for one group per loop.'''
    rng = np.random.default_rng(7 + 3 * R + (lam == 0.0))
    n_inf = 0
    for nu in (0.5, 0.25):
        for d, L in ((1, 3), (2, 2), (1, 4)):
            torus = Torus(d, L)
            params = InteractionParams(
                torus=torus, vL=_random_potential(d, L, R, rng), nu=nu,
                mode=mode, R=R, lam=lam, kappa0=1.0)
            size = int(rng.integers(1, 4))
            configs = [[_random_loop(torus, nu, "ginibre", rng)
                        for _ in range(size)] for _ in range(8)]
            batch = from_paths(configs)
            totals = batch_interaction(batch, params, "ginibre")
            for n in (1, 2, 3):
                groups = [rng.integers(0, n, size) for _ in configs]
                P = _check_group_matrices(
                    batch, np.concatenate(groups), n, configs, groups,
                    params, "ginibre")
                if lam == 0.0:
                    assert not P[np.isfinite(P)].any()
            P = batch_interaction(batch, params, "ginibre",
                                  _slots([size] * len(configs)))
            assert _same(0.5 * P.sum(axis=(1, 2)), totals)
            n_inf += int(np.isinf(totals).sum())
    assert (n_inf > 0) == bool(R)


def test_cut_order_is_lexsort_order_with_ties():
    '''The kernel's cuts and the bridges' jump times are ordered by
    paths.pair_order, one stable argsort of a complex key: the same
    permutation as np.lexsort, ties included: jumps at multiples of nu
    (folded to 0, tied with the cut at 0), equal folded times across
    loops and configurations, and repeated owners.'''
    rng = np.random.default_rng(23)
    torus = Torus(1, 4)
    for nu in (0.5, 0.25, 0.1):
        configs = []
        for _ in range(30):
            shared = nu * rng.integers(0, 3, 2) + nu * rng.choice(
                [0.0, 0.25, 0.5], 2)
            config = []
            for _ in range(int(rng.integers(0, 4))):
                n_win = int(rng.integers(2, 6))
                t = np.sort(np.concatenate((
                    nu * rng.integers(1, n_win, 2).astype(float),
                    np.mod(shared, nu) + nu * rng.integers(0, n_win, 2))))
                t = np.unique(t[t < nu * n_win])
                sites = np.arange(1, len(t) + 1) % 4
                config.append(Path(0, nu * n_win, t, sites))
            configs.append(config)
        batch = from_paths(configs)
        jump_loop = np.repeat(np.arange(len(batch.start)),
                              np.diff(batch.offsets))
        C = batch.n_configs
        # the values and owners of _grid_occupations' cuts
        values = np.concatenate((np.mod(batch.times, nu), np.zeros(C),
                                 np.full(C, nu)))
        owner = np.concatenate((batch.config[jump_loop], np.arange(C),
                                np.arange(C)))
        assert len(np.unique(values)) < len(values)
        order = paths.pair_order(owner, values)
        assert np.array_equal(order, np.lexsort((values, owner)))
        # the bridges' order: walks with tied times
        assert np.array_equal(paths.pair_order(jump_loop, values[:len(
            jump_loop)]), np.lexsort((values[:len(jump_loop)], jump_loop)))


def test_estimators_request_only_what_they_use(monkeypatch):
    '''The loop Monte Carlo asks the kernel for totals for Z, and for one
    matrix of 2 groups (the open paths, the background) over the m
    configurations of each Gamma_p batch; with 1-sample chunks (workers
    == n_samples) the chunks share one batch and one request; the
    cluster expansion asks, for a group of its orders, for the pair
    matrices of as many slots as its largest order has, and labels the
    loops of each sample of order n with the slots 0..n - 1.'''
    requests = []

    def spy(batch, params, kind, groups=None):
        out = batch_interaction(batch, params, kind, groups)
        requests.append((batch.n_configs, groups, out.shape, batch.config))
        return out

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
        assert [(n, groups) for n, groups, _, _ in requests] == [(4, None)]
        requests.clear()
        loop_mc.estimate_gamma_p(spec, 1, [0], [0], 4, seed=2,
                                 workers=workers)
        assert len(requests) == 1
        for n, (group, count), shape, _ in requests:
            assert count == 2 and shape == (n, 2, 2)
            assert n == 4
            # the open paths, one a configuration, then the backgrounds
            group = np.asarray(group)
            assert np.array_equal(group[:n], np.zeros(n))
            assert (group[n:] == 1).all()
        requests.clear()
    cluster.log_Z_via_expansion(spec, n_max=2, n_samples=4, seed=3,
                                workers=4)
    # orders 1 and 2 and the tree-bound order 3, 4 one-sample chunks
    # each, in one group
    [(m, (slot, n), shape, config)] = requests
    assert (m, n, shape) == (12, 3, (12, 3, 3))
    slots = [sorted(slot[config == c]) for c in range(m)]
    assert slots == [list(range(k)) for k in (1, 2, 3) for _ in range(4)]


# -- the kernel's row budget --------------------------------------------------

def _grid_batch(d, L, sizes, seed, kappa=0.3):
    '''Configurations of sizes[c] loops drawn from a Ginibre intensity
    (nu = 0.25 and kappa = 0.3 by default, so that loops span many
    windows).'''
    intensity = LoopIntensity(Torus(d, L), "ginibre", kappa=kappa, nu=0.25)
    loops = intensity.draw_batch([np.random.default_rng(seed)],
                                 [int(sizes.sum())])
    return LoopBatch.join(len(sizes), [
        (np.repeat(np.arange(len(sizes)), sizes), loops, None)])


def _config_rows(batch, n=1):
    '''Field rows of each configuration: slices (jumps + 1, exact unless
    two jump times agree mod nu), times its n groups.'''
    C = batch.n_configs
    return n * (np.bincount(batch.config, np.diff(batch.offsets), C) + 1)


@pytest.mark.parametrize("R", [0, 1])
@pytest.mark.parametrize("same_size", [False, True])
def test_grid_kernel_in_groups_gives_the_same_numbers(monkeypatch, R,
                                                      same_size):
    '''With the row budget down to the largest configuration, the batch
    is evaluated in several runs, and totals and pair matrices (one
    group per slot) are bit-identical to one evaluation.'''
    rng = np.random.default_rng(3 + R)
    torus = Torus(2, 3)
    params = _params(torus, _random_potential(2, 3, R, rng), nu=0.25,
                     lam=0.7, R=R)
    sizes = np.full(60, 3) if same_size else rng.poisson(3.0, 60)
    batch = _grid_batch(2, 3, sizes, seed=11 + R)
    for groups in (None, _slots(sizes)):
        whole = batch_interaction(batch, params, "ginibre", groups)
        rows = _config_rows(batch, 1 if groups is None else groups[1])
        monkeypatch.setattr(interactions, "MAX_CELLS", int(rows.max()))
        assert len(interactions._row_groups(
            rows, 1 if groups is None else groups[1])) > 4
        grouped = batch_interaction(batch, params, "ginibre", groups)
        monkeypatch.undo()
        assert np.array_equal(grouped, whole)
        if R and groups is None:
            assert np.isinf(whole).any() and not np.isinf(whole).all()


def test_grid_configuration_over_the_cell_budget_is_refused(monkeypatch):
    batch = _grid_batch(1, 3, np.full(8, 2), seed=5)
    params = _params(Torus(1, 3), np.array([0.5, 0.1, 0.1]), nu=0.25)
    for groups in (None, _slots(np.full(8, 2))):
        rows = _config_rows(batch, 1 if groups is None else groups[1])
        monkeypatch.setattr(interactions, "MAX_CELLS", int(rows.max()))
        batch_interaction(batch, params, "ginibre", groups)
        monkeypatch.setattr(interactions, "MAX_CELLS", int(rows.max()) - 1)
        with pytest.raises(ValueError, match="occupation field rows"):
            batch_interaction(batch, params, "ginibre", groups)


def test_long_loops_fit_a_budget_on_rows(monkeypatch):
    '''Loops of many windows: with a budget that the rows of every
    configuration fit but the windows x slices of one exceed, the kernel
    gives the numbers of the default budget.'''
    batch = _grid_batch(1, 3, np.full(6, 2), seed=8, kappa=0.02)
    params = _params(Torus(1, 3), np.array([0.5, 0.1, 0.1]), nu=0.25)
    windows = np.bincount(batch.config, np.round(batch.duration / 0.25),
                          batch.n_configs)
    budget = int(_config_rows(batch, 2).max())
    assert (windows * _config_rows(batch)).max() > budget
    every = (None, _slots(np.full(6, 2)))
    expected = [batch_interaction(batch, params, "ginibre", groups)
                for groups in every]
    monkeypatch.setattr(interactions, "MAX_CELLS", budget)
    for groups, want in zip(every, expected):
        assert np.array_equal(
            batch_interaction(batch, params, "ginibre", groups), want)


# -- loops in any order -------------------------------------------------------

def _shuffle(batch, group, rng, interleave):
    '''The batch's loops in a random order, with their configuration and
    group labels: (the shuffled batch, its groups).  With interleave the
    loops of each configuration keep their relative order, and only the
    configurations interleave.'''
    index = rng.permutation(len(batch.config))
    if interleave:
        kept = np.empty_like(index)
        kept[np.argsort(batch.config[index], kind="stable")] = np.argsort(
            batch.config, kind="stable")
        index = kept
    return (LoopBatch.join(batch.n_configs, [(batch.config[index], batch,
                                              index)]), group[index])


@pytest.mark.parametrize("case", ["grid", "grid_hard_core", "continuum",
                                  "split"])
def test_loops_in_any_order_give_the_same_numbers(monkeypatch, case):
    '''Configurations and groups are labels, not positions: shuffled
    together with their labels, a batch's loops give bit-identical
    totals and group pair matrices (3 random groups).  On the grid every
    amount is an integer, so any order sums exactly; the continuum's
    local times are floats, so there each configuration keeps the order
    of its own loops while the configurations interleave.  split: with
    the row budget down to the largest configuration, the shuffled batch
    is evaluated in runs of configurations picked by their labels.'''
    R = int(case == "grid_hard_core")
    kind = "symanzik_eps" if case == "continuum" else "ginibre"
    rng = np.random.default_rng(("grid", "grid_hard_core", "continuum",
                                 "split").index(case))
    torus = Torus(2, 3)
    params = _params(torus, _random_potential(2, 3, R, rng), nu=0.25,
                     lam=0.7, R=R)
    sizes = rng.poisson(3.0, 60)
    if kind == "ginibre":
        batch = _grid_batch(2, 3, sizes, seed=11 + R)
    else:
        intensity = LoopIntensity(torus, kind, kappa=0.3, eps=0.05)
        batch = LoopBatch.join(len(sizes), [
            (np.repeat(np.arange(len(sizes)), sizes),
             intensity.draw_batch([rng], [int(sizes.sum())]), None)])
    group = rng.integers(0, 3, len(batch.config))
    want = [batch_interaction(batch, params, kind, groups)
            for groups in (None, (group, 3))]
    if case == "split":
        rows = _config_rows(batch, 3)
        monkeypatch.setattr(interactions, "MAX_CELLS", int(rows.max()))
        assert len(interactions._row_groups(_config_rows(batch), 1)) > 4
        assert len(interactions._row_groups(rows, 3)) > 4
    for _ in range(5):
        shuffled, moved = _shuffle(batch, group, rng, kind != "ginibre")
        assert not np.array_equal(shuffled.config, batch.config)
        got = [batch_interaction(shuffled, params, kind, groups)
               for groups in (None, (moved, 3))]
        for new, old in zip(got, want):
            assert np.array_equal(new, old)
    assert np.isinf(want[0]).any() == bool(R)
    assert not np.isinf(want[0]).all()
