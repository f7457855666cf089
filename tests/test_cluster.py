'''Cluster-expansion combinatorics and the truncated series engine.'''

import itertools
import math

import numpy as np
import pytest

import cluster_reference as ref
from cluster_reference import Graph, connected_graphs, kruskal, trees
from loop_reference import from_paths

# the fixed paths of log Z: none
NO_PATHS = from_paths([[]])
from loopgas.cluster import (
    _prufer_decode, log_Z_via_expansion, tree_bound_check, tree_count,
    tree_sum, ursell)


# -- checks of the paper's combinatorial identities and bounds ----------------

def degree_sequence(graph):
    '''The degree of each vertex of the graph, in vertex order.'''
    deg = [0] * graph.n
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    return tuple(deg)


def trees_with_degrees(deltas):
    '''All trees with the prescribed degree sequence: vertex i appears
    delta_i - 1 times in the Prufer code, so the trees are the decoded
    distinct permutations of that multiset.'''
    deltas = tuple(int(d) for d in deltas)
    n = len(deltas)
    if tree_count(deltas) == 0:
        return
    if n == 1:
        yield Graph(1, frozenset())
        return
    code = [v for v, d in enumerate(deltas) for _ in range(d - 1)]
    for seq in sorted(set(itertools.permutations(code))):
        yield Graph(n, _prufer_decode(n, seq))


def descendants_identity_check(n):
    '''For every tree on [n] and every root r, check
    sum_{w != r} (1 - |Q(w)|) = |Q(r)| with Q(w) the direct descendants.'''
    for t in trees(n):
        adj = {v: set() for v in range(n)}
        for i, j in t.edges:
            adj[i].add(j)
            adj[j].add(i)
        for r in range(n):
            # orient away from the root: |Q(w)| = deg(w) - 1 for w != r
            q = {w: len(adj[w]) - (0 if w == r else 1) for w in range(n)}
            if sum(1 - q[w] for w in range(n) if w != r) != q[r]:
                return False
    return True


def grid_exponential_moment(kappa, nu, q, tol=1e-15):
    '''nu sum_{T in nu N*} e^{-kappa T} T^q, truncated below tol relative.'''
    total, k = 0.0, 1
    while True:
        term = nu * math.exp(-kappa * nu * k) * (nu * k) ** q
        total += term
        # past the mode the terms decay at least geometrically
        if k * kappa * nu > q and term < tol * max(total, 1e-300):
            return total
        k += 1


def riemann_sum_bound_check(kappa_grid, nu_factors, q_grid):
    '''Check nu sum_T e^{-kappa T} T^q <= C q!/kappa^{q+1} with one
    constant C over the grid; nu runs over nu_factors / kappa (<= 1/kappa).
    Reports the smallest working C (the max ratio).'''
    rows, c_max = [], 0.0
    for kappa in kappa_grid:
        for fac in nu_factors:
            if fac > 1.0 + 1e-12:
                raise ValueError("need nu <= 1/kappa")
            nu = fac / kappa
            for q in q_grid:
                lhs = grid_exponential_moment(kappa, nu, q)
                rhs = math.factorial(q) / kappa ** (q + 1)
                ratio = lhs / rhs
                c_max = max(c_max, ratio)
                rows.append({"kappa": kappa, "nu": nu, "q": q,
                             "lhs": lhs, "rhs": rhs, "ratio": ratio})
    return {"C": c_max, "rows": rows}


# -- enumeration --------------------------------------------------------------

def test_connected_graph_counts():
    # OEIS A001187: 1, 1, 4, 38, 728
    for n, count in [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728)]:
        assert sum(1 for _ in connected_graphs(n)) == count


def test_tree_counts_cayley():
    for n in range(1, 8):
        ts = list(trees(n))
        assert len(ts) == (1 if n == 1 else n ** (n - 2))
        assert len({t.edges for t in ts}) == len(ts)
        assert all(t.is_tree() for t in ts)
        table, rows = ref.penrose_brackets(n)
        assert len(table) == rows == len(ts)


def test_tree_count_formula_vs_enumeration():
    for n in range(2, 8):
        seen = {}
        for t in trees(n):
            seen[degree_sequence(t)] = seen.get(degree_sequence(t), 0) + 1
        for deltas, count in seen.items():
            assert tree_count(deltas) == count
            assert sum(1 for _ in trees_with_degrees(deltas)) == count
    assert tree_count((0,)) == 1
    assert tree_count((1, 2)) == 0      # wrong edge total
    assert tree_count((0, 1, 1)) == 0   # disconnected


def test_descendants_identity():
    for n in range(1, 6):
        assert descendants_identity_check(n)


# -- kruskal ------------------------------------------------------------------

def test_kruskal_returns_spanning_tree():
    for g in connected_graphs(4):
        t = kruskal(g)
        assert t.is_tree()
        assert t.edges <= g.edges


def test_kruskal_fixed_point_on_trees():
    for t in trees(5):
        assert kruskal(t).edges == t.edges


def test_kruskal_bracket_small():
    for n in (2, 3, 4):
        for order in ref.EDGE_ORDERS:
            brackets = ref.kruskal_brackets(n, order)
            assert set(brackets) == {t.edges for t in trees(n)}
            for t_edges, (extra, ok) in brackets.items():
                assert ok
                assert not t_edges & extra


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_penrose_table_is_the_enumerated_bracket(n):
    '''The direct M(T) \\ T of the Penrose table (a non-tree edge larger
    than every edge on T's path between its ends) is the lex-order
    Kruskal bracket found by exhausting the connected graphs, edge set
    for edge set, and the table holds each tree once.'''
    table, rows = ref.penrose_brackets(n)
    assert len(table) == rows == n ** (n - 2)
    brackets = ref.kruskal_brackets(n)
    assert all(ok for _, ok in brackets.values())
    assert table == {t: extra for t, (extra, _) in brackets.items()}


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        kruskal(Graph(3, frozenset({(0, 1)})))


# -- ursell and tree bound ----------------------------------------------------

def _random_zeta(n, rng):
    z = -rng.random((n, n))
    z = np.tril(z, -1)
    z = z + z.T
    return z


def test_ursell_small_closed_forms():
    z = _random_zeta(3, np.random.default_rng(0))
    assert ursell(z[:1, :1]) == 1.0
    assert ursell(z[:2, :2]) == pytest.approx(z[0, 1] / 2.0)
    expected3 = (z[0, 1] * z[0, 2] + z[0, 1] * z[1, 2] + z[0, 2] * z[1, 2]
                 + z[0, 1] * z[0, 2] * z[1, 2]) / 6.0
    assert ursell(z) == pytest.approx(expected3)


def _partitions(items):
    '''Every set partition of items, as lists of blocks.'''
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def test_ursell_partition_identity():
    # prod_{i<j} (1 + zeta_ij) = sum over partitions prod_B |B|! phi_B
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 5):
        z = _random_zeta(n, rng)
        lhs = math.prod(1.0 + z[i, j] for i, j in
                        itertools.combinations(range(n), 2))
        rhs = 0.0
        for part in _partitions(range(n)):
            rhs += math.prod(
                math.factorial(len(b)) * ursell(z[np.ix_(b, b)])
                for b in part)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_tree_bound_and_resummation_random_instances():
    '''The bound holds, and Penrose's tree resummation (ursell) equals
    the connected-graph sum within 1e-12 relative.'''
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        V = rng.random((n, n)) * 3.0
        V = np.triu(V, 1)
        V = V + V.T
        z = np.exp(-0.5 * V) - 1.0
        np.fill_diagonal(z, 0.0)
        report = tree_bound_check(z)
        assert report["bound_ok"]
        assert report["ursell"] == pytest.approx(ref.ursell(z), rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e-3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ursell_is_the_connected_graph_sum(n, scale):
    rng = np.random.default_rng(10 * n)
    stack = scale * np.array([_random_zeta(n, rng) for _ in range(20)])
    phi = ursell(stack)
    for k, zeta in enumerate(stack):
        assert phi[k] == pytest.approx(ref.ursell(zeta), rel=1e-12, abs=0)


@pytest.mark.parametrize("scale", [1.0, 1e-3, "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_tree_sum_is_the_prufer_tree_sum(n, scale):
    '''Kirchhoff's determinant against the sum over the n^{n-2} trees.
    The mixed stack draws each |zeta| over eight decades and sets 30% of
    them to 0: its tree sums span many decades, and some are exactly 0
    where the support does not connect the vertices.'''
    rng = np.random.default_rng(20 * n)
    stack = np.array([_random_zeta(n, rng) for _ in range(20)])
    if scale == "mixed":
        stack *= 10.0 ** rng.uniform(-8, 0, stack.shape)
        stack[rng.random(stack.shape) < 0.3] = 0.0
        stack = np.tril(stack, -1) + np.swapaxes(np.tril(stack, -1), 1, 2)
    else:
        stack *= scale
    bound = tree_sum(stack)
    for k, zeta in enumerate(stack):
        assert bound[k] == pytest.approx(ref.tree_sum(zeta), rel=1e-12, abs=0)


def test_tree_sum_cayley_at_twelve_vertices():
    # every zeta = x: n^{n-2} trees of weight |x|^{n-1}
    for x in (0.3, -0.7):
        zeta = x * (np.ones((12, 12)) - np.eye(12))
        assert tree_sum(zeta) == pytest.approx(
            12 ** 10 * abs(x) ** 11 / math.factorial(12), rel=1e-12)


@pytest.mark.parametrize("fn", [ursell, tree_sum, tree_bound_check])
@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (4, 2, 3), (0, 0),
                                   (5, 0, 0)])
def test_cluster_sums_reject_malformed_zeta(fn, shape):
    with pytest.raises(ValueError, match="n >= 1"):
        fn(np.zeros(shape))


def test_tree_bound_rejects_positive_zeta():
    z = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        tree_bound_check(z)


def test_tree_sum_two_and_three():
    z = _random_zeta(3, np.random.default_rng(3))
    assert tree_sum(z[:2, :2]) == pytest.approx(abs(z[0, 1]) / 2.0)
    expected = (abs(z[0, 1] * z[0, 2]) + abs(z[0, 1] * z[1, 2])
                + abs(z[0, 2] * z[1, 2])) / 6.0
    assert tree_sum(z) == pytest.approx(expected)


# -- bounds -------------------------------------------------------------------

def test_grid_exponential_moment_closed_forms():
    kappa, nu = 1.5, 0.5
    a = math.exp(-kappa * nu)
    # q = 0: nu a/(1-a); q = 1: nu^2 a/(1-a)^2
    assert grid_exponential_moment(kappa, nu, 0) == pytest.approx(
        nu * a / (1 - a), rel=1e-12)
    assert grid_exponential_moment(kappa, nu, 1) == pytest.approx(
        nu ** 2 * a / (1 - a) ** 2, rel=1e-12)


def test_riemann_sum_bound():
    report = riemann_sum_bound_check([0.5, 1.0, 2.0], [0.25, 0.5, 1.0],
                                     [0, 1, 2, 3, 4])
    assert report["C"] < 1.5
    assert all(row["ratio"] <= report["C"] + 1e-15 for row in report["rows"])


# -- series engine ------------------------------------------------------------

def _expansion_spec():
    from loopgas.interactions import InteractionParams
    from loopgas.lattice import PotentialSpec, Torus, periodize_potential
    from loopgas.loop_mc import EnsembleSpec
    from loopgas.paths import LoopIntensity
    torus = Torus(1, 3)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.05}), 3)
    nu = 0.5
    params = InteractionParams(torus=torus, vL=vL, nu=nu, mode="meanfield",
                               kappa=1.5)
    intensity = LoopIntensity(torus, "ginibre", kappa=1.5, nu=nu)
    return EnsembleSpec(torus, params, intensity, "ginibre")


def test_log_z_expansion_leading_order():
    # zero interaction: X = X0 = loop mass exactly, log Z = 0
    from loopgas.interactions import InteractionParams
    from loopgas.loop_mc import EnsembleSpec
    spec = _expansion_spec()
    free_params = InteractionParams(
        torus=spec.torus, vL=0.0 * spec.params.vL, nu=spec.params.nu,
        lam=0.0, mode="generic", kappa=1.5)
    free = EnsembleSpec(spec.torus, free_params, spec.intensity, "ginibre")
    report = log_Z_via_expansion(free, n_max=2, n_samples=400, seed=1)
    assert report["means"][0] == pytest.approx(spec.intensity.total_mass)
    assert abs(report["means"][1]) <= 3.0 * report["std_errors"][1] + 1e-12
    assert abs(report["log_Z"]) <= 3.0 * report["log_Z_se"] + 1e-12


def test_log_z_expansion_vs_oracle():
    from loopgas.quantum_oracle import grand_partition
    spec = _expansion_spec()
    oracle = math.log(grand_partition(spec.params).Z_rel)
    report = log_Z_via_expansion(spec, n_max=3, n_samples=4000, seed=5,
                                 workers=2)
    slack = 3.0 * report["log_Z_se"] + abs(report["remainder"])
    assert abs(report["log_Z"] - oracle) <= slack
    assert all(e > 100 for e in report["ess"])


def test_log_z_at_the_largest_truncation_meets_the_oracle():
    '''n_max = MAX_URSELL_N = 6 on cluster_logz.json's physics: six
    orders, each with its effective sample size, and log Z within 5
    sigma plus the order-7 tree-bound remainder of the exact oracle.'''
    from loopgas.cluster import MAX_URSELL_N
    from loopgas.quantum_oracle import grand_partition
    spec = _expansion_spec()
    oracle = math.log(grand_partition(spec.params).Z_rel)
    report = log_Z_via_expansion(spec, n_max=MAX_URSELL_N, n_samples=2000,
                                 seed=11)
    assert report["orders"] == [1, 2, 3, 4, 5, 6]
    slack = 5.0 * report["log_Z_se"] + abs(report["remainder"])
    assert abs(report["log_Z"] - oracle) <= slack
    assert all(e > 1000 for e in report["ess"])


def test_expansion_budget_guards(monkeypatch):
    '''MAX_URSELL_N is the one truncation cap: estimate_X refuses n_max
    past it, and n_samples below 2, before any draw or kernel call, and
    ursell a larger matrix.'''
    from loopgas import cluster
    from loopgas.cluster import MAX_URSELL_N, estimate_X
    spec = _expansion_spec()

    def no_draw(*args):
        raise AssertionError("a loop was drawn")

    for name in ("draw_batch", "draw_multi_window", "draw_loops",
                 "sample_duration", "sample_multi_window_duration"):
        monkeypatch.setattr(spec.intensity, name, no_draw)
    monkeypatch.setattr(cluster, "batch_interaction", no_draw)
    with pytest.raises(ValueError, match=f"n_max <= {MAX_URSELL_N}"):
        estimate_X(spec, NO_PATHS, n_max=MAX_URSELL_N + 1,
                   n_samples=10, seed=0)
    with pytest.raises(ValueError, match="n_samples >= 2"):
        estimate_X(spec, NO_PATHS, n_max=2, n_samples=1, seed=0)
    with pytest.raises(ValueError):
        ursell(np.zeros((MAX_URSELL_N + 1,) * 2))


@pytest.mark.parametrize("n_max", [3, 6])
@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("budget", [8, 4096])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_orders_drawn_together_equal_orders_one_at_a_time(
        workers, budget, p, n_max, monkeypatch):
    '''The orders and the remainder, drawn in shared groups with one
    bridges call and one kernel call a group, report what each order's
    own run_mc call reported (cluster_reference.estimate_X_by_order),
    bit for bit: log Z (p = 0) and one fixed path (p = 1, whose order 1
    draws no loop), up to n_max = MAX_URSELL_N.  A budget of 8 loops
    cuts each order into batches of 8 // n samples and packs a group
    across orders only around their ends; 4096 packs whole orders.'''
    from loopgas import loop_mc
    from loopgas.cluster import estimate_X
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", budget)
    spec = _expansion_spec()
    n_samples = 61 if n_max == 6 else 101
    if p == 0:
        report = log_Z_via_expansion(spec, n_max, n_samples, 5, workers)
        expected = ref.log_Z_by_order(spec, n_max, n_samples, 5, workers)
    else:
        fixed = spec.intensity.draw_batch([np.random.default_rng(6)], [1])
        report = estimate_X(spec, fixed, n_max, n_samples, 7, workers)
        expected = ref.estimate_X_by_order(spec, fixed, n_max, n_samples, 7,
                                           workers)
    assert report == expected


def test_cluster_logz_request_makes_two_passes(monkeypatch):
    '''A request shaped like the cluster-logz benchmark (n_max = 3, 500
    samples, one worker) draws and evaluates in two groups: orders 1, 2
    and 3 (3000 expected loops), then the tree-bound order 4 (2000):
    two bridges calls, of 3 streams and of 1, and two kernel calls, of
    3 and 4 groups.'''
    from loopgas import cluster, paths
    bridge_calls, kernel_groups = [], []
    draw, kernel = paths.bridges, cluster.batch_interaction

    def bridges_spy(torus, x, T, rngs, counts, y=None):
        bridge_calls.append(len(rngs))
        return draw(torus, x, T, rngs, counts, y)

    def kernel_spy(batch, params, kind, groups):
        kernel_groups.append(groups[1])
        return kernel(batch, params, kind, groups)

    monkeypatch.setattr(paths, "bridges", bridges_spy)
    monkeypatch.setattr(cluster, "batch_interaction", kernel_spy)
    log_Z_via_expansion(_expansion_spec(), 3, 500, 0, workers=1)
    assert bridge_calls == [3, 1]
    assert kernel_groups == [3, 4]


def test_expansion_rejects_hard_core():
    # the pair matrix keeps each loop's self term v(0) = +inf, so every
    # self weight would be 0 and the series would read log Z = -X0
    from loopgas.interactions import InteractionParams
    from loopgas.lattice import PotentialSpec, periodize_potential
    from loopgas.loop_mc import EnsembleSpec
    spec = _expansion_spec()
    vL = periodize_potential(PotentialSpec(1, 1, {}), 3)
    params = InteractionParams(torus=spec.torus, vL=vL, nu=spec.params.nu,
                               mode="meanfield", R=1, kappa=1.5)
    hard = EnsembleSpec(spec.torus, params, spec.intensity, "ginibre")
    with pytest.raises(ValueError, match="R = 0"):
        log_Z_via_expansion(hard, n_max=2, n_samples=10, seed=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ursell_and_tree_sum_over_a_stack(n):
    rng = np.random.default_rng(n)
    stack = np.array([_random_zeta(n, rng) for _ in range(7)])
    phi, bound = ursell(stack), tree_sum(stack)
    assert phi.shape == bound.shape == (7,)
    for k, zeta in enumerate(stack):
        assert phi[k] == pytest.approx(ursell(zeta), rel=1e-12, abs=1e-15)
        assert bound[k] == pytest.approx(tree_sum(zeta), rel=1e-12,
                                         abs=1e-15)
    # any leading axes
    grid = stack[:6].reshape(2, 3, n, n)
    assert ursell(grid) == pytest.approx(phi[:6].reshape(2, 3), rel=1e-15)
    assert tree_sum(grid) == pytest.approx(bound[:6].reshape(2, 3),
                                           rel=1e-15)


def _reference_sampler(spec, fixed, n, phi_of):
    '''A run_mc sample function of order n of the series over the fixed
    paths, per sample, from the reference sampler and kernel on the
    library's streams: all m (n - p) loops of a batch drawn at once, the
    batches cut by the library's rule.  Order 1 of log Z (p = 0) draws
    loops of two windows or more, of mass C.  Rows (value, w, w^2, S)
    and, past order 1, V: S the drawn loops' summed durations, V the
    summed pair interactions of the pairs holding a drawn loop.'''
    import loop_reference
    from loopgas.loop_mc import _batch_size
    p = len(fixed)
    stratum = p == 0 and n == 1
    mass = (math.fsum(loop_reference.multi_window_masses(spec.intensity.a))
            if stratum else spec.intensity.total_mass)
    factor = math.factorial(n) // math.factorial(n - p) * mass ** (n - p)
    draw = (loop_reference.draw_multi_window if stratum
            else loop_reference.draw_batch)

    def one(drawn):
        V = loop_reference.pair_matrix(fixed + drawn, spec.params, spec.kind)
        weight = math.prod(np.exp(-0.5 * np.diag(V)[p:]).tolist())
        zeta = np.exp(-V) - 1.0
        np.fill_diagonal(zeta, 0.0)
        row = (factor * weight * phi_of(zeta), weight, weight * weight,
               sum(path.duration for path in drawn))
        pairs = [V[i, j] for j in range(p, n) for i in range(j)]
        return row + (sum(pairs),) if n > 1 else row

    def batch(rng, m):
        loops = draw(spec.intensity, rng, m * (n - p))
        return [one(loops[s * (n - p):(s + 1) * (n - p)]) for s in range(m)]

    size = _batch_size(n)
    # one sample per list entry, then run_mc's rows
    return loop_reference.per_worker(lambda rng, m: np.array([
        row for lo in range(0, m, size)
        for row in batch(rng, min(size, m - lo))]).T)


def test_estimate_x_matches_per_sample_reference(monkeypatch):
    '''One fixed path (p = 1): the batched orders' plain estimates and
    the remainder equal a per-sample run of the reference sampler and
    kernel on the same streams (order n on the seed sequence (9, n)),
    drawn batch by batch by the library's rule, with a loop budget that
    cuts each 75-sample chunk into at least 3 batches.'''
    import loop_reference
    from loopgas import loop_mc
    from loopgas.cluster import estimate_X
    from loopgas.loop_mc import _batch_size, run_mc
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", 32)
    spec = _expansion_spec()
    fixed = [loop_reference.sample_free_walk(spec.torus, 0, 1.0,
                                             np.random.default_rng(3))]
    report = estimate_X(spec, from_paths([fixed]), n_max=3, n_samples=150,
                        seed=9,
                        workers=2)
    assert 75 > 2 * _batch_size(3)
    for k, n in enumerate(report["orders"]):
        mean, se, _ = run_mc(_reference_sampler(spec, fixed, n, ursell),
                             150, (9, n), 2)
        assert report["plain_means"][k] == pytest.approx(mean[0], rel=1e-12)
        assert report["plain_std_errors"][k] == pytest.approx(se[0],
                                                              rel=1e-12)
    rem, _, _ = run_mc(_reference_sampler(spec, fixed, 4, tree_sum), 150,
                       (9, 4), 2)
    assert report["remainder"] == pytest.approx(rem[0], rel=1e-12)


@pytest.mark.parametrize("p", [0, 1])
def test_estimate_x_orders_take_the_control_step(p, monkeypatch):
    '''Each order's controlled mean is its plain mean plus the step's
    delta, with the step's SE: the step of _control_step on the reference
    rows, regressing the value on the drawn loops' summed durations S
    and, past order 1, their summed pair interactions V, about exact
    means computed here term by term: order 1 of log Z (p = 0) draws
    only loops of two windows or more, of mean duration nu sum_xi
    a_xi^2 / (1 - a_xi) / C, and adds their exact one-window part
    e^{-lam v(0)/2} sum_xi a_xi to its plain mean; order n >= 2 has
    E S = q E T and E V = lam vhat(0) E T (C(q, 2) E T + q T_fixed) /
    (nu^2 |Lambda|), q = n - p.  Order p (p = 1) draws no loop and stays
    plain.'''
    import loop_reference
    from loopgas import loop_mc
    from loopgas.cluster import estimate_X
    from loopgas.loop_mc import _control_step, run_mc
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", 64)
    spec = _expansion_spec()
    fixed = [loop_reference.sample_free_walk(spec.torus, 0, 1.0,
                                             np.random.default_rng(3))][:p]
    report = estimate_X(spec, from_paths([fixed]), n_max=3, n_samples=240,
                        seed=4,
                        workers=2)
    a, nu = spec.intensity.a.tolist(), spec.params.nu
    C = math.fsum(loop_reference.multi_window_masses(a))
    one_window = (math.exp(-0.5 * spec.params.lam * spec.params.vL[0])
                  * math.fsum(a))
    t1 = spec.intensity.duration_moments[0]
    pair = (spec.params.lam * math.fsum(spec.params.vL.tolist())
            / (nu ** 2 * spec.torus.n_sites))
    fixed_T = sum(path.duration for path in fixed)
    assert report["one_window"] == (pytest.approx(one_window, rel=1e-14)
                                    if p == 0 else None)
    assert report["drawn_share"] == (pytest.approx(
        C / spec.intensity.total_mass, rel=1e-14) if p == 0 else None)
    for k, n in enumerate(report["orders"]):
        q = n - p
        mean, se, rows = run_mc(_reference_sampler(spec, fixed, n, ursell),
                                240, (4, n), 2)
        if n == 1:
            means = [nu * math.fsum(x * x / (1 - x) for x in a) / C
                     if p == 0 else 0.0]
        else:
            means = [q * t1, pair * t1 * (q * (q - 1) / 2 * t1 + q * fixed_T)]
        step = _control_step(rows[0], mean[0], rows[3:], np.array(means))
        assert report["controls"][k] == (["S"] if n == 1 else ["S", "V"])
        offset = one_window if p == 0 and n == 1 else 0.0
        assert report["plain_means"][k] == pytest.approx(offset + mean[0],
                                                         rel=1e-12)
        if n == p:
            assert step is None
            assert report["means"][k] == report["plain_means"][k]
            assert report["variance_ratios"][k] == 1.0
            continue
        delta, step_se, _ = step
        assert report["means"][k] == pytest.approx(
            report["plain_means"][k] + delta, rel=1e-12)
        assert report["std_errors"][k] == pytest.approx(step_se, rel=1e-12)
        assert report["variance_ratios"][k] == pytest.approx(
            (step_se / se[0]) ** 2, rel=1e-12)
    assert report["total_se"] == pytest.approx(
        math.sqrt(sum(s * s for s in report["std_errors"])), rel=1e-15)


def test_estimate_x_plain_below_the_fold_minimum():
    '''Below 25 samples per control in a fold every order keeps its
    plain estimate exactly, and the plain estimates do not depend on the
    step: order 1 has one control (S) and orders 2 and 3 two (S, V), so
    49 samples (folds of 24 and 25) leave all three plain, 50 to 99
    control order 1 alone, and 100 (folds of 50) control every order.'''
    from loopgas.cluster import estimate_X
    spec = _expansion_spec()
    report = estimate_X(spec, NO_PATHS, n_max=3, n_samples=49, seed=2)
    assert report["means"] == report["plain_means"]
    assert report["std_errors"] == report["plain_std_errors"]
    assert report["variance_ratios"] == [1.0, 1.0, 1.0]
    for n_samples in (50, 99):
        one = estimate_X(spec, NO_PATHS, n_max=3, n_samples=n_samples, seed=2)
        assert one["means"][0] != one["plain_means"][0]
        assert one["means"][1:] == one["plain_means"][1:]
        assert one["std_errors"][1:] == one["plain_std_errors"][1:]
        assert one["variance_ratios"][1:] == [1.0, 1.0]
    more = estimate_X(spec, NO_PATHS, n_max=3, n_samples=100, seed=2)
    assert all(c != plain for c, plain in zip(more["means"],
                                              more["plain_means"]))


def test_controlled_log_z_is_calibrated_at_cluster_logz_physics():
    '''200 requests of cluster_logz.json's physics at 500 samples per
    order (seeds 0-199): the pooled log Z is within 3 sigma of log Z_rel
    of the exact oracle, the controls cut the mean variance ratio of log
    Z below 0.4, and the spread of the estimates matches their SEs
    (empirical variance over the mean SE^2 in [0.8, 1.25]).'''
    from loopgas.quantum_oracle import grand_partition
    spec = _expansion_spec()
    oracle = math.log(grand_partition(spec.params).Z_rel)
    reports = [log_Z_via_expansion(spec, n_max=3, n_samples=500, seed=seed)
               for seed in range(200)]
    log_z = np.array([r["log_Z"] for r in reports])
    se2 = np.array([r["log_Z_se"] ** 2 for r in reports])
    plain_se2 = np.array([sum(s * s for s in r["plain_std_errors"])
                          for r in reports])
    pooled_se = math.sqrt(se2.mean() / len(reports))
    assert abs(log_z.mean() - oracle) <= 3.0 * pooled_se
    assert (se2 / plain_se2).mean() < 0.4
    assert 0.8 <= log_z.var(ddof=1) / se2.mean() <= 1.25


# -- the exact means of the cluster controls ------------------------------------

def _nonlocal_d2_spec():
    '''d = 2, L = 3, nu = 0.5, lam = 0.3, kappa = 1: a six-entry nonlocal
    potential (the origin, both axes, both diagonals and a second
    neighbour).'''
    from loopgas.interactions import InteractionParams
    from loopgas.lattice import PotentialSpec, Torus, periodize_potential
    from loopgas.loop_mc import EnsembleSpec
    from loopgas.paths import LoopIntensity
    torus = Torus(2, 3)
    vL = periodize_potential(PotentialSpec(2, 0, {
        (0, 0): 0.4, (1, 0): 0.2, (0, 1): 0.15, (1, 1): 0.1, (1, -1): 0.05,
        (2, 0): 0.08}), 3)
    params = InteractionParams(torus=torus, vL=vL, nu=0.25, lam=0.3,
                               mode="generic", kappa=4.0)
    intensity = LoopIntensity(torus, "ginibre", kappa=4.0, nu=0.25)
    return EnsembleSpec(torus, params, intensity, "ginibre")


@pytest.mark.parametrize("build", [_expansion_spec, _nonlocal_d2_spec],
                         ids=["d1", "d2_nonlocal"])
def test_pair_interaction_has_its_exact_mean(build):
    '''E V_ij = lam vhat(0) E T_i E T_j / (nu^2 |Lambda|), vhat(0) =
    sum_u v_L(u): a loop's base site is uniform, so its mean occupation
    is E T / (nu |Lambda|) at every site and time.  10^6 configurations
    (a fixed open walk of duration 1, then two drawn loops) give
    10^6 drawn-drawn pairs V_12 and, per configuration, the mean of the
    two fixed-drawn pairs V_01, V_02: both within 4 sigma.'''
    from loopgas.interactions import batch_interaction
    from loopgas.paths import LoopBatch
    from loop_reference import sample_free_walk
    spec = build()
    params, intensity = spec.params, spec.intensity
    rng = np.random.default_rng(2026)
    fixed = from_paths([[sample_free_walk(spec.torus, 0, 1.0, rng)]])
    t1 = intensity.duration_moments[0]
    pair = (params.lam * math.fsum(params.vL.tolist())
            / (params.nu ** 2 * spec.torus.n_sites))
    drawn, with_fixed = [], []
    for _ in range(10):
        m = 10 ** 5
        loops = intensity.draw_batch([rng], [2 * m])
        batch = LoopBatch.join(m, [
            (np.arange(m), fixed, np.zeros(m, dtype=np.int64)),
            (np.repeat(np.arange(m), 2), loops, None)])
        # slot 0: the fixed walk, slots 1 and 2: the drawn loops
        slot = np.concatenate((np.zeros(m, dtype=np.int64),
                               np.tile([1, 2], m)))
        V = batch_interaction(batch, params, spec.kind, (slot, 3))
        drawn.append(V[:, 1, 2])
        with_fixed.append(0.5 * (V[:, 0, 1] + V[:, 0, 2]))
    for samples, exact in ((np.concatenate(drawn), pair * t1 * t1),
                           (np.concatenate(with_fixed), pair * 1.0 * t1)):
        z = ((samples.mean() - exact)
             / (samples.std(ddof=1) / math.sqrt(len(samples))))
        assert abs(z) < 4.0, (z, exact)


def test_order_one_is_exact_when_no_loop_has_two_windows(tmp_path):
    '''kappa nu = 400: every a_xi is about e^{-400}, so each c_xi = sum_{k
    >= 2} a_xi^k / k underflows to 0 while the one-window mass sum_xi
    a_xi does not.  Order 1 is then its one-window part exactly, with SE
    0 and no draw, and the whole series and the command line run
    without a warning.'''
    import json
    import warnings
    from loopgas.cli import main
    from loopgas.cluster import estimate_X
    from loopgas.interactions import InteractionParams
    from loopgas.loop_mc import EnsembleSpec
    from loopgas.paths import LoopIntensity
    spec = _expansion_spec()
    params = InteractionParams(torus=spec.torus, vL=spec.params.vL, nu=0.5,
                               mode="meanfield", kappa=800.0)
    intensity = LoopIntensity(spec.torus, "ginibre", kappa=800.0, nu=0.5)
    cold = EnsembleSpec(spec.torus, params, intensity, "ginibre")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimate_X(cold, NO_PATHS, n_max=1, n_samples=100, seed=0)
        assert intensity.multi_window == (0.0, 0.5)
        assert 0.0 < intensity.a.sum() == intensity.total_mass
        exact = math.exp(-0.5 * 0.25 * 0.05) * float(intensity.a.sum())
        assert report["one_window"] == report["means"][0] == exact
        assert report["std_errors"] == report["plain_std_errors"] == [0.0]
        assert report["drawn_share"] == 0.0
        assert report["ess"] == [100.0]
        series = log_Z_via_expansion(cold, n_max=3, n_samples=100, seed=0)
        assert series["log_Z_se"] == 0.0
        assert series["log_Z"] == pytest.approx(exact - intensity.total_mass)
    cfg = tmp_path / "cold.json"
    cfg.write_text(json.dumps({
        "experiment": "cluster-logz", "torus": {"d": 1, "L": 3},
        "potential": {"d": 1, "R": 0, "entries": [[[0], 0.05]]},
        "nu": 0.5, "kappa": 800.0, "lambda_rule": "nu_squared",
        "n_samples": 100, "n_max": 3}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["cluster-logz", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0


# Order 1 of log Z at cluster_logz.json's physics, from one run of 4 *
# 10^6 samples (seed 10^6, workers 2) of the stratified estimate:
# 1.1308706 +- 1.2e-6.  A plain run of 2 * 10^6 samples of the unstratified
# estimate gave 1.1308727 +- 1.3e-5, 0.2 sigma away.
_ORDER_ONE = 1.1308706110968048


def test_order_one_is_calibrated_in_its_tail():
    '''1500 order-1 requests (500 samples, seeds 0-1499, on the streams
    (s, 1)) against the frozen reference: the z variance
    is at most 1.25, the z variance of the decile with the smallest SE
    at most 2.5, and no request lies beyond 5 sigma.  A control whose
    exact mean the draws rarely reach (the S, Q controls of the
    unstratified order 1 gave 1.69, 6.9 and 7 of 1500 here) fails all
    three; the aggregate variance ratio of the calibration test above
    cannot see it.'''
    from loopgas.cluster import estimate_X
    spec = _expansion_spec()
    reports = [estimate_X(spec, NO_PATHS, n_max=1, n_samples=500, seed=seed)
               for seed in range(1500)]
    mean = np.array([r["means"][0] for r in reports])
    se = np.array([r["std_errors"][0] for r in reports])
    z = (mean - _ORDER_ONE) / se
    smallest = z[np.argsort(se)[:len(z) // 10]]
    assert (z * z).mean() <= 1.25
    assert (smallest * smallest).mean() <= 2.5
    assert np.abs(z).max() <= 5.0
