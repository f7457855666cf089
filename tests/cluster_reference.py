'''Enumerated references for the cluster-expansion combinatorics, kept as
test oracles: graphs on [n], every connected graph by edge mask, the
labelled trees by Prufer code, Kruskal's map under any edge order with
its preimage bracket found by exhaustion, the Ursell function as its sum
over connected graphs and the tree bound as its sum over trees.  The
library computes the Ursell function by Penrose's tree resummation and
the tree bound by Kirchhoff's matrix-tree theorem; the tests check both
against these sums, and penrose_brackets reads the library's table of
M(T) \\ T into the form of kruskal_brackets.

estimate_X_by_order and log_Z_by_order are the truncated series as the
library ran it before it drew its orders together: each order, and the
tree-bound remainder, one driver run of its own (loop_mc.run_groups
with one run) on the streams (seed, n), its groups those of its own
batches, and its pair matrices from a kernel call of n groups.  The
library's reports must equal theirs bit for bit.
'''

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from loopgas import cluster, loop_mc
from loopgas.cluster import _penrose_table, _prufer_decode
from loopgas.interactions import batch_interaction
from loopgas.paths import LoopBatch


@dataclass(frozen=True)
class Graph:
    '''Simple graph on vertices 0..n-1; edges are (i, j) pairs with i < j.'''
    n: int
    edges: frozenset

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge ({i}, {j}) on {self.n} vertices")

    def is_connected(self):
        return _is_connected(self.n, self.edges)

    def is_tree(self):
        return len(self.edges) == self.n - 1 and self.is_connected()


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _is_connected(n, edges):
    uf = _UnionFind(n)
    parts = n
    for i, j in edges:
        if uf.union(i, j):
            parts -= 1
    return parts == 1


def connected_graphs(n):
    '''All connected graphs on [n], one per edge mask of the complete graph.'''
    all_edges = complete_edges(n)
    for mask in range(1 << len(all_edges)):
        edges = frozenset(e for b, e in enumerate(all_edges) if mask >> b & 1)
        if _is_connected(n, edges):
            yield Graph(n, edges)


def trees(n):
    '''All labelled trees on [n], one per Prufer sequence.'''
    if n == 1:
        yield Graph(1, frozenset())
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield Graph(n, _prufer_decode(n, seq))


# the lexicographic order and two others, for the bracket checks
EDGE_ORDERS = [lambda e: e, lambda e: (e[1], e[0]), lambda e: (-e[0], -e[1])]


def kruskal(graph, edge_order=EDGE_ORDERS[0]):
    '''The spanning tree K(G): grow a forest from the empty set, always
    adding the smallest edge of G that closes no cycle.'''
    if not graph.is_connected():
        raise ValueError("kruskal requires a connected graph")
    uf = _UnionFind(graph.n)
    kept = []
    for e in sorted(graph.edges, key=edge_order):
        if uf.union(*e):
            kept.append(e)
    return Graph(graph.n, frozenset(kept))


def kruskal_brackets(n, edge_order=EDGE_ORDERS[0]):
    '''For each tree T on [n]: M(T) \\ T, with M(T) the union of the
    connected graphs G with K(G) = T, and whether K^{-1}(T) is exactly
    the bracket {G : T subset G subset M(T)}; by exhaustion over the
    connected graphs.'''
    preimages = {}
    for g in connected_graphs(n):
        preimages.setdefault(kruskal(g, edge_order).edges, set()).add(g.edges)
    out = {}
    for tree, preimage in preimages.items():
        extra = frozenset().union(*preimage) - tree
        bracket = {tree | frozenset(s) for r in range(len(extra) + 1)
                   for s in itertools.combinations(extra, r)}
        out[tree] = (extra, preimage == bracket)
    return out


def penrose_brackets(n):
    '''The library's Penrose table as {T: M(T) \\ T}, edge sets as in
    kruskal_brackets, and its row count.'''
    edges, tree_mask, extra_mask = _penrose_table(n)

    def edge_set(row):
        return frozenset(e for e, bit in zip(edges, row) if bit)

    return ({edge_set(t): edge_set(x) for t, x in zip(tree_mask, extra_mask)},
            len(tree_mask))


@lru_cache(maxsize=None)
def _masks(n, connected):
    '''Edge masks (lex edge order) of the connected graphs or the trees.'''
    all_edges = complete_edges(n)
    graphs = connected_graphs(n) if connected else trees(n)
    rows = [[e in g.edges for e in all_edges] for g in graphs]
    return all_edges, np.array(rows, dtype=bool).reshape(len(rows),
                                                         len(all_edges))


def _graph_sum(zeta, connected, absolute):
    zeta = np.asarray(zeta, dtype=float)
    n = len(zeta)
    all_edges, masks = _masks(n, connected)
    z = np.array([zeta[i, j] for i, j in all_edges])
    if absolute:
        z = np.abs(z)
    return float(np.where(masks, z, 1.0).prod(axis=1).sum()
                 / math.factorial(n))


def ursell(zeta):
    '''phi = (1/n!) sum over connected graphs of prod of edge zetas, for
    one (n, n) matrix.'''
    return _graph_sum(zeta, connected=True, absolute=False)


def tree_sum(zeta):
    '''(1/n!) sum over trees of prod of edge |zeta|, for one (n, n)
    matrix.'''
    return _graph_sum(zeta, connected=False, absolute=True)


# -- the truncated series, one order at a time ----------------------------

def estimate_X_by_order(spec, fixed, n_max, n_samples, seed, workers=1,
                        run=None):
    '''cluster.estimate_X with each order n, and the remainder n_max +
    1, drawn and reduced by one driver call run(group function, [((seed,
    n), n)], n_samples, workers) of its own (run None:
    loop_mc.run_groups).'''
    run = run or loop_mc.run_groups
    p = len(fixed.start)
    intensity, params = spec.intensity, spec.params
    mass = intensity.total_mass
    mean_T = intensity.duration_moments[0]
    pair = (params.lam * float(params.vL.sum())
            / (params.nu ** 2 * spec.torus.n_sites))
    fixed_T = sum(fixed.duration.tolist())
    orders = list(range(max(p, 1), n_max + 1))
    one_window = drawn_share = None
    drawn_mass, drawn_T = 0.0, 0.0
    if p == 0:
        drawn_mass, drawn_T = intensity.multi_window
        one_window = (math.exp(-0.5 * params.lam * float(params.vL[0]))
                      * float(intensity.a.sum()))
        drawn_share = drawn_mass / mass if mass > 0 else 0.0

    def sampler(n, bound_mode=False):
        q = n - p
        stratum = p == 0 and n == 1
        factor = (math.factorial(n) // math.factorial(q)
                  * (drawn_mass if stratum else mass) ** q)
        durations = (intensity.sample_multi_window_duration if stratum
                     else intensity.sample_duration)
        phi_of = cluster.tree_sum if bound_mode else cluster.ursell

        def sample_group(group):
            [(_, rngs, counts)] = group
            m = sum(counts)
            counts = [k * q for k in counts]
            loops = intensity.draw_loops(rngs, counts,
                                         durations(rngs, counts))
            fixed_slot = np.tile(np.arange(p), m)
            batch = LoopBatch.join(m, [
                (np.repeat(np.arange(m), p), fixed, fixed_slot),
                (np.repeat(np.arange(m), q), loops, None)])
            slot = np.concatenate((fixed_slot, np.tile(np.arange(p, n), m)))
            T = loops.duration.reshape(m, q)
            V = batch_interaction(batch, params, spec.kind, (slot, n))
            weight, zeta = cluster._weights_and_zeta(V, p)
            rows = [factor * weight * phi_of(zeta), weight, weight * weight,
                    T.sum(axis=1)]
            if n > 1:
                rows.append(np.triu(V, 1)[:, :, p:].sum(axis=(1, 2)))
            return [np.stack(rows)]

        return sample_group

    report = {"p": p, "n_max": n_max, "orders": orders, "means": [],
              "std_errors": [], "plain_means": [], "plain_std_errors": [],
              "variance_ratios": [], "controls": [], "ess": [],
              "mass": mass, "one_window": one_window,
              "drawn_share": drawn_share}
    for n in orders:
        q = n - p
        stratum = p == 0 and n == 1
        if n == 1:
            names, means = ["S"], [drawn_T]
        else:
            names = ["S", "V"]
            means = [q * mean_T, pair * mean_T * (q * (q - 1) / 2 * mean_T
                                                  + q * fixed_T)]
        offset = one_window if stratum else 0.0
        if stratum and not drawn_mass > 0:
            value, value_se, step, ess = offset, 0.0, None, float(n_samples)
        else:
            [(mean, se, rows)] = run(sampler(n), [((seed, n), n)],
                                     n_samples, workers)
            value, value_se = offset + float(mean[0]), float(se[0])
            step = loop_mc._control_step(rows[0], mean[0], rows[3:],
                                         np.array(means))
            ess = (float(n_samples * mean[1] ** 2 / mean[2]) if mean[2] > 0
                   else 0.0)
        value, value_se, controls = loop_mc._controlled(value, value_se,
                                                        step, 1.0, names)
        report["means"].append(value)
        report["std_errors"].append(value_se)
        report["plain_means"].append(controls["plain_mean"])
        report["plain_std_errors"].append(controls["plain_se"])
        report["variance_ratios"].append(controls["variance_ratio"])
        report["controls"].append(controls["controls"])
        report["ess"].append(ess)
    [(rem, rem_se, _)] = run(sampler(n_max + 1, bound_mode=True),
                             [((seed, n_max + 1), n_max + 1)], n_samples,
                             workers)
    report["remainder"] = float(rem[0])
    report["remainder_se"] = float(rem_se[0])
    report["total"] = float(sum(report["means"]))
    report["total_se"] = float(math.sqrt(sum(s * s
                                             for s in report["std_errors"])))
    return report


def log_Z_by_order(spec, n_max, n_samples, seed, workers=1, run=None):
    '''cluster.log_Z_via_expansion over estimate_X_by_order.'''
    no_paths = LoopBatch(1, [], [], [], [], [], [])
    report = estimate_X_by_order(spec, no_paths, n_max, n_samples, seed,
                                 workers, run)
    report["X0"] = spec.intensity.total_mass
    report["log_Z"] = report["total"] - report["X0"]
    report["log_Z_se"] = report["total_se"]
    return report
