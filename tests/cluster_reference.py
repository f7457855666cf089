'''Enumerated references for the cluster-expansion combinatorics, kept as
test oracles: graphs on [n], every connected graph by edge mask, the
labelled trees by Prufer code, Kruskal's map under any edge order with
its preimage bracket found by exhaustion, the Ursell function as its sum
over connected graphs and the tree bound as its sum over trees.  The
library computes the Ursell function by Penrose's tree resummation and
the tree bound by Kirchhoff's matrix-tree theorem; the tests check both
against these sums, and penrose_brackets reads the library's table of
M(T) \\ T into the form of kruskal_brackets.
'''

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from loopgas.cluster import _penrose_table, _prufer_decode


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
