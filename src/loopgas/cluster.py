'''Combinatorics and cluster-expansion engine: connected graphs, trees,
the Kruskal map and its preimage bracket, Ursell functions, the tree
bound with its resummation identity, degree-constrained tree counts and
the truncated expansion series for log Z.

The expansion is built on the loop measure
  mu(dw) = nu sum_{T in nu N*} (e^{-kappa T}/T) W^{L,T}(dw) e^{-V(w,w)/2},
with Mayer factor zeta(w, wt) = e^{-V(w,wt)/2} - 1 and
  X(w_1..w_p) = sum_{n >= max(p,1)} n!/(n-p)! int mu^{(n-p)} phi(w_1..w_n),
phi the Ursell function.  Then log Z = X - X^0.

Each order n of estimate_X is a controlled Monte Carlo estimate, with the
cross-fitted step of loop_mc (loop_mc._control_step, Glasserman, Monte
Carlo Methods in Financial Engineering, 4.1), built on two exact
identities of the loop measure; there is no switch.

Order 1 of log Z (p = 0) is stratified on the window count k (ibid.,
4.3).  A loop of one window holds one particle at every time, so its
self-interaction is lam v_L(0) for every path and potential, and with
the mode weights a_xi (paths.LoopIntensity) the one-window loops give
X_1 = e^{-lam v_L(0)/2} sum_xi a_xi + C E[e^{-V(w,w)/2} | k >= 2],
C = sum_xi (-log(1 - a_xi) - a_xi) the mass of the rest.  Only loops of
k >= 2 windows are drawn (LoopIntensity.draw_multi_window), and their
duration S = T, of exact conditional mean nu sum_xi a_xi^2/(1 - a_xi)/C,
is the control.  On cluster_logz.json's physics about 80% of the loop
mass has one window, a stratum of zero variance that plain sampling
spends 80% of its samples on.

Every other order draws its n - p loops i.i.d. from the normalized loop
law and is controlled by their summed durations S and by V, the summed
pair interactions V_ij of the pairs (i < j) that hold a drawn loop,
which the pair matrices of the draw phase already hold.  A loop's base
site is uniform, so its mean occupation is E T / (nu |Lambda|) at every
site and time, and for every potential
  E V_ij = lam vhat(0) E T_i E T_j / (nu^2 |Lambda|),  vhat(0) = sum_u v_L(u),
with T_i the duration of a fixed path or E T of a drawn loop.  Order 2's
integrand is e^{-V_12} - 1, nearly linear in V_12.  Over seeds 0-2999 of
the cluster-logz benchmark request (n_max = 3, 500 samples an order) the
mean SE^2 of log Z fell 13x, from 1.64e-7 to 1.24e-8: per order 1.15e-8,
8.8e-10 and 2.4e-11.  Order p draws no loop, and an order with fewer
than 25 samples per control in a fold keeps the plain estimate.  The
tree-bound remainder and the effective sample sizes stay plain.

Order n of a request at seed s runs on the stream of the seed sequence
(s, n), and the remainder on (s, n_max + 1), so no two orders of any
two requests share a stream.
'''

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .interactions import batch_interaction
from .loop_mc import _batched, _control_step, _controlled, run_mc
from .paths import LoopBatch

MAX_ENUM_N = 7
MAX_URSELL_N = 6
MAX_BRACKET_N = 5


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


def _check_enum_budget(n, cap, what):
    if n < 1:
        raise ValueError("need n >= 1")
    if n > cap:
        raise ValueError(f"{what} enumeration budget is n <= {cap}, got {n}")


def connected_graphs(n):
    '''All connected graphs on [n], duplicate-free (n <= 7).'''
    _check_enum_budget(n, MAX_ENUM_N, "connected graph")
    all_edges = complete_edges(n)
    for mask in range(1 << len(all_edges)):
        edges = frozenset(e for b, e in enumerate(all_edges) if mask >> b & 1)
        if _is_connected(n, edges):
            yield Graph(n, edges)


def _prufer_decode(n, seq):
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if deg[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        deg[leaf] -= 1
        deg[v] -= 1
    u, w = [x for x in range(n) if deg[x] == 1]
    edges.append((u, w))
    return frozenset(edges)


def trees(n):
    '''All labelled trees on [n] via Prufer sequences (n <= 7).'''
    _check_enum_budget(n, MAX_ENUM_N, "tree")
    if n == 1:
        yield Graph(1, frozenset())
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield Graph(n, _prufer_decode(n, seq))


def tree_count(deltas):
    '''|T_n^{delta}| = (n-2)!/prod (delta_i - 1)!; 0 for infeasible
    sequences; the single-vertex tree counts as 1 for delta = (0,).'''
    deltas = tuple(int(d) for d in deltas)
    n = len(deltas)
    if n == 1:
        return 1 if deltas == (0,) else 0
    if any(d < 1 for d in deltas) or sum(deltas) != 2 * (n - 1):
        return 0
    if n == 2:
        return 1
    out = math.factorial(n - 2)
    for d in deltas:
        out //= math.factorial(d - 1)
    return out


def lexicographic_order(edge):
    return edge


def kruskal(graph, edge_order=lexicographic_order):
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


def kruskal_preimage_bracket(tree, edge_order=lexicographic_order):
    '''M(T) = union of all connected G with K(G) = T, plus exhaustive
    verification that K^{-1}(T) = {G : T subset G subset M(T)} (n <= 5).'''
    _check_enum_budget(tree.n, MAX_BRACKET_N, "preimage bracket")
    if not tree.is_tree():
        raise ValueError("expected a tree")
    preimage = [g for g in connected_graphs(tree.n)
                if kruskal(g, edge_order).edges == tree.edges]
    m_edges = frozenset().union(*(g.edges for g in preimage))
    bracket = {frozenset(tree.edges | set(extra))
               for r in range(len(m_edges - tree.edges) + 1)
               for extra in itertools.combinations(m_edges - tree.edges, r)}
    ok = {g.edges for g in preimage} == bracket
    return Graph(tree.n, m_edges), ok


@lru_cache(maxsize=None)
def _expansion_tables(n):
    '''Edge-mask tables over the complete graph on [n] (lex edge order):
    connected-graph masks, tree masks, and for each tree the extra edges
    M(T) \\ T of the Kruskal preimage bracket.'''
    all_edges = complete_edges(n)

    def mask(edges):
        return [e in edges for e in all_edges]

    def table(rows):
        return np.array(rows, dtype=bool).reshape(len(rows), len(all_edges))

    conn = table([mask(g.edges) for g in connected_graphs(n)])
    tree_rows, extra_rows = [], []
    for t in trees(n):
        tree_rows.append(mask(t.edges))
        if n <= MAX_BRACKET_N:
            m, ok = kruskal_preimage_bracket(t)
            if not ok:
                raise AssertionError("Kruskal bracket failed in table build")
            extra_rows.append(mask(m.edges - t.edges))
    return (all_edges, conn, table(tree_rows),
            table(extra_rows) if extra_rows else None)


def _edge_values(matrix, all_edges):
    '''The entries (i, j) of the edges, lex order, of (..., n, n) matrices.'''
    i, j = np.array(all_edges, dtype=np.int64).reshape(-1, 2).T
    return matrix[..., i, j]


def _graph_sum(z, masks, n):
    '''(1/n!) sum over the graphs (rows of masks) of the product of their
    edge values z (..., n_edges), for each leading index; a float for
    one vector.  The products grow one edge at a time, over chunks of
    at most 2^16 (index, graph) pairs, so memory stays small at n = 6.'''
    flat = z.reshape(-1, z.shape[-1])
    out = np.empty(len(flat))
    step = max(1, 2 ** 16 // len(masks))
    for lo in range(0, len(flat), step):
        rows = flat[lo:lo + step]
        prods = np.ones((len(rows), len(masks)))
        for edge, graphs in zip(rows.T, masks.T):
            prods *= np.where(graphs, edge[:, None], 1.0)
        out[lo:lo + step] = prods.sum(axis=1)
    out /= math.factorial(n)
    return float(out[0]) if z.ndim == 1 else out.reshape(z.shape[:-1])


def ursell(zeta_matrix):
    '''phi = (1/n!) sum over connected graphs of prod of edge zetas (n <= 6);
    a float for one (n, n) matrix, an array for a (C, n, n) stack.'''
    zeta_matrix = np.asarray(zeta_matrix, dtype=float)
    n = zeta_matrix.shape[-1]
    _check_enum_budget(n, MAX_URSELL_N, "Ursell")
    if n == 1:
        return 1.0 if zeta_matrix.ndim == 2 else np.ones(len(zeta_matrix))
    all_edges, conn, _, _ = _expansion_tables(n)
    return _graph_sum(_edge_values(zeta_matrix, all_edges), conn, n)


def tree_sum(zeta_matrix):
    '''(1/n!) sum over trees of prod of edge |zeta| (the tree bound); a
    float for one (n, n) matrix, an array for a (C, n, n) stack.'''
    zeta_matrix = np.asarray(zeta_matrix, dtype=float)
    n = zeta_matrix.shape[-1]
    if n == 1:
        return 1.0 if zeta_matrix.ndim == 2 else np.ones(len(zeta_matrix))
    all_edges, _, tree_mask, _ = _expansion_tables(n)
    z = _edge_values(zeta_matrix, all_edges)
    return _graph_sum(np.abs(z), tree_mask, n)


def tree_bound_check(zeta_matrix, V_matrix=None, tol=1e-12):
    '''Report on |ursell(zeta)| <= tree sum of |zeta|, and (when the
    nonnegative interaction matrix V with zeta = e^{-V/2} - 1 is given)
    on the exact resummation identity
    phi = (1/n!) sum_T prod_T zeta * e^{- sum_{M(T)\\T} V/2}.'''
    zeta_matrix = np.asarray(zeta_matrix, dtype=float)
    n = len(zeta_matrix)
    off = zeta_matrix[~np.eye(n, dtype=bool)]
    if np.any(off < -1.0 - 1e-14) or np.any(off > 1e-14):
        raise ValueError("zeta entries must lie in [-1, 0]")
    phi = ursell(zeta_matrix)
    bound = tree_sum(zeta_matrix)
    report = {"n": n, "ursell": phi, "tree_bound": bound,
              "bound_ok": bool(abs(phi) <= bound + tol)}
    if V_matrix is not None and n >= 2:
        _check_enum_budget(n, MAX_BRACKET_N, "resummation")
        V_matrix = np.asarray(V_matrix, dtype=float)
        all_edges, _, tree_mask, extra_mask = _expansion_tables(n)
        z = _edge_values(zeta_matrix, all_edges)
        v = _edge_values(V_matrix, all_edges)
        prods = np.where(tree_mask, z, 1.0).prod(axis=1)
        resum = float((prods * np.exp(-0.5 * (extra_mask @ v))).sum())
        resum /= math.factorial(n)
        report["resummation"] = resum
        report["resummation_gap"] = abs(resum - phi)
        report["resummation_ok"] = bool(abs(resum - phi) <= tol)
    return report


# -- truncated expansion series ---------------------------------------------

def _weights_and_zeta(V, n_fixed):
    '''From (C, n, n) pair matrices: the self-interaction weights
    prod e^{-V(w, w)/2} of the drawn loops (all but the first n_fixed
    paths) and the Mayer factors zeta_ij = e^{-V(w_i, w_j)} - 1 between
    distinct paths.  In the total interaction (1/2) sum_{i,j} V, the two
    ordered pairs (i, j), (j, i) cancel the 1/2, so each unordered pair
    carries the full Boltzmann factor e^{-V}; only self pairs keep
    e^{-V/2}.'''
    self_V = np.diagonal(V, axis1=1, axis2=2)
    weight = np.exp(-0.5 * self_V[:, n_fixed:]).prod(axis=1)
    zeta = np.exp(-V) - 1.0
    diag = np.arange(V.shape[1])
    zeta[:, diag, diag] = 0.0
    return weight, zeta


def _require_ginibre(spec):
    if spec.kind != "ginibre":
        raise ValueError("expansion estimators require the grid ensemble")


def estimate_X(spec, fixed_paths, n_max, n_samples, seed, workers=1):
    '''Per-order MC estimate of the truncated series X(fixed paths):
    order n draws n - p loops from the free normalized loop law, carries
    the self-interaction importance weights e^{-V(w,w)/2}, evaluates the
    Ursell factor over fixed + drawn paths, and multiplies the loop mass
    to the power n - p and the combinatorial factor n!/(n-p)!.

    Order 1 of log Z (p = 0) sums its one-window loops exactly and
    draws only loops of two windows or more, controlled by their
    duration S; every other order with drawn loops is controlled by S
    and the pair interaction V of the pairs holding a drawn loop
    (module docstring).  At 500 samples an order on cluster_logz.json's
    physics the SE^2 of orders 1, 2 and 3 is 1.15e-8, 8.8e-10 and
    2.4e-11, against 8.1e-8, 8.4e-8 and 5.7e-11 with the S, Q controls
    of the unstratified orders.

    Returns a report with per-order means/std errors, the plain means and
    std errors, variance ratios, control names and effective sample
    sizes, order 1's exact one-window part and drawn share of the mass
    (None unless p = 0), the truncated total, and a tree-bound MC
    estimate of the order-(n_max + 1) remainder magnitude.
    '''
    _require_ginibre(spec)
    if spec.params.R == 1:
        raise ValueError("the cluster expansion needs a finite potential "
                         "(R = 0): a hard core makes every self weight 0")
    p = len(fixed_paths)
    if n_max > 4:
        raise ValueError("truncation budget is n_max <= 4")
    if n_max < max(p, 1):
        raise ValueError("n_max below the leading order")
    intensity, params = spec.intensity, spec.params
    mass = intensity.total_mass
    mean_T = intensity.duration_moments[0]
    # E V_ij = pair * T_i T_j in the mean over a drawn loop's base site
    pair = (params.lam * float(params.vL.sum())
            / (params.nu ** 2 * spec.torus.n_sites))
    fixed_T = sum(path.duration for path in fixed_paths)
    orders = list(range(max(p, 1), n_max + 1))
    fixed = LoopBatch.from_paths([fixed_paths])
    # order 1 of log Z: the one-window loops' exact part (a window holds
    # one particle at every time, so V(w, w) = lam v_L(0), vL[0] being
    # the origin's entry), then the drawn mass and mean duration of the
    # rest
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
        draw = (intensity.draw_multi_window if stratum
                else intensity.draw_batch)
        phi_of = tree_sum if bound_mode else ursell

        def configs(rng, m):
            # the fixed paths, if any, in front of the q drawn loops
            loops = draw(rng, m * q)
            parts = [(np.repeat(np.arange(m), q), loops, None)]
            if p:
                parts.insert(0, (np.repeat(np.arange(m), p), fixed,
                                 np.tile(np.arange(p), m)))
            return LoopBatch.join(m, parts), loops.duration.reshape(m, q)

        def evaluate(drawn):
            batch, T = drawn
            V = batch_interaction(batch, params, spec.kind, pairs=True)
            weight, zeta = _weights_and_zeta(V, p)
            rows = [factor * weight * phi_of(zeta), weight, weight * weight,
                    T.sum(axis=1)]
            if n > 1:
                # the pairs i < j with j drawn
                rows.append(np.triu(V, 1)[:, :, p:].sum(axis=(1, 2)))
            return np.stack(rows)

        return _batched(configs, evaluate, n)

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
            # every loop has one window: the order is exact
            value, value_se, step, ess = offset, 0.0, None, float(n_samples)
        else:
            # rows (value, w, w^2, controls): ESS = (sum w)^2 / sum w^2
            mean, se, rows = run_mc(sampler(n), n_samples, (seed, n),
                                    workers)
            value, value_se = offset + float(mean[0]), float(se[0])
            step = _control_step(rows[0], mean[0], rows[3:], np.array(means))
            ess = (float(n_samples * mean[1] ** 2 / mean[2]) if mean[2] > 0
                   else 0.0)
        value, value_se, controls = _controlled(value, value_se, step, 1.0,
                                                names)
        report["means"].append(value)
        report["std_errors"].append(value_se)
        report["plain_means"].append(controls["plain_mean"])
        report["plain_std_errors"].append(controls["plain_se"])
        report["variance_ratios"].append(controls["variance_ratio"])
        report["controls"].append(controls["controls"])
        report["ess"].append(ess)
    rem, rem_se, _ = run_mc(sampler(n_max + 1, bound_mode=True), n_samples,
                            (seed, n_max + 1), workers)
    report["remainder"] = float(rem[0])
    report["remainder_se"] = float(rem_se[0])
    report["total"] = float(sum(report["means"]))
    report["total_se"] = float(math.sqrt(sum(s * s for s in report["std_errors"])))
    return report


def expansion_csv_rows(report):
    '''Rows (order, mean, std_error, tree_bound_remainder) for CSV dumps;
    the remainder is attached to the last truncated order.'''
    rows = []
    for k, n in enumerate(report["orders"]):
        rem = report["remainder"] if n == report["n_max"] else ""
        rows.append([n, report["means"][k], report["std_errors"][k], rem])
    return rows


def log_Z_via_expansion(spec, n_max, n_samples, seed, workers=1):
    '''log Z = X - X^0 truncated at n_max; X^0 (zero interaction) has
    only the order-1 term, which equals the free loop mass exactly.'''
    report = estimate_X(spec, [], n_max, n_samples, seed, workers)
    report["X0"] = spec.intensity.total_mass
    report["log_Z"] = report["total"] - report["X0"]
    report["log_Z_se"] = report["total_se"]
    return report
