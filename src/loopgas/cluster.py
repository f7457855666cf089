'''Cluster-expansion engine: Ursell functions as Penrose's sums over
trees, the tree bound by Kirchhoff's matrix-tree theorem,
degree-constrained tree counts and the truncated expansion series for
log Z.

The Ursell function of Mayer factors zeta on n vertices is
  phi = (1/n!) sum_{G connected} prod_{e in G} zeta_e
      = (1/n!) sum_T prod_{e in T} zeta_e prod_{e in M(T) \\ T} (1 + zeta_e)
(Penrose's tree-graph identity, 1967).  Kruskal's map in the
lexicographic edge order sends each connected graph to a spanning tree
T, and the graphs it sends to T are exactly those between T and M(T):
M(T) \\ T holds the non-tree edges (i, j) larger than every edge on T's
path from i to j.  So phi sums the n^{n-2} trees, and for zeta in
[-1, 0] every term has the sign (-1)^{n-1}.  The tree bound
|phi| <= (1/n!) sum_T prod_{e in T} |zeta_e| is a weighted count of
spanning trees: the determinant of the Laplacian of the weights |zeta_ij|
with one row and column deleted (Kirchhoff's matrix-tree theorem).

The expansion is built on the loop measure
  mu(dw) = nu sum_{T in nu N*} (e^{-kappa T}/T) W^{L,T}(dw) e^{-V(w,w)/2},
with Mayer factor zeta(w, wt) = e^{-V(w,wt)/2} - 1 and
  X(w_1..w_p) = sum_{n >= max(p,1)} n!/(n-p)! int mu^{(n-p)} phi(w_1..w_n),
phi the Ursell function.  Then log Z = X - X^0.  The series is
truncated at n_max <= MAX_URSELL_N, the one cap of the expansion.

A sample of order n is one configuration of n paths, the p fixed ones
(a one-configuration LoopBatch) in slots 0..p - 1 and the drawn loops
in slots p..n - 1; the kernel takes each loop's slot as its group, so
the (n, n) group pair matrix of a sample holds its pair interactions.

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
k >= 2 windows are drawn (LoopIntensity.sample_multi_window_duration),
and their duration S = T, of exact conditional mean
nu sum_xi a_xi^2/(1 - a_xi)/C, is the control.  On cluster_logz.json's
physics about 80% of the loop mass has one window, a stratum of zero
variance that plain sampling spends 80% of its samples on.

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

The orders and the remainder are runs of one loop_mc.run_groups call:
order n of a request at seed s on the streams of the seed sequence (s,
n), one a worker, n expected loops a sample, and the remainder on (s,
n_max + 1), so no two orders of any two requests share a stream.  Each
order keeps its batches of _batch_size(n) samples, and the driver packs
the batches of all the orders into shared groups, in order of n and
then of worker, while their expected loops fit loop_mc._BATCH_LOOPS.
A group makes one draw pass, every stream's durations (order 1's from
its stratum), then each stream's base sites, then one paths.bridges
call for all its loops, and one kernel call with as many groups as its
largest order has slots; order n reads the top-left n x n block of its
samples' matrices.  Every stream makes the draws it makes alone, so a
report equals that of one driver run per order, bit for bit
(tests/cluster_reference.py).  The cluster-logz benchmark's request
(n_max = 3, 500 samples, one worker) draws orders 1, 2 and 3 in one
group (3000 loops) and order 4 in another (2000): two bridges and two
kernel calls, where one run per order would make four of each.
'''

import itertools
import math
from functools import lru_cache

import numpy as np

from .interactions import batch_interaction
from .loop_mc import _control_step, _controlled, run_groups
from .paths import LoopBatch

MAX_URSELL_N = 6


def _square(zeta_matrix):
    '''zeta as a float array of (n, n) matrices, n >= 1, over any
    leading axes.'''
    zeta_matrix = np.asarray(zeta_matrix, dtype=float)
    shape = zeta_matrix.shape
    if len(shape) < 2 or shape[-1] != shape[-2] or shape[-1] < 1:
        raise ValueError(f"expected (..., n, n) matrices, n >= 1, got {shape}")
    return zeta_matrix


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


@lru_cache(maxsize=None)
def _penrose_table(n):
    '''The edges (i, j), i < j, of the complete graph on [n] in lex
    order, and for each labelled tree T (Prufer order) the edge masks of
    T and of M(T) \\ T.  Walking the edges in lex order and joining the
    ends of each tree edge, a non-tree edge is in M(T) iff its ends are
    already joined: T's path between them uses smaller edges only.'''
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tree_rows, extra_rows = [], []
    for seq in itertools.product(range(n), repeat=max(n - 2, 0)):
        tree = _prufer_decode(n, seq) if n > 1 else frozenset()
        part = list(range(n))
        extra = []
        for i, j in edges:
            if (i, j) in tree:
                a, b = part[i], part[j]
                part = [a if c == b else c for c in part]
            extra.append((i, j) not in tree and part[i] == part[j])
        tree_rows.append([e in tree for e in edges])
        extra_rows.append(extra)
    shape = (len(tree_rows), len(edges))
    masks = [np.array(rows, dtype=bool).reshape(shape)
             for rows in (tree_rows, extra_rows)]
    for mask in masks:
        mask.flags.writeable = False    # shared by every caller
    return (edges, *masks)


def ursell(zeta_matrix):
    '''phi of zeta by Penrose's tree sum (module docstring), n <= 6; a
    float for one (n, n) matrix, an array for a (..., n, n) stack.  A
    tree's factor of edge e is zeta_e on T, 1 + zeta_e on M(T) \\ T and 1
    elsewhere, one column of [zeta, 1 + zeta, 1].  The products grow one
    edge at a time, over chunks of at most 2^16 (matrix, tree) pairs, so
    memory stays small at n = 6.'''
    zeta_matrix = _square(zeta_matrix)
    n = zeta_matrix.shape[-1]
    if n > MAX_URSELL_N:
        raise ValueError(f"the Ursell budget is n <= {MAX_URSELL_N}, got {n}")
    edges, trees, extras = _penrose_table(n)
    i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    lead = zeta_matrix.shape[:-2]
    z = zeta_matrix[..., i, j].reshape(math.prod(lead), len(edges))
    factors = np.concatenate([z, 1.0 + z, np.ones((len(z), 1))], axis=1)
    e = np.arange(len(edges))
    columns = np.where(trees, e, np.where(extras, len(e) + e, 2 * len(e)))
    out = np.empty(len(z))
    step = max(1, 2 ** 16 // len(trees))
    for lo in range(0, len(z), step):
        rows = factors[lo:lo + step]
        prods = np.ones((len(rows), len(trees)))
        for column in columns.T:
            prods *= rows[:, column]
        out[lo:lo + step] = prods.sum(axis=1)
    out /= math.factorial(n)
    return float(out[0]) if not lead else out.reshape(lead)


def tree_sum(zeta_matrix):
    '''(1/n!) sum over trees of prod of edge |zeta| (the tree bound); a
    float for one (n, n) matrix, an array for a (..., n, n) stack.

    By Kirchhoff's theorem the tree sum is the determinant of the
    Laplacian of the weights w_ij = |zeta_ij|, i < j, with row and column
    0 deleted.  Eliminating vertices n-1, ..., 1 in turn, vertex k's pivot
    is its total weight to the vertices left, and the weights left grow by
    w_ik w_kj / pivot (the star-mesh transform).  Every pivot is then a
    sum of nonnegative terms, with no cancellation, so the determinant
    keeps its relative accuracy when the weights span many decades and is
    exactly 0 when they do not connect the vertices; an LU determinant
    loses both.'''
    zeta_matrix = _square(zeta_matrix)
    n = zeta_matrix.shape[-1]
    # the weights as (n, n, ...): the stack axes last keep slices contiguous
    i, j = np.triu_indices(n, 1)
    w = np.zeros((n, n) + zeta_matrix.shape[:-2])
    w[i, j] = w[j, i] = np.abs(np.moveaxis(zeta_matrix[..., i, j], -1, 0))
    out = np.ones(zeta_matrix.shape[:-2])
    for k in range(n - 1, 0, -1):
        row = w[k, :k]
        pivot = row.sum(axis=0)
        out *= pivot
        share = row / np.where(pivot > 0, pivot, 1.0)
        w[:k, :k] += share[:, None] * row[None, :]
    out /= math.factorial(n)
    return float(out) if zeta_matrix.ndim == 2 else out


def tree_bound_check(zeta_matrix, tol=1e-12):
    '''Report on the tree bound |ursell(zeta)| <= tree_sum(zeta), for
    zeta in [-1, 0] off the diagonal (one matrix or a stack).'''
    zeta_matrix = _square(zeta_matrix)
    n = zeta_matrix.shape[-1]
    off = zeta_matrix[..., ~np.eye(n, dtype=bool)]
    if np.any(off < -1.0 - 1e-14) or np.any(off > 1e-14):
        raise ValueError("zeta entries must lie in [-1, 0]")
    phi = ursell(zeta_matrix)
    bound = tree_sum(zeta_matrix)
    return {"n": n, "ursell": phi, "tree_bound": bound,
            "bound_ok": bool(np.all(np.abs(phi) <= bound + tol))}


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


def _order_rows(V, T, p, factor, phi_of):
    '''The rows (value, w, w^2, S[, V]) of the samples of one order
    from their (C, n, n) pair matrices V and the durations T (C, n - p)
    of their drawn loops: S the summed durations, and past order 1 the
    summed pair interactions of the pairs i < j with j drawn.'''
    weight, zeta = _weights_and_zeta(V, p)
    rows = [factor * weight * phi_of(zeta), weight, weight * weight,
            T.sum(axis=1)]
    if V.shape[1] > 1:
        rows.append(np.triu(V, 1)[:, :, p:].sum(axis=(1, 2)))
    return np.stack(rows)


def estimate_X(spec, fixed, n_max, n_samples, seed, workers=1):
    '''Per-order MC estimate of the truncated series X(fixed paths),
    the p fixed paths given as a LoopBatch of one configuration: order n
    draws n - p loops from the free normalized loop law, carries the
    self-interaction importance weights e^{-V(w,w)/2}, evaluates the
    Ursell factor over fixed + drawn paths (slots 0..p - 1, then p..n -
    1), and multiplies the loop mass to the power n - p and the
    combinatorial factor n!/(n-p)!.  n_max is at most MAX_URSELL_N and
    n_samples at least 2, both checked before any draw.

    Order 1 of log Z (p = 0) sums its one-window loops exactly and
    draws only loops of two windows or more, controlled by their
    duration S; every other order with drawn loops is controlled by S
    and the pair interaction V of the pairs holding a drawn loop
    (module docstring).  At 500 samples an order on cluster_logz.json's
    physics the SE^2 of orders 1, 2 and 3 is 1.15e-8, 8.8e-10 and
    2.4e-11, against 8.1e-8, 8.4e-8 and 5.7e-11 with the S, Q controls
    of the unstratified orders.

    The orders and the remainder are the runs of one
    loop_mc.run_groups call, drawn together in groups of at most
    _BATCH_LOOPS expected loops, each order on its own streams (module
    docstring).

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
    p = len(fixed.start)
    if n_max > MAX_URSELL_N:
        raise ValueError(f"the truncation budget is n_max <= {MAX_URSELL_N}"
                         f", got {n_max}")
    if n_max < max(p, 1):
        raise ValueError("n_max below the leading order")
    intensity, params = spec.intensity, spec.params
    mass = intensity.total_mass
    mean_T = intensity.duration_moments[0]
    # E V_ij = pair * T_i T_j in the mean over a drawn loop's base site
    pair = (params.lam * float(params.vL.sum())
            / (params.nu ** 2 * spec.torus.n_sites))
    fixed_T = sum(fixed.duration.tolist())
    orders = list(range(max(p, 1), n_max + 1))
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
    # the orders that draw, order 1 of log Z unless every loop has one
    # window (then it is exact), and the tree-bound order n_max + 1
    runs = [n for n in orders if p or n > 1 or drawn_mass > 0] + [n_max + 1]
    factors, durations = [], []
    for n in runs:
        stratum = p == 0 and n == 1
        factors.append(math.factorial(n) // math.factorial(n - p)
                       * (drawn_mass if stratum else mass) ** (n - p))
        durations.append(intensity.sample_multi_window_duration if stratum
                         else intensity.sample_duration)

    def sample_group(group):
        # draw phase: every stream's durations, then each stream's base
        # sites and all the group's bridges (draw_loops)
        sizes = [sum(counts) for _, _, counts in group]
        drawn = [runs[r] - p for r, _, _ in group]
        T = np.concatenate([durations[r](rngs, [k * q for k in counts])
                            for (r, rngs, counts), q in zip(group, drawn)])
        loops = intensity.draw_loops(
            [rng for _, rngs, _ in group for rng in rngs],
            [k * q for (_, _, counts), q in zip(group, drawn)
             for k in counts], T)
        # the fixed paths of every sample, then the drawn loops, each
        # loop labelled with its slot
        m = sum(sizes)
        fixed_slot = np.tile(np.arange(p), m)
        batch = LoopBatch.join(m, [
            (np.repeat(np.arange(m), p), fixed, fixed_slot),
            (np.repeat(np.arange(m), np.repeat(drawn, sizes)), loops, None)])
        slot = np.concatenate([fixed_slot] + [
            np.tile(np.arange(p, p + q), k) for q, k in zip(drawn, sizes)])
        # compute phase: one kernel call for as many slots as the largest
        # order has, order n reading the top-left n x n block of its
        # samples' pair matrices
        P = batch_interaction(batch, params, spec.kind,
                              (slot, p + max(drawn)))
        rows, lo, at = [], 0, 0
        for (r, _, _), q, k in zip(group, drawn, sizes):
            n = p + q
            rows.append(_order_rows(
                np.ascontiguousarray(P[lo:lo + k, :n, :n]),
                T[at:at + k * q].reshape(k, q), p, factors[r],
                tree_sum if n > n_max else ursell))
            lo, at = lo + k, at + k * q
        return rows

    results = dict(zip(runs, run_groups(
        sample_group, [((seed, n), n) for n in runs], n_samples, workers)))

    report = {"p": p, "n_max": n_max, "orders": orders, "means": [],
              "std_errors": [], "plain_means": [], "plain_std_errors": [],
              "variance_ratios": [], "controls": [], "ess": [],
              "mass": mass, "one_window": one_window,
              "drawn_share": drawn_share}
    for n in orders:
        q = n - p
        if n == 1:
            names, means = ["S"], [drawn_T]
        else:
            names = ["S", "V"]
            means = [q * mean_T, pair * mean_T * (q * (q - 1) / 2 * mean_T
                                                  + q * fixed_T)]
        offset = one_window if p == 0 and n == 1 else 0.0
        if n not in results:
            # every loop has one window: the order is exact
            value, value_se, step, ess = offset, 0.0, None, float(n_samples)
        else:
            # rows (value, w, w^2, controls): ESS = (sum w)^2 / sum w^2
            mean, se, rows = results[n]
            value, value_se = offset + float(mean[0]), float(se[0])
            step = _control_step(rows[0], mean[0], rows[3:],
                                 np.array(means))
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
    rem, rem_se, _ = results[n_max + 1]
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
    no_paths = LoopBatch(1, [], [], [], [], [], [])
    report = estimate_X(spec, no_paths, n_max, n_samples, seed, workers)
    report["X0"] = spec.intensity.total_mass
    report["log_Z"] = report["total"] - report["X0"]
    report["log_Z_se"] = report["total_se"]
    return report
