'''Exact loop interaction functionals for piecewise-constant paths.

The interaction of a loop configuration is one quadratic form in an
occupation field: the folded occupation N(t, x), t in [0, nu), of the
grid ensemble, V = (lam / 2 nu) int_0^nu N(t)^T v N(t) dt, and the summed
local time l of the continuum ensemble, V = (lam / 2) l^T v l.  N is
constant between the jump times mod nu, so the integral is an exact sum
over slices; there is no quadrature error anywhere in this module.
One kernel, batch_interaction, evaluates every configuration of a
LoopBatch at once; v_total and pair_matrix are its views of one
configuration.
+inf is an absorbing interaction value (hard core), mapped downstream to
Boltzmann weight e^{-inf} = 0; no NaNs are ever produced.
'''

from dataclasses import dataclass, field

import numpy as np

from .paths import LoopBatch

# Occupation cells (one per window and slice of each grid loop) per
# kernel evaluation: a group of this many cells peaks at about 240 MB
# (57 bytes a cell)
MAX_CELLS = 2 ** 22


@dataclass
class InteractionParams:
    '''Coupling parameters and the periodized potential table.

    mode: "meanfield" fixes lam = nu^2; "largemass" fixes lam = 1 and
    kappa = kappa0/nu; "generic" takes lam as given.
    '''
    torus: object
    vL: np.ndarray
    nu: float
    lam: float = None
    mode: str = "generic"
    R: int = 0
    kappa: float = None
    kappa0: float = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be > 0")
        if self.mode == "meanfield":
            expected = self.nu ** 2
            if self.lam is None:
                self.lam = expected
            elif abs(self.lam - expected) > 1e-12:
                raise ValueError("meanfield mode requires lam = nu^2")
        elif self.mode == "largemass":
            if self.lam is None:
                self.lam = 1.0
            elif self.lam != 1.0:
                raise ValueError("largemass mode requires lam = 1")
            if self.kappa0 is None:
                raise ValueError("largemass mode requires kappa0")
            self.kappa = self.kappa0 / self.nu
        elif self.mode == "generic":
            if self.lam is None:
                raise ValueError("generic mode requires lam")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        origin = self.torus.index_of(np.zeros(self.torus.d, dtype=np.int64))
        if self.R not in (0, 1) or (self.R == 1) != bool(
                np.isposinf(self.vL[origin])):
            raise ValueError("R = 1 iff vL is +inf at the origin")


def v_tilde_table(vL, torus, R):
    '''Helper ṽ = v restricted off the hard core (v * 1{|x|_L >= R}).'''
    out = np.array(vL, dtype=float)
    if R == 1:
        out[torus.min_norm(torus.coords) < 1] = 0.0
    return out


def batch_interaction(batch, params, kind):
    '''Total interaction of every configuration of a LoopBatch, (C,), and
    the (C, n, n) pair matrices when all C configurations hold the same
    number n of loops (else None); kind "ginibre" or "symanzik_eps".

    The total is V = 1/2 sum_k w_k n_k^T v n_k, n the occupation field of
    the configuration, equal to 1/2 sum_{i,j} V(w_i, w_j); the pair
    matrix holds sum_k w_k N_{i,k} v N_{j,k}^T, N_i the occupation of
    loop i, self pairs on the diagonal.  In the grid ensemble a hard
    core (R = 1) is exclusion in the totals, in every mode: the total is
    +inf iff two windows share a site at some time, and otherwise it
    interacts through v-tilde (no self term of a window), as the quantum
    oracle's hard-core bosons do.  Elsewhere an infinite entry of v that
    meets sites occupied in a common slice of positive weight gives +inf.

    The grid ensemble is evaluated in consecutive groups of
    configurations of at most MAX_CELLS occupation cells each, which
    gives the same numbers as one evaluation; a configuration of more
    than MAX_CELLS cells raises ValueError.
    '''
    C = batch.n_configs
    if C == 0:
        return np.zeros(0), None
    sizes = np.bincount(batch.config, minlength=C)
    n = int(sizes[0]) if np.all(sizes == sizes[0]) else None
    bounds = _cell_groups(batch, params.nu) if kind == "ginibre" else [0, C]
    if len(bounds) == 2:
        return _evaluate(batch, params, kind, n)
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        first, last = np.searchsorted(batch.config, [lo, hi])
        group = LoopBatch.join(hi - lo, [(batch.config[first:last] - lo,
                                          batch, np.arange(first, last))])
        parts.append(_evaluate(group, params, kind, n))
    totals = np.concatenate([t for t, _ in parts])
    return totals, None if n is None else np.concatenate(
        [p for _, p in parts])


def _cell_groups(batch, nu):
    '''Bounds 0 = b_0 < b_1 < ... = C of consecutive groups of the
    configurations of a grid LoopBatch with at most MAX_CELLS occupation
    cells each, counting (windows) x (jumps + 1) cells per configuration
    (exact unless two of its jump times agree mod nu); ValueError when a
    configuration alone has more.'''
    C = batch.n_configs
    windows = np.bincount(batch.config, np.round(batch.duration / nu), C)
    slices = np.bincount(batch.config, np.diff(batch.offsets), C) + 1
    cells = windows * slices
    if cells.max() > MAX_CELLS:
        raise ValueError(
            f"a grid configuration needs {cells.max():.3g} occupation cells "
            f"(windows x slices), more than the kernel's budget of "
            f"{MAX_CELLS}; raise kappa or nu")
    ends = np.cumsum(cells)
    bounds = [0]
    while bounds[-1] < C:
        done = ends[bounds[-1] - 1] if bounds[-1] else 0.0
        bounds.append(int(np.searchsorted(ends, done + MAX_CELLS,
                                          side="right")))
    return bounds


def _evaluate(batch, params, kind, n):
    '''batch_interaction of a LoopBatch, in one evaluation; n is the
    number of loops of every configuration (None: not all the same).'''
    torus = params.torus
    n_sites = torus.n_sites
    occupations = _grid_occupations if kind == "ginibre" else _local_times
    w, bounds, cell_slice, cell_loop, cell_site, amount = occupations(
        batch, params)
    S = len(w)
    if n is None:
        N = None
        n_field = np.bincount(cell_slice * n_sites + cell_site,
                              weights=amount, minlength=S * n_sites)
        n_field = n_field.reshape(S, 1, n_sites)
    else:
        # slot of each loop in its configuration
        sizes = np.bincount(batch.config, minlength=batch.n_configs)
        slot = np.arange(len(batch.config)) - (np.cumsum(sizes) - sizes)[
            batch.config]
        N = np.bincount((cell_slice * n + slot[cell_loop]) * n_sites
                        + cell_site, weights=amount,
                        minlength=S * n * n_sites).reshape(S, n, n_sites)
        n_field = N.sum(axis=1, keepdims=True)
    vL = params.vL
    killed = None
    if kind == "ginibre" and params.R == 1:
        killed = np.maximum.reduceat(n_field.max(axis=(1, 2)), bounds) > 1
        vL = v_tilde_table(vL, torus, 1)
    totals = 0.5 * np.add.reduceat(
        _slice_form(w, n_field, vL[torus.diff_table])[:, 0, 0], bounds)
    if killed is not None:
        totals[killed] = np.inf
    pairs = None if N is None else np.add.reduceat(
        _slice_form(w, N, params.vL[torus.diff_table]), bounds, axis=0)
    return totals, pairs


def _slice_form(w, N, vmat):
    '''Per-slice pair terms P[k, i, j] = w_k N[k, i] vmat N[k, j]^T; +inf
    where an infinite vmat entry meets sites occupied in slice k of
    positive weight (masked, so that 0 * inf never makes a NaN).'''
    core = np.isinf(vmat)
    Nt = N.transpose(0, 2, 1)
    P = (w[:, None, None] * N) @ np.where(core, 0.0, vmat) @ Nt
    if core.any():
        occ = (N > 0) & (w > 0)[:, None, None]
        P[(occ @ core) @ occ.transpose(0, 2, 1)] = np.inf
    return P


def _grid_occupations(batch, params):
    '''Slices of the folded time [0, nu) of every configuration of a
    LoopBatch, and its occupation cells.

    Each configuration's [0, nu) is cut at 0, nu and every jump time mod
    nu of its loops; slice k has weight w_k = lam |slice k| / nu.  The
    cells are one (slice, loop, site) triple per window of each loop and
    slice of its configuration: the site the loop occupies in that slice
    of that window.  A jump at time a nu + r (exact divmod) cuts at r,
    the k-th cut of its configuration, and moves the loop from slice k
    of window a on; the sites are found by merging the jumps and the
    (window, slice) pairs on exact integer keys, so no float offset
    decides a comparison.  Returns w, the first slice of each
    configuration, the cells' slices, loops and sites, and their
    amounts (None: one each).
    '''
    nu = params.nu
    C = batch.n_configs
    n_loops = len(batch.start)
    ratio = batch.duration / nu
    n_win = np.round(ratio)
    off_grid = (np.abs(ratio - n_win) > 1e-9) | (n_win < 1)
    if off_grid.any():
        raise ValueError(f"duration {batch.duration[off_grid][0]} not on "
                         f"the grid nu N*")
    n_win = n_win.astype(np.int64)
    jump_loop = np.repeat(np.arange(n_loops), np.diff(batch.offsets))
    window, folded = np.divmod(batch.times, nu)
    # the cuts of each configuration, sorted and without repeats
    values = np.concatenate((folded, np.zeros(C), np.full(C, nu)))
    owner = np.concatenate((batch.config[jump_loop], np.arange(C),
                            np.arange(C)))
    order = np.lexsort((values, owner))
    values, owner = values[order], owner[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = (values[1:] != values[:-1]) | (owner[1:] != owner[:-1])
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    cuts, cut_owner = values[new], owner[new]
    w = params.lam / nu * np.diff(cuts)[cut_owner[1:] == cut_owner[:-1]]
    n_slices = np.bincount(cut_owner, minlength=C) - 1
    bounds = np.cumsum(n_slices) - n_slices
    # (window, slice) keys a K + k, offset per loop so that loops keep
    # apart; the jump keys increase along the flat jumps, since each
    # loop's jump times are sorted and divmod is exact
    K = n_slices[batch.config]
    n_keys = n_win * K
    base = np.cumsum(n_keys + 1) - (n_keys + 1)
    jump_slice = rank[:len(folded)] - (bounds + np.arange(C))[
        batch.config[jump_loop]]
    jump_key = base[jump_loop] + np.minimum(
        window.astype(np.int64) * K[jump_loop] + jump_slice,
        n_keys[jump_loop])
    cell_loop = np.repeat(np.arange(n_loops), n_keys)
    # cell c, the m-th of loop i, has key base_i + m = c + i
    key = np.arange(len(cell_loop)) + cell_loop
    cell_slice = ((key - base[cell_loop]) % K[cell_loop]
                  + bounds[batch.config[cell_loop]])
    seen = np.searchsorted(jump_key, key, side="right")
    cell_site = np.where(seen > batch.offsets[cell_loop],
                         np.concatenate(([0], batch.sites))[seen],
                         batch.start[cell_loop])
    return w, bounds, cell_slice, cell_loop, cell_site, None


def _local_times(batch, params):
    '''The continuum ensemble's one slice per configuration, weight lam,
    and its occupation cells: one (configuration, loop, site) triple per
    constant piece of each loop, with the piece's length as amount, so
    that the occupation is the local time.  Returns the values of
    _grid_occupations.'''
    C = batch.n_configs
    cell_loop, cell_site, amount = batch.pieces()
    return (np.full(C, float(params.lam)), np.arange(C),
            batch.config[cell_loop], cell_loop, cell_site, amount)


def pair_matrix(config, params, kind):
    '''Matrix of pair interactions V(w_i, w_j) of a loop configuration,
    self pairs on the diagonal (kind "ginibre" or "symanzik_eps"); the
    one-configuration view of batch_interaction.'''
    return batch_interaction(LoopBatch.from_paths([config]), params,
                             kind)[1][0]


def v_total(config, params, kind):
    '''Total interaction V = 1/2 sum_k w_k n_k^T v n_k of a configuration,
    n = sum_i N_i its occupation field; equal to 1/2 sum_{i,j} V(w_i, w_j).
    The one-configuration view of batch_interaction, whose rules
    (grid hard core as exclusion) it follows.'''
    return float(batch_interaction(LoopBatch.from_paths([config]), params,
                                   kind)[0][0])


def v_lm(kvec, xvec, vL, torus, R):
    '''Infinite-mass interaction of weighted particles (k_i, x_i).

    R=0: 1/2 sum_{i,j} k_i k_j v(x_i - x_j);
    R=1: 1/2 sum_{i!=j} v(x_i - x_j) if k = 1 and sites distinct, else +inf.
    '''
    kvec = np.asarray(kvec, dtype=np.int64)
    xvec = np.asarray(xvec, dtype=np.int64)
    if len(kvec) != len(xvec):
        raise ValueError("|k| and |x| must agree")
    n = len(kvec)
    if n == 0:
        return 0.0
    if np.any(kvec < 1):
        raise ValueError("occupation numbers must be >= 1")
    vmat = vL[torus.diff_table[np.ix_(xvec, xvec)]]
    if R == 1:
        if np.any(kvec != 1):
            return np.inf
        off = vmat[~np.eye(n, dtype=bool)]
        if np.isinf(off).any():
            return np.inf
        return 0.5 * float(off.sum())
    total = float(kvec @ vmat @ kvec)
    return np.inf if np.isinf(total) else 0.5 * total
