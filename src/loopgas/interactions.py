'''Exact loop interaction functionals for piecewise-constant paths.

The interaction of a loop configuration is one quadratic form in an
occupation field: the folded occupation N(t, x), t in [0, nu), of the
grid ensemble, V = (lam / 2 nu) int_0^nu N(t)^T v N(t) dt, and the summed
local time l of the continuum ensemble, V = (lam / 2) l^T v l.  N is
constant between the jump times mod nu, so the integral is an exact sum
over slices; there is no quadrature error anywhere in this module.

One kernel, batch_interaction, evaluates every configuration of a
LoopBatch at once, in one path: occupation cells, a dense field with one
row per slice and group, and the quadratic form of each slice.  A loop's
configuration and group are labels that the caller gives (one group for
a total; the open paths and the background of a kernel sample; one group
per slot of a cluster-expansion sample), so the kernel never reads a
loop's position in the batch.  A grid loop's cells follow its constant
pieces and jumps, not its windows: the pieces place the windows' starts
in a configuration's first slice, and each jump moves one window from
the site it leaves to the site it enters in the slice its folded time
opens, so the field of a slice is the running sum of the cells up to it.
The cells are linear in the jumps, however many windows the loops span.
MAX_CELLS bounds the field rows of one evaluation.

+inf is an absorbing interaction value (the grid hard core), mapped
downstream to Boltzmann weight e^{-inf} = 0.  v is finite everywhere
else (InteractionParams), and the continuum ensemble refuses a hard
core, so no NaNs are ever produced.
'''

from dataclasses import dataclass

import numpy as np

from .paths import LoopBatch, pair_order

# Dense occupation field rows (slices x groups) per kernel evaluation;
# the field and its product with v take 16 |Lambda| bytes a row
MAX_CELLS = 2 ** 22


@dataclass
class InteractionParams:
    '''Coupling parameters and the periodized potential table.

    mode: "meanfield" fixes lam = nu^2; "largemass" fixes lam = 1 and
    kappa = kappa0/nu; "generic" takes lam as given.  vL is finite but
    for +inf at the origin when R = 1 (the hard core).
    '''
    torus: object
    vL: np.ndarray
    nu: float
    lam: float = None
    mode: str = "generic"
    R: int = 0
    kappa: float = None
    kappa0: float = None

    def __post_init__(self):
        if not self.nu > 0:
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
        if not self.lam >= 0:
            raise ValueError("lam must be >= 0")
        if (self.R not in (0, 1)
                or (self.R == 1) != bool(np.isposinf(self.vL[0]))
                or not np.isfinite(v_tilde_table(self.vL, self.R)).all()):
            raise ValueError("vL must be finite, but +inf at the origin "
                             "iff R = 1")


def v_tilde_table(vL, R):
    '''Helper ṽ = v restricted off the hard core (v * 1{|x|_L >= R}).'''
    out = np.array(vL, dtype=float)
    if R == 1:
        out[0] = 0.0        # |x|_L < 1 only at the origin
    return out


def batch_interaction(batch, params, kind, groups=None):
    '''Total interaction of every configuration of a LoopBatch, (C,),
    or with groups its (C, n, n) group pair matrices; kind "ginibre" or
    "symanzik_eps".

    The total is V = 1/2 sum_k w_k n_k^T v n_k, n the occupation field of
    the configuration.  groups = (group, n) splits each configuration's
    loops into n groups, group the group of each loop of the batch, in
    0..n - 1 (n given by the caller, so a group may be empty anywhere),
    and entry (g, h) of a configuration's matrix is sum_k w_k N_{g,k} v
    N_{h,k}^T, N_g the summed occupation of the loops of group g, so
    that V = 1/2 sum_{g,h} P_{g,h}.  With one group per loop the
    matrices hold the pair interactions V(w_i, w_j), self pairs on the
    diagonal.  A total is the one-group case.

    In the grid ensemble a hard core (R = 1) is exclusion, in every mode
    and every output, as the quantum oracle's hard-core bosons: the
    finite part interacts through v-tilde (no self term of a window); a
    total or a diagonal entry is +inf iff its configuration or group
    alone puts two windows on one site in some slice, and an off-diagonal
    entry is +inf iff its two groups share a site in some slice.  This
    holds at any lam, so 1/2 sum P is the total in every mode.  The
    continuum ensemble has no hard core: every loop has positive local
    time at its own site, so every loop would be killed; ValueError.

    The configurations are evaluated in consecutive runs of at most
    MAX_CELLS dense field rows each (slices times n), each run's loops
    picked by their labels, which gives the same numbers as one
    evaluation; a configuration of more than MAX_CELLS rows raises
    ValueError.  A configuration with n groups thus takes at most
    MAX_CELLS / n slices: a Gamma_p sample (open paths and background,
    n = 2) at most 2^21.
    '''
    if kind == "symanzik_eps" and params.R == 1:
        raise ValueError("the continuum ensemble has no hard core (R = 1): "
                         "every loop would meet itself")
    C = batch.n_configs
    group, n = (np.zeros_like(batch.config), 1) if groups is None else groups
    group = np.asarray(group, dtype=np.int64)
    if (group.shape != batch.config.shape or group.min(initial=0) < 0
            or group.max(initial=0) >= n):
        raise ValueError(f"need a group in 0..{n - 1} for each of the "
                         f"{len(batch.config)} loops")
    slices = (np.bincount(batch.config, np.diff(batch.offsets), C) + 1
              if kind == "ginibre" else np.ones(C))
    bounds = _row_groups(slices * n, n)
    if len(bounds) == 2:
        P = _evaluate(batch, params, kind, group, n)
    else:
        parts = [np.zeros((0, n, n))]
        for lo, hi in zip(bounds, bounds[1:]):
            index = np.flatnonzero((batch.config >= lo) & (batch.config < hi))
            part = LoopBatch.join(hi - lo, [(batch.config[index] - lo, batch,
                                             index)])
            parts.append(_evaluate(part, params, kind, group[index], n))
        P = np.concatenate(parts)
    return P if groups is not None else 0.5 * P[:, 0, 0]


def _row_groups(rows, n):
    '''Bounds 0 = b_0 < b_1 < ... = C of consecutive runs of
    configurations with at most MAX_CELLS field rows each, rows[c] those
    of configuration c, slices times its n groups (exact unless two of
    its jump times agree mod nu); ValueError when a configuration alone
    has more.'''
    if rows.max(initial=0) > MAX_CELLS:
        raise ValueError(
            f"a configuration needs {rows.max():.3g} occupation field rows "
            f"(slices{' x groups' if n > 1 else ''}), more than the "
            f"kernel's budget of {MAX_CELLS}; raise kappa or nu")
    ends = np.cumsum(rows)
    bounds = [0]
    while bounds[-1] < len(rows):
        done = ends[bounds[-1] - 1] if bounds[-1] else 0.0
        bounds.append(int(np.searchsorted(ends, done + MAX_CELLS,
                                          side="right")))
    return bounds


def _evaluate(batch, params, kind, group, n):
    '''The (C, n, n) pair matrices of the n groups group of a LoopBatch,
    in one evaluation.'''
    w, bounds, N = _field(batch, params, kind, group, n)
    vL = params.vL
    exclusion = kind == "ginibre" and params.R == 1
    if exclusion:
        vL = v_tilde_table(vL, 1)
    P = np.add.reduceat(_slice_form(w, N, vL[params.torus.diff_table]),
                        bounds, axis=0)
    if exclusion:
        P[_excluded(N, bounds)] = np.inf
    return P


def _field(batch, params, kind, group, n):
    '''(w, bounds, N) of a LoopBatch: the slice weights, the first slice
    of each configuration, and the occupation field N (slices, n, sites)
    of the n groups group.  The cells it is built from are freed on
    return, before the quadratic form.'''
    n_sites = params.torus.n_sites
    occupations = _grid_occupations if kind == "ginibre" else _local_times
    w, bounds, cell_slice, cell_loop, cell_site, amount = occupations(
        batch, params)
    S = len(w)
    # one field row per slice and group
    N = np.bincount((cell_slice * n + group[cell_loop]) * n_sites
                    + cell_site, weights=amount, minlength=S * n * n_sites)
    N = N.reshape(S, n, n_sites)
    if S > batch.n_configs:
        # the cells are increments along each configuration's slices:
        # their running sum within configurations is exact, since only
        # the grid has configurations of several slices and its counts
        # are integers (the continuum's local times are left as they are)
        N[bounds[1:]] -= np.add.reduceat(N, bounds)[:-1]
        np.cumsum(N, axis=0, out=N)
    return w, bounds, N


def _excluded(N, bounds):
    '''Where the grid hard core kills, (C, n, n) per configuration: a
    group (a total's one group) alone when it has two windows on one
    site in some slice, a pair of distinct groups when both occupy one
    site in some slice.'''
    occ = N > 0
    meet = occ @ occ.transpose(0, 2, 1)
    diagonal = np.arange(N.shape[1])
    meet[:, diagonal, diagonal] = N.max(axis=2) > 1
    return np.logical_or.reduceat(meet, bounds, axis=0)


def _slice_form(w, N, vmat):
    '''Per-slice group pair terms P[k, g, h] = w_k N[k, g] vmat N[k,
    h]^T, vmat finite.  The grid hard core is not here: its callers pass
    v-tilde and apply exclusion (_excluded).'''
    # contiguous, so that BLAS sums in one order whatever N's layout
    Nt = np.ascontiguousarray(N.transpose(0, 2, 1))
    return (w[:, None, None] * N) @ vmat @ Nt


def _grid_occupations(batch, params):
    '''Slices of the folded time [0, nu) of every configuration of a
    LoopBatch, and its occupation cells as increments along them.

    Each configuration's [0, nu) is cut at 0, nu and every jump time mod
    nu of its loops (_slices); slice k has weight w_k = lam |slice k| /
    nu.  A jump at time a nu + r (exact divmod) lies in window a and
    opens the slice that starts at r.  The cells are (slice, loop, site, amount):
    - in the first slice of the configuration, one per constant piece
      of a loop, counting the windows a_s < a <= a_e that start on it,
      a_s and a_e the windows of its ends (a_e = W - 1 for the last
      piece of a loop of W windows), and window 0 for the first piece;
    - per jump, -1 at the site it leaves and +1 at the site it enters,
      in the slice it opens (slice 0 for a jump at a multiple of nu,
      whose window already starts past it).
    The running sum of the cells over a configuration's slices is its
    occupation.  Jumps past the last window (float durations) change
    nothing.  Returns w, the first slice of each configuration, and the
    cells' slices, loops, sites and amounts.
    '''
    nu = params.nu
    C = batch.n_configs
    n_loops = len(batch.start)
    ratio = batch.duration / nu
    n_win = np.round(ratio)
    # nu k carries a rounding error of about k ulp(nu): a few ulp a window
    off_grid = (np.abs(ratio - n_win) > 1e-9 + 2e-15 * n_win) | (n_win < 1)
    if off_grid.any():
        raise ValueError(f"duration {batch.duration[off_grid][0]} not on "
                         f"the grid nu N*")
    n_win = n_win.astype(np.int64)
    counts = np.diff(batch.offsets)
    jump_loop = np.repeat(np.arange(n_loops), counts)
    window, folded = np.divmod(batch.times, nu)
    length, bounds, opens = _slices(folded, batch.config[jump_loop], C, nu)
    w = params.lam / nu * length
    # the pieces: loop i's first is piece offsets[i] + i, and jump j of
    # loop i ends piece j + i and starts piece j + i + 1
    piece_loop, piece_site, _ = batch.pieces()
    first = batch.offsets[:-1] + np.arange(n_loops)
    jump_piece = np.arange(len(folded)) + jump_loop
    last_window = (n_win - 1)[jump_loop]
    # the window a_e of each piece's end; a loop's first piece starts in
    # window -1, so that window 0 counts on it
    a_end = np.empty(len(piece_loop), dtype=np.int64)
    a_end[jump_piece] = np.minimum(window.astype(np.int64), last_window)
    a_end[first + counts] = n_win - 1
    amount = np.diff(a_end, prepend=0)
    amount[first] = a_end[first] + 1
    # the jumps in a window of the loop, in the slice each opens
    kept = np.flatnonzero(window <= last_window)
    jump_slice = opens[kept]
    loops = jump_loop[kept]
    return (w, bounds,
            np.concatenate((bounds[batch.config[piece_loop]], jump_slice,
                            jump_slice)),
            np.concatenate((piece_loop, loops, loops)),
            np.concatenate((piece_site, piece_site[jump_piece[kept]],
                            batch.sites[kept])),
            np.concatenate((amount, np.full(len(kept), -1),
                            np.ones(len(kept), dtype=np.int64))))


def _slices(folded, jump_config, C, nu):
    '''The slices of the folded time [0, nu) of C configurations: each
    is cut at 0, nu and the folded times of its jumps, sorted and
    without repeats (folded and jump_config: each jump's folded time and
    configuration).  Returns the slice lengths in configuration order,
    the first slice of each configuration, and the global slice each
    jump opens.'''
    values = np.concatenate((folded, np.zeros(C), np.full(C, nu)))
    owner = np.concatenate((jump_config, np.arange(C), np.arange(C)))
    order = pair_order(owner, values)
    values, owner = values[order], owner[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = (values[1:] != values[:-1]) | (owner[1:] != owner[:-1])
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    cuts, cut_owner = values[new], owner[new]
    n_slices = np.bincount(cut_owner, minlength=C) - 1
    # the k-th cut of configuration c is global slice rank - c
    return (np.diff(cuts)[cut_owner[1:] == cut_owner[:-1]],
            np.cumsum(n_slices) - n_slices,
            rank[:len(folded)] - jump_config)


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


def v_total(batch, params, kind):
    '''Total interaction V = 1/2 sum_k w_k n_k^T v n_k of a LoopBatch of
    one configuration: batch_interaction's total, under its rules.'''
    return float(batch_interaction(batch, params, kind)[0])
