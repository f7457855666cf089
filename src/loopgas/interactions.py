'''Exact loop interaction functionals for piecewise-constant paths.

The interaction of a loop configuration is one quadratic form in an
occupation field: the folded occupation N(t, x), t in [0, nu), of the
grid ensemble, V = (lam / 2 nu) int_0^nu N(t)^T v N(t) dt, and the summed
local time l of the continuum ensemble, V = (lam / 2) l^T v l.  N is
constant between the jump times mod nu, so the integral is an exact sum
over slices; there is no quadrature error anywhere in this module.
+inf is an absorbing interaction value (hard core), mapped downstream to
Boltzmann weight e^{-inf} = 0; no NaNs are ever produced.
'''

from dataclasses import dataclass, field

import numpy as np


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


def _check_grid(path, nu):
    n = path.duration / nu
    if abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise ValueError(f"duration {path.duration} not on the grid nu N*")


def _occupations(config, params, kind):
    '''Slice weights w (K,) and stacked per-loop occupations N (loops, K,
    sites) such that the pair interaction of loops i, j is
    sum_k w_k N[i, k] v N[j, k]^T.

    Grid ensemble: [0, nu) is cut at every jump time mod nu, and
    N[i, k, x] counts the windows a of loop i with w_i(a nu + t) = x for t
    in slice k; w_k = lam |slice k| / nu.  Continuum ensemble: one slice
    holding the local times, w = lam.
    '''
    n_sites = params.torus.n_sites
    if kind != "ginibre":
        N = np.array([w.local_time_table(n_sites) for w in config])
        return np.array([params.lam]), N.reshape(len(config), 1, n_sites)
    nu = params.nu
    for w in config:
        _check_grid(w, nu)
    cuts = np.unique(np.concatenate(
        [[0.0, nu]] + [np.mod(w.jump_times, nu) for w in config]))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    K = len(mid)
    slot = np.arange(K) * n_sites
    N = np.empty((len(config), K, n_sites))
    for i, w in enumerate(config):
        t = nu * np.arange(round(w.duration / nu))[:, None] + mid
        sites = np.concatenate(([w.start], w.jump_sites))[
            np.searchsorted(w.jump_times, t, side="right")]
        N[i] = np.bincount((slot + sites).ravel(),
                           minlength=K * n_sites).reshape(K, n_sites)
    return params.lam / nu * np.diff(cuts), N


def _form(w, N, vmat):
    '''P[i, j] = sum_k w_k N[i, k] vmat N[j, k]^T; +inf where an infinite
    vmat entry meets sites occupied in a common slice of positive weight
    (masked, so that 0 * inf never makes a NaN).'''
    n, K, s = N.shape
    core = np.isinf(vmat)
    weighted = (w[:, None] * N) @ np.where(core, 0.0, vmat)
    P = weighted.reshape(n, K * s) @ N.reshape(n, K * s).T
    if core.any():
        occ = (N > 0) * (w > 0)[:, None]
        hits = (occ @ core).reshape(n, K * s) @ occ.reshape(n, K * s).T
        P[hits] = np.inf
    return P


def pair_matrix(config, params, kind):
    '''Matrix of pair interactions V(w_i, w_j) of a loop configuration,
    self pairs on the diagonal (kind "ginibre" or "symanzik_eps").'''
    w, N = _occupations(config, params, kind)
    return _form(w, N, params.vL[params.torus.diff_table])


def v_total(config, params, kind):
    '''Total interaction V = 1/2 sum_k w_k n_k^T v n_k of a configuration,
    n = sum_i N_i its occupation field; equal to 1/2 sum_{i,j} V(w_i, w_j).

    In the grid ensemble a hard core (R = 1) is exclusion, in every mode:
    the configuration is killed (+inf) iff two windows share a site at
    some time, and otherwise interacts through v-tilde (no self term of
    a window), as the quantum oracle's hard-core bosons do.
    '''
    w, N = _occupations(config, params, kind)
    n = N.sum(axis=0)[None]
    vL = params.vL
    if kind == "ginibre" and params.R == 1:
        if np.any(n > 1):
            return np.inf
        vL = v_tilde_table(vL, params.torus, 1)
    return 0.5 * float(_form(w, n, vL[params.torus.diff_table])[0, 0])


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
