'''Poissonized Monte Carlo estimators for loop-ensemble partition
functions and correlation kernels (grid-duration and continuum ensembles).

Estimator identities:
  E_Poisson(m)[e^{-V}] = (sum_n (1/n!) int L^n e^{-V}) / e^m  (partition),
and for kernels the relative open-path form Gamma_p(x, y) = N / Z: N sums
over pi in S_p the open paths x_i -> y_pi(i), each weighted by
e^{-kappa T} psi^{L,T}(y_pi(i) - x_i) over its duration (nu N* on the
grid, (0, inf) in the continuum), times e^{-V(open paths + Poisson
background)}; Z = E[e^{-V(background)}].

A kernel sample draws its p open paths from a law that throws none away
(_OpenPaths): a permutation pi with probability prod_i G(y_pi(i) - x_i)
/ perm(G), G the free kernel (symbol a/(1-a) on the grid, 1/(kappa +
lambda) in the continuum); each duration from e^{-kappa T} psi^{L,T}(0)
/ G(0), a mixture over the modes xi; then the exact bridges x_i ->
y_pi(i) (paths.bridges).  Its weight is perm(G) prod_i G(0)
psi^{T_i}(delta_i) / (G(delta_i) psi^{T_i}(0)), delta_i = y_pi(i) - x_i,
which is the constant G(0) at p = 1 and x = y.  The sample is the pair
(weight e^{-V(open + background)}, e^{-V(background)}) on one
background, so numerator and denominator share their noise; the plain
ratio's SE is the delta method's sd(N - r D) / (sqrt(n) mean(D)), r =
mean(N) / mean(D), from the co-moments of the pairs' rows.

Each worker chunk is cut into batches, and the batches run in groups
and two phases: the draw phase makes every random draw of the group as
arrays, and the compute phase evaluates all configurations of the group
with one call of interactions.batch_interaction.  A batch holds a budget
of drawn loops, not of samples: with l the expected loops drawn per
sample, known before any draw (the Poisson mass, plus the p open paths
of a kernel; n for order n of the cluster expansion), it holds max(1,
floor(_BATCH_LOOPS / max(1, l))) samples.  Consecutive batches, in
worker order, are packed into one group while their expected loops fit
_BATCH_LOOPS, a sample counting max(1, l) loops (_pack), so a group
holds at most one batch of each worker and at most the loops of one
batch; at one worker the groups are the batches.  The cluster
expansion packs the batches of all its orders so, order after order,
each order on its own streams (the cluster module docstring).  A group
draws each worker's batch from that worker's generator: every draw
site takes the generators and the count of each (paths._by_stream), so
all workers' loops go through one paths.bridges call.  A loop's sample
is its configuration label, so a group holds its loops in the order
they were drawn.  A kernel's call evaluates each sample once, its open paths and its background as two
groups of loops, labelled 0 and 1 as the batch is joined: the
interaction is a quadratic form in the occupation field, so the (2, 2)
group pair matrix P gives V(open + background) = P.sum() / 2 and
V(background) = P_11 / 2.  A worker's generator makes the draws of its
batch of B samples in this order, the workers of a group one after the
other at each step:
  - the B Poisson loop counts, then all their loops in one
    LoopIntensity.draw_batch call (durations, base sites, then exact
    bridges in one pass, paths.bridges);
  - for a kernel, then, the B permutations, the B p modes and the B p
    durations of the open paths, in (sample, path) order, and one
    paths.bridges call for their B p bridges.
The batch size bounds the memory a group holds, since that memory
follows loops, not samples (the residue table alone is at most distinct
durations x M x L, within paths.MAX_BRIDGE_CELLS, though it holds only
the durations of the coordinates that may jump), and it is part of the
stream: the draws of a batch are grouped by kind, not by sample.

Control variates (always on).  Under the free loop soup some quantities
of a sample have exact means for every potential, hard core included,
so each estimate subtracts its regression on them (Glasserman, Monte
Carlo Methods in Financial Engineering, 4.1).  The controls of a sample
are its background's loop count K and K^2, its total duration S and
S^2, and, for a kernel whose open paths all end where they start, its
open paths' summed durations and summed squared durations.  Their exact
means, for the law actually sampled: K ~ Poisson(m), so E K = m and E
K^2 = m + m^2; S is a compound Poisson sum, so E S = m E T and E S^2 =
m E T^2 + (m E T)^2, with the loop duration moments of
LoopIntensity.duration_moments (m E T = nu sum_xi a_xi / (1 - a_xi) on
the grid, nu times the free particle number); the open paths' sums have
means p E T and p E T^2 of _OpenPaths.duration_moments.  A moving open
path's weight psi^T(delta) / psi^T(0) is far from linear in T, and its
heavy-tailed T^2 made the fit cost more than it removed below about a
thousand samples, so a kernel that moves a path takes the four
background controls only.  The draw phase returns the controls as
extra rows and makes no new draw, so the stream is unchanged.  The
regressed quantity y is D = e^{-V} for Z and the ratio's linearized
residual N - r D for a kernel.  The samples, in worker order, form two
folds, the even and the odd ones; each fold's beta is fitted on the
other fold (two-fold cross-fitting: a beta fitted on the samples it
adjusts biases the estimate), and the estimate is the mean of the
adjusted samples y - beta (x - E x), with the SE of those adjusted
samples on n - 1 - k degrees of freedom, k the rank of the fit (a
control collinear with the others, such as K^2 = K when no sample has
two loops, is left out and not counted).  The estimate is the plain
one, deterministically, when a fold holds fewer than 25 samples per
control or a control has no variance in a fold.  metadata holds
plain_mean and plain_se (the estimate without controls), controls (the
control names), beta (the two folds' coefficients, None for the plain
estimate) and variance_ratio (SE^2 over the plain SE^2); a kernel's
denominator and denominator_se stay the plain paired denominator.

Determinism: a run is a pure function of (seed, workers).  Samples are
partitioned into per-worker chunks with rng streams spawned from the
master seed.  run_mc hands every stream and its chunk to one call of the
sample function, whose rows come out in worker order, and reduces them
once.  Each worker's rows are those its chunk gives alone: its
generator makes the same draws in the same order however the batches
are grouped, and the kernel evaluates each configuration on its own
loops.  So results are bit-identical for a fixed worker count.
'''

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# v_total is unused here; perfbench's tests assert that loop_mc names it
from .interactions import batch_interaction, v_total
from .paths import (LoopBatch, _by_stream, _stream_totals, bridges,
                    mixture_moments, pick)

# Expected loops drawn per batch.  A chunk's memory follows its loops, so
# this bounds it whatever the loops per sample; see _batch_size.
_BATCH_LOOPS = 4096
# The control rows of a sample, after its estimator's own rows: the
# background's loop count and total duration and their squares, then a
# kernel's open-path durations summed and their squares summed.
_BACKGROUND_CONTROLS = ("K", "K^2", "S", "S^2")
_OPEN_CONTROLS = ("T_open", "T_open^2")
# A fold with fewer samples than this per control takes no controls.  Z
# and the diagonal Gamma_1 gain from 5 or 6 per control on, the moving
# Gamma_1(0, 1) from about 25 (README, control variates).
_FOLD_PER_CONTROL = 25
# A fold's fit leaves out a control with less than this fraction of its
# variance left by the controls before it (collinear controls), and a
# control with less than this fraction of its raw second moment as
# variance has none.
_COLLINEAR = 1e-8


@dataclass
class McEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {"mean": self.mean, "std_error": self.std_error,
                "n": self.n_samples, "seed": self.seed,
                "params": self.metadata}

    def csv_row(self):
        return [self.mean, self.std_error, self.n_samples, self.seed]


@dataclass
class EnsembleSpec:
    torus: object
    params: object          # InteractionParams
    intensity: object       # LoopIntensity
    kind: str               # "ginibre" | "symanzik_eps"

    def __post_init__(self):
        '''ValueError unless the torus, the params, the intensity and
        the kind describe one ensemble, and for a hard core in the
        continuum: every loop has positive local time at its own site, so
        every configuration but the empty one would be killed.'''
        if self.kind not in ("ginibre", "symanzik_eps"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.intensity.kind != self.kind:
            raise ValueError("intensity kind does not match ensemble kind")
        shape = (self.torus.d, self.torus.L)
        for name, torus in (("params", self.params.torus),
                            ("intensity", self.intensity.torus)):
            if (torus.d, torus.L) != shape:
                raise ValueError(f"{name} torus (d, L) = {(torus.d, torus.L)} "
                                 f"does not match the ensemble's {shape}")
        if self.kind == "ginibre" and self.params.nu != self.intensity.nu:
            raise ValueError(f"params nu = {self.params.nu} does not match "
                             f"the intensity's nu = {self.intensity.nu}")
        if self.kind == "symanzik_eps" and self.params.R == 1:
            raise ValueError("the continuum ensemble has no hard core "
                             "(R = 1): every loop would meet itself")


def _chunks(n_samples, workers):
    base, extra = divmod(n_samples, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _streams(n_samples, seed, workers):
    '''(rngs, counts) of a run: one generator per worker, spawned from
    seed, and its count the worker's chunk of n_samples, a worker with
    no sample left out.  ValueError unless n_samples >= 2, so that the
    standard error is defined; nothing is drawn before the check.'''
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2 for a standard error, got "
                         f"{n_samples}")
    streams = np.random.SeedSequence(seed).spawn(workers)
    chunks = _chunks(n_samples, workers)
    return ([np.random.default_rng(stream)
             for stream, n_w in zip(streams, chunks) if n_w],
            [n_w for n_w in chunks if n_w])


def _mean_se(rows):
    '''The two-pass mean and SE of every row of rows (k, n), or of
    rows (n,).'''
    n_samples = rows.shape[-1]
    mean = rows.mean(axis=-1)
    dev = rows - mean[..., None]
    se = np.sqrt((dev ** 2).sum(axis=-1) / (n_samples - 1) / n_samples)
    return mean, se


def run_mc(sample_fn, n_samples, seed, workers=1):
    '''Average the samples of sample_fn(rngs, counts) over n_samples
    with a deterministic reduction; the single reducer of every
    estimator.

    The streams are the workers': one generator per worker, spawned
    from seed, and its count the worker's chunk of n_samples (a worker
    with no sample is left out).  sample_fn is called once, with all of
    them, and returns counts[i] samples drawn from each rngs[i], joined
    in stream order, as rows (k, n_samples), or (n_samples,) for k = 1;
    each stream's samples must be a pure function of that stream and
    its count alone.  Each row gets a two-pass mean and SE.  Returns
    (mean, se, rows), mean and se of shape (k,), scalars for k = 1.
    Needs n_samples >= 2, so that the standard error is defined;
    ValueError otherwise.  cluster.estimate_X runs its orders on these
    streams and this reduction too, but draws them together
    (_pack), not through run_mc.
    '''
    rows = sample_fn(*_streams(n_samples, seed, workers))
    return (*_mean_se(rows), rows)


def _paired_ratio(mean, se, rows):
    '''(N / D, its SE, metadata) from the mean, SE and rows of paired
    samples (N, D), the first two rows: the delta method's sd(N - r D) /
    (sqrt(n) D), r = N / D.  ArithmeticError if D is within 3 SE of 0.'''
    (num, den), den_se = mean[:2], float(se[1])
    if abs(den) <= 3.0 * den_se:
        raise ArithmeticError("denominator estimate consistent with 0")
    ratio = float(num / den)
    dev = rows[:2] - mean[:2, None]
    C = np.einsum("in,jn->ij", dev, dev)
    count = rows.shape[1]
    spread = max(float(C[0, 0] - 2.0 * ratio * C[0, 1]
                       + ratio * ratio * C[1, 1]), 0.0)
    scale = math.sqrt(float(C[0, 0] * C[1, 1]))
    return ratio, math.sqrt(spread / (count - 1) / count) / abs(den), {
        "denominator": float(den), "denominator_se": den_se,
        "denominator_z": float(den) / den_se if den_se else math.inf,
        "correlation": float(C[0, 1]) / scale if scale else 0.0}


def _fit(C):
    '''(beta, rank) of the least-squares fit of y on the controls, from
    their co-moments C (nested lists, y first), by Gauss-Jordan
    elimination of the controls' block.  A control with less than
    _COLLINEAR of its variance left by the ones before it (collinear,
    such as K^2 = K) is left out: beta 0, not in the rank.  numpy's eigh
    or lstsq would take 0.8 to 1.1 MB more peak memory (LAPACK
    workspaces) and no less time.'''
    rows = [row[:] for row in C[1:]]
    kept = []
    for j in range(len(rows)):
        pivot = rows[j]
        if pivot[j + 1] <= _COLLINEAR * C[j + 1][j + 1]:
            continue
        kept.append(j)
        for i, row in enumerate(rows):
            if i != j:
                f = row[j + 1] / pivot[j + 1]
                rows[i] = [a - f * b for a, b in zip(row, pivot)]
    return ([rows[j][0] / rows[j][j + 1] if j in kept else 0.0
             for j in range(len(rows))], len(kept))


def _control_step(y, y_center, x, means):
    '''The cross-fitted control-variate step of an estimate.

    y (n,) is the regressed quantity, taken about y_center, and x (k, n)
    the controls, of exact means `means`.  The two folds are the even
    and the odd samples.  Each fold's beta is fitted on the other fold
    (_fit), and y - y_center - beta (x - means) is a sample's adjusted
    value.  Returns (delta, se, betas): delta is the mean of the
    adjusted samples, so that y_center + delta is the controlled mean of
    y, se their SE on n - 1 - k degrees of freedom (k the larger rank of
    the two fits), betas the two folds' beta.  None (the plain estimate)
    when a fold has fewer than _FOLD_PER_CONTROL samples per control or
    a control has no variance in a fold.'''
    k, n = len(means), len(y)
    if n // 2 < _FOLD_PER_CONTROL * k:
        return None
    # u = (1, y - y_center, x - means) of each sample, as pairs (even,
    # odd); an odd n pads a zero sample, which adds nothing
    u = np.empty((2 + k, n + n % 2))
    u[0, :n] = 1.0
    np.subtract(y, y_center, out=u[1, :n])
    np.subtract(x, means[:, None], out=u[2:, :n])
    u[:, n:] = 0.0
    folds = u.reshape(2 + k, -1, 2).transpose(2, 0, 1)
    # per fold: the count, sums and raw products of u, then co-moments
    raw = folds @ folds.transpose(0, 2, 1)
    C = raw[:, 1:, 1:] - raw[:, 1:, :1] * raw[:, :1, 1:] / raw[:, :1, :1]
    var = C.diagonal(axis1=1, axis2=2)[:, 1:]
    # a control with no variance: none left of its raw second moment
    if (var <= _COLLINEAR * raw.diagonal(axis1=1, axis2=2)[:, 2:]).any():
        return None
    # each fold's beta, fitted on the other fold
    fits = [_fit(fold) for fold in C.tolist()[::-1]]
    betas = [beta for beta, _ in fits]
    # (0, 1, -beta) of each fold: the sum and the sum of squares of the
    # adjusted samples
    w = np.zeros((2, 2 + k))
    w[:, 1] = 1.0
    w[:, 2:] = np.negative(betas)
    total = float(np.vdot(w, raw[:, 0]))
    square = float((w[:, None, :] @ raw @ w[:, :, None]).sum())
    delta = total / n
    dof = n - 1 - max(rank for _, rank in fits)
    return (delta, math.sqrt(max(square - total * delta, 0.0) / dof / n),
            betas)


def _controlled(plain, plain_se, step, scale, names):
    '''(mean, se, metadata) of an estimate from its plain mean and SE
    and its _control_step (None: the plain estimate), whose delta and SE
    count scale per unit of the estimate.'''
    mean, se, betas = plain, plain_se, None
    if step is not None:
        delta, step_se, betas = step
        mean, se = plain + scale * delta, abs(scale) * step_se
    return mean, se, {
        "plain_mean": plain, "plain_se": plain_se, "controls": list(names),
        "beta": betas,
        "variance_ratio": (se / plain_se) ** 2 if plain_se else 1.0}


def _batch_size(loops_per_sample):
    '''Samples per batch for an expected loops_per_sample: as many as
    fit _BATCH_LOOPS loops, at least 1 and at most _BATCH_LOOPS.'''
    return max(1, math.floor(_BATCH_LOOPS / max(1.0, loops_per_sample)))


def _pack(runs):
    '''The groups of batches of several runs, each run given as
    (loops_per_sample, rngs, counts).  Each run's streams are cut into
    batches of _batch_size(loops_per_sample) samples; the batches are
    taken in run order, then stream order, and consecutive batches share
    a group while their expected loops fit _BATCH_LOOPS, a sample of a
    run counting max(1, loops_per_sample) loops; a group always takes
    its first batch.  So a group holds at most one batch of each stream,
    and one run's groups are those its own batches pack into: its
    samples in a group fit one batch.  Returns the groups, each a list
    of (run index, rngs, counts) of the runs it holds, in run order,
    counts[i] the samples of the batch of the stream rngs[i].'''
    groups = []
    # loops of the group's earlier runs; samples of this run in it
    spent = taken = 0
    for r, (loops, rngs, counts) in enumerate(runs):
        size, cost = _batch_size(loops), max(1.0, loops)
        for rng, count in zip(rngs, counts):
            for lo in range(0, count, size):
                m = min(size, count - lo)
                if not groups or taken + m > math.floor(
                        (_BATCH_LOOPS - spent) / cost):
                    groups.append([])
                    spent = taken = 0
                if not groups[-1] or groups[-1][-1][0] != r:
                    groups[-1].append((r, [], []))
                groups[-1][-1][1].append(rng)
                groups[-1][-1][2].append(m)
                taken += m
        spent, taken = spent + taken * cost, 0
    return groups


def _batched(draw, evaluate, loops_per_sample):
    '''A run_mc sample function in two phases per group of batches,
    the groups of one run (_pack): draw(rngs, counts) makes all the
    draws of a group, counts[i] samples from the generator rngs[i], then
    evaluate(the draws) returns the group's samples as run_mc's rows,
    joined over the groups.  cluster.estimate_X packs the runs of all
    its orders into shared groups by the same rule, never past
    _BATCH_LOOPS expected loops, each order on its own (seed, n)
    streams, so one pass serves several orders.'''
    def sample(rngs, counts):
        groups = _pack([(loops_per_sample, rngs, counts)])
        return np.concatenate([evaluate(draw(group_rngs, group_counts))
                               for [(_, group_rngs, group_counts)] in groups],
                              axis=-1)
    return sample


class _Tally:
    '''Work counts of an estimator's draw and compute phases; counting
    draws no random numbers.'''

    def __init__(self):
        self.loops = self.configs = self.killed = 0

    def draw_loops(self, intensity, rngs, counts):
        '''counts[i] loops of the intensity from each generator rngs[i],
        loop i in configuration i of a LoopBatch.'''
        self.loops += sum(counts)
        return intensity.draw_batch(rngs, counts)

    def boltzmann(self, V):
        '''e^{-V} of the interactions V of configurations; a killed
        configuration (V = +inf) gives 0.'''
        self.configs += V.size
        self.killed += int(np.count_nonzero(np.isinf(V)))
        return np.exp(-V)

    def metadata(self, n_samples):
        return {"loops_per_sample": self.loops / n_samples,
                "killed_frac": (self.killed / self.configs
                                if self.configs else 0.0)}


def _draw_background(intensity, rngs, counts, tally):
    '''The Poisson backgrounds of m = sum(counts) samples, counts[i] of
    them from the generator rngs[i]: (the sample of each loop, the loops
    in sample order, loop i in configuration i, and the rows (4, m) of
    the background controls: loop count K, K^2, total duration S, S^2).
    Each stream draws its loop counts, then (draw_batch) its loops.'''
    sizes = _by_stream(rngs, counts,
                       lambda rng, k: rng.poisson(intensity.total_mass, k))
    loops = tally.draw_loops(intensity, rngs, _stream_totals(sizes, counts))
    m = len(sizes)
    owner = np.repeat(np.arange(m), sizes)
    S = np.bincount(owner, weights=loops.duration, minlength=m)
    return owner, loops, (sizes, sizes * sizes, S, S * S)


def _background_means(intensity):
    '''Exact means of the background controls: K ~ Poisson(m) and S a
    compound Poisson sum of m loops' durations.'''
    m = intensity.total_mass
    t1, t2 = intensity.duration_moments
    return np.array([m, m + m * m, m * t1, m * t2 + (m * t1) ** 2])


def estimate_rel_partition(spec, n_samples, seed, workers=1):
    '''MC estimate of the relative partition function Z = E_Poisson[e^{-V}],
    its mean and SE adjusted by the background controls (module
    docstring).  ArithmeticError when every sample's e^{-V} underflowed
    to 0 and none was a hard-core kill: such a run holds no number.'''
    if not np.isfinite(spec.intensity.total_mass):
        raise ValueError("loop intensity mass must be finite")
    tally = _Tally()

    def configs(rngs, counts):
        owner, loops, controls = _draw_background(spec.intensity, rngs,
                                                  counts, tally)
        return LoopBatch.join(sum(counts), [(owner, loops, None)]), controls

    def evaluate(drawn):
        batch, controls = drawn
        V = batch_interaction(batch, spec.params, spec.kind)
        return np.array((tally.boltzmann(V),) + controls, dtype=float)

    sample = _batched(configs, evaluate, spec.intensity.total_mass)
    mean, se, rows = run_mc(sample, n_samples, seed, workers)
    if not rows[0].any() and not tally.killed:
        raise ArithmeticError(
            "every sample's e^{-V} underflowed to 0 with no hard-core kill: "
            "the estimate would read Z = 0 with no error; raise kappa or "
            "lower lambda")
    step = _control_step(rows[0], mean[0], rows[1:],
                         _background_means(spec.intensity))
    value, value_se, controls = _controlled(float(mean[0]), float(se[0]),
                                            step, 1.0, _BACKGROUND_CONTROLS)
    meta = {"kind": spec.kind, "mass": spec.intensity.total_mass,
            "workers": workers}
    meta.update(spec.intensity.metadata)
    meta.update(tally.metadata(n_samples))
    meta.update(controls)
    return McEstimate(value, value_se, n_samples, seed, meta)


class _OpenPaths:
    '''The law of the p open paths x_i -> y_pi(i) of a kernel sample,
    built once per estimate_gamma_p call; draw gives m samples' open
    paths and weights, in units of unit = G(0)^p, so that p open paths
    from one site back to it have the weight p! exactly.

    G is the free kernel, with symbol g_xi = a_xi / (1 - a_xi) on the grid
    (a_xi = e^{-nu(kappa + lambda_xi)}) and 1 / (kappa + lambda_xi) in the
    continuum.  The permutation pi has probability prod_i G(y_pi(i) - x_i)
    / perm(G), over the p! rows of S_p.  A duration has law e^{-kappa T}
    psi^{L,T}(0) / G(0), the mixture over the modes xi, with weights g_xi,
    of nu Geometric(1 - a_xi) on the grid and Exp(kappa + lambda_xi) in the
    continuum: it needs no table and no rejection (a_xi: LoopIntensity.a).
    '''

    def __init__(self, intensity, xs, ys):
        torus = self.torus = intensity.torus
        # per mode, the geometric law's success probability (grid) or
        # the exponential law's rate (continuum)
        if intensity.kind == "ginibre":
            a = intensity.a
            symbol, self._param = a / (1.0 - a), 1.0 - a
            self._nu = intensity.nu
        else:
            self._param, self._nu = intensity.kappa + torus.rates, None
            symbol = 1.0 / self._param
        self._mode_cdf = np.cumsum(symbol)
        # G(x) >= 0 holds exactly; the clip drops Fourier rounding
        G = np.maximum(torus.inverse_fourier(symbol), 0.0)
        self.xs = np.array(xs, dtype=np.int64)
        self.perms = np.array(list(itertools.permutations(range(len(xs)))),
                              dtype=np.int64)
        self.ends = np.array(ys, dtype=np.int64)[self.perms]     # (p!, p)
        self.delta = torus.diff_table[self.ends, self.xs]
        prob = np.prod(G[self.delta], axis=1)
        perm = prob.sum()
        self._perm_cdf = np.cumsum(prob)
        # perm(G) prod_i G(0) / G(delta_i) of each row, in units of
        # G(0)^p; 0 where pi is never drawn, so that an underflowed kernel
        # gives samples of weight 0
        self.unit = G[0] ** len(xs)
        self.scale = np.zeros(len(prob))
        drawn = prob > 0
        self.scale[drawn] = perm / prob[drawn]
        # whether a drawn path ends away from its start, where the weight
        # is psi^T(delta) / psi^T(0), far from linear in T
        self.moves = bool(np.any(self.delta[drawn]))

    @property
    def duration_moments(self):
        '''(E T, E T^2) of an open path's duration law: the mixture with
        weights g_xi of nu Geometric(1 - a_xi), moments nu / (1 - a_xi)
        and nu^2 (1 + a_xi) / (1 - a_xi)^2, on the grid, and of
        Exp(kappa + lambda_xi), moments 1 / r and 2 / r^2 at the rate r,
        in the continuum.'''
        if self._nu is not None:
            q = self._param
            mean, square = mixture_moments(self._mode_cdf, 1.0 / q,
                                           (2.0 - q) / q ** 2)
            return self._nu * mean, self._nu ** 2 * square
        return mixture_moments(self._mode_cdf, 1.0 / self._param,
                               2.0 / self._param ** 2)

    def draw(self, rngs, counts):
        '''(end sites (m, p), durations (m, p), weights (m,) in units
        of unit) of m = sum(counts) samples, counts[i] of them from the
        generator rngs[i]: each stream's permutations, then its p modes a
        sample, then its p durations a sample.'''
        p = len(self.xs)

        def draw(rng, k):
            row = pick(self._perm_cdf, rng, k)
            mode = pick(self._mode_cdf, rng, (k, p))
            if self._nu is not None:
                return row, self._nu * rng.geometric(self._param[mode])
            return row, rng.exponential(1.0 / self._param[mode])

        row, T = _by_stream(rngs, counts, draw)
        m = len(row)
        weight = self.scale[row]
        delta = self.delta[row]
        moved = delta != 0
        if moved.any():
            ratio = np.ones((m, p))
            ratio[moved] = self.torus.heat_kernel_ratio(
                T[moved], self.torus.coords[delta[moved]])
            weight = weight * ratio.prod(axis=1)
        return self.ends[row], T, weight


def estimate_gamma_p(spec, p, xs, ys, n_samples, seed, workers=1,
                     denom_samples=None):
    '''MC estimate of the kernel entry Gamma_p(x, y) via the relative
    open-path representation (p <= 4).  Each sample is the pair
    (weight e^{-V(open paths + background)}, e^{-V(background)}) on one
    Poisson background, its open paths drawn by _OpenPaths, both from
    one group pair matrix of the sample (module docstring); the estimate
    is the ratio of the pair's means.  The denominator shares the
    numerator's samples: denom_samples is None or n_samples, else
    ValueError.'''
    if p < 1 or p > 4:
        raise ValueError(f"p must be in 1..4, got {p}")
    if denom_samples not in (None, n_samples):
        raise ValueError(f"denom_samples must be None or n_samples = "
                         f"{n_samples}, got {denom_samples}")
    xs, ys = spec.torus.check_sites(p, xs, ys)
    intensity = spec.intensity
    law = _OpenPaths(intensity, xs, ys)
    # the open paths' durations are controls when no path moves; a moving
    # path's weight makes them cost more than they remove (module
    # docstring)
    names = _BACKGROUND_CONTROLS + (() if law.moves else _OPEN_CONTROLS)
    means = _background_means(intensity)
    if not law.moves:
        t1, t2 = law.duration_moments
        means = np.concatenate((means, [p * t1, p * t2]))
    tally = _Tally()

    def configs(rngs, counts):
        # the open paths of every sample (group 0), then the backgrounds
        # (group 1)
        m = sum(counts)
        owner, background, controls = _draw_background(intensity, rngs,
                                                       counts, tally)
        ends, T, weight = law.draw(rngs, counts)
        opens = bridges(spec.torus, np.tile(law.xs, m), T.ravel(), rngs,
                        [p * k for k in counts], ends.ravel())
        batch = LoopBatch.join(m, [
            (np.repeat(np.arange(m), p), opens, None),
            (owner, background, None)])
        group = np.repeat([0, 1], [m * p, len(owner)])
        if not law.moves:
            controls += (T.sum(axis=1), (T * T).sum(axis=1))
        return batch, group, weight, controls

    def evaluate(drawn):
        batch, group, weight, controls = drawn
        P = batch_interaction(batch, spec.params, spec.kind, (group, 2))
        # V(open + background) = 1/2 sum P and V(background) = 1/2 P_11
        boltzmann = tally.boltzmann(0.5 * np.stack((P.sum(axis=(1, 2)),
                                                    P[:, 1, 1])))
        return np.array((weight * boltzmann[0], boltzmann[1]) + controls,
                        dtype=float)

    sample = _batched(configs, evaluate, intensity.total_mass + p)
    mean, se, rows = run_mc(sample, n_samples, seed, workers)
    ratio, ratio_se, den = _paired_ratio(mean, se, rows)
    # y = N - ratio D, whose mean is 0
    step = _control_step(rows[0] - ratio * rows[1], 0.0, rows[2:], means)
    value, value_se, controls = _controlled(
        float(law.unit * ratio), float(law.unit * ratio_se), step,
        float(law.unit / mean[1]), names)
    meta = {"kind": spec.kind, "p": p, "x": xs, "y": ys, **den,
            "workers": workers}
    meta.update(tally.metadata(n_samples))
    meta.update(controls)
    return McEstimate(value, value_se, n_samples, seed, meta)
