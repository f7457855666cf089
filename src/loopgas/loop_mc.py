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
background, so numerator and denominator share their noise; the ratio's
SE is the delta method's sd(N - r D) / (sqrt(n) mean(D)), r = mean(N) /
mean(D), from the merged co-moments of the pairs.

Each worker chunk runs in batches and two phases: the draw phase makes
every random draw of the batch as arrays, and the compute phase
evaluates all configurations of the batch with one call of
interactions.batch_interaction.  A batch holds a budget of drawn loops,
not of samples: with l the expected loops drawn per sample, known before
any draw (the Poisson mass, plus the p open paths of a kernel; n for
order n of the cluster expansion), it holds max(1, floor(_BATCH_LOOPS /
max(1, l))) samples.  A kernel's call evaluates each background twice,
with and without its open paths.  Within a batch of B samples the draws
come in this order:
  - the B Poisson loop counts, then all their loops in one
    LoopIntensity.draw_batch call (durations, base sites, then exact
    bridges in one pass, paths.bridges);
  - for a kernel, then, the B permutations, the B p modes and the B p
    durations of the open paths, in (sample, path) order, and one
    paths.bridges call for their B p bridges.
The batch size bounds the memory a chunk holds, since that memory
follows loops, not samples (the residue table alone is distinct
durations x M x L, within paths.MAX_BRIDGE_CELLS), and it is part of the
stream: the draws of a batch are grouped by kind, not by sample.

Determinism: a run is a pure function of (seed, workers).  Samples are
partitioned into per-worker chunks with rng streams spawned from the
master seed, and the per-worker moments (and co-moments) are merged in
worker order (Chan, Golub & LeVeque, Am. Stat. 37 (1983) 242), so
results are bit-identical for a fixed worker count.
'''

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

# v_total is unused here; perfbench's tests assert that loop_mc names it
from .interactions import batch_interaction, v_total
from .paths import LoopBatch, bridges, pick

# Expected loops drawn per batch.  A chunk's memory follows its loops, so
# this bounds it whatever the loops per sample; see _batch_size.
_BATCH_LOOPS = 4096


@dataclass
class McEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int
    metadata: dict = field(default_factory=dict)

    def to_json(self):
        doc = {"mean": self.mean, "std_error": self.std_error,
               "n": self.n_samples, "seed": self.seed,
               "params": self.metadata}
        return json.dumps(doc)

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
        the kind describe one ensemble.'''
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


def _chunks(n_samples, workers):
    base, extra = divmod(n_samples, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _welford_merge(parts):
    '''Merge per-worker (count, mean, M2) in order.  A part may carry a
    fourth entry, its co-moment matrix sum (v - mean)(v - mean)^T; the
    merged one is then returned fourth.'''
    count, mean, M2, C = 0, 0.0, 0.0, 0.0
    for c, m, m2, *cm in parts:
        if c == 0:
            continue
        delta = m - mean
        tot = count + c
        if cm:
            C = C + cm[0] + np.multiply.outer(delta, delta) * count * c / tot
        mean += delta * c / tot
        M2 += m2 + delta * delta * count * c / tot
        count = tot
    return (count, mean, M2) + ((C,) if parts and len(parts[0]) > 3 else ())


def run_mc(sample_fn, n_samples, seed, workers=1, comoments=False):
    '''Average the samples of sample_fn(rng, count) over n_samples with
    a deterministic reduction; the single reducer of every estimator.

    sample_fn returns count samples drawn from rng, with shape (count,)
    or (count, k), and must be a pure function of the rng stream.  Each
    worker chunk takes a two-pass mean and sum of squared deviations per
    column; the chunks are merged in worker order.  Returns (mean,
    std_error, count): floats for scalar samples, length-k arrays for
    vector samples.  With comoments (vector samples) it also returns,
    fourth, the k x k matrix sum (v - mean)(v - mean)^T over the
    samples, merged the same way.  Needs n_samples >= 2, so that the
    standard error is defined; ValueError otherwise.
    '''
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2 for a standard error, got "
                         f"{n_samples}")
    streams = np.random.SeedSequence(seed).spawn(workers)
    parts = []
    scalar = True
    for stream, n_w in zip(streams, _chunks(n_samples, workers)):
        if n_w == 0:
            continue
        vals = np.asarray(sample_fn(np.random.default_rng(stream), n_w),
                          dtype=float)
        scalar = vals.ndim == 1
        # one contiguous row per column, so that each column is reduced
        # exactly as a scalar run of that column would be
        cols = np.ascontiguousarray(vals.reshape(n_w, -1).T)
        m = cols.mean(axis=1)
        dev = cols - m[:, None]
        m2 = (dev ** 2).sum(axis=1)
        parts.append((n_w, m[0], m2[0]) if scalar else (n_w, m, m2))
        if comoments:
            parts[-1] += (np.einsum("in,jn->ij", dev, dev),)
    count, mean, M2, *C = _welford_merge(parts)
    se = np.sqrt(M2 / (count - 1) / count)
    if scalar:
        return float(mean), float(se), count
    return (mean, se, count, *C)


def _paired_ratio(mean, se, C, count):
    '''(N / D, its SE, metadata) from the mean, SE and co-moments C of
    paired samples (N, D): the delta method's sd(N - r D) / (sqrt(n) D),
    r = N / D.  ArithmeticError if D is within 3 SE of 0.'''
    (num, den), den_se = mean, float(se[1])
    if abs(den) <= 3.0 * den_se:
        raise ArithmeticError("denominator estimate consistent with 0")
    ratio = float(num / den)
    spread = max(float(C[0, 0] - 2.0 * ratio * C[0, 1]
                       + ratio * ratio * C[1, 1]), 0.0)
    scale = math.sqrt(float(C[0, 0] * C[1, 1]))
    return ratio, math.sqrt(spread / (count - 1) / count) / abs(den), {
        "denominator": float(den), "denominator_se": den_se,
        "denominator_z": float(den) / den_se if den_se else math.inf,
        "correlation": float(C[0, 1]) / scale if scale else 0.0}


def _batch_size(loops_per_sample):
    '''Samples per batch for an expected loops_per_sample: as many as
    fit _BATCH_LOOPS loops, at least 1 and at most _BATCH_LOOPS.'''
    return max(1, math.floor(_BATCH_LOOPS / max(1.0, loops_per_sample)))


def _batched(draw, evaluate, loops_per_sample):
    '''A run_mc sample function in two phases per batch (_batch_size
    samples): draw(rng, m) makes all the draws of m samples, then
    evaluate(the draws) returns the m samples.'''
    def sample(rng, count):
        size = _batch_size(loops_per_sample)
        return np.concatenate([
            evaluate(draw(rng, min(size, count - lo)))
            for lo in range(0, count, size)])
    return sample


class _Tally:
    '''Work counts of an estimator's draw and compute phases; counting
    draws no random numbers.'''

    def __init__(self):
        self.loops = self.configs = self.killed = 0

    def draw_loops(self, intensity, rng, n):
        '''n loops of the intensity, loop i in configuration i of a
        LoopBatch.'''
        self.loops += n
        return intensity.draw_batch(rng, n)

    def boltzmann(self, spec, batch):
        '''e^{-V} of each configuration of a LoopBatch, from one kernel
        call; a killed configuration (V = +inf) gives 0.'''
        V = batch_interaction(batch, spec.params, spec.kind)
        self.configs += len(V)
        self.killed += int(np.count_nonzero(np.isinf(V)))
        return np.exp(-V)

    def metadata(self, n_samples):
        return {"loops_per_sample": self.loops / n_samples,
                "killed_frac": (self.killed / self.configs
                                if self.configs else 0.0)}


def _draw_background(intensity, rng, m, tally):
    '''The Poisson backgrounds of m samples: (loop counts, their loops in
    sample order, loop i in configuration i).'''
    sizes = rng.poisson(intensity.total_mass, m)
    return sizes, tally.draw_loops(intensity, rng, int(sizes.sum()))


def estimate_rel_partition(spec, n_samples, seed, workers=1):
    '''MC estimate of the relative partition function Z = E_Poisson[e^{-V}].'''
    if not np.isfinite(spec.intensity.total_mass):
        raise ValueError("loop intensity mass must be finite")
    tally = _Tally()

    def configs(rng, m):
        sizes, loops = _draw_background(spec.intensity, rng, m, tally)
        return LoopBatch.join(
            m, [(np.repeat(np.arange(m), sizes), loops, None)])

    sample = _batched(configs, lambda batch: tally.boltzmann(spec, batch),
                      spec.intensity.total_mass)
    mean, se, count = run_mc(sample, n_samples, seed, workers)
    meta = {"kind": spec.kind, "mass": spec.intensity.total_mass,
            "workers": workers}
    meta.update(spec.intensity.metadata)
    meta.update(tally.metadata(count))
    return McEstimate(mean, se, count, seed, meta)


class _OpenPaths:
    '''The law of the p open paths x_i -> y_pi(i) of a kernel sample,
    built once per estimate; draw gives m samples' open paths and
    weights, in units of unit = G(0)^p, so that p open paths from one
    site back to it have the weight p! exactly.

    G is the free kernel, with symbol g_xi = a_xi / (1 - a_xi) on the grid
    (a_xi = e^{-nu(kappa + lambda_xi)}) and 1 / (kappa + lambda_xi) in the
    continuum.  The permutation pi has probability prod_i G(y_pi(i) - x_i)
    / perm(G), over the p! rows of S_p.  A duration has law e^{-kappa T}
    psi^{L,T}(0) / G(0), the mixture over the modes xi, with weights g_xi,
    of nu Geometric(1 - a_xi) on the grid and Exp(kappa + lambda_xi) in the
    continuum: it needs no table and no rejection (a_xi: LoopIntensity.a).
    '''

    def __init__(self, intensity, xs, ys):
        torus, hk = intensity.torus, intensity.hk
        self.torus, self.hk = torus, hk
        # per mode, the geometric law's success probability (grid) or
        # the exponential law's rate (continuum)
        if intensity.kind == "ginibre":
            a = intensity.a
            symbol, self._param = a / (1.0 - a), 1.0 - a
            self._nu = intensity.nu
        else:
            self._param, self._nu = intensity.kappa + hk.rates, None
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

    def draw(self, rng, m):
        '''(end sites (m, p), durations (m, p), weights (m,) in units
        of unit) of m samples: m permutations, then m p modes, then m p
        durations.'''
        p = len(self.xs)
        row = pick(self._perm_cdf, rng, m)
        mode = pick(self._mode_cdf, rng, (m, p))
        if self._nu is not None:
            T = self._nu * rng.geometric(self._param[mode])
        else:
            T = rng.exponential(1.0 / self._param[mode])
        weight = self.scale[row]
        delta = self.delta[row]
        moved = delta != 0
        if moved.any():
            ratio = np.ones((m, p))
            ratio[moved] = self.hk.ratio_to_origin(
                T[moved], self.torus.coords[delta[moved]])
            weight = weight * ratio.prod(axis=1)
        return self.ends[row], T, weight


def estimate_gamma_p(spec, p, xs, ys, n_samples, seed, workers=1,
                     denom_samples=None):
    '''MC estimate of the kernel entry Gamma_p(x, y) via the relative
    open-path representation (p <= 4).  Each sample is the pair
    (weight e^{-V(open paths + background)}, e^{-V(background)}) on one
    Poisson background, its open paths drawn by _OpenPaths; the estimate
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
    tally = _Tally()

    def configs(rng, m):
        # configuration s < m: the open paths of sample s and its
        # background; configuration m + s: the background alone
        sizes, background = _draw_background(intensity, rng, m, tally)
        ends, T, weight = law.draw(rng, m)
        opens = bridges(spec.torus, np.tile(law.xs, m), T.ravel(), rng,
                        ends.ravel())
        owner = np.repeat(np.arange(m), sizes)
        return LoopBatch.join(2 * m, [
            (np.repeat(np.arange(m), p), opens, None),
            (owner, background, None), (owner + m, background, None)]), weight

    def evaluate(drawn):
        batch, weight = drawn
        boltzmann = tally.boltzmann(spec, batch).reshape(2, -1)
        return np.column_stack((weight * boltzmann[0], boltzmann[1]))

    sample = _batched(configs, evaluate, intensity.total_mass + p)
    mean, se, count, C = run_mc(sample, n_samples, seed, workers,
                                comoments=True)
    ratio, ratio_se, den = _paired_ratio(mean, se, C, count)
    meta = {"kind": spec.kind, "p": p, "x": xs, "y": ys, **den,
            "workers": workers}
    meta.update(tally.metadata(count))
    return McEstimate(float(law.unit * ratio), float(law.unit * ratio_se),
                      count, seed, meta)
