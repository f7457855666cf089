'''Poissonized Monte Carlo estimators for loop-ensemble partition
functions and correlation kernels (grid-duration and continuum ensembles).

Estimator identities:
  E_Poisson(m)[e^{-V}] = (sum_n (1/n!) int L^n e^{-V}) / e^m  (partition),
and for kernels the relative open-path form: each open path is drawn from
the intensity's open-path law (LoopIntensity.open_duration) and a free
walk, and the product of endpoint indicators times e^{-V(open paths +
Poisson background)} times the open-path normalizations is averaged; the
background expectation of e^{-V} (an independent stream) divides the
result.

Each worker chunk runs in batches and two phases: the draw phase makes
every random draw of the batch as arrays, and the compute phase
evaluates all configurations of the batch with one call of
interactions.batch_interaction.  A batch holds a budget of loops, not
of samples: with l the expected loops per sample, known before any draw
(the Poisson mass, plus the p R open paths of a kernel, R sets of p;
n for order n of the cluster expansion), it holds max(1,
floor(_BATCH_LOOPS / max(1, l))) samples.  Within a batch of B samples
the draws come in this order:
  - the B Poisson loop counts, then all their loops in one
    LoopIntensity.draw_batch call (durations, base sites, then exact
    bridges in one pass, paths.bridges);
  - for a kernel, then, per open path i in order, the B R open-path
    durations (open_duration) and one paths.walks call for the B R walks
    from x_i, in (sample, set) order, which keeps the walks that end on
    a y; a (sample, set) row carries a configuration when its p ends,
    sorted, are the sorted y's.
The batch size bounds the memory a chunk holds, since that memory
follows loops, not samples (the continuum residue table alone is loops
x M x L), and it is part of the stream: the draws of a batch are
grouped by kind, not by sample.

Determinism: a run is a pure function of (seed, workers).  Samples are
partitioned into per-worker chunks with rng streams spawned from the
master seed, and the per-worker moments are merged in worker order
(Welford), so results are bit-identical for a fixed worker count.
'''

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# v_total is unused here; perfbench's tests assert that loop_mc names it
from .interactions import batch_interaction, v_total
from .paths import LoopBatch, _segments, walks

# Expected loops per kernel call.  A chunk's memory follows its loops, so
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
    '''Merge per-worker (count, mean, M2) in order.'''
    count, mean, M2 = 0, 0.0, 0.0
    for c, m, m2 in parts:
        if c == 0:
            continue
        delta = m - mean
        tot = count + c
        mean += delta * c / tot
        M2 += m2 + delta * delta * count * c / tot
        count = tot
    return count, mean, M2


def run_mc(sample_fn, n_samples, seed, workers=1):
    '''Average the samples of sample_fn(rng, count) over n_samples with
    a deterministic reduction; the single reducer of every estimator.

    sample_fn returns count samples drawn from rng, with shape (count,)
    or (count, k), and must be a pure function of the rng stream.  Each
    worker chunk takes a two-pass mean and sum of squared deviations per
    column; the chunks are merged in worker order.  Returns (mean,
    std_error, count): floats for scalar samples, length-k arrays for
    vector samples.  Needs n_samples >= 2, so that the standard error
    is defined; ValueError otherwise.
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
        m2 = ((cols - m[:, None]) ** 2).sum(axis=1)
        parts.append((n_w, m[0], m2[0]) if scalar else (n_w, m, m2))
    count, mean, M2 = _welford_merge(parts)
    se = np.sqrt(M2 / (count - 1) / count)
    return (float(mean), float(se), count) if scalar else (mean, se, count)


def _ratio(num_mean, num_se, seed, denominator):
    '''(num / den, its delta-method SE, metadata) for den the McEstimate
    denominator(a seed derived from seed, an independent stream);
    ArithmeticError if den is within 3 SE of 0.'''
    den = denominator((int(seed) ^ 0x9E3779B97F4A7C15) % 2**63)
    if abs(den.mean) <= 3.0 * den.std_error:
        raise ArithmeticError("denominator estimate consistent with 0")
    ratio = num_mean / den.mean
    se = math.hypot(num_se, ratio * den.std_error) / abs(den.mean)
    return ratio, se, {"denominator": den.mean,
                       "denominator_se": den.std_error}


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


def estimate_gamma_p(spec, p, xs, ys, n_samples, seed, workers=1,
                     denom_samples=None):
    '''MC estimate of the kernel entry Gamma_p(x, y) via the relative
    open-path representation (p <= 4).  Each sample sums R = prod_s m_s!
    sets of p open paths, m_s the multiplicity of site s among the y's:
    a set whose ends, sorted, are the sorted y's is the paths x_i ->
    y_pi(i) of R of the pi in S_p, any other set of none.  The
    denominator takes denom_samples samples (None: n_samples).'''
    if p < 1 or p > 4:
        raise ValueError(f"p must be in 1..4, got {p}")
    if denom_samples is not None and denom_samples < 2:
        raise ValueError(f"denom_samples must be None or >= 2, got "
                         f"{denom_samples}")
    xs, ys = spec.torus.check_sites(p, xs, ys)
    intensity = spec.intensity
    n_sets = math.prod(map(math.factorial, Counter(ys).values()))
    norm_p = intensity.open_normalization ** p
    tally = _Tally()

    def configs(rng, m):
        # the configurations (open paths + background) of the (sample,
        # set) rows whose open paths end on the y's, in row order, and
        # the sample of each
        sizes, background = _draw_background(intensity, rng, m, tally)
        ends, opens = zip(*[
            walks(spec.torus, np.full(m * n_sets, x),
                  intensity.open_duration(rng, m * n_sets), rng, target=ys)
            for x in xs])
        hits = (np.sort(np.column_stack(ends), axis=1) == sorted(ys)).all(1)
        config = np.cumsum(hits) - 1
        parts = []
        for paths in opens:
            index = np.flatnonzero(hits[paths.config])
            parts.append((config[paths.config[index]], paths, index))
        sample_of = np.flatnonzero(hits) // n_sets
        index = _segments(np.concatenate(([0], np.cumsum(sizes))), sample_of)
        parts.append((np.repeat(np.arange(len(sample_of)), sizes[sample_of]),
                      background, index))
        return LoopBatch.join(len(sample_of), parts), sample_of, m

    def evaluate(drawn):
        batch, sample_of, m = drawn
        return norm_p * np.bincount(
            sample_of, weights=tally.boltzmann(spec, batch), minlength=m)

    sample = _batched(configs, evaluate, intensity.total_mass + p * n_sets)
    num_mean, num_se, count = run_mc(sample, n_samples, seed, workers)
    ratio, se, den = _ratio(num_mean, num_se, seed, lambda s: (
        estimate_rel_partition(spec, denom_samples or n_samples, s, workers)))
    se = se if num_mean else norm_p / math.sqrt(count)   # all-miss bound
    meta = {"kind": spec.kind, "p": p, "x": xs, "y": ys, **den,
            "workers": workers}
    meta.update(tally.metadata(count))
    return McEstimate(ratio, se, count, seed, meta)
