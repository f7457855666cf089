'''The four benchmark workloads, driven through loopgas's public API.

Each workload takes its physics from a shipped config under configs/.
Building a workload is its set-up (config parsing, tori, periodized
potentials, loop-intensity law tables, Gaussian fields); after that,
``request(seed)`` performs one closed-loop request and ``check(result)``
compares it with the frozen references.

The library is looked up through module attributes at call time
(``loop_mc.estimate_rel_partition``), so that the tracer in tracing.py
sees every call the benchmark makes.
'''

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from loopgas import (cli, cluster, field_oracle, interactions, largemass,
                     loop_mc, paths, perturbative, quantum_oracle)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Statistical checks run on hundreds of requests per benchmark session,
# so they use 5 sigma: a 3 sigma rule would flag correct code about once
# in every 370 requests.
N_SIGMA = 5.0
# Deterministic outputs must match their frozen values to the refactor
# tolerance of the ROADMAP.
DET_TOL = 1e-12


def load_config(name):
    return cli.ExperimentConfig.from_json(CONFIGS / name)


@dataclass
class Result:
    '''One request's outputs. ``value``/``se`` is the headline estimate
    (se = 0 for deterministic requests); ``outputs`` holds every number
    the request produced, in a fixed order.'''
    value: float
    se: float
    outputs: dict
    extra: dict = field(default_factory=dict)


def _refs(refs, name):
    '''The frozen references of one workload ({} while freezing them).'''
    return (refs or {}).get(name, {})


def _close(a, b, tol=DET_TOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


# -- Monte Carlo workloads -------------------------------------------------

class SymanzikZ:
    '''estimate_rel_partition on the continuum ensemble at eps = 0.02.'''

    name = "symanzik-z"
    cycle = 1
    open_target = None
    EPS = 0.02
    WORKERS = 2

    def __init__(self, refs, n_samples=200):
        cfg = load_config("symanzik_z.json")
        if self.EPS not in cfg.eps_list:
            raise ValueError(f"eps {self.EPS} not in symanzik_z.json")
        torus = cfg.torus()
        params = interactions.InteractionParams(
            torus=torus, vL=cfg.vL(torus), nu=1.0, lam=cfg.lam,
            mode="generic", kappa=cfg.kappa)
        intensity = paths.LoopIntensity(torus, "symanzik_eps", cfg.kappa,
                                        eps=self.EPS)
        self.spec = loop_mc.EnsembleSpec(torus, params, intensity,
                                         "symanzik_eps")
        self.n_samples = n_samples
        self.ref = _refs(refs, self.name).get("Z_eps")

    def request(self, seed):
        est = loop_mc.estimate_rel_partition(self.spec, self.n_samples, seed,
                                             self.WORKERS)
        return Result(est.mean, est.std_error, {"Z": est.mean,
                                                "Z_se": est.std_error})

    def check(self, res):
        return abs(res.value - self.ref["value"]) <= N_SIGMA * math.hypot(
            res.se, self.ref["se"])

    def pooled_check(self, mean, se, results):
        return abs(mean - self.ref["value"]) <= N_SIGMA * math.hypot(
            se, self.ref["se"])


class GinibreGamma:
    '''estimate_gamma_p, p = 1, (x, y) = (0, 0), on the grid ensemble.'''

    name = "ginibre-gamma"
    cycle = 1
    open_target = 0

    def __init__(self, refs, n_samples=1000):
        cfg = load_config("ginibre_z.json")
        nu = cfg.nu_list[0]
        torus = cfg.torus()
        params = interactions.InteractionParams(
            torus=torus, vL=cfg.vL(torus), nu=nu, lam=cfg.lam_for(nu),
            mode="generic", kappa=cfg.kappa)
        intensity = paths.LoopIntensity(torus, "ginibre", cfg.kappa, nu=nu)
        self.spec = loop_mc.EnsembleSpec(torus, params, intensity, "ginibre")
        self.n_samples = n_samples
        self.ref = _refs(refs, self.name)

    def request(self, seed):
        est = loop_mc.estimate_gamma_p(
            self.spec, 1, [self.open_target], [self.open_target],
            self.n_samples, seed, workers=1, denom_samples=self.n_samples)
        meta = est.metadata
        return Result(est.mean, est.std_error,
                      {"gamma": est.mean, "gamma_se": est.std_error,
                       "denominator": meta["denominator"],
                       "denominator_se": meta["denominator_se"]})

    def check(self, res):
        out = res.outputs
        return (abs(res.value - self.ref["gamma1_00"]["value"])
                <= N_SIGMA * res.se
                and abs(out["denominator"] - self.ref["Z_rel"]["value"])
                <= N_SIGMA * out["denominator_se"])

    def pooled_check(self, mean, se, results):
        return abs(mean - self.ref["gamma1_00"]["value"]) <= N_SIGMA * se


class ClusterLogZ:
    '''cluster.log_Z_via_expansion, n_max from cluster_logz.json.'''

    name = "cluster-logz"
    cycle = 1
    open_target = None

    def __init__(self, refs, n_samples=500):
        cfg = load_config("cluster_logz.json")
        if cfg.lambda_rule != "nu_squared":
            raise ValueError("cluster_logz.json must use lambda_rule nu_squared")
        nu = cfg.nu_list[0]
        torus = cfg.torus()
        params = interactions.InteractionParams(
            torus=torus, vL=cfg.vL(torus), nu=nu, mode="meanfield",
            kappa=cfg.kappa)
        intensity = paths.LoopIntensity(torus, "ginibre", cfg.kappa, nu=nu)
        self.spec = loop_mc.EnsembleSpec(torus, params, intensity, "ginibre")
        self.n_max = cfg.n_max
        self.n_samples = n_samples
        self.ref = _refs(refs, self.name).get("log_Z")

    def request(self, seed):
        rep = cluster.log_Z_via_expansion(self.spec, self.n_max,
                                          self.n_samples, seed, workers=1)
        return Result(rep["log_Z"], rep["log_Z_se"],
                      {"log_Z": rep["log_Z"], "log_Z_se": rep["log_Z_se"],
                       "remainder": rep["remainder"]},
                      {"ess": list(rep["ess"])})

    def check(self, res):
        slack = N_SIGMA * res.se + abs(res.outputs["remainder"])
        ess_ok = all(e >= 0.5 * self.n_samples for e in res.extra["ess"])
        return abs(res.value - self.ref["value"]) <= slack and ess_ok

    def pooled_check(self, mean, se, results):
        rem = max(abs(r.outputs["remainder"]) for r in results)
        return abs(mean - self.ref["value"]) <= N_SIGMA * se + rem


# -- deterministic oracle sweep --------------------------------------------

class OracleSweep:
    '''Exact oracle convergence points with their limits.

    Large-mass points (L = 3, both shipped large-mass configs, each nu):
    grand_partition Z_rel and reduced_density_matrix Gamma_1; the
    infinite-mass limit of each config (largemass occupation sums) is one
    more request.  Mean-field points (physics of
    meanfield_single_site.json on L = 2): the same two oracle outputs;
    the classical limit (field_oracle, at the config's seed and sample
    count) is one more request.  Volume points (volume_sweep.json):
    first-order Gamma_1 and g from perturbative for every (nu, L).  As in
    the command-line sweeps, a limit is computed once per config, not once
    per nu.

    One request is one point; a run covers whole cycles over all points.
    '''

    name = "oracle-sweep"
    open_target = None
    MEANFIELD_L = 2
    MEANFIELD_NUS = (0.5, 0.25)

    def __init__(self, refs, labels=None):
        self.points = []
        for cfg_name in ("largemass_soft.json", "largemass_hardcore.json"):
            self._add_largemass(load_config(cfg_name), cfg_name)
        self._add_meanfield(load_config("meanfield_single_site.json"))
        self._add_volume(load_config("volume_sweep.json"))
        if labels is not None:
            self.points = [p for p in self.points if p[0] in labels]
        self.cycle = len(self.points)
        self.frozen = _refs(refs, self.name).get("points", {})

    def _add_largemass(self, cfg, cfg_name):
        torus = cfg.torus()
        vL = cfg.vL(torus)
        lm = largemass.LmParams(torus=torus, potential=cfg.potential,
                                kappa0=cfg.kappa0, tol=1e-12)
        prefix = cfg_name.removesuffix(".json")
        self.points.append((f"{prefix}/limit", self._largemass_limit, (lm,)))
        for nu in cfg.nu_list:
            params = interactions.InteractionParams(
                torus=torus, vL=vL, nu=nu, mode="largemass",
                R=cfg.potential.R, kappa0=cfg.kappa0)
            self.points.append((f"{prefix}/nu={nu}", self._largemass_point,
                                (params,)))

    def _add_meanfield(self, cfg):
        torus = cfg.torus(self.MEANFIELD_L)
        vL = cfg.vL(torus)
        gf = field_oracle.GaussianField(torus, cfg.kappa)
        prefix = f"meanfield/L={self.MEANFIELD_L}"
        self.points.append((f"{prefix}/classical", self._classical_limit,
                            (gf, vL, cfg)))
        for nu in self.MEANFIELD_NUS:
            params = interactions.InteractionParams(
                torus=torus, vL=vL, nu=nu, mode="meanfield", kappa=cfg.kappa)
            self.points.append((f"{prefix}/nu={nu}", self._meanfield_point,
                                (params, cfg.kappa)))

    def _add_volume(self, cfg):
        for nu in cfg.nu_list:
            for L in cfg.L_list:
                torus = cfg.torus(L)
                label = f"volume/nu={nu}/L={L}"
                self.points.append((label, self._volume_point,
                                    (torus, cfg.vL(torus), nu, cfg.kappa,
                                     cfg.lam_for(nu))))

    @staticmethod
    def _largemass_limit(lm):
        # Gamma_1^lm is diagonal and translation invariant: one entry
        return {"Z_lm": largemass.z_lm(lm)["relative"],
                "gamma1_lm_00": largemass.gamma_lm(lm, 1, [0], [0])}

    @staticmethod
    def _largemass_point(params):
        res = quantum_oracle.grand_partition(params, kappa=params.kappa)
        K = quantum_oracle.reduced_density_matrix(params, 1, params.kappa)
        return {"Z_rel": res.Z_rel, "gamma1": K.ravel().tolist()}

    @staticmethod
    def _classical_limit(gf, vL, cfg):
        z_cl = field_oracle.estimate_Zcl(gf, vL, cfg.n_samples, cfg.seed)
        g_cl = field_oracle.estimate_gamma_cl(gf, vL, 1, [0], [0],
                                              cfg.n_samples, cfg.seed)
        return {"Z_cl": z_cl.mean, "gamma1_cl_00": g_cl.mean}

    @staticmethod
    def _meanfield_point(params, kappa):
        # the n_cap rule of the command-line mean-field sweep
        n_cap = max(250, int(40.0 / (kappa * params.nu)) + 50)
        res = quantum_oracle.grand_partition(params, kappa=kappa, n_cap=n_cap)
        K = quantum_oracle.reduced_density_matrix(params, 1, kappa,
                                                  n_cap=n_cap)
        return {"Z_rel": res.Z_rel, "gamma1": K.ravel().tolist()}

    @staticmethod
    def _volume_point(torus, vL, nu, kappa, lam):
        G = perturbative.gamma1_first_order(torus, nu, kappa, vL, lam)
        g = perturbative.gibbs_potential_first_order(torus, nu, kappa, vL,
                                                     lam)
        return {"gamma1": G.ravel().tolist(), "g": g}

    def request(self, seed):
        label, fn, args = self.points[seed % self.cycle]
        out = fn(*args)
        first = np.ravel(next(iter(out.values())))[0]
        return Result(float(first), 0.0, out, {"label": label})

    def check(self, res):
        frozen = self.frozen.get(res.extra["label"])
        return frozen is not None and frozen.keys() == res.outputs.keys() and all(
            _close(res.outputs[k], frozen[k]) for k in frozen)

    def pooled_check(self, mean, se, results):
        return True


WORKLOADS = {cls.name: cls for cls in (SymanzikZ, GinibreGamma, ClusterLogZ,
                                       OracleSweep)}

# Request sizes for the benchmark's own smoke tests.
TINY = {"symanzik-z": {"n_samples": 10},
        "ginibre-gamma": {"n_samples": 60},
        "cluster-logz": {"n_samples": 30},
        "oracle-sweep": {"labels": ("largemass_hardcore/limit",
                                    "largemass_hardcore/nu=0.2",
                                    "meanfield/L=2/classical",
                                    "meanfield/L=2/nu=0.5",
                                    "volume/nu=0.25/L=4")}}


def build(name, refs, tiny=False):
    return WORKLOADS[name](refs, **(TINY[name] if tiny else {}))


def offgrid_probe(base_seed, n_requests=20):
    '''The ROADMAP's off-grid reproduction: 20-sample grid-ensemble Z
    requests at the non-dyadic nu = 0.1 (physics of ginibre_z.json on an
    L = 4 torus).  Returns (failed, attempted, error type names).'''
    nu, L, n_samples = 0.1, 4, 20
    cfg = load_config("ginibre_z.json")
    torus = cfg.torus(L)
    params = interactions.InteractionParams(
        torus=torus, vL=cfg.vL(torus), nu=nu, lam=cfg.lam_for(nu),
        mode="generic", kappa=cfg.kappa)
    intensity = paths.LoopIntensity(torus, "ginibre", cfg.kappa, nu=nu)
    spec = loop_mc.EnsembleSpec(torus, params, intensity, "ginibre")
    errors = []
    for i in range(n_requests):
        try:
            loop_mc.estimate_rel_partition(spec, n_samples, base_seed + i)
        except Exception as exc:  # the probe records every failure kind
            errors.append(type(exc).__name__)
    return len(errors), n_requests, sorted(set(errors))
