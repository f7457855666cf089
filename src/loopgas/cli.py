'''Experiment orchestration: JSON configs, seeded deterministic runs,
convergence sweeps (mean-field, large-mass, finite-volume stability),
single-quantity estimators, a self-test suite, and CSV/JSON emission.

Subcommands: selftest, meanfield, largemass, volume, heatkernel,
cluster-logz, ginibre-z, symanzik-z.  Each takes --config <path>
--out <dir> --seed <u64> --workers <n>; command-line values override
the config.  CSV headers are fixed and documented in the README.
'''

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path as FsPath

import numpy as np
import jsonschema

from . import cluster, field_oracle, largemass, perturbative, quantum_oracle
from .interactions import InteractionParams
from .lattice import (PotentialSpec, Torus, check_positive_type,
                      heat_kernel_images, periodize_potential)
from .loop_mc import EnsembleSpec, estimate_gamma_p, estimate_rel_partition
from .paths import LoopIntensity
from .quantum_oracle import feynman_kac_check, grand_sum, oracle_size

# The mean-field sweep runs the exact oracle while its largest momentum
# sector fits quantum_oracle.MAX_SECTOR_DIM and its diagonalizations,
# summed over the sweep, stay within this many dim^3 (tens of seconds of
# eigh).
ORACLE_EIGH_BUDGET = 10 ** 11


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    d: int
    L: int = None
    L_list: list = None
    potential: PotentialSpec = None
    nu_list: list = field(default_factory=list)
    kappa: float = None
    kappa0: float = None
    lambda_rule: str = None
    lam: float = None
    eps_list: list = field(default_factory=list)
    t_list: list = field(default_factory=list)
    p: int = 1
    x: list = None
    y: list = None
    n_samples: int = 20000
    n_max: int = 3
    L0: int = 4
    v_l1_threshold: float = 0.1
    seed: int = 0
    workers: int = 1
    out: str = "."

    @classmethod
    def from_json(cls, path):
        doc = _read_json(path, "config")
        if isinstance(doc, dict) and isinstance(doc.get("potential"), str):
            doc["potential"] = _read_json(
                FsPath(path).parent / doc["potential"], "potential file")
        try:
            _validator().validate(doc)
        except jsonschema.ValidationError as exc:
            where = "/".join(map(str, exc.absolute_path))
            raise ConfigError(f"config schema violation"
                              f"{' at ' + where if where else ''}: "
                              f"{exc.message}")
        pot = doc.get("potential")
        if pot is not None:
            try:
                pot = PotentialSpec.from_json(pot)
            except (ArithmeticError, ValueError) as exc:
                raise ConfigError(f"bad potential: {exc}")
        kw = {("lam" if key == "lambda" else key): val
              for key, val in doc.items()
              if key not in ("torus", "potential", "nu", "eps")}
        for one, many in (("nu", "nu_list"), ("eps", "eps_list")):
            if one in doc:
                if many in doc:
                    raise ConfigError(f"set {one!r} or {many!r}, not both")
                kw[many] = [doc[one]]
        return cls(**kw, **doc["torus"], potential=pot)

    def require(self, *names):
        for name in names:
            if getattr(self, name) in (None, [], {}):
                raise ConfigError(
                    f"experiment {self.experiment!r} needs {name!r}")

    def torus(self, L=None):
        L = L if L is not None else self.L
        if L is None:
            raise ConfigError("torus.L (or torus.L_list) is required")
        return Torus(d=self.d, L=L)

    def vL(self, torus):
        self.require("potential")
        if self.potential.d != self.d:
            raise ConfigError("potential dimension does not match torus")
        return periodize_potential(self.potential, torus.L)

    def lam_for(self, nu):
        if self.lambda_rule == "nu_squared":
            return nu * nu
        if self.lambda_rule == "one":
            return 1.0
        if self.lambda_rule == "explicit":
            self.require("lam")
            return self.lam
        raise ConfigError("lambda_rule must be set")


def _finite(literal):
    '''A JSON number as a float; ValueError for NaN, +-Infinity and
    literals that overflow, which no schema bound can refuse.'''
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal}")
    return value


def _read_json(path, what):
    try:
        return json.loads(FsPath(path).read_text(), parse_constant=_finite,
                          parse_float=_finite)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")


@functools.cache
def _validator():
    '''The validator of the bundled config schema, built once.'''
    return jsonschema.Draft202012Validator(json.loads(
        resources.files("loopgas.schemas")
        .joinpath("experiment.schema.json").read_text()))


def _override(config, name, value):
    '''Set a command-line override after checking it against the schema.'''
    validator = _validator()
    try:
        validator.evolve(schema=validator.schema["properties"][name]
                         ).validate(value)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"--{name}: {exc.message}")
    setattr(config, name, value)


def _out_file(out_dir, name):
    '''The path of an output file, its directory made if missing.'''
    out_dir = FsPath(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_csv(out_dir, name, header, rows):
    with open(_out_file(out_dir, name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(out_dir, name, doc):
    _out_file(out_dir, name).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fit_order(nus, diffs):
    '''Least-squares slope of log|diff| vs log nu, with R^2.'''
    x = np.log(np.asarray(nus, dtype=float))
    y = np.log(np.asarray(diffs, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def _meanfield_n_cap(kappa, nu):
    return max(250, int(40.0 / (kappa * nu)) + 50)


def _use_oracle(params_list, kappa, p):
    '''Whether the exact oracle fits a mean-field sweep of Gamma_p over
    params_list, and its size: the largest sector and the summed dim^3 of
    the diagonalizations over the sweep, counted without building a
    block.'''
    sizes = [oracle_size(params, kappa,
                         n_cap=_meanfield_n_cap(kappa, params.nu), p=p)
             for params in params_list]
    size = {"max_sector_dim": max(s["max_sector_dim"] for s in sizes),
            "eigh_dim3": sum(s["eigh_dim3"] for s in sizes)}
    return (size["max_sector_dim"] <= quantum_oracle.MAX_SECTOR_DIM
            and size["eigh_dim3"] <= ORACLE_EIGH_BUDGET), size


def _pass_record(nu, res):
    '''Where one grand sum stopped: its last block, free tail bound, last
    diagonalized block and largest sector.'''
    return {"nu": nu, "n_max": res.n_max, "tail_bound": res.tail_bound,
            "n_diag": res.metadata["n_diag"],
            "max_sector_dim": res.metadata["max_sector_dim"]}


# -- sweeps ------------------------------------------------------------------

def run_meanfield_sweep(config):
    '''Mean-field convergence: for each nu, nu^p Gamma_p^{nu,kappa,nu^2}
    and Z^{nu} against the classical targets; emits the tables and the
    fitted convergence order in nu.'''
    if config.lambda_rule != "nu_squared":
        raise ConfigError("mean-field sweep requires lambda_rule nu_squared")
    config.require("kappa", "nu_list")
    torus = config.torus()
    vL = config.vL(torus)
    kappa, p = config.kappa, config.p
    xs, ys = torus.check_sites(
        p, [0] * p if config.x is None else config.x,
        [0] * p if config.y is None else config.y)
    params_list = [InteractionParams(torus=torus, vL=vL, nu=nu,
                                     mode="meanfield", R=config.potential.R,
                                     kappa=kappa) for nu in config.nu_list]
    # the classical side first: a hard core fails it before any output
    if torus.n_sites == 1:
        z_cl, g_cl = field_oracle.quadrature_single_site(
            kappa, float(vL[0]), p)
        z_cl_se = g_cl_se = 0.0
    else:
        gf = field_oracle.GaussianField(torus, kappa)
        z_est = field_oracle.estimate_Zcl(gf, vL, config.n_samples,
                                          config.seed, config.workers)
        g_est = field_oracle.estimate_gamma_cl(gf, vL, p, xs, ys,
                                               config.n_samples, config.seed,
                                               config.workers)
        z_cl, z_cl_se = z_est.mean, z_est.std_error
        g_cl, g_cl_se = g_est.mean, g_est.std_error
    use_oracle, size = _use_oracle(params_list, kappa, p)
    chooser = "quantum_oracle" if use_oracle else "loop_mc"
    print(f"meanfield: quantum side via {chooser} (largest sector "
          f"{size['max_sector_dim']}, sum of dim^3 {size['eigh_dim3']:.3g})",
          file=sys.stderr)

    gamma_rows, z_rows, passes = [], [], []
    for i, (nu, params) in enumerate(zip(config.nu_list, params_list)):
        if use_oracle:
            res, K = grand_sum(params, p, kappa,
                               n_cap=_meanfield_n_cap(kappa, nu))
            passes.append(_pass_record(nu, res))
            z_q, z_q_se = res.Z_rel, 0.0
            xi = int(np.ravel_multi_index(xs, (torus.n_sites,) * p))
            yi = int(np.ravel_multi_index(ys, (torus.n_sites,) * p))
            g_q, g_q_se = nu ** p * K[xi, yi], 0.0
        else:
            intensity = LoopIntensity(torus, "ginibre", kappa, nu=nu)
            spec = EnsembleSpec(torus, params, intensity, "ginibre")
            z_est = estimate_rel_partition(spec, config.n_samples,
                                           config.seed + i, config.workers)
            g_est = estimate_gamma_p(spec, p, xs, ys, config.n_samples,
                                     config.seed + i, config.workers)
            z_q, z_q_se = z_est.mean, z_est.std_error
            g_q, g_q_se = nu ** p * g_est.mean, nu ** p * g_est.std_error
        gamma_rows.append([nu, p, " ".join(map(str, xs)),
                           " ".join(map(str, ys)), g_q, g_q_se, g_cl, g_cl_se,
                           abs(g_q - g_cl)])
        z_rows.append([nu, z_q, z_q_se, z_cl, z_cl_se, abs(z_q - z_cl)])

    gamma_header = ["nu", "p", "x", "y", "quantum", "quantum_stderr",
                    "classical", "classical_stderr", "abs_diff"]
    z_header = ["nu", "z_quantum", "z_quantum_stderr", "z_classical",
                "z_classical_stderr", "abs_diff"]
    _write_csv(config.out, "meanfield_gamma.csv", gamma_header, gamma_rows)
    _write_csv(config.out, "meanfield_z.csv", z_header, z_rows)
    fit = {}
    for name, rows in (("gamma", gamma_rows), ("z", z_rows)):
        diffs = [r[-1] for r in rows]
        if len(diffs) >= 2 and all(dv > 0 for dv in diffs):
            slope, r2 = _fit_order(config.nu_list, diffs)
            fit[name] = {"order": slope, "r_squared": r2}
    _write_json(config.out, "meanfield_fit.json",
                {"fit": fit, "chooser": chooser, "oracle_size": size,
                 "oracle": passes, "seed": config.seed,
                 "workers": config.workers})
    return {"gamma_rows": gamma_rows, "z_rows": z_rows, "fit": fit}


def run_largemass_sweep(config):
    '''Large-mass convergence: for each nu, Gamma_p^{nu,kappa0/nu,1} from
    the exact oracle against the infinite-mass kernel, plus the relative
    partition functions.'''
    if config.lambda_rule != "one":
        raise ConfigError("large-mass sweep requires lambda_rule one")
    config.require("kappa0", "nu_list")
    torus = config.torus()
    vL = config.vL(torus)
    R = config.potential.R
    lm_params = largemass.LmParams(torus=torus, potential=config.potential,
                                   kappa0=config.kappa0, tol=1e-12)
    K_lm = largemass.gamma_lm_matrix(lm_params)
    z_lm_val = largemass.z_lm(lm_params)["relative"]
    gamma_rows, z_rows, passes = [], [], []
    for nu in config.nu_list:
        params = InteractionParams(torus=torus, vL=vL, nu=nu,
                                   mode="largemass", R=R,
                                   kappa0=config.kappa0)
        res, K = grand_sum(params, 1, params.kappa)
        passes.append(_pass_record(nu, res))
        for x in range(torus.n_sites):
            for y in range(torus.n_sites):
                gamma_rows.append([nu, x, y, K[x, y], K_lm[x, y],
                                   abs(K[x, y] - K_lm[x, y])])
        z_rows.append([nu, res.Z_rel, z_lm_val, abs(res.Z_rel - z_lm_val)])
    _write_csv(config.out, "largemass_gamma.csv",
               ["nu", "x", "y", "quantum", "lm", "abs_diff"], gamma_rows)
    _write_csv(config.out, "largemass_z.csv",
               ["nu", "z_quantum", "z_lm", "abs_diff"], z_rows)
    _write_json(config.out, "largemass_meta.json",
                {"R": R, "kappa0": config.kappa0, "oracle": passes,
                 "seed": config.seed, "workers": config.workers})
    return {"gamma_rows": gamma_rows, "z_rows": z_rows}


def run_volume_sweep(config):
    '''Finite-volume stability: Gamma_1 (restricted to the centered
    L0-box) and g across increasing L at fixed small nu, via the
    deterministic first-order engine; emits successive differences and
    the Cauchy verdict.'''
    config.require("kappa", "nu_list", "L_list")
    if any(lo >= hi for lo, hi in zip(config.L_list, config.L_list[1:])):
        raise ConfigError("L_list must be strictly increasing")
    if config.lambda_rule is None:
        config.lambda_rule = "nu_squared"
    v_l1 = config.potential.l1_norm if config.potential else 0.0
    if v_l1 > config.v_l1_threshold:
        print(f"warning: ||v||_1 = {v_l1:.4f} exceeds the smallness "
              f"threshold {config.v_l1_threshold}", file=sys.stderr)
    g_rows, diff_rows, verdicts = [], [], []
    for nu in config.nu_list:
        lam = config.lam_for(nu)
        blocks, gs = {}, {}
        for L in config.L_list:
            torus = config.torus(L)
            vL = config.vL(torus)
            G = perturbative.gamma1_first_order(torus, nu, config.kappa,
                                               vL, lam)
            # the centered L0-box, indexed by offsets common to all L
            box = torus.centered_box(config.L0)
            blocks[L] = G[np.ix_(box, box)]
            gs[L] = perturbative.gibbs_potential_first_order(
                torus, nu, config.kappa, vL, lam)
            g_rows.append([nu, L, gs[L]])
        diffs = []
        for lo, hi in zip(config.L_list, config.L_list[1:]):
            gamma_diff = float(np.abs(blocks[lo] - blocks[hi])
                               .sum(axis=1).max())
            g_diff = abs(gs[lo] - gs[hi])
            diffs.append((gamma_diff, g_diff))
            diff_rows.append([nu, lo, hi, gamma_diff, g_diff])
        # no verdict (null) without two successive differences to compare
        pairs = list(zip(diffs, diffs[1:]))
        cauchy = (all(b[0] < a[0] and b[1] < a[1] for a, b in pairs)
                  if pairs else None)
        verdicts.append({"nu": nu, "cauchy": cauchy})
    _write_csv(config.out, "volume_g.csv", ["nu", "L", "g"], g_rows)
    _write_csv(config.out, "volume_diffs.csv",
               ["nu", "L_lo", "L_hi", "gamma_block_diff_norm", "g_abs_diff"],
               diff_rows)
    _write_json(config.out, "volume_meta.json",
                {"L0": config.L0, "v_l1": v_l1, "verdicts": verdicts,
                 "engine": "first_order", "seed": config.seed})
    return {"g_rows": g_rows, "diff_rows": diff_rows, "verdicts": verdicts}


def run_heatkernel(config):
    '''Tabulate the periodic heat kernel against the periodized
    infinite-lattice kernel for the configured times: a product over the
    coordinates of 1D image sums (heat_kernel_images).'''
    config.require("t_list")
    torus = config.torus()
    rows = []
    for t in config.t_list:
        table = torus.heat_kernel(t)
        images = heat_kernel_images(t, torus.L)
        for site in range(torus.n_sites):
            xvec = torus.centered(torus.coords[site])
            inf_val = float(np.prod(images[torus.coords[site]]))
            rows.append([t, " ".join(map(str, xvec)),
                         float(table.ravel()[site]), inf_val,
                         abs(float(table.ravel()[site]) - inf_val)])
    _write_csv(config.out, "heatkernel.csv",
               ["t", "x", "psi_L", "psi_periodized", "abs_gap"], rows)
    return {"rows": rows}


def _grid_ensemble(config):
    '''The grid ensemble at the experiment's one nu (ConfigError for a
    longer nu_list).'''
    config.require("kappa", "nu_list")
    if len(config.nu_list) > 1:
        raise ConfigError(f"experiment {config.experiment!r} takes one nu, "
                          f"got nu_list {config.nu_list}")
    nu, = config.nu_list
    torus = config.torus()
    vL = config.vL(torus)
    mode = "meanfield" if config.lambda_rule == "nu_squared" else "generic"
    params = InteractionParams(torus=torus, vL=vL, nu=nu, mode=mode,
                               lam=None if mode == "meanfield"
                               else config.lam_for(nu), R=config.potential.R,
                               kappa=config.kappa)
    intensity = LoopIntensity(torus, "ginibre", config.kappa, nu=nu)
    return EnsembleSpec(torus, params, intensity, "ginibre")


def run_cluster_logz(config):
    '''Truncated expansion estimate of log Z with per-order terms.'''
    spec = _grid_ensemble(config)
    report = cluster.log_Z_via_expansion(spec, config.n_max,
                                         config.n_samples, config.seed,
                                         config.workers)
    _write_csv(config.out, "cluster_logz.csv",
               ["order", "mean", "std_error", "tree_bound_remainder"],
               cluster.expansion_csv_rows(report))
    _write_json(config.out, "cluster_logz.json",
                {"log_Z": report["log_Z"], "log_Z_se": report["log_Z_se"],
                 "X0": report["X0"], "remainder": report["remainder"],
                 **{key: report[key] for key in (
                     "one_window", "drawn_share", "plain_means",
                     "plain_std_errors", "variance_ratios", "controls",
                     "ess")},
                 "seed": config.seed, "workers": config.workers})
    return report


def run_ginibre_z(config):
    '''MC estimate of the grid-ensemble relative partition function.'''
    spec = _grid_ensemble(config)
    est = estimate_rel_partition(spec, config.n_samples, config.seed,
                                 config.workers)
    _write_csv(config.out, "ginibre_z.csv",
               ["mean", "std_error", "n_samples", "seed"], [est.csv_row()])
    _write_json(config.out, "ginibre_z.json", est.to_dict())
    return est


def run_symanzik_z(config):
    '''MC estimate of the eps-regularized continuum-ensemble partition
    function.  lambda_rule "one" or "explicit" sets lam as in the grid
    experiments; with no rule, lam is lambda, 1 when unset.  The
    continuum ensemble has no nu, so "nu_squared" is refused.'''
    config.require("kappa", "eps_list")
    if config.lambda_rule == "nu_squared":
        raise ConfigError("symanzik-z has no nu: lambda_rule must be "
                          "'one' or 'explicit'")
    torus = config.torus()
    vL = config.vL(torus)
    lam = (config.lam_for(None) if config.lambda_rule
           else config.lam if config.lam is not None else 1.0)
    ests = []
    for eps in config.eps_list:
        params = InteractionParams(torus=torus, vL=vL, nu=1.0, lam=lam,
                                   mode="generic", R=config.potential.R,
                                   kappa=config.kappa)
        intensity = LoopIntensity(torus, "symanzik_eps", config.kappa,
                                  eps=eps)
        spec = EnsembleSpec(torus, params, intensity, "symanzik_eps")
        est = estimate_rel_partition(spec, config.n_samples, config.seed,
                                     config.workers)
        ests.append((eps, est))
    _write_csv(config.out, "symanzik_z.csv",
               ["eps", "mean", "std_error", "n_samples", "seed"],
               [[eps] + est.csv_row() for eps, est in ests])
    _write_json(config.out, "symanzik_z.json",
                {str(eps): est.to_dict() for eps, est in ests})
    return ests


# -- self test ---------------------------------------------------------------

def run_selftest(config):
    '''Fixed-seed invariant suite across every module; prints a
    module-by-module report and returns the number of failures.'''
    rng_seed = config.seed
    results = []

    def record(name, ok, detail=""):
        results.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")

    torus = Torus(d=1, L=3)
    table = torus.heat_kernel(0.7)
    ok = (table.min() >= 0 and table.max() <= 1
          and abs(table.sum() - 1.0) < 1e-12)
    two_step = sum(torus.heat_kernel(0.3).ravel()[torus.diff_table[:, 0]]
                   * torus.heat_kernel(0.4).ravel()[torus.diff_table[0, :]])
    record("lattice.heat_kernel", ok and abs(two_step - table.ravel()[0]) < 1e-10)

    vspec = PotentialSpec(d=1, R=0, entries={(0,): 0.3, (1,): 0.1, (-1,): 0.1})
    vL = periodize_potential(vspec, 3)
    pos, _ = check_positive_type(vL, torus)
    record("lattice.positive_type", pos)

    f = np.array([0.4, -0.3, 0.2])
    hs = field_oracle.hubbard_stratonovich_check(vL, torus, f, 20000, rng_seed)
    record("field_oracle.hubbard_stratonovich", hs["pass"],
           f"z={hs['z']:.2f}")
    gf = field_oracle.GaussianField(torus, 1.0)
    ci = field_oracle.correlation_inequality_check(
        gf, vL, [0.0, 0.5, 1.0], 1, [0], [1], 20000, rng_seed + 1)
    record("field_oracle.correlation_inequality", ci["pass"])

    rng = np.random.default_rng(rng_seed)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 6))
        V = rng.exponential(1.0, (n, n))
        V = V + V.T
        np.fill_diagonal(V, 0.0)
        rep = cluster.tree_bound_check(np.exp(-0.5 * V) - 1.0)
        ok = ok and rep["bound_ok"]
    record("cluster.tree_bound", ok)
    # Penrose's tree sum at zeta = x (J - I) counts the 38 connected graphs
    # on 4 vertices by edge count: 16 with 3 edges, 15 with 4, 6 with 5
    # and 1 with 6
    record("cluster.kruskal_bracket", all(math.isclose(
        24 * cluster.ursell(x * (np.ones((4, 4)) - np.eye(4))),
        16 * x ** 3 + 15 * x ** 4 + 6 * x ** 5 + x ** 6, rel_tol=1e-12)
        for x in (0.3, -0.7)))
    # Kirchhoff's determinant on the complete graph is Cayley's count
    record("cluster.tree_counts",
           math.isclose(720 * cluster.tree_sum(np.ones((6, 6)) - np.eye(6)),
                        6 ** 4, rel_tol=1e-12)
           and len(cluster._penrose_table(6)[1]) == 6 ** 4)

    fk = feynman_kac_check(Torus(d=1, L=4),
                           np.random.default_rng(rng_seed).uniform(0, 1, 4),
                           1.0, 4000, rng_seed + 2)
    record("quantum_oracle.feynman_kac", fk["pass"], f"max_z={fk['max_z']:.2f}")

    hc = PotentialSpec(d=1, R=1, entries={})
    lmp = largemass.LmParams(torus=torus, potential=hc, kappa0=1.0)
    a = math.exp(-1.0)
    record("largemass.closed_forms",
           abs(largemass.z_lm(lmp)["relative"] - (1 - a * a) ** 3) < 1e-10
           and abs(largemass.gamma_lm(lmp, 1, [0], [0]) - a / (1 + a)) < 1e-10)

    params = InteractionParams(torus=torus, vL=np.zeros(3), nu=0.5,
                               mode="meanfield", kappa=1.5)
    intensity = LoopIntensity(torus, "ginibre", 1.5, nu=0.5)
    spec = EnsembleSpec(torus, params, intensity, "ginibre")
    z0 = estimate_rel_partition(spec, 200, rng_seed + 3)
    record("loop_mc.free_partition", abs(z0.mean - 1.0) < 1e-12)
    # Gamma_free(u) = sum_k e^{-kappa nu k} psi^{nu k}(u), cut at k = 60;
    # 0 <= psi <= 1 bounds the tail by e^{-61 kappa nu}/(1 - e^{-kappa nu})
    loops = sum(math.exp(-0.75 * k) * torus.heat_kernel(0.5 * k)
                for k in range(1, 61))[torus.diff_table]
    pert = perturbative.gamma1_first_order(torus, 0.5, 1.5, np.zeros(3), 0.25)
    record("perturbative.free_limit", np.abs(loops - pert).max() < 1e-12)

    failures = sum(1 for _, ok in results if not ok)
    print(f"selftest: {len(results) - failures}/{len(results)} passed")
    return failures


# -- entry point -------------------------------------------------------------

RUNNERS = {
    "selftest": run_selftest,
    "meanfield": run_meanfield_sweep,
    "largemass": run_largemass_sweep,
    "volume": run_volume_sweep,
    "heatkernel": run_heatkernel,
    "cluster-logz": run_cluster_logz,
    "ginibre-z": run_ginibre_z,
    "symanzik-z": run_symanzik_z,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="loopgas",
        description="random-loop representations of lattice gases: "
                    "sweeps, estimators, and self tests")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        if args.config:
            config = ExperimentConfig.from_json(args.config)
            if config.experiment != args.command:
                raise ConfigError(
                    f"config is for {config.experiment!r}, "
                    f"not {args.command!r}")
        else:
            if args.command != "selftest":
                raise ConfigError(f"{args.command} requires --config")
            config = ExperimentConfig(experiment=args.command, d=1, L=3)
        if args.out is not None:
            config.out = args.out
        if args.seed is not None:
            _override(config, "seed", args.seed)
        if args.workers is not None:
            _override(config, "workers", args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        result = RUNNERS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError, RuntimeError, ValueError) as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    if args.command == "selftest":
        return 1 if result else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
