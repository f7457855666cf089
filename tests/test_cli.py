'''Command-line interface: config validation, experiment outputs,
deterministic reruns.'''

import csv
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from loopgas import cli, quantum_oracle
from loopgas.cli import ConfigError, ExperimentConfig, main
from loopgas.interactions import InteractionParams
from loopgas.lattice import Torus
from loopgas.quantum_oracle import sector_dims

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def _ginibre_doc(**kw):
    doc = {"experiment": "ginibre-z", "torus": {"d": 1, "L": 3},
           "potential": {"d": 1, "R": 0, "entries": [[[0], 0.5]]},
           "nu": 0.5, "kappa": 1.0, "lambda_rule": "explicit",
           "lambda": 0.2, "n_samples": 50}
    doc.update(kw)
    return {k: v for k, v in doc.items() if v is not None}


def test_config_schema_validation(tmp_path):
    bad = _write_config(tmp_path, {"experiment": "nope", "torus": {"d": 1}})
    assert main(["selftest", "--config", bad]) == 2
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)
    missing = _write_config(tmp_path, {"torus": {"d": 1, "L": 3}}, "m.json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(missing)


def test_bundled_schema_is_a_valid_schema():
    # config loads build the validator without checking the schema
    jsonschema.Draft202012Validator.check_schema(cli._validator().schema)


def test_config_loads_and_overrides_build_one_validator(monkeypatch):
    built = []
    init = jsonschema.Draft202012Validator.__init__

    def counted(self, schema, *args, **kwargs):
        # the whole config schema, not a property's subschema
        if "experiment" in schema.get("properties", {}):
            built.append(schema)
        init(self, schema, *args, **kwargs)

    monkeypatch.setattr(jsonschema.Draft202012Validator, "__init__", counted)
    cli._validator.cache_clear()
    for name in ("largemass_soft", "largemass_hardcore",
                 "meanfield_single_site", "volume_sweep"):
        config = ExperimentConfig.from_json(_CONFIGS / f"{name}.json")
    cli._override(config, "seed", 5)
    cli._override(config, "workers", 2)
    assert (config.seed, config.workers) == (5, 2)
    assert len(built) == 1


def test_minimal_config_takes_dataclass_defaults(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "selftest",
                                   "torus": {"d": 2}})
    assert ExperimentConfig.from_json(cfg) == ExperimentConfig(
        experiment="selftest", d=2)
    # lambda -> lam, nu -> nu_list, eps -> eps_list, torus -> d, L, L_list
    cfg = _write_config(tmp_path, {
        "experiment": "volume", "torus": {"d": 1, "L": 3, "L_list": [3, 4]},
        "lambda": 0.2, "nu": 0.5, "eps": 0.1, "seed": 4}, "renamed.json")
    assert ExperimentConfig.from_json(cfg) == ExperimentConfig(
        experiment="volume", d=1, L=3, L_list=[3, 4], lam=0.2,
        nu_list=[0.5], eps_list=[0.1], seed=4)


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_config_experiment_mismatch(tmp_path):
    cfg = _write_config(tmp_path, {
        "experiment": "heatkernel", "torus": {"d": 1, "L": 3},
        "t_list": [0.5]})
    assert main(["ginibre-z", "--config", cfg]) == 2


def test_config_requires_flag(tmp_path):
    assert main(["heatkernel"]) == 2     # only selftest runs configless


def test_inline_and_file_potentials(tmp_path):
    pot_file = tmp_path / "v.json"
    pot_file.write_text(json.dumps(
        {"d": 1, "R": 0, "entries": [[[0], 0.5]]}))
    cfg = _write_config(tmp_path, {
        "experiment": "ginibre-z", "torus": {"d": 1, "L": 3},
        "potential": "v.json", "nu": 0.5, "kappa": 1.0,
        "lambda_rule": "explicit", "lambda": 0.2, "n_samples": 50})
    config = ExperimentConfig.from_json(cfg)
    assert config.potential.entries[(0,)] == 0.5
    inline = _write_config(tmp_path, {
        "experiment": "ginibre-z", "torus": {"d": 1, "L": 3},
        "potential": {"d": 1, "R": 0, "entries": [[[0], 0.5]]},
        "nu": 0.5, "kappa": 1.0, "lambda_rule": "explicit",
        "lambda": 0.2, "n_samples": 50}, "inline.json")
    config2 = ExperimentConfig.from_json(inline)
    assert config2.potential.entries == config.potential.entries
    absolute = _write_config(tmp_path, _ginibre_doc(
        potential=str(pot_file.resolve())), "absolute.json")
    config3 = ExperimentConfig.from_json(absolute)
    assert config3.potential.entries == config.potential.entries


def test_inline_potential_with_a_repeated_site_exits_2(tmp_path, capsys):
    # an inline potential is parsed as a potential file is: a repeated
    # site is refused, not overwritten by its last value
    cfg = _write_config(tmp_path, _ginibre_doc(potential={
        "d": 1, "R": 0, "entries": [[[0], 0.5], [[0], 0.9]]}))
    assert main(["ginibre-z", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "duplicate entry at (0,)" in err


@pytest.mark.parametrize("where", ["file", "inline"])
@pytest.mark.parametrize("potential, message", [
    ({"d": None, "R": 0, "entries": [[[0], 0.5]]},
     "at potential/d: None is not of type 'integer'"),
    ({"d": 1, "R": 0, "entries": 5},
     "at potential/entries: 5 is not of type 'array'"),
    ({"d": 1, "R": 0, "entries": [[[0], None]]},
     "at potential/entries/0/1: None is not of type 'number'"),
    (5, "at potential: 5 is not of type 'object'"),
    ({"d": 1, "R": True, "entries": [[[0], 0.5]]},
     "at potential/R: True is not of type 'integer'"),
    ({"d": 1, "R": 0, "entries": [[[0], "0.5"]]},
     "at potential/entries/0/1: '0.5' is not of type 'number'"),
    ({"d": 1, "R": 0, "entries": [[[0], 0.5]], "scale": 2},
     "'scale' was unexpected"),
    ({"d": 1, "R": 0, "entries": [[[0], 10 ** 400]]},
     "bad potential: int too large to convert to float"),
])
def test_file_and_inline_potentials_are_checked_alike(tmp_path, capsys,
                                                    potential, message,
                                                    where):
    if where == "file":
        (tmp_path / "v.json").write_text(json.dumps(potential))
        potential = "v.json"
    cfg = _write_config(tmp_path, _ginibre_doc(potential=potential))
    out = tmp_path / "out"
    assert main(["ginibre-z", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("key, literal", [
    ("lambda", "NaN"), ("kappa", "Infinity"), ("kappa", "-Infinity"),
    ("kappa", "1e999"), ("t_list", "[NaN]")])
def test_non_finite_numbers_are_refused(tmp_path, capsys, key, literal):
    # no schema bound rejects NaN, so the reader refuses every non-finite
    # number, in a config or in its potential file
    text = json.dumps(_ginibre_doc(**{key: "@"})).replace('"@"', literal)
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["ginibre-z", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"non-finite number {literal.strip('[]')}" in err
    assert not out.exists()
    (tmp_path / "v.json").write_text(
        '{"d": 1, "R": 0, "entries": [[[0], %s]]}' % literal.strip("[]"))
    cfg.write_text(json.dumps(_ginibre_doc(potential="v.json")))
    assert main(["ginibre-z", "--config", str(cfg), "--out", str(out)]) == 2
    assert "cannot read potential file" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    _ginibre_doc(nu=None, nu_list=[0.5, 0.25]),
    {"experiment": "cluster-logz", "torus": {"d": 1, "L": 3},
     "potential": {"d": 1, "R": 0, "entries": [[[0], 0.05]]},
     "nu_list": [0.5, 0.25], "kappa": 1.5, "lambda_rule": "nu_squared",
     "n_samples": 30, "n_max": 2}], ids=["ginibre-z", "cluster-logz"])
def test_one_nu_experiments_refuse_more_nus(tmp_path, capsys, doc):
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([doc["experiment"], "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "takes one nu" in err
    assert not out.exists()


def test_an_estimate_whose_every_weight_underflowed_is_refused(tmp_path,
                                                               capsys):
    '''ginibre_z.json's physics at nu = 0.1 and kappa = 1e-4: loops so
    long that every sample's e^{-V} underflows to 0, none of them a
    hard-core kill.  The run holds no number, so it exits 2 and writes
    no output; it does not report Z = 0 with no error.'''
    doc = json.loads((_CONFIGS / "ginibre_z.json").read_text())
    doc.update(nu_list=[0.1], kappa=1e-4, n_samples=200)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["ginibre-z", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ArithmeticError" in err and "underflowed" in err
    assert not (out / "ginibre_z.csv").exists()


@pytest.mark.parametrize("extra", [{"nu": 0.1, "nu_list": [0.5]},
                                   {"eps": 0.1, "eps_list": [0.05]}],
                         ids=["nu", "eps"])
def test_config_refuses_value_and_list(tmp_path, capsys, extra):
    # a single value next to its list is refused, not silently dropped
    cfg = _write_config(tmp_path, _ginibre_doc(**extra))
    with pytest.raises(ConfigError, match="not both"):
        ExperimentConfig.from_json(cfg)
    out = tmp_path / "out"
    assert main(["ginibre-z", "--config", cfg, "--out", str(out)]) == 2
    assert "not both" in capsys.readouterr().err
    assert not out.exists()


def test_heatkernel_experiment(tmp_path):
    cfg = _write_config(tmp_path, {
        "experiment": "heatkernel", "torus": {"d": 1, "L": 3},
        "t_list": [0.1, 1.0]})
    out = tmp_path / "out"
    assert main(["heatkernel", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "heatkernel.csv")
    assert rows[0] == ["t", "x", "psi_L", "psi_periodized", "abs_gap"]
    assert len(rows) == 1 + 2 * 3
    assert all(float(r[4]) < 1e-8 for r in rows[1:])


def test_ginibre_z_experiment_and_determinism(tmp_path):
    cfg = _write_config(tmp_path, {
        "experiment": "ginibre-z", "torus": {"d": 1, "L": 3},
        "potential": {"d": 1, "R": 0, "entries": [[[0], 0.5]]},
        "nu": 0.5, "kappa": 1.0, "lambda_rule": "explicit",
        "lambda": 0.2, "n_samples": 300, "workers": 2})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ginibre-z", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["ginibre-z", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "ginibre_z.csv").read_bytes() == \
        (out2 / "ginibre_z.csv").read_bytes()
    doc = json.loads((out1 / "ginibre_z.json").read_text())
    assert 0.0 < doc["mean"] < 1.0
    # a different seed changes the estimate
    out3 = tmp_path / "c"
    assert main(["ginibre-z", "--config", cfg, "--out", str(out3),
                 "--seed", "99"]) == 0
    doc3 = json.loads((out3 / "ginibre_z.json").read_text())
    assert doc3["mean"] != doc["mean"]


def test_symanzik_z_experiment(tmp_path):
    cfg = _write_config(tmp_path, {
        "experiment": "symanzik-z", "torus": {"d": 1, "L": 3},
        "potential": {"d": 1, "R": 0, "entries": [[[0], 0.5]]},
        "kappa": 1.0, "eps_list": [0.1, 0.05], "n_samples": 200})
    out = tmp_path / "out"
    assert main(["symanzik-z", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "symanzik_z.csv")
    assert rows[0][0] == "eps" and len(rows) == 3


_SYMANZIK = {"experiment": "symanzik-z", "torus": {"d": 1, "L": 3},
             "potential": {"d": 1, "R": 0, "entries": [[[0], 0.5]]},
             "eps_list": [0.1], "kappa": 1.0, "lambda": 0.3,
             "n_samples": 200, "seed": 7}


@pytest.mark.parametrize("rule", ["one", "explicit", "nu_squared"])
def test_symanzik_z_honours_lambda_rule(tmp_path, capsys, rule):
    '''lambda_rule sets lam as in the grid experiments: "one" gives 1
    and "explicit" gives lambda, each the run with no rule and that
    lambda; the continuum has no nu, so "nu_squared" exits 2.'''
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, dict(_SYMANZIK, lambda_rule=rule))
    code = main(["symanzik-z", "--config", cfg, "--out", str(out)])
    if rule == "nu_squared":
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "has no nu" in err
        assert not out.exists()
        return
    assert code == 0
    same = tmp_path / "same"
    lam = 1.0 if rule == "one" else 0.3
    main(["symanzik-z", "--out", str(same), "--config", _write_config(
        tmp_path, dict(_SYMANZIK, **{"lambda": lam}), "same.json")])
    for name in ("symanzik_z.csv", "symanzik_z.json"):
        assert (out / name).read_bytes() == (same / name).read_bytes()
    if rule == "one":
        other = json.loads((out / "symanzik_z.json").read_text())
        plain = tmp_path / "plain"
        main(["symanzik-z", "--config", _write_config(
            tmp_path, _SYMANZIK, "plain.json"), "--out", str(plain)])
        assert other != json.loads((plain / "symanzik_z.json").read_text())


def test_cluster_logz_truncation_cap_is_the_ursell_budget(tmp_path, capsys):
    '''The schema's n_max maximum is cluster.MAX_URSELL_N, the one
    truncation cap: n_max = 6 runs, and 7 exits 2 with one line.'''
    from loopgas import cluster
    from loopgas.cli import _validator
    assert (_validator().schema["properties"]["n_max"]["maximum"]
            == cluster.MAX_URSELL_N == 6)
    doc = {"experiment": "cluster-logz", "torus": {"d": 1, "L": 3},
           "potential": {"d": 1, "R": 0, "entries": [[[0], 0.05]]},
           "nu": 0.5, "kappa": 1.5, "lambda_rule": "nu_squared",
           "n_samples": 60}
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, dict(doc, n_max=6))
    assert main(["cluster-logz", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "cluster_logz.csv")
    assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4", "5", "6"]
    capsys.readouterr()
    cfg = _write_config(tmp_path, dict(doc, n_max=7), "seven.json")
    assert main(["cluster-logz", "--config", cfg, "--out",
                 str(tmp_path / "seven")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n_max" in err
    assert not (tmp_path / "seven").exists()


def test_cluster_logz_experiment(tmp_path):
    cfg = _write_config(tmp_path, {
        "experiment": "cluster-logz", "torus": {"d": 1, "L": 3},
        "potential": {"d": 1, "R": 0, "entries": [[[0], 0.05]]},
        "nu": 0.5, "kappa": 1.5, "lambda_rule": "nu_squared",
        "n_samples": 300, "n_max": 2})
    out = tmp_path / "out"
    assert main(["cluster-logz", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "cluster_logz.csv")
    assert rows[0] == ["order", "mean", "std_error", "tree_bound_remainder"]
    doc = json.loads((out / "cluster_logz.json").read_text())
    assert doc["log_Z"] < 0.0
    # per order (1 and 2): the estimate without controls, its variance
    # ratio, the control names and the effective sample size
    for key in ("plain_means", "plain_std_errors", "variance_ratios",
                "controls", "ess"):
        assert len(doc[key]) == 2
    assert doc["controls"] == [["S"], ["S", "V"]]
    # order 1 sums its one-window loops exactly (about 80% of the loop
    # mass here) and draws the rest, whose weight is nearly a function
    # of the loop's duration
    assert 0.0 < doc["one_window"] < doc["X0"]
    assert 0.1 < doc["drawn_share"] < 0.3
    assert 0.0 < doc["variance_ratios"][0] < 0.5


def test_largemass_experiment(tmp_path):
    cfg = _write_config(tmp_path, {
        "experiment": "largemass", "torus": {"d": 1, "L": 3},
        "potential": {"d": 1, "R": 1, "entries": []},
        "kappa0": 1.0, "nu_list": [0.2, 0.1], "lambda_rule": "one"})
    out = tmp_path / "out"
    assert main(["largemass", "--config", cfg, "--out", str(out)]) == 0
    gamma = _read_csv(out / "largemass_gamma.csv")
    assert gamma[0] == ["nu", "x", "y", "quantum", "lm", "abs_diff"]
    # diagonal gaps shrink with nu
    diag = {}
    for r in gamma[1:]:
        if r[1] == r[2]:
            diag.setdefault(float(r[0]), []).append(float(r[5]))
    assert max(diag[0.1]) < max(diag[0.2])


def test_meanfield_experiment(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "experiment": "meanfield", "torus": {"d": 1, "L": 1},
        "potential": {"d": 1, "R": 0, "entries": [[[0], 1.0]]},
        "kappa": 1.0, "nu_list": [0.2, 0.1], "lambda_rule": "nu_squared"})
    out = tmp_path / "out"
    assert main(["meanfield", "--config", cfg, "--out", str(out)]) == 0
    # stdout carries results only: the chooser's line goes to stderr
    std = capsys.readouterr()
    assert std.out == "" and "quantum side via quantum_oracle" in std.err
    fit = json.loads((out / "meanfield_fit.json").read_text())
    assert fit["chooser"] == "quantum_oracle"
    assert "gamma" in fit["fit"] and "z" in fit["fit"]
    # one grand sum per nu, its stopping point recorded
    assert [r["nu"] for r in fit["oracle"]] == [0.2, 0.1]
    assert all(r["max_sector_dim"] == 1 and r["n_max"] > 0
               for r in fit["oracle"])
    rows = _read_csv(out / "meanfield_gamma.csv")
    diffs = [float(r[-1]) for r in rows[1:]]
    assert diffs[1] < diffs[0]


def test_meanfield_chooser_sizes_the_oracle_without_building(monkeypatch):
    # meanfield_single_site.json physics on L = 3 at nu = 0.1 (p = 1):
    # the grand sum would diagonalize the blocks up to n_diag = 151 (of
    # n_max = 366), whose momentum sectors of dimension up to 3876 fit
    # MAX_SECTOR_DIM but whose dim^3 sum past its budget (sectors 0
    # and 1: sector 2 is sector 1's mirror, diagonalized with it), so the
    # sweep takes loop_mc; the decision diagonalizes nothing
    def refuse(*args, **kwargs):
        raise AssertionError("the chooser diagonalized a block")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    cfg = ExperimentConfig.from_json(_CONFIGS / "meanfield_single_site.json")
    torus = cfg.torus(3)
    params = InteractionParams(torus=torus, vL=cfg.vL(torus), nu=0.1,
                               mode="meanfield", kappa=cfg.kappa)
    use_oracle, size = cli._use_oracle([params], cfg.kappa, cfg.p)
    assert not use_oracle
    assert size["max_sector_dim"] == 3876 <= quantum_oracle.MAX_SECTOR_DIM
    assert size["eigh_dim3"] == pytest.approx(2.595925694462e12, rel=1e-12)
    assert size["eigh_dim3"] > cli.ORACLE_EIGH_BUDGET


def test_meanfield_chooser_reads_the_oracle_sector_cap(monkeypatch):
    '''The chooser reads quantum_oracle.MAX_SECTOR_DIM when it runs: on
    L = 2, where the oracle fits, a cap of 2 makes it take loop_mc.'''
    cfg = ExperimentConfig.from_json(_CONFIGS / "meanfield_single_site.json")
    torus = cfg.torus(2)
    params = InteractionParams(torus=torus, vL=cfg.vL(torus), nu=0.25,
                               mode="meanfield", kappa=cfg.kappa)
    use_oracle, size = cli._use_oracle([params], cfg.kappa, cfg.p)
    assert use_oracle and size["max_sector_dim"] > 2
    monkeypatch.setattr(quantum_oracle, "MAX_SECTOR_DIM", 2)
    assert cli._use_oracle([params], cfg.kappa, cfg.p) == (False, size)


_VOLUME = {"experiment": "volume", "torus": {"d": 1, "L_list": [4, 6, 8]},
           "potential": {"d": 1, "R": 0,
                         "entries": [[[0], 0.03], [[1], 0.01]]},
           "kappa": 1.0, "nu_list": [0.25], "lambda_rule": "nu_squared",
           "L0": 4}


def test_volume_experiment(tmp_path):
    cfg = _write_config(tmp_path, _VOLUME)
    out = tmp_path / "out"
    assert main(["volume", "--config", cfg, "--out", str(out)]) == 0
    g_rows = _read_csv(out / "volume_g.csv")
    assert g_rows[0] == ["nu", "L", "g"]
    meta = json.loads((out / "volume_meta.json").read_text())
    assert all(v["cauchy"] for v in meta["verdicts"])


def test_volume_warning_goes_to_stderr(tmp_path, capsys):
    # ||v||_1 = 0.04 above a threshold of 0.01: warned on stderr, and
    # stdout stays empty
    cfg = _write_config(tmp_path, dict(_VOLUME, v_l1_threshold=0.01))
    assert main(["volume", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err.count("\n") == 1 and "smallness threshold" in std.err


@pytest.mark.parametrize("L_list", [[4, 4, 6], [6, 4, 8]])
def test_volume_refuses_tori_not_strictly_increasing(tmp_path, capsys,
                                                     L_list):
    # a repeated torus would be compared with itself (a gap of 0)
    cfg = _write_config(tmp_path, dict(_VOLUME, torus={"d": 1,
                                                       "L_list": L_list}))
    out = tmp_path / "out"
    assert main(["volume", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "strictly increasing" in err
    assert not out.exists()


def test_volume_experiment_in_two_dimensions(tmp_path):
    # the centered L0-box holds L0^d sites; its block differences shrink
    doc = dict(_VOLUME, torus={"d": 2, "L_list": [4, 6, 8]}, L0=3,
               potential={"d": 2, "R": 0,
                          "entries": [[[0, 0], 0.03], [[1, 0], 0.01],
                                      [[0, 1], 0.01]]})
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["volume", "--config", cfg, "--out", str(out)]) == 0
    diffs = [float(row[3]) for row in _read_csv(out / "volume_diffs.csv")[1:]]
    assert len(diffs) == 2 and diffs[1] < diffs[0]
    meta = json.loads((out / "volume_meta.json").read_text())
    assert [v["cauchy"] for v in meta["verdicts"]] == [True]


def test_volume_two_volumes_give_no_verdict(tmp_path):
    # one successive difference: nothing to compare, so the verdict is null
    cfg = _write_config(tmp_path, dict(_VOLUME, torus={"d": 1,
                                                       "L_list": [4, 6]}))
    out = tmp_path / "out"
    assert main(["volume", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "volume_meta.json").read_text())
    assert [v["cauchy"] for v in meta["verdicts"]] == [None]
    assert len(_read_csv(out / "volume_diffs.csv")) == 2


def test_overrides_checked_against_schema(tmp_path, capsys):
    cfg = _write_config(tmp_path, _ginibre_doc())
    out = str(tmp_path / "out")
    assert main(["ginibre-z", "--config", cfg, "--out", out,
                 "--workers", "0"]) == 2
    assert main(["ginibre-z", "--config", cfg, "--out", out,
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--workers" in err and "--seed" in err
    assert main(["ginibre-z", "--config", cfg, "--out", out,
                 "--seed", "3", "--workers", "2"]) == 0


@pytest.mark.parametrize("error", [ArithmeticError, ZeroDivisionError,
                                   MemoryError, RuntimeError, ValueError])
def test_runtime_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch,
                                             error):
    from loopgas import cli

    def fail(config):
        raise error("budget exceeded")

    monkeypatch.setitem(cli.RUNNERS, "ginibre-z", fail)
    cfg = _write_config(tmp_path, _ginibre_doc())
    assert main(["ginibre-z", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "budget exceeded" in err


def test_grid_configuration_over_the_cell_budget_exits_2(tmp_path, capsys,
                                                         monkeypatch):
    # a configuration with more occupation field rows (slices, one more
    # than its jumps) than the kernel's budget: with a budget of 2 rows,
    # some sample of 50 has two jumps
    from loopgas import interactions
    monkeypatch.setattr(interactions, "MAX_CELLS", 2)
    cfg = _write_config(tmp_path, _ginibre_doc())
    assert main(["ginibre-z", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "occupation field rows (slices)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("experiment, doc", [
    ("ginibre-z", _ginibre_doc(kappa=1e6)),
    ("symanzik-z", {"experiment": "symanzik-z", "torus": {"d": 1, "L": 3},
                    "potential": {"d": 1, "R": 0, "entries": [[[0], 0.5]]},
                    "kappa": 1.0, "eps_list": [1e6], "n_samples": 50})])
def test_loop_mass_of_zero_runs_cleanly(tmp_path, experiment, doc):
    # the loop mass e^{-kappa T} underflows to 0: Z = 1, no warning, and
    # a JSON report without NaN
    import os
    import subprocess
    import sys
    import loopgas
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    src = str(Path(loopgas.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-m", "loopgas.cli", experiment, "--config", cfg,
         "--out", str(out)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == ""

    def no_constant(name):
        raise ValueError(f"{name} in the JSON report")

    name = experiment.replace("-", "_")
    report = json.loads((out / f"{name}.json").read_text(),
                        parse_constant=no_constant)
    for est in report.values() if experiment == "symanzik-z" else [report]:
        assert est["mean"] == 1.0 and est["params"]["mass"] == 0.0


def test_torus_past_the_site_budget_exits_2_at_once(tmp_path):
    # 3^40 sites: refused before any table is built, with one line
    import os
    import subprocess
    import sys
    import time
    import loopgas
    from loopgas.lattice import MAX_SITES
    cfg = _write_config(tmp_path, {"experiment": "heatkernel",
                                   "torus": {"d": 40, "L": 3},
                                   "t_list": [0.5]})
    src = str(Path(loopgas.__file__).resolve().parent.parent)
    start = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-m", "loopgas.cli", "heatkernel", "--config", cfg,
         "--out", str(tmp_path / "out")], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60)
    assert time.monotonic() - start < 30
    assert run.returncode == 2
    assert run.stderr.count("\n") == 1
    assert f"MAX_SITES = {MAX_SITES}" in run.stderr
    assert "Traceback" not in run.stderr


def test_every_shipped_torus_builds():
    for path in sorted(_CONFIGS.glob("*.json")):
        config = ExperimentConfig.from_json(path)
        for L in config.L_list or [config.L]:
            torus = config.torus(L)
            assert torus.n_sites == L ** config.d


def test_one_sample_run_is_refused(tmp_path, capsys):
    # one sample has no standard error: the schema asks for n_samples >= 2
    cfg = _write_config(tmp_path, _ginibre_doc(n_samples=1))
    out = tmp_path / "out"
    assert main(["ginibre-z", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n_samples" in err
    assert not out.exists()


def test_tolerances_field_rejected(tmp_path):
    cfg = _write_config(tmp_path, _ginibre_doc(tolerances={"z": 0.1}))
    assert main(["ginibre-z", "--config", cfg]) == 2


def test_ginibre_z_off_grid_nu(tmp_path):
    # nu = 0.1 is not dyadic: window bounds are not exact in floating point
    cfg = _write_config(tmp_path, _ginibre_doc(
        torus={"d": 1, "L": 4}, nu=None, nu_list=[0.1], n_samples=200))
    out = tmp_path / "out"
    assert main(["ginibre-z", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "ginibre_z.json").read_text())
    assert 0.0 < doc["mean"] < 1.0


_MEANFIELD = {"experiment": "meanfield", "torus": {"d": 1, "L": 2},
              "potential": {"d": 1, "R": 0, "entries": [[[0], 1.0]]},
              "kappa": 1.0, "nu_list": [0.2], "lambda_rule": "nu_squared"}


@pytest.mark.parametrize("doc,message", [
    (dict(_MEANFIELD, p=2, x=[0]), "x must list p = 2 sites"),
    (dict(_MEANFIELD, x=[7]), "x must list p = 1 sites"),
    (dict(_MEANFIELD, y=[-1]), "y must list p = 1 sites"),
    ({"experiment": "largemass", "torus": {"d": 1, "L": 2},
      "potential": {"d": 1, "R": 0, "entries": [[[0], 0.3]]},
      "kappa0": 0.01, "nu_list": [0.2], "lambda_rule": "one"},
     "exceeds the budget"),
    ({"experiment": "cluster-logz", "torus": {"d": 1, "L": 3},
      "potential": {"d": 1, "R": 1, "entries": []}, "nu": 0.5,
      "kappa": 1.5, "lambda_rule": "nu_squared", "n_samples": 10,
      "n_max": 2}, "R = 0"),
    (dict(_VOLUME, potential={"d": 1, "R": 1, "entries": [[[1], 0.01]]}),
     "finite potential"),
    # a hard core has no classical field side, on one site or more
    (dict(_MEANFIELD, torus={"d": 1, "L": 1},
          potential={"d": 1, "R": 1, "entries": []}), "finite potential"),
    (dict(_MEANFIELD, potential={"d": 1, "R": 1, "entries": []}),
     "finite potential"),
    # every continuum loop has local time at its own site: a hard core
    # would kill every loop
    ({"experiment": "symanzik-z", "torus": {"d": 1, "L": 3},
      "potential": {"d": 1, "R": 1, "entries": []}, "eps_list": [0.1],
      "kappa": 1.0, "n_samples": 400}, "no hard core"),
])
def test_schema_accepted_inputs_fail_cleanly(tmp_path, capsys, doc, message):
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([doc["experiment"], "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


def test_grid_law_at_small_kappa_nu_runs(tmp_path):
    '''kappa nu = 1e-4: the grid duration law is drawn exactly from the
    free modes, with no term budget, so the run goes through.'''
    cfg = _write_config(tmp_path, _ginibre_doc(kappa=1e-3, nu=0.1))
    out = tmp_path / "out"
    assert main(["ginibre-z", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "ginibre_z.json").read_text())
    assert 0.0 < doc["mean"] <= 1.0 and doc["params"]["mass"] > 9.0


def _run_cli(tmp_path, experiment, doc):
    '''The CLI in a subprocess with RuntimeWarnings as errors.'''
    import os
    import subprocess
    import sys
    import loopgas
    cfg = _write_config(tmp_path, doc)
    src = str(Path(loopgas.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "loopgas.cli", experiment, "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src,
                 PYTHONWARNINGS="error::RuntimeWarning"),
        capture_output=True, text=True, timeout=120)


def test_grid_mode_weight_of_one_exits_2(tmp_path):
    # nu = 1e-17: kappa nu rounds a_0 = e^{-kappa nu} to 1
    run = _run_cli(tmp_path, "ginibre-z", _ginibre_doc(nu=None,
                                                       nu_list=[1e-17]))
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.count("\n") == 1 and "mode weight is 1" in run.stderr


def test_grid_loops_past_the_bridge_budget_exit_2(tmp_path):
    # kappa = 1e-9, nu = 50: the first batch's longest loop (T near 3e9)
    # would need a Poisson table of about 2e9 cells on its own
    from loopgas.paths import MAX_BRIDGE_CELLS
    run = _run_cli(tmp_path, "ginibre-z", _ginibre_doc(kappa=1e-9, nu=50))
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.count("\n") == 1
    assert f"MAX_BRIDGE_CELLS = {MAX_BRIDGE_CELLS}" in run.stderr


def test_grid_loops_over_the_bridge_budget_draw_in_chunks(tmp_path):
    # kappa nu = 1e-5: a batch's bridges would need about 5.3e7 table
    # cells in one call, but each loop fits, so bridges draws in chunks;
    # lambda = 1e-8 keeps the weights of those long loops above 0 (the
    # chunks follow kappa, not lambda)
    run = _run_cli(tmp_path, "ginibre-z", _ginibre_doc(
        nu=None, nu_list=[0.1], kappa=1e-4, n_samples=200, seed=7,
        **{"lambda": 1e-8}))
    assert run.returncode == 0, run.stderr
    assert run.stdout == "" and run.stderr == ""
    assert (tmp_path / "out" / "ginibre_z.json").exists()


def test_grid_monte_carlo_imports_no_scipy():
    '''Importing the CLI and running the grid-ensemble estimators
    (kernel, cluster series) loads no scipy module: scipy is imported
    inside the functions that need it.'''
    import os
    import subprocess
    import sys
    import loopgas
    code = """
import sys
import loopgas.cli
from loopgas.cluster import log_Z_via_expansion
from loopgas.interactions import InteractionParams
from loopgas.lattice import PotentialSpec, Torus, periodize_potential
from loopgas.loop_mc import EnsembleSpec, estimate_gamma_p
from loopgas.paths import LoopIntensity
torus = Torus(1, 3)
vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.05}), 3)
params = InteractionParams(torus=torus, vL=vL, nu=0.5, mode="meanfield",
                           kappa=1.0)
spec = EnsembleSpec(torus, params, LoopIntensity(torus, "ginibre", 1.0,
                                                 nu=0.5), "ginibre")
estimate_gamma_p(spec, 1, [0], [0], 20, seed=1)
log_Z_via_expansion(spec, 2, 20, seed=1)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(loopgas.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_continuum_monte_carlo_imports_no_scipy():
    '''Building the continuum loop law of the shipped symanzik_z.json at
    each eps and running the partition estimator loads no scipy module:
    the law's mass and CDF come from one numpy quadrature.'''
    import os
    import subprocess
    import sys
    import loopgas
    config = _CONFIGS / "symanzik_z.json"
    code = f"""
import sys
from loopgas.cli import ExperimentConfig
from loopgas.interactions import InteractionParams
from loopgas.loop_mc import EnsembleSpec, estimate_rel_partition
from loopgas.paths import LoopIntensity
cfg = ExperimentConfig.from_json({str(config)!r})
torus = cfg.torus()
params = InteractionParams(torus=torus, vL=cfg.vL(torus), nu=1.0,
                           lam=cfg.lam, mode="generic", kappa=cfg.kappa)
for eps in cfg.eps_list:
    intensity = LoopIntensity(torus, "symanzik_eps", cfg.kappa, eps=eps)
    spec = EnsembleSpec(torus, params, intensity, "symanzik_eps")
    estimate_rel_partition(spec, 20, seed=1)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(loopgas.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_shipped_configs_run_without_scipy(tmp_path):
    '''With every scipy import made to fail, each of the 8 shipped
    configs runs through loopgas.cli.main and exits 0: the library needs
    numpy and jsonschema only.'''
    import os
    import subprocess
    import sys
    import loopgas
    code = """
import json, pathlib, sys
sys.modules["scipy"] = None
from loopgas.cli import main
codes = {}
for config in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    experiment = json.loads(config.read_text())["experiment"]
    codes[config.stem] = main([experiment, "--config", str(config),
                               "--out", str(pathlib.Path(sys.argv[2])
                                            / config.stem)])
print(json.dumps(codes))
"""
    src = str(Path(loopgas.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(_CONFIGS),
                          str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True, timeout=600)
    codes = json.loads(out.stdout.strip().splitlines()[-1])
    assert len(codes) == 8 and set(codes.values()) == {0}, codes


def test_largemass_diagonalizes_each_sector_once_per_nu(tmp_path,
                                                        monkeypatch):
    '''The shipped largemass_soft.json run takes Z_rel and Gamma_1 from
    one grand sum per nu: one eigh or eigvalsh per momentum sector of
    each block up to the n_diag that largemass_meta.json records, sector
    0 and the mirror pair of sectors 1 and 2 (its second sector is not
    diagonalized); the interaction bound leaves the blocks from there to
    n_max = 28 undiagonalized.'''
    calls = []

    def counting(eig):
        def counted(a, *args, **kwargs):
            calls.append(len(a))
            return eig(a, *args, **kwargs)
        return counted

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg,
                                                              name)))
    out = tmp_path / "out"
    assert main(["largemass", "--config",
                 str(_CONFIGS / "largemass_soft.json"),
                 "--out", str(out)]) == 0
    meta = json.loads((out / "largemass_meta.json").read_text())
    assert [r["nu"] for r in meta["oracle"]] == [0.2, 0.1, 0.05]
    sectors = 0
    for record in meta["oracle"]:
        dims = sector_dims(Torus(1, 3), False, record["n_diag"])
        sectors += np.count_nonzero(dims[1:, :2])
        assert record["max_sector_dim"] == dims.max()
        assert record["n_max"] == 28
        assert 0.0 < record["tail_bound"] < 1e-9
    assert len(calls) == sectors == 3 * 2 * 21


def test_heatkernel_past_the_ring_budget_exits_2(tmp_path, capsys):
    '''At t = 1e12 the infinite-lattice kernel would need a ring above
    MAX_RING_SITES: the run is refused with one line, not written as
    NaN.'''
    cfg = _write_config(tmp_path, {
        "experiment": "heatkernel", "torus": {"d": 1, "L": 3},
        "t_list": [1e12]})
    out = tmp_path / "out"
    assert main(["heatkernel", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MAX_RING_SITES" in err
    assert not (out / "heatkernel.csv").exists()


def test_heatkernel_sums_every_image_it_needs(tmp_path, capsys):
    '''On L = 5 the walk spreads past a fixed block of 11 images by t =
    100 (there the block's abs_gap was 1.3e-3, and 0.077 at t = 1000);
    the image sums reach the Bernstein radius and close the gap to
    1e-12.  At t = 1e10, where the block wrote a gap of 0.19996 and exit
    0, the sums would need a ring above MAX_RING_SITES: exit 2, one
    line, no CSV.'''
    doc = {"experiment": "heatkernel", "torus": {"d": 1, "L": 5},
           "t_list": [100.0, 1000.0]}
    out = tmp_path / "out"
    assert main(["heatkernel", "--config", _write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    rows = _read_csv(out / "heatkernel.csv")[1:]
    assert len(rows) == 2 * 5
    assert all(float(r[4]) <= 1e-12 for r in rows)
    doc["t_list"] = [1e10]
    far = tmp_path / "far"
    assert main(["heatkernel", "--config", _write_config(tmp_path, doc),
                 "--out", str(far)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MAX_RING_SITES" in err
    assert not (far / "heatkernel.csv").exists()
