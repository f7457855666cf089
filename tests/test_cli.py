'''Command-line interface: config validation, experiment outputs,
deterministic reruns.'''

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from loopgas import cli
from loopgas.cli import ConfigError, ExperimentConfig, main
from loopgas.interactions import InteractionParams


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_config_schema_validation(tmp_path):
    bad = _write_config(tmp_path, {"experiment": "nope", "torus": {"d": 1}})
    assert main(["selftest", "--config", bad]) == 2
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)
    missing = _write_config(tmp_path, {"torus": {"d": 1, "L": 3}}, "m.json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(missing)


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


def test_meanfield_experiment(tmp_path):
    cfg = _write_config(tmp_path, {
        "experiment": "meanfield", "torus": {"d": 1, "L": 1},
        "potential": {"d": 1, "R": 0, "entries": [[[0], 1.0]]},
        "kappa": 1.0, "nu_list": [0.2, 0.1], "lambda_rule": "nu_squared"})
    out = tmp_path / "out"
    assert main(["meanfield", "--config", cfg, "--out", str(out)]) == 0
    fit = json.loads((out / "meanfield_fit.json").read_text())
    assert fit["chooser"] == "quantum_oracle"
    assert "gamma" in fit["fit"] and "z" in fit["fit"]
    rows = _read_csv(out / "meanfield_gamma.csv")
    diffs = [float(r[-1]) for r in rows[1:]]
    assert diffs[1] < diffs[0]


def test_meanfield_chooser_sizes_the_oracle_without_building(monkeypatch):
    # meanfield_single_site.json physics on L = 3 at nu = 0.1 (p = 1,
    # n_max = 3): the grand sum would reach momentum sectors of dimension
    # 22510, beyond the oracle's dim_cap, so the sweep takes loop_mc; the
    # decision diagonalizes nothing
    def refuse(*args, **kwargs):
        raise AssertionError("the chooser diagonalized a block")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    cfg = ExperimentConfig.from_json(Path(__file__).resolve().parent.parent
                                     / "configs" / "meanfield_single_site.json")
    torus = cfg.torus(3)
    params = InteractionParams(torus=torus, vL=cfg.vL(torus), nu=0.1,
                               mode="meanfield", kappa=cfg.kappa)
    use_oracle, size = cli._use_oracle([params], cfg.kappa)
    assert not use_oracle
    assert size["max_sector_dim"] == 22510 > cli.ORACLE_DIM_CAP
    assert size["eigh_dim3"] == pytest.approx(1.8134066970924e15, rel=1e-12)


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


def test_volume_two_volumes_give_no_verdict(tmp_path):
    # one successive difference: nothing to compare, so the verdict is null
    cfg = _write_config(tmp_path, dict(_VOLUME, torus={"d": 1,
                                                       "L_list": [4, 6]}))
    out = tmp_path / "out"
    assert main(["volume", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "volume_meta.json").read_text())
    assert [v["cauchy"] for v in meta["verdicts"]] == [None]
    assert len(_read_csv(out / "volume_diffs.csv")) == 2


def _ginibre_doc(**kw):
    doc = {"experiment": "ginibre-z", "torus": {"d": 1, "L": 3},
           "potential": {"d": 1, "R": 0, "entries": [[[0], 0.5]]},
           "nu": 0.5, "kappa": 1.0, "lambda_rule": "explicit",
           "lambda": 0.2, "n_samples": 50}
    doc.update(kw)
    return {k: v for k, v in doc.items() if v is not None}


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
])
def test_schema_accepted_inputs_fail_cleanly(tmp_path, capsys, doc, message):
    cfg = _write_config(tmp_path, doc)
    assert main([doc["experiment"], "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
