'''Tests of the benchmark itself: tiny smoke runs of every workload, checks
that fire on a perturbed reference, traced/untraced identity, the frozen
references against a recomputation, and the run.py command contract.

    python3 -m pytest perfbench/tests -q
'''

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare()
run.import_library()

import freeze_references  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)
REFS = run.load_references()


def tiny_loop(name, refs=REFS, tracer=None, seed=11):
    wl = workloads.build(name, refs, tiny=True)
    count = wl.cycle if wl.cycle > 1 else 3
    return wl, run.run_loop(wl, seed, count=count, tracer=tracer)


@pytest.mark.parametrize("name", NAMES)
def test_smoke(name):
    wl, loop = tiny_loop(name)
    assert all(loop.ok)
    assert run.pooled(wl, loop)[2]
    metrics = run.end_to_end(wl, loop, setup_s=1.0)
    assert metrics.keys() == run.declared_metrics(trace=False).keys()
    assert all(v > 0 for v in metrics.values())


def _perturb(name, refs):
    if name == "symanzik-z":
        refs[name]["Z_eps"]["value"] *= 3.0
    elif name == "ginibre-gamma":
        refs[name]["gamma1_00"]["value"] *= 3.0
    elif name == "cluster-logz":
        refs[name]["log_Z"]["value"] += 0.5
    else:
        for point in refs[name]["points"].values():
            key = next(iter(point))
            point[key] = (point[key] * (1 + 1e-9) if not isinstance(
                point[key], list) else [v * (1 + 1e-9) for v in point[key]])


@pytest.mark.parametrize("name", NAMES)
def test_perturbed_reference_fails_requests(name):
    refs = copy.deepcopy(REFS)
    _perturb(name, refs)
    wl, loop = tiny_loop(name, refs)
    fail_frac = loop.ok.count(False) / len(loop.ok)
    assert fail_frac > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_is_bit_identical(name):
    from loopgas import interactions, loop_mc

    tracer = tracing.Tracer(workloads.WORKLOADS[name].open_target)
    tracer.install()
    try:
        wl, traced = tiny_loop(name, tracer=tracer)
    finally:
        tracer.uninstall()
    assert loop_mc.v_total is interactions.v_total
    assert not hasattr(loop_mc.v_total, "__wrapped__")
    untraced = run.run_loop(wl, 11, count=len(traced.results))
    assert run.same_outputs(traced, untraced)
    metrics = tracer.metrics(traced.scaled, untraced.scaled)
    declared = set(run.declared_metrics(trace=True)) - {"cli.import_s"}
    assert set(metrics) == declared
    assert metrics[f"{_main_layer(name)}.self_s"] > 0


def _main_layer(name):
    return {"symanzik-z": "interactions", "ginibre-gamma": "loop_mc",
            "cluster-logz": "cluster", "oracle-sweep": "quantum_oracle"}[name]


def test_offgrid_probe_reports_known_defect():
    failed, attempted, errors = workloads.offgrid_probe(0, n_requests=3)
    assert attempted == 3
    # the non-dyadic grid-window defect of the ROADMAP; when it is fixed,
    # this test and the probe's report change together
    assert failed == 3 and errors == ["IndexError"]


def test_deterministic_references_match_library():
    fresh = freeze_references.deterministic_references("recomputed")
    for name, entries in fresh.items():
        stored = REFS[name]
        if name == "oracle-sweep":
            assert stored["points"].keys() == entries["points"].keys()
            for label, outputs in entries["points"].items():
                for key, value in outputs.items():
                    assert workloads._close(value, stored["points"][label][key]), \
                        (label, key)
        else:
            for key, entry in entries.items():
                assert workloads._close(entry["value"], stored[key]["value"]), \
                    (name, key)
    for name in NAMES:
        assert "commit" in json.dumps(REFS[name])
    mc = REFS["symanzik-z"]["Z_eps"]
    assert mc["n_samples"] > 0 and mc["se"] > 0 and "seed" in mc


def test_command_prints_metrics_and_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symanzik-z",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    units = run.declared_metrics(trace=False)
    for name, unit in units.items():
        assert doc["metrics"][name]["unit"] == unit
        assert f"metric {name} = " in proc.stdout
    assert any(line.startswith("offgrid_probe ") for line in lines)
    assert any(line.startswith("environment ") for line in lines)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symanzik-z",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
