#!/usr/bin/env python3
'''Compute the benchmark's frozen references and write references.json.

    python3 perfbench/freeze_references.py --commit <library commit> [--mc]

Deterministic references come from the exact oracles (grand_partition,
reduced_density_matrix) and from the oracle-sweep points themselves.
The continuum-ensemble reference Z^eps(0.02) has no exact oracle: it is
a long seeded Monte Carlo run of estimate_rel_partition, recomputed only
with --mc (about 150 s on a 2-core x86-64 machine) and otherwise kept
from the existing file.  Every entry records how it was made and the
commit of the library that made it.
'''

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

SYMANZIK_N, SYMANZIK_SEED = 100000, 7002


def deterministic_references(commit):
    '''Every reference that the library recomputes exactly.'''
    import workloads
    from loopgas import quantum_oracle

    gin = workloads.GinibreGamma(None)
    clu = workloads.ClusterLogZ(None)
    sweep = workloads.OracleSweep(None)
    return {
        "ginibre-gamma": {
            "Z_rel": {"value": quantum_oracle.grand_partition(
                gin.spec.params).Z_rel, "method": "grand_partition Z_rel",
                "commit": commit},
            "gamma1_00": {"value": float(quantum_oracle.reduced_density_matrix(
                gin.spec.params, 1)[0, 0]),
                "method": "reduced_density_matrix p=1 entry (0, 0)",
                "commit": commit}},
        "cluster-logz": {
            "log_Z": {"value": math.log(quantum_oracle.grand_partition(
                clu.spec.params).Z_rel), "method": "log grand_partition Z_rel",
                "commit": commit}},
        "oracle-sweep": {
            "commit": commit, "method": "outputs of every sweep point",
            "points": {label: fn(*args) for label, fn, args in sweep.points}},
    }


def symanzik_reference(commit):
    import workloads
    from loopgas import loop_mc

    wl = workloads.SymanzikZ(None)
    est = loop_mc.estimate_rel_partition(wl.spec, SYMANZIK_N, SYMANZIK_SEED,
                                         wl.WORKERS)
    return {"Z_eps": {"value": est.mean, "se": est.std_error,
                      "n_samples": SYMANZIK_N, "seed": SYMANZIK_SEED,
                      "workers": wl.WORKERS,
                      "method": "estimate_rel_partition, eps = 0.02",
                      "commit": commit}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True,
                    help="commit of the library the references come from")
    ap.add_argument("--mc", action="store_true",
                    help="recompute the Monte Carlo reference too")
    args = ap.parse_args()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    refs = deterministic_references(args.commit)
    if args.mc:
        refs["symanzik-z"] = symanzik_reference(args.commit)
    else:
        refs["symanzik-z"] = json.loads(REFERENCES.read_text())["symanzik-z"]
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
