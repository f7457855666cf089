'''One pass for all workers: every estimator's run, with all worker
streams drawn and evaluated together, against its run with each
stream's samples drawn and evaluated on their own, bit for bit: the loop
estimators' driver as loop_reference.batch_at_a_time (every batch of
every stream a group of its own), the field oracle's run_mc over the
per-worker chunk loop of loop_reference.per_worker (as run_mc did before
it drew every stream in one call).'''

import numpy as np
import pytest

import cluster_reference
import loop_reference

from loopgas import field_oracle, interactions, loop_mc, paths
from loopgas.cluster import estimate_X, log_Z_via_expansion
from loopgas.field_oracle import (GaussianField, estimate_gamma_cl,
                                  estimate_Zcl, hubbard_stratonovich_check)
from loopgas.interactions import InteractionParams
from loopgas.lattice import PotentialSpec, Torus, periodize_potential
from loopgas.loop_mc import (EnsembleSpec, _batch_size, estimate_gamma_p,
                             estimate_rel_partition, run_mc)
from loopgas.paths import LoopIntensity


def _per_worker_run_mc(sample_fn, n_samples, seed, workers=1):
    return run_mc(loop_reference.one_stream_at_a_time(sample_fn), n_samples,
                  seed, workers)


def _both(monkeypatch, run):
    '''run() as the library runs it, then with each worker's stream
    drawn and evaluated on its own; asserts that a reference ran, so
    that the second run is not the first one again.'''
    fused = run()
    ran = []

    def counted(reference):
        def call(*args):
            ran.append(reference)
            return reference(*args)
        return call

    with monkeypatch.context() as patch:
        patch.setattr(loop_mc, "run_groups",
                      counted(loop_reference.batch_at_a_time))
        patch.setattr(field_oracle, "run_mc", counted(_per_worker_run_mc))
        per_worker = run()
    assert ran
    return fused, per_worker


def _same_estimate(a, b):
    assert (a.mean, a.std_error, a.n_samples) == (b.mean, b.std_error,
                                                  b.n_samples)
    assert a.metadata == b.metadata


def _grid(R=0, kappa=1.0, nu=0.5, lam=0.2, mode="generic"):
    torus = Torus(1, 3)
    entries = {(1,): 0.1}
    if not R:
        entries[(0,)] = 0.5
    vL = periodize_potential(PotentialSpec(1, R, entries), 3)
    params = InteractionParams(torus=torus, vL=vL, nu=nu, mode=mode, R=R,
                               lam=lam if mode == "generic" else None,
                               kappa=kappa)
    return EnsembleSpec(torus, params,
                        LoopIntensity(torus, "ginibre", kappa, nu=nu),
                        "ginibre")


def _continuum():
    torus = Torus(2, 2)
    vL = periodize_potential(PotentialSpec(2, 0, {(0, 0): 0.5}), 2)
    params = InteractionParams(torus=torus, vL=vL, nu=1.0, lam=1.0,
                               mode="generic", kappa=1.0)
    return EnsembleSpec(torus, params,
                        LoopIntensity(torus, "symanzik_eps", 1.0, eps=0.1),
                        "symanzik_eps")


_SPECS = {"grid": _grid, "continuum": _continuum, "R1": lambda: _grid(R=1)}

# (loop budget, n_samples, workers).  With the grid's 1.6 loops a sample,
# a budget of 16 cuts batches of 9 samples, so each worker's chunk of 103
# runs as several full batches and a partial one; a budget of 32 makes
# batches of 19 and packs the chunks 8, 8, 7, 7 of 30 samples two to a
# group; the default budget packs every chunk into one group.
_CASES = [(16, 103, 3), (32, 30, 4), (4096, 61, 2), (4096, 40, 3)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("budget,n_samples,workers", _CASES)
@pytest.mark.parametrize("name", sorted(_SPECS))
def test_partition_runs_as_its_workers_run_alone(name, budget, n_samples,
                                                 workers, seed,
                                                 monkeypatch):
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", budget)
    spec = _SPECS[name]()
    _same_estimate(*_both(monkeypatch, lambda: estimate_rel_partition(
        spec, n_samples, seed, workers)))


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("budget,n_samples,workers", _CASES)
@pytest.mark.parametrize("p,moving", [(1, False), (1, True), (2, False),
                                      (2, True)])
@pytest.mark.parametrize("name", sorted(_SPECS))
def test_kernel_runs_as_its_workers_run_alone(name, p, moving, budget,
                                              n_samples, workers, seed,
                                              monkeypatch):
    '''Gamma_p at p = 1 and 2, with open paths that move (their weight
    psi^T(delta) / psi^T(0)) and that do not.'''
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", budget)
    spec = _SPECS[name]()
    xs = [0, 1][:p]
    ys = [1, 0][:p] if moving else xs
    _same_estimate(*_both(monkeypatch, lambda: estimate_gamma_p(
        spec, p, xs, ys, n_samples, seed, workers)))


@pytest.mark.parametrize("budget", [8, 4096])
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_cluster_orders_run_as_their_workers_run_alone(workers, budget,
                                                       monkeypatch):
    '''Every order of log Z up to n_max = 3 (order 1's stratum of loops
    of two windows or more, orders 2 and 3) and the tree-bound order 4,
    then the same for one fixed path, drawn together, equal each order
    run on its own, one worker's stream at a time
    (cluster_reference.estimate_X_by_order, each order's driver run
    loop_reference.batch_at_a_time);
    a budget of 8 loops cuts each order's chunks into batches of 8 // n
    samples.'''
    monkeypatch.setattr(loop_mc, "_BATCH_LOOPS", budget)
    spec = _grid(lam=None, mode="meanfield")
    assert log_Z_via_expansion(spec, 3, 101, (5, workers), workers) == (
        cluster_reference.log_Z_by_order(spec, 3, 101, (5, workers), workers,
                                         loop_reference.batch_at_a_time))
    fixed = spec.intensity.draw_batch([np.random.default_rng(6)], [1])
    assert estimate_X(spec, fixed, 3, 101, 7, workers) == (
        cluster_reference.estimate_X_by_order(spec, fixed, 3, 101, 7, workers,
                                              loop_reference.batch_at_a_time))


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_field_oracle_runs_as_its_workers_run_alone(workers, monkeypatch):
    torus = Torus(1, 3)
    gf = GaussianField(torus, 1.0)
    vL = periodize_potential(PotentialSpec(1, 0, {(0,): 0.5, (1,): 0.1}), 3)
    for run in (lambda: estimate_Zcl(gf, vL, 301, 8, workers),
                lambda: estimate_gamma_cl(gf, vL, 2, [0, 1], [1, 2], 301, 9,
                                          workers)):
        _same_estimate(*_both(monkeypatch, run))
    v_pt = np.array([1.0, 0.3, 0.3])
    fused, per_worker = _both(monkeypatch, lambda: hubbard_stratonovich_check(
        v_pt, torus, np.array([0.5, -0.2, 0.1]), 301, 10, workers))
    assert fused == per_worker


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_streams_over_the_bridge_budget_run_as_their_workers(workers,
                                                             monkeypatch):
    '''kappa = 0.02: loops of hundreds of jumps, and a bridge budget of
    3000 cells that a group's bridges exceed many times over, so that
    their inversions run in parts: Z, Gamma_1(0, 1) and the cluster
    series of log Z report exactly what they report at the default
    budget.'''
    spec = _grid(kappa=0.02, lam=1e-3)
    runs = (lambda: estimate_rel_partition(spec, 40, 11, workers),
            lambda: estimate_gamma_p(spec, 1, [0], [1], 40, 11, workers),
            lambda: log_Z_via_expansion(spec, 2, 40, 12, workers))
    tables, rows = [], paths._poisson_rows

    def counted(*args):
        tables.append(1)
        return rows(*args)

    monkeypatch.setattr(paths, "_poisson_rows", counted)
    default = [repr(run()) for run in runs]
    unsplit = len(tables)
    monkeypatch.setattr(paths, "MAX_BRIDGE_CELLS", 3000)
    assert [repr(run()) for run in runs] == default
    assert len(tables) - unsplit > 2 * unsplit


def test_one_batch_request_makes_one_pass_at_three_workers(monkeypatch):
    '''At workers = 3, a request of one batch's samples draws all loops
    with one bridges call and evaluates them with one kernel call; a
    kernel draws its open paths with one more bridges call.'''
    bridge_calls, kernel_calls = [], []
    draw, kernel = paths.bridges, interactions.batch_interaction

    def bridges_spy(torus, x, T, rngs, counts, y=None):
        bridge_calls.append(len(rngs))
        return draw(torus, x, T, rngs, counts, y)

    def kernel_spy(*args):
        kernel_calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(paths, "bridges", bridges_spy)
    monkeypatch.setattr(loop_mc, "bridges", bridges_spy)
    monkeypatch.setattr(loop_mc, "batch_interaction", kernel_spy)
    for spec in (_grid(), _continuum()):
        n_samples = min(_batch_size(spec.intensity.total_mass + 1), 300)
        estimate_rel_partition(spec, n_samples, 1, workers=3)
        assert (bridge_calls, len(kernel_calls)) == ([3], 1)
        bridge_calls.clear(), kernel_calls.clear()
        estimate_gamma_p(spec, 1, [0], [1], n_samples, 2, workers=3)
        assert (bridge_calls, len(kernel_calls)) == ([3, 3], 1)
        bridge_calls.clear(), kernel_calls.clear()
