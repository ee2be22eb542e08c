import ctypes
import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import isinglearn.experiments as experiments
from isinglearn.graphs import GraphFamilySpec, build_graph, make_tree
from isinglearn.ising import gibbs_sample
from isinglearn.learners import LearnerConfig, rlr_graph
from isinglearn.experiments import (
    BudgetExceeded,
    SweepConfig,
    estimate_seconds,
    estimate_work_units,
    recipe_grid_sweep,
    recipe_regular_sweep,
    reproduce,
    run_sweep,
)


def tiny_config(**kw):
    base = dict(
        family=GraphFamilySpec(family="tree", p=8, shape="path"),
        learner=LearnerConfig(alg="thr", tau_rule="tree"),
        theta_grid=(0.6,),
        n_grid=(400,),
        trials=6,
        seed=11,
        burn_in=100,
        thin=2,
    )
    base.update(kw)
    return SweepConfig(**base)


def strip_runtime(lines):
    """CSV body rows without the timestamp header or the runtime column."""
    rows = [ln for ln in lines if not ln.startswith("#")]
    return [",".join(ln.split(",")[:-1]) for ln in rows]


class TestRunSweep:
    def test_deterministic_body(self):
        a = run_sweep(tiny_config())
        b = run_sweep(tiny_config())
        assert strip_runtime(a.csv_lines()) == strip_runtime(b.csv_lines())

    def test_csv_header(self):
        res = run_sweep(tiny_config(trials=2))
        lines = res.csv_lines(timestamp=False)
        assert lines[0] == "theta,lambda0,n,trials,p_succ,p_vertex,mean_runtime_ms"
        assert len(lines) == 2

    def test_exact_recovery_implies_vertex_success(self):
        res = run_sweep(tiny_config())
        for c in res.cells:
            assert 0.0 <= c.p_succ <= c.p_vertex <= 1.0
            assert c.trials == 6

    def test_thresholding_recovers_tree(self):
        res = run_sweep(tiny_config(theta_grid=(0.5,), n_grid=(2500,)))
        assert res.cells[0].p_succ >= 0.8

    def test_rlr_lambda_grid_cells(self):
        cfg = tiny_config(
            learner=LearnerConfig(alg="rlr", rule="and", tol=1e-4, max_iter=500),
            theta_grid=(0.4,),
            n_grid=(300,),
            lambda0_grid=(0.5, 2.0),
            trials=2,
        )
        res = run_sweep(cfg)
        assert {c.lambda0 for c in res.cells} == {0.5, 2.0}

    def test_non_rlr_collapses_lambda_grid(self):
        # a learner without lambda0 runs once, in a lambda0 = 0 cell; a
        # grid set to anything else than the default (or that cell) is
        # refused, not replaced, and a repeated one as in every grid
        assert tiny_config().lambda0_grid == (0.0,)
        assert tiny_config(lambda0_grid=(1,)).lambda0_grid == (0.0,)
        assert dataclasses.replace(tiny_config(), trials=2).lambda0_grid == (0.0,)
        for alg in ("thr", "ind", "indd"):
            with pytest.raises(ValueError, match=rf"^lambda0_grid is read by learner 'rlr'"
                               rf" only, not '{alg}': \(0.5, 1.0, 2.0\)$"):
                tiny_config(learner=LearnerConfig(alg), lambda0_grid=(0.5, 1.0, 2.0))
        with pytest.raises(ValueError, match=r"^lambda0_grid repeats 1.0: \(1.0, 1.0\)$"):
            tiny_config(lambda0_grid=(1.0, 1.0))

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"budget_units": math.nan}, "budget_units must be finite and > 0"),
            ({"budget_units": -5.0}, "budget_units must be finite and > 0"),
            ({"budget_units": 0.0}, "budget_units must be finite and > 0"),
            ({"budget_units": math.inf}, "budget_units must be finite and > 0"),
            ({"lambda0_grid": (1.0, math.nan)}, "lambda0 values must be finite and >= 0"),
            ({"lambda0_grid": (-0.5,)}, "lambda0 values must be finite and >= 0"),
            ({"lambda0_grid": (math.inf,)}, "lambda0 values must be finite and >= 0"),
            ({"theta_grid": (math.nan,)}, "theta values must be finite"),
            ({"theta_grid": (0.6, math.inf)}, "theta values must be finite"),
            ({"theta_grid": (-math.inf,)}, "theta values must be finite"),
            ({"n_grid": (0,)}, r"n values must be >= 1, got \(0,\)"),
            ({"n_grid": (400, -3)}, r"n values must be >= 1, got \(400, -3\)"),
            # rlr refused a coupling <= 0 by its lambda, thr and ind after
            # sampling, and rlr at lambda0 = 0 ran it
            ({"theta_grid": (0.6, 0.0)}, r"finite and > 0, got \(0.6, 0.0\)"),
            ({"theta_grid": (-0.3,)}, r"finite and > 0, got \(-0.3,\)"),
            # numpy's seed message named no key; with burn_in and thin given
            # mixing_cap went unused, and without them estimate_mixing named
            # its own parameter
            ({"seed": -1}, r"seed must be >= 0, got -1"),
            ({"mixing_cap": -4}, r"mixing_cap must be >= 1, got -4"),
            ({"mixing_cap": 0, "burn_in": None, "thin": None}, r"mixing_cap must be >= 1, got 0"),
            # trials are tallied by value and seeded by index: theta_grid =
            # (0.6, 0.6) with 2 trials gave two identical cells of 4 trials
            ({"theta_grid": (0.6, 0.6)}, r"^theta_grid repeats 0.6: \(0.6, 0.6\)$"),
            ({"n_grid": (200, 300, 200.0)}, r"^n_grid repeats 200: \(200, 300, 200\)$"),
            ({"learner": LearnerConfig(alg="rlr"), "lambda0_grid": (1.0, 2.0, 1)},
             r"^lambda0_grid repeats 1.0: \(1.0, 2.0, 1.0\)$"),
        ],
    )
    def test_rejects_bad_values(self, kw, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**kw)

    def test_counts_unconverged_rlr_solves(self):
        rlr = dict(theta_grid=(0.6,), n_grid=(300,), lambda0_grid=(0.5, 2.0), trials=3)
        res = run_sweep(tiny_config(
            learner=LearnerConfig(alg="rlr", rule="and", tol=1e-5, max_iter=2), **rlr))
        assert [c.unconverged for c in res.cells] == [3, 3]
        res = run_sweep(tiny_config(
            learner=LearnerConfig(alg="rlr", rule="and", tol=1e-5, max_iter=4000), **rlr))
        assert [c.unconverged for c in res.cells] == [0, 0]
        assert [c.unconverged for c in run_sweep(tiny_config(trials=2)).cells] == [0]

    def test_budget_refusal_mentions_estimate(self):
        cfg = tiny_config(budget_units=10.0)
        with pytest.raises(BudgetExceeded, match="work units"):
            run_sweep(cfg)

    def test_estimate_errs_high(self):
        cfg = tiny_config()
        t0 = time.perf_counter()
        run_sweep(cfg)
        elapsed = time.perf_counter() - t0
        assert estimate_seconds(cfg) >= elapsed / 2

    def test_fixed_graph_mode(self):
        cfg = tiny_config(
            family=GraphFamilySpec(family="random-regular", p=10, delta=3),
            fresh_graph_per_trial=False,
            trials=3,
        )
        res = run_sweep(cfg)
        assert res.cells[0].trials == 3


def rlr_grid_config(**kw):
    """Two theta, two lambda0 and three trials of a small rlr sweep."""
    base = dict(
        family=GraphFamilySpec(family="random-regular", p=10, delta=3),
        learner=LearnerConfig(alg="rlr", rule="and", tol=1e-4, max_iter=500),
        theta_grid=(0.3, 0.6),
        n_grid=(300,),
        lambda0_grid=(0.5, 2.0),
        trials=3,
    )
    base.update(kw)
    return tiny_config(**base)


def sweep_with_cpus(cfg, cpus):
    with mock.patch.object(experiments, "_available_cpus", return_value=cpus):
        return run_sweep(cfg)


def without_runtime(res):
    return [dataclasses.replace(c, mean_runtime_ms=0.0) for c in res.cells]


class TestSampleWorkers:
    def test_worker_count_keeps_cells(self):
        cfg = rlr_grid_config()
        sample = mock.Mock(wraps=experiments.gibbs_sample)
        learn = mock.Mock(wraps=experiments.run_learner)
        with mock.patch.object(experiments, "gibbs_sample", sample), \
                mock.patch.object(experiments, "run_learner", learn):
            serial = sweep_with_cpus(cfg, 1)
            # one sample set per (theta, trial), one solve per lambda0 of each
            assert (sample.call_count, learn.call_count) == (6, 12)
            pooled = sweep_with_cpus(cfg, 2)
            # the workers sampled and learned, not this process
            assert (sample.call_count, learn.call_count) == (6, 12)
        assert without_runtime(pooled) == without_runtime(serial)
        assert len({(c.p_succ, c.p_vertex) for c in serial.cells}) > 1
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a patched sampler reaches forked workers only",
    )
    def test_worker_error_reaches_caller_and_cancels_queue(self, tmp_path):
        cfg = tiny_config(trials=16)
        state = np.random.SeedSequence(cfg.seed, spawn_key=(0, 0, 1)).generate_state(3)
        bad_seed = int(state[1])
        real = experiments.gibbs_sample

        def flaky(g, theta, n, burn_in, thin, seed):
            (tmp_path / str(seed)).touch()
            if seed == bad_seed:
                raise RuntimeError("sampler failed")
            time.sleep(0.2)
            return real(g, theta, n=n, burn_in=burn_in, thin=thin, seed=seed)

        with mock.patch.object(experiments, "gibbs_sample", flaky):
            with pytest.raises(RuntimeError, match="sampler failed"):
                sweep_with_cpus(cfg, 2)
        assert multiprocessing.active_children() == []
        assert (tmp_path / str(bad_seed)).exists()
        assert len(list(tmp_path.iterdir())) < cfg.trials

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a patched learner reaches forked workers only",
    )
    def test_learner_error_reaches_caller_and_cancels_queue(self, tmp_path):
        cfg = tiny_config(trials=16)
        state = np.random.SeedSequence(cfg.seed, spawn_key=(0, 0, 1)).generate_state(3)
        bad_seed = int(state[1])
        real = experiments.run_learner

        def flaky(learner, s, *args):
            (tmp_path / str(s.seed)).touch()
            if s.seed == bad_seed:
                raise RuntimeError("learner failed")
            time.sleep(0.2)
            return real(learner, s, *args)

        with mock.patch.object(experiments, "run_learner", flaky):
            with pytest.raises(RuntimeError, match="learner failed"):
                sweep_with_cpus(cfg, 2)
        assert multiprocessing.active_children() == []
        assert (tmp_path / str(bad_seed)).exists()
        assert len(list(tmp_path.iterdir())) < cfg.trials

    def test_workers_pin_blas_to_one_thread(self):
        lib = experiments._openblas()
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if set_threads is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        before = get_threads()
        try:
            assert experiments._pin_blas() is True
            assert get_threads() == 1
        finally:
            set_threads(before)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a patched library lookup reaches forked workers only",
    )
    def test_workers_without_blas_library_give_serial_table(self, tmp_path):
        # the pin is a no-op where the lookup finds no library: each worker
        # still starts, and the table is the serial one
        def nothing():
            (tmp_path / str(os.getpid())).touch()
            return None

        cfg = rlr_grid_config()
        with mock.patch.object(experiments, "_openblas", nothing):
            assert experiments._pin_blas() is False
            pooled = sweep_with_cpus(cfg, 2)
        assert len(list(tmp_path.iterdir())) == 3  # this process and two workers
        assert without_runtime(pooled) == without_runtime(sweep_with_cpus(cfg, 1))
        assert multiprocessing.active_children() == []

    def test_spawned_workers_give_serial_table(self, tmp_path):
        # the worker function and its arguments must pickle for the spawn
        # and forkserver start methods
        cfg = rlr_grid_config()
        script = tmp_path / "spawn_sweep.py"
        script.write_text(
            "import multiprocessing\n"
            "from unittest import mock\n"
            "from isinglearn import experiments\n"
            "from isinglearn.experiments import SweepConfig\n"
            "from isinglearn.graphs import GraphFamilySpec\n"
            "from isinglearn.learners import LearnerConfig\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            f"    cfg = {cfg!r}\n"
            "    with mock.patch.object(experiments, '_available_cpus', return_value=2):\n"
            "        res = experiments.run_sweep(cfg)\n"
            "    assert multiprocessing.active_children() == []\n"
            "    print('\\n'.join(res.csv_lines(timestamp=False)))\n"
        )
        src = str(Path(experiments.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        ).stdout
        serial = sweep_with_cpus(cfg, 1)
        assert strip_runtime(out.splitlines()) == strip_runtime(serial.csv_lines())


class TestRunLearner:
    def test_rlr_is_rlr_graph_from_the_warm_start(self):
        g = GraphFamilySpec(family="random-regular", p=10, delta=3)
        s = gibbs_sample(build_graph(g, seed=2), 0.4, n=600, burn_in=100, thin=3, seed=4)
        cfg = LearnerConfig(alg="rlr", rule="and", tol=1e-6, max_iter=50)
        warm = rlr_graph(s, 0.2, tol=1e-6)
        learned, res = experiments.run_learner(cfg, s, 0.4, 3, 0.08, warm)
        want = rlr_graph(s, 0.08, rule="and", tol=1e-6, max_iter=50, warm=warm)
        assert learned == res.graph == want.graph
        assert res.theta.tobytes() == want.theta.tobytes()
        for r, est in want.estimates.items():
            got = res.estimates[r]
            assert (got.objective, got.residual, got.iterations) == (
                est.objective, est.residual, est.iterations)
            assert got.theta.tobytes() == est.theta.tobytes()
        # the warm start is read: from zero the solve takes other steps
        cold = experiments.run_learner(cfg, s, 0.4, 3, 0.08)[1]
        assert [e.iterations for e in cold.estimates.values()] != [
            e.iterations for e in res.estimates.values()]

    @pytest.mark.parametrize("alg", ["thr", "ind", "indd"])
    def test_other_learners_have_no_rlr_result(self, alg):
        s = gibbs_sample(make_tree(6, "path"), 0.6, n=2000, burn_in=100, thin=2, seed=1)
        warm = np.ones((6, 6))  # read by no learner but rlr
        learned, res = experiments.run_learner(LearnerConfig(alg), s, 0.6, 2, 0.3, warm)
        assert res is None
        assert learned == experiments.run_learner(LearnerConfig(alg), s, 0.6, 2)[0]

    def test_sweep_learns_once_per_trial_and_lambda0(self):
        # every solve of a sweep goes through run_learner and, for rlr,
        # through the rlr_graph that experiments imports, warm-started
        # from the result at the larger lambda0 of the same trial
        cfg = rlr_grid_config()
        solved = []  # (warm start, result) of each solve

        def spy(*args, **kw):
            solved.append((kw["warm"], rlr_graph(*args, **kw)))
            return solved[-1][1]

        learn = mock.Mock(wraps=experiments.run_learner)
        with mock.patch.object(experiments, "run_learner", learn), \
                mock.patch.object(experiments, "rlr_graph", side_effect=spy):
            sweep_with_cpus(cfg, 1)
        assert learn.call_count == len(solved) == 2 * 3 * 2  # theta, trials, lambda0
        for (cold, first), (warm, _) in zip(solved[::2], solved[1::2]):
            assert cold is None and warm is first


def mixing_config(**kw):
    """A sweep that leaves burn_in and thin to the mixing estimate."""
    base = dict(
        family=GraphFamilySpec(family="random-regular", p=10, delta=3),
        learner=LearnerConfig(alg="thr", tau_rule="tree"),
        theta_grid=(0.3, 0.9),
        n_grid=(400,),
        trials=4,
        seed=11,
    )
    base.update(kw)
    return SweepConfig(**base)


class TestMixingEstimatePath:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pinned_cells(self, cpus):
        res = sweep_with_cpus(mixing_config(), cpus)
        assert strip_runtime(res.csv_lines(timestamp=False)) == [
            "theta,lambda0,n,trials,p_succ,p_vertex",
            "0.3,0,400,4,0.000000,0.150000",
            "0.9,0,400,4,0.000000,0.000000",
        ]
        assert [c.sampler_saturated for c in res.cells] == [0, 2]
        assert multiprocessing.active_children() == []

    def test_estimate_errs_high(self):
        cfg = mixing_config(mixing_cap=1000)
        t0 = time.perf_counter()
        run_sweep(cfg)
        elapsed = time.perf_counter() - t0
        assert estimate_seconds(cfg) >= elapsed / 2

    def test_estimate_takes_the_sampler_rule_at_the_cap(self):
        # burn_in 10 * 1000 and thin min(50, 1000 // 10) per trial, for
        # 2 thetas x 4 trials of 10 sites, plus 40,000 solver units per site
        cfg = mixing_config(mixing_cap=1000)
        assert estimate_work_units(cfg) == 8 * ((10_000 + 400 * 50 + 1000) * 10 + 400_000)
        cfg = mixing_config(mixing_cap=300, burn_in=5, thin=2)
        assert estimate_work_units(cfg) == 8 * ((5 + 400 * 2 + 300) * 10 + 400_000)


class TestDilutedGridRegime:
    def test_seven_grid_vertex_success_dichotomy(self):
        # 7x7 grid with edges kept w.p. 0.7 at n=4500: per-vertex recovery
        # is essentially perfect at weak coupling, while at strong coupling
        # whole-graph recovery stays rare for every regularization level
        fam = GraphFamilySpec(family="diluted-grid", side=7, dilution=0.3)
        learner = LearnerConfig(alg="rlr", rule="and", tol=1e-4, max_iter=2500)
        lo = run_sweep(
            SweepConfig(
                family=fam,
                learner=learner,
                theta_grid=(0.3,),
                n_grid=(4500,),
                lambda0_grid=(3.0, 5.0, 7.0),
                trials=8,
                seed=0,
                burn_in=2000,
                thin=10,
            )
        )
        assert max(c.p_vertex for c in lo.cells) >= 0.8
        hi = run_sweep(
            SweepConfig(
                family=fam,
                learner=learner,
                theta_grid=(1.0,),
                n_grid=(4500,),
                lambda0_grid=(3.0, 5.0, 7.0),
                trials=8,
                seed=1,
                burn_in=3000,
                thin=30,
            )
        )
        assert all(c.p_succ <= 0.2 for c in hi.cells)


class TestRecipes:
    def test_recipe_configs_within_budget(self):
        lo, hi = recipe_regular_sweep()
        assert estimate_work_units(lo) <= lo.budget_units
        assert estimate_work_units(hi) <= hi.budget_units
        gs = recipe_grid_sweep()
        assert estimate_work_units(gs) <= gs.budget_units

    def test_thresholds_artifacts(self, tmp_path):
        files = reproduce("thresholds", tmp_path)
        names = {f.name for f in files}
        assert names == {"thresholds.csv", "thresholds.md"}
        assert (tmp_path / "thresholds.csv").read_text() == (
            "quantity,value\n"
            "theta_thr_delta4,0.420313\n"
            "x_star_gp5,0.442493\n"
            "theta_star_gp5,0.475327\n"
            "theta_T_gp5,0.609378\n"
            "h_infinity,1.199679\n"
            "theta_tilde,1.439229\n"
        )

    def test_toy_match_artifacts(self, tmp_path):
        files = reproduce("toy-match", tmp_path)
        names = {f.name for f in files}
        assert names == {"toy-match.csv", "toy-match.dat", "toy-match.md"}
        rows = (tmp_path / "toy-match.csv").read_text().splitlines()
        assert rows[0] == "p,theta,e12,single_edge_target,abs_err"
        errs = [float(r.split(",")[-1]) for r in rows[1:]]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_grid_sweep_artifacts(self, tmp_path):
        files = reproduce("grid-sweep", tmp_path)
        names = {f.name for f in files}
        assert names == {"grid-sweep.csv", "grid-sweep.dat", "grid-sweep.md"}
        rows = [
            ln
            for ln in (tmp_path / "grid-sweep.csv").read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("theta,")
        ]
        cells = [(float(r.split(",")[0]), float(r.split(",")[4])) for r in rows]
        best = {}
        for theta, p_succ in cells:
            best[theta] = max(best.get(theta, 0.0), p_succ)
        assert best[0.2] >= 0.8
        assert best[1.0] <= 0.5

    def test_regular_sweep_artifacts(self, tmp_path, monkeypatch):
        import isinglearn.experiments as exp

        monkeypatch.setattr(
            exp,
            "recipe_regular_sweep",
            lambda seed=0: recipe_regular_sweep(
                seed=seed, trials_success=2, trials_failure=1
            ),
        )
        files = reproduce("regular-sweep", tmp_path)
        names = {f.name for f in files}
        assert names == {"regular-sweep.csv", "regular-sweep.dat", "regular-sweep.md"}
        md = (tmp_path / "regular-sweep.md").read_text()
        assert "0.4203" in md

    def test_unknown_recipe(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce("nope", tmp_path)
