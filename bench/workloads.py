"""The benchmark's workloads: inputs made from the seed, a fixed schedule
of operations sized to the run length, and a check of every output.

Each workload runs in its own process, closed loop, one operation at a
time. The schedule is fixed by (seed, seconds): the same seed gives the
same inputs and the same operations, so count metrics repeat exactly and
two commits are timed on identical work. Operation counts are sized from
the nominal costs below, measured on a 2-core x86-64 box with one
OpenBLAS thread, so that a run of the package as of this benchmark's
introduction takes about `seconds`; a faster package finishes sooner.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from isinglearn import analysis, cli, experiments, graphs, ising, learners


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    """One call the benchmark times. `weight` is how many operations the
    call counts as (a sweep cell runs all its trials in one call)."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fingerprint: Callable[[Any], str]
    weight: int = 1


@dataclass
class Context:
    seed: int
    seconds: float
    work: Path  # scratch directory for the files a workload writes
    info: dict = field(default_factory=dict)  # recorded in the results file


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()[:16]


def _sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


# ---------------------------------------------------------------------------
# sweeps: criterion 10's two arms


# Seconds per trial on the reference box.
SWEEP_TRIAL_S = {"lo": 0.9, "hi": 4.3}

# Criterion 10's gates at its pinned trial counts: weak-arm best p_succ
# >= 0.8, strong-arm max p_succ <= 0.1. A run holds fewer trials, so each
# gate is moved by SWEEP_CHECK_Z binomial standard errors at the run's trial
# count T: p0 -/+ z * sqrt(p0 (1 - p0) / T). With z = 4 a program whose
# true rate sits exactly on the gate fails the check in about 3e-5 of runs
# (normal approximation), so the check flags broken recovery, not sampling
# noise.
SWEEP_CHECK_Z = 4.0
SWEEP_GATES = {"lo": ("min_best", 0.8), "hi": ("max", 0.1)}


def sweep_cell_digest(res) -> str:
    """Digest of the cell table without its runtime column, the only
    column that is not byte-stable at a fixed seed."""
    lines = [line.rsplit(",", 1)[0] for line in res.csv_lines(timestamp=False)]
    return _digest("\n".join(lines))


def sweep_gate(arm: str, trials: int) -> tuple[str, float]:
    kind, p0 = SWEEP_GATES[arm]
    se = math.sqrt(p0 * (1.0 - p0) / trials)
    return kind, (p0 - SWEEP_CHECK_Z * se if kind == "min_best" else p0 + SWEEP_CHECK_Z * se)


class SweepWorkload:
    """`run_sweep` on one arm of `recipe_regular_sweep(seed)`; one
    operation is one trial, and all trials of the cell run in one call."""

    latency_per_op = False

    def __init__(self, arm: str):
        self.arm = arm

    def trials(self, seconds: float) -> int:
        return max(1, round(seconds / SWEEP_TRIAL_S[self.arm]))

    def prepare(self, ctx: Context, rep: int) -> None:
        lo, hi = experiments.recipe_regular_sweep(seed=ctx.seed)
        base = lo if self.arm == "lo" else hi
        self.cfg = dataclasses.replace(base, trials=self.trials(ctx.seconds))
        # warm-up: one trial on inputs the timed phase does not use
        warm = dataclasses.replace(self.cfg, trials=1, seed=_sub_seed(ctx.seed, 99, rep))
        experiments.run_sweep(warm)
        kind, bound = sweep_gate(self.arm, self.cfg.trials)
        ctx.info["sweep_check"] = {
            "trials": self.cfg.trials,
            "rule": kind,
            "bound": bound,
            "derivation": f"p0={SWEEP_GATES[self.arm][1]} "
            f"{'-' if kind == 'min_best' else '+'} {SWEEP_CHECK_Z:g}"
            f"*sqrt(p0*(1-p0)/{self.cfg.trials})",
        }

    def check(self, res) -> None:
        cfg = self.cfg
        require(len(res.cells) == len(cfg.lambda0_grid), "missing sweep cells")
        require(all(c.trials == cfg.trials for c in res.cells), "cell trial count")
        kind, bound = sweep_gate(self.arm, cfg.trials)
        rates = [c.p_succ for c in res.cells]
        if kind == "min_best":
            require(max(rates) >= bound, f"weak arm best p_succ {max(rates):.3f} < {bound:.3f}")
        else:
            require(max(rates) <= bound, f"strong arm max p_succ {max(rates):.3f} > {bound:.3f}")

    def schedule(self, ctx: Context) -> list:
        cfg = self.cfg
        return [
            Op(
                label=f"sweep-{self.arm}",
                run=lambda: experiments.run_sweep(cfg),
                check=self.check,
                fingerprint=sweep_cell_digest,
                weight=cfg.trials,
            )
        ]


# ---------------------------------------------------------------------------
# exact population analysis


def _nominal_moments_s(p: int) -> float:
    """exact_moments seconds on a 4-regular graph on the reference box."""
    return 3.2 * 2.1 ** (p - 22)


THETA_BELOW, THETA_ABOVE = 0.30, 0.55  # either side of theta_thr(4) = 0.4203
REGULAR_INCOHERENCE = ((18, THETA_BELOW), (19, THETA_ABOVE), (20, THETA_BELOW),
                       (21, THETA_ABOVE), (22, THETA_BELOW))
EXACT_MAX_P = 24
REFERENCE_P = 12


def _load_reference(root: Path):
    """tests/_reference.py of the checkout, the brute-force oracle."""
    path = root / "tests" / "_reference.py"
    spec = importlib.util.spec_from_file_location("_bench_reference", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _corr_digest(dist) -> str:
    return _digest(np.round(dist.corr, 12).tobytes(), f"{dist.log_z:.12e}")


def _report_digest(rep) -> str:
    return _digest(f"{rep.norm:.12e}", np.round(rep.row_sums, 12).tobytes())


class ExactWorkload:
    """One operation is one report: incoherence reports on random 4-regular
    graphs (p 18..22, both sides of the crossing) and on a path, double-hub
    moments, the thresholding certificate at a hot and a cold coupling, the
    `thresholds` recipe, a brute-force-checked small instance, and one
    enumeration at the largest p the run length allows."""

    latency_per_op = True

    def __init__(self, root: Path):
        self.root = root

    def prepare(self, ctx: Context, rep: int) -> None:
        rng = np.random.default_rng(ctx.seed)

        def gseed() -> int:
            return int(rng.integers(2**31))

        self.ref_graph = graphs.make_random_regular(REFERENCE_P, 4, gseed())
        self.ref_theta = float(rng.uniform(0.2, 1.0))
        naive = _load_reference(self.root).naive_moments
        couplings = {e: self.ref_theta for e in self.ref_graph.sorted_edges()}
        self.ref_log_z, self.ref_corr = naive(self.ref_graph, couplings)
        self.regular = [
            (graphs.make_random_regular(p, 4, gseed()), th, int(rng.integers(1, p + 1)))
            for p, th in REGULAR_INCOHERENCE
        ]
        self.path_theta = float(rng.uniform(0.2, 1.0))
        self.path_root = int(rng.integers(2, 20))
        self.hub_theta = float(rng.uniform(0.1, 0.8))
        self.cert_seed = gseed()
        self.max_seed = gseed()
        g18, th18, r18 = self.regular[0]
        analysis.graph_incoherence(g18, th18, r18)  # warm-up

    # -- checks ------------------------------------------------------------

    def _check_reference(self, dist) -> None:
        require(abs(dist.log_z - self.ref_log_z) <= 1e-12, "log Z differs from brute force")
        err = max(abs(dist.corr[i - 1, j - 1] - v) for (i, j), v in self.ref_corr.items())
        require(err <= 1e-12, f"correlations differ from brute force by {err:.3e}")

    @staticmethod
    def _check_report(g, r):
        def check(rep):
            require(rep.neighbors == g.neighbors(r), "report neighborhood")
            require(np.isfinite(rep.norm) and rep.sigma_min > 0, "degenerate report")
        return check

    def _check_path(self, rep) -> None:
        err = abs(rep.norm - math.tanh(self.path_theta))
        require(err <= 1e-10, f"path incoherence off tanh(theta) by {err:.3e}")

    def _check_hub(self, dist) -> None:
        tc = analysis.toy_covariances(20, self.hub_theta)
        c = dist.corr
        err = max(abs(tc.e12 - c[0, 1]), abs(tc.e13 - c[0, 2]), abs(tc.e34 - c[2, 3]))
        require(err <= 1e-10, f"double-hub correlations off closed forms by {err:.3e}")

    @staticmethod
    def _check_cert(sign):
        def check(cert):
            require(cert.exact, "certificate not exact")
            require(cert.certificate * sign > 0, f"certificate {cert.certificate:+.4f}")
        return check

    @staticmethod
    def _check_thresholds(files) -> None:
        rows = dict(
            line.split(",") for line in Path(files[0]).read_text().splitlines()[1:]
        )
        require(abs(float(rows["theta_thr_delta4"]) - 0.4203) < 1e-3, "theta_thr(4)")

    @staticmethod
    def _check_moments(g, theta):
        def check(dist):
            c = dist.corr
            require(np.allclose(c, c.T, rtol=0, atol=1e-12), "corr not symmetric")
            require(np.all(np.abs(c) <= 1 + 1e-12), "corr outside [-1, 1]")
            require(np.all(np.diag(c) == 1.0), "corr diagonal")
            # positive couplings: p log 2 <= log Z <= p log 2 + theta |E|
            lo = g.p * math.log(2.0)
            require(lo - 1e-9 <= dist.log_z <= lo + theta * g.num_edges + 1e-9, "log Z range")
        return check

    # -- schedule ----------------------------------------------------------

    def schedule(self, ctx: Context) -> list:
        path = graphs.make_tree(20, "path")
        hub = graphs.make_toy_gp(20)
        out_dir = ctx.work / "thresholds"
        ops = [
            (0.002, Op("reference-p12",
                       lambda: ising.exact_moments(self.ref_graph, self.ref_theta),
                       self._check_reference, _corr_digest)),
            (0.01, Op("thresholds-recipe",
                      lambda: experiments.reproduce("thresholds", out_dir),
                      self._check_thresholds,
                      lambda files: _digest(Path(files[0]).read_bytes()))),
            (0.17, Op("certificate-hot",
                      lambda: analysis.thresholding_failure_certificate(
                          4, 1.2, 18, seed=self.cert_seed),
                      self._check_cert(+1), lambda c: f"{c.certificate:.12e}")),
            (0.17, Op("certificate-cold",
                      lambda: analysis.thresholding_failure_certificate(
                          4, 0.05, 18, seed=self.cert_seed),
                      self._check_cert(-1), lambda c: f"{c.certificate:.12e}")),
        ]
        # graph_incoherence costs about two enumerations: moments and Hessian
        heavy = [
            (2 * _nominal_moments_s(g.p),
             Op(f"incoherence-regular-p{g.p}-theta{th:g}",
                lambda g=g, th=th, r=r: analysis.graph_incoherence(g, th, r),
                self._check_report(g, r), _report_digest))
            for g, th, r in self.regular
        ]
        heavy += [
            (0.7, Op("moments-double-hub-p20",
                     lambda: ising.exact_moments(hub, self.hub_theta),
                     self._check_hub, _corr_digest)),
            (1.1, Op("incoherence-path-p20",
                     lambda: analysis.graph_incoherence(path, self.path_theta, self.path_root),
                     self._check_path, _report_digest)),
        ]
        heavy.sort(key=lambda item: item[0])
        budget = sum(c for c, _ in ops)
        for cost, op in heavy:
            if budget + cost > 0.75 * ctx.seconds:
                break
            ops.append((cost, op))
            budget += cost
        p_max = max(
            [18] + [p for p in range(18, EXACT_MAX_P + 1)
                    if _nominal_moments_s(p) <= ctx.seconds - budget]
        )
        g_max = graphs.make_random_regular(p_max, 4, self.max_seed)
        ops.append((_nominal_moments_s(p_max),
                    Op(f"moments-regular-p{p_max}",
                       lambda: ising.exact_moments(g_max, THETA_BELOW),
                       self._check_moments(g_max, THETA_BELOW), _corr_digest)))
        ctx.info["exact_max_p"] = p_max
        return [op for _, op in ops]


# ---------------------------------------------------------------------------
# the `learn` command, in process


TREE_P, TREE_THETA, TREE_DELTA = 15, 0.5, 3
REG_P, REG_THETA, REG_N = 30, 0.15, 10_000
# lambda = 2 lambda0 theta sqrt(log p / n), as in run_sweep. At lambda0 = 7
# exact recovery failed on 5 of 60 seeds (one extra edge each), so a check
# of exact recovery would fail on sampling noise; lambda0 = 10 recovered
# on all 60.
REG_LAMBDA0 = 10.0
RLR_TOL, RLR_MAX_ITER = 1e-5, 4000  # the regular-sweep recipe's solver settings
SAMPLER_BURN_IN, SAMPLER_THIN = 1000, 10
# Seconds per `learn` call on the reference box.
LEARN_OP_S = {"thr": 0.02, "ind": 0.95, "indd": 0.03, "rlr": 0.5}


class LearnCliWorkload:
    """`isinglearn learn` through `cli.main` on sample files written at
    set-up; one operation is one invocation, cycling thr, ind, indd, rlr."""

    latency_per_op = True

    def prepare(self, ctx: Context, rep: int) -> None:
        seed = ctx.seed
        self.tree = graphs.make_tree(TREE_P, "balanced", 2)
        self.reg = graphs.make_random_regular(REG_P, 4, _sub_seed(seed, 1))
        n_tree = learners.sample_bound("thr-tree", TREE_THETA, p=TREE_P)
        s_tree = ising.gibbs_sample(self.tree, TREE_THETA, n=n_tree, burn_in=SAMPLER_BURN_IN,
                                    thin=SAMPLER_THIN, seed=_sub_seed(seed, 2))
        s_reg = ising.gibbs_sample(self.reg, REG_THETA, n=REG_N, burn_in=SAMPLER_BURN_IN,
                                   thin=SAMPLER_THIN, seed=_sub_seed(seed, 3))
        self.lam = 2.0 * REG_LAMBDA0 * REG_THETA * math.sqrt(math.log(REG_P) / REG_N)
        self.files = {"tree": ctx.work / "tree.samples", "reg": ctx.work / "reg.samples"}
        ising.write_samples(s_tree, self.files["tree"])
        ising.write_samples(s_reg, self.files["reg"])
        # what the library learners return on the same samples
        eps, gamma, kappa = learners.default_ind_params(TREE_THETA, TREE_DELTA)
        self.expected = {
            "thr": learners.thresholding(
                ising.empirical_correlations(s_tree), learners.tau_tree(TREE_THETA)),
            "ind": learners.local_independence_test(s_tree, TREE_DELTA, eps, gamma),
            "indd": learners.local_independence_test_pruned(
                s_tree, TREE_DELTA, eps, gamma, kappa),
            "rlr": learners.rlr_graph(s_reg, self.lam, rule="and", tol=RLR_TOL,
                                      max_iter=RLR_MAX_ITER).graph,
        }
        ctx.info["learn_inputs"] = {
            "tree_n": n_tree, "reg_n": REG_N, "lambda": self.lam, "lambda0": REG_LAMBDA0,
        }
        self._learn("rlr", ctx)  # warm-up

    @staticmethod
    def outputs(alg: str, ctx: Context) -> tuple:
        return ctx.work / f"{alg}.graph", ctx.work / f"{alg}.jsonl"

    def argv(self, alg: str, ctx: Context) -> list:
        out, diag = self.outputs(alg, ctx)
        common = ["learn", "--alg", alg, "--out", str(out), "--diag", str(diag)]
        if alg == "rlr":
            return common + ["--samples", str(self.files["reg"]), "--lambda", repr(self.lam),
                             "--rule", "and", "--tol", repr(RLR_TOL),
                             "--max-iter", str(RLR_MAX_ITER)]
        common += ["--samples", str(self.files["tree"]), "--theta", repr(TREE_THETA)]
        if alg in ("ind", "indd"):
            common += ["--delta", str(TREE_DELTA)]
        return common

    def _learn(self, alg: str, ctx: Context) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv(alg, ctx))

    def _check(self, alg: str, ctx: Context):
        def check(code):
            require(code == 0, f"learn {alg} exited {code}")
            out, diag = self.outputs(alg, ctx)
            learned = graphs.read_graph(out)
            require(learned.edges == self.expected[alg].edges,
                    f"learn {alg} differs from the library learner")
            if alg == "thr":
                require(learned.edges == self.tree.edges, "thr missed the tree")
            if alg == "rlr":
                require(learned.edges == self.reg.edges, "rlr missed the graph")
                seen = {json.loads(line)["vertex"] for line in diag.read_text().splitlines()}
                require(seen == set(range(1, REG_P + 1)), "rlr diagnostics miss vertices")
        return check

    def _fingerprint(self, alg: str, ctx: Context):
        def fingerprint(code):
            out, diag = self.outputs(alg, ctx)
            return _digest(code, out.read_bytes(), diag.read_bytes())
        return fingerprint

    def schedule(self, ctx: Context) -> list:
        cycle = ("thr", "ind", "indd", "rlr")
        n_cycles = max(1, round(ctx.seconds / sum(LEARN_OP_S.values())))
        return [
            Op(f"learn-{alg}", lambda alg=alg: self._learn(alg, ctx),
               self._check(alg, ctx), self._fingerprint(alg, ctx))
            for _ in range(n_cycles)
            for alg in cycle
        ]


def make_workload(name: str, root: Path):
    if name == "sweep-weak":
        return SweepWorkload("lo")
    if name == "sweep-strong":
        return SweepWorkload("hi")
    if name == "exact-analysis":
        return ExactWorkload(root)
    if name == "learn-cli":
        return LearnCliWorkload()
    raise ValueError(f"unknown workload {name!r}")
