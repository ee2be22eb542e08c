"""Success-probability sweeps over (theta, lambda0, n) and pinned recipes.

Every sweep cell is scored by exact edge-set recovery and by the fraction
of correctly recovered per-vertex neighborhoods. Per-trial seeds derive
from (seed base, cell index, trial index), so serial and re-run executions
produce identical data.
"""
from __future__ import annotations

import ctypes
import itertools
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis
from .graphs import Graph, GraphFamilySpec, build_graph
from .ising import (SampleSet, _settings_from_sweeps, default_sampler_settings,
                    empirical_correlations, gibbs_sample)
from .learners import (
    LearnerConfig,
    RlrGraphResult,
    local_independence_test,
    local_independence_test_pruned,
    rlr_graph,
    thresholding,
)

# Pessimistic cost model: one work unit is roughly one single-site sampler
# update; solver work is folded in via an equivalent-update rate.
SECONDS_PER_UNIT = 2e-6
SOLVER_UNITS_PER_VERTEX_LAMBDA = 40_000.0


class BudgetExceeded(RuntimeError):
    """Estimated sweep cost is above the configured budget."""


@dataclass
class SweepConfig:
    family: GraphFamilySpec
    learner: LearnerConfig
    theta_grid: tuple
    n_grid: tuple
    lambda0_grid: tuple = (1.0,)
    trials: int = 20
    seed: int = 0
    fresh_graph_per_trial: bool = True
    # sampler policy: explicit burn_in/thin win over the mixing heuristic
    burn_in: int | None = None
    thin: int | None = None
    mixing_cap: int = 300
    budget_units: float = 2.0e9
    out: str | None = None

    def __post_init__(self):
        self.theta_grid = tuple(float(t) for t in self.theta_grid)
        self.n_grid = tuple(int(n) for n in self.n_grid)
        self.lambda0_grid = tuple(float(v) for v in self.lambda0_grid)
        if not self.theta_grid or not self.n_grid or not self.lambda0_grid:
            raise ValueError("grids must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mixing_cap < 1:
            raise ValueError(f"mixing_cap must be >= 1, got {self.mixing_cap}")
        if not all(0 < t < math.inf for t in self.theta_grid):
            raise ValueError(f"theta values must be finite and > 0, got {self.theta_grid}")
        if min(self.n_grid) < 1:
            raise ValueError(f"n values must be >= 1, got {self.n_grid}")
        if not all(math.isfinite(v) and v >= 0 for v in self.lambda0_grid):
            raise ValueError(f"lambda0 values must be finite and >= 0, got {self.lambda0_grid}")
        if not (math.isfinite(self.budget_units) and self.budget_units > 0):
            raise ValueError(f"budget_units must be finite and > 0, got {self.budget_units}")
        # trials are tallied by grid value and seeded by grid index, so a
        # repeated value would merge two cells into one
        for name in ("theta_grid", "n_grid", "lambda0_grid"):
            grid = getattr(self, name)
            repeated = next((v for i, v in enumerate(grid) if v in grid[:i]), None)
            if repeated is not None:
                raise ValueError(f"{name} repeats {repeated}: {grid}")
        # only rlr reads lambda0; the others run once, in one lambda0 = 0
        # cell, and take that grid back, as dataclasses.replace passes it
        if self.learner.alg != "rlr":
            if self.lambda0_grid not in (SweepConfig.lambda0_grid, (0.0,)):
                raise ValueError(f"lambda0_grid is read by learner 'rlr' only,"
                                 f" not {self.learner.alg!r}: {self.lambda0_grid}")
            self.lambda0_grid = (0.0,)


@dataclass(frozen=True)
class CellResult:
    theta: float
    lambda0: float
    n: int
    trials: int
    successes: int
    p_succ: float
    p_vertex: float
    mean_runtime_ms: float
    sampler_saturated: int
    unconverged: int  # trials whose rlr solve stopped at max_iter unconverged


@dataclass
class SweepResult:
    cells: list = field(default_factory=list)

    def best_over_lambda0(self, theta: float, n: int) -> CellResult:
        match = [
            c for c in self.cells if c.theta == theta and c.n == n
        ]
        if not match:
            raise KeyError((theta, n))
        return max(match, key=lambda c: c.p_succ)

    def csv_lines(self, timestamp: bool = True) -> list:
        lines = []
        if timestamp:
            lines.append(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}")
        lines.append("theta,lambda0,n,trials,p_succ,p_vertex,mean_runtime_ms")
        for c in self.cells:
            lines.append(
                f"{c.theta:g},{c.lambda0:g},{c.n},{c.trials},"
                f"{c.p_succ:.6f},{c.p_vertex:.6f},{c.mean_runtime_ms:.3f}"
            )
        return lines

    def write_csv(self, path) -> None:
        Path(path).write_text("\n".join(self.csv_lines()) + "\n")


def estimate_work_units(cfg: SweepConfig) -> float:
    """Deliberately high estimate of total sweep work in sampler-update
    equivalents (the runtime claim is estimate >= actual / 2). An unset
    burn_in or thin is bounded by the sampler's rule at a saturated mixing
    estimate of mixing_cap sweeps."""
    p = cfg.family.num_vertices
    burn, thin = _settings_from_sweeps(cfg.mixing_cap)
    burn = burn if cfg.burn_in is None else cfg.burn_in
    thin = thin if cfg.thin is None else cfg.thin
    total = 0.0
    for n in cfg.n_grid:
        sample_units = (burn + n * thin + cfg.mixing_cap) * p
        solver = SOLVER_UNITS_PER_VERTEX_LAMBDA * p * len(cfg.lambda0_grid)
        if cfg.learner.alg in ("ind", "indd"):
            solver = 2.0 * p * (2.0 * p) ** 2 * n / 50.0
        total += len(cfg.theta_grid) * cfg.trials * (sample_units + solver)
    return total


def estimate_seconds(cfg: SweepConfig) -> float:
    return estimate_work_units(cfg) * SECONDS_PER_UNIT


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sample_trial(cfg: SweepConfig, i_t: int, i_n: int, trial: int):
    """(graph, samples, sampler saturated, sampling ms) of one trial; its
    seeds come from (cfg.seed, i_t, i_n, trial) alone."""
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i_t, i_n, trial))
    g_seed, s_seed, m_seed = (int(v) for v in ss.generate_state(3))
    graph_seed = g_seed if cfg.fresh_graph_per_trial else cfg.seed
    g = build_graph(cfg.family, seed=graph_seed)
    theta = cfg.theta_grid[i_t]
    t_sample0 = time.perf_counter()
    burn, thin, est = default_sampler_settings(
        g, theta, cfg.burn_in, cfg.thin, m_seed, cfg.mixing_cap
    )
    s = gibbs_sample(g, theta, n=cfg.n_grid[i_n], burn_in=burn, thin=thin, seed=s_seed)
    saturated = est is not None and est.saturated
    return g, s, saturated, (time.perf_counter() - t_sample0) * 1000.0


def run_learner(
    cfg: LearnerConfig,
    s: SampleSet,
    theta: float,
    delta: int,
    lam: float | None = None,
    warm: RlrGraphResult | None = None,
) -> tuple[Graph, RlrGraphResult | None]:
    """Dispatch a configured learner on a sample set: (graph, the rlr
    result, or None for the other learners). rlr needs `lam` and resumes
    from `warm`, the rlr result of an earlier call on the same sample set
    (rlr_graph refuses any other); the other learners read neither."""
    cfg = cfg.resolved(theta, delta)
    if cfg.alg == "thr":
        return thresholding(empirical_correlations(s), cfg.tau), None
    if cfg.alg == "ind":
        return local_independence_test(s, delta, cfg.eps, cfg.gamma, rule=cfg.rule), None
    if cfg.alg == "indd":
        return local_independence_test_pruned(
            s, delta, cfg.eps, cfg.gamma, cfg.kappa, rule=cfg.rule
        ), None
    res = rlr_graph(s, lam, rule=cfg.rule, tol=cfg.tol, max_iter=cfg.max_iter, warm=warm)
    return res.graph, res


def _openblas() -> ctypes.CDLL | None:
    """numpy's BLAS as ctypes sees it: numpy.linalg's extension module,
    whose symbol lookup also searches the libraries it links, a bundled
    OpenBLAS among them. None where the module cannot be loaded so."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


def _pin_blas() -> bool:
    """Run numpy's bundled OpenBLAS on one thread in this process; whether
    it did. A no-op where _openblas() finds no such library. Sweep
    workers call it as they start: each learns as well as samples, and two
    workers with an OpenBLAS thread per core each made criterion 10's weak
    arm about four times slower on a 2-core box."""
    set_threads = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if set_threads is None:
        return False
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)
    return True


def _trial(cfg: SweepConfig, i_t: int, i_n: int, trial: int) -> list:
    """One trial of a sweep: its sample set, learned at every lambda0 from
    the largest down, each rlr solve warm-started from the one before.
    Per lambda0 in that order, a record of exact recovery, the vertex
    rate, the runtime share (the learn time and an equal share of the
    sampling time, in ms), sampler saturated, and rlr solve unconverged."""
    g, s, saturated, sample_ms = _sample_trial(cfg, i_t, i_n, trial)
    theta, n = cfg.theta_grid[i_t], cfg.n_grid[i_n]
    log_p = math.log(cfg.family.num_vertices)
    records, warm = [], None
    for lam0 in sorted(cfg.lambda0_grid, reverse=True):
        t_learn0 = time.perf_counter()
        lam = 2.0 * lam0 * theta * math.sqrt(log_p / n)
        learned, res = run_learner(cfg.learner, s, theta, g.max_degree or 1, lam, warm)
        warm = res
        learn_ms = (time.perf_counter() - t_learn0) * 1000.0
        records.append((
            learned.edges == g.edges,
            sum(learned.neighbors(v) == g.neighbors(v) for v in range(1, g.p + 1)) / g.p,
            learn_ms + sample_ms / len(cfg.lambda0_grid),
            saturated,
            res is not None and not res.all_converged,
        ))
    return records


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every (theta, lambda0, n) cell for the configured trial count.

    One sample set per (theta, n, trial) is shared across the lambda0 grid
    (regularization does not touch the sampler). Each cell learns through
    run_learner at lambda = 2 lambda0 theta sqrt(log p / n), warm-started
    from the next-larger lambda0's coefficients. Refuses to start if the
    pessimistic work estimate exceeds cfg.budget_units.

    With more than one trial and more than one available CPU, whole trials
    (sampling and learning) run in one worker process per CPU (at most one
    per trial), each with numpy's BLAS pinned to one thread, and this
    process tallies their records. A trial's seeds depend on its place in
    the grid alone, so the cells are those of a serial run.
    """
    units = estimate_work_units(cfg)
    if units > cfg.budget_units:
        raise BudgetExceeded(
            f"estimated {units:.3g} work units (~{units * SECONDS_PER_UNIT:.0f}s) "
            f"exceeds budget {cfg.budget_units:.3g}"
        )
    lam0s_desc = sorted(cfg.lambda0_grid, reverse=True)
    # (theta, lambda0, n) -> the records of its trials
    tally: dict = {}
    keys = list(itertools.product(
        range(len(cfg.theta_grid)), range(len(cfg.n_grid)), range(cfg.trials)
    ))
    workers = min(_available_cpus(), cfg.trials)
    pool = None
    if workers > 1:
        # imported here: it adds about 1 MB to processes that never pool
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, initializer=_pin_blas)
    try:
        mapper = pool.map if pool else map
        trials = mapper(_trial, itertools.repeat(cfg), *zip(*keys))
        for (i_t, i_n, _), records in zip(keys, trials):
            theta, n = cfg.theta_grid[i_t], cfg.n_grid[i_n]
            for lam0, record in zip(lam0s_desc, records):
                tally.setdefault((theta, lam0, n), []).append(record)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    out = SweepResult()
    for key in itertools.product(cfg.theta_grid, sorted(cfg.lambda0_grid), cfg.n_grid):
        wins, rates, ms, saturated, unconverged = map(sum, zip(*tally[key]))
        t = len(tally[key])
        out.cells.append(CellResult(*key, trials=t, successes=wins, p_succ=wins / t,
                                    p_vertex=rates / t, mean_runtime_ms=ms / t,
                                    sampler_saturated=saturated, unconverged=unconverged))
    if cfg.out:
        out.write_csv(cfg.out)
    return out


# ---------------------------------------------------------------------------
# pinned recipes

RECIPES = ("thresholds", "toy-match", "grid-sweep", "regular-sweep")

# Regularization grid bracketing the empirically best region for the
# desk-scale regular-graph sweep; the same grid serves the failure arm.
REGULAR_SWEEP_LAMBDA0 = (6.5, 6.75, 7.0, 7.25, 7.5)


def recipe_regular_sweep(seed: int = 0, trials_success: int = 50, trials_failure: int = 20):
    """Two sweep configs for the random-regular dichotomy: a weak-coupling
    arm that should recover, and a strong-coupling arm that should not."""
    fam = GraphFamilySpec(family="random-regular", p=30, delta=4)
    learner = LearnerConfig(alg="rlr", rule="and", tol=1e-5, max_iter=4000)
    lo = SweepConfig(
        family=fam,
        learner=learner,
        theta_grid=(0.15,),
        n_grid=(2000,),
        lambda0_grid=REGULAR_SWEEP_LAMBDA0,
        trials=trials_success,
        seed=seed,
        burn_in=2000,
        thin=25,
    )
    hi = SweepConfig(
        family=fam,
        learner=learner,
        theta_grid=(0.65,),
        n_grid=(10_000,),
        lambda0_grid=REGULAR_SWEEP_LAMBDA0,
        trials=trials_failure,
        seed=seed + 1,
        burn_in=3000,
        thin=30,
    )
    return lo, hi


def recipe_grid_sweep(seed: int = 0, trials: int = 8):
    """Desk-scale diluted-grid sweep: 5x5 grid, edges kept w.p. 0.7."""
    fam = GraphFamilySpec(family="diluted-grid", side=5, periodic=False, dilution=0.3)
    learner = LearnerConfig(alg="rlr", rule="and", tol=1e-5, max_iter=4000)
    return SweepConfig(
        family=fam,
        learner=learner,
        theta_grid=(0.2, 0.4, 0.6, 0.8, 1.0),
        n_grid=(1500,),
        lambda0_grid=(3.0, 6.0, 9.0),
        trials=trials,
        seed=seed,
        burn_in=2000,
        thin=15,
    )


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def _gnuplot_dat(path: Path, header: str, rows) -> None:
    lines = [f"# {header}"]
    lines += [" ".join(f"{v:g}" for v in row) for row in rows]
    _write_lines(path, lines)


def reproduce(name: str, out_dir, seed: int = 0) -> list:
    """Run a pinned recipe and write CSV + gnuplot + markdown artifacts.

    Returns the list of files written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if name == "thresholds":
        return _reproduce_thresholds(out)
    if name == "toy-match":
        return _reproduce_toy_match(out)
    if name == "grid-sweep":
        return _reproduce_grid_sweep(out, seed)
    if name == "regular-sweep":
        return _reproduce_regular_sweep(out, seed)
    raise ValueError(f"unknown recipe {name!r}; have {RECIPES}")


def _reproduce_thresholds(out: Path) -> list:
    thr4 = analysis.theta_thr(4, tol=1e-6)
    h_inf, theta_tilde = analysis.h_infinity()
    # the 5-vertex double-hub incoherence 3x(1+x^2)/(1+3x^2) crosses 1 where
    # 2x^3 = (1-x)^3, at x = tanh(theta) = 1/(1 + 2^(1/3))
    x_star = 1.0 / (1.0 + 2.0 ** (1.0 / 3.0))
    theta_star = math.atanh(x_star)
    theta_t5 = analysis.theta_T(3)
    rows = [
        ("theta_thr_delta4", thr4),
        ("x_star_gp5", x_star),
        ("theta_star_gp5", theta_star),
        ("theta_T_gp5", theta_t5),
        ("h_infinity", h_inf),
        ("theta_tilde", theta_tilde),
    ]
    csv = out / "thresholds.csv"
    _write_lines(csv, ["quantity,value"] + [f"{k},{v:.6f}" for k, v in rows])
    md = out / "thresholds.md"
    _write_lines(
        md,
        [
            "# Breakdown thresholds",
            "",
            "| quantity | value |",
            "|---|---|",
        ]
        + [f"| {k} | {v:.4f} |" for k, v in rows]
        + [
            "",
            "theta_thr_delta4 is the coupling where the limiting incoherence",
            "norm on random 4-regular graphs crosses 1; x_star/theta_star give",
            "the same crossing for the 5-vertex double-hub graph, and",
            "theta_T_gp5 the coupling where its indirect correlation overtakes",
            "the direct one.",
        ],
    )
    return [csv, md]


def _reproduce_toy_match(out: Path) -> list:
    theta_prime = 0.5
    rows = []
    for p in (5, 10, 20, 40, 80, 160):
        th = math.sqrt(theta_prime / p)
        e12 = analysis.toy_covariances(p, th).e12
        rows.append((p, th, e12, math.tanh(theta_prime), abs(e12 - math.tanh(theta_prime))))
    csv = out / "toy-match.csv"
    _write_lines(
        csv,
        ["p,theta,e12,single_edge_target,abs_err"]
        + [f"{p},{th:.6f},{e:.8f},{t:.8f},{d:.3e}" for p, th, e, t, d in rows],
    )
    dat = out / "toy-match.dat"
    _gnuplot_dat(dat, "p abs_err", [(r[0], r[4]) for r in rows])
    md = out / "toy-match.md"
    _write_lines(
        md,
        [
            "# Double-hub covariance matching",
            "",
            "Hub-hub correlation of the double-hub graph at theta = sqrt(0.5/p)",
            "versus the single-edge correlation tanh(0.5): the gap shrinks as",
            "p grows, so the two families become indistinguishable from",
            "low-dimensional marginals.",
            "",
            "| p | abs err |",
            "|---|---|",
        ]
        + [f"| {p} | {d:.2e} |" for p, _, _, _, d in rows],
    )
    return [csv, dat, md]


def _sweep_artifacts(res: SweepResult, out: Path, stem: str, md_extra: list) -> list:
    csv = out / f"{stem}.csv"
    res.write_csv(csv)
    dat = out / f"{stem}.dat"
    _gnuplot_dat(
        dat,
        "theta lambda0 n p_succ p_vertex",
        [(c.theta, c.lambda0, c.n, c.p_succ, c.p_vertex) for c in res.cells],
    )
    md = out / f"{stem}.md"
    lines = [f"# {stem}", ""]
    lines += md_extra
    lines += ["", "| theta | lambda0 | n | P_succ | P_vertex |", "|---|---|---|---|---|"]
    for c in res.cells:
        lines.append(
            f"| {c.theta:g} | {c.lambda0:g} | {c.n} | {c.p_succ:.3f} | {c.p_vertex:.3f} |"
        )
    _write_lines(md, lines)
    return [csv, dat, md]


def _reproduce_grid_sweep(out: Path, seed: int) -> list:
    res = run_sweep(recipe_grid_sweep(seed=seed))
    return _sweep_artifacts(
        res,
        out,
        "grid-sweep",
        [
            "Regularized regression on random subgraphs of a 5x5 grid",
            "(edges kept with probability 0.7). Success decays as theta",
            "approaches the diluted-grid ordering transition near 0.7.",
        ],
    )


def _reproduce_regular_sweep(out: Path, seed: int) -> list:
    lo_cfg, hi_cfg = recipe_regular_sweep(seed=seed)
    res_lo = run_sweep(lo_cfg)
    res_hi = run_sweep(hi_cfg)
    merged = SweepResult(res_lo.cells + res_hi.cells)
    thr = analysis.theta_thr(4, tol=1e-6)
    return _sweep_artifacts(
        merged,
        out,
        "regular-sweep",
        [
            "Regularized regression on random 4-regular graphs (p=30).",
            f"The limiting incoherence norm crosses 1 at theta = {thr:.4f};",
            "weak coupling (0.15) recovers at moderate n, strong coupling",
            "(0.65) fails for every regularization level.",
        ],
    )
