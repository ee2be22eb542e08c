"""Command-line interface: sample, learn, analyze, sweep, reproduce."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, experiments
from .graphs import GenerationFailure, GraphFamilySpec, read_graph, write_graph
from .ising import (
    _seeded_settings,
    empirical_correlations,
    gibbs_sample,
    read_samples,
    sampler_loop,
    write_correlations_csv,
    write_samples,
)
from .learners import (
    LearnerConfig,
    local_independence_test,
    local_independence_test_pruned,
    rlr_graph,
    thresholding,
)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, frozenset):
        return sorted(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _warn_of_slow_loop() -> None:
    loop = sampler_loop()
    if loop == "python":
        print("isinglearn: warning: no usable C compiler; sampled with the Python heat-bath"
              " loop, which gives the same samples several times slower", file=sys.stderr)
    elif loop == "numpy-draws":
        print(f"isinglearn: warning: the compiled sampler's copy of numpy's draws does not"
              f" match numpy {np.__version__}; sampled with numpy's own draws, which gives"
              f" the same samples more slowly", file=sys.stderr)


def _cmd_sample(args) -> int:
    g = read_graph(args.graph)
    burn_in, thin, est, _ = _seeded_settings(
        g, args.theta, args.burn_in, args.thin, args.seed, args.mixing_cap
    )
    s = gibbs_sample(g, args.theta, n=args.n, burn_in=burn_in, thin=thin, seed=args.seed)
    _warn_of_slow_loop()
    if est is not None and est.saturated:
        unset = " and ".join(k for k, v in (("burn-in", args.burn_in), ("thin", args.thin))
                             if v is None)
        print(f"isinglearn: warning: {unset} came from a mixing estimate that reached"
              f" mixing_cap = {args.mixing_cap} sweeps", file=sys.stderr)
    write_samples(s, args.out)
    if args.corr_out:
        write_correlations_csv(empirical_correlations(s), args.corr_out)
    print(f"wrote {s.n} samples of p={s.p} to {args.out} "
          f"(burn_in={s.burn_in}, thin={s.thin})")
    return 0


def _cmd_learn(args) -> int:
    flags = ("alg", "tau", "eps", "gamma", "kappa", "rule", "tol", "max_iter")
    # a flag left unset takes LearnerConfig's default
    given = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    cfg = LearnerConfig(**given).resolved(args.theta, args.delta)
    s = read_samples(args.samples)
    diag_path = args.diag or (str(args.out) + ".jsonl")
    diags = []
    if cfg.alg == "thr":
        learned = thresholding(empirical_correlations(s), cfg.tau)
        diags.append({"alg": "thr", "tau": cfg.tau})
    elif cfg.alg in ("ind", "indd"):
        if cfg.alg == "ind":
            learned = local_independence_test(s, args.delta, cfg.eps, cfg.gamma, rule=cfg.rule)
        else:
            learned = local_independence_test_pruned(
                s, args.delta, cfg.eps, cfg.gamma, cfg.kappa, rule=cfg.rule
            )
        diags.append({"alg": cfg.alg, "eps": cfg.eps, "gamma": cfg.gamma, "kappa": cfg.kappa})
    else:
        res = rlr_graph(s, args.lam, rule=cfg.rule, tol=cfg.tol,
                        max_iter=cfg.max_iter)
        learned = res.graph
        for r, est in sorted(res.estimates.items()):
            diags.append(
                {
                    "vertex": r,
                    "converged": est.converged,
                    "iterations": est.iterations,
                    "objective": est.objective,
                    "residual": est.residual,
                    "neighbors": sorted(est.neighbors),
                }
            )
        unconverged = sum(not est.converged for est in res.estimates.values())
        if unconverged:
            print(f"isinglearn: warning: {unconverged} of {s.p} rlr roots did not reach"
                  f" tol = {cfg.tol:g} within max_iter = {cfg.max_iter} Newton steps",
                  file=sys.stderr)
    write_graph(learned, args.out)
    with open(diag_path, "w") as fh:
        for d in diags:
            fh.write(json.dumps(_jsonable(d)) + "\n")
    print(f"wrote {learned.num_edges} edges to {args.out}; diagnostics in {diag_path}")
    return 0


_ANALYZE_NEEDS = {
    "incoherence": ("graph", "theta"),
    "tree-limit": ("theta",),
    "incoherence-sweep": ("graph",),
}


def _cmd_analyze(args) -> int:
    for flag in _ANALYZE_NEEDS.get(args.report, ()):
        if getattr(args, flag) is None:
            raise ValueError(f"analyze {args.report} needs --{flag}")
    if args.report == "incoherence":
        g = read_graph(args.graph)
        rep = analysis.graph_incoherence(g, args.theta, args.root)
        Path(args.out).write_text(json.dumps(_jsonable(rep), indent=2) + "\n")
    elif args.report == "tree-limit":
        rep = analysis.tree_limit_report(args.delta, args.theta)
        Path(args.out).write_text(json.dumps(_jsonable(rep), indent=2) + "\n")
    else:  # b-sweep, incoherence-sweep, x-sweep
        if not np.isfinite([args.theta_min, args.theta_max]).all():
            raise ValueError(f"analyze {args.report} needs a finite --theta-min and --theta-max")
        thetas = np.linspace(args.theta_min, args.theta_max, args.points)
        rows = []
        if args.report == "b-sweep":
            if args.delta < 4:
                raise ValueError(f"analyze b-sweep needs --delta >= 4, got {args.delta}")
            header = "theta,b_limit"
            for th in thetas:
                try:
                    rep = analysis.tree_limit_report(args.delta, float(th))
                    rows.append(f"{th:.6f},{rep.incoherence_limit:.10f}")
                except ValueError:
                    rows.append(f"{th:.6f},nan")
        elif args.report == "x-sweep":
            header = "theta,x_delta"
            for th in thetas:
                rows.append(f"{th:.6f},{analysis.gp_neighbor_corr(args.delta, float(th)):.10f}")
        else:
            g = read_graph(args.graph)
            header = "theta,incoherence"
            for th in thetas:
                rep = analysis.graph_incoherence(g, float(th), args.root)
                rows.append(f"{th:.6f},{rep.norm:.10f}")
        Path(args.out).write_text("\n".join([header] + rows) + "\n")
    print(f"wrote {args.out}")
    return 0


def _parse_kv_config(path, keys, required) -> dict:
    """Flat `key = value` lines; '#' starts a comment. Every key must be one
    of `keys` and appear once at most, and every key in `required` must
    appear. Returns {key: (line number, value)}."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`")
        k, v = (part.strip() for part in line.split("=", 1))
        if k not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {k!r}")
        if k in out:
            raise ValueError(f"{path}:{lineno}: key {k!r} repeats line {out[k][0]}")
        out[k] = (lineno, v)
    for k in required:
        if k not in out:
            raise ValueError(f"{path}: missing required key {k!r}")
    return out


def _floats(v: str) -> tuple:
    return tuple(float(x) for x in v.split(","))


def _ints(v: str) -> tuple:
    return tuple(int(x) for x in v.split(","))


def _bool(v: str) -> bool:
    if v.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {v!r}")
    return v.lower() in ("1", "true", "yes")


# config key -> (part of the SweepConfig, field of that part, value parser);
# a key left out of the file takes the field's dataclass default
_SWEEP_KEYS = {
    "family": ("family", "family", str),
    "p": ("family", "p", int),
    "delta": ("family", "delta", int),
    "deg": ("family", "deg", int),
    "side": ("family", "side", int),
    "periodic": ("family", "periodic", _bool),
    "rho": ("family", "dilution", float),
    "shape": ("family", "shape", str),
    "branching": ("family", "branching", int),
    "learner": ("learner", "alg", str),
    "tau": ("learner", "tau", float),
    "tau_rule": ("learner", "tau_rule", str),
    "eps": ("learner", "eps", float),
    "gamma": ("learner", "gamma", float),
    "kappa": ("learner", "kappa", float),
    "rule": ("learner", "rule", str),
    "tol": ("learner", "tol", float),
    "max_iter": ("learner", "max_iter", int),
    "theta_grid": ("sweep", "theta_grid", _floats),
    "n_grid": ("sweep", "n_grid", _ints),
    "lambda0_grid": ("sweep", "lambda0_grid", _floats),
    "trials": ("sweep", "trials", int),
    "seed": ("sweep", "seed", int),
    "fresh_graph": ("sweep", "fresh_graph_per_trial", _bool),
    "burn_in": ("sweep", "burn_in", int),
    "thin": ("sweep", "thin", int),
    "mixing_cap": ("sweep", "mixing_cap", int),
    "budget_units": ("sweep", "budget_units", float),
    "out": ("sweep", "out", str),
}
_SWEEP_REQUIRED = ("family", "theta_grid", "n_grid")


def sweep_config_from_file(path) -> experiments.SweepConfig:
    parts = {"family": {}, "learner": {}, "sweep": {}}
    for key, (lineno, value) in _parse_kv_config(path, _SWEEP_KEYS, _SWEEP_REQUIRED).items():
        part, field, parse = _SWEEP_KEYS[key]
        try:
            parts[part][field] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: key {key!r}: {exc}") from None
    return experiments.SweepConfig(
        family=GraphFamilySpec(**parts["family"]),
        learner=LearnerConfig(**parts["learner"]),
        **parts["sweep"],
    )


def _cmd_sweep(args) -> int:
    cfg = sweep_config_from_file(args.config)
    if args.out:
        cfg.out = args.out
    res = experiments.run_sweep(cfg)
    _warn_of_slow_loop()
    # every lambda0 cell of a (theta, n) shares its trials: count one
    lam0 = min(cfg.lambda0_grid)
    saturated = sum(c.sampler_saturated for c in res.cells if c.lambda0 == lam0)
    if saturated:
        total = len(cfg.theta_grid) * len(cfg.n_grid) * cfg.trials
        print(f"isinglearn: warning: {saturated} of {total} trials took burn-in and thin"
              f" from a mixing estimate that reached mixing_cap = {cfg.mixing_cap} sweeps",
              file=sys.stderr)
    unconverged = sum(c.unconverged for c in res.cells)
    if unconverged:
        solves = sum(c.trials for c in res.cells)
        print(f"isinglearn: warning: {unconverged} of {solves} rlr solves did not reach"
              f" tol = {cfg.learner.tol:g} within max_iter = {cfg.learner.max_iter} Newton steps",
              file=sys.stderr)
    if not cfg.out:
        for line in res.csv_lines(timestamp=False):
            print(line)
    else:
        print(f"wrote {cfg.out}")
    return 0


def _cmd_reproduce(args) -> int:
    files = experiments.reproduce(args.name, args.out, seed=args.seed)
    print("wrote:", ", ".join(str(f) for f in files))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isinglearn",
        description="Learn Ising model structure from samples and analyze "
        "when learning breaks down.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("sample", help="draw Gibbs samples from a graph file")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    sp.add_argument("--thin", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mixing-cap", dest="mixing_cap", type=int, default=1000)
    sp.add_argument("--out", required=True)
    sp.add_argument("--corr-out", dest="corr_out", default=None)
    sp.set_defaults(fn=_cmd_sample)

    lp = sub.add_parser("learn", help="reconstruct an edge set from samples")
    lp.add_argument("--alg", choices=("thr", "ind", "indd", "rlr"), required=True)
    lp.add_argument("--samples", required=True)
    lp.add_argument("--out", required=True)
    lp.add_argument("--tau", type=float, default=None)
    lp.add_argument("--eps", type=float, default=None)
    lp.add_argument("--gamma", type=float, default=None)
    lp.add_argument("--kappa", type=float, default=None)
    lp.add_argument("--lambda", dest="lam", type=float, default=None)
    lp.add_argument("--theta", type=float, default=None,
                    help="derive default parameters from the coupling")
    lp.add_argument("--delta", type=int, default=None)
    lp.add_argument("--rule", choices=("or", "and"), default=None,
                    help=f"edge rule (default {LearnerConfig.rule})")
    lp.add_argument("--tol", type=float, default=None,
                    help=f"rlr residual tolerance (default {LearnerConfig.tol:g})")
    lp.add_argument("--max-iter", dest="max_iter", type=int, default=None,
                    help=f"cap on rlr Newton steps (default {LearnerConfig.max_iter})")
    lp.add_argument("--diag", default=None, help="JSON-lines diagnostics path")
    lp.set_defaults(fn=_cmd_learn)

    an = sub.add_parser("analyze", help="population-level reports and sweeps")
    an.add_argument(
        "report",
        choices=("incoherence", "tree-limit", "b-sweep", "incoherence-sweep", "x-sweep"),
    )
    an.add_argument("--graph", default=None)
    an.add_argument("--root", type=int, default=1)
    an.add_argument("--theta", type=float, default=None)
    an.add_argument("--delta", type=int, default=4)
    an.add_argument("--theta-min", dest="theta_min", type=float, default=0.1)
    an.add_argument("--theta-max", dest="theta_max", type=float, default=1.0)
    an.add_argument("--points", type=int, default=19)
    an.add_argument("--out", required=True)
    an.set_defaults(fn=_cmd_analyze)

    sw = sub.add_parser("sweep", help="run a sweep from a key=value config file")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", default=None)
    sw.set_defaults(fn=_cmd_sweep)

    rp = sub.add_parser("reproduce", help="run a pinned experiment recipe")
    rp.add_argument("name", choices=experiments.RECIPES)
    rp.add_argument("--out", required=True)
    rp.add_argument("--seed", type=int, default=0)
    rp.set_defaults(fn=_cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # input that cannot be run, a graph family that cannot be drawn, or a
    # size that does not fit in memory (whose MemoryError may carry no text)
    except (OSError, ValueError, MemoryError, experiments.BudgetExceeded,
            GenerationFailure) as exc:
        print(f"isinglearn: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
