import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from isinglearn import analysis, cli, experiments
from isinglearn.cli import main, sweep_config_from_file
from isinglearn.experiments import SweepConfig
from isinglearn.graphs import FAMILIES, GraphFamilySpec, make_tree, read_graph, write_graph
from isinglearn.ising import gibbs_sample, read_samples, write_samples
from isinglearn.learners import LearnerConfig, default_ind_params, tau_tree


@pytest.fixture
def tree_graph_file(tmp_path):
    path = tmp_path / "tree.txt"
    write_graph(make_tree(7, "path"), path)
    return path


def test_sample_then_learn_thr(tmp_path, tree_graph_file):
    samples = tmp_path / "s.txt"
    rc = main(
        [
            "sample",
            "--graph", str(tree_graph_file),
            "--theta", "0.6",
            "--n", "4000",
            "--burn-in", "300",
            "--thin", "3",
            "--seed", "5",
            "--out", str(samples),
            "--corr-out", str(tmp_path / "c.csv"),
        ]
    )
    assert rc == 0
    s = read_samples(samples)
    assert s.n == 4000 and s.p == 7

    out = tmp_path / "learned.txt"
    rc = main(
        [
            "learn",
            "--alg", "thr",
            "--samples", str(samples),
            "--theta", "0.6",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert read_graph(out).edges == make_tree(7, "path").edges
    corr_lines = (tmp_path / "c.csv").read_text().splitlines()
    assert corr_lines[0] == "0,1,2,3,4,5,6"


def test_learn_rlr_writes_diagnostics(tmp_path, tree_graph_file):
    samples = tmp_path / "s.txt"
    main(
        [
            "sample",
            "--graph", str(tree_graph_file),
            "--theta", "0.6",
            "--n", "3000",
            "--burn-in", "300",
            "--thin", "3",
            "--seed", "1",
            "--out", str(samples),
        ]
    )
    out = tmp_path / "learned.txt"
    diag = tmp_path / "diag.jsonl"
    rc = main(
        [
            "learn",
            "--alg", "rlr",
            "--samples", str(samples),
            "--lambda", "0.05",
            "--rule", "and",
            "--out", str(out),
            "--diag", str(diag),
        ]
    )
    assert rc == 0
    recs = [json.loads(line) for line in diag.read_text().splitlines()]
    assert len(recs) == 7
    assert all(r["converged"] for r in recs)
    assert {"vertex", "objective", "residual", "neighbors"} <= set(recs[0])


def test_learn_ind_defaults_from_theta(tmp_path):
    g = make_tree(5, "path")
    gpath = tmp_path / "g.txt"
    write_graph(g, gpath)
    samples = tmp_path / "s.txt"
    main(
        [
            "sample",
            "--graph", str(gpath),
            "--theta", "0.8",
            "--n", "8000",
            "--burn-in", "400",
            "--thin", "4",
            "--seed", "2",
            "--out", str(samples),
        ]
    )
    out = tmp_path / "learned.txt"
    rc = main(
        [
            "learn",
            "--alg", "indd",
            "--samples", str(samples),
            "--theta", "0.8",
            "--delta", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert read_graph(out).edges == g.edges


def test_learn_missing_params_errors(tmp_path, tree_graph_file):
    samples = tmp_path / "s.txt"
    main(
        [
            "sample",
            "--graph", str(tree_graph_file),
            "--theta", "0.4",
            "--n", "50",
            "--burn-in", "20",
            "--thin", "1",
            "--seed", "0",
            "--out", str(samples),
        ]
    )
    rc = main(["learn", "--alg", "rlr", "--samples", str(samples),
               "--out", str(tmp_path / "x.txt")])
    assert rc == 2


def test_learn_rejects_bad_delta_and_lambda(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    write_graph(make_tree(5, "path"), gpath)
    samples = tmp_path / "s.txt"
    main(["sample", "--graph", str(gpath), "--theta", "0.8", "--n", "500",
          "--burn-in", "100", "--thin", "2", "--seed", "3", "--out", str(samples)])
    capsys.readouterr()
    out = tmp_path / "learned.txt"
    common = ["learn", "--samples", str(samples), "--out", str(out)]
    for alg in ("ind", "indd"):
        assert main(common + ["--alg", alg, "--theta", "0.8", "--delta", "0"]) == 2
        assert capsys.readouterr().err == "isinglearn: error: delta must be >= 1\n"
    assert main(common + ["--alg", "rlr", "--lambda", "-0.1"]) == 2
    assert capsys.readouterr().err == "isinglearn: error: lam must be >= 0\n"
    assert not out.exists()


def test_learn_reports_malformed_sample_file(tmp_path, capsys):
    samples = tmp_path / "s.txt"
    samples.write_text("3 2 0 0 0\n+1 -1\n+1 300\n-1 -1\n")
    out = tmp_path / "learned.txt"
    argv = ["learn", "--alg", "thr", "--tau", "0.5", "--samples", str(samples),
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "isinglearn: error: sample row 1 has token '300', wanted +1, -1 or 1\n"
    assert not out.exists()



def test_learn_reports_impossible_sample_header(tmp_path, capsys):
    # 10^15 rows of 30 spins lie beyond any address space, so the
    # allocation fails whatever the host's overcommit setting
    samples = tmp_path / "s.txt"
    samples.write_text("1000000000000000 30 0 0 0\n" + "+1 " * 29 + "+1\n")
    out = tmp_path / "learned.txt"
    argv = ["learn", "--alg", "thr", "--tau", "0.5", "--samples", str(samples),
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "isinglearn: error: sample file header asks for n = 1000000000000000 rows"
        " of p = 30 spins, more than fits in memory\n"
    )
    assert not out.exists()


@pytest.fixture
def path_samples(tmp_path, tree_graph_file):
    samples = tmp_path / "s.txt"
    assert main(["sample", "--graph", str(tree_graph_file), "--theta", "0.6",
                 "--n", "300", "--burn-in", "50", "--thin", "2", "--seed", "1",
                 "--out", str(samples)]) == 0
    return samples


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--alg", "thr"], "learner 'thr' needs tau or theta"),
        (["--alg", "ind", "--theta", "0.6"], "learner 'ind' needs delta"),
        (["--alg", "ind", "--delta", "2"], "learner 'ind' needs eps/gamma or theta"),
        (["--alg", "indd", "--delta", "2", "--eps", "0.1"],
         "learner 'indd' needs gamma/kappa or theta"),
        (["--alg", "rlr"], "learner 'rlr' needs lambda"),
    ],
    ids=["thr", "ind-delta", "ind-params", "indd-params", "rlr"],
)
def test_learn_names_missing_parameter(tmp_path, capsys, path_samples, flags, message):
    capsys.readouterr()
    out = tmp_path / "learned.txt"
    assert main(["learn", "--samples", str(path_samples), "--out", str(out)] + flags) == 2
    assert capsys.readouterr() == ("", f"isinglearn: error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "-1"], "tol must be > 0 and finite, got -1.0"),
        (["--tol", "nan"], "tol must be > 0 and finite, got nan"),
        (["--max-iter", "0"], "max_iter must be >= 1, got 0"),
    ],
    ids=["tol-negative", "tol-nan", "max-iter-zero"],
)
def test_learn_rejects_bad_solver_settings(tmp_path, capsys, path_samples, flags, message):
    capsys.readouterr()
    out = tmp_path / "learned.txt"
    argv = ["learn", "--alg", "rlr", "--lambda", "0.1", "--samples", str(path_samples),
            "--out", str(out)]
    assert main(argv + flags) == 2
    assert capsys.readouterr() == ("", f"isinglearn: error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--alg", "ind", "--theta", "0.6", "--delta", "2", "--eps", "nan"],
         "eps must be finite, got nan"),
        (["--alg", "ind", "--theta", "0.6", "--delta", "2", "--eps", "inf"],
         "eps must be finite, got inf"),
        (["--alg", "indd", "--theta", "0.6", "--delta", "2", "--kappa", "nan"],
         "kappa must be finite, got nan"),
        (["--alg", "rlr", "--lambda", "nan"], "lam must be finite, got nan"),
        (["--alg", "rlr", "--lambda", "inf"], "lam must be finite, got inf"),
    ],
    ids=["eps-nan", "eps-inf", "kappa-nan", "lambda-nan", "lambda-inf"],
)
def test_learn_rejects_non_finite_parameters(tmp_path, capsys, path_samples, flags, message):
    capsys.readouterr()
    out = tmp_path / "learned.txt"
    assert main(["learn", "--samples", str(path_samples), "--out", str(out)] + flags) == 2
    assert capsys.readouterr() == ("", f"isinglearn: error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--alg", "thr", "--theta", "0.5"],
        ["--alg", "ind", "--theta", "0.5", "--delta", "2"],
        ["--alg", "indd", "--theta", "0.5", "--delta", "2"],
        ["--alg", "rlr", "--lambda", "0.1"],
    ],
    ids=["thr", "ind", "indd", "rlr"],
)
def test_learn_rejects_empty_sample_file(tmp_path, capsys, flags):
    # each learner wrote an empty graph from a file of no rows and exited 0
    samples, out = tmp_path / "empty.samples", tmp_path / "learned.txt"
    samples.write_text("0 5 0 1 1\n")
    argv = ["learn", "--samples", str(samples), "--out", str(out)] + flags
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "isinglearn: error: sample set has no rows\n")
    assert not out.exists()
    assert not (tmp_path / "learned.txt.jsonl").exists()


def test_learn_rlr_solver_defaults_come_from_learner_config(tmp_path, path_samples):
    # learn used its own 1e-6 and 5000 where sweep files use LearnerConfig's;
    # its --rule default was its own copy of LearnerConfig's
    seen = []
    solve = cli.rlr_graph

    def spy(s, lam, **kw):
        seen.append((kw["tol"], kw["max_iter"], kw["rule"]))
        return solve(s, lam, **kw)

    argv = ["learn", "--alg", "rlr", "--lambda", "0.05", "--samples", str(path_samples),
            "--out", str(tmp_path / "learned.txt")]
    with mock.patch.object(cli, "rlr_graph", spy):
        assert main(argv) == 0
        assert main(argv + ["--tol", "1e-7", "--max-iter", "40", "--rule", "and"]) == 0
    assert seen == [(LearnerConfig.tol, LearnerConfig.max_iter, LearnerConfig.rule),
                    (1e-7, 40, "and")]
    assert seen[0] == (1e-5, 3000, "or")
    assert cli.build_parser().parse_args(argv).rule is None


def test_learn_rejects_sample_file_of_no_spins(tmp_path, capsys):
    # numpy's "zero-size array to reduction operation maximum which has no
    # identity" was the message
    samples, out = tmp_path / "nospins.samples", tmp_path / "learned.txt"
    samples.write_text("3 0 0 1 1\n\n\n\n")
    argv = ["learn", "--alg", "rlr", "--lambda", "0.1", "--samples", str(samples),
            "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "isinglearn: error: sample set has no spins\n")
    assert not out.exists()


def test_learn_warns_of_unconverged_rlr_roots(tmp_path, capsys, path_samples):
    out, diag = tmp_path / "learned.txt", tmp_path / "diag.jsonl"
    argv = ["learn", "--alg", "rlr", "--lambda", "0.05", "--rule", "and",
            "--samples", str(path_samples), "--out", str(out), "--diag", str(diag)]
    capsys.readouterr()
    assert main(argv + ["--max-iter", "2"]) == 0
    recs = [json.loads(line) for line in diag.read_text().splitlines()]
    stuck = sum(not r["converged"] for r in recs)
    assert len(recs) == 7 and stuck > 0
    edges = read_graph(out).num_edges
    assert capsys.readouterr() == (
        f"wrote {edges} edges to {out}; diagnostics in {diag}\n",
        f"isinglearn: warning: {stuck} of 7 rlr roots did not reach tol = 1e-05"
        " within max_iter = 2 Newton steps\n",
    )
    # roots that converge print no warning
    assert main(argv) == 0
    assert all(json.loads(line)["converged"] for line in diag.read_text().splitlines())
    assert capsys.readouterr().err == ""


def test_learn_diagnostics_record_resolved_parameters(tmp_path, path_samples):
    def diag(*flags):
        out = tmp_path / "learned.txt"
        assert main(["learn", "--samples", str(path_samples), "--out", str(out)]
                    + list(flags)) == 0
        return json.loads((tmp_path / "learned.txt.jsonl").read_text())

    eps, gamma, kappa = default_ind_params(0.6, 2)
    assert diag("--alg", "thr", "--theta", "0.6") == {"alg": "thr", "tau": tau_tree(0.6)}
    # given eps and gamma, ind derives nothing, so kappa stays unset
    assert diag("--alg", "ind", "--delta", "2", "--eps", "0.2", "--gamma", "0.01") == {
        "alg": "ind", "eps": 0.2, "gamma": 0.01, "kappa": None}
    # once one needed value comes from theta, every unset one does
    assert diag("--alg", "ind", "--delta", "2", "--eps", "0.2", "--theta", "0.6") == {
        "alg": "ind", "eps": 0.2, "gamma": gamma, "kappa": kappa}
    assert diag("--alg", "indd", "--delta", "2", "--theta", "0.6", "--kappa", "0.3") == {
        "alg": "indd", "eps": eps, "gamma": gamma, "kappa": 0.3}


def _not_a_dir(tmp_path):
    (tmp_path / "file").write_text("")
    return str(tmp_path / "file" / "x")


@pytest.mark.parametrize(
    "argv",
    [
        lambda t, s: ["learn", "--alg", "thr", "--tau", "0.5",
                      "--samples", str(t / "missing.txt"), "--out", str(t / "o.graph")],
        lambda t, s: ["sample", "--graph", str(t / "missing.graph"), "--theta", "0.5",
                      "--n", "10", "--out", str(t / "o.samples")],
        lambda t, s: ["learn", "--alg", "thr", "--tau", "0.5", "--samples", str(s),
                      "--out", str(t / "nodir" / "o.graph")],
        lambda t, s: ["reproduce", "thresholds", "--out", _not_a_dir(t)],
    ],
    ids=["learn-samples", "sample-graph", "learn-out", "reproduce-out"],
)
def test_unusable_files_are_usage_errors(tmp_path, capsys, path_samples, argv):
    capsys.readouterr()
    assert main(argv(tmp_path, path_samples)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("isinglearn: error: [Errno ")
    assert err.count("\n") == 1


def test_analyze_incoherence_json(tmp_path, tree_graph_file):
    out = tmp_path / "rep.json"
    rc = main(
        [
            "analyze", "incoherence",
            "--graph", str(tree_graph_file),
            "--theta", "0.5",
            "--root", "4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["root"] == 4
    assert rep["norm"] == pytest.approx(math.tanh(0.5), abs=1e-10)
    assert len(rep["q_ss"]) == 2


def test_analyze_tree_limit_json(tmp_path):
    out = tmp_path / "limit.json"
    rc = main(
        ["analyze", "tree-limit", "--delta", "4", "--theta", "0.6", "--out", str(out)]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["h_star"] > 0
    assert rep["incoherence_limit"] > 1.0


@pytest.mark.parametrize(
    "report, flags, missing",
    [
        ("incoherence", ["--theta", "0.5"], "graph"),
        ("incoherence", ["--graph", "GRAPH"], "theta"),
        ("tree-limit", ["--delta", "4"], "theta"),
        ("incoherence-sweep", [], "graph"),
    ],
    ids=["incoherence-graph", "incoherence-theta", "tree-limit-theta", "sweep-graph"],
)
def test_analyze_names_missing_flag(tmp_path, capsys, tree_graph_file, report, flags, missing):
    out = tmp_path / "rep.out"
    flags = [str(tree_graph_file) if f == "GRAPH" else f for f in flags]
    assert main(["analyze", report, "--out", str(out)] + flags) == 2
    assert capsys.readouterr() == ("", f"isinglearn: error: analyze {report} needs --{missing}\n")
    assert not out.exists()


def test_analyze_tree_limit_outside_float_range(tmp_path, capsys):
    # exp(2(h* - theta)) overflows at the first; a == b at the second
    out = tmp_path / "limit.json"
    for delta, theta in (("40", "10"), ("1000", "0.34")):
        argv = ["analyze", "tree-limit", "--delta", delta, "--theta", theta, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"isinglearn: error: tree limit leaves float range at delta={delta}, "
            f"theta={float(theta)}\n"
        )
        assert not out.exists()


_NO_COUNT = ("p\ne 0 1\n", "line 1: p line without a vertex count")
_ONE_INDEX = ("p 3\ne 0\n", "line 2: edge needs two vertex indices")
_ISOLATED_ROOT = ("p 3\ne 0 1\n", "root 3 has no neighbors")
_NOT_INT = ("p 3\ne 0 x\n", "line 2: invalid literal for int() with base 10: 'x'")
_EXTRA_INDEX = ("p 3\ne 0 1 2\n", "line 2: extra tokens")
_P_ZERO = ("p 0\n", "line 1: vertex count must be >= 1, got 0")
_UNDERSCORE = ("p 12\ne 0 1_0\n", "line 2: '1_0' is not an integer of ASCII digits")
_INCOHERENCE = ["analyze", "incoherence", "--theta", "0.3", "--root", "3"]
_SAMPLE = ["sample", "--theta", "0.3", "--n", "10", "--burn-in", "5", "--thin", "1"]


@pytest.mark.parametrize(
    "argv, record",
    [
        (_INCOHERENCE, _NO_COUNT),
        (_INCOHERENCE, _ONE_INDEX),
        (_SAMPLE, _NO_COUNT),
        (_SAMPLE, _ONE_INDEX),
        (_SAMPLE, _NOT_INT),
        (_SAMPLE, _EXTRA_INDEX),
        (_INCOHERENCE, _ISOLATED_ROOT),
        (["analyze", "incoherence-sweep", "--points", "2", "--root", "3"], _ISOLATED_ROOT),
        (_INCOHERENCE, _P_ZERO),
        (_SAMPLE, _P_ZERO),
        (_INCOHERENCE, _UNDERSCORE),
        (_SAMPLE, _UNDERSCORE),
    ],
    ids=["incoherence-p-count", "incoherence-e-index", "sample-p-count",
         "sample-e-index", "sample-e-not-int", "sample-e-extra",
         "incoherence-isolated-root", "sweep-isolated-root",
         "incoherence-p-zero", "sample-p-zero", "incoherence-e-underscore",
         "sample-e-underscore"],
)
def test_unusable_graph_is_usage_error(tmp_path, capsys, argv, record):
    text, message = record
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    out = tmp_path / "out"
    assert main(argv + ["--graph", str(graph), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"isinglearn: error: {message}\n")
    assert not out.exists()


def test_analyze_b_sweep_edges(tmp_path, capsys):
    bpath = tmp_path / "b.csv"
    argv = ["analyze", "b-sweep", "--theta-min", "0.3", "--theta-max", "10",
            "--points", "3", "--out", str(bpath)]
    assert main(argv + ["--delta", "40"]) == 0
    rows = bpath.read_text().splitlines()
    assert rows[0] == "theta,b_limit"
    assert rows[1].startswith("0.300000,") and rows[1] != "0.300000,nan"
    assert rows[2] == "5.150000,nan"  # a == b and c2 == 0: the gaps are lost
    assert rows[3] == "10.000000,nan"
    bpath.unlink()
    capsys.readouterr()
    assert main(argv + ["--delta", "3"]) == 2
    assert capsys.readouterr().err == "isinglearn: error: analyze b-sweep needs --delta >= 4, got 3\n"
    assert not bpath.exists()


def test_analyze_sweeps(tmp_path, tree_graph_file):
    bpath = tmp_path / "b.csv"
    rc = main(
        [
            "analyze", "b-sweep",
            "--delta", "4",
            "--theta-min", "0.30",
            "--theta-max", "0.60",
            "--points", "7",
            "--out", str(bpath),
        ]
    )
    assert rc == 0
    lines = bpath.read_text().splitlines()
    assert lines[0] == "theta,b_limit"
    assert lines[1].endswith("nan")  # below the field onset
    assert len(lines) == 8

    xpath = tmp_path / "x.csv"
    rc = main(
        [
            "analyze", "x-sweep",
            "--delta", "3",
            "--theta-min", "0.2",
            "--theta-max", "0.8",
            "--points", "4",
            "--out", str(xpath),
        ]
    )
    assert rc == 0
    assert xpath.read_text().splitlines()[0] == "theta,x_delta"

    ipath = tmp_path / "inc.csv"
    rc = main(
        [
            "analyze", "incoherence-sweep",
            "--graph", str(tree_graph_file),
            "--root", "4",
            "--theta-min", "0.2",
            "--theta-max", "0.6",
            "--points", "3",
            "--out", str(ipath),
        ]
    )
    assert rc == 0
    rows = ipath.read_text().splitlines()
    assert rows[0] == "theta,incoherence"
    th, val = rows[1].split(",")
    assert float(val) == pytest.approx(math.tanh(float(th)), abs=1e-9)


def test_sweep_from_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text(
        "\n".join(
            [
                "# tiny smoke sweep",
                "family = tree",
                "p = 6",
                "shape = path",
                "learner = thr",
                "tau_rule = tree",
                "theta_grid = 0.6",
                "n_grid = 800",
                "trials = 3",
                "seed = 4",
                "burn_in = 100",
                "thin = 2",
                f"out = {out}",
            ]
        )
    )
    parsed = sweep_config_from_file(cfg)
    assert parsed.family.family == "tree"
    assert parsed.trials == 3
    rc = main(["sweep", "--config", str(cfg)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "theta,lambda0,n,trials,p_succ,p_vertex,mean_runtime_ms"


_SMALL_SWEEP = [
    "family = tree",
    "p = 6",
    "learner = thr",
    "theta_grid = 0.6",
    "n_grid = 200",
    "trials = 1",
    "burn_in = 10",
    "thin = 1",
]


@pytest.mark.parametrize(
    "lines, message",
    [
        (_SMALL_SWEEP + ["trails = 3"], "sweep.cfg:9: unknown key 'trails'"),
        (_SMALL_SWEEP + ["trials = 3"], "sweep.cfg:9: key 'trials' repeats line 6"),
        (_SMALL_SWEEP[1:], "sweep.cfg: missing required key 'family'"),
        (
            [ln.replace("200", "2x00") for ln in _SMALL_SWEEP],
            "sweep.cfg:5: key 'n_grid': invalid literal for int() with base 10: '2x00'",
        ),
        (
            _SMALL_SWEEP + ["fresh_graph = ture"],
            "sweep.cfg:9: key 'fresh_graph': expected 1/true/yes or 0/false/no, got 'ture'",
        ),
    ],
    ids=["unknown", "repeated", "missing", "unparsed-value", "misspelt-bool"],
)
def test_sweep_rejects_bad_config_keys(tmp_path, capsys, lines, message):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        sweep_config_from_file(cfg)
    assert str(exc.value) == f"{tmp_path}/{message}"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"isinglearn: error: {tmp_path}/{message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_sweep_rejects_unknown_tau_rule(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text("\n".join(_SMALL_SWEEP + ["tau_rule = bogus"]) + "\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "isinglearn: error: unknown tau_rule 'bogus'\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("budget_units = nan", "budget_units must be finite and > 0, got nan"),
        ("budget_units = -5", "budget_units must be finite and > 0, got -5.0"),
        ("budget_units = inf", "budget_units must be finite and > 0, got inf"),
        ("lambda0_grid = 1,nan", "lambda0 values must be finite and >= 0, got (1.0, nan)"),
        ("lambda0_grid = 2,-1", "lambda0 values must be finite and >= 0, got (2.0, -1.0)"),
        ("lambda0_grid = inf", "lambda0 values must be finite and >= 0, got (inf,)"),
        ("tol = -1", "tol must be > 0 and finite, got -1.0"),
        ("tol = 0", "tol must be > 0 and finite, got 0.0"),
        ("tol = nan", "tol must be > 0 and finite, got nan"),
        ("tol = inf", "tol must be > 0 and finite, got inf"),
        ("max_iter = 0", "max_iter must be >= 1, got 0"),
        ("rule = xor", "unknown edge rule 'xor'"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("mixing_cap = 0", "mixing_cap must be >= 1, got 0"),
        ("mixing_cap = -4", "mixing_cap must be >= 1, got -4"),
    ],
    ids=["budget-nan", "budget-negative", "budget-inf", "lambda0-nan", "lambda0-negative",
         "lambda0-inf", "tol-negative", "tol-zero", "tol-nan", "tol-inf", "max-iter-zero",
         "rule-unknown", "seed-negative", "mixing-cap-zero", "mixing-cap-negative"],
)
def test_sweep_rejects_bad_config_values(tmp_path, capsys, line, message):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text("\n".join(_SMALL_SWEEP + [line]) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_config_from_file(cfg)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"isinglearn: error: {message}\n")
    assert not out.exists()


def _small_sweep_with(**changes) -> str:
    """_SMALL_SWEEP with some keys set to other values, as file text."""
    keys = dict(ln.split(" = ") for ln in _SMALL_SWEEP) | changes
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"learner": "rlr", "theta_grid": "nan"},
         "theta values must be finite and > 0, got (nan,)"),
        ({"theta_grid": "0.6,inf"}, "theta values must be finite and > 0, got (0.6, inf)"),
        ({"learner": "rlr", "theta_grid": "-0.3"},
         "theta values must be finite and > 0, got (-0.3,)"),
        ({"theta_grid": "0"}, "theta values must be finite and > 0, got (0.0,)"),
        ({"n_grid": "0"}, "n values must be >= 1, got (0,)"),
        ({"n_grid": "200,-3"}, "n values must be >= 1, got (200, -3)"),
    ],
    ids=["theta-nan-rlr", "theta-inf", "theta-negative-rlr", "theta-zero", "n-zero",
         "n-negative"],
)
def test_sweep_rejects_bad_grid_values(tmp_path, capsys, changes, message):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text(_small_sweep_with(**changes))
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_config_from_file(cfg)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"isinglearn: error: {message}\n")
    assert not out.exists()


def test_sweep_warns_of_unconverged_rlr_solves(tmp_path, capsys):
    # max_iter = 2 stops every solve short; the table keeps its columns
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    rlr = dict(learner="rlr", lambda0_grid="1,2", trials=3)
    cfg.write_text(_small_sweep_with(**rlr, max_iter=2))
    warning = ("isinglearn: warning: 6 of 6 rlr solves did not reach tol = 1e-05"
               " within max_iter = 2 Newton steps\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}\n", warning)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1] == "theta,lambda0,n,trials,p_succ,p_vertex,mean_runtime_ms"
    assert [ln.split(",")[:4] for ln in lines[2:]] == [
        ["0.6", "1", "200", "3"], ["0.6", "2", "200", "3"]]
    # solves that converge print no warning
    cfg.write_text(_small_sweep_with(**rlr, max_iter=4000))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}\n", "")


def test_sweep_warns_of_saturated_mixing_estimates(tmp_path, capsys):
    # 2 of the 4 trials at theta = 0.9 take burn-in and thin from a mixing
    # estimate that reached the cap; the table is unchanged by the warning
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text("family = random-regular\np = 10\ndelta = 3\nlearner = thr\n"
                   "theta_grid = 0.3,0.9\nn_grid = 400\ntrials = 4\nseed = 11\n")
    table = [
        "theta,lambda0,n,trials,p_succ,p_vertex",
        "0.3,0,400,4,0.000000,0.150000",
        "0.9,0,400,4,0.000000,0.000000",
    ]
    warning = ("isinglearn: warning: 2 of 8 trials took burn-in and thin from a mixing"
               " estimate that reached mixing_cap = 300 sweeps\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}\n", warning)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# generated ")
    assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == table
    # without --out the table goes to stdout and the warning to stderr
    assert main(["sweep", "--config", str(cfg)]) == 0
    printed, err = capsys.readouterr()
    assert [ln.rsplit(",", 1)[0] for ln in printed.splitlines()] == table
    assert err == warning
    # no trial at theta = 0.3 saturates, so no warning
    cfg.write_text(cfg.read_text().replace("0.3,0.9", "0.3"))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}\n", "")


@pytest.mark.parametrize(
    "word, value",
    [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("no", False)],
)
def test_sweep_bool_keys_in_any_case(tmp_path, word, value):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("\n".join(_SMALL_SWEEP + [f"fresh_graph = {word}"]) + "\n")
    assert sweep_config_from_file(cfg).fresh_graph_per_trial is value


def test_sweep_over_budget_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text("\n".join(_SMALL_SWEEP + ["budget_units = 1"]) + "\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"isinglearn: error: estimated \S+ work units \(~\d+s\) exceeds budget 1\n",
        captured.err,
    )
    assert not out.exists()


def test_sweep_unbuildable_family_is_usage_error(tmp_path, capsys):
    # the configuration model finds no simple 6-regular graph on 8 vertices
    # in its restarts; GenerationFailure escaped as a traceback with exit 1
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text(_small_sweep_with(family="random-regular", p=8, delta=6))
    with mock.patch.object(experiments, "_available_cpus", return_value=1):
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "isinglearn: error: no simple 6-regular graph on"
                                       " 8 vertices found in 10000 restarts\n")
    assert not out.exists()


def test_sweep_keys_left_out_take_dataclass_defaults(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = tree\ntheta_grid = 0.6\nn_grid = 200\n")
    assert sweep_config_from_file(cfg) == SweepConfig(
        family=GraphFamilySpec(family="tree"),
        learner=LearnerConfig(),
        theta_grid=(0.6,),
        n_grid=(200,),
    )
    learner = sweep_config_from_file(cfg).learner
    assert (learner.alg, learner.tol, learner.max_iter) == ("rlr", 1e-5, 3000)


def test_reproduce_cli(tmp_path):
    rc = main(["reproduce", "thresholds", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "thresholds.md").exists()


# Values for each sweep-file key: valid ones, the edges of their ranges,
# and junk. `out` is left out, so every run writes where the test says.
_JUNK = ("", "x", "nan", "inf", "-1", "0", "1e400", "1,2", "ture", "0x10")


def _values(*good):
    """One of `good`, a typical value first and then boundary ones, or
    junk about one time in 16 (a middle draw, which Hypothesis favours
    least)."""
    good = tuple(str(v) for v in good)
    return st.integers(0, 15).flatmap(lambda i: st.sampled_from(_JUNK if i == 7 else good))


_SWEEP_VALUES = {
    "family": _values(*FAMILIES),
    "p": _values(6, 1, 2, 3, 9),
    "delta": _values(2, 1, 3, 4, 7),
    "deg": _values(2, 1, 4, 7),
    "side": _values(3, 1, 2),
    "periodic": _values("yes", "no"),
    "rho": _values(0.3, 1, 1.5, -0.1),
    "shape": _values("path", "balanced", "ring"),
    "branching": _values(2, 1, 3),
    "learner": _values("thr", "ind", "indd", "rlr", "RLR"),
    "tau": _values(0.3, 0.99, 1),
    "tau_rule": _values("tree", "degree", "none"),
    "eps": _values(0.1, 2),
    "gamma": _values(0.01, 0.5, 1),
    "kappa": _values(0.3, 2),
    "rule": _values("or", "and", "xor"),
    "tol": _values(1e-5, 1e-2, 1e300),
    "max_iter": _values(1, 2, 50),
    "theta_grid": _values(0.3, "0.3,0.6", 0.05, 50, "0.3,0", -0.3),
    "n_grid": _values(40, "20,60", 1, 2),
    "lambda0_grid": _values(1, "0.5,3"),
    "trials": _values(2, 1),
    "seed": _values(3, 2**32, 2**70),
    "fresh_graph": _values("yes", "no"),
    "burn_in": _values(1, 20),
    "thin": _values(1, 3),
    "mixing_cap": _values(1, 30),
    "budget_units": _values("2e6", "3e5", 1),
}


# the keys that size each family's graph
_FAMILY_KEYS = {"tree": ("p",), "star": ("p", "deg"), "grid": ("side",),
                "diluted-grid": ("side", "rho"), "random-regular": ("p", "delta"),
                "regular-plus-edge": ("p", "delta"), "toy-gp": ("p",), "toy-gp-prime": ("p",)}


@st.composite
def sweep_files(draw):
    """A sweep file's text: the required keys, the keys that size its
    family, trials and budget_units (each left out about one time in 16),
    and any of the other keys, in any order."""
    family = draw(_SWEEP_VALUES["family"])
    keys = ["budget_units", "trials", *cli._SWEEP_REQUIRED, *_FAMILY_KEYS.get(family, ())]
    keys = [k for k in keys if draw(st.integers(0, 15)) != 7]
    keys += draw(st.lists(st.sampled_from(list(_SWEEP_VALUES)), unique=True, max_size=6))
    keys = draw(st.permutations(list(dict.fromkeys(keys))))
    values = {k: family if k == "family" else draw(_SWEEP_VALUES[k]) for k in keys}
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def _run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one cli.main call."""
    printed, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, printed.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(text=sweep_files())
def test_sweep_file_boundary(text):
    """Every sweep file either runs, writing the table the library run of
    the same config gives, or is refused with one `isinglearn: error:` line
    (exit 2) and no table."""
    assert _SWEEP_VALUES.keys() == cli._SWEEP_KEYS.keys() - {"out"}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        experiments, "_available_cpus", return_value=1
    ):
        cfg, out = Path(tmp) / "sweep.cfg", Path(tmp) / "sweep.csv"
        cfg.write_text(text)
        rc, printed, err = _run_cli(["sweep", "--config", str(cfg), "--out", str(out)])
        if rc == 2:
            assert re.fullmatch(r"isinglearn: error: [^\n]*\n", err)
            assert printed == "" and not out.exists()
            return
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# generated ")
        want = experiments.run_sweep(sweep_config_from_file(cfg)).csv_lines(timestamp=False)
        assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == [
            ln.rsplit(",", 1)[0] for ln in want]


# Graph-file lines: `p` and `e` records with valid, boundary and junk
# counts and indices, and lines that are no record at all. A vertex count
# of 27 is one past the enumeration limit; sampling reads it at n = 3.
_COUNT_TOKENS = ("1", "2", "27", "0", "-2", "x", "2.5", "1e1", "1_0", "٣", "3 4", "")
_INDEX_TOKENS = ("-1", "+1", "007", "26", "x", "1.0", "1e1", "1_0", "٣", "")
_OTHER_LINES = ("", "# a comment", "   ", "\t", "q 1 2", "E 0 1", "e", "p", "pe 1",
                "\ufeffp 3", "e 0 1 # x", "\x00", "p 5", "e 0 0", "e 1 0")
_RARELY = st.integers(0, 15).map(lambda i: i == 7)  # a middle draw, favoured least


@st.composite
def graph_files(draw):
    """A graph file's text: usually a `p` line with a valid count, then
    distinct in-range edges, vertex 0's first; rarely a junk count or
    index, a junk line, a shuffled order or CRLF line ends."""
    p = draw(st.sampled_from((3, 5, 6)))
    edges = draw(st.lists(
        st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(lambda e: e[0] != e[1]),
        unique_by=frozenset, max_size=8))
    root_edge = (0, draw(st.integers(1, p - 1)))  # analyze's root 1 has a neighbor
    if not draw(_RARELY) and {0, root_edge[1]} not in map(set, edges):
        edges.insert(0, root_edge)

    def tok(v, junk):
        return draw(st.sampled_from(junk)) if draw(_RARELY) else str(v)

    lines = [] if draw(_RARELY) else [f"p {tok(p, _COUNT_TOKENS)}"]
    for i, j in edges:
        if draw(_RARELY):
            lines.append(draw(st.sampled_from(_OTHER_LINES)))
        lines.append(f"e {tok(i, _INDEX_TOKENS)} {tok(j, _INDEX_TOKENS)}")
    if draw(_RARELY):
        lines = draw(st.permutations(lines))
    end = "\r\n" if draw(_RARELY) else "\n"
    return "".join(line + end for line in lines)


@settings(max_examples=300, deadline=None)
@given(text=graph_files())
def test_graph_file_boundary(text):
    """Every graph file either gives `analyze incoherence` and a tiny
    `sample` run the outputs that the library gives on read_graph's graph,
    or is refused with one `isinglearn: error:` line (exit 2) and no file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text, encoding="utf-8", newline="")
        inc, samples = Path(tmp) / "inc.json", Path(tmp) / "s.txt"
        for argv, out in (
            (["analyze", "incoherence", "--theta", "0.3"], inc),
            (["sample", "--theta", "0.3", "--n", "3", "--burn-in", "2", "--thin", "1"], samples),
        ):
            rc, printed, err = _run_cli(argv + ["--graph", str(path), "--out", str(out)])
            if rc == 2:
                assert re.fullmatch(r"isinglearn: error: [^\n]*\n", err)
                assert printed == "" and not out.exists()
                continue
            assert rc == 0 and err == ""
            g = read_graph(path)
            if out is inc:
                rep = analysis.graph_incoherence(g, 0.3, 1)
                got = json.loads(out.read_text())
                assert got["norm"] == rep.norm and got["neighbors"] == sorted(rep.neighbors)
            else:
                want = Path(tmp) / "want.txt"
                write_samples(gibbs_sample(g, 0.3, n=3, burn_in=2, thin=1, seed=0), want)
                assert out.read_bytes() == want.read_bytes()
