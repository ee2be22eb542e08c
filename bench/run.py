"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, closed loop, one operation at a time,
checks every output, writes a results file under `.bench_results/`, and
prints a JSON object as its last line of output: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. A traced run times the
same schedule twice, first untraced and then traced, so that the tracing
overhead is measured inside one process. `--workload all` runs every
workload in a child process of its own and prints one summary table.

Run it from a checkout of the repository; it imports the package from
the checkout's `src/` and fails when that is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
WORKLOAD_NAMES = ("sweep-weak", "sweep-strong", "exact-analysis", "learn-cli")
# One OpenBLAS thread: on a 2-core box, six sweep-weak trials took
# 4.4-5.1 s with one thread and 4.7-7.6 s with the default two.
BLAS_THREADS = 1
SETUP_REPS = 3
P90_MIN_SAMPLES = 100
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fix_blas_threads() -> int:
    """Pin the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was fixed")
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


# ---------------------------------------------------------------------------
# machine and program


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_files(root: Path) -> list:
    return sorted((root / "src").rglob("*.py"))


def machine_info(root: Path, blas_threads: int) -> dict:
    import hashlib

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    src = _src_files(root)
    digest = hashlib.sha256()
    for f in src:
        digest.update(f.relative_to(root).as_posix().encode())
        digest.update(f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": sum(len(f.read_text().splitlines()) for f in src),
    }


# ---------------------------------------------------------------------------
# one pass over the schedule


def run_pass(ops, tracer=None) -> dict:
    """Run every operation once, closed loop. An operation fails when it
    raises or when its output check fails; both are recorded, not raised."""
    records = []
    t_start = time.perf_counter()
    for k, op in enumerate(ops):
        rec = {"label": op.label, "weight": op.weight, "ok": False}
        if tracer is not None:
            tracer.op = k
            root_span = tracer.open("bench.op")
        try:
            t0 = time.perf_counter()
            out = op.run()
            rec["seconds"] = time.perf_counter() - t0
            if tracer is not None:
                with tracer.span("bench.check"):
                    op.check(out)
            else:
                op.check(out)
            rec["fingerprint"] = op.fingerprint(out)
            rec["ok"] = True
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["traceback"] = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.close(root_span)
                tracer.op = None
        records.append(rec)
    return {"wall_s": time.perf_counter() - t_start, "ops": records}


def summarize(pass_: dict, latency_per_op: bool) -> dict:
    """End-to-end numbers of an untraced pass."""
    recs = pass_["ops"]
    attempted = sum(r["weight"] for r in recs)
    failed = sum(r["weight"] for r in recs if not r["ok"])
    out = {
        "ops_per_s": attempted / pass_["wall_s"],
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
    }
    if latency_per_op:
        secs = [r["seconds"] for r in recs if "seconds" in r]
        out["op_s_samples"] = len(secs)
        if secs:
            out["op_s_p50"] = statistics.median(secs)
        # The pooled median mixes operations of very different cost, so a
        # change to one kind of operation may not move it; the median per
        # label shows each kind on its own.
        by_label = {}
        for r in recs:
            if "seconds" in r:
                by_label.setdefault(r["label"], []).append(r["seconds"])
        out["op_s_p50_by_label"] = {k: statistics.median(v) for k, v in by_label.items()}
        if len(secs) >= P90_MIN_SAMPLES:
            out["op_s_p90"] = statistics.quantiles(secs, n=10, method="inclusive")[-1]
    return out


def compare_fingerprints(untraced: dict, traced: dict) -> None:
    """Mark traced ops whose output differs from the untraced pass as failed:
    the wrappers must hand back the wrapped function's results unchanged."""
    for a, b in zip(untraced["ops"], traced["ops"]):
        if b["ok"] and a.get("fingerprint") != b.get("fingerprint"):
            b["ok"] = False
            b["error"] = "traced output differs from untraced output"


# ---------------------------------------------------------------------------


E2E_UNITS = {"ops_per_s": "op/s", "setup_s": "s", "peak_rss_mb": "MB",
             "failed_frac": "1", "op_s_p50": "s", "op_s_p90": "s"}
E2E_GATED = ("ops_per_s", "setup_s", "peak_rss_mb")


def run_workload(args) -> int:
    t_import = time.perf_counter()
    blas_threads = fix_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - t_import

    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir()
    try:
        ctx = workloads.Context(seed=args.seed, seconds=args.seconds, work=work)
        wl = workloads.make_workload(args.workload, ROOT)
        reps = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.prepare(ctx, rep)
            reps.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(reps)
        ops = wl.schedule(ctx)

        untraced = run_pass(ops)
        e2e = summarize(untraced, wl.latency_per_op)
        e2e["setup_s"] = setup_s
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine_info(ROOT, blas_threads),
            "setup": {"import_s": import_s, "reps_s": reps},
            "info": ctx.info,
            "untraced": untraced,
        }
        passes = [untraced]
        if args.trace:
            tr = tracing.Tracer()
            tr.install(tracing.WRAP_SPECS)
            try:
                traced = run_pass(ops, tr)
            finally:
                tr.restore()
            compare_fingerprints(untraced, traced)
            passes.append(traced)
            layers = tracing.layer_metrics(tr, traced["wall_s"], untraced["wall_s"])
            result.update(traced=traced, spans=tracing.span_table(tr.spans),
                          counts=dict(tr.counts), per_layer=layers,
                          layer_info=tracing.layer_info(tr))
            tr.write_spans(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl")
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["end_to_end"] = e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": E2E_UNITS[k]} for k in E2E_GATED}

    attempted = sum(r["weight"] for p in passes for r in p["ops"])
    failed = sum(r["weight"] for p in passes for r in p["ops"] if not r["ok"])
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={blas_threads} results={out_path.relative_to(ROOT)}")
    for p in passes:
        for r in p["ops"]:
            if not r["ok"]:
                print(f"# FAILED {r['label']}: {r['error']}")
    if "sweep_check" in ctx.info:
        print(f"# sweep digest {untraced['ops'][0].get('fingerprint')} "
              f"check {ctx.info['sweep_check']}")
    for k in ("ops_per_s", "op_s_p50", "op_s_p90", "failed_frac", "setup_s", "peak_rss_mb"):
        if k in e2e:
            print(f"# {k:<13} {e2e[k]:.6g} {E2E_UNITS[k]}")
    if "op_s_samples" in e2e:
        print(f"# op_s_samples  {e2e['op_s_samples']}")
        for label, v in e2e["op_s_p50_by_label"].items():
            print(f"# op_s_p50[{label}] {v:.6g} s")
    for k, v in result.get("layer_info", {}).items():
        print(f"# info {k} {v:.6g} (input property, no better direction)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process; one table at the end."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        rows += [(name, k, m["value"], m["unit"]) for k, m in last["metrics"].items()]
        if not args.trace:
            res = json.loads(
                (RESULTS / f"{name}-seed{args.seed}-trace0.json").read_text())
            e2e = res["end_to_end"]
            rows += [(name, k, e2e[k], E2E_UNITS[k])
                     for k in ("failed_frac", "op_s_p50", "op_s_p90") if k in e2e]
            rows += [(name, f"op_s_p50[{label}]", v, "s")
                     for label, v in e2e.get("op_s_p50_by_label", {}).items()]
    print(f"{'workload':<16} {'metric':<32} value")
    for name, k, v, unit in rows:
        print(f"{name:<16} {k:<32} {v:.6g} {unit}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "isinglearn" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
