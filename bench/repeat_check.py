"""Check that counts and output digests repeat exactly at a fixed seed.

    python3 bench/repeat_check.py --seed N --seconds S [--workload NAME ...]

Runs `run.py --trace 1` twice per workload, each in its own process, and
compares the count metrics and the digest of every operation's output
(for sweeps, the cell table without its runtime column). A claim may rest
on a count only if this check passes for it. Exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import RESULTS, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
COUNTS = (
    "ising.gibbs_site_updates",
    "ising.exact_states",
    "learners.rlr_calls",
    "learners.rlr_iters",
    "learners.rlr_unconverged_roots",
    "learners.unique_row_frac",
)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    subprocess.run(cmd, check=True, capture_output=True)
    res = json.loads((RESULTS / f"{workload}-seed{seed}-trace1.json").read_text())
    digests = [op.get("fingerprint") for p in ("untraced", "traced") for op in res[p]["ops"]]
    figures = {**res["per_layer"], **res["layer_info"]}
    return {"counts": {k: figures[k] for k in COUNTS}, "digests": digests}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", default=list(WORKLOAD_NAMES),
                    choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    ok = True
    for wl in args.workload:
        a = traced_run(wl, args.seed, args.seconds)
        b = traced_run(wl, args.seed, args.seconds)
        same = a == b and None not in a["digests"]
        ok &= same
        print(f"{wl}: {'repeats' if same else 'DIFFERS'} "
              f"counts={a['counts']} digests={sorted(set(a['digests']))[:3]}...")
        if not same:
            print(f"  first:  {a}\n  second: {b}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
