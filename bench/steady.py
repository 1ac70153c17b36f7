"""Prove the benchmark steady: sets of runs, each run on another seed.

    python3 bench/steady.py [--runs 10] [--sets 2] [--workloads NAME ...]

For every workload and end-to-end metric it prints each set's median and
its spread, the distance between the first and third quartile as a share
of the median.  It exits 1 unless every spread is within the metric's
bound in BENCHMARK.json, every later set's median is no worse than the
first set's by more than the bound, and every set fails the same share
of operations.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return res


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = p.parse_args()

    results = {(w, s): [] for w in args.workloads for s in range(args.sets)}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in args.workloads:
                results[(w, s)].append(run_once(w, seed, spec["run_seconds"]))
                seed += 1

    ok = True
    for w in args.workloads:
        shares = {s: {r["failed"] / r["attempted"] for r in results[(w, s)]} for s in range(args.sets)}
        same = len(set().union(*shares.values())) == 1
        ok &= same
        print(f"{w}: failed share {sorted(set().union(*shares.values()))} {'ok' if same else 'DIFFERS'}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, line = [], []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[(w, s)]]
                meds.append(statistics.median(values))
                sp = spread(values)
                good = sp <= bound
                ok &= good
                line.append(f"set{s} median {meds[-1]:.6g} spread {sp:.4f}{'' if good else ' OVER'}")
            drift = max(med / meds[0] - 1.0 for med in meds)
            ok &= drift <= bound
            line.append(f"drift {drift:+.4f}{'' if drift <= bound else ' OVER'} (bound {bound})")
            print(f"  {name:14s} {m['unit']:4s} " + "; ".join(line))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
