"""Two sets of benchmark runs of one commit, and whether they agree.

Run from the repository root:

    python3 perfbench/steadiness.py                      # 2 sets x 10 runs, every workload
    python3 perfbench/steadiness.py --workloads gem-large --runs 5

Each run gets its own seed, and the runs of a set cycle through the
workloads so that a slow spell on the host spreads over all of them.  For
each end-to-end metric and workload it prints each set's median and
quartiles, the spread (interquartile distance over the median), how much
worse the second median is than the first, and whether the two sets agree:
every spread within the metric's bound, the second median within the bound
of the first in either direction, and the same share of failed operations
in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(command, workload, seed, seconds) -> dict:
    argv = list(command) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """Share of the first median by which the second is worse (negative: better)."""
    delta = (first - second) if better == "higher" else (second - first)
    return delta / first


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    p.add_argument("--workloads", default="", help="comma list; default every workload")
    p.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = args.first_seed
    for s in range(SETS):
        for i in range(args.runs):
            for w in workloads:
                t0 = time.time()
                out = run_once(spec["command"], w, seed, seconds)
                out["seed"] = seed
                results[w][s].append(out)
                print(
                    f"set {s + 1} run {i + 1} {w} seed {seed}: {time.time() - t0:.0f} s, "
                    f"failed {out['failed']}/{out['attempted']}",
                    file=sys.stderr,
                    flush=True,
                )
                seed += 1

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out_dir / f"steadiness-{stamp}.json").write_text(json.dumps(results, indent=1))
    return report(spec, results)


def report(spec: dict, results: dict) -> int:
    """Print the comparison table; 0 when the sets agree on everything."""
    workloads = list(results)
    all_agree = True
    print(
        f"{'metric':22s} {'workload':16s} | set 1: median [q1, q3] spread"
        " | set 2: median [q1, q3] spread | worse | bound | agree"
    )
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for w in workloads:
            row = f"{name:22s} {w:16s}"
            stats = []
            for runs in results[w]:
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, sp = spread(values)
                stats.append((med, sp))
                row += f" | {med:.6g} [{q1:.6g}, {q3:.6g}] {100 * sp:.1f}%"
            (first, sp1), (second, sp2) = stats
            worse = worse_by(first, second, metric["better"])
            ok = sp1 <= bound and sp2 <= bound and abs(worse) <= bound
            all_agree &= ok
            row += f" | {100 * worse:+.1f}% | {100 * bound:.0f}% | {'yes' if ok else 'NO'}"
            print(row)
    for w in workloads:
        shares = {
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in results[w]
        }
        same = len(shares) == 1
        all_agree &= same
        print(f"failed share {w:16s} {sorted(shares)} {'same' if same else 'DIFFERENT'}")
    print("all agree" if all_agree else "NOT all agree")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
