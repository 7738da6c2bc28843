"""Transfer benchmark for pointpeft: pretrain -> fine-tune -> evaluate on a CPU.

Run from the repository root:

    python3 perfbench/run.py --workload gem-small --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics; `--trace 1` reports the per-layer metrics from traced
rounds interleaved with untraced ones.  Details of every round go to
`perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: left alone, OpenBLAS runs two
# threads on gem-large's matmuls on a 2-core machine and the timings then
# depend on what else the host is running.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pointpeft" / "__init__.py").is_file():
        print(f"perfbench: no pointpeft sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rounds

    if args.workload not in rounds.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(rounds.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    return rounds.run(args, HERE / "out")


if __name__ == "__main__":
    sys.exit(main())
