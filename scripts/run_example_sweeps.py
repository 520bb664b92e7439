"""Sweep every built-in distribution over a radius grid and write CSVs.

Usage: python3 scripts/run_example_sweeps.py [outdir]
"""

import sys
from pathlib import Path

from advbayes.cli import main as cli_main

SWEEPS = {
    "gaussians_equal_variances": (0.1, 1.5, 15),
    "gaussians_equal_means": (0.1, 1.0, 10),
    "non_uniqueness_single": (0.05, 0.4, 8),
    "non_uniqueness_all": (0.05, 0.45, 9),
    "degenerate": (0.02, 0.2, 10),
}


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for name, (lo, hi, steps) in SWEEPS.items():
        csv = outdir / f"sweep_{name}.csv"
        out = outdir / f"sweep_{name}.json"
        code = cli_main(
            [
                "sweep",
                "--example", name,
                "--eps-min", str(lo),
                "--eps-max", str(hi),
                "--steps", str(steps),
                "--csv", str(csv),
                "--out", str(out),
            ]
        )
        print(f"{name}: exit {code} -> {csv}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
