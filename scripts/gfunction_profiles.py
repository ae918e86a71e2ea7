#!/usr/bin/env python3
"""Tabulate G and its gamma-regularized companion over x at couplings sitting
on constraint-polynomial roots, showing the removable points where the pole at
x = N + eps disappears. Each table is written by `aqrm gfunc`.

Usage:
    python scripts/gfunction_profiles.py --out profiles/
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aqrm import cli  # noqa: E402
from aqrm.series import ModelParams, regularized_g  # noqa: E402

# coupling, splitting, bias, removed pole: the three quasi-exact showcases
CASES = [
    ("bias_3_10", math.sqrt(27 / 20) / 2, 0.5, 0.3, 1.3),
    ("bias_1_2", 0.5, 1.0, 0.5, 1.5),
    ("bias_1", 1.0122932802546105, 1.5, 1.0, 3.0),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="gfunction_profiles")
    ap.add_argument("--x-min", type=float, default=-1.0)
    ap.add_argument("--x-max", type=float, default=4.0)
    ap.add_argument("--step", type=float, default=0.002)
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, g, delta, eps, removed in CASES:
        path = outdir / f"{name}.csv"
        status = cli.main(["gfunc", "--g", repr(g), "--delta", repr(delta), "--eps", repr(eps),
                           f"--x={args.x_min!r}:{args.x_max!r}:{args.step!r}",
                           "--out", str(path)])
        if status:
            return status
        calg = regularized_g(removed, ModelParams(g, delta, eps))
        print(f"{path}: removable point at x = {removed}, calG there = {calg:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
