#!/usr/bin/env python3
"""Trace, in the (g, delta) plane, the curve where the residue of the double
pole at x = N + ell/2 vanishes: the combination B(N+l, -l) + A_N^l B(N, l)
crosses zero. Alongside it, report the T-function zero curve and the Juddian
curve so intersections (non-polynomial eigensolutions that also kill the
residue) can be spotted in the output table.

Usage:
    python scripts/residue_vanishing_scan.py --N 1 --ell 2 --out scan.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aqrm.poly import constraint_value  # noqa: E402
from aqrm.series import ModelParams, b_residual, t_function  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--ell", type=int, default=2)
    ap.add_argument("--g-min", type=float, default=0.1)
    ap.add_argument("--g-max", type=float, default=3.0)
    ap.add_argument("--g-step", type=float, default=0.05)
    ap.add_argument("--delta-min", type=float, default=0.25)
    ap.add_argument("--delta-max", type=float, default=6.0)
    ap.add_argument("--delta-step", type=float, default=0.25)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    eps = args.ell / 2.0
    lines = ["g,delta,b_residual,T,P"]
    d = args.delta_min
    while d <= args.delta_max + args.delta_step / 2:
        g = args.g_min
        while g <= args.g_max + args.g_step / 2:
            params = ModelParams(g, d, eps)
            resid = b_residual(args.N, args.ell, params)
            tval = t_function(args.N, params)
            pval = constraint_value(args.N, eps, args.N, (2 * g) ** 2, d * d)
            lines.append(f"{g:.6f},{d:.6f},{resid:.10e},{tval:.10e},{pval:.10e}")
            g += args.g_step
        d += args.delta_step
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(lines) - 1} grid points to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
