#!/usr/bin/env python3
"""Produce spectral-curve tables lambda_i(g) for a set of biases at fixed
level splitting, flagging exceptional points. Degenerate crossings appear only
at half-integer bias and only on Juddian points.

Usage:
    python scripts/spectral_curves.py --delta 1 --eps 0.5 --g-max 2.7 \
        --step 0.05 --levels 8 --out curves_half.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aqrm.spectrum import rows_to_csv, spectral_sweep  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--delta", type=float, default=1.0)
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--g-max", type=float, default=2.7)
    ap.add_argument("--step", type=float, default=0.05)
    ap.add_argument("--levels", type=int, default=8)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    grid = []
    g = args.step
    while g <= args.g_max + args.step / 2:
        grid.append(round(g, 12))
        g += args.step
    rows = spectral_sweep(args.delta, args.eps, grid, args.levels)
    text = rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        crossings = sorted({(r["g"], r["x"]) for r in rows
                            if r["kind"] != "regular" and r["multiplicity"] == 2})
        print(f"wrote {len(rows)} rows to {args.out}; "
              f"{len(crossings)} degenerate crossing(s)")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
