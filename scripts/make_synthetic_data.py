#!/usr/bin/env python3
"""Generate the synthetic loss triangle used by the experiments.

Writes a deterministic 10x10 casualty-style runoff triangle to CSV;
rerunning with the same seed reproduces the file byte for byte.
"""

import argparse
import os

from reserve_rl.synthetic import SyntheticSpec, make_synthetic_triangle
from reserve_rl.triangles import write_triangle_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data/triangle.csv", help="output CSV path")
    parser.add_argument("--seed", type=int, default=0)
    defaults = SyntheticSpec()
    parser.add_argument("--years", type=int, default=defaults.n_years)
    parser.add_argument("--loss-ratio", type=float, default=defaults.loss_ratio)
    args = parser.parse_args()

    if args.seed < 0:  # numpy seeds its generators from non-negative integers only
        parser.error(f"--seed must be >= 0, got {args.seed}")
    try:
        spec = SyntheticSpec(n_years=args.years, loss_ratio=args.loss_ratio)
    except ValueError as exc:
        parser.error(str(exc))
    tri = make_synthetic_triangle(spec, seed=args.seed)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    write_triangle_csv(tri, args.out)
    print(f"wrote {tri.n_accident_years} accident years x {tri.n_dev_lags} lags to {args.out}")


if __name__ == "__main__":
    main()
