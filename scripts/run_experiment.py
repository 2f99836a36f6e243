#!/usr/bin/env python3
"""Run the full experiment pipeline on one triangle.

Chains the CLI stages -- ingest, train, evaluate, stress, baselines,
report -- under a single output directory.  Pass ``--sensitivity`` to
also run the (much slower) tail-level x floor retraining grid.
"""

import argparse
import sys

from reserve_rl.cli import main as cli_main


def run(stage_args: list[str]) -> None:
    code = cli_main(stage_args)
    if code != 0:
        print(f"stage {' '.join(stage_args)} failed with exit code {code}", file=sys.stderr)
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--triangle", default="data/triangle.csv")
    parser.add_argument("--config", default=None, help="INI run configuration")
    parser.add_argument("--out", default="runs")
    parser.add_argument("--traces", action="store_true",
                        help="write step traces during evaluate and stress")
    parser.add_argument("--sensitivity", action="store_true")
    args = parser.parse_args()

    common = ["--out", args.out]
    if args.config:
        common += ["--config", args.config]

    run(common + ["ingest", "--triangle", args.triangle])
    traces = ["--traces"] if args.traces else []
    run(common + ["train"])
    run(common + ["evaluate"] + traces)
    run(common + ["stress"] + traces)
    run(common + ["baselines", "--triangle", args.triangle])
    if args.sensitivity:
        run(common + ["sensitivity"])
    run(common + ["report"])
    print(f"pipeline complete; artifacts under {args.out}/")


if __name__ == "__main__":
    main()
