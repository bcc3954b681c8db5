"""Command-line entry point.

    opident selftest [--seed N] [--fast]

prints one JSON line per selftest record (ResidualReport.to_json() plus the
seed) and exits 0 if and only if every record passes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .suites import selftest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opident", description="Check alternating-subset operator identities."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("selftest", help="run the standard battery")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--fast", action="store_true", help="smaller sample counts")
    args = parser.parse_args(argv)

    records = selftest(args.seed, fast=args.fast)
    for record in records:
        print(json.dumps({**record.to_json(), "seed": args.seed}))
    return 0 if all(record.passed for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
