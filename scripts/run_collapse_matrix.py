#!/usr/bin/env python3
"""Scan every known collapse pair for plurality, veto, and approval.

For each pair of control types that coincide as sets, decide membership of
every instance in the bounded universe by brute force and report whether the
two types really agree everywhere. Exits nonzero if any pair disagrees.
"""

import argparse
import sys
import time

from controlforge import System
from controlforge.solvers import Universe, collapse_pairs, collapse_scan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-candidates", type=int, default=3)
    parser.add_argument("--max-votes", type=int, default=3)
    parser.add_argument(
        "--system", choices=[s.value for s in System], default=None,
        help="restrict to one system (default: all three)",
    )
    parser.add_argument(
        "--sequences", action="store_true",
        help="enumerate ballot sequences instead of multisets",
    )
    args = parser.parse_args()

    systems = [System(args.system)] if args.system else list(System)
    disagreements = 0
    started = time.perf_counter()
    for system in systems:
        universe = Universe(
            system, args.max_candidates, args.max_votes, as_multisets=not args.sequences
        )
        print(f"== {universe.describe()}")
        for type_one, type_two in collapse_pairs(system):
            tick = time.perf_counter()
            scan = collapse_scan(type_one, type_two, universe)
            verdict = "ok" if scan.agree else f"{len(scan.counterexamples)} COUNTEREXAMPLES"
            print(
                f"  {str(type_one):>13} = {str(type_two):<13} "
                f"{scan.instances_checked:>5} instances  {verdict}"
                f"  ({time.perf_counter() - tick:.2f}s)"
            )
            if not scan.agree:
                disagreements += 1
                for ce in scan.counterexamples[:3]:
                    print(f"      e.g. focus {ce.instance.focus!r} in {ce.containing_type} only")
    print(f"total: {time.perf_counter() - started:.1f}s, {disagreements} disagreeing pairs")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
