#!/usr/bin/env python3
"""Scan every known collapse pair for plurality, veto, and approval.

For each group of control types that coincide as sets, decide membership of
every instance in the bounded universe by brute force, once per type, and
report for each pair of the group whether the two types really agree
everywhere. Exits 1 if any pair disagrees, and 2 if a universe is too large
to scan under the library's default evaluation cap.
"""

import argparse
import itertools
import sys
import time

from controlforge import System
from controlforge.cli import _at_least
from controlforge.solvers import COLLAPSE_GROUPS, Universe, UniverseTooLargeError, collapse_scan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-candidates", type=_at_least(1), default=3)
    parser.add_argument("--max-votes", type=_at_least(0), default=3)
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
        for group in COLLAPSE_GROUPS[system]:
            tick = time.perf_counter()
            try:
                scan = collapse_scan(group, universe)
            except UniverseTooLargeError as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
            # The group's scan time goes on its first pair's line.
            took = f"  ({time.perf_counter() - tick:.2f}s)"
            for type_one, type_two in itertools.combinations(group, 2):
                found = scan.between(type_one, type_two)
                verdict = f"{len(found)} COUNTEREXAMPLES" if found else "ok"
                print(
                    f"  {str(type_one):>13} = {str(type_two):<13} "
                    f"{scan.instances_checked:>5} instances  {verdict}{took}"
                )
                took = ""
                if found:
                    disagreements += 1
                    for ce in found[:3]:
                        print(f"      e.g. focus {ce.instance.focus!r} "
                              f"in {ce.containing_type} only")
    print(f"total: {time.perf_counter() - started:.1f}s, {disagreements} disagreeing pairs")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
