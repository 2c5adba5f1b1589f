#!/usr/bin/env python3
"""Audit every registered solution transfer over a bounded universe.

For each transfer rule, each instance, and each partition verifying the
rule's input type, apply the transfer and check the output verifies for the
rule's output type. Prints per-rule counts and a total line; exits nonzero
on any violation.
"""

import argparse
import sys
import time

from controlforge import verify_solution
from controlforge.cli import _at_least
from controlforge.reductions import ALL_TRANSFER_RULES
from controlforge.solvers import Universe, iter_instances, verifying_partitions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-candidates", type=_at_least(1), default=3)
    parser.add_argument("--max-votes", type=_at_least(0), default=3)
    parser.add_argument(
        "--tag",
        choices=tuple(dict.fromkeys(rule.tag for rule in ALL_TRANSFER_RULES)),
        help="restrict to one rule tag",
    )
    args = parser.parse_args()

    instances: dict = {}
    verifying: dict = {}
    violations = 0
    started = time.perf_counter()
    for rule in ALL_TRANSFER_RULES:
        if args.tag and rule.tag != args.tag:
            continue
        if rule.system not in instances:
            universe = Universe(rule.system, args.max_candidates, args.max_votes)
            instances[rule.system] = tuple(iter_instances(universe))
        transferred = 0
        bad = 0
        tick = time.perf_counter()
        for instance in instances[rule.system]:
            key = (rule.target_type, instance)
            if key not in verifying:
                verifying[key] = tuple(verifying_partitions(rule.target_type, instance))
            for solution in verifying[key]:
                outcome = rule.apply(instance, solution)
                transferred += 1
                if not outcome.found or not verify_solution(
                    rule.source_type, instance, outcome.solution
                ):
                    bad += 1
        violations += bad
        verdict = "ok" if not bad else f"{bad} VIOLATIONS"
        print(
            f"{rule.describe():<60} {transferred:>6} transfers  {verdict}"
            f"  ({time.perf_counter() - tick:.2f}s)"
        )
    print(f"total: {time.perf_counter() - started:.1f}s, {violations} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
