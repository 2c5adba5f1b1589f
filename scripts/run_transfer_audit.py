#!/usr/bin/env python3
"""Audit every registered solution transfer over a bounded universe.

For each transfer rule, each instance, and each partition verifying the
rule's input type, apply the transfer and check the output verifies for the
rule's output type. Each system's instances are walked once, outermost, so
every rule of the system reads one election's tables while they are cached,
and an instance's verifying partitions are kept only while it is audited.
Prints per-rule counts, in registry order, and a total line; exits nonzero
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

    rules = [rule for rule in ALL_TRANSFER_RULES if not args.tag or rule.tag == args.tag]
    transferred = [0] * len(rules)
    bad = [0] * len(rules)
    seconds = [0.0] * len(rules)
    started = time.perf_counter()
    for system in dict.fromkeys(rule.system for rule in rules):
        audited = [(i, rule) for i, rule in enumerate(rules) if rule.system is system]
        universe = Universe(system, args.max_candidates, args.max_votes)
        for instance in iter_instances(universe):
            verifying = {}
            for i, rule in audited:
                tick = time.perf_counter()
                target = rule.target_type
                if target not in verifying:
                    verifying[target] = tuple(verifying_partitions(target, instance))
                for solution in verifying[target]:
                    outcome = rule.apply(instance, solution)
                    transferred[i] += 1
                    if not outcome.found or not verify_solution(
                        rule.source_type, instance, outcome.solution
                    ):
                        bad[i] += 1
                seconds[i] += time.perf_counter() - tick
    for i, rule in enumerate(rules):
        verdict = "ok" if not bad[i] else f"{bad[i]} VIOLATIONS"
        print(
            f"{rule.describe():<60} {transferred[i]:>6} transfers  {verdict}"
            f"  ({seconds[i]:.2f}s)"
        )
    violations = sum(bad)
    print(f"total: {time.perf_counter() - started:.1f}s, {violations} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
