#!/usr/bin/env python3
"""Sweep the Hitting-Set encoding over every small instance.

Checks, for all ground sets of up to --max-elements elements, all families of
distinct nonempty subsets up to --max-sets, and every bound k: that Hitting-
Set feasibility coincides with brute-force membership of the encoded election
in plurality DC-PC-TP-NUW, and that witnesses round-trip through the forward
builder and the extractor. Exits nonzero on any mismatch.
"""

import argparse
import sys
import time

from controlforge.cli import _at_least
from controlforge.hardness import (
    ENCODED_CONTROL_TYPE,
    brute_force_hitting_set,
    encode_hitting_set,
    extract_hitting_set,
    forward_partition,
    iter_hitting_set_instances,
)
from controlforge.solvers import brute_force_search


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-elements", type=_at_least(1), default=3)
    parser.add_argument("--max-sets", type=_at_least(0), default=3)
    args = parser.parse_args()

    started = time.perf_counter()
    total = feasible = mismatches = round_trips = 0
    for hs in iter_hitting_set_instances(args.max_elements, args.max_sets):
        total += 1
        encoded = encode_hitting_set(hs)
        witness = brute_force_hitting_set(hs)
        member = brute_force_search(ENCODED_CONTROL_TYPE, encoded.instance).found
        if (witness is not None) != member:
            mismatches += 1
            print(f"MISMATCH: {hs}")
            continue
        if witness is None:
            continue
        feasible += 1
        extracted = extract_hitting_set(encoded, forward_partition(hs, witness))
        round_trips += 1
        if extracted is None or not hs.hits_all(extracted) or len(extracted) > hs.bound:
            mismatches += 1
            print(f"BROKEN ROUND TRIP: {hs}")
    print(
        f"{total} instances ({feasible} feasible), {round_trips} round trips, "
        f"{mismatches} mismatches, {time.perf_counter() - started:.1f}s"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
