"""Exhaustive desk-scale acceptance checks.

Each criterion runs over every election of its system(s) with at most 3
candidates and 3 ballots (vote multisets), every choice of focus candidate,
and prints one pass/fail line. Brute-force searches are shared across
criteria 3, 4 and 6 through a module-level memo.
"""

import itertools
import time

from controlforge import (
    Partition,
    System,
    scores,
    verify_solution,
)
from controlforge.control import ALL_CONTROL_TYPES, ControlTypeId, partition_length
from controlforge.elections import winners
from controlforge.hardness import (
    ENCODED_CONTROL_TYPE,
    brute_force_hitting_set,
    encode_hitting_set,
    extract_hitting_set,
    forward_partition,
    iter_hitting_set_instances,
)
from controlforge.reductions import ALL_TRANSFER_RULES
from controlforge.solvers import (
    COLLAPSE_GROUPS,
    IMMUNE_APPROVAL_TYPES,
    POLYNOMIAL_SEARCHES,
    BruteForceOracle,
    Universe,
    brute_force_search,
    collapse_scan,
    iter_instances,
    lex_min_search_with_oracle,
    polynomial_search,
    verifying_partitions,
)

T = ControlTypeId.parse

MAX_CANDIDATES = 3
MAX_VOTES = 3

UNIVERSES = {system: Universe(system, MAX_CANDIDATES, MAX_VOTES) for system in System}

_instances: dict = {}
_search_cache: dict = {}
_verifying_cache: dict = {}


def instances_of(system):
    if system not in _instances:
        _instances[system] = tuple(iter_instances(UNIVERSES[system]))
    return _instances[system]


def cached_search(control_type, instance):
    key = (control_type, instance)
    if key not in _search_cache:
        _search_cache[key] = brute_force_search(control_type, instance)
    return _search_cache[key]


def verifying_partitions_cached(control_type, instance):
    key = (control_type, instance)
    if key not in _verifying_cache:
        _verifying_cache[key] = tuple(verifying_partitions(control_type, instance))
    return _verifying_cache[key]


def report(number, name, checked, failures):
    elapsed = time.perf_counter() - report.start
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(
        f"[criterion {number}] {status}: {name} ({checked} checks, {elapsed:.1f}s)",
        flush=True,
    )
    assert not failures, f"criterion {number}: first violation: {failures[0]}"


def _start_timer():
    report.start = time.perf_counter()


def do_nothing_partition(instance):
    return Partition.of_candidates(set(), frozenset(instance.election.candidates))


def test_criterion_1_collapse_matrix():
    _start_timer()
    failures = []
    pairs = 0
    checks = 0
    for system in System:
        for group in COLLAPSE_GROUPS[system]:
            scan = collapse_scan(group, UNIVERSES[system])
            for type_one, type_two in itertools.combinations(group, 2):
                pairs += 1
                checks += scan.instances_checked
                found = scan.between(type_one, type_two)
                if found:
                    failures.append((system.value, str(type_one), str(type_two), len(found)))
    report(1, f"collapse matrix, {pairs} pairs, zero counterexamples", checks, failures)


def test_criterion_2_transfer_soundness():
    _start_timer()
    failures = []
    checks = 0
    for rule in ALL_TRANSFER_RULES:
        for instance in instances_of(rule.system):
            for solution in verifying_partitions_cached(rule.target_type, instance):
                checks += 1
                outcome = rule.apply(instance, solution)
                if not outcome.found or not verify_solution(
                    rule.source_type, instance, outcome.solution
                ):
                    failures.append((rule.describe(), instance, solution))
    report(
        2,
        f"transfer soundness, all {len(ALL_TRANSFER_RULES)} rules on every verifying input",
        checks,
        failures,
    )


def test_criterion_3_polynomial_algorithm_equivalence():
    _start_timer()
    failures = []
    checks = 0
    for system, control_type in POLYNOMIAL_SEARCHES:
        for instance in instances_of(system):
            checks += 1
            fast = polynomial_search(control_type, instance)
            slow = cached_search(control_type, instance)
            if fast.found != slow.found:
                failures.append((str(control_type), instance, "solvability mismatch"))
            elif fast.found and not verify_solution(control_type, instance, fast.solution):
                failures.append((str(control_type), instance, "non-verifying output"))
    report(3, "polynomial algorithms agree with brute force", checks, failures)


def test_criterion_4_lex_min_oracle_search():
    _start_timer()
    failures = []
    checks = 0
    for system in System:
        for control_type in ALL_CONTROL_TYPES:
            for instance in instances_of(system):
                checks += 1
                oracle = BruteForceOracle()
                via_oracle = lex_min_search_with_oracle(control_type, instance, oracle)
                direct = cached_search(control_type, instance)
                if via_oracle.solution != direct.solution:
                    failures.append((str(control_type), instance, "output mismatch"))
                budget = 2 * partition_length(instance, control_type.partition_kind) + 1
                if oracle.calls > budget:
                    failures.append(
                        (str(control_type), instance, f"{oracle.calls} calls > {budget}")
                    )
    report(4, "oracle search is bit-identical to brute force within 2L+1 calls", checks, failures)


def test_criterion_5_hardness_reduction():
    _start_timer()
    failures = []
    checks = 0
    count = 0
    for hs in iter_hitting_set_instances(max_elements=3, max_sets=3):
        count += 1
        encoded = encode_hitting_set(hs)
        feasible = brute_force_hitting_set(hs) is not None
        member = brute_force_search(ENCODED_CONTROL_TYPE, encoded.instance).found
        checks += 1
        if feasible != member:
            failures.append((hs, "feasibility/membership mismatch"))
        m, n, k = len(hs.elements), len(hs.sets), hs.bound
        for size in range(m + 1):
            for combo in itertools.combinations(hs.elements, size):
                chosen = frozenset(combo)
                arena = chosen | {"c", "w"}
                tally = scores(System.PLURALITY, arena, encoded.election.votes)
                missed = sum(1 for s in hs.sets if not s & chosen)
                checks += 1
                if tally["w"] != 2 * n * (k + 1) + 5 + 2 * (m - size):
                    failures.append((hs, chosen, "spoiler score identity"))
                if tally["c"] != 2 * (m - k) + 2 * n * (k + 1) + 4 + 2 * (k + 1) * missed:
                    failures.append((hs, chosen, "focus score identity"))
                if size <= k and hs.hits_all(chosen):
                    extracted = extract_hitting_set(encoded, forward_partition(hs, chosen))
                    checks += 1
                    if (
                        extracted is None
                        or not hs.hits_all(extracted)
                        or len(extracted) > k
                    ):
                        failures.append((hs, chosen, "round trip broke"))
    report(5, f"hitting-set reduction over all {count} instances", checks, failures)


def test_criterion_6_immunity_suite():
    _start_timer()
    failures = []
    checks = 0

    def precondition(control_type, instance):
        election = instance.election
        won = winners(election.system, election.candidates, election.votes)
        unique = won == frozenset((instance.focus,))
        cowinner = instance.focus in won
        return {
            "DC-PC-TE-UW": unique,
            "DC-PC-TP-NUW": cowinner,
            "CC-PC-TP-UW": not unique,
            "CC-PC-TP-NUW": not cowinner,
        }[str(control_type)]

    for control_type in IMMUNE_APPROVAL_TYPES:
        for instance in instances_of(System.APPROVAL):
            if not precondition(control_type, instance):
                continue
            checks += 1
            if cached_search(control_type, instance).found:
                failures.append((str(control_type), instance))
    report(6, "no partition flips an already-settled immune goal", checks, failures)


def test_criterion_7_do_nothing_partition_everywhere():
    _start_timer()
    failures = []
    checks = 0
    targets = (T("DC-PC-TE-UW"), T("DC-PC-TP-UW"))
    for instance in instances_of(System.APPROVAL):
        election = instance.election
        won = winners(election.system, election.candidates, election.votes)
        if won == frozenset((instance.focus,)):
            continue
        partition = do_nothing_partition(instance)
        for control_type in targets:
            checks += 1
            if not verify_solution(control_type, instance, partition):
                failures.append((str(control_type), instance))
    report(7, "the do-nothing partition solves every non-unique-winner instance", checks, failures)
