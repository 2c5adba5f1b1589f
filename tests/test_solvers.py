import collections
import functools
import gc
import itertools
import random
import string
import time
import tracemalloc
import weakref
from enum import Enum

import pytest
from hypothesis import given, settings

from controlforge import (
    ControlInstance,
    ControlTypeId,
    Election,
    Partition,
    System,
    Vote,
    VoteCollection,
    check_solution,
    make_election,
    verify_solution,
    winners,
)
from controlforge import control, solvers
from controlforge.control import (
    ALL_CONTROL_TYPES,
    Action,
    PartitionKind,
    partition_items,
    partition_length,
)
from controlforge.elections import SubsetWinners, block_maps, block_table, subset_winners
from controlforge.reductions import ALL_TRANSFER_RULES
from controlforge.solvers import (
    COLLAPSE_GROUPS,
    POLYNOMIAL_SEARCHES,
    VETOER_TYPES,
    BruteForceOracle,
    CollapseCounterexample,
    OracleInconsistencyError,
    Universe,
    UniverseTooLargeError,
    UnsupportedAlgorithmError,
    brute_force_search,
    collapse_pairs,
    collapse_scan,
    enumerate_partitions,
    estimated_scan_evaluations,
    instance_count,
    iter_elections,
    iter_instances,
    lex_min_search_with_oracle,
    polynomial_search,
    verifying_partitions,
)

import reference
from election_strategies import TYPES_BY_ROUNDS, control_instances, control_types, leaves, plain

T = ControlTypeId.parse


def approval_instance(candidates, approvals, focus):
    election = make_election("approval", candidates, [(a, m) for a, m in approvals])
    return ControlInstance(election, focus)


class TestEnumeration:
    def test_two_candidate_order(self):
        instance = approval_instance("ab", [], "a")
        stream = [
            (p.first, p.second)
            for p in enumerate_partitions(instance, PartitionKind.CANDIDATE)
        ]
        assert stream == [
            (frozenset(), frozenset("ab")),
            (frozenset("b"), frozenset("a")),
            (frozenset("a"), frozenset("b")),
            (frozenset("ab"), frozenset()),
        ]

    def test_three_voters_give_eight_partitions(self):
        election = make_election("plurality", "ab", [("ab", 3)])
        instance = ControlInstance(election, "a")
        stream = list(enumerate_partitions(instance, PartitionKind.VOTER))
        assert len(stream) == 8
        assert len(set(stream)) == 8

    def test_bits_round_trip(self):
        three_voters = ControlInstance(make_election("plurality", "ab", [("ab", 3)]), "a")
        no_voters = approval_instance("abc", [], "a")
        for instance, kind, count in (
            (no_voters, PartitionKind.CANDIDATE, 8),
            (three_voters, PartitionKind.VOTER, 8),
            # No voters: one partition, both blocks empty, encoded by "".
            (no_voters, PartitionKind.VOTER, 1),
        ):
            stream = list(enumerate_partitions(instance, kind))
            assert len(set(stream)) == count
            # The i-th partition is the one of first-block mask i.
            table = subset_winners(instance.election)
            for mask, partition in enumerate(stream):
                assert control.mask_of_partition(table, kind, partition) == mask
        # No voters: one partition, both blocks empty, of mask 0.
        assert stream == [Partition.of_voters((), ())]


def reference_elections(universe):
    """The enumeration as it was written over ``Vote`` values: ballots grouped by ``==``."""
    for m in range(1, universe.max_candidates + 1):
        candidates = tuple(string.ascii_lowercase[:m])
        if universe.system is System.APPROVAL:
            ballots = [
                Vote.approval(c for i, c in enumerate(candidates) if code >> (m - 1 - i) & 1)
                for code in range(1 << m)
            ]
        else:
            ballots = [Vote.order(p) for p in itertools.permutations(candidates)]
        for size in range(universe.max_votes + 1):
            if universe.as_multisets:
                pools = itertools.combinations_with_replacement(ballots, size)
            else:
                pools = itertools.product(ballots, repeat=size)
            for pool in pools:
                groups = tuple(
                    (vote, len(list(copies))) for vote, copies in itertools.groupby(pool)
                )
                yield Election(universe.system, VoteCollection(candidates, groups))


class TestEnumerationMatchesReference:
    @pytest.mark.parametrize(
        "universe",
        [Universe(system, 3, 3) for system in System]
        + [Universe(system, 4, 2) for system in System]
        + [Universe(system, 3, 2, as_multisets=False) for system in System]
        # Three ballots in sequence: (b1, b0, b1) is three groups, where
        # counting the codes would give two.
        + [Universe(system, 2, 3, as_multisets=False) for system in System],
        ids=lambda universe: universe.describe(),
    )
    def test_same_elections_in_the_same_order(self, universe):
        missing = object()
        count = 0
        for ours, theirs in itertools.zip_longest(
            iter_elections(universe), reference_elections(universe), fillvalue=missing
        ):
            assert ours == theirs
            count += len(ours.candidates)
        assert count == instance_count(universe)


def _instance_of_length(kind, length):
    """An instance whose partitions of the kind split ``length`` items."""
    if kind is PartitionKind.CANDIDATE:
        return approval_instance(string.ascii_lowercase[:length], [], "a")
    return ControlInstance(make_election("plurality", "ab", [("ab", length)] if length else []), "a")


class TestPartitionEnumerationMatchesReference:
    """``enumerate_partitions`` and the blocks it reads (``block_maps``)
    against ``reference.partition_of_code``, and each block's mask against
    ``reference.bits``, on every mask of both kinds. Past 8 items
    ``block_maps`` walks its items one by one; no election has zero
    candidates, so only the enumeration skips that."""

    @pytest.mark.parametrize(
        "kind, length", [(kind, length) for kind in PartitionKind for length in range(13)]
    )
    def test_every_mask_in_order(self, kind, length):
        if kind is PartitionKind.CANDIDATE:
            items = tuple(string.ascii_lowercase[:length])
        else:
            items = tuple(range(length))
        everyone = (1 << length) - 1
        blocks, mask_of, _ = block_maps(items)
        expected = []
        for mask in range(1 << length):
            first, second = reference.partition_of_code(items, mask)
            expected.append(Partition(kind, first, second))
            assert blocks[mask] == first and blocks[everyone ^ mask] == second
            assert mask_of[first] == int("0" + reference.bits(items, first), 2) == mask
            assert mask_of[second] == everyone ^ mask
        if length or kind is PartitionKind.VOTER:
            instance = _instance_of_length(kind, length)
            assert partition_items(instance, kind) == items
            assert partition_length(instance, kind) == length
            stream = list(enumerate_partitions(instance, kind))
            assert stream == expected
            assert all(type(p.first) is type(p.second) is frozenset for p in stream)

    def test_first_partition_of_forty_voters_comes_at_once(self):
        instance = _instance_of_length(PartitionKind.VOTER, 40)
        start = time.perf_counter()
        first = next(enumerate_partitions(instance, PartitionKind.VOTER))
        assert time.perf_counter() - start < 0.5
        assert first == Partition.of_voters((), range(40))


def _other_election(kind, length):
    """An election other than ``_instance_of_length``'s over the same items."""
    if kind is PartitionKind.CANDIDATE:
        names = string.ascii_lowercase[:length]
        return make_election("veto", names, [(names[::-1], 2)])
    return make_election("approval", "abc", [(("c",), length)] if length else [])


class TestSharedPartitionsMatchReference:
    """The partitions the enumerations yield, against
    ``reference.partition_of_code`` in mask order, on every length of both
    kinds. Up to 8 items each is the object ``outcome_of_mask`` memoizes for
    its item sequence, also on another election over the same items, and a
    second enumeration yields the same objects; past 8 they are equal but
    fresh, and no table's outcomes gain an entry. ``verifying_partitions``
    yields the memo's objects on the desk universes."""

    # No election has zero candidates.
    CASES = [(PartitionKind.VOTER, 0)] + [(kind, n) for kind in PartitionKind for n in range(1, 13)]

    @pytest.mark.parametrize("kind, length", CASES)
    def test_every_mask(self, kind, length):
        instance = _instance_of_length(kind, length)
        items = partition_items(instance, kind)
        subset_winners.cache_clear()
        table = subset_winners(instance.election)
        outcomes = table.outcomes if kind is PartitionKind.CANDIDATE else table.voter_blocks()[2]
        stream = list(enumerate_partitions(instance, kind))
        again = list(enumerate_partitions(instance, kind))
        assert [(p.kind, p.first, p.second) for p in stream] == [
            (kind, *reference.partition_of_code(items, mask)) for mask in range(1 << length)
        ]
        # The focus wins alone or ties with everyone, so every partition verifies.
        cowinner = T("CC-PV-TP-NUW" if kind is PartitionKind.VOTER else "CC-PC-TP-NUW")
        verified = [list(verifying_partitions(cowinner, instance)) for _ in range(2)]
        assert len(outcomes) == (1 << length if length <= 8 else 0)
        other = SubsetWinners(_other_election(kind, length))
        memo = [control.outcome_of_mask(other, kind, mask).solution for mask in range(1 << length)]
        runs = [stream, again, *verified, memo]
        assert all(run == stream for run in runs)
        for one, two in itertools.combinations(runs, 2):
            same = [a is b for a, b in zip(one, two)]
            assert all(same) if length <= 8 else not any(same)

    @pytest.mark.parametrize("system", list(System))
    def test_verifying_partitions_are_the_memos(self, system):
        yielded = 0
        for instance in iter_instances(Universe(system, 3, 4)):
            table = subset_winners(instance.election)
            for control_type in ALL_CONTROL_TYPES:
                kind = control_type.partition_kind
                holds = control.decider(control_type, instance)
                masks = [m for m in range(1 << partition_length(instance, kind)) if holds(m)]
                got = list(verifying_partitions(control_type, instance))
                assert len(got) == len(masks)
                for mask, partition in zip(masks, got):
                    assert partition is control.outcome_of_mask(table, kind, mask).solution
                yielded += len(got)
        assert yielded


class TestBruteForce:
    def test_immune_cc_instance_has_no_solution(self):
        instance = approval_instance("pa", [(("a",), 1)], "p")
        assert brute_force_search(T("CC-PC-TP-NUW"), instance).solution is None

    def test_least_encoding_wins(self):
        instance = approval_instance("pa", [(("a",), 1)], "p")
        outcome = brute_force_search(T("DC-PC-TP-NUW"), instance)
        assert outcome.solution == Partition.of_candidates(set(), {"p", "a"})

    def test_lone_candidate_cannot_be_dethroned(self):
        instance = approval_instance("p", [], "p")
        assert brute_force_search(T("DC-PC-TE-UW"), instance).solution is None

    @given(control_instances(max_candidates=3, max_votes=3), control_types)
    def test_solutions_always_verify(self, instance, control_type):
        outcome = brute_force_search(control_type, instance)
        if outcome.found:
            assert verify_solution(control_type, instance, outcome.solution)



class TestHalfRangeSearchMatchesReference:
    """Brute force decides only the lower half of the masks of RPC and PV
    types; its answer is still ``reference.least_code``. ``verifying_partitions``
    decides every mask and lists the codes whose reference final meets the
    goal; it is held to them up to 3 ballots, since listing the verifying
    partitions of every instance makes the test about 2.5 times as long."""

    @staticmethod
    def _partitions(instance):
        """Per group of ``TYPES_BY_ROUNDS``: its types, the reference finals
        of its codes and the partition of a code."""
        data = plain(instance)
        for types, finals in zip(TYPES_BY_ROUNDS, reference_finals(*data[:3])):
            kind, items = types[0].partition_kind, reference.items_of(data, TAGS[types[0]])
            yield types, finals, (
                lambda code, kind=kind, items=items:
                Partition(kind, *reference.partition_of_code(items, code))
            )

    @pytest.mark.parametrize(
        "universe", [Universe(system, 3, 6) for system in System], ids=Universe.describe
    )
    def test_first_verifying_partition(self, universe):
        for instance in iter_instances(universe):
            least = reference_least_codes(plain(instance))
            for types, _, partition in self._partitions(instance):
                for control_type in types:
                    code = least[control_type]
                    solution = brute_force_search(control_type, instance).solution
                    assert solution == (None if code is None else partition(code))

    @pytest.mark.parametrize(
        "universe", [Universe(system, 3, 3) for system in System], ids=Universe.describe
    )
    def test_verifying_partitions(self, universe):
        for instance in iter_instances(universe):
            for types, finals, partition in self._partitions(instance):
                for control_type in types:
                    assert list(verifying_partitions(control_type, instance)) == [
                        partition(code)
                        for code, won in enumerate(finals)
                        if reference.goal_holds(TAGS[control_type], instance.focus, won)
                    ]

    @pytest.mark.parametrize("system", list(System))
    def test_blocks_swapped_verify_alike_except_under_pc(self, system):
        pc_differs = False
        for instance in iter_instances(Universe(system, 3, 3)):
            for control_type in ALL_CONTROL_TYPES:
                for partition in enumerate_partitions(instance, control_type.partition_kind):
                    swapped = Partition(partition.kind, partition.second, partition.first)
                    alike = verify_solution(control_type, instance, partition) == verify_solution(
                        control_type, instance, swapped
                    )
                    assert alike or control_type.action is Action.PC
                    pc_differs |= not alike
        assert pc_differs


TAGS = {t: str(t) for t in ALL_CONTROL_TYPES}


@functools.lru_cache(maxsize=1)
def reference_finals(system, candidates, ballots):
    """For each group of ``TYPES_BY_ROUNDS``, ``reference.final_winners`` of
    every code; the final does not depend on the focus, so the instances of
    one election share it.

    The codes of one election ask ``reference.winners`` the same questions
    many times (a code and its complement have the same blocks, and the
    final is held over few finalist sets), so its answers are memoized for
    the election by (candidates, ballots) while the finals are computed.
    """
    data = (system, candidates, ballots, None)
    finals = []
    plain_winners, memo = reference.winners, {}

    def memoized(kind, keep, chosen):
        key = keep, tuple(chosen)
        if key not in memo:
            memo[key] = plain_winners(kind, keep, chosen)
        return memo[key]

    reference.winners = memoized
    try:
        for types in TYPES_BY_ROUNDS:
            tag = TAGS[types[0]]
            items = reference.items_of(data, tag)
            finals.append([
                reference.final_winners(data, tag, *reference.partition_of_code(items, code))
                for code in range(1 << len(items))
            ])
    finally:
        reference.winners = plain_winners
    return finals


def reference_least_codes(data):
    """``reference.least_code`` of every type: a well-formed partition
    verifies exactly when ``goal_holds`` accepts its ``final_winners``."""
    least = {}
    for types, finals in zip(TYPES_BY_ROUNDS, reference_finals(*data[:3])):
        for control_type in types:
            tag = TAGS[control_type]
            least[control_type] = next(
                (code for code, won in enumerate(finals) if reference.goal_holds(tag, data[3], won)),
                None,
            )
    return least


class TestSearchOrderMatchesReference:
    """All 24 types asked of each instance in three orders, each from a fresh
    cache. The types of one action and tie rule share a mask sweep, so a
    later one resumes where an earlier one stopped; every answer is still
    ``reference.least_code``, and each search decides only the masks from
    where its sweep stood up to its answer, or to the end of the range."""

    ORDERS = (
        ALL_CONTROL_TYPES,
        ALL_CONTROL_TYPES[::-1],
        tuple(random.Random(2022).sample(ALL_CONTROL_TYPES, len(ALL_CONTROL_TYPES))),
    )

    @pytest.mark.parametrize("system", list(System))
    def test_least_codes_are_the_references(self, system):
        for instance in iter_instances(Universe(system, 3, 3)):
            data = plain(instance)
            expected = {t: reference.least_code(data, TAGS[t]) for t in ALL_CONTROL_TYPES}
            assert reference_least_codes(data) == expected

    @pytest.mark.parametrize(
        "universe",
        [Universe(system, m, 3) for m in (3, 4) for system in System],
        ids=lambda universe: universe.describe(),
    )
    def test_every_order(self, universe, monkeypatch):
        decided = [0]
        standing = control._standing

        def counting(*args):
            decided[0] += 1
            return standing(*args)

        monkeypatch.setattr(control, "_standing", counting)
        for instance in iter_instances(universe):
            data = plain(instance)
            expected = {}  # per type: least code, end of the swept range, least partition
            for control_type, code in reference_least_codes(data).items():
                items = reference.items_of(data, TAGS[control_type])
                every = 1 << len(items)
                end = every if control_type.action is Action.PC else (every + 1) >> 1
                least = None
                if code is not None:
                    blocks = reference.partition_of_code(items, code)
                    least = Partition(control_type.partition_kind, *blocks)
                expected[control_type] = code, end, least
            for order in self.ORDERS:
                subset_winners.cache_clear()
                swept = {}  # (action, tie rule): masks its sweep has decided
                for control_type in order:
                    code, end, least = expected[control_type]
                    before = decided[0]
                    assert brute_force_search(control_type, instance).solution == least
                    rounds = (control_type.action, control_type.tie_rule)
                    position = swept.get(rounds, 0)
                    if code is None or code >= position:
                        swept[rounds] = end if code is None else code + 1
                    assert decided[0] - before == swept.get(rounds, 0) - position


def test_one_off_search_decides_up_to_its_answer():
    # 20 voters split evenly: with the first block empty neither block has a
    # unique winner, so the final is empty and the focus does not win.
    election = make_election("plurality", "ab", [("ab", 10), ("ba", 10)])
    instance = ControlInstance(election, "a")
    subset_winners.cache_clear()
    outcome = brute_force_search(T("DC-PV-TE-NUW"), instance)
    assert outcome.solution == Partition.of_voters((), range(20))
    # Mask 0 alone: the empty block and the whole electorate.
    assert len(subset_winners(election).by_voters) <= 2


@pytest.mark.parametrize("system", list(System))
def test_searches_match_the_explaining_path(system):
    """Brute force and the oracle search decide by bitmask; both return the
    first partition, in encoding order, that ``check_solution`` accepts."""
    for instance in iter_instances(Universe(system, 3, 3)):
        for control_type in ALL_CONTROL_TYPES:
            expected = next(
                (
                    partition
                    for partition in enumerate_partitions(instance, control_type.partition_kind)
                    if check_solution(control_type, instance, partition).ok
                ),
                None,
            )
            assert brute_force_search(control_type, instance).solution == expected
            oracle = BruteForceOracle()
            outcome = lex_min_search_with_oracle(control_type, instance, oracle)
            assert outcome.solution == expected
            assert outcome.found or outcome is control.NO_SOLUTION


@pytest.mark.parametrize("system", list(System))
def test_an_answered_search_returns_the_memoized_outcome(system):
    """Asked again on the same cached tables, brute force returns the very
    outcome it returned first; every search that finds nothing returns the
    one ``NO_SOLUTION``; the searches' sweeps are keyed by plain values,
    never an enum member, whose hash runs in Python; and the outcomes, which
    every election over the same items shares, by the mask alone."""
    subset_winners.cache_clear()
    for instance in iter_instances(Universe(system, 3, 3)):
        first = [brute_force_search(t, instance) for t in ALL_CONTROL_TYPES]
        again = [brute_force_search(t, instance) for t in ALL_CONTROL_TYPES]
        for one, two in zip(first, again):
            assert two is one
            assert one.found or one is control.NO_SOLUTION
        table = subset_winners(instance.election)
        assert not any(isinstance(leaf, Enum) for key in table.memo for leaf in leaves(key))
        assert all(type(key) is int for key in [*table.outcomes, *table.voter_outcomes])


def test_one_off_decisions_on_a_large_election_fill_lazily():
    candidates = tuple(string.ascii_lowercase[:24])
    election = make_election(
        "plurality", candidates, [(candidates[i:] + candidates[:i], 1) for i in range(40)]
    )
    instance = ControlInstance(election, "a")
    by_candidates = Partition.of_candidates(candidates[:12], candidates[12:])
    by_voters = Partition.of_voters(range(20), range(20, 40))
    start = time.perf_counter()
    for control_type in (T("CC-RPC-TE-UW"), T("DC-PC-TP-NUW"), T("CC-PV-TE-NUW")):
        voters = control_type.partition_kind is PartitionKind.VOTER
        partition = by_voters if voters else by_candidates
        checked = check_solution(control_type, instance, partition)
        assert verify_solution(control_type, instance, partition) == checked.ok
    assert time.perf_counter() - start < 2.0
    # Tables of 2^24 and 2^40 entries would never fill; only the rounds
    # asked for are there.
    table = subset_winners(election)
    assert len(table.by_candidates) <= 8
    assert len(table.by_voters) == 2


def test_one_off_decision_on_a_large_electorate_stays_small():
    # The table of 20 000 identical ballots holds no mask per voter.
    election = make_election("plurality", "ab", [("ab", 20_000)])
    instance = ControlInstance(election, "b")
    partition = Partition.of_candidates((), ("a", "b"))
    gc.collect()
    tracemalloc.start()
    try:
        assert verify_solution(T("DC-PC-TE-UW"), instance, partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_voter_block_mask_is_read_from_its_bit_string():
    # One shifted int summed per voter took about a second here. Past 8
    # voters there is no block table: each mask is read item by item.
    n = 200_000
    table = SubsetWinners(make_election("plurality", "ab", [("ab", n)]))
    block = frozenset(range(0, n, 3))
    start = time.perf_counter()
    mask = table.voter_blocks()[1][block]
    assert time.perf_counter() - start < 0.1
    assert mask == int(reference.bits(range(n), block), 2)
    assert table.voter_blocks()[1][frozenset()] == 0


def test_table_cache_is_bounded():
    assert subset_winners.cache_info().maxsize is not None


def test_block_table_cache_is_bounded():
    # The worst case: as many distinct 8-item tables as the cache keeps.
    maxsize = block_table.cache_info().maxsize
    assert maxsize is not None
    names = [tuple(f"c{k}_{i}" for i in range(8)) for k in range(maxsize)]
    block_table.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        tables = [block_table(items) for items in names]
        size = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block_table.cache_info().currsize == maxsize
    assert all(len(blocks) == len(mask_of) == 256 for blocks, mask_of, _ in tables)
    assert size <= 2 << 20


def test_shared_outcomes_are_bounded():
    # The worst case of the outcomes the block tables keep: as many distinct
    # 8-item tables as the cache keeps, each with the outcome of every mask.
    maxsize = block_table.cache_info().maxsize
    names = [tuple(f"c{k}_{i}" for i in range(8)) for k in range(maxsize)]
    elections = [make_election("approval", items, [(items[:3], 1)]) for items in names]
    subset_winners.cache_clear()
    block_table.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for election in elections:
            table = subset_winners(election)
            for mask in range(256):
                control.outcome_of_mask(table, PartitionKind.CANDIDATE, mask)
        size = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(block_table(items)[2]) == 256 for items in names)
    assert block_table.cache_info().misses == maxsize
    assert size <= 3 << 20  # measured about 2.4 MB on Python 3.11


def test_transfer_tables_stay_small():
    # Transfer-style use: every rule applied to every verifying input of
    # every focus of 256 desk elections, as many as the table cache keeps.
    elections = {}
    for system in System:
        for instance in iter_instances(Universe(system, 4, 3)):
            elections.setdefault(instance.election)
    maxsize = subset_winners.cache_info().maxsize
    picked = random.Random(7).sample(sorted(elections, key=repr), maxsize)
    work = [[ControlInstance(e, focus) for focus in e.candidates] for e in picked]
    subset_winners.cache_clear()
    block_table.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for instances in work:
            system = instances[0].election.system
            for rule in (r for r in ALL_TRANSFER_RULES if r.system is system):
                target = rule.target_type
                for instance in instances:
                    for partition in enumerate_partitions(instance, target.partition_kind):
                        if verify_solution(target, instance, partition):
                            rule.apply(instance, partition)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert subset_winners.cache_info().currsize == maxsize
    # About 2.5 KB per table on Python 3.11, and 6.5 KB when each table
    # kept its own outcomes.
    assert retained / maxsize < 3 * 1024


def test_long_enumerations_keep_no_outcome():
    # Past the 8-item block table nothing keeps an outcome: over all 2**10
    # voter masks of a 10-voter election, its enumerations, searches and
    # voter-partition transfers leave its table's voter outcomes empty.
    election = make_election("veto", "abc", [("abc", 4), ("bca", 3), ("cab", 3)])
    subset_winners.cache_clear()
    table = subset_winners(election)
    outcomes = table.voter_blocks()[2]
    rules = [r for r in ALL_TRANSFER_RULES if r.system is System.VETO and r.source_type.shape[0]]
    yielded = found = applied = 0
    for focus in election.candidates:
        instance = ControlInstance(election, focus)
        assert sum(1 for _ in enumerate_partitions(instance, PartitionKind.VOTER)) == 1 << 10
        for control_type in ALL_CONTROL_TYPES:
            if control_type.action is Action.PV:
                yielded += sum(1 for _ in verifying_partitions(control_type, instance))
                found += brute_force_search(control_type, instance).found
        for rule in rules:
            for given in verifying_partitions(rule.target_type, instance):
                applied += rule.apply(instance, given).found
    assert yielded and found and applied
    assert subset_winners(election) is table and table.voter_outcomes is outcomes
    assert not outcomes


def test_a_dropped_table_is_freed_without_the_collector():
    # The winner tables hold plain data, never their owner, so clearing
    # the cache frees a table by reference counting alone.
    election = make_election("plurality", "abcd", [("abcd", 1), ("bcda", 2), ("dcba", 1)])
    instance = ControlInstance(election, "b")
    subset_winners.cache_clear()
    gc.disable()
    try:
        for control_type in ALL_CONTROL_TYPES:
            solution = brute_force_search(control_type, instance).solution
            if solution is not None:
                assert check_solution(control_type, instance, solution).ok
        table = weakref.ref(subset_winners(election))
        assert table().by_candidates and table().by_voters and table().named
        subset_winners.cache_clear()
        assert table() is None
    finally:
        gc.enable()


class TestImmunitySearch:
    def test_dethroning_a_non_unique_winner(self):
        instance = approval_instance("pa", [(("p", "a"), 1), (("a",), 1)], "p")
        outcome = polynomial_search(T("DC-PC-TE-UW"), instance)
        assert outcome.solution == Partition.of_candidates(set(), {"p", "a"})

    def test_nonwinner_stays_a_nonwinner(self):
        instance = approval_instance("pa", [(("a",), 1)], "p")
        assert polynomial_search(T("CC-PC-TP-NUW"), instance).solution is None

    def test_sole_candidate_is_already_unique_winner(self):
        instance = approval_instance("p", [], "p")
        outcome = polynomial_search(T("CC-PC-TP-UW"), instance)
        assert outcome.solution == Partition.of_candidates(set(), {"p"})

    def test_rejects_wrong_system(self):
        election = make_election("plurality", "pa", [("pa", 1)])
        with pytest.raises(UnsupportedAlgorithmError):
            polynomial_search(T("DC-PC-TE-UW"), ControlInstance(election, "p"))

    def test_rejects_uncovered_type(self):
        instance = approval_instance("pa", [], "p")
        with pytest.raises(UnsupportedAlgorithmError):
            polynomial_search(T("DC-PC-TE-NUW"), instance)


class TestIsolationSearch:
    def test_two_way_tie_at_the_top(self):
        instance = approval_instance("pab", [(("a", "b"), 2)], "p")
        outcome = polynomial_search(T("CC-RPC-TE-NUW"), instance)
        assert outcome.solution == Partition.of_candidates({"p"}, {"a", "b"})
        assert verify_solution(T("CC-RPC-TE-NUW"), instance, outcome.solution)

    def test_unique_leader_blocks_the_focus(self):
        instance = approval_instance("pa", [(("a",), 1)], "p")
        assert polynomial_search(T("CC-RPC-TE-NUW"), instance).solution is None

    def test_focus_at_the_top(self):
        instance = approval_instance("pa", [(("p",), 1)], "p")
        outcome = polynomial_search(T("CC-RPC-TE-NUW"), instance)
        assert outcome.solution == Partition.of_candidates({"p"}, {"a"})
        assert verify_solution(T("CC-RPC-TE-NUW"), instance, outcome.solution)

    def test_pc_types_put_the_rest_first(self):
        instance = approval_instance("pab", [(("a", "b"), 2)], "p")
        for tag in ("CC-PC-TE-NUW", "CC-PC-TE-UW"):
            outcome = polynomial_search(T(tag), instance)
            assert outcome.solution == Partition.of_candidates({"a", "b"}, {"p"})

    def test_unique_winner_needs_more_than_a_tie(self):
        instance = approval_instance("pa", [(("p", "a"), 1)], "p")
        assert polynomial_search(T("CC-RPC-TE-NUW"), instance).found
        assert not polynomial_search(T("CC-RPC-TE-UW"), instance).found

    def test_rejects_wrong_system(self):
        election = make_election("veto", "pa", [("pa", 1)])
        with pytest.raises(UnsupportedAlgorithmError):
            polynomial_search(T("CC-RPC-TE-NUW"), ControlInstance(election, "p"))

    def test_rejects_uncovered_type(self):
        instance = approval_instance("pa", [], "p")
        with pytest.raises(UnsupportedAlgorithmError):
            polynomial_search(T("CC-PV-TE-NUW"), instance)


class TestVetoerSearch:
    def test_lone_candidate_has_no_solution(self):
        for votes in ([], [("p", 2)]):
            instance = ControlInstance(make_election("veto", "p", votes), "p")
            for control_type in VETOER_TYPES:
                assert polynomial_search(control_type, instance).solution is None

    def test_two_candidates_do_nothing_unless_the_focus_wins_alone(self):
        checked = 0
        for instance in iter_instances(Universe(System.VETO, 2, 5)):
            election = instance.election
            if len(election.candidates) != 2:
                continue
            alone = winners(election.system, election.candidates, election.votes) == {instance.focus}
            nothing = Partition.of_voters(set(), range(instance.voter_count))
            for control_type in VETOER_TYPES:
                outcome = polynomial_search(control_type, instance)
                assert outcome.solution == (None if alone else nothing)
            checked += 1
        assert checked > 0

    def test_three_candidates_split_off_the_first_rivals_vetoers(self):
        # a's vetoers tie p and b at zero vetoes; a alone advances from the rest.
        election = make_election("veto", "pab", [("pba", 2), ("bap", 1), ("apb", 1)])
        instance = ControlInstance(election, "p")
        for control_type in VETOER_TYPES:
            outcome = polynomial_search(control_type, instance)
            assert outcome.solution == Partition.of_voters({0, 1}, {2, 3})

    def test_rejects_wrong_system(self):
        instance = approval_instance("pa", [], "p")
        with pytest.raises(UnsupportedAlgorithmError):
            polynomial_search(T("DC-PV-TE-NUW"), instance)

    def test_rejects_uncovered_type(self):
        election = make_election("veto", "pa", [("pa", 1)])
        with pytest.raises(UnsupportedAlgorithmError):
            polynomial_search(T("DC-PV-TP-NUW"), ControlInstance(election, "p"))


class TestPolynomialSearchesMatchReference:
    @pytest.mark.parametrize("name", ["approval-immunity", "approval-isolate"])
    def test_solves_exactly_what_brute_force_solves_up_to_six_ballots(self, name):
        types = [
            control_type
            for (system, control_type), (algorithm, _) in POLYNOMIAL_SEARCHES.items()
            if system is System.APPROVAL and algorithm == name
        ]
        assert len(types) == 4
        solved = 0
        for instance in iter_instances(Universe(System.APPROVAL, 3, 6)):
            for control_type in types:
                fast = polynomial_search(control_type, instance)
                assert fast.found == brute_force_search(control_type, instance).found
                assert fast.found or fast is control.NO_SOLUTION
                solved += fast.found
        assert solved > 0


class TestOracleSearch:
    def test_matches_brute_force_on_feasible_instance(self):
        instance = approval_instance("pa", [(("a",), 1)], "p")
        oracle = BruteForceOracle()
        outcome = lex_min_search_with_oracle(T("DC-PC-TP-NUW"), instance, oracle)
        assert outcome.solution == Partition.of_candidates(set(), {"p", "a"})

    def test_infeasible_costs_one_call(self):
        instance = approval_instance("pa", [(("a",), 1)], "p")
        oracle = BruteForceOracle()
        outcome = lex_min_search_with_oracle(T("CC-PC-TP-NUW"), instance, oracle)
        assert outcome.solution is None
        assert oracle.calls == 1

    def test_call_budget_three_candidates(self):
        instance = approval_instance("pab", [(("a", "b"), 2)], "p")
        oracle = BruteForceOracle()
        outcome = lex_min_search_with_oracle(T("CC-RPC-TE-NUW"), instance, oracle)
        assert outcome.found
        assert oracle.calls <= 2 * 3 + 1

    def test_inconsistent_oracle_detected(self):
        instance = approval_instance("pa", [(("a",), 1)], "p")
        liar = lambda control_type, inst, prefix, bits: True
        with pytest.raises(OracleInconsistencyError):
            lex_min_search_with_oracle(T("CC-PC-TP-NUW"), instance, liar)

    @settings(max_examples=40)
    @given(control_instances(max_candidates=3, max_votes=3), control_types)
    def test_agrees_with_brute_force(self, instance, control_type):
        oracle = BruteForceOracle()
        via_oracle = lex_min_search_with_oracle(control_type, instance, oracle)
        assert via_oracle is brute_force_search(control_type, instance)

    # Plurality CC-RPC-TE-UW on candidates p a b with no ballots (L = 3): every
    # round ties, so p wins alone only against {a, b}: masks 011 and 100 verify.
    @pytest.mark.parametrize(
        "prefix, bits, answer",
        [
            (0, 0, True),
            (1, 1, True),
            (3, 2, False),
            (1, 3, False),
            (4, 3, True),
            (1, 4, ValueError),
            (15, 4, ValueError),
            (2, 1, ValueError),
            (-1, 1, ValueError),
            (8, 3, ValueError),
            (0, -1, ValueError),
        ],
    )
    def test_prefix_must_fit_the_encoding(self, prefix, bits, answer):
        instance = ControlInstance(make_election("plurality", "pab", []), "p")
        oracle = BruteForceOracle()
        if answer is ValueError:
            with pytest.raises(ValueError):
                oracle(T("CC-RPC-TE-UW"), instance, prefix, bits)
            assert oracle.calls == 0
        else:
            assert oracle(T("CC-RPC-TE-UW"), instance, prefix, bits) is answer

    def test_one_oracle_answers_each_question_like_a_fresh_one(self):
        # The oracle keeps the last (type, instance)'s length and decider;
        # a question about another pair must not read them.
        candidates = ControlInstance(make_election("plurality", "pab", [("pab", 1)]), "p")
        voters = ControlInstance(make_election("plurality", "pab", [("apb", 2)]), "p")
        # Each question changes the type, the instance, or both.
        questions = [
            (T("CC-RPC-TE-UW"), candidates),
            (T("CC-PV-TE-UW"), voters),
            (T("CC-PV-TE-UW"), candidates),
            (T("DC-PC-TE-UW"), candidates),
            (T("DC-PV-TP-NUW"), voters),
        ]
        shared = BruteForceOracle()
        for control_type, instance in questions * 2:
            length = partition_length(instance, control_type.partition_kind)
            assert length == len(partition_items(instance, control_type.partition_kind))
            for bits in range(length + 1):
                for prefix in range(1 << bits):
                    fresh = BruteForceOracle()(control_type, instance, prefix, bits)
                    assert shared(control_type, instance, prefix, bits) is fresh
        shared(T("CC-RPC-TE-UW"), candidates, 0, 3)
        with pytest.raises(ValueError, match="does not fit 2 items"):
            shared(T("CC-PV-TE-UW"), voters, 0, 3)
        assert shared.calls == 2 * sum(
            2 ** (partition_length(i, t.partition_kind) + 1) - 1 for t, i in questions
        ) + 1


class TestCollapseScan:
    def test_general_tp_pair_agrees_on_small_universe(self):
        universe = Universe(System.PLURALITY, 2, 2)
        report = collapse_scan((T("DC-RPC-TP-NUW"), T("DC-PC-TP-NUW")), universe)
        assert report.agree
        assert report.instances_checked == instance_count(universe)

    def test_cc_vs_dc_disagree(self):
        universe = Universe(System.APPROVAL, 2, 2)
        report = collapse_scan((T("CC-PC-TE-UW"), T("DC-PC-TE-UW")), universe)
        assert not report.agree
        sample = report.counterexamples[0]
        assert verify_solution(sample.containing_type, sample.instance, sample.witness)

    def test_zero_candidates_is_an_empty_universe(self):
        universe = Universe(System.PLURALITY, 0, 2)
        report = collapse_scan((T("DC-RPC-TP-NUW"), T("DC-PC-TP-NUW")), universe)
        assert report.instances_checked == 0
        assert report.agree

    def test_memory_does_not_grow_with_the_universe(self):
        # 1640 and 4134 instances; the scan keeps only counterexamples and
        # the bounded table cache, so the larger universe peaks no higher.
        # Collecting first starts both measurements from the same heap:
        # otherwise the peak moves with whatever garbage earlier tests left
        # for the collector to free during the scan.
        peaks = []
        for max_votes in (4, 5):
            subset_winners.cache_clear()
            gc.collect()
            tracemalloc.start()
            try:
                universe = Universe(System.APPROVAL, 3, max_votes)
                assert collapse_scan((T("DC-PC-TE-UW"), T("DC-RPC-TE-UW")), universe).agree
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_oversized_universe_is_refused(self):
        universe = Universe(System.APPROVAL, 3, 3)
        with pytest.raises(UniverseTooLargeError) as err:
            collapse_scan((T("DC-PC-TE-UW"), T("DC-RPC-TE-UW")), universe, max_evaluations=10)
        assert err.value.estimate > 10

    def test_sequence_mode_enumerates_orderings(self):
        multisets = Universe(System.PLURALITY, 2, 2)
        sequences = Universe(System.PLURALITY, 2, 2, as_multisets=False)
        assert instance_count(sequences) > instance_count(multisets)
        assert sum(1 for _ in iter_instances(sequences)) == instance_count(sequences)

    def test_estimate_counts_both_types(self):
        universe = Universe(System.PLURALITY, 2, 2)
        single = estimated_scan_evaluations((T("DC-PC-TE-UW"),), universe)
        double = estimated_scan_evaluations((T("DC-PC-TE-UW"), T("DC-RPC-TE-UW")), universe)
        assert double == 2 * single


def pairwise_scan(type_one, type_two, universe):
    """The scan of one pair that collapse_scan ran before it took a group:
    (instances checked, counterexamples)."""
    counterexamples = []
    checked = 0
    for instance in iter_instances(universe):
        checked += 1
        first = brute_force_search(type_one, instance).solution
        second = brute_force_search(type_two, instance).solution
        if (first is None) == (second is None):
            continue
        if first is not None:
            counterexamples.append(CollapseCounterexample(instance, type_one, first, type_two))
        else:
            counterexamples.append(CollapseCounterexample(instance, type_two, second, type_one))
    return checked, tuple(counterexamples)


def _group_param(system, group):
    return pytest.param(system, group, id=f"{system.value}:" + ",".join(map(str, group)))


# Two groups whose types do not coincide, so that their pairs have counterexamples.
DISAGREEING_GROUPS = [
    _group_param(System.PLURALITY, tuple(map(T, ("CC-PC-TE-UW", "CC-RPC-TE-UW", "DC-PC-TE-UW")))),
    _group_param(System.APPROVAL, tuple(map(T, ("CC-PC-TE-UW", "DC-PC-TE-UW", "DC-PV-TE-NUW")))),
]


class TestGroupScanMatchesPairwiseReference:
    @pytest.mark.parametrize(
        "system, group",
        [_group_param(system, group) for system in System for group in COLLAPSE_GROUPS[system]]
        + DISAGREEING_GROUPS,
    )
    def test_every_pair_gets_the_pairwise_counterexamples(self, system, group):
        universe = Universe(system, 3, 3)
        report = collapse_scan(group, universe)
        for one, two in itertools.combinations(group, 2):
            checked, counterexamples = pairwise_scan(one, two, universe)
            assert report.instances_checked == checked
            assert report.between(one, two) == counterexamples
        # The registered groups agree everywhere, the two others do not.
        assert report.agree == (group in COLLAPSE_GROUPS[system])

    def test_each_type_is_searched_once_per_instance(self, monkeypatch):
        calls = []

        def counting(control_type, instance):
            calls.append(control_type)
            return brute_force_search(control_type, instance)

        monkeypatch.setattr(solvers, "brute_force_search", counting)
        group = COLLAPSE_GROUPS[System.APPROVAL][1]
        universe = Universe(System.APPROVAL, 2, 3)
        collapse_scan(group, universe)
        assert len(group) == 6
        assert len(calls) == len(group) * instance_count(universe)
        assert collections.Counter(calls) == {t: instance_count(universe) for t in group}


class TestCollapseRegistry:
    def test_pair_counts_per_system(self):
        assert len(collapse_pairs(System.PLURALITY)) == 7
        assert len(collapse_pairs(System.VETO)) == 8
        assert len(collapse_pairs(System.APPROVAL)) == 21

    def test_membership_queries(self):
        def pairs(system):
            return {frozenset(pair) for pair in collapse_pairs(system)}

        assert frozenset(map(T, ("DC-RPC-TP-NUW", "DC-PC-TP-NUW"))) in pairs(System.PLURALITY)
        assert frozenset(map(T, ("DC-PC-TP-UW", "DC-RPC-TE-NUW"))) in pairs(System.APPROVAL)
        assert frozenset(map(T, ("DC-PC-TP-UW", "DC-PC-TE-UW"))) not in pairs(System.PLURALITY)
        assert frozenset(map(T, ("CC-PC-TE-UW", "CC-RPC-TE-UW"))) not in pairs(System.VETO)

    def test_universe_iteration_matches_count(self):
        for system in System:
            universe = Universe(system, 2, 2)
            assert sum(1 for _ in iter_instances(universe)) == instance_count(universe)


class TestUniverseSystemByValue:
    """A universe takes its system by value, as ``Election`` does: a plain
    "approval" used to enumerate order ballots, which the approval elections
    refused, and ``describe`` raised on a plain "veto"."""

    @pytest.mark.parametrize("system", list(System))
    def test_value_means_the_member(self, system):
        by_value, member = Universe(system.value, 2, 1), Universe(system, 2, 1)
        assert by_value == member and by_value.system is system
        assert by_value.describe() == member.describe()
        assert list(iter_instances(by_value)) == list(iter_instances(member))
        group = COLLAPSE_GROUPS[system][0]
        assert collapse_scan(group, by_value) == collapse_scan(group, member)

    def test_unknown_system_is_refused(self):
        with pytest.raises(ValueError):
            Universe("borda", 2, 1)


def _no_ballots(*args):
    raise AssertionError("a universe without ballots built its ballots")


class TestZeroBallotUniverses:
    """A universe of no ballots builds none of the m! (or 2^m) ballots it
    never casts, and a candidate count without names is refused before any
    instance is built. ``all_ballots`` raises here, so neither test can
    spend the time or memory of building them."""

    @pytest.mark.parametrize("system", list(System))
    def test_no_ballot_is_built(self, system, monkeypatch):
        monkeypatch.setattr(solvers, "all_ballots", _no_ballots)
        universe = Universe(system, 9, 0)
        instances = list(iter_instances(universe))
        assert len(instances) == instance_count(universe) == 45
        assert {instance.voter_count for instance in instances} == {0}

    def test_more_candidates_than_names_are_refused_first(self, monkeypatch):
        monkeypatch.setattr(solvers, "all_ballots", _no_ballots)
        with pytest.raises(ValueError, match="at most 26 candidates"):
            next(iter_instances(Universe(System.VETO, 27, 1)))
