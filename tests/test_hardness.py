import itertools

import pytest

from controlforge import (
    Partition,
    System,
    Vote,
    scores,
    verify_solution,
)
from controlforge.control import ControlTypeId
from controlforge.hardness import (
    ENCODED_CONTROL_TYPE,
    HittingSetInstance,
    InvalidInstanceError,
    InvalidWitnessError,
    brute_force_hitting_set,
    encode_hitting_set,
    extract_hitting_set,
    forward_partition,
    iter_hitting_set_instances,
)
from controlforge.solvers import brute_force_search

HS_ONE = HittingSetInstance(("b1",), (frozenset({"b1"}),), 1)
HS_TWO = HittingSetInstance(("b1", "b2"), (frozenset({"b1", "b2"}),), 1)


class TestInstanceValidation:
    def test_bound_must_be_positive_and_within_ground_set(self):
        with pytest.raises(InvalidInstanceError):
            HittingSetInstance(("b1",), (), 0)
        with pytest.raises(InvalidInstanceError):
            HittingSetInstance(("b1",), (), 2)

    def test_ground_set_must_be_nonempty(self):
        # Checked before the bound, which no k could meet.
        message = "^the ground set needs at least one element$"
        with pytest.raises(InvalidInstanceError, match=message):
            HittingSetInstance((), (), 1)

    def test_sets_must_be_nonempty_subsets(self):
        with pytest.raises(InvalidInstanceError):
            HittingSetInstance(("b1",), (frozenset(),), 1)
        with pytest.raises(InvalidInstanceError):
            HittingSetInstance(("b1",), (frozenset({"b9"}),), 1)

    def test_reserved_and_duplicate_names(self):
        with pytest.raises(InvalidInstanceError):
            HittingSetInstance(("c",), (), 1)
        with pytest.raises(InvalidInstanceError):
            HittingSetInstance(("b1", "b1"), (), 1)


class TestEncoding:
    def test_single_element_counts_and_ballots(self):
        encoded = encode_hitting_set(HS_ONE)
        assert encoded.election.candidates == ("b1", "c", "w")
        assert encoded.instance.focus == "c"
        groups = {str(vote): count for vote, count in encoded.election.votes.groups}
        assert groups == {"c>w>b1": 8, "w>c>b1": 9, "b1>c>w": 4, "b1>w>c": 2}
        assert encoded.election.votes.total == 23

    def test_two_element_totals(self):
        encoded = encode_hitting_set(HS_TWO)
        assert encoded.election.candidates == ("b1", "b2", "c", "w")
        by_label = {block.label: block.count for block in encoded.blocks}
        assert by_label == {
            "focus-first": 10,
            "spoiler-first": 9,
            "set-0": 4,
            "element-b1": 2,
            "element-b2": 2,
        }
        assert encoded.election.votes.total == 27

    def test_set_ballots_list_prefix_in_canonical_order(self):
        hs = HittingSetInstance(
            ("b1", "b2", "b3"), (frozenset({"b3", "b1"}),), 2
        )
        encoded = encode_hitting_set(hs)
        set_block = next(b for b in encoded.blocks if b.label == "set-0")
        assert set_block.ballot == Vote.order(("b1", "b3", "c", "b2", "w"))

    def test_focus_is_always_the_unseated_candidate(self):
        for hs in (HS_ONE, HS_TWO):
            encoded = encode_hitting_set(hs)
            assert encoded.instance.focus == "c"
            assert set(encoded.election.candidates) == set(hs.elements) | {"c", "w"}


class TestForwardWitness:
    def test_spoiler_uniquely_wins_the_first_block(self):
        partition = forward_partition(HS_ONE, {"b1"})
        assert partition == Partition.of_candidates({"b1", "c", "w"}, set())
        encoded = encode_hitting_set(HS_ONE)
        tally = scores(
            System.PLURALITY, {"b1", "c", "w"}, encoded.election.votes
        )
        assert tally == {"b1": 6, "c": 8, "w": 9}
        assert verify_solution(ENCODED_CONTROL_TYPE, encoded.instance, partition)

    def test_smaller_witnesses_accepted(self):
        hs = HittingSetInstance(("b1", "b2"), (frozenset({"b1"}),), 2)
        partition = forward_partition(hs, {"b1"})
        encoded = encode_hitting_set(hs)
        assert verify_solution(ENCODED_CONTROL_TYPE, encoded.instance, partition)

    def test_non_hitting_witness_refused(self):
        with pytest.raises(InvalidWitnessError):
            forward_partition(HS_TWO, set())
        oversized = HittingSetInstance(("b1", "b2"), (frozenset({"b1"}),), 1)
        with pytest.raises(InvalidWitnessError):
            forward_partition(oversized, {"b1", "b2"})
        with pytest.raises(InvalidWitnessError):
            forward_partition(HS_ONE, {"zz"})


class TestExtraction:
    def test_round_trip_from_forward_witness(self):
        encoded = encode_hitting_set(HS_ONE)
        partition = forward_partition(HS_ONE, {"b1"})
        assert extract_hitting_set(encoded, partition) == {"b1"}

    def test_extraction_passes_the_ground_truth_check(self):
        encoded = encode_hitting_set(HS_TWO)
        solution = brute_force_search(ENCODED_CONTROL_TYPE, encoded.instance).solution
        assert solution is not None
        extracted = extract_hitting_set(encoded, solution)
        assert HS_TWO.hits_all(extracted)
        assert len(extracted) <= HS_TWO.bound

    def test_non_verifying_partition_rejected(self):
        # Sending only the spoiler forward lets the focus win the final 12-11.
        encoded = encode_hitting_set(HS_ONE)
        harmless = Partition.of_candidates({"b1", "w"}, {"c"})
        assert not verify_solution(ENCODED_CONTROL_TYPE, encoded.instance, harmless)
        assert extract_hitting_set(encoded, harmless) is None
        malformed = Partition.of_candidates({"b1"}, {"b1", "c", "w"})
        assert extract_hitting_set(encoded, malformed) is None


class TestBruteForceHittingSet:
    def test_examples(self):
        assert brute_force_hitting_set(HS_ONE) == {"b1"}
        disjoint = HittingSetInstance(
            ("b1", "b2"), (frozenset({"b1"}), frozenset({"b2"})), 1
        )
        assert brute_force_hitting_set(disjoint) is None

    def test_prefers_smallest_then_lexicographic(self):
        hs = HittingSetInstance(
            ("b1", "b2", "b3"), (frozenset({"b2", "b3"}),), 2
        )
        assert brute_force_hitting_set(hs) == {"b2"}

    def test_empty_family_is_hit_by_nothing(self):
        hs = HittingSetInstance(("b1",), (), 1)
        assert brute_force_hitting_set(hs) == frozenset()


class TestScoreIdentities:
    def test_exact_counts_for_every_chosen_subset(self):
        hs = HittingSetInstance(
            ("b1", "b2", "b3"),
            (frozenset({"b1", "b2"}), frozenset({"b3"})),
            2,
        )
        encoded = encode_hitting_set(hs)
        m, n, k = len(hs.elements), len(hs.sets), hs.bound
        for size in range(m + 1):
            for combo in itertools.combinations(hs.elements, size):
                chosen = frozenset(combo)
                arena = chosen | {"c", "w"}
                tally = scores(System.PLURALITY, arena, encoded.election.votes)
                missed = sum(1 for s in hs.sets if not s & chosen)
                assert tally["w"] == 2 * n * (k + 1) + 5 + 2 * (m - len(chosen))
                assert tally["c"] == 2 * (m - k) + 2 * n * (k + 1) + 4 + 2 * (k + 1) * missed


def test_membership_matches_for_runoff_partition_variant():
    # The encoded instances land in the runoff-partition sibling type exactly
    # when they land in the plain-partition one.
    rpc_type = ControlTypeId.parse("DC-RPC-TP-NUW")
    for hs in iter_hitting_set_instances(max_elements=2, max_sets=2):
        encoded = encode_hitting_set(hs)
        pc = brute_force_search(ENCODED_CONTROL_TYPE, encoded.instance).found
        rpc = brute_force_search(rpc_type, encoded.instance).found
        assert pc == rpc
        assert pc == (brute_force_hitting_set(hs) is not None)
