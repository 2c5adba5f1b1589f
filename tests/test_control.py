import dataclasses
import itertools
import pickle
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from controlforge.control import (
    ALL_CONTROL_TYPES,
    Action,
    PartitionKind,
    SolveOutcome,
    TieRule,
    _rounds,
    _verdict,
    focus_lost_mask,
    mask_of_partition,
    outcome_of_mask,
    partition_of_mask,
    partition_problems,
    round_focus_lost,
)
from controlforge.elections import ElectionError, InvalidVoteError, SubsetWinners
from controlforge.reductions import ALL_TRANSFER_RULES, focus_lost_round
from controlforge.solvers import Universe, enumerate_partitions, iter_elections, iter_instances

import reference
from election_strategies import (
    TYPES_BY_ROUNDS,
    control_instances,
    control_types,
    malformed_variants,
    partitions_for,
    plain,
    reference_verifies,
)

T = ControlTypeId.parse


def approval(candidates, *approvals):
    return make_election("approval", candidates, [(a, m) for a, m in approvals])


def trace_of(control_type, instance, partition):
    """The explaining path's trace of a well-formed partition."""
    trace = check_solution(control_type, instance, partition).trace
    assert trace is not None
    return trace


class TestControlTypeId:
    def test_exactly_24_distinct_types(self):
        assert len(ALL_CONTROL_TYPES) == 24
        assert len(set(ALL_CONTROL_TYPES)) == 24

    def test_text_round_trip(self):
        for t in ALL_CONTROL_TYPES:
            assert ControlTypeId.parse(str(t)) == t

    def test_case_insensitive(self):
        assert T("dc-rpc-te-uw") == T("DC-RPC-TE-UW")

    def test_parse_returns_the_canonical_member(self):
        for t in ALL_CONTROL_TYPES:
            for tag in (str(t), str(t).lower(), f"  {t} "):
                assert ControlTypeId.parse(tag) is t

    @pytest.mark.parametrize("bad", ["DC-RPC-TE", "DC_PC_TE_UW", "", "DC-PC-TE-UW-X"])
    def test_rejects_tags_of_the_wrong_shape(self, bad):
        message = f"control type tag {bad!r} is not of the form CC-PC-TE-UW"
        with pytest.raises(ValueError) as refused:
            ControlTypeId.parse(bad)
        assert str(refused.value) == message

    @pytest.mark.parametrize("bad", ["XX-PC-TE-UW", "dc-pc-te-xw", " CC-PV-TP- ", "---"])
    def test_rejects_unknown_tags(self, bad):
        with pytest.raises(ValueError) as refused:
            ControlTypeId.parse(bad)
        assert str(refused.value) == f"unknown control type tag {bad!r}"

    def test_partition_kind(self):
        assert T("CC-PV-TE-UW").partition_kind is PartitionKind.VOTER
        assert T("CC-PC-TE-UW").partition_kind is PartitionKind.CANDIDATE
        assert T("CC-RPC-TE-UW").partition_kind is PartitionKind.CANDIDATE

    def test_compiled_rule(self):
        # Standings of the focus in the final: its unique winner, a
        # cowinner, not a winner.
        final_of_standing = ({"p"}, {"p", "a"}, {"a"})
        for t in ALL_CONTROL_TYPES:
            fresh = ControlTypeId(t.direction, t.action, t.tie_rule, t.winner_model)
            rounds = (t.action is Action.PV, t.action is Action.PC, t.tie_rule is TieRule.TE)
            assert t.shape == rounds
            assert t.goal == tuple(
                standing
                for standing, final in enumerate(final_of_standing)
                if reference.goal_holds(str(t), "p", final)
            )
            # Worked-out booleans leave equality, hashing and repr on the fields.
            assert fresh == t and hash(fresh) == hash(t) and repr(fresh) == repr(t)


class TestSurvivors:
    """The tie rule on hand-checked rounds, in a trace of the round that runs
    the whole candidate set."""

    @staticmethod
    def first_round_survivors(election, tie_rule):
        instance = ControlInstance(election, "a")
        partition = Partition.of_candidates(election.candidates, ())
        trace = trace_of(T(f"CC-PC-{tie_rule.value}-NUW"), instance, partition)
        return trace.first_rounds[0].survivors

    def test_te_tie_eliminates(self):
        election = make_election("plurality", "ab", [("ab", 1), ("ba", 1)])
        assert winners(election.system, "ab", election.votes) == {"a", "b"}
        for tie_rule, expected in ((TieRule.TE, frozenset()), (TieRule.TP, {"a", "b"})):
            assert self.first_round_survivors(election, tie_rule) == expected

    def test_te_unique_winner_advances(self):
        election = make_election("plurality", "ab", [("ab", 2), ("ba", 1)])
        assert self.first_round_survivors(election, TieRule.TE) == {"a"}


class TestRunTwoStage:
    """The two-stage run, as ``check_solution`` traces it."""

    def test_pv_tp_both_survivors_meet_on_full_votes(self):
        election = make_election("plurality", "ab", [("ab", 1), ("ba", 1)])
        instance = ControlInstance(election, "a")
        partition = Partition.of_voters({0}, {1})
        trace = trace_of(T("CC-PV-TP-NUW"), instance, partition)
        assert [r.winners for r in trace.first_rounds] == [{"a"}, {"b"}]
        assert trace.final_candidates == {"a", "b"}
        assert trace.final_winners == {"a", "b"}

    def test_veto_rpc_te_hand_trace(self):
        election = make_election("veto", "abc", [("abc", 1)])
        instance = ControlInstance(election, "a")
        partition = Partition.of_candidates({"a", "b"}, {"c"})
        trace = trace_of(T("CC-RPC-TE-NUW"), instance, partition)
        assert [r.survivors for r in trace.first_rounds] == [{"a"}, {"c"}]
        assert trace.final_candidates == {"a", "c"}
        assert trace.final_winners == {"a"}

    @pytest.mark.parametrize("tie_rule", ["TE", "TP"])
    def test_pc_with_empty_first_block_reruns_whole_election(self, tie_rule):
        election = approval("pa", (("p", "a"), 1), (("a",), 1))
        instance = ControlInstance(election, "p")
        partition = Partition.of_candidates(set(), {"p", "a"})
        trace = trace_of(T(f"CC-PC-{tie_rule}-NUW"), instance, partition)
        assert trace.final_candidates == set(election.candidates)
        assert trace.final_winners == {"a"}

    def test_kind_mismatch_is_diagnosed(self):
        election = make_election("plurality", "ab", [("ab", 1)])
        instance = ControlInstance(election, "a")
        checked = check_solution(
            T("CC-PV-TE-UW"), instance, Partition.of_candidates({"a"}, {"b"})
        )
        assert not checked.ok and checked.trace is None
        assert checked.diagnostic == (
            "expected a voter partition, got a candidate partition"
        )

    def test_bad_blocks_are_diagnosed(self):
        election = make_election("plurality", "ab", [("ab", 1)])
        instance = ControlInstance(election, "a")
        overlapping = Partition.of_candidates({"a", "b"}, {"b"})
        incomplete = Partition.of_candidates({"a"}, set())
        for partition, diagnostic in (
            (overlapping, "blocks overlap on candidate 'b'"),
            (incomplete, "candidate 'b' is in neither block"),
        ):
            checked = check_solution(T("CC-PC-TE-UW"), instance, partition)
            assert not checked.ok and checked.trace is None
            assert checked.diagnostic == diagnostic

    @given(control_instances(max_candidates=3, max_votes=3), control_types, st.data())
    def test_total_and_deterministic(self, instance, control_type, data):
        partition = data.draw(partitions_for(instance, control_type.partition_kind))
        first = trace_of(control_type, instance, partition)
        second = trace_of(control_type, instance, partition)
        assert first == second

    @given(control_instances(max_candidates=3, max_votes=3), control_types, st.data())
    def test_final_candidates_come_from_survivors(self, instance, control_type, data):
        partition = data.draw(partitions_for(instance, control_type.partition_kind))
        trace = trace_of(control_type, instance, partition)
        survived = frozenset().union(*(r.survivors for r in trace.first_rounds))
        if control_type.action is Action.PC:
            assert trace.final_candidates == survived | partition.second
        else:
            assert trace.final_candidates == survived
        assert trace.final_winners <= trace.final_candidates

    @given(control_instances(max_candidates=3, max_votes=3), st.data())
    def test_pc_equals_rpc_when_second_block_survives_whole(self, instance, data):
        tie_rule = data.draw(st.sampled_from(list(TieRule)))
        partition = data.draw(partitions_for(instance, PartitionKind.CANDIDATE))
        system, _, ballots, _ = plain(instance)
        won = reference.winners(system, partition.second, ballots)
        # The tie rule, as TestSurvivors checks it by hand.
        advancing = won if tie_rule is TieRule.TP or len(won) == 1 else frozenset()
        if advancing != partition.second:
            return
        pc = trace_of(T(f"CC-PC-{tie_rule.value}-NUW"), instance, partition)
        rpc = trace_of(T(f"CC-RPC-{tie_rule.value}-NUW"), instance, partition)
        assert pc.final_candidates == rpc.final_candidates
        assert pc.final_winners == rpc.final_winners


@pytest.mark.parametrize("system", list(System))
def test_rounds_match_explicitly_built_elections(system):
    """Scoring a round's candidates against the full votes gives the winners
    of the round's own election, built by the reference from the round's
    candidates or the block's ballots; the bit-level decision agrees with
    the reference's goal on the final winners."""
    for election in iter_elections(Universe(system, 3, 3)):
        instance = ControlInstance(election, election.candidates[0])
        data = plain(instance)
        ballots = data[2]
        everyone = frozenset(election.candidates)
        for control_type in ALL_CONTROL_TYPES:
            tag = str(control_type)
            for partition in enumerate_partitions(instance, control_type.partition_kind):
                trace = trace_of(control_type, instance, partition)
                blocks = (partition.first, partition.second)
                if control_type.action is Action.PV:
                    expected = [(everyone, reference.voter_ballots(ballots, b)) for b in blocks]
                else:
                    rounds = 1 if control_type.action is Action.PC else 2
                    expected = [(block, ballots) for block in blocks[:rounds]]
                won = [reference.winners(system.value, held, cast) for held, cast in expected]
                assert [r.winners for r in trace.first_rounds] == won
                assert [r.candidates for r in trace.first_rounds] == [
                    held for held, _ in expected
                ]
                # The tie rule, as TestSurvivors checks it by hand.
                advancing = [
                    w if control_type.tie_rule is TieRule.TP or len(w) == 1 else frozenset()
                    for w in won
                ]
                assert [r.survivors for r in trace.first_rounds] == advancing
                final_candidates = frozenset().union(*advancing)
                if control_type.action is Action.PC:
                    final_candidates |= partition.second
                assert trace.final_candidates == final_candidates
                final_winners = reference.winners(system.value, final_candidates, ballots)
                assert trace.final_winners == final_winners
                assert final_winners == reference.final_winners(data, tag, *blocks)
                for focus in election.candidates:
                    assert verify_solution(
                        control_type, ControlInstance(election, focus), partition
                    ) == reference.goal_holds(tag, focus, final_winners)


class TestGoal:
    """The goal of ``bench/reference.py``, which the differential tests hold
    the deciding path to."""

    def test_examples(self):
        assert reference.goal_holds("DC-PC-TE-UW", "a", frozenset("ab"))
        assert not reference.goal_holds("CC-PC-TE-NUW", "a", frozenset())
        assert reference.goal_holds("DC-PC-TE-NUW", "a", frozenset("b"))

    @given(st.sets(st.sampled_from("abcd")), st.sampled_from("abcd"))
    def test_winner_model_monotonicity(self, final_winners, focus):
        final = frozenset(final_winners)
        if reference.goal_holds("DC-PC-TE-NUW", focus, final):
            assert reference.goal_holds("DC-PC-TE-UW", focus, final)
        if reference.goal_holds("CC-PC-TE-UW", focus, final):
            assert reference.goal_holds("CC-PC-TE-NUW", focus, final)


class TestVerifySolution:
    def test_do_nothing_partition_on_non_unique_winner(self):
        election = approval("pa", (("p", "a"), 1), (("a",), 1))
        instance = ControlInstance(election, "p")
        partition = Partition.of_candidates(set(), {"p", "a"})
        assert verify_solution(T("DC-PC-TE-UW"), instance, partition)

    def test_isolating_focus_also_works(self):
        election = approval("pa", (("p", "a"), 1), (("a",), 1))
        instance = ControlInstance(election, "p")
        partition = Partition.of_candidates({"p"}, {"a"})
        assert verify_solution(T("DC-PC-TE-UW"), instance, partition)

    def test_cc_on_nonwinner_fails_everywhere(self):
        election = approval("pa", (("a",), 1))
        instance = ControlInstance(election, "p")
        attempt = Partition.of_candidates({"p"}, {"a"})
        assert not verify_solution(T("CC-PC-TP-NUW"), instance, attempt)
        for partition in enumerate_partitions(instance, PartitionKind.CANDIDATE):
            assert not verify_solution(T("CC-PC-TP-NUW"), instance, partition)

    def test_malformed_partition_returns_false_with_diagnostic(self):
        election = make_election("plurality", "ab", [("ab", 1)])
        instance = ControlInstance(election, "a")
        bad = Partition.of_candidates({"a"}, {"a", "b"})
        checked = check_solution(T("DC-PC-TE-UW"), instance, bad)
        assert not checked.ok
        assert "overlap" in checked.diagnostic
        assert not verify_solution(T("DC-PC-TE-UW"), instance, bad)

    def test_empty_final_round_favors_destruction(self):
        # Both voter blocks produce a tie, so TE eliminates everyone.
        election = make_election("plurality", "ab", [("ab", 1), ("ba", 1)])
        instance = ControlInstance(election, "a")
        both_then_none = Partition.of_voters({0, 1}, set())
        trace = trace_of(T("DC-PV-TE-NUW"), instance, both_then_none)
        assert trace.final_candidates == frozenset()
        assert trace.final_winners == frozenset()
        assert verify_solution(T("DC-PV-TE-NUW"), instance, both_then_none)
        assert verify_solution(T("DC-PV-TE-UW"), instance, both_then_none)
        assert not verify_solution(T("CC-PV-TE-NUW"), instance, both_then_none)

    @given(control_instances(max_candidates=3, max_votes=3), control_types, st.data())
    def test_verified_implies_structurally_valid(self, instance, control_type, data):
        partition = data.draw(partitions_for(instance, control_type.partition_kind))
        if verify_solution(control_type, instance, partition):
            assert not partition_problems(
                partition, control_type.partition_kind, instance.election
            )


def reference_partition_problems(partition, kind, election):
    """Every structural check of a partition, walked in turn."""
    if partition.kind is not kind:
        return [f"expected a {kind.value} partition, got a {partition.kind.value} partition"]
    if kind is PartitionKind.CANDIDATE:
        universe = frozenset(election.candidates)
        label = "candidate"
    else:
        universe = frozenset(range(election.votes.total))
        label = "voter index"
    problems = []
    overlap = partition.first & partition.second
    if overlap:
        problems.append(f"blocks overlap on {label} {sorted(overlap)[0]!r}")
    stray = (partition.first | partition.second) - universe
    if stray:
        problems.append(f"unknown {label} {sorted(stray)[0]!r}")
    missing = universe - (partition.first | partition.second)
    if missing:
        problems.append(f"{label} {sorted(missing)[0]!r} is in neither block")
    return problems


def _subsets(items):
    return [
        frozenset(chosen)
        for size in range(len(items) + 1)
        for chosen in itertools.combinations(items, size)
    ]


class TestPartitionProblemsMatchReference:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_pair_of_blocks(self, m, n):
        # Every pair of blocks over the items plus one stray, of either
        # kind, checked against either expected kind: overlaps, strays,
        # missing items and kind mismatches, alone and together.
        candidates = "abc"[:m]
        election = make_election("plurality", candidates, [(candidates, n)] if n else [])
        pools = {
            PartitionKind.CANDIDATE: _subsets(tuple(candidates) + ("z",)),
            PartitionKind.VOTER: _subsets(tuple(range(n + 1))),
        }
        valid = 0
        for kind, blocks in pools.items():
            for first, second in itertools.product(blocks, repeat=2):
                partition = Partition(kind, first, second)
                for expected in PartitionKind:
                    ours = partition_problems(partition, expected, election)
                    assert ours == reference_partition_problems(partition, expected, election)
                    valid += not ours
        assert valid == 2**m + 2**n  # one valid partition per first block of each kind


def reference_mask(partition, kind, election):
    """The first-block mask of a valid partition of this kind, item by item, else -1."""
    if partition.kind is not kind:
        return -1
    if kind is PartitionKind.CANDIDATE:
        items = election.candidates
        is_item = lambda item: isinstance(item, str) and item in items
    else:
        items = tuple(range(election.votes.total))
        is_item = lambda item: isinstance(item, int) and 0 <= item < len(items)
    first, second = partition.first, partition.second
    if not (isinstance(first, frozenset) and isinstance(second, frozenset)):
        return -1
    covered = first | second
    if first & second or covered != frozenset(items) or not all(map(is_item, covered)):
        return -1
    return int("0" + "".join("1" if item in first else "0" for item in items), 2)


class TestMaskOfPartitionMatchesReference:
    """The deciding path's structural check, ``mask_of_partition``, against
    an item-by-item walk and against the explaining path: it returns a mask
    exactly when ``partition_problems`` finds nothing, and then the first
    block's mask. The pools add strays of both kinds and voter indices that
    are equal to an index (0.0, True) or are not (-1, n); every mask of up
    to 12 items is read against the reference's own partition and bits."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_pair_of_blocks(self, m, n):
        candidates = "abc"[:m]
        election = make_election("plurality", candidates, [(candidates, n)] if n else [])
        table = SubsetWinners(election)  # its own table, so every block is a memo miss once
        pools = {
            PartitionKind.CANDIDATE: _subsets(tuple(candidates) + ("z", 0)),
            PartitionKind.VOTER: _subsets(tuple(range(n)) + (n, -1, 0.0, True, "a")),
        }
        valid = set()
        for kind, blocks in pools.items():
            for first, second in itertools.product(blocks, repeat=2):
                partition = Partition(kind, first, second)
                for expected in PartitionKind:
                    mask = mask_of_partition(table, expected, partition)
                    assert mask == reference_mask(partition, expected, election)
                    assert (mask >= 0) == (not partition_problems(partition, expected, election))
                    if mask >= 0:
                        valid.add((expected, mask))
        assert valid == {(PartitionKind.CANDIDATE, mask) for mask in range(2**m)} | {
            (PartitionKind.VOTER, mask) for mask in range(2**n)
        }

    @pytest.mark.parametrize(
        "kind, length",
        [(PartitionKind.CANDIDATE, length) for length in range(1, 13)]
        + [(PartitionKind.VOTER, length) for length in range(13)],
    )
    def test_every_mask_of_each_length(self, kind, length):
        # Every partition of up to 12 items, past the 8 of a block table,
        # read as ``reference.partition_of_code`` builds it (its mask is its
        # first block's ``reference.bits``), and with a stray, a missing item,
        # an overlap, a tuple block or 0.0 for voter 0, under either expected kind.
        if kind is PartitionKind.CANDIDATE:
            election = make_election("approval", string.ascii_lowercase[:length], [])
            items, stray = election.candidates, "z"
        else:
            election = make_election("plurality", "ab", [("ab", length)] if length else [])
            items, stray = tuple(range(length)), length
        table = SubsetWinners(election)
        for mask in range(1 << length):
            first, second = reference.partition_of_code(items, mask)
            partition = Partition(kind, first, second)
            bits = int("0" + reference.bits(items, first), 2)
            assert mask_of_partition(table, kind, partition) == bits == mask
            variants = [
                partition,
                Partition(kind, first | {stray}, second),
                Partition(kind, first, tuple(item for item in items if item in second)),
            ]
            if first:
                item = min(first)
                variants += [Partition(kind, first - {item}, second), Partition(kind, first, second | {item})]
            if kind is PartitionKind.VOTER and length:
                variants.append(Partition(kind, *(b - {0} | {0.0} if 0 in b else b for b in (first, second))))
            for variant in variants:
                for expected in PartitionKind:
                    mask = mask_of_partition(table, expected, variant)
                    assert mask == reference_mask(variant, expected, election)

    @pytest.mark.parametrize("order", [(0, 0.0), (0.0, 0)], ids=["int-first", "float-first"])
    def test_equal_blocks_share_a_memo_entry(self, order):
        # {0.0} == {0} and both hash alike, so whichever is asked first, the
        # other reads its entry; only the int block is a voter block.
        election = make_election("veto", "ab", [("ab", 2)])
        table = SubsetWinners(election)
        for index in order:
            partition = Partition.of_voters({index}, {1})
            expected = 0b10 if type(index) is int else -1
            assert mask_of_partition(table, PartitionKind.VOTER, partition) == expected
            assert mask_of_partition(table, PartitionKind.CANDIDATE, partition) == -1


def reference_round_focus_lost(checked, focus):
    """The round the focus lost, read off the explaining path's trace."""
    for stage in checked.trace.first_rounds:
        if focus in stage.candidates and focus not in stage.survivors:
            return stage.candidates
    return checked.trace.final_candidates


def decide_path_agrees(control_type, instance, partition, expected):
    """Check the deciding path against the expected verdict; True if the partition is malformed."""
    checked = check_solution(control_type, instance, partition)
    verified = verify_solution(control_type, instance, partition)
    assert verified == expected
    assert checked.ok == verified
    if verified:
        lost = round_focus_lost(control_type, instance, partition)
        assert lost == reference_round_focus_lost(checked, instance.focus)
    return checked.trace is None


class TestDecidePathMatchesReference:
    """The deciding path against the reference, on every <=3-candidate,
    <=3-ballot instance of each system, for all 24 types and every
    partition, malformed ones included. A well-formed partition's final
    winners come from ``reference.final_winners`` once per action and tie
    rule, and each of the four goals from ``reference.goal_holds`` on them;
    a malformed one is judged by ``reference.verifies``."""

    @pytest.mark.parametrize("system", list(System))
    def test_every_partition(self, system):
        malformed = 0
        for instance in iter_instances(Universe(system, 3, 3)):
            data = plain(instance)
            for types in TYPES_BY_ROUNDS:
                tags = [str(t) for t in types]
                for partition in enumerate_partitions(instance, types[0].partition_kind):
                    # One replay of the rounds serves the four goals.
                    won = reference.final_winners(data, tags[0], partition.first, partition.second)
                    for control_type, tag in zip(types, tags):
                        expected = reference.goal_holds(tag, instance.focus, won)
                        malformed += decide_path_agrees(control_type, instance, partition, expected)
                    for variant in malformed_variants(partition, instance):
                        for control_type in types:
                            expected = reference_verifies(control_type, data, variant)
                            malformed += decide_path_agrees(control_type, instance, variant, expected)
        assert malformed > 0


def reference_focus_lost_mask(control_type, table, focus, first):
    """The round the focus lost, walked over every round of ``_rounds``."""
    rounds, final = _rounds(control_type, table, first)
    for candidates, _, kept in rounds:
        if candidates & focus and not kept & focus:
            return candidates
    return final


class TestMaskReadersMatchReference:
    """``outcome_of_mask`` and ``focus_lost_mask`` against the per-item and
    per-round walks they replaced. Each election gets a fresh table, so every
    first ask misses the memo."""

    @pytest.mark.parametrize("system", list(System))
    def test_outcome_of_every_candidate_mask(self, system):
        # A candidate partition depends only on the candidates.
        for election in iter_elections(Universe(system, 4, 1)):
            table = SubsetWinners(election)
            for first in range(table.everyone + 1):
                outcome = outcome_of_mask(table, PartitionKind.CANDIDATE, first)
                expected = partition_of_mask(PartitionKind.CANDIDATE, election.candidates, first)
                assert outcome.solution == expected
                assert outcome_of_mask(table, PartitionKind.CANDIDATE, first) is outcome

    @pytest.mark.parametrize("system", list(System))
    def test_focus_lost_mask_on_every_verifying_input(self, system):
        # The types ``focus_lost_round`` reads the lost round of.
        targets = sorted(
            {r.target_type for r in ALL_TRANSFER_RULES if r.construction is focus_lost_round}, key=str
        )
        checked = 0
        for election in iter_elections(Universe(system, 4, 3)):
            table = SubsetWinners(election)
            for focus, control_type in itertools.product(table.bit_of.values(), targets):
                for first in range(table.everyone + 1):
                    if _verdict(control_type, table, focus, first):
                        lost = focus_lost_mask(control_type, table, focus, first)
                        assert lost == reference_focus_lost_mask(control_type, table, focus, first)
                        checked += 1
        assert checked > 0


def _records():
    """One record of each class with its own ``__init__``, with the fields it was given."""
    votes = VoteCollection(("a", "b"), ((Vote.order("ab"), 2), (Vote.order("ba"), 1)))
    election = Election(System.PLURALITY, votes)
    partition = Partition(PartitionKind.CANDIDATE, frozenset("a"), frozenset("b"))
    fields = [
        (VoteCollection, (votes.universe, votes.groups)),
        (Election, (System.PLURALITY, votes)),
        (ControlInstance, (election, "b")),
        (Partition, (PartitionKind.VOTER, frozenset({0}), frozenset({1, 2}))),
        (SolveOutcome, (partition,)),
        (SolveOutcome, (None,)),
    ]
    return [
        pytest.param(cls, args, cls(*args), id=f"{cls.__name__}-{i}")
        for i, (cls, args) in enumerate(fields)
    ]


def _generated(cls, args):
    """The record as the generated frozen ``__init__`` builds it: each field set, nothing checked."""
    record = object.__new__(cls)
    for field, value in zip(dataclasses.fields(cls), args):
        object.__setattr__(record, field.name, value)
    return record


class TestRecordSemanticsMatchReference:
    """The records' own constructors against the dataclass behaviour they
    replace: the generated frozen ``__init__``, equality, hashing, pickling,
    ``dataclasses.replace`` and the refusals of the checks they ran after it."""

    @pytest.mark.parametrize("cls, args, record", _records())
    def test_fields_are_frozen(self, cls, args, record):
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field.name)

    @pytest.mark.parametrize("cls, args, record", _records())
    def test_equal_fields_make_equal_records(self, cls, args, record):
        names = [field.name for field in dataclasses.fields(cls)]
        assert [getattr(record, name) for name in names] == list(args)
        by_keyword = cls(**dict(zip(names, args)))
        reference = _generated(cls, args)
        for other in (cls(*args), by_keyword, reference):
            assert other == record and hash(other) == hash(record)
            assert repr(other) == repr(record)

    @pytest.mark.parametrize("cls, args, record", _records())
    def test_pickle_and_replace_round_trip(self, cls, args, record):
        for copy in (pickle.loads(pickle.dumps(record)), dataclasses.replace(record)):
            assert type(copy) is cls
            assert copy == record and hash(copy) == hash(record)

    def test_replace_runs_the_checks(self):
        instance = ControlInstance(make_election("plurality", "ab", [("ab", 1)]), "b")
        assert dataclasses.replace(instance, focus="a").focus == "a"
        with pytest.raises(ValueError, match="^focus candidate 'x' is not running$"):
            dataclasses.replace(instance, focus="x")

    def test_refusals_read_as_before(self):
        votes = VoteCollection(("a", "b"), ((Vote.order("ab"), 1),))
        election = Election(System.PLURALITY, votes)
        with pytest.raises(ValueError, match="^focus candidate 'x' is not running$"):
            ControlInstance(election, "x")
        with pytest.raises(ValueError, match="^focus candidate 'x' is not running$"):
            ControlInstance(election=election, focus="x")
        with pytest.raises(ElectionError, match="^unknown election system 'bogus'$"):
            Election("bogus", votes)
        with pytest.raises(InvalidVoteError, match="^approval elections take approval ballots, got order$"):
            Election(system=System.APPROVAL, votes=votes)
        for count in (0, -1):
            with pytest.raises(InvalidVoteError, match="^vote multiplicity must be positive$"):
                VoteCollection(("a", "b"), ((Vote.order("ab"), count),))
        # A system given by its value is still read as the member.
        assert Election("plurality", votes).system is System.PLURALITY


def _renamed(instance, mapping):
    election = instance.election
    ballots = [
        (tuple(mapping[c] for c in vote.entries), count)
        for vote, count in election.votes.groups
    ]
    renamed = make_election(
        election.system,
        [mapping[c] for c in election.candidates],
        ballots,
    )
    return ControlInstance(renamed, mapping[instance.focus])


@settings(max_examples=40)
@given(control_instances(max_candidates=3, max_votes=2), control_types, st.data())
def test_membership_invariant_under_renaming(instance, control_type, data):
    from controlforge.solvers import brute_force_search

    fresh = ["x1", "x2", "x3", "x4"]
    names = data.draw(st.permutations(fresh[: len(instance.election.candidates)]))
    mapping = dict(zip(instance.election.candidates, names))
    original = brute_force_search(control_type, instance).found
    renamed = brute_force_search(control_type, _renamed(instance, mapping)).found
    assert original == renamed
