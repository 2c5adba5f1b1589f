from enum import Enum

import pytest

from controlforge import (
    ControlInstance,
    ControlTypeId,
    Partition,
    System,
    check_solution,
    make_election,
    verify_solution,
)
from controlforge import control
from controlforge.control import ALL_CONTROL_TYPES, Action, PartitionKind, partition_items
from controlforge.elections import subset_winners
from controlforge.control import NO_SOLUTION, SolveOutcome
from controlforge.reductions import (
    ALL_TRANSFER_RULES,
    CompositionError,
    TransferError,
    TransferRule,
    compose,
    empty_block,
    find_transfer_chain,
    focus_lost_round,
    isolate_focus,
    keep_or_empty_voters,
    pass_through,
    rules_for,
    split_off_vetoers,
)
from controlforge.solvers import (
    POLYNOMIAL_SEARCHES,
    VETOER_TYPES,
    Universe,
    brute_force_search,
    enumerate_partitions,
    iter_instances,
    polynomial_search,
    verifying_partitions,
    vetoer_mask,
)

from election_strategies import (
    every_partition,
    leaves,
    malformed_variants,
    plain,
    reference_verifies,
)

T = ControlTypeId.parse


def plurality_instance(candidates, rankings, focus):
    election = make_election("plurality", candidates, [(r, m) for r, m in rankings])
    return ControlInstance(election, focus)


def approval_instance(candidates, approvals, focus):
    election = make_election("approval", candidates, [(a, m) for a, m in approvals])
    return ControlInstance(election, focus)


THREE_WAY = plurality_instance("pab", [("apb", 1), ("abp", 1), ("pab", 1)], "p")


def _rule(system, source, target):
    matching = rules_for(system=system, source_type=T(source), target_type=T(target))
    assert len(matching) == 1
    return matching[0]


PC_FROM_RPC_TP = _rule(System.PLURALITY, "DC-PC-TP-NUW", "DC-RPC-TP-NUW")
RPC_FROM_PC_TP = _rule(System.PLURALITY, "DC-RPC-TP-NUW", "DC-PC-TP-NUW")
UWRPC_FROM_NUWRPC = _rule(System.PLURALITY, "DC-RPC-TE-UW", "DC-RPC-TE-NUW")
NUWRPC_FROM_NUWPC = _rule(System.PLURALITY, "DC-RPC-TE-NUW", "DC-PC-TE-NUW")
NUWPC_FROM_UWPC = _rule(System.PLURALITY, "DC-PC-TE-NUW", "DC-PC-TE-UW")
UWPC_FROM_UWRPC = _rule(System.PLURALITY, "DC-PC-TE-UW", "DC-RPC-TE-UW")
UWARP_DC = _rule(System.APPROVAL, "DC-PC-TP-UW", "DC-PC-TE-UW")
UWARP_DC_REVERSE = _rule(System.APPROVAL, "DC-PC-TE-UW", "DC-PC-TP-UW")
APPROVAL_CC_TP_NUW = _rule(System.APPROVAL, "CC-PC-TP-NUW", "CC-RPC-TP-NUW")
VETO_DC_PV_TE = _rule(System.VETO, "DC-PV-TE-UW", "DC-PV-TE-NUW")
APPROVAL_DC_PV_TE = _rule(System.APPROVAL, "DC-PV-TE-UW", "DC-PV-TE-NUW")


class TestTpNuwTransfer:
    def test_focus_lost_its_own_first_round(self):
        instance = plurality_instance("pa", [("ap", 1)], "p")
        rpc_solution = Partition.of_candidates({"p", "a"}, set())
        assert verify_solution(T("DC-RPC-TP-NUW"), instance, rpc_solution)
        outcome = PC_FROM_RPC_TP.apply(instance, rpc_solution)
        assert outcome.solution == Partition.of_candidates({"p", "a"}, set())
        assert verify_solution(T("DC-PC-TP-NUW"), instance, outcome.solution)

    def test_focus_lost_the_final_round(self):
        rpc_solution = Partition.of_candidates({"p"}, {"a", "b"})
        assert verify_solution(T("DC-RPC-TP-NUW"), THREE_WAY, rpc_solution)
        outcome = PC_FROM_RPC_TP.apply(THREE_WAY, rpc_solution)
        assert outcome.solution == Partition.of_candidates({"p", "a"}, {"b"})
        assert verify_solution(T("DC-PC-TP-NUW"), THREE_WAY, outcome.solution)

    def test_rpc_from_pc_direction(self):
        pc_solution = Partition.of_candidates({"p", "a"}, {"b"})
        assert verify_solution(T("DC-PC-TP-NUW"), THREE_WAY, pc_solution)
        outcome = RPC_FROM_PC_TP.apply(THREE_WAY, pc_solution)
        assert verify_solution(T("DC-RPC-TP-NUW"), THREE_WAY, outcome.solution)

    def test_non_solution_rejected(self):
        instance = plurality_instance("pa", [("pa", 1)], "p")
        losing = Partition.of_candidates(set(), {"p", "a"})
        assert PC_FROM_RPC_TP.apply(instance, losing) is NO_SOLUTION
        assert RPC_FROM_PC_TP.apply(instance, losing) is NO_SOLUTION


class TestTeCycleTransfer:
    def test_pass_through_step(self):
        instance = plurality_instance("pa", [("ap", 1)], "p")
        solution = Partition.of_candidates({"p", "a"}, set())
        assert verify_solution(T("DC-RPC-TE-NUW"), instance, solution)
        outcome = UWRPC_FROM_NUWRPC.apply(instance, solution)
        assert outcome.solution == solution
        assert verify_solution(T("DC-RPC-TE-UW"), instance, outcome.solution)

    def test_focus_fell_at_the_final_hurdle(self):
        pc_solution = Partition.of_candidates({"a"}, {"p", "b"})
        assert verify_solution(T("DC-PC-TE-NUW"), THREE_WAY, pc_solution)
        outcome = NUWRPC_FROM_NUWPC.apply(THREE_WAY, pc_solution)
        assert outcome.solution == Partition.of_candidates({"p", "a", "b"}, set())
        assert verify_solution(T("DC-RPC-TE-NUW"), THREE_WAY, outcome.solution)

    def test_block_swap_when_focus_sits_in_block_two(self):
        instance = plurality_instance("pa", [("ap", 1)], "p")
        solution = Partition.of_candidates({"a"}, {"p"})
        assert verify_solution(T("DC-RPC-TE-UW"), instance, solution)
        outcome = UWPC_FROM_UWRPC.apply(instance, solution)
        assert outcome.solution == Partition.of_candidates({"p", "a"}, set())
        assert verify_solution(T("DC-PC-TE-UW"), instance, outcome.solution)

    def test_nuwpc_from_uwpc_step(self):
        pc_solution = Partition.of_candidates({"a"}, {"p", "b"})
        assert verify_solution(T("DC-PC-TE-UW"), THREE_WAY, pc_solution)
        outcome = NUWPC_FROM_UWPC.apply(THREE_WAY, pc_solution)
        assert verify_solution(T("DC-PC-TE-NUW"), THREE_WAY, outcome.solution)

    def test_non_solution_rejected(self):
        winning = Partition.of_candidates(set(), {"p", "a", "b"})
        # The focus wins the full election outright, so nothing is verified.
        instance = plurality_instance("pab", [("pab", 2), ("abp", 1)], "p")
        assert NUWRPC_FROM_NUWPC.apply(instance, winning) is NO_SOLUTION


class TestEmptyBlockTransfer:
    def test_dc_variant_outputs_do_nothing_partition(self):
        instance = approval_instance("pa", [(("p", "a"), 1), (("a",), 1)], "p")
        verified = Partition.of_candidates({"p"}, {"a"})
        assert verify_solution(T("DC-PC-TE-UW"), instance, verified)
        outcome = UWARP_DC.apply(instance, verified)
        assert outcome.solution == Partition.of_candidates(set(), {"p", "a"})
        assert verify_solution(T("DC-PC-TP-UW"), instance, outcome.solution)

    def test_cc_variant_on_a_sole_candidate(self):
        instance = approval_instance("p", [], "p")
        verified = Partition.of_candidates(set(), {"p"})
        assert verify_solution(T("CC-RPC-TP-NUW"), instance, verified)
        outcome = APPROVAL_CC_TP_NUW.apply(instance, verified)
        assert outcome.solution == Partition.of_candidates(set(), {"p"})
        assert verify_solution(T("CC-PC-TP-NUW"), instance, outcome.solution)

    def test_reverse_direction_checks_the_other_type(self):
        instance = approval_instance("pa", [(("p", "a"), 1), (("a",), 1)], "p")
        verified = Partition.of_candidates(set(), {"p", "a"})
        assert verify_solution(T("DC-PC-TP-UW"), instance, verified)
        outcome = UWARP_DC_REVERSE.apply(instance, verified)
        assert verify_solution(T("DC-PC-TE-UW"), instance, outcome.solution)

    def test_unverified_input_rejected(self):
        winner = approval_instance("pa", [(("p",), 1)], "p")
        attempt = Partition.of_candidates(set(), {"p", "a"})
        assert UWARP_DC.apply(winner, attempt) is NO_SOLUTION

    def test_scoped_to_approval(self):
        instance = plurality_instance("pa", [("ap", 1)], "p")
        with pytest.raises(TransferError):
            UWARP_DC.apply(instance, Partition.of_candidates(set(), {"p", "a"}))


class TestIdentityTransfer:
    def test_veto_pass_through(self):
        election = make_election("veto", "pa", [("ap", 1)])
        instance = ControlInstance(election, "p")
        solution = Partition.of_voters({0}, set())
        assert verify_solution(T("DC-PV-TE-NUW"), instance, solution)
        outcome = VETO_DC_PV_TE.apply(instance, solution)
        assert outcome.solution == solution
        assert verify_solution(T("DC-PV-TE-UW"), instance, outcome.solution)

    def test_approval_pass_through(self):
        instance = approval_instance("pa", [(("a",), 1)], "p")
        solution = Partition.of_voters({0}, set())
        assert verify_solution(T("DC-PV-TE-NUW"), instance, solution)
        outcome = APPROVAL_DC_PV_TE.apply(instance, solution)
        assert outcome.solution == solution
        assert verify_solution(T("DC-PV-TE-UW"), instance, outcome.solution)

    def test_unverified_input_rejected(self):
        instance = approval_instance("pa", [(("p",), 1)], "p")
        attempt = Partition.of_voters({0}, set())
        assert APPROVAL_DC_PV_TE.apply(instance, attempt) is NO_SOLUTION

    def test_scope_checks(self):
        instance = approval_instance("pa", [(("a",), 1)], "p")
        with pytest.raises(TransferError):
            VETO_DC_PV_TE.apply(instance, Partition.of_voters({0}, set()))


class TestVetoerAndIsolateTransfers:
    def test_veto_voter_pair(self):
        election = make_election("veto", "pa", [("pa", 1), ("ap", 1)])
        instance = ControlInstance(election, "p")
        uw_solution = Partition.of_voters(set(), {0, 1})
        assert verify_solution(T("DC-PV-TE-UW"), instance, uw_solution)
        rule = _rule(System.VETO, "DC-PV-TE-NUW", "DC-PV-TE-UW")
        assert rule.construction is split_off_vetoers
        outcome = rule.apply(instance, uw_solution)
        # Two candidates: the output is (empty, V).
        assert outcome.solution == Partition.of_voters(set(), {0, 1})
        assert verify_solution(T("DC-PV-TE-NUW"), instance, outcome.solution)

    def test_approval_constructive_te_pair(self):
        instance = approval_instance("pa", [(("p",), 1)], "p")
        rpc_solution = Partition.of_candidates({"p"}, {"a"})
        assert verify_solution(T("CC-RPC-TE-NUW"), instance, rpc_solution)
        outcome = _rule(System.APPROVAL, "CC-PC-TE-NUW", "CC-RPC-TE-NUW").apply(
            instance, rpc_solution
        )
        # The isolate construction: first block C - {p} for a PC source.
        assert outcome.solution == Partition.of_candidates({"a"}, {"p"})
        assert verify_solution(T("CC-PC-TE-NUW"), instance, outcome.solution)

    def test_unverified_input_rejected(self):
        instance = approval_instance("pa", [(("a",), 1)], "p")
        attempt = Partition.of_candidates({"p"}, {"a"})
        rule = _rule(System.APPROVAL, "CC-PC-TE-NUW", "CC-RPC-TE-NUW")
        assert rule.apply(instance, attempt) is NO_SOLUTION
        # The vetoer split checks its input too.
        election = make_election("veto", "pa", [("pa", 1)])
        rule = _rule(System.VETO, "DC-PV-TE-NUW", "DC-PV-TE-UW")
        attempt = Partition.of_voters({0}, set())
        assert rule.apply(ControlInstance(election, "p"), attempt) is NO_SOLUTION


class TestComposeAndRegistry:
    def test_registry_shape(self):
        assert len(ALL_TRANSFER_RULES) == 34
        assert not [r for r in ALL_TRANSFER_RULES if r.tag == "fallback"]
        assert [r.describe() for r in ALL_TRANSFER_RULES if r.tag == "vetoers"] == [
            "veto: DC-PV-TE-NUW <- DC-PV-TE-UW [vetoers]"
        ]
        for system in System:
            for rule in rules_for(system=system):
                assert rule.system is system

    def test_system_by_value(self):
        # Both used to compare systems by identity: "veto" found no rule and no chain.
        for system in System:
            assert rules_for(system=system.value) == rules_for(system=system)
        assert len(rules_for(system="veto")) == 8
        pc, rpc = T("DC-PC-TP-NUW"), T("DC-RPC-TP-NUW")
        chain = find_transfer_chain(System.VETO, pc, rpc)
        assert chain is not None and find_transfer_chain("veto", pc, rpc) == chain
        with pytest.raises(ValueError):
            rules_for(system="borda")

    def test_compose_cycle_steps(self):
        outer = _rule(System.PLURALITY, "DC-RPC-TE-UW", "DC-RPC-TE-NUW")
        inner = _rule(System.PLURALITY, "DC-RPC-TE-NUW", "DC-PC-TE-NUW")
        pc_solution = Partition.of_candidates({"a"}, {"p", "b"})
        outcomes = compose([inner, outer], THREE_WAY, pc_solution)
        assert len(outcomes) == 2
        assert verify_solution(T("DC-RPC-TE-NUW"), THREE_WAY, outcomes[0].solution)
        assert verify_solution(T("DC-RPC-TE-UW"), THREE_WAY, outcomes[1].solution)

    def test_compose_rejects_mismatched_rules(self):
        outer = _rule(System.PLURALITY, "DC-RPC-TE-UW", "DC-RPC-TE-NUW")
        inner = _rule(System.PLURALITY, "DC-PC-TP-NUW", "DC-RPC-TP-NUW")
        nobody = Partition.of_candidates(set(), {"p", "a", "b"})
        with pytest.raises(CompositionError):
            compose([inner, outer], THREE_WAY, nobody)
        veto_inner = _rule(System.VETO, "DC-RPC-TE-NUW", "DC-PC-TE-NUW")
        with pytest.raises(CompositionError):
            compose([veto_inner, outer], THREE_WAY, nobody)
        # Every adjacent pair is checked, not only the first.
        first = _rule(System.PLURALITY, "DC-RPC-TE-NUW", "DC-PC-TE-NUW")
        with pytest.raises(CompositionError):
            compose([first, outer, inner], THREE_WAY, nobody)

    def test_compose_propagates_rejection(self):
        outer = _rule(System.PLURALITY, "DC-RPC-TE-UW", "DC-RPC-TE-NUW")
        inner = _rule(System.PLURALITY, "DC-RPC-TE-NUW", "DC-PC-TE-NUW")
        instance = plurality_instance("pab", [("pab", 2), ("abp", 1)], "p")
        losing = Partition.of_candidates(set(), {"p", "a", "b"})
        outcomes = compose([inner, outer], instance, losing)
        assert outcomes == [NO_SOLUTION]
        assert compose([], instance, losing) == []

    def test_find_transfer_chain(self):
        chain = find_transfer_chain(System.PLURALITY, T("DC-RPC-TE-UW"), T("DC-PC-TE-NUW"))
        assert [str(r.source_type) for r in chain] == ["DC-RPC-TE-NUW", "DC-RPC-TE-UW"]
        assert find_transfer_chain(System.PLURALITY, T("CC-PC-TE-UW"), T("CC-RPC-TE-UW")) is None
        assert find_transfer_chain(System.APPROVAL, T("DC-PC-TE-UW"), T("DC-PC-TE-UW")) == []


def reference_vetoer_partition(instance):
    """``(S_y, V - S_y)`` for the first y != focus, or ``(empty, V)`` when m <= 2."""
    candidates = instance.election.candidates
    ballots = [vote for vote, count in instance.election.votes.groups for _ in range(count)]
    if len(candidates) <= 2:
        return Partition.of_voters(set(), range(len(ballots)))
    y = [c for c in candidates if c != instance.focus][0]
    vetoers = {i for i, vote in enumerate(ballots) if vote.entries.index(y) == len(candidates) - 1}
    return Partition.of_voters(vetoers, set(range(len(ballots))) - vetoers)


def reference_construction(rule, instance, data, solution):
    """The constructive rules' outputs, with the verdicts of ``bench/reference.py``
    on ``data``, the instance's plain form; the round the focus lost is read
    off the explaining path's trace."""
    construction, source_type, target_type = rule.construction, rule.source_type, rule.target_type
    if not reference_verifies(target_type, data, solution):
        return NO_SOLUTION
    if construction is pass_through:
        return SolveOutcome(solution)
    everyone = frozenset(instance.election.candidates)
    if construction is empty_block:
        return SolveOutcome(Partition.of_candidates(frozenset(), everyone))
    if construction is isolate_focus:
        alone = frozenset({instance.focus})
        if source_type.action is Action.PC:
            return SolveOutcome(Partition.of_candidates(everyone - alone, alone))
        return SolveOutcome(Partition.of_candidates(alone, everyone - alone))
    if construction is keep_or_empty_voters:
        if reference_verifies(source_type, data, solution):
            return SolveOutcome(solution)
        voters = range(sum(count for _, count in instance.election.votes.groups))
        return SolveOutcome(Partition.of_voters(set(), voters))
    if construction is split_off_vetoers:
        return SolveOutcome(reference_vetoer_partition(instance))
    assert construction is focus_lost_round
    trace = check_solution(target_type, instance, solution).trace
    lost_in = trace.final_candidates
    for stage in trace.first_rounds:
        if instance.focus in stage.candidates and instance.focus not in stage.survivors:
            lost_in = stage.candidates
            break
    return SolveOutcome(Partition.of_candidates(lost_in, everyone - lost_in))


class TestConstructionsMatchReference:
    @pytest.mark.parametrize("system", list(System))
    def test_every_input(self, system):
        """Every constructive rule on every partition of its input type, each
        followed by its malformed variants, on every <=3-candidate, <=3-ballot
        instance of the system."""
        rules = rules_for(system=system)
        transferred = rejected = 0
        for instance in iter_instances(Universe(system, 3, 3)):
            data = plain(instance)
            for rule in rules:
                for solution in every_partition(instance, rule.target_type):
                    outcome = rule.apply(instance, solution)
                    assert outcome == reference_construction(rule, instance, data, solution)
                    transferred += outcome.found
                    rejected += not outcome.found
        assert transferred > 0 and rejected > 0


_TE_TYPES = tuple(
    T(tag) for tag in ("DC-RPC-TE-NUW", "DC-PC-TE-NUW", "DC-RPC-TE-UW", "DC-PC-TE-UW")
)


def _lap(system, start):
    """The four cycle rules in application order, starting by consuming start."""
    chain = []
    current = start
    for _ in range(4):
        candidates = [
            r
            for r in rules_for(system=system, target_type=current)
            if r.tag == "te_cycle_step"
        ]
        assert len(candidates) == 1
        chain.append(candidates[0])
        current = candidates[0].source_type
    assert current == start
    return chain


@pytest.mark.parametrize("system", list(System))
def test_te_cycle_closes_on_small_universe(system):
    universe = Universe(system, 2, 2)
    for instance in iter_instances(universe):
        for start in _TE_TYPES:
            verifying = [
                p
                for p in enumerate_partitions(instance, PartitionKind.CANDIDATE)
                if verify_solution(start, instance, p)
            ]
            chain = _lap(system, start)
            for solution in verifying:
                current = solution
                for rule in chain:
                    result = rule.apply(instance, current)
                    assert result.found
                    current = result.solution
                    assert verify_solution(rule.source_type, instance, current)
                # A full lap returns a verifying solution of the start type.
                assert verify_solution(start, instance, current)


class TestApprovalConstructionsReference:
    """The isolate and keep_or_empty rules at six ballots, where the same
    keep-or-empty rule first fails for veto."""

    @pytest.mark.parametrize("tag", ["isolate", "keep_or_empty"])
    def test_every_verifying_input_up_to_six_ballots(self, tag):
        rules = [rule for rule in rules_for(system=System.APPROVAL) if rule.tag == tag]
        assert len(rules) == (4 if tag == "isolate" else 1)
        transferred = 0
        for instance in iter_instances(Universe(System.APPROVAL, 3, 6)):
            for rule in rules:
                for solution in verifying_partitions(rule.target_type, instance):
                    outcome = rule.apply(instance, solution)
                    assert verify_solution(rule.source_type, instance, outcome.solution)
                    transferred += 1
        assert transferred > 0

    def test_veto_splits_off_vetoers(self):
        # Veto scores depend on which candidates a round holds: here b ties c
        # in a final on {b, c}, yet b is the unique winner of the whole
        # election, so (empty, V) sends b alone to the final.
        election = make_election("veto", "abc", [("abc", 3), ("acb", 1), ("cba", 2)])
        instance = ControlInstance(election, "b")
        uw, nuw = T("DC-PV-TE-UW"), T("DC-PV-TE-NUW")
        keep_or_empty = TransferRule(nuw, uw, System.VETO, "keep_or_empty", keep_or_empty_voters)
        failing = []
        for solution in verifying_partitions(uw, instance):
            outcome = keep_or_empty.apply(instance, solution)
            assert isinstance(outcome, SolveOutcome) and outcome.found
            if not verify_solution(nuw, instance, outcome.solution):
                failing.append(solution)
        assert len(failing) == 4
        # The veto rule splits off a's vetoers, the two cba ballots: nobody
        # advances from them, a alone from the rest, and a wins the final.
        rule = _rule(System.VETO, "DC-PV-TE-NUW", "DC-PV-TE-UW")
        for solution in failing:
            outcome = rule.apply(instance, solution)
            assert outcome.solution == Partition.of_voters({4, 5}, {0, 1, 2, 3})
            assert verify_solution(nuw, instance, outcome.solution)


class TestVetoerSplitReference:
    """The vetoer search against brute force for both veto DC-PV-TE types,
    and the vetoer rule on every verifying input."""

    @pytest.mark.parametrize("max_candidates, max_votes", [(3, 8), (4, 3)])
    def test_search_matches_brute_force(self, max_candidates, max_votes):
        solved = 0
        for instance in iter_instances(Universe(System.VETO, max_candidates, max_votes)):
            for control_type in VETOER_TYPES:
                fast = polynomial_search(control_type, instance)
                assert fast.found == brute_force_search(control_type, instance).found
                if fast.found:
                    assert verify_solution(control_type, instance, fast.solution)
                solved += fast.found
        assert solved > 0

    @pytest.mark.parametrize("max_candidates, max_votes", [(3, 6), (4, 3)])
    def test_rule_on_every_verifying_input(self, max_candidates, max_votes):
        rule = _rule(System.VETO, "DC-PV-TE-NUW", "DC-PV-TE-UW")
        transferred = 0
        for instance in iter_instances(Universe(System.VETO, max_candidates, max_votes)):
            # Every input gets the builder's partition, so it is verified once.
            table = subset_winners(instance.election)
            mask = vetoer_mask(rule.source_type, table, table.bit_of[instance.focus])
            built = _memoized(instance, PartitionKind.VOTER, mask)
            inputs = 0
            for solution in verifying_partitions(rule.target_type, instance):
                assert rule.apply(instance, solution).solution == built
                inputs += 1
            if inputs:
                assert verify_solution(rule.source_type, instance, built)
            transferred += inputs
        assert transferred > 0


def _mask(instance, partition):
    """The first-block mask of a partition: item i of L is bit L-1-i."""
    items = partition_items(instance, partition.kind)
    return int("0" + "".join("1" if item in partition.first else "0" for item in items), 2)


def _memoized(instance, kind, mask):
    return control.outcome_of_mask(subset_winners(instance.election), kind, mask).solution


@pytest.mark.parametrize("system", list(System))
def test_transfers_return_the_memoized_partition(system):
    """Every accepted transfer returns the election's memoized partition of
    its mask: the object a second apply returns, and the one brute force
    returns when that mask is its answer. Every rejection is the one
    ``NO_SOLUTION``; a polynomial search finds the memoized partition of its
    builder's mask; no sweep key holds an enum member, and the shared outcomes
    are keyed by the mask alone. A rule whose output
    mask is its input's returns the verified input as it is, so the inputs
    are the memo's own partitions, each followed by its malformed variants."""
    subset_winners.cache_clear()
    rules = rules_for(system=system)
    searched = [(t, build) for (s, t), (_, build) in POLYNOMIAL_SEARCHES.items() if s is system]
    transferred = rejected = found = 0
    for instance in iter_instances(Universe(system, 3, 3)):
        outputs = []
        for rule in rules:
            kind = rule.target_type.partition_kind
            for mask in range(1 << len(partition_items(instance, kind))):
                solution = _memoized(instance, kind, mask)
                for given in [solution, *malformed_variants(solution, instance)]:
                    outcome = rule.apply(instance, given)
                    if not outcome.found:
                        assert outcome is NO_SOLUTION
                        rejected += 1
                        continue
                    output = outcome.solution
                    assert rule.apply(instance, given).solution is output
                    source_kind = rule.source_type.partition_kind
                    assert output is _memoized(instance, source_kind, _mask(instance, output))
                    outputs.append(output)
                    transferred += 1
        answers = [brute_force_search(t, instance).solution for t in ALL_CONTROL_TYPES]
        for output in outputs:
            assert all(answer is output for answer in answers if answer == output)
        for control_type, build in searched:
            outcome = polynomial_search(control_type, instance)
            if outcome.found:
                table = subset_winners(instance.election)
                mask = build(control_type, table, table.bit_of[instance.focus])
                assert mask == _mask(instance, outcome.solution)
                assert outcome.solution is _memoized(instance, control_type.partition_kind, mask)
                found += 1
        table = subset_winners(instance.election)
        assert not any(isinstance(leaf, Enum) for key in table.memo for leaf in leaves(key))
        assert all(type(key) is int for key in [*table.outcomes, *table.voter_outcomes])
    assert transferred and rejected
    assert found or not searched


class TestNonIntegerVoterIndices:
    """A voter index equal to an int but of another type (0.0 == 0) is a
    structural defect: verification says False, the check names it, and a
    transfer rejects it. The cache is cleared first, so the float block is
    not answered by the mask memo of an equal int block."""

    ELECTION = make_election("veto", "pab", [("pab", 1), ("abp", 1)])

    @pytest.mark.parametrize(
        "partition",
        [
            Partition(PartitionKind.VOTER, frozenset({0.0}), frozenset({1})),
            Partition(PartitionKind.VOTER, frozenset({0}), frozenset({1.0})),
            Partition(PartitionKind.VOTER, frozenset({0.0, 1.0}), frozenset()),
        ],
    )
    @pytest.mark.parametrize("tag", ["identity", "vetoers"])
    def test_rejected_not_raised(self, partition, tag):
        subset_winners.cache_clear()
        instance = ControlInstance(self.ELECTION, "p")
        (rule,) = [rule for rule in rules_for(system=System.VETO) if rule.tag == tag]
        assert verify_solution(rule.target_type, instance, partition) is False
        check = check_solution(rule.target_type, instance, partition)
        assert not check.ok and check.trace is None
        assert check.diagnostic.startswith("voter index ")
        assert check.diagnostic.endswith(".0 is not an integer")
        assert rule.apply(instance, partition) is NO_SOLUTION


class TestMalformedPartitions:
    """Partitions that break ``Partition``'s annotations (a kind given by
    its value, blocks that are not frozensets, names mixed with indices) are
    malformed: verification says False, the check names the defect, and a
    transfer rejects them. A defect the check named before keeps its words."""

    ELECTION = make_election("veto", "pab", [("pab", 1), ("abp", 1)])
    VOTER, CANDIDATE = PartitionKind.VOTER, PartitionKind.CANDIDATE

    @pytest.mark.parametrize(
        "target, partition, diagnostic",
        [
            (
                "DC-PV-TE-NUW",
                Partition("voter", frozenset({0}), frozenset({1})),
                "expected a voter partition, got a 'voter' partition",
            ),
            (
                "DC-PV-TE-NUW",
                Partition(VOTER, {0}, {1}),
                "block 1 is a set, not a frozenset; block 2 is a set, not a frozenset",
            ),
            (
                "DC-RPC-TE-UW",
                Partition(CANDIDATE, ["p"], frozenset({"a", "b"})),
                "block 1 is a list, not a frozenset",
            ),
            (
                "DC-RPC-TE-UW",
                Partition(CANDIDATE, frozenset({"a", "b"}), ("p",)),
                "block 2 is a tuple, not a frozenset",
            ),
            (
                "DC-RPC-TE-UW",
                Partition(CANDIDATE, {"p", "a"}, {"a", "b"}),
                "blocks overlap on candidate 'a'",
            ),
            ("DC-PV-TE-UW", Partition.of_voters({"a", 5}, {0, 1}), "unknown voter index 'a'"),
            (
                "DC-RPC-TE-UW",
                Partition.of_candidates({"p", 0, "z"}, {"a", "b"}),
                "unknown candidate 'z'",
            ),
        ],
        ids=[
            "plain-kind",
            "set-blocks",
            "list-block",
            "tuple-block",
            "set-overlap",
            "mixed-voters",
            "mixed-names",
        ],
    )
    def test_rejected_not_raised(self, target, partition, diagnostic):
        instance = ControlInstance(self.ELECTION, "p")
        (rule, *_) = rules_for(system=System.VETO, target_type=T(target))
        assert verify_solution(rule.target_type, instance, partition) is False
        assert check_solution(rule.target_type, instance, partition) == (
            control.SolutionCheck(False, diagnostic, None)
        )
        assert rule.apply(instance, partition) is NO_SOLUTION


@pytest.mark.parametrize("system", list(System))
def test_apply_is_its_construction_and_never_explains(system, monkeypatch):
    """On every <=3-candidate, <=3-ballot instance, each rule's ``apply``
    returns the election's memoized partition of the mask its construction
    maps the input's mask to (the input itself when the two masks are
    equal), on every input that verifies for the target type, and
    ``NO_SOLUTION`` on every other, malformed ones included. The explaining
    path raises throughout: deciding, in ``verify_solution`` and ``apply``,
    never explains."""

    def explain(*args):
        raise AssertionError("a decision explained its partition")

    monkeypatch.setattr(control, "partition_problems", explain)
    accepted = rejected = 0
    for instance in iter_instances(Universe(system, 3, 3)):
        table = subset_winners(instance.election)
        focus = table.bit_of[instance.focus]
        for rule in rules_for(system=system):
            source, target = rule.source_type, rule.target_type
            for given in every_partition(instance, target):
                outcome = rule.apply(instance, given)
                if verify_solution(target, instance, given):
                    first = control.mask_of_partition(table, target.partition_kind, given)
                    out = rule.construction(source, target, table, focus, first)
                    built = control.outcome_of_mask(table, source.partition_kind, out)
                    assert outcome.solution == built.solution
                    assert outcome.solution is (given if out == first else built.solution)
                    accepted += 1
                else:
                    assert outcome is NO_SOLUTION
                    rejected += 1
    assert accepted and rejected


@pytest.mark.parametrize("max_candidates, max_votes", [(4, 4), (3, 6)])
def test_vetoer_mask_matches_reference(max_candidates, max_votes):
    """``vetoer_mask`` reads the vetoers off the table's rows; on every veto
    instance it names the reference's partition of the ballots, for both types."""
    checked = 0
    for instance in iter_instances(Universe(System.VETO, max_candidates, max_votes)):
        table = subset_winners(instance.election)
        want = _mask(instance, reference_vetoer_partition(instance))
        for control_type in VETOER_TYPES:
            assert vetoer_mask(control_type, table, table.bit_of[instance.focus]) == want
        checked += want != 0
    assert checked
