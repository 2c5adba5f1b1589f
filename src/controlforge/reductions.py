"""Solution transfers between collapsing control types.

A transfer rule consumes a verifying partition for one control type (its
target) and constructs, on the same instance, a verifying partition for a
type that coincides with it as a set (its source). ``TransferRule.apply``
decides the input once, on its first-block mask, and returns the one
``NO_SOLUTION`` for an input that does not verify for the target type
(verification is cheap: all three systems have polynomial winner
evaluation). Otherwise it hands the table, focus bit and mask to the
construction its row of ``_RULE_TABLE`` names, a plain function from the
verified mask to the output's mask, and returns the election's memoized
outcome of that mask (``control.outcome_of_mask``), or the verified input
itself when the two masks are equal, in a new ``SolveOutcome`` only if it is
not the memo's partition. A transfer builds no partition.
There are four constructions:

* ``focus_lost_round`` (destructive candidate-partition types sharing a tie
  rule): ``control.focus_lost_mask`` reads off the winner tables the round
  the focus took part in and did not survive; putting that round's
  candidate set D in the first block, ``(D, C - D)``, replays it as round
  one of either game, so the focus is out before the final.
* ``pass_through``: cowinner failure implies unique-winner failure, so a
  destructive cowinner solution already solves the unique-winner type.
* ``keep_or_empty_voters`` (approval DC-PV-TE): the input if it already
  solves the cowinner type, else the empty first voter block ``(empty, V)``.
* a mask builder of ``solvers.POLYNOMIAL_SEARCHES``, bound by
  ``_from_builder``: the one partition it names for the source type, which
  verifies whenever any partition does (the proof is in the builder's
  docstring): ``empty_block`` (approval, the do-nothing partition
  ``(empty, C)``), ``isolate_focus`` (approval CC-TE candidate types, the
  partition that isolates the focus) and ``split_off_vetoers`` (veto
  DC-PV-TE, the voters who veto one candidate other than the focus form the
  first block).

Each runs in time polynomial in the instance and the given solution. A
transfer decides; it builds no trace. ``compose`` makes a chain of rules one
rule that folds the mask through their constructions: one decision, one outcome.
"""

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .control import (
    NO_SOLUTION,
    ControlInstance,
    ControlTypeId,
    Partition,
    SolveOutcome,
    _standing,
    _verdict,
    focus_lost_mask,
    mask_of_partition,
    outcome_of_mask,
    verify_solution,  # unused here; bench/test_bench.py's Binding test looks it up
)
from .elections import SubsetWinners, System, subset_winners
from .solvers import MaskBuilder, do_nothing_mask, isolating_mask, vetoer_mask


class TransferError(ValueError):
    """A transfer was invoked outside its declared scope."""


class CompositionError(TransferError):
    """Two transfer rules do not chain: inner output type != outer input type."""


# A construction maps (source type, target type, table, focus bit, first-block
# mask of an input verified for the target type) to a source solution's mask.
Construction = Callable[[ControlTypeId, ControlTypeId, SubsetWinners, int, int], int]


@dataclass(frozen=True)
class TransferRule:
    """One registered transfer: produces source_type solutions from target_type ones."""

    source_type: ControlTypeId
    target_type: ControlTypeId
    system: System
    tag: str
    construction: Construction = field(compare=False, repr=False)

    def apply(self, instance: ControlInstance, solution: Partition) -> SolveOutcome:
        """The rule's outcome on one input; ``NO_SOLUTION`` unless it verifies for the target."""
        if instance.election.system is not self.system:
            raise TransferError(
                f"rule {self.source_type}<-{self.target_type} is scoped to "
                f"{self.system.value} elections"
            )
        source, target = self.source_type, self.target_type
        table = subset_winners(instance.election)
        focus = table.bit_of[instance.focus]
        first = mask_of_partition(table, target.partition_kind, solution)
        # ``_verdict``'s test and ``search_outcome``'s memo read, inlined: two frames fewer.
        if first < 0 or _standing(table, target.shape, focus, first) not in target.goal:
            return NO_SOLUTION
        out = self.construction(source, target, table, focus, first)
        outcome = (table.voter_outcomes if source.shape[0] else table.outcomes).get(out)
        if out == first:  # the verified input, as it is: its memoized outcome if it holds it
            return outcome if outcome and outcome.solution is solution else SolveOutcome(solution)
        return outcome or outcome_of_mask(table, source.partition_kind, out)

    def describe(self) -> str:
        return f"{self.system.value}: {self.source_type} <- {self.target_type} [{self.tag}]"


def focus_lost_round(source_type, target_type, table, focus, first) -> int:
    """``(D, C - D)`` with D the candidates of the round the focus lost.

    Every round scores its candidate set against the full votes, so the
    round on D has the same outcome as a first block; the focus does not
    survive it under the tie rule source and target share.
    """
    return focus_lost_mask(target_type, table, focus, first)


def pass_through(source_type, target_type, table, focus, first) -> int:
    """The verified input itself: it already solves the (weaker) source type."""
    return first


def _from_builder(build: MaskBuilder) -> Construction:
    """``build(source_type, table, focus)``, whatever the verified input: ``build`` is a
    ``solvers.POLYNOMIAL_SEARCHES`` builder, whose mask verifies whenever any does."""
    return lambda source_type, target_type, table, focus, first: build(source_type, table, focus)


empty_block = _from_builder(do_nothing_mask)
isolate_focus = _from_builder(isolating_mask)
split_off_vetoers = _from_builder(vetoer_mask)


def keep_or_empty_voters(source_type, target_type, table, focus, first) -> int:
    """The input if it verifies for the source type, else ``(empty, V)``.

    Source and target split voters, so the input's mask is decided for the
    source as it stands. Proof sketch: a verified DC-PV-TE-UW input that
    fails DC-PV-TE-NUW has the focus tie some x in the final. Approval scores
    do not depend on the candidate mask, so x has the focus's approval count,
    and the focus is not the unique winner of E. Under TE, ``(empty, V)``
    sends to the final at most E's unique winner (the empty block ties every
    candidate at zero, and a lone candidate has no UW solution), so the focus
    does not win.
    """
    return first if _verdict(source_type, table, focus, first) else 0


# ---------------------------------------------------------------------------
# Registry

_EVERY_SYSTEM = (System.PLURALITY, System.VETO, System.APPROVAL)
_VETO_APPROVAL = (System.VETO, System.APPROVAL)
_APPROVAL = (System.APPROVAL,)
_VETO = (System.VETO,)


# (systems, source, target, tag, construction). find_transfer_chain
# takes the first route it meets, so the order of the rules is behaviour:
# a run of consecutive rows with the same systems expands system by system.
_RULE_TABLE = (
    (_EVERY_SYSTEM, "DC-PC-TP-NUW", "DC-RPC-TP-NUW", "tp_nuw", focus_lost_round),
    (_EVERY_SYSTEM, "DC-RPC-TP-NUW", "DC-PC-TP-NUW", "tp_nuw", focus_lost_round),
    (_EVERY_SYSTEM, "DC-RPC-TE-UW", "DC-RPC-TE-NUW", "te_cycle_step", pass_through),
    (_EVERY_SYSTEM, "DC-RPC-TE-NUW", "DC-PC-TE-NUW", "te_cycle_step", focus_lost_round),
    (_EVERY_SYSTEM, "DC-PC-TE-NUW", "DC-PC-TE-UW", "te_cycle_step", focus_lost_round),
    (_EVERY_SYSTEM, "DC-PC-TE-UW", "DC-RPC-TE-UW", "te_cycle_step", focus_lost_round),
    (_APPROVAL, "DC-PC-TP-UW", "DC-PC-TE-UW", "empty_block", empty_block),
    (_APPROVAL, "DC-PC-TE-UW", "DC-PC-TP-UW", "empty_block", empty_block),
    (_APPROVAL, "CC-PC-TP-UW", "CC-RPC-TP-UW", "empty_block", empty_block),
    (_APPROVAL, "CC-RPC-TP-UW", "CC-PC-TP-UW", "empty_block", empty_block),
    (_APPROVAL, "DC-RPC-TP-UW", "DC-PC-TP-UW", "empty_block", empty_block),
    (_APPROVAL, "DC-PC-TP-UW", "DC-RPC-TP-UW", "empty_block", empty_block),
    (_APPROVAL, "CC-PC-TP-NUW", "CC-RPC-TP-NUW", "empty_block", empty_block),
    (_APPROVAL, "CC-RPC-TP-NUW", "CC-PC-TP-NUW", "empty_block", empty_block),
    (_VETO_APPROVAL, "DC-PV-TE-UW", "DC-PV-TE-NUW", "identity", pass_through),
    (_VETO, "DC-PV-TE-NUW", "DC-PV-TE-UW", "vetoers", split_off_vetoers),
    (_APPROVAL, "DC-PV-TE-NUW", "DC-PV-TE-UW", "keep_or_empty", keep_or_empty_voters),
    (_APPROVAL, "CC-PC-TE-NUW", "CC-RPC-TE-NUW", "isolate", isolate_focus),
    (_APPROVAL, "CC-RPC-TE-NUW", "CC-PC-TE-NUW", "isolate", isolate_focus),
    (_APPROVAL, "CC-PC-TE-UW", "CC-RPC-TE-UW", "isolate", isolate_focus),
    (_APPROVAL, "CC-RPC-TE-UW", "CC-PC-TE-UW", "isolate", isolate_focus),
)


def transfer_registry() -> tuple[TransferRule, ...]:
    """Every implemented transfer rule, in ``_RULE_TABLE`` order."""
    rules = []
    for systems, run in itertools.groupby(_RULE_TABLE, key=itemgetter(0)):
        run = tuple(run)
        for system in systems:
            for _, source, target, tag, construction in run:
                source, target = ControlTypeId.parse(source), ControlTypeId.parse(target)
                rules.append(TransferRule(source, target, system, tag, construction))
    return tuple(rules)


ALL_TRANSFER_RULES: tuple[TransferRule, ...] = transfer_registry()


def rules_for(
    system: "System | str | None" = None,
    source_type: "ControlTypeId | None" = None,
    target_type: "ControlTypeId | None" = None,
) -> list[TransferRule]:
    """The registered rules that match every given filter; a system may be given by its value."""
    if system is not None:
        system = System(system)
    return [
        rule
        for rule in ALL_TRANSFER_RULES
        if (system is None or rule.system is system)
        and (source_type is None or rule.source_type == source_type)
        and (target_type is None or rule.target_type == target_type)
    ]


def compose(chain: "list[TransferRule]") -> TransferRule:
    """The chain as one rule, from the first rule's input to the last rule's output.

    Its construction folds the mask through each rule's construction in order,
    with that rule's own types: ``apply`` decides the chain's input once and
    builds one outcome. Raises CompositionError on an empty chain, and unless
    each rule consumes what the one before it produces, on the same system.
    """
    chain = tuple(chain)
    if not chain:
        raise CompositionError("cannot compose an empty chain")
    for inner, outer in zip(chain, chain[1:]):
        if outer.system is not inner.system:
            raise CompositionError(
                f"cannot compose rules for {outer.system.value} and {inner.system.value}"
            )
        if outer.target_type != inner.source_type:
            raise CompositionError(
                f"outer consumes {outer.target_type} but inner produces {inner.source_type}"
            )

    def fold(source_type, target_type, table, focus, first) -> int:
        for rule in chain:
            first = rule.construction(rule.source_type, rule.target_type, table, focus, first)
        return first

    tag = "+".join(rule.tag for rule in chain)
    return TransferRule(chain[-1].source_type, chain[0].target_type, chain[0].system, tag, fold)


def find_transfer_chain(
    system: "System | str", source_type: ControlTypeId, target_type: ControlTypeId
) -> "list[TransferRule] | None":
    """Shortest chain of registered rules producing source_type from target_type.

    Returns the rules in application order (first consumes target_type),
    or None when the registry offers no route.
    """
    if source_type == target_type:
        return []
    rules = rules_for(system=system)
    frontier = [(target_type, [])]
    seen = {target_type}
    while frontier:
        next_frontier = []
        for have, chain in frontier:
            for rule in rules:
                if rule.target_type != have or rule.source_type in seen:
                    continue
                extended = chain + [rule]
                if rule.source_type == source_type:
                    return extended
                seen.add(rule.source_type)
                next_frontier.append((rule.source_type, extended))
        frontier = next_frontier
    return None
