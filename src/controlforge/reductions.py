"""Solution transfers between collapsing control types.

A transfer rule consumes a verifying partition for one control type (its
target) and constructs, on the same instance, a verifying partition for a
type that coincides with it as a set (its source). ``TransferRule.apply``
rejects an input that does not verify for the target type (verification is
cheap: all three systems have polynomial winner evaluation); otherwise the
rule's row of ``_RULE_TABLE`` names the construction that builds the output,
one of four:

* ``focus_lost_round`` (destructive candidate-partition types sharing a tie
  rule): ``control.round_focus_lost`` reads off the winner tables the round
  the focus took part in and did not survive; putting that round's
  candidate set D in the first block, ``(D, C - D)``, replays it as round
  one of either game, so the focus is out before the final.
* ``pass_through``: cowinner failure implies unique-winner failure, so a
  destructive cowinner solution already solves the unique-winner type.
* ``keep_or_empty_voters`` (approval DC-PV-TE): the input if it already
  solves the cowinner type, else the empty first voter block ``(empty, V)``.
* a builder of ``solvers.POLYNOMIAL_SEARCHES``, bound by ``_from_builder``:
  the one partition it makes for the source type, which verifies whenever
  any partition does (the proof is in the builder's docstring). Three
  rules are built this way: ``empty_block`` (approval, the do-nothing
  partition ``(empty, C)``), ``isolate_focus`` (approval CC-TE candidate
  types, the partition that isolates the focus) and ``split_off_vetoers``
  (veto DC-PV-TE, the voters who veto one candidate other than the focus
  form the first block).

Each runs in time polynomial in the instance and the given solution. A
transfer decides; it builds no trace.
"""

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .control import (
    ControlInstance,
    ControlTypeId,
    Partition,
    round_focus_lost,
    verify_solution,
)
from .elections import System
from .solvers import PartitionBuilder, do_nothing_partition, isolating_partition, vetoer_partition


class TransferError(ValueError):
    """A transfer was invoked outside its declared scope."""


class CompositionError(TransferError):
    """Two transfer rules do not chain: inner output type != outer input type."""


@dataclass(frozen=True)
class TransferOutcome:
    """A verifying partition for the rule's source type, or None for a rejected input."""

    solution: "Partition | None"
    # Every rule constructs. bench/workloads.py and bench/tracer.py still read
    # this flag; ROADMAP item 2 deletes it together with those reads.
    via_fallback = False

    @property
    def rejected(self) -> bool:
        return self.solution is None


# A construction maps (source type, target type, instance, target solution
# that ``TransferRule.apply`` has verified) to a source solution.
Construction = Callable[
    [ControlTypeId, ControlTypeId, ControlInstance, Partition], Partition
]


@dataclass(frozen=True)
class TransferRule:
    """One registered transfer: produces source_type solutions from target_type ones."""

    source_type: ControlTypeId
    target_type: ControlTypeId
    system: System
    tag: str
    construction: Construction = field(compare=False, repr=False)

    def apply(self, instance: ControlInstance, solution: Partition) -> TransferOutcome:
        """The rule's outcome on one input: rejected unless it verifies for the target type."""
        if instance.election.system is not self.system:
            raise TransferError(
                f"rule {self.source_type}<-{self.target_type} is scoped to "
                f"{self.system.value} elections"
            )
        if not verify_solution(self.target_type, instance, solution):
            return TransferOutcome(None)
        return TransferOutcome(
            self.construction(self.source_type, self.target_type, instance, solution)
        )

    def describe(self) -> str:
        return f"{self.system.value}: {self.source_type} <- {self.target_type} [{self.tag}]"


def focus_lost_round(
    source_type: ControlTypeId,
    target_type: ControlTypeId,
    instance: ControlInstance,
    solution: Partition,
) -> Partition:
    """``(D, C - D)`` with D the candidates of the round the focus lost.

    Every round scores its candidate set against the full votes, so the
    round on D has the same outcome as a first block; the focus does not
    survive it under the tie rule source and target share.
    """
    lost_in = round_focus_lost(target_type, instance, solution)
    everyone = frozenset(instance.election.candidates)
    return Partition.of_candidates(lost_in, everyone - lost_in)


def pass_through(
    source_type: ControlTypeId,
    target_type: ControlTypeId,
    instance: ControlInstance,
    solution: Partition,
) -> Partition:
    """The verified input itself: it already solves the (weaker) source type."""
    return solution


def _from_builder(build: PartitionBuilder) -> Construction:
    """The construction ``build(source_type, instance)``, whatever the verified input.

    ``build`` is a builder of ``solvers.POLYNOMIAL_SEARCHES``; its docstring
    argues that its partition verifies whenever any partition does.
    """

    def construction(source_type, target_type, instance, solution):
        return build(source_type, instance)

    return construction


empty_block = _from_builder(do_nothing_partition)
isolate_focus = _from_builder(isolating_partition)
split_off_vetoers = _from_builder(vetoer_partition)


def keep_or_empty_voters(
    source_type: ControlTypeId,
    target_type: ControlTypeId,
    instance: ControlInstance,
    solution: Partition,
) -> Partition:
    """The input if it verifies for the source type, else ``(empty, V)``.

    Proof sketch: a verified DC-PV-TE-UW input that fails DC-PV-TE-NUW has
    the focus tie some x in the final. Approval scores do not depend on the
    candidate mask, so x has the focus's approval count, and the focus is not
    the unique winner of E. Under TE, ``(empty, V)`` sends to the final at
    most E's unique winner (the empty block ties every candidate at zero,
    and a lone candidate has no UW solution), so the focus does not win.
    """
    if verify_solution(source_type, instance, solution):
        return solution
    return Partition.of_voters((), range(instance.voter_count))


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
                rules.append(
                    TransferRule(
                        ControlTypeId.parse(source),
                        ControlTypeId.parse(target),
                        system,
                        tag,
                        construction,
                    )
                )
    return tuple(rules)


ALL_TRANSFER_RULES: tuple[TransferRule, ...] = transfer_registry()


def rules_for(
    system: "System | None" = None,
    source_type: "ControlTypeId | None" = None,
    target_type: "ControlTypeId | None" = None,
) -> list[TransferRule]:
    return [
        rule
        for rule in ALL_TRANSFER_RULES
        if (system is None or rule.system is system)
        and (source_type is None or rule.source_type == source_type)
        and (target_type is None or rule.target_type == target_type)
    ]


def compose(
    chain: "list[TransferRule]",
    instance: ControlInstance,
    solution: Partition,
) -> list[TransferOutcome]:
    """Apply the rules in order, each to its predecessor's solution.

    Returns every step's outcome, stopping after the first rejection.
    Raises CompositionError unless each rule consumes what the one before
    it produces, on the same system.
    """
    for inner, outer in zip(chain, chain[1:]):
        if outer.system is not inner.system:
            raise CompositionError(
                f"cannot compose rules for {outer.system.value} and {inner.system.value}"
            )
        if outer.target_type != inner.source_type:
            raise CompositionError(
                f"outer consumes {outer.target_type} but inner produces {inner.source_type}"
            )
    outcomes = []
    for rule in chain:
        outcome = rule.apply(instance, solution)
        outcomes.append(outcome)
        if outcome.rejected:
            break
        solution = outcome.solution
    return outcomes


def find_transfer_chain(
    system: System, source_type: ControlTypeId, target_type: ControlTypeId
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
