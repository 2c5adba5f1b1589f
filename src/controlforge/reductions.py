"""Solution transfers between collapsing control types.

A transfer rule consumes a verifying partition for one control type (its
target) and constructs, on the same instance, a verifying partition for a
type that coincides with it as a set (its source). Each rule is one row of
``_RULE_TABLE`` naming one of six polynomial constructions:

* ``focus_lost_round`` (destructive candidate-partition types sharing a tie
  rule): ``control.round_focus_lost`` reads off the winner tables the round
  the focus took part in and did not survive; putting that round's
  candidate set D in the first block, ``(D, C - D)``, replays it as round
  one of either game, so the focus is out before the final.
* ``pass_through``: cowinner failure implies unique-winner failure, so a
  destructive cowinner solution already solves the unique-winner type.
* ``empty_block`` (approval): both types coincide with a plain winnership
  condition on the unpartitioned election, which the do-nothing partition
  ``(empty, C)`` satisfies whenever any verified input exists.
* ``isolate_focus`` (approval CC-TE candidate types): the partition that
  isolates the focus verifies whenever any partition does.
* ``keep_or_empty_voters`` (approval DC-PV-TE): the input if it already
  solves the cowinner type, else the empty first voter block ``(empty, V)``.
* ``split_off_vetoers`` (veto DC-PV-TE): the voters who veto one candidate
  other than the focus form the first block.

Each runs in time polynomial in the instance and the given solution. Every
transfer first checks its input and rejects non-solutions explicitly:
verification is cheap here because all three systems have polynomial winner
evaluation. A transfer decides; it builds no trace.
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
from .solvers import isolating_partition, vetoer_partition


class TransferError(ValueError):
    """A transfer was invoked outside its declared scope."""


class CompositionError(TransferError):
    """Two transfer rules do not chain: inner output type != outer input type."""


@dataclass(frozen=True)
class TransferOutcome:
    """A verifying partition for the rule's source type, or a rejection."""

    solution: "Partition | None"
    # Every rule constructs. bench/workloads.py and bench/tracer.py still read
    # this flag; ROADMAP item 1 deletes it together with those reads.
    via_fallback = False

    @property
    def rejected(self) -> bool:
        return self.solution is None

    @classmethod
    def reject(cls) -> "TransferOutcome":
        return cls(None)


# A construction maps (source type, target type, instance, verifying target
# solution) to a source solution, or rejects an input that does not verify.
Construction = Callable[
    [ControlTypeId, ControlTypeId, ControlInstance, Partition], TransferOutcome
]


@dataclass(frozen=True)
class TransferRule:
    """One registered transfer: produces source_type solutions from target_type ones."""

    source_type: ControlTypeId
    target_type: ControlTypeId
    system: System
    tag: str
    note: str
    construction: Construction = field(compare=False, repr=False)

    def apply(self, instance: ControlInstance, solution: Partition) -> TransferOutcome:
        """The rule's outcome on one input."""
        if instance.election.system is not self.system:
            raise TransferError(
                f"rule {self.source_type}<-{self.target_type} is scoped to "
                f"{self.system.value} elections"
            )
        return self.construction(self.source_type, self.target_type, instance, solution)

    def describe(self) -> str:
        return f"{self.system.value}: {self.source_type} <- {self.target_type} [{self.tag}]"


def focus_lost_round(
    source_type: ControlTypeId,
    target_type: ControlTypeId,
    instance: ControlInstance,
    solution: Partition,
) -> TransferOutcome:
    """``(D, C - D)`` with D the candidates of the round the focus lost.

    Every round scores its candidate set against the full votes, so the
    round on D has the same outcome as a first block; the focus does not
    survive it under the tie rule source and target share.
    """
    lost_in = round_focus_lost(target_type, instance, solution)
    if lost_in is None:
        return TransferOutcome.reject()
    everyone = frozenset(instance.election.candidates)
    return TransferOutcome(Partition.of_candidates(lost_in, everyone - lost_in))


def pass_through(
    source_type: ControlTypeId,
    target_type: ControlTypeId,
    instance: ControlInstance,
    solution: Partition,
) -> TransferOutcome:
    """The verified input itself: it already solves the (weaker) source type."""
    if not verify_solution(target_type, instance, solution):
        return TransferOutcome.reject()
    return TransferOutcome(solution)


def empty_block(
    source_type: ControlTypeId,
    target_type: ControlTypeId,
    instance: ControlInstance,
    solution: Partition,
) -> TransferOutcome:
    """The do-nothing partition ``(empty, C)``, once the input verifies."""
    if not verify_solution(target_type, instance, solution):
        return TransferOutcome.reject()
    return TransferOutcome(Partition.of_candidates((), instance.election.candidates))


def isolate_focus(
    source_type: ControlTypeId,
    target_type: ControlTypeId,
    instance: ControlInstance,
    solution: Partition,
) -> TransferOutcome:
    """The partition isolating the focus p, once the input verifies.

    Its first block is ``C - {p}`` for a PC source and ``{p}`` for an RPC
    one. Proof sketch: approval scores do not depend on the candidate mask,
    so a round on S is won by the members of S with the most approvals, and
    either isolating partition sends p to the final with at most x, the
    unique top scorer of ``C - {p}``. Suppose it fails, so x beats p (or
    ties p, for UW). Then every partition fails: if x shares a block with p,
    p does not advance alone from it; otherwise x is the unique top of its
    block, or sits in the PC second block, and meets p in the final. The PC
    and RPC isolating partitions lead to the same final, so if the source's
    fails, no partition of the target type verifies either.
    """
    if not verify_solution(target_type, instance, solution):
        return TransferOutcome.reject()
    return TransferOutcome(isolating_partition(source_type, instance))


def keep_or_empty_voters(
    source_type: ControlTypeId,
    target_type: ControlTypeId,
    instance: ControlInstance,
    solution: Partition,
) -> TransferOutcome:
    """The input if it verifies for the source type, else ``(empty, V)``.

    Proof sketch: a verified DC-PV-TE-UW input that fails DC-PV-TE-NUW has
    the focus tie some x in the final. Approval scores do not depend on the
    candidate mask, so x has the focus's approval count, and the focus is not
    the unique winner of E. Under TE, ``(empty, V)`` sends to the final at
    most E's unique winner (the empty block ties every candidate at zero,
    and a lone candidate has no UW solution), so the focus does not win.
    """
    if not verify_solution(target_type, instance, solution):
        return TransferOutcome.reject()
    if verify_solution(source_type, instance, solution):
        return TransferOutcome(solution)
    return TransferOutcome(Partition.of_voters((), range(instance.voter_count)))


def split_off_vetoers(
    source_type: ControlTypeId,
    target_type: ControlTypeId,
    instance: ControlInstance,
    solution: Partition,
) -> TransferOutcome:
    """``(S_y, V - S_y)`` for the first candidate y other than the focus p, once
    the input verifies; ``(empty, V)`` when at most two candidates run.

    S_y is the set of voters ranking y last. Proof sketch: every round of a
    voter partition is held over all of C, and the candidates with the
    fewest vetoes win it. With m >= 3 candidates, at least two candidates
    tie at zero vetoes in S_y, so under TE nobody advances from it; in
    ``V - S_y`` y has zero vetoes, so y advances alone or nobody does. The
    final holds y alone or nobody, and p is not a winner under either
    winner model. With m <= 2, the empty block sends nobody (two candidates
    tie at zero vetoes) or p running alone, so ``(empty, V)`` fails exactly
    when p is the unique veto winner of the whole election. Then every
    partition fails: p has fewer vetoes than its rival in some block and
    advances from it, and the final is held over all of V, where p again
    has the fewer vetoes. So ``(empty, V)`` verifies whenever any partition
    does.
    """
    if not verify_solution(target_type, instance, solution):
        return TransferOutcome.reject()
    return TransferOutcome(vetoer_partition(instance))


# ---------------------------------------------------------------------------
# Registry

_EVERY_SYSTEM = (System.PLURALITY, System.VETO, System.APPROVAL)
_VETO_APPROVAL = (System.VETO, System.APPROVAL)
_APPROVAL = (System.APPROVAL,)
_VETO = (System.VETO,)

_LOST = "first block := the round the focus lost"
_WEAKER = "pass-through: cowinner failure implies unique-winner failure"
_EMPTY = "any verified input certifies the winnership condition; output (empty, C)"
_ISOLATE = "first block := C - {p} (PC) or {p} (RPC): isolate the focus"
_KEEP = "the input if it solves the cowinner type, else (empty, V)"
_VETOERS = "first block := the voters who veto the first y != p; (empty, V) if m <= 2"

# (systems, source, target, tag, note, construction). find_transfer_chain
# takes the first route it meets, so the order of the rules is behaviour:
# a run of consecutive rows with the same systems expands system by system.
_RULE_TABLE = (
    (_EVERY_SYSTEM, "DC-PC-TP-NUW", "DC-RPC-TP-NUW", "tp_nuw", _LOST, focus_lost_round),
    (_EVERY_SYSTEM, "DC-RPC-TP-NUW", "DC-PC-TP-NUW", "tp_nuw", _LOST, focus_lost_round),
    (_EVERY_SYSTEM, "DC-RPC-TE-UW", "DC-RPC-TE-NUW", "te_cycle_step", _WEAKER, pass_through),
    (_EVERY_SYSTEM, "DC-RPC-TE-NUW", "DC-PC-TE-NUW", "te_cycle_step", _LOST, focus_lost_round),
    (_EVERY_SYSTEM, "DC-PC-TE-NUW", "DC-PC-TE-UW", "te_cycle_step", _LOST, focus_lost_round),
    (_EVERY_SYSTEM, "DC-PC-TE-UW", "DC-RPC-TE-UW", "te_cycle_step", _LOST, focus_lost_round),
    (_APPROVAL, "DC-PC-TP-UW", "DC-PC-TE-UW", "empty_block", _EMPTY, empty_block),
    (_APPROVAL, "DC-PC-TE-UW", "DC-PC-TP-UW", "empty_block", _EMPTY, empty_block),
    (_APPROVAL, "CC-PC-TP-UW", "CC-RPC-TP-UW", "empty_block", _EMPTY, empty_block),
    (_APPROVAL, "CC-RPC-TP-UW", "CC-PC-TP-UW", "empty_block", _EMPTY, empty_block),
    (_APPROVAL, "DC-RPC-TP-UW", "DC-PC-TP-UW", "empty_block", _EMPTY, empty_block),
    (_APPROVAL, "DC-PC-TP-UW", "DC-RPC-TP-UW", "empty_block", _EMPTY, empty_block),
    (_APPROVAL, "CC-PC-TP-NUW", "CC-RPC-TP-NUW", "empty_block", _EMPTY, empty_block),
    (_APPROVAL, "CC-RPC-TP-NUW", "CC-PC-TP-NUW", "empty_block", _EMPTY, empty_block),
    (_VETO_APPROVAL, "DC-PV-TE-UW", "DC-PV-TE-NUW", "identity", _WEAKER, pass_through),
    (_VETO, "DC-PV-TE-NUW", "DC-PV-TE-UW", "vetoers", _VETOERS, split_off_vetoers),
    (_APPROVAL, "DC-PV-TE-NUW", "DC-PV-TE-UW", "keep_or_empty", _KEEP, keep_or_empty_voters),
    (_APPROVAL, "CC-PC-TE-NUW", "CC-RPC-TE-NUW", "isolate", _ISOLATE, isolate_focus),
    (_APPROVAL, "CC-RPC-TE-NUW", "CC-PC-TE-NUW", "isolate", _ISOLATE, isolate_focus),
    (_APPROVAL, "CC-PC-TE-UW", "CC-RPC-TE-UW", "isolate", _ISOLATE, isolate_focus),
    (_APPROVAL, "CC-RPC-TE-UW", "CC-PC-TE-UW", "isolate", _ISOLATE, isolate_focus),
)


def transfer_registry() -> tuple[TransferRule, ...]:
    """Every implemented transfer rule, in ``_RULE_TABLE`` order."""
    rules = []
    for systems, run in itertools.groupby(_RULE_TABLE, key=itemgetter(0)):
        run = tuple(run)
        for system in systems:
            for _, source, target, tag, note, construction in run:
                rules.append(
                    TransferRule(
                        ControlTypeId.parse(source),
                        ControlTypeId.parse(target),
                        system,
                        tag,
                        note,
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
