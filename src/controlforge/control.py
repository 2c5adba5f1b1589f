"""The 24 partition control types as executable two-stage election semantics.

A control type is a 4-axis tag: direction (make the focus candidate win, CC,
or prevent it, DC), action (candidate partition PC, runoff candidate
partition RPC, or voter partition PV), tie-handling rule (TE: only a unique
subelection winner advances; TP: all subelection winners advance), and winner
model (UW: unique winner; NUW: cowinner).

The two-stage semantics:

* PV: the voter blocks vote separately over the full candidate set; the
  survivors of both subelections then face each other, judged by the full
  vote collection.
* RPC: each candidate block runs a subelection over the full votes; the
  survivors of both face each other.
* PC: only the first block runs a subelection; its survivors face the entire
  second block.

Every round is a candidate set scored under the instance's election system
against the instance's full votes (each ballot counts only for the round's
candidates, as if masked down to them); PV rounds score the full candidate
set against their voter block's ballots. No round builds an election of its
own, and the final round always uses the full original vote collection.

A partition is named by its first-block mask: item i of the L items it
splits (``partition_items``) is bit L-1-i, and ``partition_of_mask`` builds
the ``Partition`` a mask names. Each round's winners are one lookup in the
election's ``SubsetWinners`` tables, and two paths read them. *Deciding*
(``decider``, ``verify_solution``) maps a first-block mask to a verdict and
builds nothing. *Explaining* (``check_solution``) names the same rounds in a
``TwoStageTrace``; because both read one table, a verdict and its trace
cannot disagree.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable

from .elections import Election, SubsetWinners, subset_winners


class Direction(str, Enum):
    CC = "CC"
    DC = "DC"


class Action(str, Enum):
    PC = "PC"
    RPC = "RPC"
    PV = "PV"


class TieRule(str, Enum):
    TE = "TE"
    TP = "TP"


class WinnerModel(str, Enum):
    UW = "UW"
    NUW = "NUW"


class PartitionKind(str, Enum):
    CANDIDATE = "candidate"
    VOTER = "voter"


@dataclass(frozen=True)
class ControlTypeId:
    """One of the 24 partition control problems, e.g. ``DC-RPC-TE-UW``."""

    direction: Direction
    action: Action
    tie_rule: TieRule
    winner_model: WinnerModel

    def __str__(self) -> str:
        return "-".join(
            (self.direction.value, self.action.value, self.tie_rule.value, self.winner_model.value)
        )

    @classmethod
    def parse(cls, text: str) -> "ControlTypeId":
        parts = text.strip().upper().split("-")
        if len(parts) != 4:
            raise ValueError(f"control type tag {text!r} is not of the form CC-PC-TE-UW")
        try:
            return cls(
                Direction(parts[0]), Action(parts[1]), TieRule(parts[2]), WinnerModel(parts[3])
            )
        except ValueError:
            raise ValueError(f"unknown control type tag {text!r}") from None

    @property
    def partition_kind(self) -> PartitionKind:
        return PartitionKind.VOTER if self.action is Action.PV else PartitionKind.CANDIDATE


ALL_CONTROL_TYPES: tuple[ControlTypeId, ...] = tuple(
    ControlTypeId(d, a, t, w)
    for d, a, t, w in product(Direction, Action, TieRule, WinnerModel)
)


@dataclass(frozen=True)
class ControlInstance:
    """An election together with the attack's focus candidate."""

    election: Election
    focus: str

    def __post_init__(self):
        if self.focus not in self.election.candidates:
            raise ValueError(f"focus candidate {self.focus!r} is not running")

    @property
    def voter_count(self) -> int:
        return self.election.votes.total


@dataclass(frozen=True)
class Partition:
    """An ordered bipartition of candidates or of canonical voter indices.

    Candidate blocks hold names; voter blocks hold indices 0..n-1, so two
    identical ballots can land in different blocks (a true multiset split).
    A partition doubles as a solution to a control problem.
    """

    kind: PartitionKind
    first: frozenset
    second: frozenset

    @classmethod
    def of_candidates(cls, first, second) -> "Partition":
        return cls(PartitionKind.CANDIDATE, frozenset(first), frozenset(second))

    @classmethod
    def of_voters(cls, first, second) -> "Partition":
        return cls(PartitionKind.VOTER, frozenset(first), frozenset(second))


def partition_items(instance: ControlInstance, kind: PartitionKind) -> tuple:
    """The ordered items a partition of this kind splits."""
    if kind is PartitionKind.CANDIDATE:
        return instance.election.candidates
    return tuple(range(instance.voter_count))


def partition_of_mask(kind: PartitionKind, items: tuple, mask: int) -> Partition:
    """The partition whose first block is the items set in ``mask`` (item 0 is the top bit)."""
    top = len(items) - 1
    first = frozenset(item for i, item in enumerate(items) if mask >> (top - i) & 1)
    return Partition(kind, first, frozenset(items) - first)


def partition_problems(
    partition: Partition, kind: PartitionKind, election: Election
) -> list[str]:
    """Structural defects of a partition of this kind for the election, empty if valid."""
    if partition.kind is not kind:
        return [f"expected a {kind.value} partition, got a {partition.kind.value} partition"]
    if kind is PartitionKind.CANDIDATE:
        universe = frozenset(election.candidates)
        label = "candidate"
    else:
        universe = frozenset(range(election.votes.total))
        label = "voter index"
    overlap = partition.first & partition.second
    covered = partition.first | partition.second
    if not overlap and covered == universe:
        return []
    problems = []
    if overlap:
        problems.append(f"blocks overlap on {label} {sorted(overlap)[0]!r}")
    stray = covered - universe
    if stray:
        problems.append(f"unknown {label} {sorted(stray)[0]!r}")
    missing = universe - covered
    if missing:
        problems.append(f"{label} {sorted(missing)[0]!r} is in neither block")
    return problems


@dataclass(frozen=True)
class SubElectionRound:
    """One first-round subelection with its outcome."""

    label: str
    candidates: frozenset[str]
    winners: frozenset[str]
    survivors: frozenset[str]


@dataclass(frozen=True)
class TwoStageTrace:
    """Everything that happened while running one partition attack."""

    control_type: ControlTypeId
    first_rounds: tuple[SubElectionRound, ...]
    final_candidates: frozenset[str]
    final_winners: frozenset[str]

    def round_focus_lost(self, focus: str) -> frozenset[str]:
        """Candidates of the first round the focus sat in and did not survive.

        When the focus survived (or skipped) every first round, this is the
        final round's candidate set. On a verified destructive trace of a
        candidate partition under TE, or under TP with the cowinner goal,
        the focus would not survive a first round on this set under the
        same tie rule; the transfers and the Hitting-Set extractor rely on
        that.
        """
        for stage in self.first_rounds:
            if focus in stage.candidates and focus not in stage.survivors:
                return stage.candidates
        return self.final_candidates


def _run_validated(
    control_type: ControlTypeId, instance: ControlInstance, partition: Partition
) -> TwoStageTrace:
    """The explaining path: ``decider``'s rounds, read from the same tables, named."""
    table = subset_winners(instance.election)
    named = table.named
    unique = control_type.tie_rule is TieRule.TE
    block_won, everyone = _first_round_table(control_type.action, table)
    label = "voter block" if control_type.action is Action.PV else "candidate block"
    first = table.mask_of[partition.first]
    if control_type.action is Action.PC:
        # In PC the second block skips the first round entirely.
        blocks, final = (first,), everyone ^ first
    else:
        blocks, final = (first, everyone ^ first), 0
    rounds = []
    for i, block in enumerate(blocks, start=1):
        won = block_won[block]
        survived = _survived(won, unique)
        final |= survived
        candidates = named[table.everyone if control_type.action is Action.PV else block]
        rounds.append(SubElectionRound(f"{label} {i}", candidates, named[won], named[survived]))
    final_winners = named[table.by_candidates[final]]
    return TwoStageTrace(control_type, tuple(rounds), named[final], final_winners)


def _first_round_table(action: Action, table: SubsetWinners) -> tuple[dict[int, int], int]:
    """The winner table first rounds read (by voters for PV) and the mask they split."""
    if action is Action.PV:
        return table.by_voters, table.all_voters
    return table.by_candidates, table.everyone


def _survived(won: int, unique: bool) -> int:
    """The winner mask that advances: all of it, or under TE only a unique winner."""
    return 0 if unique and won & (won - 1) else won


def decider(control_type: ControlTypeId, instance: ControlInstance) -> Callable[[int], bool]:
    """The deciding path: whether a partition achieves the goal, by its first-block mask.

    Items are bits as in ``SubsetWinners`` (item 0 is the highest bit), and
    the partition is the mask and its complement, so every mask of the
    type's kind is a valid partition. Each round is one table lookup; no
    trace, vote or election is built.
    """
    table = subset_winners(instance.election)
    won = table.by_candidates
    block_won, everyone = _first_round_table(control_type.action, table)
    unique = control_type.tie_rule is TieRule.TE
    if control_type.action is Action.PC:

        def final_winners(first: int) -> int:
            # In PC the second block skips the first round entirely.
            return won[_survived(block_won[first], unique) | (everyone ^ first)]

    else:

        def final_winners(first: int) -> int:
            one = _survived(block_won[first], unique)
            return won[one | _survived(block_won[everyone ^ first], unique)]

    focus = table.bit_of[instance.focus]
    constructive = control_type.direction is Direction.CC
    if control_type.winner_model is WinnerModel.UW:
        return lambda first: (final_winners(first) == focus) == constructive
    return lambda first: (final_winners(first) & focus != 0) == constructive


def goal_satisfied(
    direction: Direction,
    winner_model: WinnerModel,
    focus: str,
    final_winners: frozenset[str],
) -> bool:
    """Whether the attack's goal holds for the final winner set.

    A focus candidate absent from the final round is simply not a winner.
    """
    if direction is Direction.CC:
        if winner_model is WinnerModel.UW:
            return final_winners == frozenset((focus,))
        return focus in final_winners
    if winner_model is WinnerModel.UW:
        return final_winners != frozenset((focus,))
    return focus not in final_winners


@dataclass(frozen=True)
class SolutionCheck:
    """Outcome of checking one partition against one control problem."""

    ok: bool
    diagnostic: str | None = None
    trace: TwoStageTrace | None = None


def check_solution(
    control_type: ControlTypeId, instance: ControlInstance, partition: Partition
) -> SolutionCheck:
    """Check a partition, reporting structural defects instead of raising."""
    problems = partition_problems(partition, control_type.partition_kind, instance.election)
    if problems:
        return SolutionCheck(False, "; ".join(problems), None)
    trace = _run_validated(control_type, instance, partition)
    ok = goal_satisfied(
        control_type.direction, control_type.winner_model, instance.focus, trace.final_winners
    )
    return SolutionCheck(ok, None, trace)


def verify_solution(
    control_type: ControlTypeId, instance: ControlInstance, partition: Partition
) -> bool:
    """True iff the partition is structurally valid and achieves the goal.

    Malformed partitions yield False rather than an error, so solvers can
    enumerate blindly.
    """
    if partition_problems(partition, control_type.partition_kind, instance.election):
        return False
    first = subset_winners(instance.election).mask_of[partition.first]
    return decider(control_type, instance)(first)
