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
splits (``partition_items``) is bit L-1-i. A mask's blocks, and a block's
mask, are read from the items' ``elections.block_maps``: the table of up to
8 items that every election over them shares, read by ``SubsetWinners`` as
``named``/``mask_of`` and ``voter_blocks()``, whose first call builds the
table's voter masks: ``mask_of_partition``, ``outcome_of_mask``,
``search_outcome`` and ``decider`` make it, so every voter-partition question
passes one of them. Each round's winners are one lookup in the election's
``SubsetWinners`` tables, and two paths read them.
*Deciding* (``decider``, ``verify_solution``) maps a first-block mask to a
verdict and builds nothing; ``mask_of_partition`` reads a ``Partition``'s
mask, -1 if malformed (``partition_problems`` says why, for a refusal
only), and ``focus_lost_mask`` names one round of a verified mask. A
type's ``shape`` fixes its rounds and its ``goal`` only reads the final, so
the four types of a shape share one mask sweep per election and focus
(``_least_mask``). Every search is a ``MaskSearch``, from the type, the
tables and the focus bit to a verifying mask or None, and ``search_outcome``
maps its answer to an outcome. ``outcome_of_mask`` is the one path from a
mask to its ``SolveOutcome``, for the searches, the transfers and the
enumerations, under ``block_maps``' one memo rule: up to 8 items the outcome
is built once per item sequence and kept for every election over them, and
past 8 items it is built on every ask and kept nowhere. A search that finds
nothing, and a transfer that rejects its input, returns the one ``NO_SOLUTION``.
*Explaining* (``check_solution``) takes its verdict from the deciding path
and names every round in a ``TwoStageTrace`` from the same tables; the
tests hold that verdict to the goal read off the trace's final winners.
"""

from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import product
from typing import Callable

from .elections import Election, SubsetWinners, _set, subset_winners


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


# Reading a member off an enum class costs about 0.1 us on Python 3.11.
_CANDIDATE = PartitionKind.CANDIDATE

# Where the focus stands among the final winners: their unique winner, one
# of several cowinners, or not a winner.
_ALONE, _SHARED, _OUT = 0, 1, 2


@dataclass(frozen=True)
class ControlTypeId:
    """One of the 24 partition control problems, e.g. ``DC-RPC-TE-UW``."""

    direction: Direction
    action: Action
    tie_rule: TieRule
    winner_model: WinnerModel

    def __post_init__(self):
        # The compiled rule: the partition kind and the plain values the
        # decide path branches on, worked out once, since an enum member read
        # costs about 0.1 us. Equality, hashing and repr stay on the fields.
        # ``shape`` (voter split, PC, TE; ``sweep`` as 3 bits) fixes the rounds, so the
        # four types of one shape reach the same final; ``goal`` lists the standings
        # of the focus in that final (see ``_standing``) that achieve the goal.
        pv = self.action is Action.PV
        kind = PartitionKind.VOTER if pv else PartitionKind.CANDIDATE
        pc, te = self.action is Action.PC, self.tie_rule is TieRule.TE
        uw = self.winner_model is WinnerModel.UW
        if self.direction is Direction.CC:
            goal = (_ALONE,) if uw else (_ALONE, _SHARED)
        else:
            goal = (_SHARED, _OUT) if uw else (_OUT,)
        object.__setattr__(self, "partition_kind", kind)
        object.__setattr__(self, "shape", (pv, pc, te))
        object.__setattr__(self, "sweep", pv << 2 | pc << 1 | te)
        object.__setattr__(self, "goal", goal)

    def __str__(self) -> str:
        return "-".join(
            (self.direction.value, self.action.value, self.tie_rule.value, self.winner_model.value)
        )

    @classmethod
    def parse(cls, text: str) -> "ControlTypeId":
        """The canonical member of ``ALL_CONTROL_TYPES`` a tag names, in any case and
        padding; a malformed tag is refused by its shape or by its unknown part."""
        tag = text.strip().upper()
        canonical = _TYPE_OF_TAG.get(tag)
        if canonical is not None:
            return canonical
        if tag.count("-") != 3:
            raise ValueError(f"control type tag {text!r} is not of the form CC-PC-TE-UW")
        # Every tag of four valid parts is a key of ``_TYPE_OF_TAG``.
        raise ValueError(f"unknown control type tag {text!r}")


ALL_CONTROL_TYPES: tuple[ControlTypeId, ...] = tuple(
    ControlTypeId(d, a, t, w)
    for d, a, t, w in product(Direction, Action, TieRule, WinnerModel)
)

# ``ControlTypeId.parse``'s lookup: one dict read instead of four enum lookups.
_TYPE_OF_TAG = {str(t): t for t in ALL_CONTROL_TYPES}


@dataclass(frozen=True)
class ControlInstance:
    """An election together with the attack's focus candidate."""

    election: Election
    focus: str

    def __init__(self, election: Election, focus: str):
        if focus not in election.votes.universe:
            raise ValueError(f"focus candidate {focus!r} is not running")
        _set(self, "election", election)
        _set(self, "focus", focus)

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


def partition_length(instance: ControlInstance, kind: PartitionKind) -> int:
    """``len(partition_items(...))``, building no item: a voter count sums ballot lines."""
    return len(instance.election.candidates) if kind is _CANDIDATE else instance.voter_count


def mask_of_partition(table: SubsetWinners, kind: PartitionKind, partition: Partition) -> int:
    """The first-block mask of a valid partition of this kind, else -1; it builds nothing.
    Voter indices are type-checked per call: ``{0.0} == {0}``, so both read one mask."""
    first, second = partition.first, partition.second
    if kind is _CANDIDATE:
        mask_of, everyone = table.mask_of, table.everyone
    else:
        mask_of, everyone = table.voter_blocks()[1], table.all_voters
    try:
        one, two = mask_of[first], mask_of[second]
    except (KeyError, TypeError):  # a stray item, or a block that is not a frozenset
        return -1
    if kind is not _CANDIDATE and not (
        all(map(int.__instancecheck__, first)) and all(map(int.__instancecheck__, second))
    ):
        return -1
    return one if partition.kind is kind and not one & two and one | two == everyone else -1


def _least(items):
    """The least item, or the one of least repr if the items do not compare."""
    try:
        return sorted(items)[0]
    except TypeError:  # names mixed with indices, say
        return min(items, key=repr)


def partition_problems(
    partition: Partition, kind: PartitionKind, election: Election
) -> list[str]:
    """Why a partition is not a valid partition of this kind for the election, empty if it
    is: the explaining side of ``mask_of_partition``, asked only to word a refusal."""
    if partition.kind is not kind:
        got = getattr(partition.kind, "value", repr(partition.kind))
        return [f"expected a {kind.value} partition, got a {got} partition"]
    if kind is _CANDIDATE:
        universe, label = frozenset(election.candidates), "candidate"
    else:
        universe, label = frozenset(range(election.votes.total)), "voter index"
    blocks, problems = (partition.first, partition.second), []
    try:
        first, second = map(frozenset, blocks)
    except TypeError:  # not collections of hashable items: only their type is named
        first, second = universe, frozenset()
    covered, overlap = first | second, first & second
    if overlap:
        problems.append(f"blocks overlap on {label} {_least(overlap)!r}")
    stray = covered - universe
    if stray:
        problems.append(f"unknown {label} {_least(stray)!r}")
    missing = universe - covered
    if missing:
        problems.append(f"{label} {_least(missing)!r} is in neither block")
    if not problems and kind is not _CANDIDATE:  # the set checks read values: 0.0 == 0
        odd = [i for i in covered if not isinstance(i, int)]
        if odd:
            problems.append(f"{label} {odd[0]!r} is not an integer")
    return problems or [
        f"block {i} is a {type(block).__name__}, not a frozenset"
        for i, block in enumerate(blocks, start=1)
        if not isinstance(block, frozenset)
    ]


@dataclass(frozen=True)
class SolveOutcome:
    """A verifying partition, or None when no partition verifies."""

    solution: "Partition | None"
    # No search or transfer falls back. bench/workloads.py and bench/tracer.py
    # still read this flag off a transfer's outcome; ROADMAP item 2 deletes it
    # together with those reads.
    via_fallback = False

    @property
    def found(self) -> bool:
        return self.solution is not None


# The one outcome of every search that finds nothing and every rejected transfer.
NO_SOLUTION = SolveOutcome(None)


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


def _standing(table: SubsetWinners, shape: tuple, focus: int, first: int) -> int:
    """Where the focus bit stands in the final of the first-block mask ``first``.

    The rounds of ``_rounds``, inlined: every search runs them per mask.
    """
    pv, pc, te = shape
    if pv:
        won, everyone = table.by_voters, table.all_voters
    else:
        won, everyone = table.by_candidates, table.everyone
    one = won[first]
    if te and one & (one - 1):
        one = 0
    if pc:
        two = everyone ^ first
    else:
        two = won[everyone ^ first]
        if te and two & (two - 1):
            two = 0
    final = table.by_candidates[one | two]
    return (final != focus) + (not final & focus)  # _ALONE, _SHARED or _OUT


def _verdict(control_type: ControlTypeId, table: SubsetWinners, focus: int, first: int) -> bool:
    """Whether the first-block mask ``first`` achieves the goal for the focus bit."""
    return _standing(table, control_type.shape, focus, first) in control_type.goal


def _least_mask(control_type: ControlTypeId, table: SubsetWinners, focus: int) -> "int | None":
    """The least first-block mask that achieves the goal for the focus bit, or None.

    The masks are decided in increasing order by one sweep per shape and focus,
    kept in ``table.memo`` under the int ``focus << 3 | control_type.sweep``
    (the focus bit, then PV, PC, TE), which notes the least mask of each
    standing it passes: the four types of a shape share the final, so a
    type's answer is the least mask of its goal's standings. The sweep stops
    once the asked type's answer is known, and a later type of the shape
    resumes it there, so a search asked alone decides the masks up to its
    answer and no further. Under RPC and PV swapping the blocks changes no
    round, so a mask and its complement stand alike and only the lower half
    of the masks (mask 0 alone when there are no items) is swept.
    """
    goal, shape = control_type.goal, control_type.shape
    memo, key = table.memo, focus << 3 | control_type.sweep
    sweep = memo.get(key)
    if sweep is None:
        voters, pc, _ = shape
        every = (table.all_voters if voters else table.everyone) + 1
        end = every if pc else (every + 1) >> 1
        # The least mask of each standing (``end`` until one is passed),
        # the next mask to decide, and the end of the range.
        sweep = memo[key] = [end, end, end, 0, end]
    end = least = sweep[4]
    for standing in goal:
        if sweep[standing] < least:
            least = sweep[standing]
    if least < end:
        return least
    standing_of = _standing  # looked up once per sweep, not per mask
    for first in range(sweep[3], end):
        standing = standing_of(table, shape, focus, first)
        if sweep[standing] == end:
            sweep[standing] = first
            if standing in goal:
                sweep[3] = first + 1
                return first
    sweep[3] = end
    return None


# A mask search maps (type, table, focus bit) to the first-block mask of a
# verifying partition, or None when no partition of the type verifies.
MaskSearch = Callable[[ControlTypeId, SubsetWinners, int], "int | None"]


def search_outcome(
    control_type: ControlTypeId, instance: ControlInstance, search: MaskSearch
) -> SolveOutcome:
    """The memoized outcome (``outcome_of_mask``) of the mask the ``MaskSearch`` finds
    on the instance's tables, read inline when memoized, or ``NO_SOLUTION`` for None."""
    table = subset_winners(instance.election)
    outcomes = table.voter_blocks()[2] if control_type.shape[0] else table.outcomes
    first = search(control_type, table, table.bit_of[instance.focus])
    if first is None:
        return NO_SOLUTION
    outcome = outcomes.get(first)  # an outcome is never falsy
    return outcome or outcome_of_mask(table, control_type.partition_kind, first)


def outcome_of_mask(table: SubsetWinners, kind: PartitionKind, first: int) -> SolveOutcome:
    """The outcome holding the partition of first-block mask ``first`` of the table's election.

    Its blocks are read from the items' ``block_maps``, and the outcome is
    kept in their ``outcomes`` on the first ask: up to 8 items that memo is
    shared by the searches, the transfers and the partition enumerations on
    every election over the same items, so asking again returns the same
    object; past 8 items it keeps nothing, and each ask builds an equal one.
    """
    if kind is _CANDIDATE:
        blocks, outcomes, everyone = table.named, table.outcomes, table.everyone
    else:
        blocks, _, outcomes = table.voter_blocks()
        everyone = table.all_voters
    outcome = outcomes.get(first)
    if outcome is None:
        partition = Partition(kind, blocks[first], blocks[everyone ^ first])
        outcome = outcomes[first] = SolveOutcome(partition)
    return outcome


def decider(control_type: ControlTypeId, instance: ControlInstance) -> Callable[[int], bool]:
    """The deciding path: whether a partition achieves the goal, by its first-block mask.

    Items are bits as in ``SubsetWinners`` (item 0 is the highest bit), and
    the partition is the mask and its complement, so every mask of the
    type's kind is a valid partition, decided by table lookups alone.
    """
    table = subset_winners(instance.election)
    if control_type.shape[0]:
        table.voter_blocks()
    return partial(_verdict, control_type, table, table.bit_of[instance.focus])


def verify_solution(
    control_type: ControlTypeId, instance: ControlInstance, partition: Partition
) -> bool:
    """True iff the partition is structurally valid and achieves the goal.

    Malformed partitions yield False rather than an error, so solvers can
    enumerate blindly. Decides like ``decider``, and builds nothing.
    """
    table = subset_winners(instance.election)
    first = mask_of_partition(table, control_type.partition_kind, partition)
    return first >= 0 and _verdict(control_type, table, table.bit_of[instance.focus], first)


def _kept(won: dict, te: bool, block: int) -> int:
    """The winners of the round on ``block`` who advance: under TE, only a unique one."""
    winners = won[block]
    return 0 if te and winners & (winners - 1) else winners


def _rounds(control_type: ControlTypeId, table: SubsetWinners, first: int) -> tuple[list, int]:
    """The first rounds as (candidates, winners, survivors) masks, and the final's candidates.

    A first round is one lookup (by voters for PV); under TE only a unique
    winner advances; in PC the second block skips to the final whole.
    """
    pv, pc, te = control_type.shape
    won = table.by_voters if pv else table.by_candidates
    second = (table.all_voters if pv else table.everyone) ^ first
    blocks, final = ((first,), second) if pc else ((first, second), 0)
    rounds = []
    for block in blocks:
        kept = _kept(won, te, block)
        rounds.append((table.everyone if pv else block, won[block], kept))
        final |= kept
    return rounds, final


def focus_lost_mask(
    control_type: ControlTypeId, table: SubsetWinners, focus: int, first: int
) -> int:
    """The mask of the round the focus bit lost, on a first-block mask the caller has verified.

    That is the first round the focus sat in and did not survive, else the
    final. On a verifying destructive candidate partition under TE, or TP
    with the cowinner goal, the focus would lose a first round on this set.
    The rounds are ``_rounds``', but only the focus's own round is looked up
    unless the focus survives it and the final is asked for.
    """
    pv, pc, te = control_type.shape
    if pv:  # the focus runs in both voter blocks' rounds, over every candidate
        won, second = table.by_voters, table.all_voters ^ first
        one, two = _kept(won, te, first), _kept(won, te, second)
        return one | two if one & two & focus else table.everyone
    won, second = table.by_candidates, table.everyone ^ first
    if pc:  # only the first block runs a round; the second goes to the final whole
        one = _kept(won, te, first)
        return first if first & focus and not one & focus else one | second
    sat, other = (first, second) if first & focus else (second, first)
    one = _kept(won, te, sat)
    return one | _kept(won, te, other) if one & focus else sat


@dataclass(frozen=True)
class SolutionCheck:
    """Outcome of checking one partition against one control problem."""

    ok: bool
    diagnostic: str | None = None
    trace: TwoStageTrace | None = None


def check_solution(
    control_type: ControlTypeId, instance: ControlInstance, partition: Partition
) -> SolutionCheck:
    """Check a partition, reporting structural defects instead of raising.

    The verdict is the deciding path's, on the same first-block mask; the
    explaining path builds the trace only to name the rounds of ``_rounds``.
    """
    kind, table = control_type.partition_kind, subset_winners(instance.election)
    first = mask_of_partition(table, kind, partition)
    if first < 0:
        problems = partition_problems(partition, kind, instance.election)
        return SolutionCheck(False, "; ".join(problems), None)
    named = table.named
    label = "voter block" if control_type.shape[0] else "candidate block"
    rounds, final = _rounds(control_type, table, first)
    rounds = tuple(
        SubElectionRound(f"{label} {i}", named[candidates], named[winners], named[kept])
        for i, (candidates, winners, kept) in enumerate(rounds, start=1)
    )
    trace = TwoStageTrace(control_type, rounds, named[final], named[table.by_candidates[final]])
    ok = _verdict(control_type, table, table.bit_of[instance.focus], first)
    return SolutionCheck(ok, None, trace)
