"""Search algorithms for partition control problems.

Provides the exhaustive brute-force solver (the ground-truth oracle at desk
scale), the polynomial-time approval and veto algorithms as rows of
``POLYNOMIAL_SEARCHES`` (each row a mask builder, whose first-block mask
``polynomial_search`` decides once and the transfers into the row's types
reuse), lexicographically-least search against a pluggable decision oracle,
the ``SEARCHES`` table of the exhaustive searches' labels and worst cases,
and the collapse scanner that compares the types of a collapse group as
sets of instances over a bounded universe, deciding each type once per
instance.

A partition is named by its first-block mask (item i of L is bit L-1-i, as
in ``control.partition_of_mask``), so "lexicographically least" means the
least mask. Each search is a ``control.MaskSearch``, whose mask (or None)
``control.search_outcome`` maps to the election's memoized outcome (or
``NO_SOLUTION``): brute force is the mask sweep ``control._least_mask``,
which the four types of one action and tie rule share, a polynomial row
decides its builder's mask, and the oracle search grows an integer prefix.
``verifying_partitions`` and ``BruteForceOracle`` decide through
``control.decider``.
"""

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from .control import (
    Action,
    ControlInstance,
    ControlTypeId,
    Partition,
    PartitionKind,
    SolveOutcome,
    _least_mask,
    _verdict,
    decider,
    memoized_outcome,
    outcome_of_mask,
    partition_items,
    partition_of_mask,
    search_outcome,
)
from .elections import (
    _TABLE_ITEMS,
    Election,
    SubsetWinners,
    System,
    Vote,
    VoteCollection,
    block_table,
    winners,  # unused here; bench/test_bench.py's Binding test looks it up
)


class UnsupportedAlgorithmError(ValueError):
    """A specialized solver was asked about a (system, type) it does not cover."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a defect, not a problem with the input."""


class OracleInconsistencyError(InvariantError):
    """The decision oracle's answers led to a non-verifying partition."""


class UniverseTooLargeError(ValueError):
    """A scan would exceed the configured evaluation cap."""

    def __init__(self, estimate: int, cap: int):
        super().__init__(
            f"scan needs an estimated {estimate} two-stage evaluations, "
            f"above the cap of {cap}"
        )
        self.estimate = estimate
        self.cap = cap


DEFAULT_MAX_EVALS = 10_000_000


def encoding_length(instance: ControlInstance, kind: PartitionKind) -> int:
    """The number of items a partition of this kind splits (``partition_items``)."""
    if kind is PartitionKind.CANDIDATE:
        return len(instance.election.candidates)
    return instance.voter_count


def enumerate_partitions(
    instance: ControlInstance, kind: PartitionKind
) -> Iterator[Partition]:
    """All partitions of the given kind, lexicographically by encoding.

    Up to ``_TABLE_ITEMS`` items they are the memoized partitions of the
    items' ``elections.block_table`` (``_partitions``). A longer encoding
    keeps nothing: each block joins the higher items' block
    (``partition_of_mask``) to a table entry with one union, and a mask's
    complement is the table read backwards.
    """
    items = partition_items(instance, kind)
    split = len(items) - _TABLE_ITEMS
    if split <= 0:
        yield from _partitions(kind, items, range(1 << len(items)))
        return
    high, blocks = items[:split], block_table(items[split:])[0]
    kinds = itertools.repeat(kind)
    for first in range(1 << split):
        head = partition_of_mask(kind, high, first)
        yield from map(
            Partition, kinds, map(head.first.union, blocks), map(head.second.union, reversed(blocks))
        )


def verifying_partitions(
    control_type: ControlTypeId, instance: ControlInstance
) -> Iterator[Partition]:
    """Every partition of the type's kind that verifies, lexicographically.

    Decides every first-block mask in increasing order, which is the
    encoding's lexicographic order, and yields only the partitions of the
    masks that verify (``_partitions``).
    """
    kind = control_type.partition_kind
    items = partition_items(instance, kind)
    holds = decider(control_type, instance)
    yield from _partitions(kind, items, filter(holds, range(1 << len(items))))


def _partitions(kind: PartitionKind, items: tuple, masks) -> Iterator[Partition]:
    """The partitions of the items with these first-block masks. Up to ``_TABLE_ITEMS``
    items they are the ones memoized in the items' ``block_table``, built on a miss: the
    objects ``control.outcome_of_mask`` returns. Past it they are fresh and kept nowhere."""
    if len(items) > _TABLE_ITEMS:
        return map(partial(partition_of_mask, kind, items), masks)
    blocks, _, outcomes = block_table(items)
    fill = partial(memoized_outcome, kind, blocks, outcomes, len(blocks) - 1)
    get = outcomes.get  # an outcome is never falsy
    return ((get(first) or fill(first)).solution for first in masks)


def brute_force_search(control_type: ControlTypeId, instance: ControlInstance) -> SolveOutcome:
    """The lexicographically least verifying partition, or None if none verifies:
    the election's mask sweep for the type's shape and focus (``control._least_mask``)."""
    return search_outcome(control_type, instance, _least_mask)


# ---------------------------------------------------------------------------
# Polynomial-time algorithms


def _types(*tags: str) -> tuple[ControlTypeId, ...]:
    return tuple(ControlTypeId.parse(tag) for tag in tags)


def do_nothing_mask(control_type: ControlTypeId, table: SubsetWinners, focus: int) -> int:
    """The do-nothing partition ``(empty, C)``, which leaves the election unpartitioned.

    For the four immune approval types no partition can flip the goal once
    it already fails (DC) or already holds against the attacker (CC), so an
    instance either has no solution at all or is solved by this partition.
    For the approval types that ``reductions.empty_block`` joins, both types
    of a pair coincide with a plain winnership condition on the unpartitioned
    election, which this partition satisfies whenever any verified input
    exists.
    """
    return 0


def isolating_mask(control_type: ControlTypeId, table: SubsetWinners, focus: int) -> int:
    """The partition isolating the focus p: first block ``C - {p}`` under PC, ``{p}`` under RPC.

    For the four approval CC-TE candidate types it verifies whenever any
    partition does. Proof sketch: approval scores do not depend on the
    candidate mask, so a round on S is won by the members of S with the most
    approvals, and either isolating partition sends p to the final with at
    most x, the unique top scorer of ``C - {p}``. Suppose it fails, so x
    beats p (or ties p, for UW). Then every partition fails: if x shares a
    block with p, p does not advance alone from it; otherwise x is the unique
    top of its block, or sits in the PC second block, and meets p in the
    final. The PC and RPC isolating partitions lead to the same final, so if
    the source's fails, no partition of the target type verifies either.
    """
    return focus ^ table.everyone if control_type.action is Action.PC else focus


def vetoer_mask(control_type: ControlTypeId, table: SubsetWinners, focus: int) -> int:
    """``(S_y, V - S_y)`` for the first candidate y other than the focus p;
    ``(empty, V)`` when at most two candidates run.

    S_y is the set of voters ranking y last. For veto DC-PV-TE under either
    winner model it verifies whenever any partition does. Proof sketch: every
    round of a voter partition is held over all of C, and the candidates with
    the fewest vetoes win it. With m >= 3 candidates, at least two candidates
    tie at zero vetoes in S_y, so under TE nobody advances from it; in
    ``V - S_y`` y has zero vetoes, so y advances alone or nobody does. The
    final holds y alone or nobody, and p is not a winner under either winner
    model. With m <= 2, the empty block sends nobody (two candidates tie at
    zero vetoes) or p running alone, so ``(empty, V)`` fails exactly when p
    is the unique veto winner of the whole election. Then every partition
    fails: p has fewer vetoes than its rival in some block and advances from
    it, and the final is held over all of V, where p again has the fewer
    vetoes. So ``(empty, V)`` verifies whenever any partition does.
    """
    if len(table.rows) < 3:
        return 0
    # Under veto, y's row pairs exactly the ballot groups that do not rank y last.
    row = next(row for c, row in table.rows if c != focus)
    spared = 0
    for _, voters in row:
        spared |= voters
    return table.all_voters ^ spared


# A mask builder maps (type, table, focus bit) to the first-block mask of the
# one partition that verifies whenever any partition of the type does.
MaskBuilder = Callable[[ControlTypeId, SubsetWinners, int], int]

IMMUNE_APPROVAL_TYPES = _types("DC-PC-TE-UW", "DC-PC-TP-NUW", "CC-PC-TP-UW", "CC-PC-TP-NUW")
ISOLATE_APPROVAL_TYPES = _types("CC-RPC-TE-NUW", "CC-PC-TE-NUW", "CC-RPC-TE-UW", "CC-PC-TE-UW")
VETOER_TYPES = _types("DC-PV-TE-NUW", "DC-PV-TE-UW")

# Every (system, type) with a polynomial-time search, mapped to the
# algorithm's name and its mask builder.
POLYNOMIAL_SEARCHES: dict[tuple[System, ControlTypeId], tuple[str, MaskBuilder]] = {
    (system, control_type): (name, build)
    for name, system, types, build in (
        ("approval-immunity", System.APPROVAL, IMMUNE_APPROVAL_TYPES, do_nothing_mask),
        ("approval-isolate", System.APPROVAL, ISOLATE_APPROVAL_TYPES, isolating_mask),
        ("veto-vetoers", System.VETO, VETOER_TYPES, vetoer_mask),
    )
    for control_type in types
}


def _built_mask(
    build: MaskBuilder, control_type: ControlTypeId, table: SubsetWinners, focus: int
) -> "int | None":
    """The mask search of a builder: its mask if that verifies, else None."""
    first = build(control_type, table, focus)
    return first if _verdict(control_type, table, focus, first) else None


def polynomial_search(control_type: ControlTypeId, instance: ControlInstance) -> SolveOutcome:
    """Decide the instance on the one mask its row's builder names.

    That mask verifies whenever any partition of the type does (the
    builder's docstring holds the proof). Raises ``UnsupportedAlgorithmError``
    when ``POLYNOMIAL_SEARCHES`` has no row for the (system, type).
    """
    system = instance.election.system
    row = POLYNOMIAL_SEARCHES.get((system, control_type))
    if row is None:
        raise UnsupportedAlgorithmError(
            f"no polynomial search covers {system.value} {control_type}"
        )
    return search_outcome(control_type, instance, partial(_built_mask, row[1]))


# The benchmark tracer binds these two names; ROADMAP item 2 renames its
# spans and deletes them.
immunity_search_approval = cc_rpc_te_nuw_search_approval = polynomial_search


# ---------------------------------------------------------------------------
# Oracle-backed lexicographic search

# A decision oracle answers: does some verifying first-block mask of the
# type's kind have ``prefix`` as its top ``bits`` bits?
DecisionOracle = Callable[[ControlTypeId, ControlInstance, int, int], bool]


class BruteForceOracle:
    """Prefix-feasibility oracle backed by exhaustive enumeration.

    A search asks up to 2L+1 questions about one (type, instance), so the
    encoding length and the ``decider`` of the last pair asked are kept.
    """

    def __init__(self):
        self.calls = 0
        self._asked = (None, None, 0, None)  # type, instance, length, decider

    def __call__(
        self, control_type: ControlTypeId, instance: ControlInstance, prefix: int, bits: int
    ) -> bool:
        asked_type, asked_instance, length, holds = self._asked
        if asked_type is not control_type or asked_instance is not instance:
            length = encoding_length(instance, control_type.partition_kind)
            holds = decider(control_type, instance)
            self._asked = (control_type, instance, length, holds)
        free = length - bits
        if free < 0 or not 0 <= prefix < 1 << bits:
            raise ValueError(f"prefix {prefix} of {bits} bits does not fit {length} items")
        self.calls += 1
        # The masks with this prefix are one run of consecutive integers.
        return any(map(holds, range(prefix << free, (prefix + 1) << free)))


def lex_min_search_with_oracle(
    control_type: ControlTypeId, instance: ControlInstance, oracle: DecisionOracle
) -> SolveOutcome:
    """Find the lexicographically least verifying partition via oracle queries.

    One initial feasibility probe on the empty prefix, then the mask is
    fixed bit by bit from the top, preferring 0; at most 2L+1 oracle calls
    for encoding length L. The final mask is checked by one verdict. With a
    truthful oracle the result is brute_force_search's: the same memoized
    outcome, or ``NO_SOLUTION``.
    """

    def least_mask(control_type: ControlTypeId, table: SubsetWinners, focus: int) -> "int | None":
        if not oracle(control_type, instance, 0, 0):
            return None
        prefix = 0
        for bits in range(1, encoding_length(instance, control_type.partition_kind) + 1):
            prefix <<= 1
            if not oracle(control_type, instance, prefix, bits):
                prefix |= 1
        if not _verdict(control_type, table, focus, prefix):
            partition = outcome_of_mask(table, control_type.partition_kind, prefix).solution
            raise OracleInconsistencyError(
                f"oracle answers led to non-verifying partition {partition}"
            )
        return prefix

    return search_outcome(control_type, instance, least_mask)


# The exhaustive searches by ``solve --algorithm`` name: the label the CLI
# reports and the two-stage evaluations at worst for encoding length L
# (brute force decides only 2^(L-1) masks under RPC and PV; the cap counts
# all). A polynomial row is labelled by its row's name and reads no cap.
SEARCHES: dict[str, tuple[str, Callable[[int], int]]] = {
    "brute": ("brute-force", lambda length: 1 << length),
    "oracle": ("oracle-binary-search", lambda length: 2 << length),
}


# ---------------------------------------------------------------------------
# Bounded universes of elections


@dataclass(frozen=True)
class Universe:
    """All elections of one system up to a candidate and ballot budget.

    Vote collections are enumerated as multisets of ballots by default;
    ``as_multisets=False`` enumerates every ordered ballot sequence instead,
    for paranoia runs that refuse the order-insensitivity shortcut.
    """

    system: System
    max_candidates: int
    max_votes: int
    as_multisets: bool = True

    def __post_init__(self):
        # A system given by its value ("veto") means that member, as in ``Election``.
        object.__setattr__(self, "system", System(self.system))

    def describe(self) -> str:
        mode = "ballot multisets" if self.as_multisets else "ballot sequences"
        return (
            f"{self.system.value} elections, <={self.max_candidates} candidates, "
            f"<={self.max_votes} votes ({mode})"
        )


_NAMES = "abcdefghijklmnopqrstuvwxyz"


def candidate_names(count: int) -> tuple[str, ...]:
    if count > len(_NAMES):
        raise ValueError(f"scan universes support at most {len(_NAMES)} candidates")
    return tuple(_NAMES[:count])


def all_ballots(system: System, candidates: tuple[str, ...]) -> tuple[Vote, ...]:
    """Every distinct ballot over the candidate set, in a fixed order."""
    if system is System.APPROVAL:
        m = len(candidates)
        return tuple(
            Vote.approval(
                c for i, c in enumerate(candidates) if code >> (m - 1 - i) & 1
            )
            for code in range(1 << m)
        )
    return tuple(Vote.order(perm) for perm in itertools.permutations(candidates))


def ballot_space_size(system: System, candidate_count: int) -> int:
    if system is System.APPROVAL:
        return 1 << candidate_count
    return math.factorial(candidate_count)


def iter_elections(universe: Universe) -> Iterator[Election]:
    """All elections in the universe, deterministically ordered.

    Pools of ballot indices are enumerated (multisets, or sequences) in the
    order of ``all_ballots``. A multiset pool is sorted, so its distinct
    indices, each with its count, are its (ballot, multiplicity) groups; in a
    sequence each run of equal indices is one group, and ``(1, 0, 1)`` is
    three. A candidate count above what
    ``candidate_names`` supports is refused before any election is built,
    and a universe without ballots builds none of the m! (or 2^m).
    """
    names = candidate_names(universe.max_candidates)
    for m in range(1, universe.max_candidates + 1):
        candidates = names[:m]
        ballots = all_ballots(universe.system, candidates) if universe.max_votes else ()
        codes = range(len(ballots))
        for size in range(universe.max_votes + 1):
            if universe.as_multisets:
                pools = itertools.combinations_with_replacement(codes, size)
            else:
                pools = itertools.product(codes, repeat=size)
            for pool in pools:
                if universe.as_multisets:
                    groups = [(ballots[code], pool.count(code)) for code in dict.fromkeys(pool)]
                else:
                    groups = [
                        (ballots[code], len(list(copies)))
                        for code, copies in itertools.groupby(pool)
                    ]
                yield Election(universe.system, VoteCollection(candidates, tuple(groups)))


def iter_instances(universe: Universe) -> Iterator[ControlInstance]:
    """All (election, focus candidate) pairs in the universe."""
    for election in iter_elections(universe):
        for focus in election.votes.universe:
            yield ControlInstance(election, focus)


def _universe_shapes(universe: Universe) -> Iterator[tuple[int, int, int]]:
    """(candidates, ballots cast, instances of that shape) across the universe."""
    for m in range(1, universe.max_candidates + 1):
        ballots = ballot_space_size(universe.system, m)
        for size in range(universe.max_votes + 1):
            if universe.as_multisets:
                collections = math.comb(ballots + size - 1, size)
            else:
                collections = ballots**size
            yield m, size, collections * m


def instance_count(universe: Universe) -> int:
    return sum(instances for _, _, instances in _universe_shapes(universe))


def estimated_scan_evaluations(
    types: tuple[ControlTypeId, ...], universe: Universe
) -> int:
    """Upper estimate of two-stage evaluations to decide the types everywhere."""
    return sum(
        instances * sum(1 << (size if t.action is Action.PV else m) for t in types)
        for m, size, instances in _universe_shapes(universe)
    )


# ---------------------------------------------------------------------------
# Collapse scanning


@dataclass(frozen=True)
class CollapseCounterexample:
    """An instance on which exactly one of a pair of scanned types succeeds."""

    instance: ControlInstance
    containing_type: ControlTypeId
    witness: Partition
    missing_type: ControlTypeId


@dataclass(frozen=True)
class ScanReport:
    """Result of comparing control types as sets over a universe.

    Per instance, one counterexample for each disagreeing pair of the types,
    in ``itertools.combinations`` order.
    """

    types: tuple[ControlTypeId, ...]
    universe: Universe
    instances_checked: int
    counterexamples: tuple[CollapseCounterexample, ...]

    @property
    def agree(self) -> bool:
        return not self.counterexamples

    def between(self, one: ControlTypeId, two: ControlTypeId) -> tuple[CollapseCounterexample, ...]:
        """The counterexamples of one pair of the types, in instance order."""
        pair = ((one, two), (two, one))
        return tuple(c for c in self.counterexamples if (c.containing_type, c.missing_type) in pair)

    def summary(self) -> str:
        verdict = (
            "agree everywhere"
            if self.agree
            else f"{len(self.counterexamples)} counterexamples"
        )
        return (
            f"{' vs '.join(map(str, self.types))} on {self.universe.describe()}: "
            f"{self.instances_checked} instances, {verdict}"
        )


def collapse_scan(
    types: tuple[ControlTypeId, ...],
    universe: Universe,
    max_evaluations: int = DEFAULT_MAX_EVALS,
) -> ScanReport:
    """Compare control types, such as a collapse group, as sets of instances.

    Each type is decided once per instance by brute force, and then every
    pair of the types is compared; membership is decided independently for
    each type, so the types' partition kinds need not match. Refuses
    universes whose estimated cost exceeds ``max_evaluations``.
    """
    estimate = estimated_scan_evaluations(types, universe)
    if estimate > max_evaluations:
        raise UniverseTooLargeError(estimate, max_evaluations)
    pairs = tuple(itertools.combinations(range(len(types)), 2))
    counterexamples = []
    checked = 0
    for instance in iter_instances(universe):
        checked += 1
        found = [brute_force_search(t, instance).solution for t in types]
        for i, j in pairs:
            if (found[i] is None) != (found[j] is None):
                has, lacks = (i, j) if found[i] is not None else (j, i)
                counterexamples.append(
                    CollapseCounterexample(instance, types[has], found[has], types[lacks])
                )
    return ScanReport(types, universe, checked, tuple(counterexamples))


# ---------------------------------------------------------------------------
# The known collapse groups for the three concrete systems


_GENERAL_TP_GROUP = _types("DC-RPC-TP-NUW", "DC-PC-TP-NUW")
_GENERAL_TE_GROUP = _types("DC-RPC-TE-NUW", "DC-PC-TE-NUW", "DC-RPC-TE-UW", "DC-PC-TE-UW")
_VOTER_TE_GROUP = _types("DC-PV-TE-NUW", "DC-PV-TE-UW")

COLLAPSE_GROUPS: dict[System, tuple[tuple[ControlTypeId, ...], ...]] = {
    System.PLURALITY: (_GENERAL_TP_GROUP, _GENERAL_TE_GROUP),
    System.VETO: (_GENERAL_TP_GROUP, _GENERAL_TE_GROUP, _VOTER_TE_GROUP),
    System.APPROVAL: (
        _GENERAL_TP_GROUP,
        # The destructive TE types merge with the destructive TP unique-winner
        # types into a single six-way group.
        _GENERAL_TE_GROUP + _types("DC-RPC-TP-UW", "DC-PC-TP-UW"),
        _VOTER_TE_GROUP,
        _types("CC-RPC-TP-UW", "CC-PC-TP-UW"),
        _types("CC-RPC-TP-NUW", "CC-PC-TP-NUW"),
        _types("CC-RPC-TE-UW", "CC-PC-TE-UW"),
        _types("CC-RPC-TE-NUW", "CC-PC-TE-NUW"),
    ),
}


def collapse_pairs(system: System) -> list[tuple[ControlTypeId, ControlTypeId]]:
    """Every unordered pair of types known to coincide for the system."""
    pairs = []
    for group in COLLAPSE_GROUPS[system]:
        pairs.extend(itertools.combinations(group, 2))
    return pairs
