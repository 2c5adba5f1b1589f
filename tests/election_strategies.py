"""Hypothesis strategies, partition enumerations and the reference's plain
form of an instance, shared across the test modules."""

import itertools
import string

from hypothesis import strategies as st

from controlforge import (
    ControlInstance,
    Election,
    Partition,
    System,
    Vote,
    VoteCollection,
)
from controlforge.control import (
    ALL_CONTROL_TYPES,
    Action,
    PartitionKind,
    TieRule,
    partition_items,
)
from controlforge.solvers import enumerate_partitions

import reference

ALL_SYSTEMS = tuple(System)


def ballots(system, candidates):
    if system is System.APPROVAL:
        return st.sets(st.sampled_from(candidates)).map(
            lambda chosen: Vote.approval(c for c in candidates if c in chosen)
        )
    return st.permutations(list(candidates)).map(Vote.order)


@st.composite
def elections(draw, systems=ALL_SYSTEMS, max_candidates=4, max_votes=4):
    system = draw(st.sampled_from(systems))
    m = draw(st.integers(1, max_candidates))
    candidates = tuple(string.ascii_lowercase[:m])
    pool = draw(st.lists(ballots(system, candidates), max_size=max_votes))
    groups = tuple((vote, 1) for vote in pool)
    return Election(system, VoteCollection(candidates, groups))


@st.composite
def control_instances(draw, **kwargs):
    election = draw(elections(**kwargs))
    focus = draw(st.sampled_from(election.candidates))
    return ControlInstance(election, focus)


def partitions_for(instance, kind):
    items = partition_items(instance, kind)
    if not items:
        return st.just(Partition(kind, frozenset(), frozenset()))
    return st.sets(st.sampled_from(items)).map(
        lambda first: Partition(kind, frozenset(first), frozenset(items) - frozenset(first))
    )


control_types = st.sampled_from(ALL_CONTROL_TYPES)
candidate_control_types = st.sampled_from(
    [t for t in ALL_CONTROL_TYPES if t.partition_kind is PartitionKind.CANDIDATE]
)

# The types grouped by action and tie rule: the four of a group share their rounds.
TYPES_BY_ROUNDS = tuple(
    tuple(t for t in ALL_CONTROL_TYPES if (t.action, t.tie_rule) == rounds)
    for rounds in itertools.product(Action, TieRule)
)


def malformed_variants(partition, instance):
    """The partition with the other kind, an overlap, a stray item and a missing item."""
    kind, first, second = partition.kind, partition.first, partition.second
    items = partition_items(instance, kind)
    stray = "z" if kind is PartitionKind.CANDIDATE else len(items)
    other = PartitionKind.VOTER if kind is PartitionKind.CANDIDATE else PartitionKind.CANDIDATE
    variants = [Partition(other, first, second), Partition(kind, first | {stray}, second)]
    if items:
        shared, last = items[0], items[-1]
        variants.append(Partition(kind, first | {shared}, second | {shared}))
        variants.append(Partition(kind, first - {last}, second - {last}))
    return variants


def every_partition(instance, control_type):
    """Every well-formed partition of the type's kind, each followed by its malformed variants."""
    for partition in enumerate_partitions(instance, control_type.partition_kind):
        yield partition
        yield from malformed_variants(partition, instance)


def plain_ballots(election):
    """The election's ballot groups in the plain form of ``bench/reference.py``."""
    return tuple((vote.entries, count) for vote, count in election.votes.groups)


def plain(instance):
    """The instance in the plain form of ``bench/reference.py``."""
    election = instance.election
    return election.system.value, election.candidates, plain_ballots(election), instance.focus


def reference_verifies(control_type, data, partition):
    """The reference's verdict on a partition, which must be of the type's kind."""
    if partition.kind is not control_type.partition_kind:
        return False
    return reference.verifies(data, str(control_type), partition.first, partition.second)


def reference_round_focus_lost(checked, focus):
    """The round the focus lost, read off the explaining path's trace
    (``check_solution``'s, on a verifying partition)."""
    for stage in checked.trace.first_rounds:
        if focus in stage.candidates and focus not in stage.survivors:
            return stage.candidates
    return checked.trace.final_candidates


def leaves(key):
    """The plain values of a memo key, however its tuples nest."""
    if isinstance(key, tuple):
        for part in key:
            yield from leaves(part)
    else:
        yield key
