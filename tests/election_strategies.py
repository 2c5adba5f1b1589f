"""Hypothesis strategies shared across the test modules."""

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
from controlforge.control import ALL_CONTROL_TYPES, PartitionKind, partition_items

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
