"""Hitting-Set reduction to destructive candidate-partition control.

Encodes a Hitting-Set question (does the family S over ground set B have a
hitting set of size at most k?) as a plurality DC-PC-TP-NUW instance whose
focus candidate can be unseated iff the answer is yes. Alongside the encoder
there is a forward witness builder (hitting set -> verifying partition), a
backward extractor (partition -> hitting set, or None unless it verifies),
and a brute-force Hitting-Set solver to serve as ground truth.

The election puts the ground-set elements, a focus candidate ``c``, and a
spoiler ``w`` on the ballot. Vote counts are tuned so that in any subelection
(B' u {c, w}, V) the spoiler scores 2n(k+1)+5+2(m-|B'|) first places while
the focus scores 2(m-k)+2n(k+1)+4+2(k+1)L, with L the number of sets B'
misses; the spoiler therefore beats the focus exactly when B' hits every set
with at most k elements.
"""

import itertools
from dataclasses import dataclass
from typing import Iterator

from .control import ControlInstance, ControlTypeId, Partition, round_focus_lost, verify_solution
from .elections import Election, System, Vote, VoteCollection, check_candidate_name


class InvalidInstanceError(ValueError):
    """A Hitting-Set instance violates its well-formedness conditions."""


class InvalidWitnessError(ValueError):
    """A claimed hitting set is not one, or exceeds the size bound."""


FOCUS_NAME = "c"
SPOILER_NAME = "w"
ENCODED_CONTROL_TYPE = ControlTypeId.parse("DC-PC-TP-NUW")


@dataclass(frozen=True)
class HittingSetInstance:
    """Ground set, family of nonempty subsets, and size bound k."""

    elements: tuple[str, ...]
    sets: tuple[frozenset[str], ...]
    bound: int

    def __post_init__(self):
        if not self.elements:
            raise InvalidInstanceError("the ground set needs at least one element")
        seen = set()
        for name in self.elements:
            check_candidate_name(name)
            if name in (FOCUS_NAME, SPOILER_NAME):
                raise InvalidInstanceError(
                    f"element name {name!r} is reserved for the encoding"
                )
            if name in seen:
                raise InvalidInstanceError(f"duplicate element {name!r}")
            seen.add(name)
        for subset in self.sets:
            if not subset:
                raise InvalidInstanceError("sets in the family must be nonempty")
            stray = subset - seen
            if stray:
                raise InvalidInstanceError(
                    f"set member {sorted(stray)[0]!r} is not a ground-set element"
                )
        if not 1 <= self.bound <= len(self.elements):
            raise InvalidInstanceError(
                f"bound must satisfy 1 <= k <= {len(self.elements)}, got {self.bound}"
            )

    def hits_all(self, chosen: frozenset[str]) -> bool:
        return all(subset & chosen for subset in self.sets)


@dataclass(frozen=True)
class VoteBlock:
    """One construction clause: which ballot it contributes, how many times."""

    label: str
    ballot: Vote
    count: int


@dataclass(frozen=True)
class EncodedInstance:
    """The constructed plurality control instance plus its bookkeeping."""

    source: HittingSetInstance
    instance: ControlInstance
    blocks: tuple[VoteBlock, ...]

    @property
    def election(self) -> Election:
        return self.instance.election


def encode_hitting_set(hs: HittingSetInstance) -> EncodedInstance:
    """Build the plurality election whose DC-PC-TP-NUW membership answers hs.

    Candidates are the elements followed by the focus and the spoiler; every
    ballot lists its distinguished prefix and then the remaining candidates
    in canonical order.
    """
    elements = hs.elements
    m, n, k = len(elements), len(hs.sets), hs.bound
    candidates = elements + (FOCUS_NAME, SPOILER_NAME)
    order = {name: i for i, name in enumerate(candidates)}

    def ballot(prefix: tuple[str, ...]) -> Vote:
        rest = tuple(c for c in candidates if c not in prefix)
        return Vote.order(prefix + rest)

    blocks = [
        VoteBlock(
            "focus-first",
            ballot((FOCUS_NAME, SPOILER_NAME)),
            2 * (m - k) + 2 * n * (k + 1) + 4,
        ),
        VoteBlock("spoiler-first", ballot((SPOILER_NAME, FOCUS_NAME)), 2 * n * (k + 1) + 5),
    ]
    for i, subset in enumerate(hs.sets):
        prefix = tuple(sorted(subset, key=order.__getitem__)) + (FOCUS_NAME,)
        blocks.append(VoteBlock(f"set-{i}", ballot(prefix), 2 * (k + 1)))
    for name in elements:
        blocks.append(VoteBlock(f"element-{name}", ballot((name, SPOILER_NAME)), 2))

    votes = VoteCollection(candidates, tuple((b.ballot, b.count) for b in blocks))
    instance = ControlInstance(Election(System.PLURALITY, votes), FOCUS_NAME)
    return EncodedInstance(hs, instance, tuple(blocks))


def forward_partition(hs: HittingSetInstance, chosen) -> Partition:
    """The verifying partition a hitting set induces on the encoded instance.

    Puts the chosen elements plus focus and spoiler in the first block: there
    the spoiler uniquely wins, so the focus never reaches the final round.
    """
    chosen = frozenset(chosen)
    stray = chosen - frozenset(hs.elements)
    if stray:
        raise InvalidWitnessError(
            f"witness member {sorted(stray)[0]!r} is not a ground-set element"
        )
    if len(chosen) > hs.bound:
        raise InvalidWitnessError(
            f"witness has {len(chosen)} elements, above the bound {hs.bound}"
        )
    if not hs.hits_all(chosen):
        missed = next(s for s in hs.sets if not s & chosen)
        raise InvalidWitnessError(f"witness misses the set {{{','.join(sorted(missed))}}}")
    first = chosen | {FOCUS_NAME, SPOILER_NAME}
    universe = frozenset(hs.elements) | {FOCUS_NAME, SPOILER_NAME}
    return Partition.of_candidates(first, universe - first)


def extract_hitting_set(
    encoded: EncodedInstance, solution: Partition
) -> "frozenset[str] | None":
    """Read a hitting set back off a verifying partition, or None if it fails.

    The focus candidate lost either the first-round subelection it sat in or
    the final round; intersecting that round's candidate set with the ground
    set yields a hitting set within the bound.
    """
    if not verify_solution(ENCODED_CONTROL_TYPE, encoded.instance, solution):
        return None
    lost_in = round_focus_lost(ENCODED_CONTROL_TYPE, encoded.instance, solution)
    return lost_in & frozenset(encoded.source.elements)


def brute_force_hitting_set(hs: HittingSetInstance) -> "frozenset[str] | None":
    """Smallest (then lexicographically least) hitting set within the bound."""
    for size in range(hs.bound + 1):
        for combo in itertools.combinations(hs.elements, size):
            chosen = frozenset(combo)
            if hs.hits_all(chosen):
                return chosen
    return None


def iter_hitting_set_instances(
    max_elements: int = 3, max_sets: int = 3
) -> Iterator[HittingSetInstance]:
    """Every instance with <= max_elements elements ``b1, b2, ...``, every
    family of <= max_sets distinct nonempty sets, and every bound 1 <= k <= m."""
    for m in range(1, max_elements + 1):
        elements = tuple(f"b{i}" for i in range(1, m + 1))
        subsets = [
            frozenset(combo)
            for size in range(1, m + 1)
            for combo in itertools.combinations(elements, size)
        ]
        for n in range(max_sets + 1):
            for family in itertools.combinations(subsets, n):
                for k in range(1, m + 1):
                    yield HittingSetInstance(elements, family, k)
