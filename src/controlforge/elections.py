"""Candidate/vote data model, vote masking, and winner determination.

Three election systems are supported: plurality and veto (linear-order
ballots) and approval (approval ballots). Every election has at least one
candidate; a winner set is empty only for an empty candidate set. All
values are immutable.

``SubsetWinners`` holds one election's winners of every candidate set (and
voter set) as two tables keyed by bitmask, each filled on demand by its own
bit-count kernel (``_candidate_winners``, ``_voter_winners``) over voter
masks that one walk of the ballots builds; the two-stage semantics reads
every round from them, ``scores`` and ``winners`` read the same tables,
and ``control`` keeps its mask sweeps and memoized ``SolveOutcome``s in
their ``memo`` dict, keyed by plain values.
``subset_winners`` is the bounded cache of those tables, and the library's
only cache.

Validation: ``Election`` accepts valid names by whole-value checks (the
names joined and split back, a duplicate-free name set), and only when they
fail walks the names for the first defect. ``VoteCollection`` walks its
ballots once, accepting each by comparing it with the universe as a set and
naming the first defect, or putting an approval ballot in canonical order,
only when that fails. Errors and messages are as they always were; nothing
is cached and there is no unchecked constructor.
"""

import functools
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable


class ElectionError(ValueError):
    """Base class for malformed election data."""


class InvalidCandidateError(ElectionError):
    """A candidate name is malformed, duplicated, or unknown."""


class InvalidVoteError(ElectionError):
    """A ballot does not fit its collection's kind or universe."""


class System(str, Enum):
    PLURALITY = "plurality"
    VETO = "veto"
    APPROVAL = "approval"

    def __str__(self) -> str:
        return self.value


class VoteKind(str, Enum):
    ORDER = "order"
    APPROVAL = "approval"

    def __str__(self) -> str:
        return self.value


def vote_kind_for(system: System) -> VoteKind:
    """The ballot kind a system accepts: linear orders or approval ballots."""
    return VoteKind.APPROVAL if system is System.APPROVAL else VoteKind.ORDER


# Characters the text formats reserve: ballot separators, approval braces,
# "#" (starts a comment) and ":" (ends a header key).
_FORBIDDEN_NAME_CHARS = frozenset(">,{}#:")


def _plain_names(names) -> bool:
    """Whole-value test: every name is a nonempty string with no whitespace or reserved character.

    ``split()`` and ``isspace()`` read the same whitespace table, so the
    joined names split back into themselves exactly when no name is empty
    or holds whitespace. False sends the caller to its per-name walk.
    """
    try:
        joined = " ".join(names)
    except TypeError:
        return False
    return joined.split() == list(names) and _FORBIDDEN_NAME_CHARS.isdisjoint(joined)


def check_candidate_name(name: str) -> str:
    """Validate a candidate name token and return it unchanged."""
    if _plain_names((name,)):
        return name
    if not name:
        raise InvalidCandidateError("candidate name must be nonempty")
    if any(ch.isspace() for ch in name):
        raise InvalidCandidateError(f"candidate name {name!r} contains whitespace")
    bad = _FORBIDDEN_NAME_CHARS.intersection(name)
    if bad:
        raise InvalidCandidateError(
            f"candidate name {name!r} contains reserved character {sorted(bad)[0]!r}"
        )
    return name


@dataclass(frozen=True)
class Vote:
    """One ballot: a linear order over, or the approved subset of, a universe.

    ``entries`` lists candidate names (a list is kept as a tuple). For an
    order vote it is the full ranking, best first. For an approval vote it
    lists exactly the approved candidates, kept in canonical (universe) order.
    """

    kind: VoteKind
    entries: tuple[str, ...]

    def __post_init__(self):
        # Entries given as a list are kept as a tuple: elections key the
        # table cache, so their ballots must hash.
        if type(self.entries) is list:
            object.__setattr__(self, "entries", tuple(self.entries))
        # A kind given by its value ("order") means that member; others are refused.
        if type(self.kind) is not VoteKind:
            try:
                object.__setattr__(self, "kind", VoteKind(self.kind))
            except ValueError:
                raise InvalidVoteError(f"unknown ballot kind {self.kind!r}") from None

    @classmethod
    def order(cls, ranking: Iterable[str]) -> "Vote":
        return cls(VoteKind.ORDER, tuple(ranking))

    @classmethod
    def approval(cls, approved: Iterable[str]) -> "Vote":
        return cls(VoteKind.APPROVAL, tuple(approved))

    def __str__(self) -> str:
        if self.kind is VoteKind.ORDER:
            return ">".join(self.entries)
        return "{" + ",".join(self.entries) + "}"


@dataclass(frozen=True)
class VoteCollection:
    """An ordered list of (ballot, multiplicity) groups over a fixed universe.

    Canonical voter indices 0..n-1 are assigned by expansion order: group 0
    occupies the first ``multiplicity`` indices, and so on. Two identical
    ballots therefore remain distinguishable when voters are partitioned.
    """

    universe: tuple[str, ...]
    groups: tuple[tuple[Vote, int], ...]

    def __post_init__(self):
        """Walk the ballots once: raise on the first defect, order approval ballots canonically."""
        universe = self.universe
        universe_set = frozenset(universe)
        m = len(universe)
        distinct = len(universe_set) == m  # the whole-ballot test needs a duplicate-free universe
        kind = position = reordered = None
        for vote, count in self.groups:
            if count <= 0:
                raise InvalidVoteError("vote multiplicity must be positive")
            if kind is None:
                kind = vote.kind
                order = kind is VoteKind.ORDER
            elif vote.kind is not kind:
                raise InvalidVoteError("mixed ballot kinds in one collection")
            entries = vote.entries
            try:
                # An order equal to the universe as a set, or an approval
                # ballot equal to its entries in universe order, stands as given.
                if distinct and (
                    len(entries) == m and universe_set == set(entries)
                    if order
                    else tuple(filter(set(entries).__contains__, universe)) == entries
                ):
                    continue
            except (TypeError, ValueError, AttributeError):
                pass  # an ill-formed ballot: the walk below names its defect
            unknown = [c for c in entries if c not in universe_set]
            if unknown:
                raise InvalidCandidateError(f"ballot names unknown candidate {unknown[0]!r}")
            if len(set(entries)) != len(entries):
                raise InvalidVoteError(f"ballot {vote} repeats a candidate")
            if not order:
                position = position or {name: j for j, name in enumerate(universe)}
                canonical = tuple(sorted(entries, key=position.__getitem__))
                if canonical != entries:
                    # Keyed by id: a ballot's entries may not hash (a set, say).
                    reordered = reordered or {}
                    reordered[id(vote)] = Vote(VoteKind.APPROVAL, canonical)
            elif len(entries) != m:
                raise InvalidVoteError(f"ballot {vote} is not a permutation of the candidate set")
        if reordered:
            groups = tuple((reordered.get(id(v), v), c) for v, c in self.groups)
            object.__setattr__(self, "groups", groups)

    @property
    def kind(self) -> VoteKind | None:
        return self.groups[0][0].kind if self.groups else None

    @property
    def total(self) -> int:
        return sum(map(itemgetter(1), self.groups))

    # No caller in src/: bench/tracer.py and test_bench.Binding look up
    # ``masked``, ``select_voters`` and ``mask_votes`` by name.
    def masked(self, keep: frozenset[str]) -> "VoteCollection":
        """Restrict every ballot to ``keep``, preserving relative order."""
        kept = keep.__contains__
        groups = tuple((Vote(v.kind, tuple(filter(kept, v.entries))), c) for v, c in self.groups)
        return VoteCollection(tuple(filter(kept, self.universe)), groups)

    def select_voters(self, indices: frozenset[int]) -> "VoteCollection":
        """Sub-collection holding exactly the ballots at the given indices."""
        picked = []
        offset = 0
        for vote, count in self.groups:
            taken = sum(1 for i in range(offset, offset + count) if i in indices)
            if taken:
                picked.append((vote, taken))
            offset += count
        return VoteCollection(self.universe, tuple(picked))


def _check_names(names) -> None:
    """Walk an election's candidate names and raise on the first defect."""
    if not names:
        raise InvalidCandidateError("an election needs at least one candidate")
    seen = set()
    for name in names:
        check_candidate_name(name)
        if name in seen:
            raise InvalidCandidateError(f"duplicate candidate name {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class Election:
    """A candidate set with votes of the matching kind under one system."""

    system: System
    votes: VoteCollection

    def __post_init__(self):
        # A system given by its value ("veto") means that member: both key the same tables.
        if type(self.system) is not System:
            try:
                object.__setattr__(self, "system", System(self.system))
            except ValueError:
                raise ElectionError(f"unknown election system {self.system!r}") from None
        names = self.votes.universe
        if not (names and _plain_names(names) and len(set(names)) == len(names)):
            _check_names(names)
        kind = self.votes.kind
        if kind is not None and kind is not vote_kind_for(self.system):
            raise InvalidVoteError(
                f"{self.system} elections take {vote_kind_for(self.system)} ballots, got {kind}"
            )

    def __hash__(self) -> int:
        # Elections key the table cache: hash the ballots once, not per lookup.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((self.system, self.votes))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        # Rebuild from the fields: string hashes differ between processes.
        return Election, (self.system, self.votes)

    @property
    def candidates(self) -> tuple[str, ...]:
        return self.votes.universe


def make_election(
    system: System | str,
    candidates: Iterable[str],
    ballots: Iterable[tuple[Iterable[str], int]] = (),
) -> Election:
    """Convenience constructor from plain sequences.

    Each ballot is given as (candidate names, multiplicity); names are read
    as a ranking for plurality/veto and as the approved set for approval.
    """
    system = System(system)
    kind = vote_kind_for(system)
    groups = tuple((Vote(kind, tuple(entries)), count) for entries, count in ballots)
    return Election(system, VoteCollection(tuple(candidates), groups))


def _known(candidates: Iterable[str], votes: VoteCollection, action: str) -> frozenset[str]:
    """The candidate set, refused if it names a candidate outside the votes' universe."""
    keep = frozenset(candidates)
    unknown = keep.difference(votes.universe)
    if unknown:
        raise InvalidCandidateError(f"cannot {action} unknown candidate {sorted(unknown)[0]!r}")
    return keep


# No caller in src/: bench/tracer.py and test_bench.Binding look it up by name.
def mask_votes(votes: VoteCollection, subset: Iterable[str]) -> VoteCollection:
    """Restrict every ballot to ``subset``, preserving order and multiplicities."""
    return votes.masked(_known(subset, votes, "mask to"))


def scores(system: System, candidates: Iterable[str], votes: VoteCollection) -> dict[str, int]:
    """Per-candidate tally over the votes masked down to ``candidates``, in canonical order.

    Plurality counts first places, veto last places, approval approvals: the
    voters a candidate does not lose in the round on that set, read from the
    election's ``SubsetWinners`` rows. Votes ``Election`` refuses raise its
    error (``InvalidVoteError`` for ballots of the wrong kind for the system,
    ``InvalidCandidateError`` for malformed names); no candidates give ``{}``.
    """
    keep = _known(candidates, votes, "score")
    if not keep:
        return {}
    table = subset_winners(Election(system, votes))
    subset, n, tally = table.block_mask[keep], votes.total, {}
    for name, (c, row) in zip(votes.universe, table.rows):
        if c & subset:
            lost = 0
            for rivals, voters in row:
                if rivals & subset:
                    lost |= voters
            tally[name] = n - lost.bit_count()
    return tally


def winners(system: System, candidates: Iterable[str], votes: VoteCollection) -> frozenset[str]:
    """Winner set: the most points (fewest vetoes) of ``scores``, read from the
    ``SubsetWinners`` table that decides every round. Raises as ``scores`` does."""
    keep = _known(candidates, votes, "score")
    if not keep:
        return frozenset()
    table = subset_winners(Election(system, votes))
    return table.named[table.by_candidates[table.block_mask[keep]]]


class _Table(dict):
    """A dict that computes a missing entry on first lookup and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _candidate_winners(rows, veto: bool, subset: int) -> int:
    """Winner mask of candidate set ``subset`` under every voter's ballot.

    ``rows`` pairs each candidate c with (rivals, voters) masks: those
    voters give c no point whenever ``subset`` holds one of ``rivals``. The
    candidates losing the fewest voters win; under veto, where the point is
    a veto, those losing the most.
    """
    best, won = None, 0
    for c, row in rows:
        if c & subset:
            lost = 0
            for rivals, voters in row:
                if rivals & subset:
                    lost |= voters
            key = lost.bit_count()
            if veto:
                key = -key
            if best is None or key < best:
                best, won = key, c
            elif key == best:
                won |= c
    return won


def _voter_winners(lost, veto: bool, chosen: int) -> int:
    """Winner mask of the full candidate set under the ballots of the ``chosen`` voters.

    ``lost`` pairs each candidate c with the voters who give it no point
    over the full candidate set; the winners are picked as in
    ``_candidate_winners``, counting the chosen voters only.
    """
    best, won = None, 0
    for c, voters in lost:
        key = (voters & chosen).bit_count()
        if veto:
            key = -key
        if best is None or key < best:
            best, won = key, c
        elif key == best:
            won |= c
    return won


class SubsetWinners:
    """The winners of every candidate set (and, for PV, voter set) of one election.

    Sets are bitmasks: candidate i of the canonical order is bit m-1-i and
    voter index j is bit n-1-j, so the integer of a partition's encoding
    (item 0 first) is its first-block mask. Two winner tables, keyed by mask
    and holding winner masks:

    * ``by_candidates[S]``: winners of candidate set S scored against the
      full votes, each ballot counting only for the candidates in S (the
      winners of the election masked down to S), filled by
      ``_candidate_winners``;
    * ``by_voters[V]``: winners of the full candidate set under the ballots
      of the voters in V (the winners of ``select_voters``), filled by
      ``_voter_winners``.

    Entries are filled on first lookup, so a table never holds more entries
    than decisions asked for; the kernels count bits and build no votes or
    elections. Two memo tables serve the partitions: ``block_mask[block]``
    is the mask of a frozenset of candidate names, or of voter indices
    shifted past the m candidate bits so that neither kind passes for the
    other, and -1 for a frozenset of anything else; a block that is not a
    frozenset, or an index that is not an int, raises ``TypeError`` and is
    not kept (equal blocks share an entry, and ``{0.0} == {0}``), and
    ``named[mask]`` holds the candidate names of a mask.
    """

    def __init__(self, election: Election):
        system = election.system
        m = len(election.candidates)
        bits = tuple(1 << (m - 1 - i) for i in range(m))
        bit_of = dict(zip(election.candidates, bits))
        veto = system is System.VETO
        approval = system is System.APPROVAL
        # For each candidate c and ballot group: (the candidates it ranks above
        # c, its voters); below c under veto; c itself if it does not approve c.
        # Over the full candidate set, c loses the voters of all its pairs.
        # The groups are walked last-first, so the last group's voters take
        # the lowest bits and n is counted on the way.
        passed = {c: [] for c in bits}
        lost = dict.fromkeys(bits, 0)
        n = 0
        for vote, count in reversed(election.votes.groups):
            voters = ((1 << count) - 1) << n
            n += count
            if approval:
                for name in bit_of.keys() - vote.entries:
                    c = bit_of[name]
                    passed[c].append((c, voters))
                    lost[c] |= voters
                continue
            before = 0
            for name in reversed(vote.entries) if veto else vote.entries:
                c = bit_of[name]
                if before:
                    passed[c].append((before, voters))
                    lost[c] |= voters
                before |= c
        self.bit_of = bit_of
        self.everyone = (1 << m) - 1
        self.all_voters = (1 << n) - 1
        # The fills close over plain data, not over self: a table that
        # refers back to its owner would stay in memory after the cache
        # drops it, until a full garbage collection.
        rows, lost = tuple(passed.items()), tuple(lost.items())
        self.rows = rows  # ``scores`` reads the losses too
        self.by_candidates = _Table(functools.partial(_candidate_winners, rows, veto))
        self.by_voters = _Table(functools.partial(_voter_winners, lost, veto))

        def block_mask(block):
            if bit_of.keys() >= block:  # raises TypeError unless block is a set
                return sum(map(bit_of.__getitem__, block))
            # A voter block is read from its bit string, voter j at digit j:
            # n voter masks would hold n * n / 2 bits, and their sum take n * n time.
            digits = bytearray(b"0") * (n + m)
            for j in block:
                if not 0 <= j < n:
                    return -1
                digits[j] = ord("1")
            return int(digits, 2)

        self.block_mask = _Table(block_mask)
        self.named = _Table(
            lambda mask: frozenset(c for c, bit in bit_of.items() if bit & mask)
        )
        # ``control``'s state: the searches' mask sweeps, keyed by (shape,
        # focus bit), and the outcomes of ``outcome_of_mask``, keyed by (voter
        # split, mask), which searches and transfers share. Held here, it is
        # bounded and dropped with the tables.
        self.memo = {}


@functools.lru_cache(maxsize=256)
def subset_winners(election: Election) -> SubsetWinners:
    """The election's winner tables, shared by every decision about it.

    The only cache in the library: it holds the tables of the 256 elections
    used last, and with them the searches' ``memo``.
    """
    return SubsetWinners(election)
