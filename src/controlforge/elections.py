"""Candidate/vote data model, vote masking, and winner determination.

Three election systems are supported: plurality and veto (linear-order
ballots) and approval (approval ballots). Every election has at least one
candidate; a winner set is empty only for an empty candidate set. All
values are immutable.

``SubsetWinners`` holds one election's winners of every candidate set (and
voter set) as two tables keyed by bitmask, each a dict that fills a missing
entry with its own kernel: ``_CandidateWinners`` sums the counts of the ballot
lines one walk of the ballots lists, and ``_VoterWinners`` counts the bits of
voter masks built from those lines on the first voter-partition question. The
two-stage semantics, ``scores`` and ``winners`` read them, and ``control``
keeps its mask sweeps in their ``memo`` dict, keyed by the int
``focus << 3 | ControlTypeId.sweep``. ``subset_winners`` is the bounded cache
of those tables (an LRU behind a slot for the election asked for last).
``block_maps`` maps an item sequence's masks to blocks and back, and holds the
one outcome memo rule: up to 8 items the ``SolveOutcome`` of each mask is kept
in the items' ``block_table``, shared by every table, enumeration and partition
over the same items; past 8 items the memo keeps nothing.

Validation: ``Election`` accepts valid names by whole-value checks (the
names joined and split back, a duplicate-free name set), and only when they
fail walks the names for the first defect, such as a name that is not a
``str``. ``VoteCollection`` walks its ballots once, accepting each by
comparing it with the universe as a set and naming the first defect, or
putting an approval ballot in canonical order, only when that fails. Nothing
is cached and there is no unchecked constructor: each record's own
``__init__`` runs its checks and then sets each field once.
"""

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable


class ElectionError(ValueError):
    """Base class for malformed election data."""


class InvalidCandidateError(ElectionError):
    """A candidate name is malformed, duplicated, or unknown."""


class InvalidVoteError(ElectionError):
    """A ballot does not fit its collection's kind or universe."""


# The records that check their arguments (``VoteCollection`` and ``Election``
# below, ``control.ControlInstance``) are frozen dataclasses with their own
# ``__init__``, which checks them and then sets each field once through this.
_set = object.__setattr__


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
    if not isinstance(name, str):
        raise InvalidCandidateError(f"candidate name {name!r} is not a string")
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

    def __init__(self, universe: tuple[str, ...], groups: tuple[tuple[Vote, int], ...]):
        """Walk the ballots once: raise on the first defect, order approval ballots canonically."""
        universe_set = frozenset(universe)
        m = len(universe)
        distinct = len(universe_set) == m  # the whole-ballot test needs a duplicate-free universe
        kind = position = reordered = None
        for vote, count in groups:
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
            groups = tuple((reordered.get(id(v), v), c) for v, c in groups)
        _set(self, "universe", universe)
        _set(self, "groups", groups)

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

    def __init__(self, system: System, votes: VoteCollection):
        # bench/tracer.py counts the elections built by wrapping ``__post_init__``.
        self.__post_init__(system, votes)

    def __post_init__(self, system: System, votes: VoteCollection):
        """Check the arguments, then set each field once."""
        # A system given by its value ("veto") means that member: both key the same tables.
        if type(system) is not System:
            try:
                system = System(system)
            except ValueError:
                raise ElectionError(f"unknown election system {system!r}") from None
        names = votes.universe
        if not (names and _plain_names(names) and len(set(names)) == len(names)):
            _check_names(names)
        groups = votes.groups
        if groups and groups[0][0].kind is not vote_kind_for(system):
            raise InvalidVoteError(
                f"{system} elections take {vote_kind_for(system)} ballots, got {votes.kind}"
            )
        _set(self, "system", system)
        _set(self, "votes", votes)

    def __hash__(self) -> int:
        # Elections key the table cache: hash the ballots once, not per lookup.
        # Read as an attribute: ``self.__dict__`` would materialize the
        # instance dict, which on Python 3.11 slows every field read.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.system, self.votes))
            _set(self, "_hash", value)
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
    subset, n, tally = sum(map(table.bit_of.__getitem__, keep)), votes.total, {}
    # ``table.rows`` must be in candidate order: ``_bits_of`` is built in that order.
    for name, (c, row) in zip(votes.universe, table.rows):
        if c & subset:
            tally[name] = n - sum(count for rivals, count, _ in row if rivals & subset)
    return tally


def winners(system: System, candidates: Iterable[str], votes: VoteCollection) -> frozenset[str]:
    """Winner set: the most points (fewest vetoes) of ``scores``, read from the
    ``SubsetWinners`` table that decides every round. Raises as ``scores`` does."""
    keep = _known(candidates, votes, "score")
    if not keep:
        return frozenset()
    table = subset_winners(Election(system, votes))
    return table.named[table.by_candidates[sum(map(table.bit_of.__getitem__, keep))]]


_slot = _NO_SLOT = (object(), None)  # the election asked for last (none yet) and its table
_slot_hits = 0


# The module's first cache: bench/run.py reports the first ``cache_info`` here.
def subset_winners(election: Election) -> "SubsetWinners":
    """The election's winner tables, shared by every decision about it.

    The LRU ``_tables`` keeps the 256 elections' tables used last, with their
    sweeps; a slot answers the election asked for last by ``is``, not its Python
    hash, and holds only the LRU's newest table. ``cache_info`` counts its hits.
    """
    global _slot, _slot_hits
    if _slot[0] is election:
        _slot_hits += 1
    else:
        _slot = (election, _tables(election))
    return _slot[1]


def _cache_info():
    info = _tables.cache_info()
    return info._replace(hits=info.hits + _slot_hits)


def _cache_clear():
    global _slot, _slot_hits
    _slot, _slot_hits = _NO_SLOT, 0
    _tables.cache_clear()


subset_winners.cache_info, subset_winners.cache_clear = _cache_info, _cache_clear
_tables = functools.lru_cache(maxsize=256)(lambda election: SubsetWinners(election))


# An item sequence of at most this many items has a shared table of its 2**8 blocks.
_TABLE_ITEMS = 8


@functools.lru_cache(maxsize=16)
def block_table(items: tuple) -> tuple[tuple, MappingProxyType, dict]:
    """``(blocks, mask_of, outcomes)`` of a tuple of at most ``_TABLE_ITEMS`` items.

    ``blocks[mask]`` is the frozenset of the items set in ``mask`` (item 0 is
    the top bit), built by doubling from the last item, and ``mask_of`` maps
    each block back to its mask. ``outcomes`` maps a mask to the
    ``SolveOutcome`` of its partition, kept on the first ask by
    ``control.outcome_of_mask``. Every election, enumeration and partition
    over the same items shares the three, so the first two are read-only.
    Bounded: an 8-item table holds about 90 KB, and about 60 KB more with
    every outcome filled, so the 16 kept hold at most about 2.4 MB.
    """
    blocks = [frozenset()]
    for item in reversed(items):  # the last item is bit 0
        single = frozenset((item,))
        blocks += [block | single for block in blocks]
    return tuple(blocks), MappingProxyType(dict(zip(blocks, range(len(blocks))))), {}


class _Computed:
    """A lookup whose every answer ``fill`` computes and nothing keeps."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __getitem__(self, key):
        return self.fill(key)


def _block(items, mask: int) -> frozenset:
    """The items set in ``mask``, item 0 being the top bit, walked item by item."""
    flags = format(mask, "b").zfill(len(items))
    return frozenset(itertools.compress(items, map("1".__eq__, flags)))


def _mask(items, block: frozenset) -> int:
    """The mask of a block of the items, read from its bit string: one shifted
    int per item would hold n * n / 2 bits, and summing them take n * n time."""
    if not isinstance(block, frozenset):
        raise TypeError(f"a block is a frozenset, not a {type(block).__name__}")
    digits, index = bytearray(b"0") * len(items), items.index
    try:
        for item in block:
            digits[index(item)] = 49  # ord("1")
    except ValueError:  # not one of the items
        raise KeyError(item) from None
    return int(digits, 2)


class _KeepNone(dict):
    """An outcome memo that keeps nothing: every write is dropped, so it stays empty."""

    __slots__ = ()

    def __setitem__(self, key, value):
        pass


_KEEP_NONE = _KeepNone()


def block_maps(items) -> tuple:
    """``(blocks, mask_of, outcomes)`` of an ordered item sequence, read as ``block_table``'s.

    The one outcome memo rule: at most ``_TABLE_ITEMS`` items read the shared
    table, whose ``outcomes`` keeps each mask's outcome; a longer sequence
    computes each block and mask item by item on every lookup, and its
    ``outcomes`` is the one shared memo that keeps nothing.
    """
    if len(items) <= _TABLE_ITEMS:
        return block_table(tuple(items))
    blocks, mask_of = functools.partial(_block, items), functools.partial(_mask, items)
    return _Computed(blocks), _Computed(mask_of), _KEEP_NONE


@functools.lru_cache(maxsize=16)
def _bits_of(candidates: tuple) -> MappingProxyType:
    """Each candidate's bit, candidate i of m being bit m-1-i, shared by every
    table over the same candidates, so read-only."""
    m = len(candidates)
    return MappingProxyType({name: 1 << (m - 1 - i) for i, name in enumerate(candidates)})


class _CandidateWinners(dict):
    """Winner masks by candidate mask, each computed on first lookup and kept.

    ``rows`` pairs each candidate c with one (rivals, count, low) triple per
    ballot line: that line's ``count`` voters give c no point whenever the
    candidate set holds one of ``rivals`` (``low`` is the line's lowest voter
    bit, read only by ``SubsetWinners.voter_blocks``). The candidates losing
    the fewest voters win; under veto, where the point is a veto, those
    losing the most.
    """

    __slots__ = ("rows", "veto")

    def __init__(self, rows: tuple, veto: bool):
        self.rows, self.veto = rows, veto

    def __missing__(self, subset: int) -> int:
        best, won, veto = None, 0, self.veto
        for c, row in self.rows:
            if c & subset:
                key = 0
                for rivals, count, _ in row:
                    if rivals & subset:
                        key += count
                if veto:
                    key = -key
                if best is None or key < best:
                    best, won = key, c
                elif key == best:
                    won |= c
        self[subset] = won
        return won


class _VoterWinners(dict):
    """Winner masks of the full candidate set by voter mask, each computed on
    first lookup and kept.

    ``lost`` pairs each candidate c with the voters who give it no point
    over the full candidate set; the winners are picked as in
    ``_CandidateWinners``, counting the chosen voters only.
    """

    __slots__ = ("lost", "veto")

    def __init__(self, lost: tuple, veto: bool):
        self.lost, self.veto = lost, veto

    def __missing__(self, chosen: int) -> int:
        best, won, veto = None, 0, self.veto
        for c, voters in self.lost:
            key = (voters & chosen).bit_count()
            if veto:
                key = -key
            if best is None or key < best:
                best, won = key, c
            elif key == best:
                won |= c
        self[chosen] = won
        return won


class SubsetWinners:
    """The winners of every candidate set (and, for PV, voter set) of one election.

    Sets are bitmasks: candidate i of the canonical order is bit m-1-i and
    voter index j is bit n-1-j, so the integer of a partition's encoding
    (item 0 first) is its first-block mask. Two winner tables, keyed by mask
    and holding winner masks:

    * ``by_candidates[S]``: winners of candidate set S scored against the
      full votes, each ballot counting only for the candidates in S (the
      winners of the election masked down to S), a ``_CandidateWinners``;
    * ``by_voters[V]``: winners of the full candidate set under the ballots
      of the voters in V (the winners of ``select_voters``), a
      ``_VoterWinners``.

    Entries are filled on first lookup, so a table never holds more entries
    than decisions asked for; the kernels count and build no votes or
    elections. A candidate question costs ballot lines, not voters: the rows
    hold each line's count, and ``voters`` is n. Masks, blocks and outcomes
    are mapped by the candidates' ``block_maps``, shared with every election
    over the same candidates: ``named[mask]`` is the frozenset of the
    candidate names of a mask, ``mask_of[block]`` the mask of a block of
    them and ``outcomes[mask]`` the memoized outcome of a mask's partition
    (up to 8 items; past 8, ``outcomes`` keeps nothing). Everything over
    voter masks (``all_voters``, ``by_voters`` and ``voter_outcomes``) is
    built by the first ``voter_blocks()`` call, the one entry point of every
    voter-partition question (through ``control``).
    """

    __slots__ = (
        "bit_of", "everyone", "voters", "all_voters", "rows", "by_candidates", "by_voters",
        "named", "mask_of", "outcomes", "voter_outcomes", "memo", "_voter_blocks", "__weakref__",
    )

    def __init__(self, election: Election):
        system = election.system
        self.bit_of = bit_of = _bits_of(election.candidates)
        veto = system is System.VETO
        approval = system is System.APPROVAL
        # For each candidate c and ballot line: (the candidates it ranks above
        # c, its count, its lowest voter bit); below c under veto; c itself if
        # it does not approve c. Over the full candidate set, c loses the
        # voters of all its lines. The lines are walked last-first, so the
        # last line's voters take the lowest bits and n is counted on the way.
        passed = {c: [] for c in bit_of.values()}
        n = 0
        for vote, count in reversed(election.votes.groups):
            if approval:
                for name in bit_of.keys() - vote.entries:
                    c = bit_of[name]
                    passed[c].append((c, count, n))
            else:
                before = 0
                for name in reversed(vote.entries) if veto else vote.entries:
                    c = bit_of[name]
                    if before:
                        passed[c].append((before, count, n))
                    before |= c
            n += count
        self.everyone, self.voters = (1 << len(bit_of)) - 1, n
        # The fills (and ``scores``) read plain data, not self: a table that
        # refers back to its owner would stay in memory after the cache drops
        # it, until a full garbage collection.
        self.rows = rows = tuple([(c, tuple(row)) for c, row in passed.items()])
        self.by_candidates = _CandidateWinners(rows, veto)
        self.named, self.mask_of, self.outcomes = block_maps(election.candidates)
        self._voter_blocks = None
        # ``control._least_mask``'s sweeps, keyed by the int ``focus << 3 |
        # sweep``: held here, they are bounded and dropped with the tables.
        self.memo = {}

    def voter_blocks(self) -> tuple:
        """``(blocks, mask_of, outcomes)`` of the voter indices (``block_maps``); the first
        call builds the n-bit voter masks, ``all_voters`` and ``by_voters`` (whose ``lost``
        sums each candidate's row lines, disjoint voters), and ``voter_outcomes``, the third."""
        if self._voter_blocks is None:
            lost = tuple(
                (c, sum(((1 << count) - 1) << low for _, count, low in row))
                for c, row in self.rows
            )
            self.all_voters = (1 << self.voters) - 1
            self.by_voters = _VoterWinners(lost, self.by_candidates.veto)
            self._voter_blocks = block_maps(range(self.voters))
            self.voter_outcomes = self._voter_blocks[2]
        return self._voter_blocks
