import functools
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from controlforge import (
    ControlInstance,
    ControlTypeId,
    Election,
    Partition,
    System,
    Vote,
    VoteCollection,
    make_election,
    mask_votes,
    scores,
    verify_solution,
    winners,
)
from controlforge.control import PartitionKind
from controlforge import elections as elections_module
from controlforge.elections import (
    ElectionError,
    InvalidCandidateError,
    InvalidVoteError,
    SubsetWinners,
    VoteKind,
    check_candidate_name,
    subset_winners,
    vote_kind_for,
)
from controlforge.solvers import Universe, brute_force_search, iter_elections

import reference
from election_strategies import elections, plain_ballots


def linear(candidates, *rankings):
    return VoteCollection(
        tuple(candidates), tuple((Vote.order(r), m) for r, m in rankings)
    )


def approving(candidates, *approvals):
    return VoteCollection(
        tuple(candidates), tuple((Vote.approval(a), m) for a, m in approvals)
    )


class TestNames:
    def test_accepts_plain_tokens(self):
        for name in ("a", "b1", "x_y", "Zed"):
            assert check_candidate_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "a b", "a>b", "a,b", "{a", "a}", "a#b", "#", "system:x", ":"]
    )
    def test_rejects_bad_tokens(self, name):
        with pytest.raises(InvalidCandidateError):
            check_candidate_name(name)

    def test_rejects_duplicate_candidates(self):
        with pytest.raises(InvalidCandidateError):
            make_election("approval", ["a", "a"])

    @pytest.mark.parametrize("name", [("a",), 1, b"a", None], ids=repr)
    def test_rejects_names_that_are_not_strings(self, name):
        # A tuple name was accepted, and joined by no text format; the others
        # raised a bare TypeError or AttributeError, or "must be nonempty".
        message = f"candidate name {name!r} is not a string"
        for build in (
            lambda: check_candidate_name(name),
            lambda: Election(System.PLURALITY, VoteCollection((name, "b"), ())),
        ):
            with pytest.raises(InvalidCandidateError) as refused:
                build()
            assert str(refused.value) == message


class TestMasking:
    def test_order_restriction(self):
        votes = linear("abc", ("abc", 1))
        masked = mask_votes(votes, {"b", "c"})
        assert masked.groups == ((Vote.order("bc"), 1),)

    def test_approval_bit_projection(self):
        votes = approving("abc", (("a", "c"), 1))
        masked = mask_votes(votes, {"a", "b"})
        assert masked.groups == ((Vote.approval("a"), 1),)

    def test_full_mask_is_identity(self):
        votes = linear("abc", ("abc", 2), ("cba", 1))
        assert mask_votes(votes, "abc") == votes

    def test_mask_to_empty_set_keeps_multiplicities(self):
        votes = linear("ab", ("ab", 2), ("ba", 1))
        masked = mask_votes(votes, ())
        assert masked.universe == ()
        assert masked.groups == ((Vote.order(""), 2), (Vote.order(""), 1))

    def test_unknown_candidate_rejected(self):
        with pytest.raises(InvalidCandidateError):
            mask_votes(linear("ab", ("ab", 1)), {"z"})

    @given(elections(max_candidates=4, max_votes=3), st.data())
    def test_masking_idempotent(self, election, data):
        outer = data.draw(st.sets(st.sampled_from(election.candidates)))
        inner = data.draw(st.sets(st.sampled_from(sorted(outer)))) if outer else set()
        once = mask_votes(election.votes, inner)
        twice = mask_votes(mask_votes(election.votes, outer), inner)
        assert once == twice


class TestScores:
    def test_plurality_counts_first_places(self):
        votes = linear("ab", ("ab", 2), ("ba", 1))
        assert scores(System.PLURALITY, "ab", votes) == {"a": 2, "b": 1}

    def test_veto_counts_last_places(self):
        votes = linear("abc", ("abc", 1), ("bac", 1))
        assert scores(System.VETO, "abc", votes) == {"a": 0, "b": 0, "c": 2}

    def test_approval_counts_approvals(self):
        votes = approving("ab", (("a", "b"), 1), (("b",), 1))
        assert scores(System.APPROVAL, "ab", votes) == {"a": 1, "b": 2}

    @given(elections(systems=(System.PLURALITY, System.VETO)), st.data())
    def test_rank_counts_sum_to_vote_total(self, election, data):
        subset = data.draw(st.sets(st.sampled_from(election.candidates), min_size=1))
        tally = scores(election.system, subset, election.votes)
        assert sum(tally.values()) == election.votes.total

    def test_empty_candidate_set(self):
        votes = linear("ab", ("ab", 1))
        assert scores(System.VETO, (), votes) == {}
        # No election has an empty universe, so none is built for an empty set.
        assert scores(System.PLURALITY, (), mask_votes(votes, ())) == {}

    @pytest.mark.parametrize("call", [scores, winners])
    def test_ballots_of_another_kind_are_refused(self, call):
        # Both read the tables of an Election of the votes, so ballots that
        # do not fit the system are refused as Election refuses them.
        votes = approving("ab", (("a",), 1), (("a", "b"), 2))
        message = "^veto elections take order ballots, got approval$"
        with pytest.raises(InvalidVoteError, match=message):
            call(System.VETO, "ab", votes)

    @pytest.mark.parametrize("call", [scores, winners])
    def test_malformed_names_are_refused(self, call):
        votes = linear(("a b", "c"), (("a b", "c"), 1))
        message = "^candidate name 'a b' contains whitespace$"
        with pytest.raises(InvalidCandidateError, match=message):
            call(System.PLURALITY, ["c"], votes)

    @pytest.mark.parametrize(
        "call, action",
        [
            (lambda votes, names: mask_votes(votes, names), "mask to"),
            (lambda votes, names: scores(System.PLURALITY, names, votes), "score"),
            (lambda votes, names: winners(System.PLURALITY, names, votes), "score"),
        ],
        ids=["mask_votes", "scores", "winners"],
    )
    def test_unknown_candidate_is_named(self, call, action):
        message = f"^cannot {action} unknown candidate 'y'$"
        with pytest.raises(InvalidCandidateError, match=message):
            call(linear("ab", ("ab", 1)), {"a", "z", "y"})


class TestWinners:
    def test_plurality_majority(self):
        votes = linear("ab", ("ab", 2), ("ba", 1))
        assert winners(System.PLURALITY, "ab", votes) == {"a"}

    def test_veto_zero_vetoes_tie(self):
        votes = linear("abc", ("abc", 1), ("bac", 1))
        assert winners(System.VETO, "abc", votes) == {"a", "b"}

    def test_empty_candidate_set(self):
        votes = linear("ab", ("ab", 1))
        assert winners(System.PLURALITY, (), votes) == frozenset()

    @given(elections(), st.data())
    def test_winners_within_candidates_and_nonempty(self, election, data):
        subset = data.draw(st.sets(st.sampled_from(election.candidates), min_size=1))
        won = winners(election.system, subset, election.votes)
        assert won <= subset
        assert won

    @given(elections())
    def test_deterministic(self, election):
        first = winners(election.system, election.candidates, election.votes)
        second = winners(election.system, election.candidates, election.votes)
        assert first == second

    @given(elections(systems=(System.APPROVAL,)), st.data())
    def test_approval_count_mask_independent(self, election, data):
        outer = data.draw(st.sets(st.sampled_from(election.candidates), min_size=1))
        inner = data.draw(st.sets(st.sampled_from(sorted(outer)), min_size=1))
        wide = scores(System.APPROVAL, outer, election.votes)
        narrow = scores(System.APPROVAL, inner, election.votes)
        for candidate in inner:
            assert narrow[candidate] == wide[candidate]

    @given(elections(), st.data())
    def test_single_candidate_always_wins(self, election, data):
        lone = data.draw(st.sampled_from(election.candidates))
        assert winners(election.system, (lone,), election.votes) == {lone}


def test_election_pickled_in_another_process_hashes_here():
    # Elections keep their hash once computed; it must not travel with them,
    # because string hashes differ between processes.
    script = (
        "import pickle, sys\n"
        "from controlforge import make_election\n"
        "election = make_election('plurality', 'ab', [('ab', 2), ('ba', 1)])\n"
        "hash(election)\n"
        "sys.stdout.buffer.write(pickle.dumps(election))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=60
    )
    election = pickle.loads(done.stdout)
    assert election in {make_election("plurality", "ab", [("ab", 2), ("ba", 1)])}


class TestValidation:
    def test_incomplete_order_rejected(self):
        with pytest.raises(InvalidVoteError):
            linear("abc", ("ab", 1))

    def test_repeated_candidate_rejected(self):
        with pytest.raises(InvalidVoteError):
            linear("ab", ("aa", 1))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(InvalidVoteError):
            VoteCollection(("a", "b"), ((Vote.order("ab"), 1), (Vote.approval("a"), 1)))

    def test_kind_must_match_system(self):
        with pytest.raises(InvalidVoteError):
            Election(System.PLURALITY, approving("ab", (("a",), 1)))

    def test_system_given_by_value(self):
        # "veto" and System.VETO are equal keys of the table cache, so the
        # value must mean the member, whichever of them builds the tables.
        votes = linear("abc", ("abc", 2), ("bca", 1))
        subset_winners.cache_clear()
        assert Election("veto", votes).system is System.VETO
        assert winners("veto", "abc", votes) == winners(System.VETO, "abc", votes) == {"b"}
        with pytest.raises(ElectionError, match="^unknown election system 'bogus'$"):
            Election("bogus", votes)

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(InvalidVoteError):
            linear("ab", ("ab", 0))

    def test_approval_entries_normalized_to_canonical_order(self):
        votes = VoteCollection(("a", "b", "c"), ((Vote.approval(("c", "a")), 1),))
        assert votes.groups[0][0].entries == ("a", "c")

    def test_entries_given_as_a_list_are_kept_as_a_tuple(self):
        # The election keys the table cache, so its ballots must hash.
        vote = Vote(VoteKind.ORDER, ["c", "b", "a"])
        election = Election(System.PLURALITY, VoteCollection(("a", "b", "c"), ((vote, 1),)))
        instance = ControlInstance(election, "c")
        data = ("plurality", ("a", "b", "c"), ((("c", "b", "a"), 1),), "c")
        control_type = ControlTypeId.parse("CC-PC-TE-UW")
        tag = str(control_type)
        partition = Partition.of_candidates("a", "bc")
        expected = reference.verifies(data, tag, partition.first, partition.second)
        assert verify_solution(control_type, instance, partition) == expected
        code = reference.least_code(data, tag)
        least = Partition(
            PartitionKind.CANDIDATE, *reference.partition_of_code(election.candidates, code)
        )
        assert brute_force_search(control_type, instance).solution == least
        assert vote.entries == ("c", "b", "a") and vote == Vote.order("cba")

    @pytest.mark.parametrize("system", list(System))
    @pytest.mark.parametrize("kind", ["order", "approval", "bogus"])
    def test_kind_given_by_value(self, system, kind):
        # A plain string kind means the member of that value, so it gets
        # the member's treatment in every system; any other value is refused.
        entries = ("c", "a", "b") if kind == "order" else ("c", "a")
        if kind == "bogus":
            with pytest.raises(InvalidVoteError, match="unknown ballot kind 'bogus'"):
                Vote(kind, entries)
            return
        member = VoteKind(kind)
        vote = Vote(kind, entries)
        assert vote.kind is member
        assert vote == Vote(member, entries)
        votes = VoteCollection(("a", "b", "c"), ((vote, 1),))
        assert votes == VoteCollection(("a", "b", "c"), ((Vote(member, entries), 1),))
        assert votes.kind is member
        if member is vote_kind_for(system):
            assert Election(system, votes).votes.groups[0][0] == votes.groups[0][0]
        else:
            with pytest.raises(InvalidVoteError, match=f"ballots, got {kind}$"):
                Election(system, votes)


# ---------------------------------------------------------------------------
# The per-item walks, written out as the reference that the whole-value
# accept tests must match: the same values accepted (after the same
# normalization), and the same first defect named otherwise.


def reference_name(name):
    if not isinstance(name, str):
        raise InvalidCandidateError(f"candidate name {name!r} is not a string")
    if not name:
        raise InvalidCandidateError("candidate name must be nonempty")
    if any(ch.isspace() for ch in name):
        raise InvalidCandidateError(f"candidate name {name!r} contains whitespace")
    bad = frozenset(">,{}#:").intersection(name)
    if bad:
        raise InvalidCandidateError(
            f"candidate name {name!r} contains reserved character {sorted(bad)[0]!r}"
        )
    return name


def reference_groups(universe, groups):
    universe_set = frozenset(universe)
    position = {name: i for i, name in enumerate(universe)}
    normalized = []
    changed = False
    kind = None
    for vote, count in groups:
        if count <= 0:
            raise InvalidVoteError("vote multiplicity must be positive")
        if kind is None:
            kind = vote.kind
        elif vote.kind is not kind:
            raise InvalidVoteError("mixed ballot kinds in one collection")
        unknown = [c for c in vote.entries if c not in universe_set]
        if unknown:
            raise InvalidCandidateError(f"ballot names unknown candidate {unknown[0]!r}")
        if len(set(vote.entries)) != len(vote.entries):
            raise InvalidVoteError(f"ballot {vote} repeats a candidate")
        if vote.kind is VoteKind.ORDER:
            if len(vote.entries) != len(universe):
                raise InvalidVoteError(
                    f"ballot {vote} is not a permutation of the candidate set"
                )
        else:
            canonical = tuple(sorted(vote.entries, key=position.__getitem__))
            if canonical != vote.entries:
                vote = Vote(VoteKind.APPROVAL, canonical)
                changed = True
        normalized.append((vote, count))
    return tuple(normalized) if changed else groups


def reference_election(system, universe, groups):
    groups = reference_groups(universe, groups)
    if not universe:
        raise InvalidCandidateError("an election needs at least one candidate")
    seen = set()
    for name in universe:
        reference_name(name)
        if name in seen:
            raise InvalidCandidateError(f"duplicate candidate name {name!r}")
        seen.add(name)
    kind = groups[0][0].kind if groups else None
    expected = VoteKind.APPROVAL if system is System.APPROVAL else VoteKind.ORDER
    if kind is not None and kind is not expected:
        raise InvalidVoteError(f"{system} elections take {expected} ballots, got {kind}")
    return groups


def library_election(system, universe, groups):
    return Election(system, VoteCollection(universe, groups)).votes.groups


def library_groups(universe, groups):
    return VoteCollection(universe, groups).groups


def outcome(build, *args):
    """("accepted", result), or the type and message of the error raised."""
    try:
        return "accepted", build(*args)
    except Exception as err:
        return type(err), str(err)


def same_verdict(system, universe, groups):
    # The collection alone too: an election refuses a duplicate name before
    # its ballots' order could show.
    assert outcome(library_groups, universe, groups) == outcome(reference_groups, universe, groups)
    ours = outcome(library_election, system, universe, groups)
    assert ours == outcome(reference_election, system, universe, groups)
    return ours


# Every character str.isspace() accepts on this interpreter, some
# look-alikes it does not (zero-width space, byte order mark, the Mongolian
# vowel separator that Unicode 6.3 stopped counting as a space), controls
# and a lone surrogate.
ODD_CHARACTERS = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()) + (
    "\u200b\ufeff\u180e\x00\x07\x7f\ud800"
)
RESERVED = ">,{}#:"

O, A = Vote.order, Vote.approval
P, V, AP = System.PLURALITY, System.VETO, System.APPROVAL

# In order: valid orders; unknown, repeated, missing and extra entries; zero
# and negative multiplicities; two defects in either order; mixed kinds; a
# system/kind mismatch; approval ballots out of order, empty, unknown,
# repeated, or reordered behind a later defect; two reordered ballots; a
# reordered ballot before an unknown name or a kind switch; an approval
# ballot over a universe with a duplicate; list entries; kinds given
# as plain strings; a universe with a duplicate; a bad name behind valid and
# behind bad ballots; the empty universe; no ballots.
BALLOT_CASES = [
    (P, "abc", ((O("abc"), 2), (O("cab"), 1))),
    (P, "abc", ((O("abz"), 1),)),
    (P, "abc", ((O("aab"), 1),)),
    (P, "abc", ((O("ab"), 1),)),
    (P, "abc", ((O("abcd"), 1),)),
    (P, "abc", ((O("abc"), 0),)),
    (V, "abc", ((O("abc"), 1), (O("bca"), -1))),
    (P, "abc", ((O("abz"), 1), (O("abc"), 0))),
    (P, "abc", ((O("abc"), 0), (O("abz"), 1))),
    (P, "abc", ((O("abc"), 1), (A("a"), 1))),
    (AP, "abc", ((A("a"), 1), (O("abc"), 1))),
    (P, "abc", ((A("ab"), 1),)),
    (AP, "abc", ((O("abc"), 1),)),
    (AP, "abc", ((A("ca"), 1), (A("b"), 2))),
    (AP, "abc", ((A("bac"), 1), (A(""), 1))),
    (AP, "abc", ((A("z"), 1),)),
    (AP, "abc", ((A("aa"), 1),)),
    (AP, "abc", ((A("ac"), 1), (A("ca"), 0))),
    (AP, "abc", ((A("ca"), 1), (A("cb"), 2))),
    (AP, "abc", ((A("ca"), 1), (A("z"), 1))),
    (AP, "abc", ((A("ca"), 1), (O("abc"), 1))),
    (AP, ("b", "a", "b"), ((A("ba"), 1),)),
    (AP, "abc", ((Vote(VoteKind.APPROVAL, ["a", "c"]), 1),)),
    (P, "abc", ((Vote(VoteKind.ORDER, ["c", "b", "a"]), 1),)),
    (AP, "abc", ((Vote("approval", ("c", "a")), 1),)),
    (P, "abc", ((Vote("order", tuple("abc")), 1),)),
    (P, "abc", ((O("abc"), 1), (Vote("order", tuple("abc")), 1))),
    (P, ("a", "a"), ((O("aa"), 1),)),
    (AP, ("a", "a"), ((A("a"), 1),)),
    (P, ("a b", "c"), ((O("abc"), 1),)),
    (P, ("a b", "c"), ((Vote(VoteKind.ORDER, ("a b", "c")), 1),)),
    (P, "", ((O(""), 1),)),
    (P, "abc", ()),
]

NAME_CASES = (
    [(), ("",), ("a", ""), ("", "a"), ("a", "b", "c")]
    + [(f"a{ch}b",) for ch in ODD_CHARACTERS]
    + [(ch,) for ch in ODD_CHARACTERS]
    + [("x", f"{ch}a") for ch in ODD_CHARACTERS]
    + [(f"a{ch}",) for ch in RESERVED]
    + [(ch, "b") for ch in RESERVED]
    + [("a", "a"), ("a", "b", "a"), ("a", "a", "b c"), ("a b", "a", "a"), ("a", "b>", "a")]
    + [("a{b}",), ("a#:",), ("a b>",), (0,), (1,), (("a",),), ("a", ("a",))]
    + [(b"a",), (None,), ("a", None)]
)


# Names over the whole alphabet, surrogates included: mostly valid, or with
# the odd and reserved characters drawn often enough to matter.
plain_name = st.text(st.characters(exclude_categories=()), min_size=1, max_size=3)
any_name = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from(ODD_CHARACTERS + RESERVED)),
    max_size=3,
)


@st.composite
def raw_elections(draw):
    """(system, universe, groups): half well formed (approval ballots in any
    order), half free to break any rule."""
    wild = draw(st.booleans())
    system = draw(st.sampled_from(System))
    universe = tuple(draw(st.lists(any_name if wild else plain_name, max_size=4)))
    stray = st.sampled_from(universe + tuple(draw(st.lists(any_name, max_size=1))) or ("?",))
    fitting = VoteKind.APPROVAL if system is AP else VoteKind.ORDER
    groups = []
    for _ in range(draw(st.integers(0, 3))):
        kind = fitting
        if wild:
            kind = draw(st.sampled_from([fitting, VoteKind.ORDER, VoteKind.APPROVAL]))
        if kind is VoteKind.ORDER:
            shaped = st.permutations(universe)
        else:
            shaped = st.lists(st.sampled_from(universe), unique=True) if universe else st.just([])
        entries = draw(st.one_of(shaped, st.lists(stray, max_size=5)) if wild else shaped)
        count = draw(st.integers(-1, 3) if wild else st.integers(1, 3))
        groups.append((Vote(kind, tuple(entries)), count))
    return system, universe, tuple(groups)


class TestDiagnosticsMatchReference:
    def test_split_and_isspace_share_a_whitespace_table(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        split_on = set(every) - set("".join("x".join(every).split()))
        assert split_on == {ch for ch in every if ch.isspace()}
        assert {"\x1c", "\xa0", "\u2028"} <= split_on

    @pytest.mark.parametrize("names", NAME_CASES, ids=repr)
    def test_names(self, names):
        for system in System:
            same_verdict(system, names, ())
        for name in names:
            assert outcome(check_candidate_name, name) == outcome(reference_name, name)

    @pytest.mark.parametrize("system, universe, groups", BALLOT_CASES, ids=repr)
    def test_ballots(self, system, universe, groups):
        same_verdict(system, tuple(universe), groups)

    def test_cases_reach_acceptance_as_given_and_reordered(self):
        verdicts = [same_verdict(s, tuple(u), g) for s, u, g in BALLOT_CASES]
        kept = [v[1] == g for v, (_, _, g) in zip(verdicts, BALLOT_CASES) if v[0] == "accepted"]
        assert True in kept and False in kept

    @given(st.text(st.characters(exclude_categories=())))
    def test_any_name(self, name):
        assert outcome(check_candidate_name, name) == outcome(reference_name, name)

    @settings(max_examples=500)
    @given(raw_elections())
    def test_any_election(self, raw):
        same_verdict(*raw)


def six_by_eight_elections(system):
    """The command line's sizes, which the exhaustive universes do not reach:
    100 seeded random elections, the 8 voters in groups of random sizes."""
    rng = random.Random(f"{system}:6x8")
    candidates = tuple("abcdef")

    def ballot():
        if system is System.APPROVAL:
            return [c for c in candidates if rng.random() < 0.5]
        return rng.sample(candidates, len(candidates))

    for _ in range(100):
        cuts = sorted(rng.sample(range(1, 8), rng.randint(0, 7)))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, 8])]
        yield make_election(system, candidates, [(ballot(), size) for size in sizes])


def assert_every_entry_matches_the_reference(election):
    table = subset_winners(election)
    kind = election.system.value
    candidates = election.candidates
    ballots = plain_ballots(election)
    m, n = len(candidates), election.votes.total
    bit = {c: 1 << (m - 1 - i) for i, c in enumerate(candidates)}
    for subset in range(1 << m):
        names = [c for c in candidates if bit[c] & subset]
        expected = reference.winners(kind, names, ballots)
        assert table.by_candidates[subset] == sum(map(bit.get, expected))
    table.voter_blocks()  # builds ``by_voters``
    for chosen in range(1 << n):
        voters = {j for j in range(n) if chosen >> (n - 1 - j) & 1}
        chosen_ballots = reference.voter_ballots(ballots, voters)
        expected = reference.winners(kind, candidates, chosen_ballots)
        assert table.by_voters[chosen] == sum(map(bit.get, expected))


class TestSubsetWinnersMatchReference:
    """Every entry of both winner tables against ``reference.winners`` on the
    candidate set, or on the chosen voters' ballots; six ballots exercise
    multiplicities."""

    @pytest.mark.parametrize("max_candidates, max_votes", [(4, 4), (3, 6)])
    @pytest.mark.parametrize("system", list(System))
    def test_every_entry(self, system, max_candidates, max_votes):
        for election in iter_elections(Universe(system, max_candidates, max_votes)):
            assert_every_entry_matches_the_reference(election)

    @pytest.mark.parametrize("system", list(System))
    def test_every_entry_at_six_candidates_and_eight_voters(self, system):
        for election in six_by_eight_elections(system):
            assert_every_entry_matches_the_reference(election)


def reference_tally(system, subset, votes):
    """Points from the ballots ``mask_votes`` leaves: the first entry under
    plurality, the last under veto, every entry under approval."""
    masked = mask_votes(votes, subset)
    tally = dict.fromkeys(masked.universe, 0)
    for vote, count in masked.groups:
        entries = vote.entries
        if system is not System.APPROVAL:
            entries = entries[:1] if system is System.PLURALITY else entries[-1:]
        for name in entries:
            tally[name] += count
    return tally


def assert_scores_and_winners_match_the_reference(election):
    system, candidates, votes = election.system, election.candidates, election.votes
    ballots = plain_ballots(election)
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            expected = reference.winners(system.value, subset, ballots)
            assert winners(system, subset, votes) == expected
            # Compared as item lists: the keys must be in canonical order.
            tally = reference_tally(system, subset, votes)
            assert list(scores(system, subset, votes).items()) == list(tally.items())


class TestScoresAndWinnersMatchReference:
    """``scores`` and ``winners``, which read the winner tables, on every
    candidate subset: winners against ``reference.winners`` on the plain
    ballots, scores against a tally of the masked ballots."""

    @pytest.mark.parametrize("system", list(System))
    def test_every_subset(self, system):
        for election in iter_elections(Universe(system, 3, 4)):
            assert_scores_and_winners_match_the_reference(election)

    @pytest.mark.parametrize("system", list(System))
    def test_every_subset_at_six_candidates_and_eight_voters(self, system):
        for election in six_by_eight_elections(system):
            assert_scores_and_winners_match_the_reference(election)


def desk_elections():
    """Every election of up to 3 candidates and 3 ballots in the three systems:
    406 distinct elections, more than the table cache keeps."""
    return [e for system in System for e in iter_elections(Universe(system, 3, 3))]


def equal_copy(election):
    """An election equal to the given one, built anew: a distinct object."""
    votes = election.votes
    return Election(election.system, VoteCollection(votes.universe, votes.groups))


def lookup_steps(rng, pool, steps=2000):
    """A seeded run of table lookups over the pool: each step an election to
    look up (the last one again, an equal but distinct copy of it or of
    another, another from the pool, or a run of 300 distinct ones in a row),
    or None to clear the cache; the step after a clear may ask the election
    asked before it again."""
    last = None
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.01:
            yield None
            continue
        if roll < 0.02:
            start = rng.randrange(len(pool))
            yield from (pool[(start + i) % len(pool)] for i in range(300))
            last = pool[(start + 299) % len(pool)]
            continue
        if roll < 0.4 and last is not None:
            election = last
        elif roll < 0.5 and last is not None:
            election = equal_copy(last)
        elif roll < 0.6:
            election = equal_copy(rng.choice(pool))
        else:
            election = rng.choice(pool)
        last = election
        yield election


class TestTableLookupMatchesReference:
    """``subset_winners``, a slot for the election asked for last in front of an
    LRU, against the plain ``functools.lru_cache(maxsize=256)`` of
    ``SubsetWinners`` it stands for, on ``lookup_steps`` over the desk
    elections. Two lookups return the same table exactly when the model's do,
    and after every step ``cache_info`` (hits, misses, ``maxsize``,
    ``currsize``) is the model's. Asking the last object again calls neither
    ``Election.__hash__`` nor ``__eq__``: that is what the slot is for."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_lookups(self, seed, monkeypatch):
        model = functools.lru_cache(maxsize=256)(SubsetWinners)
        calls = [0]

        def counted(method):
            def counting(*args):
                calls[0] += 1
                return method(*args)

            return counting

        monkeypatch.setattr(Election, "__hash__", counted(Election.__hash__))
        monkeypatch.setattr(Election, "__eq__", counted(Election.__eq__))
        subset_winners.cache_clear()
        ours_of, model_of = {}, {}  # table id -> the other side's table
        kept = []  # every table, so that no id is reused
        last, again, full = None, 0, False
        for election in lookup_steps(random.Random(seed), desk_elections()):
            if election is None:
                subset_winners.cache_clear()
                model.cache_clear()
                last = None
            else:
                before = calls[0]
                mine = subset_winners(election)
                if election is last:
                    assert calls[0] == before
                    again += 1
                theirs = model(election)
                assert type(mine) is SubsetWinners
                assert ours_of.setdefault(id(theirs), mine) is mine
                assert model_of.setdefault(id(mine), theirs) is theirs
                kept.append((mine, theirs))
                last = election
            info = subset_winners.cache_info()
            assert info == model.cache_info()
            full = full or info.currsize == info.maxsize
        assert again and full
        subset_winners.cache_clear()


def test_the_slot_keeps_no_table_the_lru_has_dropped():
    pool = desk_elections()
    maxsize = subset_winners.cache_info().maxsize
    first, others = pool[0], pool[1 : maxsize + 1]
    subset_winners.cache_clear()
    gc.collect()
    table = weakref.ref(subset_winners(first))
    assert subset_winners(first) is table()  # asked again: held by the slot too
    for election in others:
        subset_winners(election)
    gc.collect()
    assert table() is None
    table = weakref.ref(subset_winners(others[-1]))  # the slot's table
    subset_winners.cache_clear()
    gc.collect()
    assert table() is None


def test_the_winner_cache_is_the_first_cache_of_its_module():
    # bench/run.py reports the first ``cache_info`` in the module as the winner cache.
    found = vars(elections_module).values()
    caches = [value for value in found if callable(getattr(value, "cache_info", None))]
    assert caches[0] is subset_winners


class TestVoterSelection:
    def test_expansion_order_indexing(self):
        votes = linear("ab", ("ab", 2), ("ba", 1))
        assert votes.total == 3
        picked = votes.select_voters(frozenset({0, 2}))
        assert picked.groups == ((Vote.order("ab"), 1), (Vote.order("ba"), 1))

    def test_identical_ballots_split_apart(self):
        votes = linear("ab", ("ab", 2))
        one = votes.select_voters(frozenset({1}))
        assert one.groups == ((Vote.order("ab"), 1),)
        assert votes.select_voters(frozenset()).groups == ()

    @given(elections(max_votes=5), st.data())
    def test_selection_partitions_the_collection(self, election, data):
        n = election.votes.total
        chosen = data.draw(st.sets(st.sampled_from(range(n))) if n else st.just(set()))
        first = election.votes.select_voters(frozenset(chosen))
        second = election.votes.select_voters(frozenset(range(n)) - frozenset(chosen))
        assert first.total + second.total == n
